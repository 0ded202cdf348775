"""Exterior-algebra elements over a polynomial ring.

One class, `ExtElement`, holds every element of R (x) Lambda the library
uses: a map from ascending index tuples (the exterior part, or the basis
labels of a free module) to polynomial coefficients.  The kind of exterior
variable is an attribute, not a subclass:

- ``"u"``: F[t] (x) Lambda[u], the odd presentations and their kernels;
- ``"dz"``: F[t] (x) Lambda[dz], the differential forms P_{L,S} come from;
- ``"dx"``: F[x] (x) Lambda[dx], the localized target of the evaluations;
- a frozenset of form indices: a chart on that flat, where index j reads
  dz_j on the flat and u_j off it.

Kind takes part in equality and in every operation on two elements.  Signs
are normalized into the coefficients at construction, so equality is
structural.  Exterior squares vanish in every characteristic, including 2.
"""

from __future__ import annotations

from .polynomials import (
    MAX_EXPONENT,
    Polynomial,
    PolyRing,
    RingError,
    format_terms,
    parse_terms,
)

U, DZ, DX = "u", "dz", "dx"


class UnconvertibleMonomial(ValueError):
    """A dz factor without its matching t factor blocks conversion to u's."""

    def __init__(self, mono_text: str):
        super().__init__(f"monomial {mono_text} has a dz factor without its t factor")
        self.mono_text = mono_text


def subset_key(subset):
    """Sort key making the label order total: larger descending tuple wins."""
    return subset[::-1]


def ext_name(kind, i: int) -> str:
    """The name of exterior variable i under `kind`."""
    if isinstance(kind, str):
        return f"{kind}{i}"
    return f"dz{i}" if i in kind else f"u{i}"


def shuffle_sign(s1, s2) -> int:
    """Sign of the permutation sorting (s1 ascending, then s2 ascending);
    0 when the subsets intersect."""
    inversions = 0
    i = 0
    n1 = len(s1)
    for b in s2:
        while i < n1 and s1[i] < b:
            i += 1
        if i < n1 and s1[i] == b:
            return 0
        inversions += n1 - i
    return -1 if inversions & 1 else 1


def merge_subsets(s1, s2):
    """(sign, sorted union) for disjoint subsets; sign 0 if they meet."""
    sign = shuffle_sign(s1, s2)
    if sign == 0:
        return 0, ()
    return sign, tuple(sorted(s1 + s2))


class ExtElement:
    """Immutable element; polynomial entries keyed by ascending label tuple.

    As a free-module element the term order is TOP (term over position)
    lex: monomials compare under the ring's lex order first, then labels by
    their descending index tuples (`subset_key`).
    """

    __slots__ = ("ring", "kind", "_entries", "_lt")

    def __init__(self, ring: PolyRing, entries: dict, kind=U):
        self.ring = ring
        self.kind = kind
        self._entries = {s: p for s, p in entries.items() if not p.is_zero()}
        self._lt = None

    @classmethod
    def _unfiltered(cls, ring: PolyRing, entries: dict, kind=U):
        """The element with `entries` as they are, for callers whose
        entries hold no zero polynomial; nothing is copied or dropped."""
        e = cls.__new__(cls)
        e.ring = ring
        e.kind = kind
        e._entries = entries
        e._lt = None
        return e

    @classmethod
    def zero(cls, ring, kind=U):
        return cls(ring, {}, kind)

    @classmethod
    def from_poly(cls, poly: Polynomial, kind=U):
        return cls(poly.ring, {(): poly}, kind)

    @classmethod
    def generator(cls, ring, index: int, kind=U):
        return cls(ring, {(index,): ring.one()}, kind)

    @property
    def entries(self):
        return dict(self._entries)

    def entry(self, label) -> Polynomial:
        return self._entries.get(tuple(label), self.ring.zero())

    def labels(self):
        return sorted(self._entries, key=subset_key)

    def is_zero(self) -> bool:
        return not self._entries

    def grassmann_degrees(self):
        return sorted({len(s) for s in self._entries})

    def lt(self):
        """(monomial, coefficient, label) of the leading term under TOP-lex."""
        if self._lt is None:
            if not self._entries:
                raise ValueError("zero element has no leading term")
            best = None
            best_key = None
            for label, p in self._entries.items():
                m = p.lm()
                key = (m, subset_key(label))
                if best_key is None or key > best_key:
                    best_key = key
                    best = (m, p._d[m], label)
            self._lt = best
        return self._lt

    def _map(self, fn):
        return ExtElement(self.ring, {s: fn(p) for s, p in self._entries.items()},
                          self.kind)

    def __add__(self, other):
        self._check(other)
        entries = dict(self._entries)
        for s, p in other._entries.items():
            q = entries.get(s)
            entries[s] = p if q is None else q + p
        return ExtElement(self.ring, entries, self.kind)

    def __sub__(self, other):
        self._check(other)
        entries = dict(self._entries)
        for s, p in other._entries.items():
            q = entries.get(s)
            entries[s] = -p if q is None else q - p
        return ExtElement(self.ring, entries, self.kind)

    def __neg__(self):
        return self._map(lambda p: -p)

    def scale(self, c):
        return self._map(lambda p: p.scale(c))

    def poly_mul(self, poly: Polynomial):
        return self._map(lambda p: p * poly)

    def mul_term(self, c, mono):
        return self._map(lambda p: p.mul_term(c, mono))

    def monic(self):
        if not self._entries:
            return self
        _, c, _ = self.lt()
        if c == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(c))

    def lift(self, parent_ring: PolyRing):
        return ExtElement(
            parent_ring,
            {s: self.ring.lift(p, parent_ring) for s, p in self._entries.items()},
            self.kind,
        )

    def restrict(self, subring: PolyRing):
        return ExtElement(
            subring,
            {s: self.ring.restrict(p, subring) for s, p in self._entries.items()},
            self.kind,
        )

    def uses_variable(self, name: str) -> bool:
        shift = self.ring.shift_of(name)
        return any(
            (m >> shift) & MAX_EXPONENT for p in self._entries.values() for m in p._d
        )

    def sort_key(self):
        """Canonical key: term list sorted descending, for deterministic output."""
        return tuple((subset_key(s), self._entries[s].terms) for s in self.labels())

    def _check(self, other):
        if (not isinstance(other, ExtElement) or other.kind != self.kind
                or other.ring != self.ring):
            raise RingError("mixed exterior elements")

    def __eq__(self, other):
        return (
            isinstance(other, ExtElement)
            and other.kind == self.kind
            and other.ring == self.ring
            and other._entries == self._entries
        )

    def __hash__(self):
        return hash((self.kind, self.ring.variables, self.sort_key()))

    def __str__(self):
        kind = self.kind
        return format_terms(self.ring, (
            (self._entries[s], "*".join([ext_name(kind, i) for i in s]))
            for s in self.labels()
        ))

    def __repr__(self):
        return f"<ExtElement {self}>"


def ext_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Graded-commutative product; exterior squares vanish identically."""
    a._check(b)
    entries: dict = {}
    for s1, p1 in a._entries.items():
        for s2, p2 in b._entries.items():
            sign, s = merge_subsets(s1, s2)
            if sign == 0:
                continue
            prod = p1 * p2
            if sign < 0:
                prod = -prod
            q = entries.get(s)
            entries[s] = prod if q is None else q + prod
    return ExtElement(a.ring, entries, a.kind)


def ext_mul_monomial(subset, e: ExtElement) -> ExtElement:
    """The product of the exterior monomial with index set `subset` and e.

    Equal to `ext_mul` with the unit-coefficient monomial on the left, but no
    polynomial is multiplied: each label s of e becomes subset + s with the
    shuffle sign, or drops out when it meets `subset`.  Distinct labels stay
    distinct, so no two terms combine.
    """
    entries = {}
    for s, p in e._entries.items():
        sign, merged = merge_subsets(subset, s)
        if sign:
            entries[merged] = p if sign > 0 else -p
    return ExtElement._unfiltered(e.ring, entries, e.kind)


def xi_from_tdz(e: ExtElement) -> ExtElement:
    """Substitute t_j * dz_j -> u_j throughout a dz element.

    Every monomial must carry a t_j factor for each of its dz_j factors;
    otherwise the element does not lie in the u-subalgebra and we raise
    UnconvertibleMonomial.  Indices keep their slots, so no signs appear.
    """
    if e.kind != DZ:
        raise RingError("only dz elements convert to u elements")
    ring = e.ring
    entries: dict = {}
    for s, p in e._entries.items():
        t_s = ring.mono({f"t{j}": 1 for j in s})
        d = {}
        for m, c in p._d.items():
            if not ring.mono_divides(t_s, m):
                name = "*".join(
                    f"{n}^{x}" if x > 1 else n for n, x in ring.mono_items(m)
                )
                dzs = "*".join(f"dz{j}" for j in s)
                raise UnconvertibleMonomial(f"{name or '1'}*{dzs}")
            d[m - t_s] = c
        poly = Polynomial(ring, d)
        q = entries.get(s)
        entries[s] = poly if q is None else q + poly
    return ExtElement(ring, entries, U)


def parse_ext(ring: PolyRing, text: str, kind=U) -> ExtElement:
    """Parse e.g. ``t1*u2 - u3*u1`` normalizing exterior factor order/signs.

    A factor is exterior when it is the name `kind` gives its index.
    """
    entries: dict = {}
    for coeff_text, exps in parse_terms(text):
        c = ring.field.parse(coeff_text)
        indices = []
        poly_exps = {}
        dead = False
        for name, e in exps.items():
            digits = name[len(name.rstrip("0123456789")):]
            if digits and ext_name(kind, int(digits)) == name:
                if e > 1:
                    dead = True  # exterior square
                    break
                indices.append(int(digits))
            else:
                poly_exps[name] = e
        if dead:
            continue
        sign = 1
        ordered: list = []
        for idx in indices:  # insertion sort tracking the permutation sign
            pos = len(ordered)
            while pos > 0 and ordered[pos - 1] > idx:
                pos -= 1
                sign = -sign
            if pos > 0 and ordered[pos - 1] == idx:
                dead = True
                break
            ordered.insert(pos, idx)
        if dead:
            continue
        if sign < 0:
            c = ring.field.neg(c)
        s = tuple(ordered)
        poly = ring.term(c, poly_exps)
        q = entries.get(s)
        entries[s] = poly if q is None else q + poly
    return ExtElement(ring, entries, kind)
