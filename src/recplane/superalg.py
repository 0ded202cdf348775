"""Exterior-algebra elements over a polynomial ring.

One class, `ExtElement`, holds every element of R (x) Lambda the library
uses: a sum of terms c * x^a * e_S, where S is an ascending index tuple
(the exterior part, or the basis label of a free module).  The kind of
exterior variable is an attribute, not a subclass:

- ``"u"``: F[t] (x) Lambda[u], the odd presentations and their kernels;
- ``"dz"``: F[t] (x) Lambda[dz], the differential forms P_{L,S} come from;
- ``"dx"``: F[x] (x) Lambda[dx], the localized target of the evaluations;
- a frozenset of form indices: a chart on that flat, where index j reads
  dz_j on the flat and u_j off it.

An element is stored as one flat dict {packed term: coefficient}.  A term
packs its monomial (the int of `polynomials`) above the `LABEL_BITS`-bit
mask of its label, bit i - 1 for index i: `(mono << LABEL_BITS) | mask`.
Int order on masks is the order of labels by their descending index tuples
(`subset_key`), so int order on packed terms is the TOP (term over
position) lex order of the free module, and the greatest key is the
leading term.  Multiplying by x^b adds `b << LABEL_BITS` to every key, and
the product of two terms with disjoint labels is the sum of their keys.
An index outside 1..LABEL_BITS has no bit and is refused (a RingError), so
no label reaches into the monomial bits.  `label_mask` and `mask_label`
turn labels into masks and back, and `entries` builds a label ->
Polynomial view on demand.  The layers that work term by term read the
packed dict itself: the substitution core and `hilbert`'s rank step in
`oracle`, and the chart division in `relations`; `text` prints it
without building any Polynomial.

Kind takes part in equality and in every operation on two elements.  Signs
are normalized into the coefficients at construction, so equality is
structural.  Exterior squares vanish in every characteristic, including 2.

Coefficients follow the rule of `polynomials`: sums, negation, scaling,
products and `parse_ext` add into one packed dict unreduced, a sign as a
plain minus, and canonicalise it once with `PolyRing.canonical`, over F_2
as over every other field; so do the substitution and the chart division.
"""

from __future__ import annotations

import functools

from .polynomials import (
    MAX_EXPONENT,
    ExponentOverflow,
    Polynomial,
    PolyRing,
    RingError,
    format_terms,
    parse_terms,
)

U, DZ, DX = "u", "dz", "dx"

LABEL_BITS = 32  # label bits below the monomial in a packed term
LABEL_MASK = (1 << LABEL_BITS) - 1


class UnconvertibleMonomial(ValueError):
    """A dz factor without its matching t factor blocks conversion to u's."""

    def __init__(self, mono_text: str):
        super().__init__(f"monomial {mono_text} has a dz factor without its t factor")
        self.mono_text = mono_text


def subset_key(subset):
    """Sort key making the label order total: larger descending tuple wins."""
    return subset[::-1]


def label_mask(label) -> int:
    """The mask of an ascending index tuple: bit i - 1 for index i."""
    mask = 0
    prev = 0
    for i in label:
        if i <= prev or i > LABEL_BITS:
            raise RingError(
                f"label {tuple(label)} is not an ascending tuple of indices "
                f"in 1..{LABEL_BITS}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


@functools.cache
def mask_label(mask: int) -> tuple:
    """The ascending index tuple of a label mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _odd_swaps(a: int, b: int) -> bool:
    """Whether e_A * e_B = -e_{A+B} for disjoint masks a, b: the pairs
    i in A, j in B with i > j are odd in number."""
    n = 0
    while a:
        low = a & -a
        n += (b & (low - 1)).bit_count()  # the indices of B below low
        a ^= low
    return bool(n & 1)


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


def _check_packed_guard(ring: PolyRing, keys) -> None:
    guard = ring.guard << LABEL_BITS
    for k in keys:
        if k & guard:
            raise ExponentOverflow()


def _terms_by_mask(e: ExtElement) -> dict:
    """{label mask: [(packed key, coefficient), ...]} of e's terms."""
    out: dict = {}
    for k, c in e._t.items():
        out.setdefault(k & LABEL_MASK, []).append((k, c))
    return out


class ExtElement:
    """Immutable element; one dict {packed term: coefficient}, no zero
    coefficient stored.

    As a free-module element the term order is TOP (term over position)
    lex: monomials compare under the ring's lex order first, then labels by
    their descending index tuples (`subset_key`).  That is int order on
    packed terms, so `lead_key()` is the greatest key.
    """

    __slots__ = ("ring", "kind", "_t", "_lead")

    def __init__(self, ring: PolyRing, entries: dict, kind=U):
        """The element with polynomial entries {label: Polynomial}."""
        self.ring = ring
        self.kind = kind
        t = {}
        for label, p in entries.items():
            mask = label_mask(label)
            for m, c in p._d.items():
                t[(m << LABEL_BITS) | mask] = c
        self._t = t
        self._lead = None

    @classmethod
    def _of_packed(cls, ring: PolyRing, t: dict, kind=U):
        """The element with packed terms `t` as they are, for callers whose
        dict holds no zero coefficient; nothing is copied or dropped."""
        e = cls.__new__(cls)
        e.ring = ring
        e.kind = kind
        e._t = t
        e._lead = None
        return e

    @classmethod
    def zero(cls, ring, kind=U):
        return cls._of_packed(ring, {}, kind)

    @classmethod
    def from_poly(cls, poly: Polynomial, kind=U):
        return cls(poly.ring, {(): poly}, kind)

    @classmethod
    def generator(cls, ring, index: int, kind=U):
        return cls(ring, {(index,): ring.one()}, kind)

    @property
    def entries(self):
        """{label: Polynomial}, built anew on each call, labels ascending."""
        by_mask = _terms_by_mask(self)
        return {
            mask_label(mask): Polynomial(
                self.ring, {k >> LABEL_BITS: c for k, c in by_mask[mask]})
            for mask in sorted(by_mask)
        }

    def entry(self, label) -> Polynomial:
        mask = label_mask(tuple(label))
        return Polynomial(self.ring, {
            k >> LABEL_BITS: c for k, c in self._t.items()
            if k & LABEL_MASK == mask
        })

    def labels(self):
        return [mask_label(mask)
                for mask in sorted({k & LABEL_MASK for k in self._t})]

    def is_zero(self) -> bool:
        return not self._t

    def grassmann_degrees(self):
        return sorted({(k & LABEL_MASK).bit_count() for k in self._t})

    def lead_key(self) -> int:
        """The packed leading term under TOP-lex: the greatest key."""
        if self._lead is None:
            if not self._t:
                raise ValueError("zero element has no leading term")
            self._lead = max(self._t)
        return self._lead

    def lt(self):
        """(monomial, coefficient, label) of the leading term under TOP-lex."""
        k = self.lead_key()
        return k >> LABEL_BITS, self._t[k], mask_label(k & LABEL_MASK)

    def __add__(self, other):
        self._check(other)
        t = dict(self._t)
        get = t.get
        for k, c in other._t.items():
            t[k] = get(k, 0) + c
        return ExtElement._of_packed(self.ring, self.ring.canonical(t),
                                     self.kind)

    def __sub__(self, other):
        self._check(other)
        t = dict(self._t)
        get = t.get
        for k, c in other._t.items():
            t[k] = get(k, 0) - c
        return ExtElement._of_packed(self.ring, self.ring.canonical(t),
                                     self.kind)

    def __neg__(self):
        t = self.ring.canonical({k: -c for k, c in self._t.items()})
        return ExtElement._of_packed(self.ring, t, self.kind)

    def scale(self, c):
        field = self.ring.field
        if c == field.zero:
            return ExtElement.zero(self.ring, self.kind)
        if c == field.one:
            return self
        t = self.ring.canonical({k: c * x for k, x in self._t.items()})
        return ExtElement._of_packed(self.ring, t, self.kind)

    def poly_mul(self, poly: Polynomial):
        shifted = [(m << LABEL_BITS, x) for m, x in poly._d.items()]
        acc: dict = {}
        get = acc.get
        for k, c in self._t.items():
            for s, x in shifted:
                key = k + s
                acc[key] = get(key, 0) + c * x
        t = self.ring.canonical(acc)
        _check_packed_guard(self.ring, t)
        return ExtElement._of_packed(self.ring, t, self.kind)

    def monic(self):
        if not self._t:
            return self
        c = self._t[self.lead_key()]
        if c == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(c))

    def lift(self, parent_ring: PolyRing):
        """Reinterpret in `parent_ring`, which extends the ring by greater
        variables; ranks do not move, so neither do packed terms."""
        k = len(parent_ring.variables) - len(self.ring.variables)
        if k < 0 or parent_ring.variables[k:] != self.ring.variables:
            raise RingError("target ring does not extend this ring")
        return ExtElement._of_packed(parent_ring, dict(self._t), self.kind)

    def restrict(self, subring: PolyRing):
        """Reinterpret in `subring`, the ring without its greatest
        variables; no term may use a dropped one."""
        k = len(self.ring.variables) - len(subring.variables)
        if k < 0 or self.ring.variables[k:] != subring.variables:
            raise RingError("subring must drop a prefix of greatest variables")
        # the greatest key has the lex-greatest monomial, which involves a
        # dropped variable if any does
        if self._t and self.lead_key() >> (
                LABEL_BITS + subring.guard.bit_length()):
            raise RingError("element involves dropped variables")
        return ExtElement._of_packed(subring, dict(self._t), self.kind)

    def uses_variable(self, name: str) -> bool:
        shift = LABEL_BITS + self.ring.shift_of(name)
        return any((k >> shift) & MAX_EXPONENT for k in self._t)

    def sort_key(self):
        """Canonical key: the packed terms, descending."""
        return tuple(sorted(self._t.items(), reverse=True))

    def _check(self, other):
        if (not isinstance(other, ExtElement) or other.kind != self.kind
                or other.ring != self.ring):
            raise RingError("mixed exterior elements")

    def __eq__(self, other):
        return (
            isinstance(other, ExtElement)
            and other.kind == self.kind
            and other.ring == self.ring
            and other._t == self._t
        )

    def __hash__(self):
        return hash((self.kind, self.ring.variables, self.sort_key()))

    def text(self, texts: dict | None = None) -> str:
        """The display text: labels ascending, each with its terms
        greatest first.

        `texts` is as for `polynomials.format_terms`, for elements of one
        ring and kind: it also keeps the text of each label, under the
        key ~mask, below every monomial.
        """
        if texts is None:
            texts = {}
        kind = self.kind
        by_mask = _terms_by_mask(self)
        groups = []
        for mask in sorted(by_mask):
            tail = texts.get(~mask)
            if tail is None:
                tail = texts[~mask] = "*".join(
                    [ext_name(kind, i) for i in mask_label(mask)])
            groups.append((tail, sorted(by_mask[mask], reverse=True)))
        return format_terms(self.ring, groups, LABEL_BITS, texts)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"<ExtElement {self}>"


def ext_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Graded-commutative product; exterior squares vanish identically.

    Two terms with disjoint labels multiply to the sum of their keys, with
    the shuffle sign of the labels."""
    a._check(b)
    b_by_mask = _terms_by_mask(b)
    acc: dict = {}
    get = acc.get
    for ma, a_terms in _terms_by_mask(a).items():
        for mb, b_terms in b_by_mask.items():
            if ma & mb:
                continue
            odd = _odd_swaps(ma, mb)
            for ka, ca in a_terms:
                if odd:
                    ca = -ca
                for kb, cb in b_terms:
                    key = ka + kb
                    acc[key] = get(key, 0) + ca * cb
    t = a.ring.canonical(acc)
    _check_packed_guard(a.ring, t)
    return ExtElement._of_packed(a.ring, t, a.kind)


def ext_mul_monomial(subset, e: ExtElement) -> ExtElement:
    """The product of the exterior monomial with index set `subset` and e.

    Equal to `ext_mul` with the unit-coefficient monomial on the left, but
    nothing is multiplied: a term of e whose label meets `subset` drops
    out, and every other one gains the subset's bits, negated when the
    shuffle sign is -1.  Distinct terms stay distinct, so none combine.
    A coefficient c of e is canonical, so its negative is `p - c` over F_p
    and, with characteristic 0, `-c` over Q.
    """
    cmask = label_mask(subset)
    p = e.ring.field.char
    t = {}
    for k, c in e._t.items():
        mask = k & LABEL_MASK
        if not mask & cmask:
            t[k | cmask] = p - c if _odd_swaps(cmask, mask) else c
    return ExtElement._of_packed(e.ring, t, e.kind)


def xi_from_tdz(e: ExtElement) -> ExtElement:
    """Substitute t_j * dz_j -> u_j throughout a dz element.

    Every monomial must carry a t_j factor for each of its dz_j factors;
    otherwise the element does not lie in the u-subalgebra and we raise
    UnconvertibleMonomial.  Indices keep their slots, so no signs appear.
    """
    if e.kind != DZ:
        raise RingError("only dz elements convert to u elements")
    ring = e.ring
    t_of: dict = {}  # label mask -> t_S
    t = {}
    for k, c in e._t.items():
        mask = k & LABEL_MASK
        t_s = t_of.get(mask)
        if t_s is None:
            t_s = t_of[mask] = ring.mono(
                {f"t{j}": 1 for j in mask_label(mask)})
        m = k >> LABEL_BITS
        if not ring.mono_divides(t_s, m):
            name = "*".join(
                f"{n}^{x}" if x > 1 else n for n, x in ring.mono_items(m)
            )
            dzs = "*".join(f"dz{j}" for j in mask_label(mask))
            raise UnconvertibleMonomial(f"{name or '1'}*{dzs}")
        t[k - (t_s << LABEL_BITS)] = c
    return ExtElement._of_packed(ring, t, U)


def parse_ext(ring: PolyRing, text: str, kind=U) -> ExtElement:
    """Parse e.g. ``t1*u2 - u3*u1`` normalizing exterior factor order/signs.

    A factor is exterior when it is the name `kind` gives its index.
    """
    t: dict = {}
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
        key = (ring.mono(poly_exps) << LABEL_BITS) | label_mask(ordered)
        t[key] = t.get(key, 0) + (c if sign > 0 else -c)
    return ExtElement._of_packed(ring, ring.canonical(t), kind)
