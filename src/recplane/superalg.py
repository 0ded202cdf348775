"""Exterior-algebra layers over a polynomial ring.

Elements of F[t] (x) Lambda[u] and the odd-differential analog F[t] (x)
Lambda[dz] share one representation: a map from ascending index tuples (the
exterior part) to polynomial coefficients.  Signs are normalized into the
coefficients at construction, so equality is structural.  Exterior squares
vanish in every characteristic, including 2.
"""

from __future__ import annotations

from .polynomials import Polynomial, PolyRing, RingError, _parse_terms


class UnconvertibleMonomial(ValueError):
    """A dz factor without its matching t factor blocks conversion to u's."""

    def __init__(self, mono_text: str):
        super().__init__(f"monomial {mono_text} has a dz factor without its t factor")
        self.mono_text = mono_text


def subset_key(subset):
    """Sort key making the label order total: larger descending tuple wins."""
    return subset[::-1]


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
    """Polynomial coefficients keyed by exterior index subsets."""

    __slots__ = ("ring", "_comps")

    def __init__(self, ring: PolyRing, comps: dict):
        self.ring = ring
        self._comps = {s: p for s, p in comps.items() if not p.is_zero()}

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def from_poly(cls, poly: Polynomial):
        return cls(poly.ring, {(): poly})

    @classmethod
    def generator(cls, ring, index: int):
        return cls(ring, {(index,): ring.one()})

    @property
    def components(self):
        return dict(self._comps)

    def component(self, subset) -> Polynomial:
        return self._comps.get(tuple(subset), self.ring.zero())

    def subsets(self):
        return sorted(self._comps, key=subset_key)

    def is_zero(self) -> bool:
        return not self._comps

    def grassmann_degrees(self):
        return sorted({len(s) for s in self._comps})

    def __add__(self, other):
        self._check(other)
        comps = dict(self._comps)
        for s, p in other._comps.items():
            q = comps.get(s)
            comps[s] = p if q is None else q + p
        return type(self)(self.ring, comps)

    def __sub__(self, other):
        self._check(other)
        comps = dict(self._comps)
        for s, p in other._comps.items():
            q = comps.get(s)
            comps[s] = -p if q is None else q - p
        return type(self)(self.ring, comps)

    def __neg__(self):
        return type(self)(self.ring, {s: -p for s, p in self._comps.items()})

    def scale(self, c):
        return type(self)(self.ring, {s: p.scale(c) for s, p in self._comps.items()})

    def poly_mul(self, poly: Polynomial):
        return type(self)(self.ring, {s: p * poly for s, p in self._comps.items()})

    def _check(self, other):
        if type(other) is not type(self) or other.ring != self.ring:
            raise RingError("mixed exterior elements")

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.ring == self.ring
            and other._comps == self._comps
        )

    def __hash__(self):
        return hash(
            (type(self).__name__, self.ring.variables,
             tuple(sorted((s, p.terms) for s, p in self._comps.items())))
        )

    def __str__(self):
        return format_ext(self)

    def __repr__(self):
        return f"<{type(self).__name__} {format_ext(self)}>"


class XiElement(ExtElement):
    """Element of F[t_1..t_m] tensor Lambda[u_1..u_m]; keys are u-subsets."""

    ext_prefix = "u"


class TdzElement(ExtElement):
    """Element of F[t_1..t_m] tensor Lambda[dz_1..dz_m]; keys are dz-subsets."""

    ext_prefix = "dz"


class OmegaElement(ExtElement):
    """Element of F[x_1..x_n] tensor Lambda[dx_1..dx_n]; keys are dx-subsets."""

    ext_prefix = "dx"


def ext_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Graded-commutative product; exterior squares vanish identically."""
    if type(a) is not type(b) or a.ring != b.ring:
        raise RingError("mixed exterior elements")
    comps: dict = {}
    for s1, p1 in a._comps.items():
        for s2, p2 in b._comps.items():
            sign, s = merge_subsets(s1, s2)
            if sign == 0:
                continue
            prod = p1 * p2
            if sign < 0:
                prod = -prod
            q = comps.get(s)
            comps[s] = prod if q is None else q + prod
    return type(a)(a.ring, comps)


def ext_mul_monomial(subset, e: ExtElement) -> ExtElement:
    """The product of the exterior monomial with index set `subset` and e.

    Equal to `ext_mul` with the unit-coefficient monomial on the left, but no
    polynomial is multiplied: each label s of e becomes subset + s with the
    shuffle sign, or drops out when it meets `subset`.  Distinct labels stay
    distinct, so no two terms combine.
    """
    comps = {}
    for s, p in e._comps.items():
        sign, merged = merge_subsets(subset, s)
        if sign:
            comps[merged] = p if sign > 0 else -p
    return type(e)(e.ring, comps)


def xi_from_tdz(e: TdzElement, t_name=lambda i: f"t{i}") -> XiElement:
    """Substitute t_j * dz_j -> u_j throughout.

    Every monomial must carry a t_j factor for each of its dz_j factors;
    otherwise the element does not lie in the u-subalgebra and we raise
    UnconvertibleMonomial.  Indices keep their slots, so no signs appear.
    """
    ring = e.ring
    comps: dict = {}
    for s, p in e._comps.items():
        ranks = []
        for j in s:
            ranks.append(ring.rank_of(t_name(j)))
        need = sorted(ranks, reverse=True)
        d = {}
        for m, c in p._d.items():
            exps = dict(m)
            for r in need:
                have = exps.get(r, 0)
                if have <= 0:
                    name = "*".join(
                        f"{n}^{x}" if x > 1 else n for n, x in ring.mono_items(m)
                    )
                    dzs = "*".join(f"dz{j}" for j in s)
                    raise UnconvertibleMonomial(f"{name or '1'}*{dzs}")
                if have == 1:
                    del exps[r]
                else:
                    exps[r] = have - 1
            d[tuple(sorted(exps.items(), reverse=True))] = c
        poly = Polynomial(ring, d)
        q = comps.get(s)
        comps[s] = poly if q is None else q + poly
    return XiElement(ring, comps)


def format_ext(e: ExtElement) -> str:
    if e.is_zero():
        return "0"
    from .polynomials import format_scalar_factor

    prefix = getattr(e, "ext_prefix", "u")
    ring = e.ring
    chunks = []
    for s in e.subsets():
        p = e._comps[s]
        ext = "*".join(f"{prefix}{i}" for i in s)
        for m, c in p.terms:
            neg, mag = format_scalar_factor(ring.field, c)
            factors = []
            if (not m and not s) or mag != "1":
                factors.append(mag)
            for name, x in ring.mono_items(m):
                factors.append(name if x == 1 else f"{name}^{x}")
            if ext:
                factors.append(ext)
            text = "*".join(factors)
            if not chunks:
                chunks.append(f"-{text}" if neg else text)
            else:
                chunks.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(chunks)


def parse_ext(ring: PolyRing, text: str, cls=XiElement, prefix=None) -> ExtElement:
    """Parse e.g. ``t1*u2 - u3*u1`` normalizing exterior factor order/signs."""
    prefix = prefix or cls.ext_prefix
    comps: dict = {}
    for coeff_text, exps in _parse_terms(text):
        c = ring.field.parse(coeff_text)
        indices = []
        poly_exps = {}
        dead = False
        for name, e in exps.items():
            if name.startswith(prefix) and name[len(prefix):].isdigit():
                if e > 1:
                    dead = True  # exterior square
                    break
                indices.append(int(name[len(prefix):]))
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
        q = comps.get(s)
        comps[s] = poly if q is None else q + poly
    return cls(ring, comps)
