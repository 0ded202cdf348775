"""Relation polynomials and the presentations they generate.

For a dependency L = a_1 z_{i_1} + ... + a_k z_{i_k} = 0 with support K the
commutative relation P_L clears denominators in sum(a_j / t_{i_j}) = 0; its
odd refinements P_{L,S} mix t and u variables, one for each subset S of K.
The paper builds P_{L,S} from P_L dz_S and one dL correction per j in S,
then turns t_j dz_j into u_j; `p_of_LS` writes the result down in closed
form instead,

    P_{L,S} = sum_{i in K-S} a_i t_{K-(S+i)} (u_S - sum_{j in S} e_{j,i} u_{S-j+i}),

with e_{j,i} = (-1)^#{s in S strictly between i and j}.  Q_{L,S} keeps the
dz construction, so checking Lemma 7 compares the two.  Presentations
collect these generators, and chart rings carry the localized form living
on one piece of the compactification.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations

from .arrangement import Arrangement, Flat, Relation, relations_for
from .caps import Caps
from .context import instance_context
from .fields import field_to_json
from .polynomials import MAX_EXPONENT, Polynomial, PolyRing, RingError, mono_pairs
from .superalg import (
    DZ,
    LABEL_BITS,
    LABEL_MASK,
    U,
    ExtElement,
    ext_mul,
    label_mask,
    xi_from_tdz,
)


@lru_cache(maxsize=None)
def _t_ring(field, m: int) -> PolyRing:
    return PolyRing(field, tuple(f"t{i}" for i in range(m, 0, -1)))


def t_ring(arr: Arrangement) -> PolyRing:
    """F[t_1..t_m] for the arrangement, ordered t_m > ... > t_1."""
    return _t_ring(arr.field, arr.m)


def t_monomial(ring: PolyRing, indices) -> Polynomial:
    return ring.term(1, {f"t{i}": 1 for i in indices})


def _t_bits(ring: PolyRing, support) -> dict:
    """{i: the monomial t_i} over the support."""
    return {i: 1 << ring.shift_of(f"t{i}") for i in support}


def p_of_L(ring: PolyRing, rel: Relation) -> Polynomial:
    """sum_j a_j * t_{support minus i_j}."""
    bits = _t_bits(ring, rel.support)
    full = sum(bits.values())
    return Polynomial(
        ring, {full - bits[i]: a for i, a in zip(rel.support, rel.coeffs)}
    )


def d_of_L(ring: PolyRing, rel: Relation) -> ExtElement:
    """sum_j a_j * dz_{i_j} with unit polynomial parts."""
    entries = {(i,): ring.constant(a) for i, a in zip(rel.support, rel.coeffs)}
    return ExtElement(ring, entries, DZ)


def _dz_wedge(ring: PolyRing, subset) -> ExtElement:
    return ExtElement(ring, {tuple(subset): ring.one()}, DZ)


def p_of_LS(ring: PolyRing, rel: Relation, subset) -> ExtElement:
    """The odd relation for (L, S), from its closed form.

    With K the support, a_i the coefficients and t_X the product of t_k over
    X, P_{L,S} is the sum over i in K minus S of

        a_i t_{K-(S+i)} (u_S - sum_{j in S} e_{j,i} u_{S-j+i}),

    where e_{j,i} is -1 to the number of s in S strictly between i and j:
    the sign that sorts dz_{S<j} dz_i dz_{S>j}.  This is the paper's
    P_L dz_S minus, for each j in S, t_{K-j} dz_{S<j} dL dz_{S>j}, with
    t_j dz_j turned into u_j: dL only contributes its i outside S, and the
    i = j corrections cancel the i in S part of P_L dz_S.  No two terms
    share a label and monomial, so there are |K-S| (|S|+1) of them, with
    coefficients +-a_i; S = K gives zero.
    """
    S = tuple(sorted(subset))
    if not set(S) <= set(rel.support):
        raise ValueError("subset must lie inside the relation support")
    neg = ring.field.neg
    bits = _t_bits(ring, rel.support)
    rest = sum(bits.values()) - sum(bits[j] for j in S)  # t_{K-S}
    top = {}
    entries = {S: top}
    for i, a in zip(rel.support, rel.coeffs):
        if i in S:
            continue
        mono = rest - bits[i]
        top[mono] = a
        below = sum(1 for s in S if s < i)  # the slot of i among S
        for pos, j in enumerate(S):
            # s in S strictly between i and j: below - pos - 1 or pos - below
            odd = (below - pos - 1 if j < i else pos - below) & 1
            label = tuple(sorted(S[:pos] + S[pos + 1:] + (i,)))
            entries[label] = {mono: a if odd else neg(a)}
    return ExtElement(ring, {s: Polynomial(ring, d) for s, d in entries.items()}, U)


def q_of_LS(ring: PolyRing, rel: Relation, subset) -> ExtElement:
    """t_{|L|} * dL wedge dz_S, converted into the u-variables."""
    S = tuple(sorted(subset))
    if not set(S) <= set(rel.support):
        raise ValueError("subset must lie inside the relation support")
    tdz = ext_mul(d_of_L(ring, rel), _dz_wedge(ring, S))
    return xi_from_tdz(tdz.poly_mul(t_monomial(ring, rel.support)))


@dataclass(frozen=True)
class GeneratorRecord:
    """A presentation generator plus where it came from."""

    element: object  # Polynomial or ExtElement
    relation: Relation
    subset: tuple | None  # None in the commutative case


def _generator_json(generators, field) -> list:
    """The JSON of each generator record: its element's text, its
    relation's support and coefficients, and its subset if it has one.

    Records of one relation share one relation dict, built once here, and
    each monomial's text is built once (`format_terms`); neither outlives
    the call.
    """
    texts: dict = {}
    relations: dict = {}
    out = []
    for g in generators:
        rel = relations.get(g.relation)
        if rel is None:
            rel = relations[g.relation] = g.relation.to_json(field)
        data = {"element": g.element.text(texts), "relation": rel}
        if g.subset is not None:
            data["subset"] = list(g.subset)
        out.append(data)
    return out


def _generator_text(lines: list, generators) -> str:
    """The header `lines`, then one line per generator: its relation's
    support, its subset if it has one, and the element.  Each monomial's
    text is built once per call (`format_terms`)."""
    texts: dict = {}
    for g in generators:
        tag = f"L={list(g.relation.support)}"
        if g.subset is not None:
            tag += f" S={list(g.subset)}"
        lines.append(f"  [{tag}] {g.element.text(texts)}")
    return "\n".join(lines)


@dataclass(frozen=True)
class Presentation:
    """Generators-and-relations data for the commutative or odd quotient.

    `bases` is the Grassmann chain of an odd presentation: the reduced
    bases G_0, G_1, ... of the degree pieces of the ideal its generators
    generate, as far as a check has asked (see `oracle._grassmann_chain`).
    It is not a constructor argument, so a presentation made by
    `dataclasses.replace` starts with an empty chain of its own.
    """

    arrangement: Arrangement
    super: bool
    mode: str
    generators: tuple
    bases: list = dc_field(default_factory=list, init=False, compare=False,
                           repr=False)

    @property
    def ring(self) -> PolyRing:
        return t_ring(self.arrangement)

    def to_json(self) -> dict:
        arr = self.arrangement
        m = arr.m
        data = {
            "field": field_to_json(arr.field),
            "m": m,
            "super": self.super,
            "mode": self.mode,
            "variables": {"t": [f"t{i}" for i in range(1, m + 1)]},
            "grading": {"t": 2},
            "generators": _generator_json(self.generators, arr.field),
        }
        if self.super:
            data["variables"]["u"] = [f"u{i}" for i in range(1, m + 1)]
            data["grading"]["u"] = 1
        return data

    def to_text(self) -> str:
        kind = "super" if self.super else "commutative"
        return _generator_text(
            [f"{kind} presentation, mode={self.mode}, m={self.arrangement.m}",
             f"generators: {len(self.generators)}"],
            self.generators)


def _memo_presentation(arr: Arrangement, super: bool, mode: str,
                       caps: Caps | None, build) -> Presentation:
    """The instance context's presentation, built on a miss.

    The key is (super, mode, caps), with caps None in "circuits" mode, whose
    family never reads them.  An equal arrangement gets the presentation
    built for the first one, its Grassmann chain included.
    """
    key = (super, mode, caps if mode == "all" else None)
    table = instance_context(arr).presentations
    pres = table.get(key)
    if pres is None:
        pres = table[key] = build()
    return pres


def commutative_generators(
    arr: Arrangement, mode: str = "circuits", caps: Caps | None = None
) -> Presentation:
    """Presentation of the commutative relation ideal.

    Scalar-multiple dependencies normalize to the same Relation, so the
    relation family is de-duplicated before polynomials are built.  Kept in
    the instance context (`_memo_presentation`).
    """

    def build():
        ring = t_ring(arr)
        records = [
            GeneratorRecord(p_of_L(ring, rel), rel, None)
            for rel in relations_for(arr, mode, caps)
        ]
        return Presentation(arr, False, mode, tuple(records))

    return _memo_presentation(arr, False, mode, caps, build)


def subsets_of(support):
    items = tuple(sorted(support))
    out = []
    for k in range(len(items) + 1):
        out.extend(combinations(items, k))
    return out


def super_generators(
    arr: Arrangement, mode: str = "circuits", caps: Caps | None = None
) -> Presentation:
    """Presentation of the odd relation ideal: one generator per (L, S).

    All 2^k subsets of each support appear, zero elements included (the full
    support always yields zero: its corrections sum back to P_L dz_S).
    Kept in the instance context (`_memo_presentation`).
    """

    def build():
        ring = t_ring(arr)
        records = []
        for rel in relations_for(arr, mode, caps):
            for S in subsets_of(rel.support):
                records.append(GeneratorRecord(p_of_LS(ring, rel, S), rel, S))
        return Presentation(arr, True, mode, tuple(records))

    return _memo_presentation(arr, True, mode, caps, build)


# -- chart rings --------------------------------------------------------------


@lru_cache(maxsize=None)
def _chart_poly_ring(field, t_indices, z_indices) -> PolyRing:
    names = [f"t{i}" for i in sorted(t_indices, reverse=True)]
    names += [f"z{j}" for j in sorted(z_indices, reverse=True)]
    return PolyRing(field, tuple(names))


@dataclass(frozen=True)
class ChartRing:
    """One affine chart: t_i for i outside the flat, z_j on it, T inverted."""

    arrangement: Arrangement
    flat: Flat
    inverted: tuple
    super: bool
    ring: PolyRing
    generators: tuple

    def to_json(self) -> dict:
        arr = self.arrangement
        s_v = set(self.flat.indices)
        data = {
            "flat": list(self.flat.indices),
            "inverted": list(self.inverted),
            "super": self.super,
            "variables": {
                "t": [f"t{i}" for i in range(1, arr.m + 1) if i not in s_v],
                "z": [f"z{j}" for j in self.flat.indices],
            },
            "generators": _generator_json(self.generators, arr.field),
        }
        if self.super:
            data["variables"]["u"] = [
                f"u{i}" for i in range(1, arr.m + 1) if i not in s_v
            ]
            data["variables"]["dz"] = [f"dz{j}" for j in self.flat.indices]
        return data

    def to_text(self) -> str:
        kind = "super" if self.super else "commutative"
        return _generator_text(
            [f"{kind} chart: flat={list(self.flat.indices)} "
             f"inverted={list(self.inverted)}"],
            self.generators)


class _ChartDivision:
    """Monomial-level division by t_D onto one chart, with localized semantics.

    A present t_j factor is consumed; an absent one contributes the inverse
    coordinate z_j; a u_j factor turns into dz_j (index slot unchanged, so no
    sign).  The result must live in the chart variables.  The exponent
    fields of both rings are looked up once per chart, and `done` keeps
    each divided term for the chart's lifetime: {(label shift, divisors):
    {term: divided term}}, the shift 0 for polynomials.
    """

    __slots__ = ("ring", "s_v", "flat_bits", "t_shift", "z_shift", "kept",
                 "on_flat", "done")

    def __init__(self, t_ring, chart_ring, s_v):
        self.ring = chart_ring
        self.s_v = s_v
        self.flat_bits = label_mask(sorted(s_v))
        self.t_shift = {}
        self.z_shift = {j: chart_ring.shift_of(f"z{j}") for j in s_v}
        self.kept = []  # (t-ring shift, chart shift) of each t_i off the flat
        self.on_flat = 0  # the exponent bits of the t_i on the flat
        for name in t_ring.variables:
            i = int(name[1:])
            shift = self.t_shift[i] = t_ring.shift_of(name)
            if i in s_v:
                self.on_flat |= MAX_EXPONENT << shift
            else:
                self.kept.append((shift, chart_ring.shift_of(name)))
        self.done: dict = {}

    def monomial(self, mono, divisors, mask):
        """The chart monomial of t^mono * u_label / t_divisors, for the
        label with mask `mask`."""
        out = 0
        for j in divisors:
            shift = self.t_shift[j]
            have = (mono >> shift) & MAX_EXPONENT
            has_u = mask >> (j - 1) & 1  # the label holds u_j
            if have and not has_u:
                if have > 1:
                    raise RingError(f"t{j}^{have} cannot be divided onto the chart")
                mono -= 1 << shift
            elif not have and has_u:
                pass  # u_j / t_j = dz_j; membership in the flat renders it as dz
            elif not have:
                out += 1 << self.z_shift[j]
            else:
                raise RingError(f"monomial mixes t{j} and u{j} on the chart")
        if mono & self.on_flat:
            i, _ = mono_pairs(mono & self.on_flat)[0]  # rank == index in the t-ring
            raise RingError(f"t{i} survives division on the chart")
        for shift, chart_shift in self.kept:
            out += ((mono >> shift) & MAX_EXPONENT) << chart_shift
        stray = mask & self.flat_bits & ~label_mask(divisors)
        if stray:
            j = (stray & -stray).bit_length()  # the least such index
            raise RingError(f"u{j} has no chart expression")
        return out


def chart_divide(division: _ChartDivision, rel: Relation, element):
    """Divide a generator by t_{S_V intersect support} on the chart.

    Works on packed terms (a polynomial's monomials have the empty label):
    each term is divided once per chart and divisor set, through the
    division's `done` table, and the sum is canonicalised once.  A term that
    does not divide onto the chart raises a RingError.
    """
    divisors = tuple(sorted(division.s_v & set(rel.support)))
    poly = isinstance(element, Polynomial)
    shift, labels = (0, 0) if poly else (LABEL_BITS, LABEL_MASK)
    done = division.done.get((shift, divisors))
    if done is None:
        done = division.done[shift, divisors] = {}
    acc: dict = {}
    get = acc.get
    for k, c in (element._d if poly else element._t).items():
        key = done.get(k)
        if key is None:
            mask = k & labels
            key = done[k] = (division.monomial(k >> shift, divisors, mask)
                             << shift) | mask
        acc[key] = get(key, 0) + c
    ring = division.ring
    if poly:
        return ring.poly(acc)
    return ExtElement._of_packed(ring, ring.canonical(acc),
                                 frozenset(division.s_v))


def chart_ring(
    arr: Arrangement,
    flat: Flat,
    invert=(),
    super: bool = False,
) -> ChartRing:
    """The chart for a flat, with the forms in `invert` made invertible."""
    s_v = set(flat.indices)
    inverted = tuple(sorted(set(invert)))
    if not set(inverted) <= s_v:
        raise ValueError("inverted indices must lie in the flat")
    ring = _chart_poly_ring(
        arr.field,
        tuple(i for i in range(1, arr.m + 1) if i not in s_v),
        tuple(flat.indices),
    )
    pres = super_generators(arr) if super else commutative_generators(arr)
    division = _ChartDivision(t_ring(arr), ring, s_v)
    records = []
    for g in pres.generators:
        divided = chart_divide(division, g.relation, g.element)
        records.append(GeneratorRecord(divided, g.relation, g.subset))
    return ChartRing(arr, flat, inverted, super, ring, tuple(records))
