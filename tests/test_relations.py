import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recplane.arrangement import (
    Arrangement,
    circuits,
    closure,
    flats,
    relations_for,
)
from recplane.fields import PrimeField, RationalField
from recplane.modules import module_groebner
from recplane.polynomials import Polynomial, RingError, mono_pairs
from recplane.relations import (
    chart_ring,
    commutative_generators,
    d_of_L,
    p_of_L,
    p_of_LS,
    q_of_LS,
    subsets_of,
    super_generators,
    t_ring,
)
from recplane.superalg import DZ, ExtElement, ext_mul, parse_ext, xi_from_tdz

F2 = PrimeField(2)
Q = RationalField()


def _p_of_L_by_sum(ring, rel):
    """P_L as a sum of one-term polynomials, one per support index."""
    out = ring.zero()
    for i, a in zip(rel.support, rel.coeffs):
        out = out + ring.term(a, {f"t{j}": 1 for j in rel.support if j != i})
    return out


def _p_of_LS_by_dz(ring, rel, subset):
    """P_{L,S} as the paper builds it: P_L dz_S minus, for each j in S, the
    correction t_{K minus j} dz_{S<j} dL dz_{S>j}, then t_j dz_j -> u_j."""
    S = tuple(sorted(subset))

    def wedge(indices):
        return ExtElement(ring, {tuple(indices): ring.one()}, DZ)

    dL = d_of_L(ring, rel)
    total = ext_mul(ExtElement.from_poly(_p_of_L_by_sum(ring, rel), DZ), wedge(S))
    for pos, j in enumerate(S):
        acc = ext_mul(ext_mul(wedge(S[:pos]), dL), wedge(S[pos + 1:]))
        t_rest = ring.term(1, {f"t{k}": 1 for k in rel.support if k != j})
        total = total - acc.poly_mul(t_rest)
    return xi_from_tdz(total)


@st.composite
def relation_families(draw):
    """A small arrangement with its relations: every relation over F_p,
    the circuits over Q (whose relation space is not finite)."""
    field = draw(st.sampled_from((F2, PrimeField(3), PrimeField(5), Q)))
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2).map(field.from_int)
    form = st.lists(entry, min_size=n, max_size=n).filter(
        lambda row: any(x != field.zero for x in row))
    arr = Arrangement(field, n, draw(st.lists(form, min_size=1, max_size=5)))
    return arr, relations_for(arr, "circuits" if field == Q else "all")


def test_p_of_L_three_terms(triangle_q):
    ring = t_ring(triangle_q)
    rel = circuits(triangle_q)[0]
    assert p_of_L(ring, rel) == ring.parse("t2*t3 + t1*t3 + t1*t2")


def test_p_of_L_four_cycle_golden(four_cycle):
    ring = t_ring(four_cycle)
    rel = circuits(four_cycle)[0]
    assert str(p_of_L(ring, rel)) == "t2*t3*t4 + t1*t3*t4 + t1*t2*t4 + t1*t2*t3"


def test_p_of_L_two_term_relation():
    arr = Arrangement(Q, 1, [[1], [1]])
    ring = t_ring(arr)
    rel = circuits(arr)[0]
    assert rel.coeffs == (Q.one, Q.from_int(-1))
    assert p_of_L(ring, rel) == ring.parse("t2 - t1")


def test_d_of_L(triangle_q):
    ring = t_ring(triangle_q)
    rel = circuits(triangle_q)[0]
    d = d_of_L(ring, rel)
    assert d == ExtElement(
        ring, {(1,): ring.one(), (2,): ring.one(), (3,): ring.one()}, DZ
    )


def test_d_of_L_linear():
    arr = Arrangement(Q, 1, [[1], [1]])
    ring = t_ring(arr)
    rel = circuits(arr)[0]
    doubled = d_of_L(ring, rel).scale(Q.from_int(2))
    assert doubled == ExtElement(
        ring, {(1,): ring.constant(2), (2,): ring.constant(-2)}, DZ
    )


def test_p_of_LS_worked_examples(triangle_q):
    ring = t_ring(triangle_q)
    rel = circuits(triangle_q)[0]
    assert p_of_LS(ring, rel, (2,)) == parse_ext(
        ring, "t1*u2 + t3*u2 - t3*u1 - t1*u3"
    )
    assert p_of_LS(ring, rel, (1, 2)) == parse_ext(ring, "u1*u2 + u2*u3 + u3*u1")
    assert p_of_LS(ring, rel, ()) == ExtElement.from_poly(p_of_L(ring, rel))


@settings(max_examples=120, deadline=None)
@given(relation_families())
def test_closed_forms_match_the_paper_construction(case):
    """P_L in one pass equals the sum of its terms, and the closed form of
    P_{L,S} equals the dz construction, for every subset of every relation;
    so does their text."""
    arr, rels = case
    ring = t_ring(arr)
    for rel in rels:
        got, want = p_of_L(ring, rel), _p_of_L_by_sum(ring, rel)
        assert got == want
        assert str(got) == str(want)
        for S in subsets_of(rel.support):
            got, want = p_of_LS(ring, rel, S), _p_of_LS_by_dz(ring, rel, S)
            assert got == want
            assert str(got) == str(want)


@settings(max_examples=60, deadline=None)
@given(relation_families())
def test_p_of_LS_shape(case):
    """|K-S| (|S|+1) terms; the one with monomial t_{K-(S+i)} has
    coefficient +-a_i; Grassmann degree |S| and t-degree |K|-1-|S|."""
    arr, rels = case
    ring = t_ring(arr)
    field = arr.field
    for rel in rels:
        coeff_of = dict(zip(rel.support, rel.coeffs))
        k = rel.size()
        for S in subsets_of(rel.support):
            xi = p_of_LS(ring, rel, S)
            terms = [(s, m, c) for s, p in xi.entries.items() for m, c in p.terms]
            assert len(terms) == (k - len(S)) * (len(S) + 1)
            for s, m, c in terms:
                assert len(s) == len(S)
                items = ring.mono_items(m)
                assert all(e == 1 for _, e in items)
                t_indices = {int(name[1:]) for name, _ in items}
                assert len(t_indices) == k - 1 - len(S)
                (i,) = set(rel.support) - set(S) - t_indices
                assert c in (coeff_of[i], field.neg(coeff_of[i]))


def test_p_of_LS_full_support_vanishes(triangle_q, four_cycle):
    ring = t_ring(triangle_q)
    rel = circuits(triangle_q)[0]
    assert p_of_LS(ring, rel, (1, 2, 3)).is_zero()
    ring4 = t_ring(four_cycle)
    rel4 = circuits(four_cycle)[0]
    assert p_of_LS(ring4, rel4, (1, 2, 3, 4)).is_zero()


def test_p_of_LS_requires_subset(triangle_q):
    ring = t_ring(triangle_q)
    rel = circuits(triangle_q)[0]
    with pytest.raises(ValueError):
        p_of_LS(ring, rel, (4,))


def test_homogeneity_of_super_relations(four_cycle):
    ring = t_ring(four_cycle)
    rel = circuits(four_cycle)[0]
    k = rel.size()
    for S in subsets_of(rel.support):
        xi = p_of_LS(ring, rel, S)
        for subset, poly in xi.entries.items():
            assert len(subset) == len(S)
            for mono, _ in poly.terms:
                assert sum(e for _, e in mono_pairs(mono)) == k - 1 - len(S)


def test_q_of_LS_empty_subset(triangle_q):
    ring = t_ring(triangle_q)
    rel = circuits(triangle_q)[0]
    assert q_of_LS(ring, rel, ()) == parse_ext(
        ring, "t2*t3*u1 + t1*t3*u2 + t1*t2*u3"
    )


def test_q_identity_u_multiple(triangle_q):
    ring = t_ring(triangle_q)
    rel = circuits(triangle_q)[0]
    for S in subsets_of(rel.support):
        for i in S:
            ui = ExtElement.generator(ring, i)
            assert q_of_LS(ring, rel, S) == ext_mul(ui, p_of_LS(ring, rel, S))


def test_q_of_full_odd_support_vanishes(triangle_q):
    ring = t_ring(triangle_q)
    rel = circuits(triangle_q)[0]
    assert q_of_LS(ring, rel, (1, 2, 3)).is_zero()


def test_base_identity(triangle_q, four_cycle):
    for arr in (triangle_q, four_cycle):
        ring = t_ring(arr)
        rel = circuits(arr)[0]
        i1 = rel.support[0]
        lhs = ext_mul(
            ExtElement.generator(ring, i1), ExtElement.from_poly(p_of_L(ring, rel))
        ) - p_of_LS(ring, rel, (i1,)).poly_mul(ring.variable(f"t{i1}"))
        assert lhs == q_of_LS(ring, rel, ())


def test_commutative_presentation_counts(four_cycle, boolean3_f2, triangle_f2):
    assert len(commutative_generators(four_cycle).generators) == 1
    assert commutative_generators(boolean3_f2).generators == ()
    pres = commutative_generators(triangle_f2, mode="all")
    ring = t_ring(triangle_f2)
    assert [g.element for g in pres.generators] == [
        ring.parse("t1*t2 + t1*t3 + t2*t3")
    ]


def test_super_presentation_counts(triangle_q, four_cycle, boolean3_f2):
    assert len(super_generators(triangle_q).generators) == 8
    assert len(super_generators(four_cycle).generators) == 16
    assert super_generators(boolean3_f2).generators == ()


def test_super_presentation_degree_zero_part_is_commutative(four_cycle):
    sup = super_generators(four_cycle)
    com = commutative_generators(four_cycle)
    degree0 = [
        g.element.entry(())
        for g in sup.generators
        if g.subset == ()
    ]
    assert degree0 == [g.element for g in com.generators]


def test_presentation_serialization(triangle_q):
    pres = super_generators(triangle_q)
    data = pres.to_json()
    assert data["variables"]["u"] == ["u1", "u2", "u3"]
    assert data["grading"] == {"t": 2, "u": 1}
    assert len(data["generators"]) == 8
    text = pres.to_text()
    assert "u1*u2" in text


def test_chart_empty_flat_is_plain_presentation(triangle_f2):
    flat = closure(triangle_f2, ())
    ch = chart_ring(triangle_f2, flat)
    pres = commutative_generators(triangle_f2)
    assert [str(g.element) for g in ch.generators] == [
        str(g.element) for g in pres.generators
    ]


def test_chart_divided_generator(triangle_f2):
    flat = closure(triangle_f2, (1,))
    ch = chart_ring(triangle_f2, flat)
    assert str(ch.generators[0].element) == "t2*t3*z1 + t3 + t2"


def test_chart_top_flat_linearizes(triangle_f2):
    flat = closure(triangle_f2, (1, 2, 3))
    ch = chart_ring(triangle_f2, flat)
    assert str(ch.generators[0].element) == "z3 + z2 + z1"


def test_chart_super_division(triangle_q):
    flat = closure(triangle_q, (1,))
    ch = chart_ring(triangle_q, flat, super=True)
    by_subset = {g.subset: g.element for g in ch.generators}
    # P_L / t_1 = z1*t2*t3 + t3 + t2 in the chart coordinates
    assert str(by_subset[()]) == "t2*t3*z1 + t3 + t2"
    # u_1 factors become dz_1: P_{L,{1}} / t_1 keeps index 1 in its subsets
    divided = by_subset[(1,)]
    assert (1,) in divided.entries
    assert "dz1" in str(divided)


def test_chart_invert_must_lie_in_flat(triangle_f2):
    flat = closure(triangle_f2, (1,))
    with pytest.raises(ValueError):
        chart_ring(triangle_f2, flat, invert=(2,))


def test_chart_rejects_escaping_monomials(triangle_f2):
    # dividing t1^2 by t_{1} leaves a stray t1 on the chart
    from recplane.relations import _ChartDivision, _chart_poly_ring

    ring = _chart_poly_ring(F2, (2, 3), (1,))
    mono = t_ring(triangle_f2).mono({"t1": 2})
    with pytest.raises(RingError):
        _ChartDivision(t_ring(triangle_f2), ring, {1}).monomial(mono, [1], 0)


def _braid_a3_f5():
    forms = []
    for i in range(4):
        for j in range(i + 1, 4):
            row = [0] * 4
            row[i], row[j] = 1, -1
            forms.append(row)
    return Arrangement(PrimeField(5), 4, forms)


def _divided_per_term(arr, flat, rel, element):
    """`element` divided onto the chart of `flat` one term at a time, each
    by `_ChartDivision.monomial` of a division of its own, the terms summed
    with field calls: the reference for the memoised `chart_divide`."""
    from recplane.relations import _ChartDivision, _chart_poly_ring
    from recplane.superalg import label_mask

    field = arr.field
    s_v = set(flat.indices)
    ring = _chart_poly_ring(field, tuple(i for i in range(1, arr.m + 1)
                                         if i not in s_v), flat.indices)
    divisors = sorted(s_v & set(rel.support))
    if isinstance(element, ExtElement):
        terms = [(s, m, c) for s, p in element.entries.items()
                 for m, c in p.terms]
    else:
        terms = [((), m, c) for m, c in element.terms]
    out: dict = {}
    for s, m, c in terms:
        key = _ChartDivision(t_ring(arr), ring, s_v).monomial(
            m, divisors, label_mask(s))
        acc = out.setdefault(s, {})
        acc[key] = field.add(acc.get(key, field.zero), c)
    polys = {s: ring.poly({k: c for k, c in acc.items() if c != field.zero})
             for s, acc in out.items()}
    if isinstance(element, ExtElement):
        return ExtElement(ring, polys, frozenset(s_v))
    return polys.get((), ring.zero())


def test_memoised_chart_division_matches_the_per_term_reference(
        four_cycle, monkeypatch):
    """Every chart generator of braid A3 over F_5 and of the four-cycle over
    F_2, commutative and super, equals its per-term division; and each
    chart divides each (divisors, term) once, however many generators
    share it."""
    from recplane import relations
    from recplane.arrangement import flats

    calls = []
    monomial = relations._ChartDivision.monomial

    def counted(self, mono, divisors, mask):
        calls.append((id(self), tuple(divisors), mono, mask))
        return monomial(self, mono, divisors, mask)

    monkeypatch.setattr(relations._ChartDivision, "monomial", counted)
    for arr in (_braid_a3_f5(), four_cycle):
        for flat in flats(arr):
            for sup in (False, True):
                pres = (super_generators(arr) if sup
                        else commutative_generators(arr))
                del calls[:]
                chart = chart_ring(arr, flat, super=sup)
                assert len(calls) == len(set(calls))
                wanted = set()
                for g, c in zip(pres.generators, chart.generators,
                                strict=True):
                    monkeypatch.setattr(relations._ChartDivision, "monomial",
                                        monomial)
                    assert c.element == _divided_per_term(
                        arr, flat, g.relation, g.element)
                    monkeypatch.setattr(relations._ChartDivision, "monomial",
                                        counted)
                    divisors = tuple(sorted(set(flat.indices)
                                            & set(g.relation.support)))
                    terms = (g.element._t if sup else g.element._d)
                    wanted.update((divisors, k) for k in terms)
                assert len(calls) == len(wanted)
    # one division serves relations with other divisors: the same terms
    # divide differently under each
    from recplane.arrangement import Relation
    from recplane.relations import _ChartDivision, _chart_poly_ring, chart_divide

    monkeypatch.setattr(relations._ChartDivision, "monomial", monomial)
    ring = t_ring(four_cycle)
    flat = closure(four_cycle, (1, 2))
    chart = _chart_poly_ring(F2, (3, 4), (1, 2))
    division = _ChartDivision(ring, chart, {1, 2})
    for element in (ring.parse("t3*t4 + t2*t3"),
                    ExtElement(ring, {(3,): ring.parse("t4 + t2*t4")})):
        for rel in (Relation((1, 2, 3, 4), (1, 1, 1, 1)),
                    Relation((2, 3, 4), (1, 1, 1)),
                    Relation((1, 2, 3, 4), (1, 1, 1, 1))):
            assert chart_divide(division, rel, element) == _divided_per_term(
                four_cycle, flat, rel, element)


def test_chart_division_refuses_terms_off_the_chart(four_cycle):
    """Each way a term can fail to divide onto a chart raises its RingError,
    also when the same term is divided a second time."""
    from recplane.arrangement import Relation
    from recplane.relations import _ChartDivision, _chart_poly_ring, chart_divide
    from recplane.superalg import U

    ring = t_ring(four_cycle)
    circuit = Relation((1, 2, 3, 4), (1, 1, 1, 1))
    other = Relation((2, 3, 4), (1, 1, 1))

    def division(flat):
        chart = _chart_poly_ring(F2, tuple(i for i in range(1, 5)
                                           if i not in flat), flat)
        return _ChartDivision(ring, chart, set(flat))

    cases = [
        ((1,), circuit, ring.parse("t1^2*t2"),
         "t1^2 cannot be divided onto the chart"),
        ((1,), circuit, ExtElement(ring, {(1,): ring.parse("t1*t2")}, U),
         "monomial mixes t1 and u1 on the chart"),
        ((1, 2), other, ring.parse("t1*t3"), "t1 survives division on the "
                                             "chart"),
        ((1, 2), other, ExtElement(ring, {(1,): ring.parse("t3")}, U),
         "u1 has no chart expression"),
    ]
    for flat, rel, element, message in cases:
        d = division(flat)
        for _ in range(2):
            with pytest.raises(RingError) as info:
                chart_divide(d, rel, element)
            assert str(info.value) == message


def _assert_scalar_rule(coeffs):
    """Over Q a stored coefficient is a nonzero int, or a Fraction whose
    denominator is not 1: never a float, a zero or an integral Fraction."""
    n = 0
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction
                                  and c.denominator != 1), c
        assert c != 0
        n += 1
    return n


def test_integral_rationals_are_ints_end_to_end():
    """A seeded rational arrangement whose forms mix integral and
    non-integral entries: every coefficient of its commutative and super
    presentations, its chart relations and a module Groebner basis keeps
    the scalar rule, as do the forms and relation coefficients."""
    rng = random.Random(3)
    forms = [[Fraction(1, 2), -3, 0], [2, Fraction(-5, 3), 7],
             [Fraction(4, 2), 0, Fraction(9, 3)]]
    while len(forms) < 5:
        row = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
               for _ in range(3)]
        if any(row):
            forms.append(row)
    arr = Arrangement(Q, 3, forms)
    assert _assert_scalar_rule(x for row in arr.forms for x in row if x)
    assert arr.forms[2] == (2, 0, 3)
    rels = circuits(arr)
    assert _assert_scalar_rule(c for rel in rels for c in rel.coeffs)
    elements = [g.element for pres in (commutative_generators(arr),
                                       super_generators(arr))
                for g in pres.generators]
    elements += [g.element for flat in flats(arr) for super_ in (False, True)
                 for g in chart_ring(arr, flat, super=super_).generators]
    basis = module_groebner([g.element
                             for g in super_generators(arr).generators])
    assert basis
    assert sum(_assert_scalar_rule(
        e._d.values() if isinstance(e, Polynomial) else e._t.values())
        for e in elements + basis)
    # the non-integral coefficients do occur, as Fractions
    assert any(type(c) is Fraction for rel in rels for c in rel.coeffs)
