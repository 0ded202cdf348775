import pytest

from recplane.arrangement import Arrangement, circuits, closure
from recplane.fields import PrimeField, RationalField
from recplane.polynomials import RingError, mono_pairs
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
from recplane.superalg import DZ, ExtElement, ext_mul, parse_ext

F2 = PrimeField(2)
Q = RationalField()


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
        _ChartDivision(t_ring(triangle_f2), ring, {1}).monomial(mono, [1], ())
