import itertools

import pytest
from hypothesis import given, settings, strategies as st

from recplane.arrangement import (
    Arrangement,
    ParallelFormsWarning,
    SpecError,
    circuits,
    closure,
    distinct_relations,
    flats,
    relation_space,
    restrict_to_flat,
)
from recplane.caps import Caps, CapExceeded
from recplane.fields import PrimeField, RationalField
from recplane import linalg

F2 = PrimeField(2)
Q = RationalField()


def test_zero_form_rejected():
    with pytest.raises(SpecError):
        Arrangement(F2, 2, [[1, 0], [2, 0]])  # second form is 0 mod 2


def test_parallel_forms_warn_on_ingestion():
    data = {
        "field": {"type": "prime", "p": 3},
        "n": 2,
        "hyperplanes": [[1, 0], [2, 0]],
    }
    with pytest.warns(ParallelFormsWarning):
        Arrangement.from_json(data)


def test_rank_and_greedy_basis(four_cycle):
    assert four_cycle.rank == 3
    assert four_cycle.basis_indices == (1, 2, 3)


def test_four_cycle_single_circuit(four_cycle):
    cs = circuits(four_cycle)
    assert len(cs) == 1
    assert cs[0].support == (1, 2, 3, 4)
    assert cs[0].coeffs == (1, 1, 1, 1)


def test_boolean_has_no_circuits(boolean3_f2):
    assert circuits(boolean3_f2) == []


def test_triangle_circuit(triangle_f2):
    cs = circuits(triangle_f2)
    assert len(cs) == 1
    assert cs[0].support == (1, 2, 3)
    assert cs[0].coeffs == (1, 1, 1)


def test_relation_space_counts(four_cycle, boolean3_f2):
    assert len(relation_space(four_cycle)) == 1
    assert relation_space(boolean3_f2) == []
    collinear = Arrangement(F2, 1, [[1], [1], [1], [1]])
    rels = relation_space(collinear)
    assert len(rels) == 2 ** 3 - 1
    for rel in rels:
        assert rel.coeffs[0] == 1


def test_relation_space_cap():
    collinear = Arrangement(F2, 1, [[1]] * 6)
    with pytest.raises(CapExceeded):
        relation_space(collinear, Caps(relations=16))


def test_relation_space_rejects_rationals(boolean2):
    from recplane.fields import FieldError

    with pytest.raises(FieldError):
        relation_space(boolean2)


def test_distinct_relations_collapse_scalars():
    f3 = PrimeField(3)
    collinear = Arrangement(f3, 1, [[1], [1]])
    assert len(relation_space(collinear)) == 2
    assert len(distinct_relations(collinear)) == 1


def test_every_relation_annihilates(four_cycle):
    for rel in relation_space(four_cycle):
        rel.validate(four_cycle)  # raises on failure


def test_closure_examples(triangle_f2, four_cycle):
    assert closure(triangle_f2, ()).indices == ()
    assert closure(triangle_f2, ()).quotient_dim == 0
    assert closure(triangle_f2, (1, 2)).indices == (1, 2, 3)
    assert closure(four_cycle, (1,)).indices == (1,)


@st.composite
def arrangements_and_subsets(draw):
    field = draw(st.sampled_from((PrimeField(2), PrimeField(5), Q)))
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2).map(field.from_int)
    form = st.lists(entry, min_size=n, max_size=n).filter(
        lambda row: any(x != field.zero for x in row))
    arr = Arrangement(field, n, draw(st.lists(form, max_size=5)))
    subset = draw(st.sets(st.integers(1, arr.m))) if arr.m else set()
    return arr, subset


@settings(max_examples=120, deadline=None)
@given(arrangements_and_subsets())
def test_closure_matches_the_rank_definition(case):
    """A form lies in the closure exactly when adding it to the given forms
    leaves their rank unchanged; the quotient dimension is that rank."""
    arr, subset = case
    base = [list(arr.form(i)) for i in sorted(subset)]
    r = linalg.rank(arr.field, base)
    want = tuple(j for j in range(1, arr.m + 1)
                 if linalg.rank(arr.field, base + [list(arr.form(j))]) == r)
    got = closure(arr, subset)
    assert got.indices == want
    assert got.quotient_dim == r


def _greedy_rank_basis(field, rows):
    """Positions of the rows that raise the rank of the rows kept before."""
    kept = []
    for i, row in enumerate(rows, start=1):
        if linalg.rank(field, [rows[k - 1] for k in kept] + [row]) > len(kept):
            kept.append(i)
    return kept


@settings(max_examples=120, deadline=None)
@given(arrangements_and_subsets())
def test_chosen_basis_matches_the_rank_definition(case):
    """The basis of an arrangement, and the basis that gives the
    coordinates of its restriction to a flat, are the forms that raise the
    rank of the forms kept before them."""
    arr, subset = case
    field = arr.field
    basis = _greedy_rank_basis(field, [list(f) for f in arr.forms])
    assert arr.basis_indices == tuple(basis)
    assert arr.rank == len(basis)
    flat = closure(arr, subset)
    rows = [list(arr.form(i)) for i in flat.indices]
    basis_rows = [rows[k - 1] for k in _greedy_rank_basis(field, rows)]
    restricted = restrict_to_flat(arr, flat)
    assert restricted.n == len(basis_rows)
    assert [list(f) for f in restricted.forms] == [
        linalg.solve_combination(field, basis_rows, row) for row in rows]


def test_closure_idempotent_monotone(four_cycle):
    for size in range(four_cycle.m + 1):
        for combo in itertools.combinations(range(1, 5), size):
            f = closure(four_cycle, combo)
            again = closure(four_cycle, f.indices)
            assert again.indices == f.indices
            assert set(combo) <= set(f.indices)


def test_flats_triangle(triangle_f2):
    fl = flats(triangle_f2)
    assert [f.indices for f in fl] == [(), (1,), (2,), (3,), (1, 2, 3)]


def test_flats_boolean_two():
    arr = Arrangement(Q, 2, [[1, 0], [0, 1]])
    assert [f.indices for f in flats(arr)] == [(), (1,), (2,), (1, 2)]


def test_flats_four_cycle(four_cycle):
    fl = [f.indices for f in flats(four_cycle)]
    assert fl[0] == ()
    assert [f for f in fl if len(f) == 1] == [(1,), (2,), (3,), (4,)]
    assert [f for f in fl if len(f) == 2] == list(
        itertools.combinations(range(1, 5), 2)
    )
    assert fl[-1] == (1, 2, 3, 4)
    assert len(fl) == 1 + 4 + 6 + 1


def test_flat_intersection_is_flat(four_cycle):
    fl = flats(four_cycle)
    index_sets = {f.indices for f in fl}
    for a in fl:
        for b in fl:
            inter = tuple(sorted(set(a.indices) & set(b.indices)))
            assert inter in index_sets


def test_flats_cap(four_cycle):
    with pytest.raises(CapExceeded):
        flats(four_cycle, Caps(flats=8))


def test_circuit_kernel_check_raises(monkeypatch):
    """The one-dimensional kernel check is an exception, not an assert, so
    it still runs under python -O."""
    import recplane.arrangement as arrangement

    triangle = Arrangement(F2, 2, [[1, 0], [0, 1], [1, 1]])
    monkeypatch.setattr(arrangement.linalg, "kernel_basis",
                        lambda field, rows, ncols: [[1] * ncols] * 2)
    with pytest.raises(RuntimeError, match="one-dimensional kernel"):
        circuits(triangle)


def test_circuit_supports_incomparable_and_cover():
    fano = Arrangement(
        F2, 3, [v for v in itertools.product([0, 1], repeat=3) if any(v)]
    )
    cs = circuits(fano)
    supports = [set(c.support) for c in cs]
    for a in supports:
        for b in supports:
            if a is not b:
                assert not a < b
    for rel in relation_space(fano, Caps(relations=100000)):
        assert any(s <= set(rel.support) for s in supports)


def test_restrict_to_flat_examples(triangle_f2, four_cycle):
    one = restrict_to_flat(triangle_f2, closure(triangle_f2, (1,)))
    assert (one.n, one.m) == (1, 1)
    full = restrict_to_flat(triangle_f2, closure(triangle_f2, (1, 2, 3)))
    assert (full.n, full.m) == (2, 3)
    assert full.forms == triangle_f2.forms
    pair = restrict_to_flat(four_cycle, closure(four_cycle, (1, 2)))
    assert (pair.n, pair.m) == (2, 2)
    assert pair.rank == 2


def test_json_roundtrip(four_cycle):
    data = four_cycle.to_json()
    again = Arrangement.from_json(data)
    assert again == four_cycle


def test_json_roundtrip_with_fractions():
    from fractions import Fraction

    arr = Arrangement(Q, 2, [[Fraction(1, 2), Q.one], [Q.one, Q.zero]])
    again = Arrangement.from_json(arr.to_json())
    assert again == arr
