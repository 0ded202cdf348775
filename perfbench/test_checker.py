"""Tests of the closed-form checker on matroids worked out by hand.

    python3 -m pytest perfbench/test_checker.py
"""

from math import comb

import pytest

from checker import Matroid, check_hilbert, check_report, exact_rank

FOUR_CYCLE = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]


@pytest.mark.parametrize("p", [0, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boolean_arrangement(p, n):
    """Coordinate hyperplanes: pi = (1+t)^n, every subset is a flat, there
    are no circuits, and the odd ring is free, with series (1-q)^-n."""
    mat = Matroid(p, [[int(i == j) for j in range(n)] for i in range(n)])
    assert mat.poincare() == [comb(n, k) for k in range(n + 1)]
    assert len(mat.flats()) == 2 ** n
    assert mat.circuits() == []
    assert mat.hilbert_super(4) == {d: comb(n + d - 1, d) for d in range(5)}
    if p:
        # each point of F_p^n lies in the stratum of its zero pattern
        assert mat.point_count() == p ** n


def test_triangle():
    """x, y, -x-y: pi = 1 + 3t + 2t^2; the ring is a quadric in three
    variables, with series (1 + x) / (1 - x)^2."""
    mat = Matroid(0, [[1, 0], [0, 1], [-1, -1]])
    assert mat.poincare() == [1, 3, 2]
    assert mat.circuits() == [(1, 2, 3)]
    assert sorted(mat.flats()) == [(), (1,), (1, 2, 3), (2,), (3,)]
    assert mat.hilbert_commutative(8) == {0: 1, 1: 0, 2: 3, 3: 0, 4: 5,
                                          5: 0, 6: 7, 7: 0, 8: 9}
    assert mat.lemma7_pairs() == 2 ** 3


def test_four_cycle():
    """z1+z2+z3+z4 = 0 over F_2: the uniform matroid U(3,4), with
    pi = 1 + 4t + 6t^2 + 3t^3 and chi(2) = 8 - 16 + 12 - 3 = 1."""
    mat = Matroid(2, FOUR_CYCLE)
    assert mat.poincare() == [1, 4, 6, 3]
    assert mat.circuits() == [(1, 2, 3, 4)]
    # the empty set, 4 points, 6 lines and the whole set
    assert len(mat.flats()) == 1 + 4 + 6 + 1
    assert mat.flat_point_count((1, 2, 3, 4)) == 1
    # every flat of rank k is k independent forms: (2 - 1)^k points each
    assert mat.point_count() == 12
    assert mat.lemma7_pairs() == 2 ** 4


def test_parallel_forms_do_not_change_pi():
    simple = Matroid(3, [[1, 0], [0, 1], [1, 1]])
    doubled = Matroid(3, [[1, 0], [2, 0], [0, 1], [1, 1]])
    assert simple.poincare() == doubled.poincare() == [1, 3, 2]
    assert (1, 2) in doubled.circuits()


def test_exact_rank_mod_p_and_rational():
    assert exact_rank(0, [[1, 2], [2, 4]]) == 1
    assert exact_rank(3, [[1, 1], [1, 2]]) == 2
    assert exact_rank(2, [[1, 1], [1, 3]]) == 1
    assert exact_rank(0, [["1/2", 1], [1, 2]]) == 1


def test_checks_flag_wrong_outputs():
    mat = Matroid(0, [[1, 0], [0, 1], [-1, -1]])
    good = {"check": "lemma7", "status": "pass", "details": {"pairs": 8}}
    assert check_report(good, mat) == []
    assert check_report(dict(good, details={"pairs": 7}), mat)
    assert check_report(dict(good, status="fail"), mat)
    table = {str(d): v for d, v in mat.hilbert_super(3).items()}
    payload = {"standard": table, "rank": table, "agree": True}
    assert check_hilbert(payload, mat, True, 3) == []
    bad = dict(table, **{"3": table["3"] + 1})
    assert check_hilbert(dict(payload, rank=bad), mat, True, 3)
