import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from recplane.fields import (
    FieldError,
    PrimeField,
    RationalField,
    _is_prime,
    field_from_json,
    field_to_json,
)
from recplane import linalg


def test_prime_field_canonical_range():
    f = PrimeField(5)
    assert f.from_int(-1) == 4
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.div(1, 4) == 4
    assert f.parse("7/3") == f.div(2, 3)


def test_prime_field_rejects_composites():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(1)


def _is_prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_primality_agrees_with_trial_division():
    assert all(_is_prime(p) == _is_prime_by_trial_division(p)
               for p in range(20_000))


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,  # to the bases 2 ... 23
    318665857834031151167461,  # to the bases 2 ... 37
])
def test_strong_pseudoprimes_are_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(FieldError):
        PrimeField(n)


def test_large_primes_build_at_once_and_beyond_the_bound_are_refused():
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert PrimeField(10**14 + 31).p == 10**14 + 31
    assert time.perf_counter() - start < 0.1
    # 2^89 - 1 is prime, but the test is not exact there
    for p in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(FieldError, match="too large"):
            PrimeField(p)


def test_rational_field_reduced_fractions():
    q = RationalField()
    v = q.div(q.from_int(4), q.from_int(6))
    assert v == Fraction(2, 3)
    assert q.parse("-3/9") == Fraction(-1, 3)
    with pytest.raises(ZeroDivisionError):
        q.inv(q.zero)


def test_rational_division_of_plain_ints_is_exact():
    """An integral rational is an int: dividing gives an int when the
    quotient is integral and a Fraction with denominator > 1 otherwise,
    never the float of `int / int`."""
    q = RationalField()
    for got, want in ((q.div(11, 3), Fraction(11, 3)),
                      (q.inv(3), Fraction(1, 3)),
                      (q.inv(-1), -1),
                      (q.inv(1), 1),
                      (q.div(4, 2), 2),
                      (q.div(-6, 3), -2),
                      (q.div(Fraction(1, 2), 3), Fraction(1, 6)),
                      (q.div(3, Fraction(3, 2)), 2),
                      (q.div(Fraction(3, 2), Fraction(3, 4)), 2),
                      (q.inv(Fraction(1, 3)), 3),
                      (q.inv(Fraction(-2, 5)), Fraction(-5, 2))):
        assert got == want and got != 0
        assert type(got) is type(want), (got, want)
        assert type(got) is int or got.denominator != 1
    for c in (q.zero, q.one, q.from_int(-7), q.parse("6/3"), q.parse("-4"),
              q.add(Fraction(1, 2), Fraction(1, 2)),
              q.sub(Fraction(5, 2), Fraction(1, 2)),
              q.mul(Fraction(2, 3), 3), q.neg(Fraction(4, 2))):
        assert type(c) is int, c
    assert type(q.parse("2/3")) is Fraction
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            q.inv(zero)
        with pytest.raises(ZeroDivisionError):
            q.div(1, zero)


def test_field_json_roundtrip():
    for f in (PrimeField(3), RationalField()):
        assert field_from_json(field_to_json(f)) == f
    with pytest.raises(FieldError):
        field_from_json({"type": "real"})


def test_kernel_basis_f2():
    f = PrimeField(2)
    # columns z1..z4 of the four-line cycle; kernel is spanned by (1,1,1,1)
    rows = [[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
    ker = linalg.kernel_basis(f, rows, 4)
    assert ker == [[1, 1, 1, 1]]


def test_solve_combination_rational():
    q = RationalField()
    basis = [[q.from_int(1), q.from_int(0)], [q.from_int(1), q.from_int(1)]]
    sol = linalg.solve_combination(q, basis, [q.from_int(3), q.from_int(2)])
    assert sol == [Fraction(1), Fraction(2)]
    assert linalg.solve_combination(q, [[q.one, q.zero]], [q.zero, q.one]) is None


def _packed(rows):
    """F_2 rows as bitmasks, column j at bit j."""
    return [sum(1 << j for j, x in enumerate(row) if x) for row in rows]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda ncols: st.lists(st.lists(st.integers(0, 1), min_size=ncols,
                                    max_size=ncols), max_size=12)))
@example(rows=[[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
def test_bitmask_rank_matches_generic(rows):
    assert (linalg.matrix_rank_f2_bitmask(_packed(rows))
            == linalg.rank(PrimeField(2), rows))


# 2^61 - 1 is the field of hilbert's evaluation lower bound
RANK_FIELDS = (PrimeField(2), PrimeField(5), PrimeField(2**61 - 1),
               RationalField())


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(RANK_FIELDS))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.integers(-3, 3).map(field.from_int)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return field, draw(st.lists(row, min_size=nrows, max_size=nrows))


def _rref(field, rows):
    """Reduced row echelon form by Gauss-Jordan elimination, the reference
    for `linalg`.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != field.zero),
                     None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y))
                        for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _kernel_by_rref(field, rows, ncols):
    """One kernel vector per free column, read off the reduced rows."""
    reduced, pivots = _rref(field, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(reduced[r][fc])
        basis.append(v)
    return basis


def _solve_by_rref(field, basis_rows, target):
    """The solution with every free coefficient 0, or None."""
    if not basis_rows:
        return [] if all(x == field.zero for x in target) else None
    k = len(basis_rows)
    aug = [[row[c] for row in basis_rows] + [target[c]]
           for c in range(len(basis_rows[0]))]
    reduced, pivots = _rref(field, aug)
    if k in pivots:
        return None
    sol = [field.zero] * k
    for r, pc in enumerate(pivots):
        sol[pc] = reduced[r][k]
    return sol


Q_ROWS = [[Fraction(x) for x in row]
          for row in ([1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 0, 1, 1, 1])]


@settings(max_examples=150, deadline=None)
@given(matrices())
@example((PrimeField(5), []))  # empty
@example((PrimeField(5), [[], []]))  # no columns
@example((RationalField(), [[Fraction(0)] * 4] * 3))  # all zero
@example((RationalField(), Q_ROWS))  # wide
@example((RationalField(), [list(col) for col in zip(*Q_ROWS)]))  # tall
@example((PrimeField(2), [[1, 1, 0, 1, 0, 1, 1]] * 2 + [[0, 1, 1, 0, 1, 0, 1]]))
def test_forward_elimination_rank_matches_rref(matrix):
    """Rank, kernel and solutions agree with full Gauss-Jordan reduction,
    the solutions also over dependent basis rows; no input row changes."""
    field, rows = matrix
    before = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    assert linalg.rank(field, rows) == len(_rref(field, rows)[1])
    assert (linalg.kernel_basis(field, rows, ncols)
            == _kernel_by_rref(field, rows, ncols))
    total = [field.zero] * ncols
    for row in rows:
        total = [field.add(a, b) for a, b in zip(total, row)]
    targets = [(rows[:k] + rows[k + 1:], rows[k]) for k in range(len(rows))]
    for basis_rows, target in targets + [(rows, total), (rows[1:], total)]:
        assert (linalg.solve_combination(field, basis_rows, target)
                == _solve_by_rref(field, basis_rows, target))
    assert rows == before


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_echelon_rows_and_row_space_membership(matrix, data):
    """`echelon` gives one row per unit of rank, each 1 at its pivot column,
    0 left of it and at every earlier pivot's column, and cut after its last
    nonzero entry; a vector is in the row space exactly when it adds no
    rank.  Rows added one at a time by `extend_echelon` span the same
    space."""
    field, rows = matrix
    pivots = linalg.echelon(field, rows)
    assert len(pivots) == linalg.rank(field, rows)
    grown = []
    added = [linalg.extend_echelon(field, grown, row) for row in rows]
    assert added == [
        linalg.rank(field, rows[:k + 1]) > linalg.rank(field, rows[:k])
        for k in range(len(rows))]
    for k, (c, row) in enumerate(pivots):
        assert row[c] == field.one and row[-1]
        assert not any(row[:c])
        assert not any(row[e] for e, _ in pivots[:k] if e < len(row))
    if not rows:
        return
    ncols = len(rows[0])
    vec = data.draw(st.lists(st.integers(-3, 3).map(field.from_int),
                             min_size=ncols, max_size=ncols))
    combo = [field.zero] * ncols
    for row in rows:
        k = field.from_int(data.draw(st.integers(-2, 2)))
        combo = [field.add(a, field.mul(k, b)) for a, b in zip(combo, row)]
    for space in (pivots, grown):
        assert linalg.in_row_space(field, space, combo)
        assert linalg.in_row_space(field, space, vec) == (
            linalg.rank(field, rows + [vec]) == len(pivots))
