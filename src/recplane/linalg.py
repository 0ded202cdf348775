"""Small dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of field scalars.  There is one row
reduction, `_remainder`: a vector minus the multiple of each pivot row that
clears the pivot's column.  A pivot is (column, row), the row scaled to 1 at
its column and 0 at every earlier pivot's column and left of its own, and
cut after its last nonzero entry; pivots are kept in the order their rows
came.  Over F_p (p = `field.char`) the updates are int arithmetic on the
representatives, with `% p` inline once per remainder; over Q they are plain
int and Fraction arithmetic, so an entry may be an integral Fraction, which
equals its int.

`extend_echelon` appends the remainder of one vector as a pivot, `echelon`
folds it over the rows and `rank` counts the pivots; `in_row_space` asks
whether a remainder vanishes.  `kernel_basis` back-substitutes on the pivots
in reverse arrival order, and `solve_combination` reads its answer off a
kernel vector.  Ranks over F_2 of bitmask rows, for the Hilbert rank oracle,
have their own path.
"""

from __future__ import annotations


def _remainder(p: int, pivots, vec) -> list:
    """`vec` reduced by each pivot of `pivots` in turn, over F_p, or over Q
    when p is 0: zero at every pivot column.  Over F_p the updates are
    plain int arithmetic and the result is reduced % p once; `vec` itself
    is not modified."""
    v = list(vec)
    for c, row in pivots:
        f = v[c] % p if p else v[c]
        if f:
            for j in range(c, len(row)):
                b = row[j]
                if b:
                    v[j] -= f * b
    return [a % p for a in v] if p else v


def extend_echelon(field, pivots, vec) -> bool:
    """Append the remainder of `vec` to `pivots` unless `vec` lies in their
    row space; True when it was appended.

    The pivot column is the remainder's first nonzero entry; the row is
    scaled to 1 there and cut after its last nonzero entry.
    """
    p = field.char
    v = _remainder(p, pivots, vec)
    for c, x in enumerate(v):
        if x:
            break
    else:
        return False
    end = len(v)
    while not v[end - 1]:
        end -= 1
    inv = pow(x, -1, p) if p else field.inv(x)
    if p:
        pivots.append((c, [a * inv % p for a in v[:end]]))
    else:
        pivots.append((c, [a * inv if a else a for a in v[:end]]))
    return True


def echelon(field, rows):
    """The pivots of `rows` by `extend_echelon`, one per unit of rank, in
    arrival order; rows after full column rank are not read.  The input
    rows are not modified."""
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(pivots) == ncols:
            break
        extend_echelon(field, pivots, row)
    return pivots


def rank(field, rows) -> int:
    """The number of `echelon` pivots."""
    return len(echelon(field, rows))


def in_row_space(field, pivots, vec) -> bool:
    """True when `vec` is a combination of the rows of `pivots`: its
    remainder vanishes."""
    return not any(_remainder(field.char, pivots, vec))


def kernel_basis(field, rows, ncols):
    """Basis of {v : M v = 0} for M given by `rows` (each of length ncols).

    One vector per free (non-pivot) column, by increasing column: it is 1
    there and 0 at every other free column.  Its pivot entries are solved
    in reverse arrival order: a pivot row is 0 at every earlier pivot's
    column, so it reads only entries already set.
    """
    pivots = echelon(field, rows)
    pivot_cols = {c for c, _ in pivots}
    p = field.char
    zero = field.zero
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [zero] * ncols
        v[fc] = field.one
        for c, row in reversed(pivots):
            acc = sum((a * b for a, b in zip(row, v) if a and b), zero)
            v[c] = -acc % p if p else -acc
        basis.append(v)
    return basis


def solve_combination(field, basis_rows, target):
    """Coefficients c with sum(c_i * basis_rows[i]) == target, or None.

    The columns (basis_rows..., target) have a kernel vector that is 1 at
    the target exactly when a solution exists; the target column is then
    the last free column, so that vector comes last, and the solution is
    minus its other entries.
    """
    k = len(basis_rows)
    columns = [[row[c] for row in basis_rows] + [x]
               for c, x in enumerate(target)]
    kernel = kernel_basis(field, columns, k + 1)
    if not kernel or kernel[-1][k] == field.zero:
        return None
    return [field.neg(x) for x in kernel[-1][:k]]


def matrix_rank_f2_bitmask(rows_bits) -> int:
    """Rank over F_2 of rows given as int bitmasks."""
    by_pivot = {}
    rk = 0
    for row in rows_bits:
        while row:
            low = row & -row
            other = by_pivot.get(low)
            if other is None:
                by_pivot[low] = row
                rk += 1
                break
            row ^= other
    return rk
