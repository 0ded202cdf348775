"""Small dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of field scalars.  Everything here is plain
Gaussian elimination; sizes stay tiny except for the Hilbert rank oracle,
which gets a bitmask fast path over F_2.  `echelon` is forward elimination
only; it gives `rank`, and with `in_row_space` tests many vectors against
one row space.  `extend_echelon` grows such a row space one vector at a
time, for a greedy basis.  `kernel_basis` back-substitutes on the echelon
rows, and `solve_combination` reads its answer off a kernel vector.
"""

from __future__ import annotations


def echelon(field, rows):
    """Row echelon form by forward elimination: each pivot clears the rows
    below it.

    Returns one (pivot column, inverse of the pivot, row) triple per pivot,
    by increasing column.  A row counts from its pivot on: the entries left
    of it were eliminated, but are not overwritten, and are never read.  No
    row is scaled and nothing above a pivot is touched; only the nonzero
    entries right of the pivot are used.  The input rows are not modified.
    """
    m = [list(r) for r in rows]
    zero = field.zero
    ncols = len(m[0]) if m else 0
    out = []
    for c in range(ncols):
        rk = len(out)
        pivot = next((i for i in range(rk, len(m)) if m[i][c] != zero), None)
        if pivot is None:
            continue
        m[rk], m[pivot] = m[pivot], m[rk]
        top = m[rk]
        inv = field.inv(top[c])
        tail = [(j, top[j]) for j in range(c + 1, ncols) if top[j] != zero]
        for i in range(rk + 1, len(m)):
            row = m[i]
            if row[c] == zero:
                continue
            f = field.mul(row[c], inv)
            for j, y in tail:
                row[j] = field.sub(row[j], field.mul(f, y))
        out.append((c, inv, top))
        if len(out) == len(m):
            break
    return out


def rank(field, rows) -> int:
    """Rank by forward elimination (`echelon`)."""
    return len(echelon(field, rows))


def _remainder(field, pivots, vec) -> list:
    """`vec` reduced by each (pivot column, inverse of the pivot, row) of
    `pivots` in turn.

    `pivots` is `echelon` output, or is built by `extend_echelon`; a row is
    read only from its pivot on.
    """
    v = list(vec)
    zero = field.zero
    for c, inv, row in pivots:
        if v[c] != zero:
            f = field.mul(v[c], inv)
            for j in range(c, len(v)):
                if row[j] != zero:
                    v[j] = field.sub(v[j], field.mul(f, row[j]))
    return v


def in_row_space(field, pivots, vec) -> bool:
    """True when `vec` is a combination of the rows of `pivots`: its
    remainder vanishes."""
    zero = field.zero
    return all(x == zero for x in _remainder(field, pivots, vec))


def extend_echelon(field, pivots, vec) -> bool:
    """Append the remainder of `vec` to `pivots`, with its first nonzero
    entry as pivot, unless `vec` lies in their row space; True when it was
    appended.

    The remainder vanishes at every earlier pivot column, so
    `in_row_space` stays exact; the pivots are in the order they came,
    not by column.
    """
    v = _remainder(field, pivots, vec)
    zero = field.zero
    c = next((j for j, x in enumerate(v) if x != zero), None)
    if c is None:
        return False
    pivots.append((c, field.inv(v[c]), v))
    return True


def kernel_basis(field, rows, ncols):
    """Basis of {v : M v = 0} for M given by `rows` (each of length ncols).

    One vector per free (non-pivot) column, by increasing column: it is 1
    there and 0 at every other free column, and its pivot entries come
    from back-substitution on the `echelon` rows, each read from its pivot
    on.
    """
    pivots = echelon(field, rows)
    pivot_cols = {c for c, _, _ in pivots}
    zero = field.zero
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [zero] * ncols
        v[fc] = field.one
        for c, inv, row in reversed(pivots):
            acc = zero
            for j in range(c + 1, ncols):
                if row[j] != zero and v[j] != zero:
                    acc = field.add(acc, field.mul(row[j], v[j]))
            v[c] = field.neg(field.mul(inv, acc))
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
