"""Small dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of field scalars.  Everything here is plain
Gaussian elimination; sizes stay tiny except for the Hilbert rank oracle,
which gets a bitmask fast path over F_2.  `echelon` is forward elimination
only; it gives `rank`, and with `in_row_space` tests many vectors against
one row space.  `extend_echelon` grows such a row space one vector at a
time, for a greedy basis.  `rref` (full reduction) serves `kernel_basis` and
`solve_combination`.
"""

from __future__ import annotations


def rref(field, rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != field.zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


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
    """Basis of {v : M v = 0} for M given by `rows` (each of length ncols)."""
    reduced, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(reduced[r][fc])
        basis.append(v)
    return basis


def solve_combination(field, basis_rows, target):
    """Coefficients c with sum(c_i * basis_rows[i]) == target, or None."""
    if not basis_rows:
        return [] if all(x == field.zero for x in target) else None
    ncols = len(basis_rows[0])
    # Transpose: unknowns are the combination coefficients.
    aug = [[row[c] for row in basis_rows] + [target[c]] for c in range(ncols)]
    reduced, pivots = rref(field, aug)
    k = len(basis_rows)
    if k in pivots:
        return None  # inconsistent
    sol = [field.zero] * k
    for r, pc in enumerate(pivots):
        sol[pc] = reduced[r][k]
    return sol


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
