"""Closed-form matroid checker for recplane outputs.

Everything here is derived from one exact subset-rank table built by this
file's own Gaussian elimination (mod p, or over `Fraction` for the
rationals).  Nothing is imported from recplane, so a fault in the program
cannot hide itself from the check.

From the rank table come the flats, the circuits and the Poincare polynomial
by Whitney's subset expansion, pi(A, t) = sum_S (-1)^|S| (-t)^r(S).  The
reference values are:

- commutative Hilbert table: coefficients of pi(A, x/(1-x)) at x = q^2
  (Terao, "Algebras generated by reciprocals of linear forms", 2002);
- odd (super) Hilbert table: coefficients of pi(A, q/(1-q)), the nbc count
  pi(A, (x+y)/(1-x)) at x = q^2, y = q;
- point counts: each flat F contributes chi_{A_F}(p) =
  sum_{S in F} (-1)^|S| p^(r(F)-r(S)) (Athanasiadis, 1996);
- Lemma 7 pairs: sum over circuits C of 2^|C|.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def exact_rank(p: int, rows) -> int:
    """Rank of integer/Fraction rows over F_p (p > 0) or over Q (p == 0)."""
    if p:
        work = [[int(x) % p for x in row] for row in rows]
    else:
        work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for i in range(rank + 1, len(work)):
            factor = work[i][col]
            if not factor:
                continue
            if p:
                scale = factor * pow(lead, -1, p) % p
                work[i] = [(a - scale * b) % p for a, b in zip(work[i], work[rank])]
            else:
                scale = factor / lead
                work[i] = [a - scale * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


class Matroid:
    """The matroid of nonzero forms z_1..z_m, as a table of subset ranks.

    Subsets are bitmasks: bit i-1 stands for form i.
    """

    def __init__(self, p: int, rows):
        self.p = p
        self.m = len(rows)
        self.rank_of = [
            exact_rank(p, [rows[i] for i in range(self.m) if mask >> i & 1])
            for mask in range(1 << self.m)
        ]
        self.rank = self.rank_of[-1]

    def indices(self, mask: int) -> tuple:
        return tuple(i + 1 for i in range(self.m) if mask >> i & 1)

    def _submasks(self, mask: int):
        sub = mask
        while True:
            yield sub
            if sub == 0:
                return
            sub = (sub - 1) & mask

    def flats(self) -> dict:
        """{indices of a flat: its rank}; F is closed when every outside
        form raises the rank."""
        out = {}
        for mask, r in enumerate(self.rank_of):
            if all(
                self.rank_of[mask | 1 << j] > r
                for j in range(self.m) if not mask >> j & 1
            ):
                out[self.indices(mask)] = r
        return out

    def circuits(self) -> list:
        """Supports of minimal dependent sets, as index tuples."""
        out = []
        for mask, r in enumerate(self.rank_of):
            size = _popcount(mask)
            if r == size:
                continue
            if all(
                self.rank_of[mask & ~(1 << j)] == size - 1
                for j in range(self.m) if mask >> j & 1
            ):
                out.append(self.indices(mask))
        return out

    def poincare(self) -> list:
        """Coefficients b_0..b_rank of pi(A, t), by Whitney's expansion."""
        coeffs = [0] * (self.rank + 1)
        for mask, r in enumerate(self.rank_of):
            coeffs[r] += (-1) ** (_popcount(mask) + r)
        return coeffs

    def hilbert_commutative(self, max_degree: int) -> dict:
        """Topological degree -> dim of the reciprocal plane ring (t has
        degree 2): pi(A, x/(1-x)) at x = q^2."""
        series = _series_of_x_over_1_minus_x(self.poincare(), max_degree // 2)
        return {
            deg: (series[deg // 2] if deg % 2 == 0 else 0)
            for deg in range(max_degree + 1)
        }

    def hilbert_super(self, max_degree: int) -> dict:
        """Topological degree -> dim of the odd ring: pi(A, q/(1-q))."""
        series = _series_of_x_over_1_minus_x(self.poincare(), max_degree)
        return dict(enumerate(series))

    def flat_point_count(self, flat: tuple) -> int:
        """chi of the flat's restriction at p: points of F_p^r(F) off its
        forms."""
        mask = sum(1 << (i - 1) for i in flat)
        top = self.rank_of[mask]
        return sum(
            (-1) ** _popcount(sub) * self.p ** (top - self.rank_of[sub])
            for sub in self._submasks(mask)
        )

    def point_count(self) -> int:
        return sum(self.flat_point_count(f) for f in self.flats())

    def lemma7_pairs(self) -> int:
        return sum(2 ** len(c) for c in self.circuits())


def _series_of_x_over_1_minus_x(coeffs, top: int) -> list:
    """Coefficients of x^0..x^top in sum_k b_k (x/(1-x))^k."""
    out = []
    for d in range(top + 1):
        if d == 0:
            out.append(coeffs[0])
            continue
        out.append(sum(
            b * comb(d - 1, k - 1) for k, b in enumerate(coeffs) if 1 <= k <= d
        ))
    return out


# -- checks of report and CLI payloads ------------------------------------------


def check_report(rep: dict, mat: Matroid) -> list:
    """Problems found in one report's JSON (empty when it checks out)."""
    problems = []
    check = rep.get("check")
    if rep.get("status") != "pass":
        problems.append(f"{check}: status {rep.get('status')!r}")
    details = rep.get("details", {})
    if check == "theorem2":
        if len(details.get("degrees", ())) != mat.m + 1:
            problems.append(f"theorem2: {len(details.get('degrees', ()))} "
                            f"degrees, expected {mat.m + 1}")
    elif check == "lemma7":
        if details.get("pairs") != mat.lemma7_pairs():
            problems.append(f"lemma7: pairs {details.get('pairs')}, "
                            f"expected {mat.lemma7_pairs()}")
    elif check == "stratification":
        problems += _check_points(details, mat)
    elif check == "groebner-lemma":
        for row in details.get("degrees", ()):
            if not row.get("same_span"):
                problems.append("groebner-lemma: family span differs")
    return problems


def _check_points(details: dict, mat: Matroid) -> list:
    problems = []
    want = mat.point_count()
    if details.get("lhs") != want or details.get("rhs") != want:
        problems.append(f"stratification: lhs {details.get('lhs')} rhs "
                        f"{details.get('rhs')}, expected {want}")
    rows = details.get("per_flat", ())
    flats = mat.flats()
    if len(rows) != len(flats):
        problems.append(f"stratification: {len(rows)} per_flat rows, "
                        f"expected {len(flats)}")
    for row in rows:
        flat = tuple(row["flat"])
        if flat not in flats:
            problems.append(f"stratification: {list(flat)} is not a flat")
        elif row["count"] != mat.flat_point_count(flat):
            problems.append(f"stratification: flat {list(flat)} counts "
                            f"{row['count']}, expected "
                            f"{mat.flat_point_count(flat)}")
    return problems


def check_flats(payload: dict, mat: Matroid) -> list:
    got = {tuple(f["indices"]): f["quotient_dim"] for f in payload["flats"]}
    if len(payload["flats"]) != len(got) or got != mat.flats():
        return [f"flats: {len(payload['flats'])} entries differ from the "
                f"{len(mat.flats())} flats of the rank table"]
    return []


def check_charts(payload: dict, mat: Matroid) -> list:
    """`charts --super`: one chart per flat, each with one generator per
    (circuit, subset of the circuit)."""
    got = [tuple(ch["flat"]) for ch in payload["charts"]]
    if sorted(got) != sorted(mat.flats()):
        return [f"charts: {len(got)} charts for {len(mat.flats())} flats"]
    want = mat.lemma7_pairs()
    return [f"charts: flat {list(ch['flat'])} has {len(ch['generators'])} "
            f"generators, expected {want}"
            for ch in payload["charts"] if len(ch["generators"]) != want]


def check_hilbert(payload: dict, mat: Matroid, super_: bool,
                  max_degree: int) -> list:
    want = (mat.hilbert_super(max_degree) if super_
            else mat.hilbert_commutative(max_degree))
    want = {str(k): v for k, v in want.items()}
    problems = []
    if payload.get("agree") is not True:
        problems.append("hilbert: the two tables disagree")
    for side in ("standard", "rank"):
        if payload.get(side) != want:
            problems.append(f"hilbert{' --super' if super_ else ''}: {side} "
                            f"table {payload.get(side)} != closed form {want}")
    return problems
