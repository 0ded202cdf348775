import itertools

import pytest

from recplane import linalg
from recplane.corpus import enumerate_arrangements
from recplane.fields import PrimeField


def _rank_filtered(p, max_n, max_m):
    """The enumeration as a spanning test by `linalg.rank`, then one
    Arrangement per spanning multiset."""
    field = PrimeField(p)
    out = []
    for n in range(1, max_n + 1):
        forms = [v for v in itertools.product(range(p), repeat=n) if any(v)]
        for m in range(1, max_m + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(forms)), m
            ):
                rows = [list(forms[k]) for k in combo]
                if linalg.rank(field, rows) == n:
                    name = f"p{p}_n{n}_m{m}_" + "-".join(map(str, combo))
                    out.append((name, n, tuple(map(tuple, rows))))
    return out


@pytest.mark.parametrize("p, max_n, max_m", [(2, 3, 4), (3, 2, 3)])
def test_enumeration_keeps_exactly_the_spanning_multisets(p, max_n, max_m):
    got = [(name, arr.n, arr.forms, arr.rank)
           for name, arr in enumerate_arrangements(p, max_n, max_m)]
    want = _rank_filtered(p, max_n, max_m)
    assert [g[:3] for g in got] == want
    assert all(rank == n for _, n, _, rank in got)
