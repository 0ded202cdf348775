"""Arrangement corpus generation for CI-scale verification runs.

The finite-field corpus enumerates, for each ambient dimension up to a bound,
all multisets of nonzero forms that span (lower-rank multisets already occur
at a smaller n), de-duplicated up to index permutation by the multiset
encoding itself.  Rational instances are drawn from a seeded generator.
"""

from __future__ import annotations

import itertools
import random

from .arrangement import Arrangement
from .fields import PrimeField, RationalField


def _nonzero_forms(p: int, n: int):
    return [v for v in itertools.product(range(p), repeat=n) if any(v)]


def enumerate_arrangements(p: int, max_n: int, max_m: int):
    """Yield (name, Arrangement) for every multiset within the bounds."""
    field = PrimeField(p)
    for n in range(1, max_n + 1):
        forms = _nonzero_forms(p, n)
        for m in range(1, max_m + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(forms)), m
            ):
                arr = Arrangement(field, n, [forms[k] for k in combo])
                if arr.rank != n:
                    continue
                name = f"p{p}_n{n}_m{m}_" + "-".join(str(k) for k in combo)
                yield name, arr


def random_rational_arrangements(count: int, seed: int,
                                 max_n: int = 3, max_m: int = 5):
    """Seeded random rational instances; entries are small integers."""
    rng = random.Random(seed)
    field = RationalField()
    out = []
    for k in range(count):
        n = rng.randint(1, max_n)
        m = rng.randint(n, max_m)
        forms = []
        while len(forms) < m:
            vec = [rng.randint(-3, 3) for _ in range(n)]
            if any(vec):
                forms.append(vec)
        out.append((f"q_seed{seed}_{k}_n{n}_m{m}", Arrangement(field, n, forms)))
    return out


def acceptance_corpus(seed: int = 7):
    """The standing verification corpus: named finite-field bounds plus
    twenty seeded rational instances."""
    instances = []
    for p, max_n, max_m in ((2, 3, 5), (3, 2, 4), (5, 2, 3)):
        instances.extend(enumerate_arrangements(p, max_n, max_m))
    instances.extend(random_rational_arrangements(20, seed))
    return instances
