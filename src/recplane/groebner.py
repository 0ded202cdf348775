"""Buchberger completion, normal forms, elimination and ideal comparison.

The completion uses the normal selection strategy (smallest lcm degree first,
ties broken by input position) and returns a reduced basis: interreduced,
monic, sorted by ascending leading monomial.  That canonical form is what
makes golden tests and `ideal_equal` deterministic.

Work saved on the way to that basis, none of which changes it:

- pairs with coprime leading monomials are never queued (Buchberger's first
  criterion), and a queued pair is skipped by the chain criterion
  (Buchberger 1979; Gebauer-Moeller 1988) once two pairs through a third
  element whose leading monomial divides its lcm have been treated;
- the `(lm, lc, g)` reducer list is built once per completion and grows
  with the basis, instead of once per `normal_form` call.

`ideal_equal` compares the two reduced bases and nothing else: a reduced
basis is unique, so equal bases are equal ideals and different bases are
different ideals.

Coefficients are plain scalars: ints in 1..p-1 over F_p; over Q an int
when integral, else a Fraction.  A division step takes its factor from one
`field.div` of the leading coefficient, and an S-polynomial its two
scalings from one `field.inv` each; every other operation is plain
arithmetic, one loop for both fields.  A term updated in `normal_form` is
reduced `% p` at once, as the next step reads a canonical leading
coefficient, and dropped when it is zero; over Q the remainder is
canonicalised once at the end, as a term may be an integral Fraction.
`s_polynomial` sums unreduced and canonicalises once (`PolyRing.poly`).
Over Q no coefficient is divided with `/`: an int over an int would be a
float.

`is_groebner` applies no pair criterion, so it stays an independent check
of the completion.  Nothing here comes from `modules`: the two engines are
compared against each other.
"""

from __future__ import annotations

import heapq

from .polynomials import ExponentOverflow, Polynomial, PolyRing, RingError


class _ReducerBasis(list):
    """A growing basis that keeps its `(lm, lc, g)` reducer list up to date.

    `normal_form` divides by that list as it stands instead of building one;
    only `append` may change the basis, or the list goes stale.
    """

    __slots__ = ("reducers",)

    def __init__(self, elems=()):
        super().__init__()
        self.reducers: list = []
        for g in elems:
            self.append(g)

    def append(self, g):
        if not g.is_zero():
            self.reducers.append((g.lm(), g.lc(), g))
        super().append(g)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under division by `basis`; no term of the result is
    divisible by any basis leading monomial."""
    if isinstance(basis, _ReducerBasis):
        reducers = basis.reducers
    else:
        reducers = [(g.lm(), g.lc(), g) for g in basis if not g.is_zero()]
    if not reducers:
        return f
    div = f.ring.field.div
    p = f.ring.field.char
    guard = f.ring.guard
    work = dict(f._d)
    rem = {}
    while work:
        m = max(work)
        c = work.pop(m)
        for lm, lc, g in reducers:
            shift = m - lm  # the quotient, when lm divides m
            if shift >= 0 and not shift & guard:
                break
        else:
            rem[m] = c
            continue
        factor = div(c, lc)
        # work -= factor * x^shift * g  (the leading terms cancel)
        for gm, gc in g._d.items():
            if gm == lm:
                continue
            key = gm + shift
            if key & guard:
                raise ExponentOverflow()
            s = work.get(key, 0) - factor * gc
            if p:
                s %= p
            if s:
                work[key] = s
            else:
                work.pop(key, None)
    # over Q a remainder term may be an integral Fraction
    return Polynomial(f.ring, rem if p else f.ring.canonical(rem))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    inv = ring.field.inv
    lmf, lcf = f.lt()
    lmg, lcg = g.lt()
    lcm = ring.mono_lcm(lmf, lmg)
    af, sf = inv(lcf), lcm - lmf
    ag, sg = inv(lcg), lcm - lmg
    d = {m + sf: af * c for m, c in f._d.items()}
    for m, c in g._d.items():
        key = m + sg
        d[key] = d.get(key, 0) - ag * c
    guard = ring.guard
    if any(key & guard for key in d):
        raise ExponentOverflow()
    return ring.poly(d)


def _chain_criterion(ring, reducers, pending, i, j, lcm):
    """Gebauer-Moeller chain criterion for the pair (i, j).

    True when a third element k has lm(k) dividing lcm = lcm(lm(i), lm(j))
    and neither (i, k) nor (j, k) is pending: S(i, j) is then a monomial
    combination of S(i, k) and S(j, k), which were already treated.
    """
    for k, (lmk, _, _) in enumerate(reducers):
        if k == i or k == j or not ring.mono_divides(lmk, lcm):
            continue
        if ((min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending):
            return True
    return False


def buchberger(gens) -> list:
    """Raw completion: a (non-reduced) Groebner basis containing the inputs.

    A pair is never queued when its leading monomials are coprime
    (Buchberger's first criterion) and is skipped when the chain criterion
    shows it redundant.  The basis keeps its `(lm, lc, g)` reducer list,
    built once and grown with it.
    """
    G = _ReducerBasis(g for g in gens if not g.is_zero())
    if not G:
        return []
    ring = G[0].ring
    reducers = G.reducers
    heap = []
    pending = set()

    def push_pairs(j):
        lmj = reducers[j][0]
        for i in range(j):
            lmi = reducers[i][0]
            lcm = ring.mono_lcm(lmi, lmj)
            if lcm == lmi + lmj:
                continue  # coprime leading monomials: S-pair reduces to zero
            heapq.heappush(heap, (ring.mono_degree(lcm), i, j, lcm))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        if _chain_criterion(ring, reducers, pending, i, j, lcm):
            continue
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if not r.is_zero():
            G.append(r.monic())
            push_pairs(len(G) - 1)
    return list(G)


def reduce_basis(G) -> list:
    """Minimal, interreduced, monic basis sorted by ascending leading monomial.

    Each minimal element is reduced only by the ones before it: a leading
    monomial dividing one of its terms is no larger than that term, which
    lies below its own leading monomial.
    """
    G = sorted((g for g in G if not g.is_zero()), key=lambda g: g.lm())
    minimal = []
    for g in G:
        if not any(g.ring.mono_divides(h.lm(), g.lm()) for h in minimal):
            minimal.append(g)
    reduced = _ReducerBasis()
    for g in minimal:
        reduced.append(normal_form(g, reduced).monic())
    return list(reduced)


def groebner_ideal(gens) -> list:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    return reduce_basis(buchberger(gens))


def is_groebner(G) -> bool:
    """Buchberger criterion: every S-pair remainder reduces to zero.

    Every pair is reduced, with no pair criterion.
    """
    G = [g for g in G if not g.is_zero()]
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not normal_form(s_polynomial(G[i], G[j]), G).is_zero():
                return False
    return True


def eliminate(gens, drop_vars, subring=None) -> list:
    """Generators of (gens) intersected with the subring without `drop_vars`.

    The ambient lex order must list `drop_vars` as its greatest variables.
    """
    if not gens:
        return []
    ring = gens[0].ring
    drop = set(drop_vars)
    k = len(drop)
    if set(ring.variables[:k]) != drop:
        raise RingError("drop_vars must be the greatest variables of the order")
    if subring is None:
        subring = PolyRing(ring.field, ring.variables[k:])
    basis = groebner_ideal(gens)
    if k:
        # under lex, g lies in the subring exactly when its leading monomial
        # is below the least dropped variable
        bound = ring.mono({ring.variables[k - 1]: 1})
        basis = [g for g in basis if g.lm() < bound]
    return [ring.restrict(g, subring) for g in basis]


def ideal_equal(A, B) -> bool:
    """Whether A and B generate the same ideal: equal reduced bases."""
    nonzero_a = [a for a in A if not a.is_zero()]
    nonzero_b = [b for b in B if not b.is_zero()]
    if nonzero_a and nonzero_b and nonzero_a[0].ring != nonzero_b[0].ring:
        raise RingError("ideal generators from different rings")
    return groebner_ideal(nonzero_a) == groebner_ideal(nonzero_b)
