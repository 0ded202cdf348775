"""Buchberger completion, normal forms, elimination and ideal comparison.

The completion uses the normal selection strategy (smallest lcm degree first,
ties broken by input position) and returns a reduced basis: interreduced,
monic, sorted by ascending leading monomial.  That canonical form is what
makes golden tests and `ideal_equal` deterministic.
"""

from __future__ import annotations

import heapq

from .polynomials import (
    Polynomial,
    RingError,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under division by `basis`; no term of the result is
    divisible by any basis leading monomial."""
    reducers = [(g.lm(), g.lc(), g) for g in basis if not g.is_zero()]
    if not reducers:
        return f
    field = f.ring.field
    work = dict(f._d)
    rem = {}
    while work:
        m = max(work)
        c = work.pop(m)
        hit = None
        for lm, lc, g in reducers:
            if mono_divides(lm, m):
                hit = (lm, lc, g)
                break
        if hit is None:
            rem[m] = c
            continue
        lm, lc, g = hit
        factor = field.div(c, lc)
        shift = mono_div(m, lm)
        # work -= factor * x^shift * g  (the leading terms cancel)
        for gm, gc in g._d.items():
            if gm == lm:
                continue
            key = mono_mul(gm, shift)
            s = field.sub(work.get(key, field.zero), field.mul(factor, gc))
            if s == field.zero:
                work.pop(key, None)
            else:
                work[key] = s
    return Polynomial(f.ring, rem)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    field = f.ring.field
    lmf, lcf = f.lt()
    lmg, lcg = g.lt()
    lcm = mono_lcm(lmf, lmg)
    a = f.mul_term(field.inv(lcf), mono_div(lcm, lmf))
    b = g.mul_term(field.inv(lcg), mono_div(lcm, lmg))
    return a - b


def buchberger(gens) -> list:
    """Raw completion: a (non-reduced) Groebner basis containing the inputs."""
    G = [g for g in gens if not g.is_zero()]
    if not G:
        return []
    heap = []

    def push_pairs(j):
        lmj = G[j].lm()
        for i in range(j):
            lmi = G[i].lm()
            lcm = mono_lcm(lmi, lmj)
            if lcm == mono_mul(lmi, lmj):
                continue  # coprime leading monomials: S-pair reduces to zero
            heapq.heappush(heap, (mono_degree(lcm), i, j))

    for j in range(len(G)):
        push_pairs(j)
    while heap:
        _, i, j = heapq.heappop(heap)
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if not r.is_zero():
            G.append(r.monic())
            push_pairs(len(G) - 1)
    return G


def reduce_basis(G) -> list:
    """Minimal, interreduced, monic basis sorted by ascending leading monomial."""
    G = [g for g in G if not g.is_zero()]
    G.sort(key=lambda g: g.lm())
    minimal = []
    for g in G:
        if not any(mono_divides(h.lm(), g.lm()) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others)
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: g.lm())
    return reduced


def groebner_ideal(gens) -> list:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    return reduce_basis(buchberger(gens))


def is_groebner(G) -> bool:
    """Buchberger criterion: every S-pair remainder reduces to zero."""
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
        from .polynomials import PolyRing

        subring = PolyRing(ring.field, ring.variables[k:])
    top = len(subring.variables)
    out = []
    for g in groebner_ideal(gens):
        if all((not m) or m[0][0] <= top for m in g._d):
            out.append(ring.restrict(g, subring))
    return out


def ideal_equal(A, B) -> bool:
    """Mutual containment via normal forms against each side's basis."""
    nonzero_a = [a for a in A if not a.is_zero()]
    nonzero_b = [b for b in B if not b.is_zero()]
    if nonzero_a and nonzero_b and nonzero_a[0].ring != nonzero_b[0].ring:
        raise RingError("ideal generators from different rings")
    ga = groebner_ideal(nonzero_a)
    gb = groebner_ideal(nonzero_b)
    return all(normal_form(b, ga).is_zero() for b in nonzero_b) and all(
        normal_form(a, gb).is_zero() for a in nonzero_a
    )
