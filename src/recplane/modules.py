"""Free modules over a polynomial ring with subset-labeled basis.

Module elements are `superalg.ExtElement`s: the exterior monomials of one
Grassmann degree are the basis labels.  The term order is TOP (term over
position) lexicographic: monomials compare first under the ring's lex
order, then basis labels compare via their descending index tuples.  The
engine runs on the packed terms of `superalg`: the TOP order is int order
on packed keys, the leading term is the greatest key, a t-multiple adds a
shifted monomial to every key, and within one label a packed key lk
divides a packed key k exactly when `k - lk` is non-negative with no guard
bit of the shifted ring guard set.  Only `superalg` turns labels into
masks; here a mask is read as `key & LABEL_MASK` and a monomial as
`key >> LABEL_BITS`.

Coefficients follow the rule of `groebner`: a division step takes one
`field.div` and an S-pair one `field.inv` per element, everything else is
plain arithmetic in one loop for both fields.  `module_normal_form`
reduces each updated term `% p` at once and drops it when zero, and over Q
canonicalises its remainder once at the end; each
quotient coefficient is a step's factor as it is, because the leading key
falls at every step, so no reducer meets the same shift twice.  `_spair`
sums unreduced and calls `PolyRing.canonical` once.

`module_groebner` interreduces its inputs before the completion; both the
plain and the tracked completion skip same-label pairs by the
Gebauer-Moeller chain criterion.  The tracked completion keeps
representations over the input generators, which yields syzygies and, from
those, submodule preimages.  `module_spair_remainders` reduces every
same-label S-pair of a list with no criterion at all: it is the Buchberger
check behind `is_module_groebner` and the explicit-family check of
`oracle.verify_groebner_lemma`.
"""

from __future__ import annotations

import heapq

from .polynomials import ExponentOverflow, Polynomial, PolyRing, RingError
from .superalg import LABEL_BITS, LABEL_MASK, ExtElement


class IndexedBasis(list):
    """A growing basis that keeps its by-label reducer index up to date.

    `by_label` maps a label mask to the `(lead key, lead coefficient,
    packed terms, index)` of each nonzero element with that leading label,
    in order of appending.  `module_normal_form` uses the index as it
    stands instead of building one, so a caller that divides many elements
    by one list indexes it once by passing an `IndexedBasis`; only `append`
    may change the list, or the index goes stale.
    """

    __slots__ = ("by_label",)

    def __init__(self, elems=()):
        super().__init__()
        self.by_label: dict = {}
        for g in elems:
            self.append(g)

    def __reduce__(self):
        # rebuilt by `append`, so a copy or an unpickled basis gets an
        # index of its own with one entry per nonzero element
        return type(self), (list(self),)

    def append(self, g):
        if not g.is_zero():
            lk = g.lead_key()
            self.by_label.setdefault(lk & LABEL_MASK, []).append(
                (lk, g._t[lk], g._t, len(self)))
        super().append(g)


def module_normal_form(v: ExtElement, basis, track=False):
    """Remainder of v modulo `basis` under TOP-lex division.

    A `basis` that is not an `IndexedBasis` is indexed anew on each call.
    With track=True also returns the quotient dict {basis_index: Polynomial}
    so that v == sum(q_i * basis_i) + remainder.
    """
    if not isinstance(basis, IndexedBasis):
        basis = IndexedBasis(basis)
    by_label = basis.by_label
    ring = v.ring
    div = ring.field.div
    p = ring.field.char
    guard = ring.guard << LABEL_BITS
    work = dict(v._t)
    rem: dict = {}
    quots: dict = {} if track else None
    while work:
        k = max(work)
        c = work.pop(k)
        for lk, lc, terms, idx in by_label.get(k & LABEL_MASK, ()):
            shift = k - lk  # the packed quotient, when lk divides k
            if shift >= 0 and not shift & guard:
                break
        else:
            rem[k] = c
            continue
        factor = div(c, lc)
        if track:
            # k falls at every step, so no (reducer, shift) comes twice
            quots.setdefault(idx, {})[shift >> LABEL_BITS] = factor
        # work -= factor * shifted reducer; its leading term cancels k
        # and is skipped
        for gk, gc in terms.items():
            if gk == lk:
                continue
            key = gk + shift
            if key & guard:
                raise ExponentOverflow()
            val = work.get(key, 0) - factor * gc
            if p:
                val %= p
            if val:
                work[key] = val
            else:
                work.pop(key, None)
    # over Q a remainder term may be an integral Fraction
    remainder = ExtElement._of_packed(
        ring, rem if p else ring.canonical(rem), v.kind)
    if track:
        return remainder, {i: Polynomial(ring, d) for i, d in quots.items()}
    return remainder


def _spair(f: ExtElement, g: ExtElement):
    """S-pair data for elements whose leading terms share a label."""
    ring = f.ring
    field = ring.field
    kf = f.lead_key()
    kg = g.lead_key()
    mf = kf >> LABEL_BITS
    mg = kg >> LABEL_BITS
    lcm = ring.mono_lcm(mf, mg)
    af = field.inv(f._t[kf])
    ag = field.inv(g._t[kg])
    sf = lcm - mf
    sg = lcm - mg
    guard = ring.guard << LABEL_BITS
    df = sf << LABEL_BITS
    dg = sg << LABEL_BITS
    # summed unreduced; the leading terms cancel in `canonical`
    t = {k + df: af * c for k, c in f._t.items()}
    get = t.get
    for k, c in g._t.items():
        key = k + dg
        t[key] = get(key, 0) - ag * c
    for key in t:
        if key & guard:
            raise ExponentOverflow()
    return (ExtElement._of_packed(ring, ring.canonical(t), f.kind),
            (af, sf), (ag, sg))


def _row_combine(ring, terms):
    """Sparse sum of polynomially scaled rows (row, factor)."""
    out: dict = {}
    zero = ring.zero()
    for row, factor in terms:
        for idx, poly in row.items():
            out[idx] = out.get(idx, zero) + poly * factor
    return {i: p for i, p in out.items() if not p.is_zero()}


def _chain_criterion(G, pending, i, j):
    """Gebauer-Moeller chain criterion for the same-label pair (i, j).

    True when a third reducer k with the same leading label has lm(k)
    dividing lcm(lm(i), lm(j)) and neither (i, k) nor (j, k) is pending:
    S(i, j) is then a combination of S(i, k) and S(j, k), which were
    already treated.
    """
    ring = G[i].ring
    guard = ring.guard << LABEL_BITS
    ki = G[i].lead_key()
    mi = ki >> LABEL_BITS
    lcm = ki + ((ring.mono_lcm(mi, G[j].lead_key() >> LABEL_BITS) - mi)
                << LABEL_BITS)
    for lk, _, _, k in G.by_label[ki & LABEL_MASK]:
        if k == i or k == j:
            continue
        d = lcm - lk
        if d < 0 or d & guard:
            continue
        if ((min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending):
            return True
    return False


def module_buchberger(gens, *, track=False, track_limit=None):
    """Raw completion over the input list.

    Returns (G, reps, syzygies): G contains every nonzero input plus the new
    reducers; reps[i] expresses G[i] over the inputs (restricted to indices
    below track_limit when given); syzygies are rows over the inputs obtained
    from every reduced S-pair that comes to zero.  Pairs that the chain
    criterion shows redundant are skipped with or without tracking: the
    leading syzygies of the remaining pairs still generate those of G, so by
    Schreyer's theorem their lifts generate the full syzygy module of the
    inputs (Moeller-Mora-Traverso 1992).
    """
    if not gens:
        return [], [], []
    ring = gens[0].ring
    field = ring.field
    limit = track_limit if track_limit is not None else len(gens)
    G = IndexedBasis()
    reps = []
    syz = []
    for idx, g in enumerate(gens):
        if g.is_zero():
            if track and idx < limit:
                syz.append({idx: ring.one()})
            continue
        G.append(g)
        if track:
            reps.append({idx: ring.one()} if idx < limit else {})

    heap = []
    pending = set()

    def push_pairs(j):
        kj = G[j].lead_key()
        mj = kj >> LABEL_BITS
        for ki, _, _, i in G.by_label[kj & LABEL_MASK]:
            if i < j:
                lcm = ring.mono_lcm(ki >> LABEL_BITS, mj)
                heapq.heappush(heap, (ring.mono_degree(lcm), i, j))
                pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        if _chain_criterion(G, pending, i, j):
            continue
        s, (ai, si), (aj, sj) = _spair(G[i], G[j])
        if track:
            r, quots = module_normal_form(s, G, track=True)
            mono_i = Polynomial(ring, {si: ai})
            mono_j = ring.poly({sj: -aj})
            parts = [(reps[i], mono_i), (reps[j], mono_j)]
            for k, q in quots.items():
                parts.append((reps[k], -q))
            row = _row_combine(ring, parts)
        else:
            r = module_normal_form(s, G)
            row = None
        if r.is_zero():
            if track:
                syz.append(row)
        else:
            # `scale` returns its element as it is when inv is one
            inv = field.inv(r._t[r.lead_key()])
            r = r.scale(inv)
            if track:
                row = {k: p.scale(inv) for k, p in row.items()}
            G.append(r)
            if track:
                reps.append(row)
            push_pairs(len(G) - 1)
    return G, reps, syz


_lt_key = ExtElement.lead_key  # the TOP order as a sort key


def reduce_module_basis(G):
    """Minimal interreduced monic basis, sorted by ascending leading term.

    An element is minimal when no leading monomial kept before it under the
    same label divides its own: reduction keeps leading terms, so the
    result's `by_label` index answers that.  It is reduced only by the ones
    before it: a leading term dividing one of its terms is no larger than
    that term, which lies below its own leading term.  The result is an
    `IndexedBasis` and may grow only by `append`.
    """
    reduced = IndexedBasis()
    by_label = reduced.by_label
    for g in sorted((g for g in G if not g.is_zero()), key=_lt_key):
        k = g.lead_key()
        guard = g.ring.guard << LABEL_BITS
        if not any(k - lk >= 0 and not (k - lk) & guard
                   for lk, _, _, _ in by_label.get(k & LABEL_MASK, ())):
            reduced.append(module_normal_form(g, reduced).monic())
    return reduced


def module_groebner(gens):
    """Reduced Groebner basis of the submodule generated by `gens`.

    The inputs are interreduced first: in ascending leading term, each is
    replaced by its monic normal form modulo the ones kept so far, or
    dropped when that is zero.  The kept elements span the same submodule,
    and the pair queue sees no input whose leading term another divides.
    """
    kept = IndexedBasis()
    for g in sorted((g for g in gens if not g.is_zero()), key=_lt_key):
        r = module_normal_form(g, kept)
        if not r.is_zero():
            kept.append(r.monic())
    G, _, _ = module_buchberger(kept)
    return reduce_module_basis(G)


def module_spair_remainders(G):
    """(i, j, remainder) for every pair i < j of elements of G whose leading
    terms share a label: the remainder of their S-pair modulo G.

    Pairs come grouped by label, labels in order of first appearance, and
    no pair criterion skips any.  Zero elements take part in no pair.
    """
    reducers = IndexedBasis(G)
    for members in reducers.by_label.values():
        for a, (_, _, _, i) in enumerate(members):
            for _, _, _, j in members[a + 1:]:
                s, _, _ = _spair(reducers[i], reducers[j])
                yield i, j, module_normal_form(s, reducers)


def is_module_groebner(G) -> bool:
    """Buchberger criterion: every applicable S-pair reduces to zero.

    Every pair is reduced, with no pair criterion, so that this stays an
    independent check on the completions.
    """
    return all(rem.is_zero() for _, _, rem in module_spair_remainders(G))


def module_intersect(A, B):
    """Generators of the intersection via the auxiliary greatest variable s."""
    elems = [g for g in list(A) + list(B) if not g.is_zero()]
    if not elems:
        return []
    ring = elems[0].ring
    if "s" in ring.variables:
        raise RingError("ambient ring already uses the auxiliary variable s")
    ext = PolyRing(ring.field, ("s",) + ring.variables)
    s_poly = ext.variable("s")
    one_minus_s = ext.one() - s_poly
    lifted = []
    for a in A:
        if not a.is_zero():
            lifted.append(a.lift(ext).poly_mul(s_poly))
    for b in B:
        if not b.is_zero():
            lifted.append(b.lift(ext).poly_mul(one_minus_s))
    basis = module_groebner(lifted)
    out = [g.restrict(ring) for g in basis if not g.uses_variable("s")]
    return reduce_module_basis(out)


def module_syzygies(gens, *, track_limit=None):
    """Generating rows {index: Polynomial} of the syzygy module of `gens`."""
    _, _, syz = module_buchberger(gens, track=True, track_limit=track_limit)
    return [row for row in syz if row]


def module_preimage(map_columns, ambient_gens):
    """Generators of {f in R^c : sum f_i * column_i lies in <ambient_gens>}.

    Computed from syzygies of (columns ++ ambient generators) projected to the
    column coordinates.  Rows come back as {column index: Polynomial} over
    their nonzero entries, by increasing index, without repeats.
    """
    columns = list(map_columns)
    c = len(columns)
    if c == 0:
        return []
    out = []
    seen = set()
    for row in module_syzygies(columns + list(ambient_gens), track_limit=c):
        vec = {i: row[i] for i in sorted(row)}
        key = tuple((i, p.terms) for i, p in vec.items())
        if key not in seen:
            seen.add(key)
            out.append(vec)
    return out
