import copy
import itertools
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recplane.fields import PrimeField, RationalField
from recplane.groebner import groebner_ideal, normal_form
import recplane.modules as modules
from recplane.modules import (
    is_module_groebner,
    module_buchberger,
    module_groebner,
    module_intersect,
    module_normal_form,
    module_preimage,
    module_spair_remainders,
    module_syzygies,
    reduce_module_basis,
)
from recplane.polynomials import (
    MAX_EXPONENT,
    ExponentOverflow,
    Polynomial,
    PolyRing,
)
from recplane.superalg import ExtElement, subset_key

Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def t_ring(field, m):
    return PolyRing(field, tuple(f"t{i}" for i in range(m, 0, -1)))


def vec(ring, label, text):
    return ExtElement(ring, {label: ring.parse(text)})


def test_normal_form_monomial():
    r = t_ring(Q, 2)
    v = vec(r, (1,), "t1*t2")
    assert module_normal_form(v, [vec(r, (1,), "t1")]).is_zero()


def test_normal_form_label_mismatch_blocks():
    r = t_ring(Q, 2)
    v = vec(r, (2,), "t1")
    assert module_normal_form(v, [vec(r, (1,), "t1")]) == v


def test_groebner_distinct_labels_no_interaction():
    r = t_ring(Q, 2)
    gens = [vec(r, (1,), "t1"), vec(r, (2,), "t2")]
    assert module_groebner(gens) == sorted(
        gens, key=lambda g: (g.lt()[0], g.lt()[2][::-1])
    )


def test_groebner_rank_one_monomials():
    r = t_ring(Q, 2)
    gens = [vec(r, (), "t1"), vec(r, (), "t2")]
    basis = module_groebner(gens)
    assert basis == [vec(r, (), "t1"), vec(r, (), "t2")]
    assert is_module_groebner(basis)


def test_groebner_rank_one_linear_case():
    r = t_ring(Q, 3)
    gens = [vec(r, (), "t1 - t2"), vec(r, (), "t2 - t3")]
    basis = module_groebner(gens)
    assert module_normal_form(vec(r, (), "t1 - t3"), basis).is_zero()


def test_spair_remainders_of_a_list_that_is_not_a_basis():
    """Same-label pairs only, grouped by label in order of first appearance,
    indices into the list as given (the zero element takes no part)."""
    r = t_ring(Q, 2)  # t2 > t1
    G = [vec(r, (), "t1^2 + t2"), vec(r, (1,), "t1"), ExtElement.zero(r),
         vec(r, (), "t1*t2 + 1"), vec(r, (1,), "t2")]
    got = list(module_spair_remainders(G))
    # t1 * (t1^2 + t2) - (t1*t2 + 1) is reduced modulo G already
    assert [(i, j) for i, j, _ in got] == [(0, 3), (1, 4)]
    assert got[0][2] == vec(r, (), "t1^3 - 1")
    assert got[1][2].is_zero()
    assert not is_module_groebner(G)
    basis = module_groebner(G)
    assert all(rem.is_zero() for _, _, rem in module_spair_remainders(basis))
    assert is_module_groebner(basis)


def test_module_tracking_produces_membership_certificates():
    rng = random.Random(11)
    r = t_ring(F2, 3)
    for _ in range(20):
        gens = []
        for _ in range(3):
            d = {}
            for _ in range(rng.randint(1, 3)):
                label = tuple(sorted(rng.sample((1, 2, 3), rng.randint(0, 2))))
                mono = r.mono({f"t{i}": rng.randint(0, 2) for i in (1, 2, 3)})
                poly = d.get(label, r.zero()) + r.poly({mono: 1})
                d[label] = poly
            gens.append(ExtElement(r, d))
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = module_groebner(gens)
        assert is_module_groebner(basis)
        # a random combination must reduce to zero
        combo = ExtElement.zero(r)
        for g in gens:
            factor = r.poly({r.mono({"t1": rng.randint(0, 1)}): 1})
            combo = combo + g.poly_mul(factor)
        assert module_normal_form(combo, basis).is_zero()


MODULE_LABELS = ((), (1,), (2,), (1, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 2),  # label slot
                st.integers(1, 2),  # coefficient
                st.tuples(*[st.integers(0, 2)] * 3),  # exponents
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    ),
    st.permutations(MODULE_LABELS),
)
def test_pruned_completion_matches_unpruned(nlabels, data, labels):
    """Both completions skip chain-criterion pairs, so the reference here
    uses none: `is_module_groebner` reduces every pair, every input reduces
    to zero modulo the result, and the tracked reps certify that each basis
    element lies in the input span."""
    r = t_ring(F3, 3)
    gens = [from_terms(r, labels[:nlabels], terms) for terms in data]
    if all(g.is_zero() for g in gens):
        return
    pruned = module_groebner(gens)
    assert is_module_groebner(pruned)
    for g in gens:
        assert module_normal_form(g, pruned).is_zero()
    G, reps, syz = module_buchberger(gens, track=True)
    for b in pruned:
        rem, quots = module_normal_form(b, G, track=True)
        assert rem.is_zero()
        rows = [(reps[k], q) for k, q in quots.items()]
        assert combine(gens, modules._row_combine(r, rows)) == b
    for row in syz:
        assert combine(gens, row).is_zero()
    assert reduce_module_basis(G) == pruned


def from_terms(ring, labels, terms):
    """Module element from drawn (label slot, coefficient, exponents)."""
    entries = {}
    for slot, c, e in terms:
        label = labels[slot % len(labels)]
        mono = ring.mono({f"t{i + 1}": x for i, x in enumerate(e) if x})
        entries[label] = entries.get(label, ring.zero()) + ring.poly({mono: c})
    return ExtElement(ring, entries)


def combine(gens, row):
    """sum(row[i] * gens[i]) for a row {index: Polynomial}."""
    total = ExtElement.zero(gens[0].ring)
    for idx, poly in row.items():
        total = total + gens[idx].poly_mul(poly)
    return total


def test_tracked_completion_seed16_regression():
    """A hypothesis draw on which the tracked completion once reduced every
    pair and ran for over a minute; with the chain criterion it takes a
    fraction of a second."""
    r = t_ring(F3, 3)
    gens = [
        vec(r, (2,), "2*t3*t2*t1^2 + t3 + 2*t1"),
        ExtElement(r, {(2,): r.parse("t2^2*t1^2 + t2"),
                          (1, 2): r.parse("2*t1")}),
        vec(r, (1, 2), "2*t3*t2^2*t1 + t3*t1^2 + t3"),
        vec(r, (2,), "2*t3^2*t2^2*t1 + t3*t2*t1^2 + 1"),
    ]
    start = time.perf_counter()
    G, _, syz = module_buchberger(gens, track=True)
    # generous: a slow shared host takes well under a second
    assert time.perf_counter() - start < 20
    assert reduce_module_basis(G) == module_groebner(gens)
    assert syz
    for row in syz:
        assert combine(gens, row).is_zero()


def test_chain_criterion_skips_a_pair(monkeypatch):
    """t1*t2, t2*t3, t1*t3: once (1, 2) and (1, 3) are reduced, t1*t2
    divides lcm(t2*t3, t1*t3) and the pair (2, 3) is skipped."""
    r = t_ring(F2, 3)
    gens = [vec(r, (1,), "t1*t2"), vec(r, (1,), "t2*t3"),
            vec(r, (1,), "t1*t3")]
    calls = []
    original = modules.module_normal_form

    def counted(v, basis, track=False):
        calls.append(track)
        return original(v, basis, track=track)

    monkeypatch.setattr(modules, "module_normal_form", counted)
    G, _, _ = module_buchberger(gens)
    assert calls == [False, False]
    assert list(G) == gens
    calls.clear()
    _, _, syz = module_buchberger(gens, track=True)
    assert calls == [True, True]
    assert len(syz) == 2
    monkeypatch.undo()
    for row in syz:
        assert combine(gens, row).is_zero()

    def as_vec(row):
        return ExtElement(r, {(i + 1,): p for i, p in row.items()})

    # the skipped Koszul syzygy t1*e2 - t2*e3 (= t1*e2 + t2*e3 over F_2)
    # lies in the span of the two that remain
    koszul = as_vec({1: r.parse("t1"), 2: r.parse("t2")})
    assert module_normal_form(
        koszul, module_groebner([as_vec(row) for row in syz])).is_zero()


def _reduce_all_pairs(G):
    """The all-pairs rule `reduce_module_basis` replaced, as reference: an
    element is minimal when no minimal element before it, in ascending
    leading term, has the same label and a leading monomial dividing its
    own; each minimal element is then reduced by the ones before it."""
    G = sorted((g for g in G if not g.is_zero()), key=modules._lt_key)
    minimal = []
    for g in G:
        m, _, label = g.lt()
        if not any(h.lt()[2] == label and g.ring.mono_divides(h.lt()[0], m)
                   for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        reduced.append(module_normal_form(g, reduced).monic())
    return reduced


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((F2, F3, Q)),
    st.integers(1, 4),
    st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # label slot
                st.integers(1, 2),  # coefficient
                st.tuples(*[st.integers(0, 2)] * 3),  # exponents
            ),
            max_size=3,
        ),
        max_size=8,
    ),
    st.permutations(MODULE_LABELS),
)
def test_reduce_module_basis_matches_all_pairs_rule(field, nlabels, data,
                                                     labels):
    """The by-label minimality lookup keeps what the all-pairs rule keeps,
    and the returned basis carries an up-to-date index."""
    r = t_ring(field, 3)
    G = [from_terms(r, labels[:nlabels], terms) for terms in data]
    reduced = reduce_module_basis(G)
    assert reduced == _reduce_all_pairs(G)
    assert isinstance(reduced, modules.IndexedBasis)
    assert reduced.by_label == modules.IndexedBasis(reduced).by_label


def test_reduce_module_basis_looks_up_by_label(monkeypatch):
    """All 924 unit vectors of degree 6 in 12 exterior variables are
    minimal; deciding so takes a few leading-term calls per element, not
    one per pair (the all-pairs rule made 430,122)."""
    r = t_ring(F3, 2)
    units = [ExtElement(r, {I: r.one()})
             for I in itertools.combinations(range(1, 13), 6)]
    calls = []
    original = ExtElement.lt

    def counted(self):
        calls.append(None)
        return original(self)

    monkeypatch.setattr(ExtElement, "lt", counted)
    reduced = reduce_module_basis(units[::-1])
    assert len(calls) <= 10 * len(units)
    monkeypatch.undo()
    assert reduced == sorted(units, key=modules._lt_key)


def test_indexed_basis_survives_copy_and_pickle():
    """A copied or unpickled basis has an index of its own, and neither it
    nor the original gains an entry: one per nonzero element."""
    r = t_ring(F3, 2)
    basis = module_groebner([vec(r, (1,), "t1"), vec(r, (2,), "t2")])
    assert isinstance(basis, modules.IndexedBasis)

    def index(b):
        return sorted((label, idx) for label, members in b.by_label.items()
                      for _, _, _, idx in members)

    want = [(0b01, 0), (0b10, 1)]  # label masks of (1,) and (2,)
    for clone in (copy.copy(basis), copy.deepcopy(basis),
                  pickle.loads(pickle.dumps(basis))):
        assert isinstance(clone, modules.IndexedBasis)
        assert clone == basis
        assert clone.by_label is not basis.by_label
        assert index(clone) == index(basis) == want


def test_intersect_coprime_principal():
    r = t_ring(Q, 2)
    out = module_intersect([vec(r, (), "t1")], [vec(r, (), "t2")])
    assert out == [vec(r, (), "t1*t2")]


def test_intersect_idempotent():
    r = t_ring(Q, 2)
    out = module_intersect([vec(r, (), "t1")], [vec(r, (), "t1")])
    assert out == [vec(r, (), "t1")]


def test_intersect_contained_in_both():
    r = t_ring(F2, 3)
    A = [vec(r, (1,), "t1 + t2"), vec(r, (2,), "t3")]
    B = [vec(r, (1,), "t1"), vec(r, (2,), "t2 + t3")]
    inter = module_intersect(A, B)
    ga, gb = module_groebner(A), module_groebner(B)
    for v in inter:
        assert module_normal_form(v, ga).is_zero()
        assert module_normal_form(v, gb).is_zero()


def test_preimage_identity_zero_target():
    r = t_ring(Q, 2)
    cols = [vec(r, (1,), "1"), vec(r, (2,), "1")]
    assert module_preimage(cols, []) == []


def test_preimage_identity_full_target():
    r = t_ring(Q, 2)
    cols = [vec(r, (1,), "1"), vec(r, (2,), "1")]
    full = [vec(r, (1,), "1"), vec(r, (2,), "1")]
    rows = module_preimage(cols, full)
    basis = module_groebner(
        [ExtElement(r, {(i + 1,): p for i, p in row.items()}) for row in rows]
    )
    for i in (1, 2):
        assert module_normal_form(vec(r, (i,), "1"), basis).is_zero()


SMALL_TERMS = st.lists(
    st.tuples(
        st.integers(0, 1),  # label slot
        st.integers(1, 2),  # coefficient
        st.tuples(*[st.integers(0, 2)] * 2),  # exponents
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(SMALL_TERMS, min_size=1, max_size=2),
    st.lists(SMALL_TERMS, min_size=1, max_size=2),
)
def test_preimage_image_matches_intersection(col_data, amb_data):
    """The columns' images of the preimage rows and the direct intersection
    of the column span with the ambient span are the same submodule: one
    route through tracked syzygies, one through an s-elimination."""
    r = t_ring(F3, 2)
    labels = ((1,), (2,))
    columns = [from_terms(r, labels, t) for t in col_data]
    ambient = [from_terms(r, labels, t) for t in amb_data]
    if all(c.is_zero() for c in columns):
        return
    rows = module_preimage(columns, ambient)
    images = [combine(columns, row) for row in rows]
    images = [v for v in images if not v.is_zero()]
    inter = module_intersect(columns, ambient)
    g_images = module_groebner(images)
    g_inter = module_groebner(inter)
    for v in inter:
        assert module_normal_form(v, g_images).is_zero()
    for v in images:
        assert module_normal_form(v, g_inter).is_zero()


def test_koszul_syzygy():
    r = t_ring(Q, 2)
    cols = [vec(r, (), "t1"), vec(r, (), "t2")]
    rows = module_preimage(cols, [])
    assert len(rows) == 1
    f, g = rows[0][0], rows[0][1]
    # (t2, -t1) up to sign
    assert f * r.parse("t1") + g * r.parse("t2") == r.zero()
    assert {str(f.monic()), str(g.monic())} == {"t2", "t1"}


def test_syzygies_annihilate_generators():
    rng = random.Random(5)
    r = t_ring(F2, 3)
    for _ in range(15):
        gens = []
        for _ in range(4):
            d = {}
            label = tuple(sorted(rng.sample((1, 2), rng.randint(0, 2))))
            mono = r.mono({f"t{i}": rng.randint(0, 2) for i in (1, 2, 3)})
            d[label] = r.poly({mono: 1})
            gens.append(ExtElement(r, d))
        for row in module_syzygies(gens):
            assert combine(gens, row).is_zero()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.integers(-2, 2), st.tuples(*[st.integers(0, 2)] * 2)),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_rank_one_module_matches_ideal_engine(data):
    """On rank-1 modules the module completion agrees with the ideal one."""
    r = t_ring(Q, 2)
    polys = []
    for terms in data:
        d = {}
        for c, e in terms:
            m = r.mono({f"t{i + 1}": x for i, x in enumerate(e) if x})
            d[m] = r.field.add(d.get(m, r.field.zero), r.field.from_int(c))
        polys.append(r.poly(d))
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return
    ideal_basis = groebner_ideal(polys)
    module_basis = module_groebner(
        [ExtElement(r, {(): p}) for p in polys]
    )
    assert [m.entry(()) for m in module_basis] == ideal_basis
    probe = polys[0] * polys[-1]
    assert normal_form(probe, ideal_basis).is_zero()
    assert module_normal_form(
        ExtElement(r, {(): probe}), module_basis
    ).is_zero()


def test_relation_polynomial_reduces_in_rank_one_module():
    """The triangle relation reduces to zero against its own module basis."""
    from recplane.arrangement import Arrangement, circuits
    from recplane.oracle import kernel_I
    from recplane.relations import p_of_L, t_ring

    arr = Arrangement(F2, 2, [[1, 0], [0, 1], [1, 1]])
    ring = t_ring(arr)
    gens = [ExtElement(ring, {(): g}) for g in kernel_I(arr)]
    basis = module_groebner(gens)
    rel = circuits(arr)[0]
    v = ExtElement(ring, {(): p_of_L(ring, rel)})
    assert module_normal_form(v, basis).is_zero()


def _reference_normal_form(v, basis, track=False):
    """The division that packed terms replaced, kept as the reference: one
    {monomial: coefficient} dict per label, the leading term found by
    comparing (monomial, subset_key(label)) across the labels, the
    reducers indexed by label tuple in list order."""
    by_label = {}
    for idx, g in enumerate(basis):
        if not g.is_zero():
            m, c, label = g.lt()
            by_label.setdefault(label, []).append((m, c, g.entries, idx))
    field = v.ring.field
    guard = v.ring.guard
    work = {s: dict(p._d) for s, p in v.entries.items()}
    rem = {}
    quots = {} if track else None
    while work:
        best_key = None
        best = None
        for label, d in work.items():
            m = max(d)
            key = (m, subset_key(label))
            if best_key is None or key > best_key:
                best_key = key
                best = (m, label)
        m, label = best
        c = work[label][m]
        for lm, lc, g_entries, idx in by_label.get(label, ()):
            shift = m - lm
            if shift >= 0 and not shift & guard:
                break
        else:
            rem.setdefault(label, {})[m] = c
            del work[label][m]
            if not work[label]:
                del work[label]
            continue
        factor = field.div(c, lc)
        if track:
            qd = quots.setdefault(idx, {})
            s = field.add(qd.get(shift, field.zero), factor)
            if s == field.zero:
                qd.pop(shift, None)
            else:
                qd[shift] = s
        for s, p in g_entries.items():
            d = work.get(s)
            if d is None:
                d = work[s] = {}
            for gm, gc in p._d.items():
                key = gm + shift
                if key & guard:
                    raise ExponentOverflow()
                val = field.sub(d.get(key, field.zero), field.mul(factor, gc))
                if val == field.zero:
                    d.pop(key, None)
                else:
                    d[key] = val
            if not d:
                del work[s]
    ring = v.ring
    remainder = ExtElement(
        ring, {s: Polynomial(ring, d) for s, d in rem.items()}, v.kind)
    if track:
        return remainder, {i: Polynomial(ring, d) for i, d in quots.items()
                           if d}
    return remainder


MIXED_LABELS = tuple(
    label for r in range(4) for label in itertools.combinations((1, 2, 3), r))
term_lists = st.lists(
    st.tuples(
        st.integers(0, len(MIXED_LABELS) - 1),  # label slot
        # coefficient: over Q a plain int or a Fraction, an integral one
        # stored as an int; over F_p a/b reads as a / b
        st.one_of(st.integers(1, 4),
                  st.builds(Fraction, st.integers(-4, 4).filter(bool),
                            st.sampled_from((3, 7)))),
        st.tuples(*[st.integers(0, 2)] * 3),  # exponents
    ),
    max_size=5,
)


def mixed_terms(field, terms):
    """Drawn terms with each Fraction read in `field` over F_p."""
    return [(slot, field.parse(str(c)) if field.char else c, e)
            for slot, c, e in terms]


def assert_canonical(field, coeffs):
    """Over F_p an int in 1..p-1; over Q a nonzero int or Fraction."""
    for c in coeffs:
        if field.char:
            assert type(c) is int and 0 < c < field.char, c
        else:
            assert type(c) in (int, Fraction) and c != 0, c


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((F2, F5, Q)),
    term_lists,
    st.lists(term_lists, max_size=6),
    st.booleans(),
)
def test_normal_form_matches_the_reference_division(field, v_terms,
                                                     basis_terms, indexed):
    """Remainders, and quotients under track=True, equal those of the
    dict-of-dicts division, with an `IndexedBasis` or a plain list."""
    r = t_ring(field, 3)
    v = from_terms(r, MIXED_LABELS, mixed_terms(field, v_terms))
    basis = [from_terms(r, MIXED_LABELS, mixed_terms(field, terms))
             for terms in basis_terms]
    divisor = modules.IndexedBasis(basis) if indexed else basis
    assert module_normal_form(v, divisor) == _reference_normal_form(v, basis)
    got = module_normal_form(v, divisor, track=True)
    assert got == _reference_normal_form(v, basis, track=True)
    rem, quots = got
    assert_canonical(field, rem._t.values())
    for q in quots.values():
        assert_canonical(field, q._d.values())
    if quots:
        rem = rem + combine(basis, quots)
    assert rem == v


def _reference_spair(f, g):
    """`_spair`'s result by one field.add and field.mul per term, on the
    label -> Polynomial view, kept as the reference."""
    ring = f.ring
    field = ring.field
    (mf, cf, _), (mg, cg, _) = f.lt(), g.lt()
    lcm = ring.mono_lcm(mf, mg)
    af, ag = field.inv(cf), field.inv(cg)
    sf, sg = ring.mono_div(lcm, mf), ring.mono_div(lcm, mg)
    out = {}
    for e, a, shift in ((f, af, sf), (g, field.neg(ag), sg)):
        for label, p in e.entries.items():
            d = out.setdefault(label, {})
            for m, c in p._d.items():
                key = m + shift
                s = field.add(d.get(key, field.zero), field.mul(a, c))
                if s == field.zero:
                    d.pop(key, None)
                else:
                    d[key] = s
    spair = ExtElement(ring, {label: Polynomial(ring, d)
                              for label, d in out.items() if d})
    return spair, (af, sf), (ag, sg)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((F2, F5, Q)), st.lists(term_lists, max_size=5))
def test_spair_matches_the_field_call_reference(field, elem_terms):
    """The S-pair of every two elements with one leading label, and its
    two scalings, equal those of per-term field calls; its coefficients
    are canonical."""
    r = t_ring(field, 3)
    elems = [e for e in (from_terms(r, MIXED_LABELS, mixed_terms(field, t))
                         for t in elem_terms) if not e.is_zero()]
    for f, g in itertools.combinations(elems, 2):
        if f.lt()[2] != g.lt()[2]:
            continue
        got = modules._spair(f, g)
        assert got == _reference_spair(f, g)
        assert_canonical(field, got[0]._t.values())


def test_module_arithmetic_raises_exponent_overflow():
    """A division step and an S-pair whose multiples push t1 past
    MAX_EXPONENT raise ExponentOverflow instead of wrapping into t2."""
    r = t_ring(F5, 2)  # t2 > t1
    g = vec(r, (1,), "t2 + t1")
    big = ExtElement(r, {(1,): r.term(1, {"t2": 1, "t1": MAX_EXPONENT})})
    with pytest.raises(ExponentOverflow):
        module_normal_form(big, [g])
    with pytest.raises(ExponentOverflow):
        module_normal_form(big, modules.IndexedBasis([g]), track=True)
    # lcm(t2, t2*t1^MAX) / t2 = t1^MAX multiplies g's tail t1
    with pytest.raises(ExponentOverflow):
        list(module_spair_remainders([g, big]))
    with pytest.raises(ExponentOverflow):
        module_buchberger([g, big])
    # at MAX_EXPONENT itself the step is fine
    edge = ExtElement(r, {(1,): r.term(1, {"t2": 1, "t1": MAX_EXPONENT - 1})})
    assert module_normal_form(edge, [g]) == ExtElement(
        r, {(1,): r.term(-1, {"t1": MAX_EXPONENT})})
