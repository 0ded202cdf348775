import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recplane.arrangement import Arrangement, circuits, closure, flats
from recplane.caps import Caps, CapExceeded
from recplane.fields import PrimeField, RationalField
from recplane.oracle import _evaluate_at, _rank_images, _unpacked, _vanishing_count
from recplane.polynomials import PolyRing
from recplane.groebner import ideal_equal, is_groebner
from recplane.modules import is_module_groebner, module_groebner, module_normal_form
from recplane.oracle import (
    chart_kernel,
    count_points,
    eval_chart,
    eval_h,
    eval_psi,
    hilbert,
    kernel_I,
    kernel_K_degree,
    verify_charts,
    verify_groebner_lemma,
    verify_lemma7,
    verify_minimal,
    verify_theorem1,
    verify_theorem2,
)
from recplane.relations import (
    commutative_generators,
    super_generators,
    t_ring,
)
from recplane.superalg import ExtElement, ext_mul_monomial, parse_ext

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
Q = RationalField()


# -- evaluation maps ---------------------------------------------------------


def test_eval_h_single_variable(four_cycle):
    # t1 -> 1/z1: only z1 is inverted
    img = eval_h(four_cycle, t_ring(four_cycle).variable("t1"))
    assert img.den == (1, 0, 0, 0)
    assert img.numerator.entry(()) == img.numerator.ring.one()


def test_eval_h_constant_one(four_cycle):
    img = eval_h(four_cycle, t_ring(four_cycle).one())
    assert img.den == (0, 0, 0, 0)
    assert img.numerator.entry(()) == img.numerator.ring.one()


def test_eval_h_kills_relation_polynomials(four_cycle, triangle_q, triangle_f2):
    for arr in (four_cycle, triangle_q, triangle_f2):
        for g in commutative_generators(arr).generators:
            assert eval_h(arr, g.element).is_zero()


def test_eval_psi_on_u_generator(triangle_f2):
    # z1 = x1: psi(u1) = dx1 / z1
    img = eval_psi(triangle_f2, ExtElement.generator(t_ring(triangle_f2), 1))
    assert img.den == (1, 0, 0)
    assert img.numerator.entry((1,)) == img.numerator.ring.one()
    assert img.numerator.labels() == [(1,)]


def test_eval_psi_exterior_square(triangle_f2):
    from recplane.superalg import ext_mul

    ring = t_ring(triangle_f2)
    u1 = ExtElement.generator(ring, 1)
    square = ext_mul(u1, u1)
    assert square.is_zero()
    assert eval_psi(triangle_f2, square).is_zero()


def test_eval_psi_kills_super_relations(triangle_q, four_cycle):
    for arr in (triangle_q, four_cycle):
        for g in super_generators(arr).generators:
            if not g.element.is_zero():
                assert eval_psi(arr, g.element).is_zero()


def test_evaluation_maps_agree_on_the_empty_flat(four_cycle, triangle_q):
    """eval_h is eval_psi in Grassmann degree 0, and eval_chart on the empty
    flat is eval_psi on every presentation generator."""
    from recplane.relations import chart_ring

    for arr in (four_cycle, triangle_q):
        ring = t_ring(arr)
        polys = [ring.parse("t1*t2^2 + 3*t3"), ring.one(), ring.zero()]
        polys += [g.element for g in commutative_generators(arr).generators]
        for f in polys:
            assert eval_h(arr, f) == eval_psi(arr, ExtElement.from_poly(f))
        empty = closure(arr, ())
        chart = chart_ring(arr, empty, super=True)
        pairs = zip(super_generators(arr).generators, chart.generators,
                    strict=True)
        for g, c in pairs:
            assert eval_chart(arr, empty, c.element) == eval_psi(arr, g.element)
        assert not eval_psi(arr, ExtElement.generator(ring, 1)).is_zero()


def _reference_mul(field, a, b):
    """{mono: coeff} product of two {mono: coeff} dicts, one field call per
    scalar operation."""
    acc = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            got = field.add(acc.get(ma + mb, field.zero), field.mul(ca, cb))
            if got == field.zero:
                acc.pop(ma + mb, None)
            else:
                acc[ma + mb] = got
    return acc


def _reference_power_product(arr, exps):
    """z_1^exps[0] * ... * z_m^exps[m-1] as a {mono: coeff} dict."""
    from recplane.oracle import z_polynomials

    out = {0: arr.field.one}
    for z, e in zip(z_polynomials(arr), exps):
        for _ in range(e):
            out = _reference_mul(arr.field, out, z._d)
    return out


def _reference_substitute(arr, flat, ring, terms, min_den=0):
    """The substitution over one uniform denominator that the per-form
    exponents replaced, kept as a reference: every term is put over the
    power N of the product of all off-flat forms, N the largest exponent
    any term needs of any form and at least `min_den`.  Returns
    ({dx label: {mono: coeff}}, N), every sum built by field calls."""
    from recplane.oracle import wedge_expand
    from recplane.polynomials import MAX_EXPONENT

    field = arr.field
    off = [(i - 1, ring.shift_of(f"t{i}"))
           for i in range(1, arr.m + 1) if i not in flat]
    on = [(j - 1, ring.shift_of(f"z{j}")) for j in sorted(flat)]
    pieces = []
    n_common = min_den
    for s, mono, c in terms:
        need = [((mono >> sh) & MAX_EXPONENT) + (k + 1 in s)
                for k, sh in off]
        if need:
            n_common = max(n_common, max(need))
        pieces.append((s, c, need, mono))
    out = {}
    for s, c, need, mono in pieces:
        vec = [0] * arr.m
        for (k, _), e in zip(off, need):
            vec[k] = n_common - e
        for k, sh in on:
            vec[k] = (mono >> sh) & MAX_EXPONENT
        prod = _reference_power_product(arr, vec)
        expansion = wedge_expand(field, [arr.form(i) for i in s],
                                 tuple(range(1, arr.n + 1)))
        for subset, coeff in expansion.items():
            acc = out.setdefault(subset, {})
            scale = field.mul(c, coeff)
            for m, x in prod.items():
                got = field.add(acc.get(m, field.zero), field.mul(scale, x))
                if got == field.zero:
                    acc.pop(m, None)
                else:
                    acc[m] = got
    return {s: acc for s, acc in out.items() if acc}, n_common


def _four_cycle_f2():
    return Arrangement(F2, 4, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1],
                               [1, 0, 0, 1]])


@st.composite
def substitution_cases(draw):
    """(arrangement, map, flat, element, min_den): a random element of 1-3
    labels for eval_h, eval_psi or eval_chart on a random flat."""
    from recplane.relations import _chart_poly_ring

    arr = draw(st.sampled_from((
        _four_cycle_f2(), Arrangement(Q, 2, [[1, 0], [0, 1], [-1, -1]]),
        _braid_a3(F2), _braid_a3(F5), _braid_a3(Q))))
    field = arr.field
    kind = draw(st.sampled_from(("h", "psi", "chart")))
    flat = (draw(st.sampled_from(flats(arr))).indices if kind == "chart"
            else ())
    if kind == "chart":
        ring = _chart_poly_ring(field, tuple(i for i in range(1, arr.m + 1)
                                             if i not in flat), flat)
    else:
        ring = t_ring(arr)
    coeff = st.integers(-3, 3).map(field.from_int).filter(
        lambda c: c != field.zero)
    mono = st.dictionaries(st.sampled_from(ring.variables), st.integers(0, 2),
                           max_size=2).map(ring.mono)

    def polynomial():
        return ring.poly(draw(st.dictionaries(mono, coeff, min_size=1,
                                              max_size=3)))

    if kind == "h":
        element = polynomial()
    else:
        label = st.lists(st.integers(1, arr.m), max_size=3, unique=True).map(
            lambda xs: tuple(sorted(xs)))
        labels = draw(st.lists(label, min_size=1, max_size=3, unique=True))
        element = ExtElement(ring, {lab: polynomial() for lab in labels},
                             frozenset(flat) if kind == "chart" else "u")
    return arr, kind, flat, element, draw(st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(substitution_cases())
def test_per_form_denominators_match_the_uniform_reference(case):
    """Each off-flat form's exponent N_k is the most any term needs of it,
    and at least min_den; times prod z_k^(N - N_k), N = max N_k, the
    numerator is the one over the uniform denominator z^N."""
    from recplane.oracle import _SharedSubstitution, _poly_terms, _substitute
    from recplane.polynomials import MAX_EXPONENT

    arr, kind, flat, element, min_den = case
    if kind == "h":
        public = eval_h(arr, element)
        terms = list(_poly_terms(element))
    else:
        public = (eval_psi(arr, element) if kind == "psi"
                  else eval_chart(arr, closure(arr, flat), element))
        terms = list(element.label_terms())
    direct = _substitute(_SharedSubstitution(arr), flat, element.ring, terms,
                         min_den)
    for got, floor in ((public, 0), (direct, min_den)):
        ref, n_ref = _reference_substitute(arr, flat, element.ring, terms,
                                           floor)
        off = [k for k in range(1, arr.m + 1) if k not in flat]
        assert len(got.den) == arr.m
        assert all(got.den[j - 1] == 0 for j in flat)
        for k in off:
            shift = element.ring.shift_of(f"t{k}")
            needs = [((mono >> shift) & MAX_EXPONENT) + (k in s)
                     for s, mono, _ in terms]
            assert got.den[k - 1] == max([floor] + needs)
        if off:
            assert max(got.den) == n_ref
        missing = _reference_power_product(
            arr, [n_ref - got.den[k - 1] if k in off else 0
                  for k in range(1, arr.m + 1)])
        lifted = {s: _reference_mul(arr.field, poly._d, missing)
                  for s, poly in got.numerator.entries.items()}
        assert lifted == ref
        # every coefficient is reduced: from_int leaves a residue unchanged
        assert all(arr.field.from_int(c) == c
                   for c in got.numerator._t.values())


# -- kernels -------------------------------------------------------------------


def test_kernel_I_is_the_chart_kernel_of_the_empty_flat(four_cycle, triangle_q,
                                                        triangle_f2):
    for arr in (four_cycle, triangle_q, triangle_f2):
        assert kernel_I(arr) == chart_kernel(arr, closure(arr, ()))


def test_kernel_I_boolean_is_zero(boolean3_f2, boolean2):
    assert kernel_I(boolean3_f2) == []
    assert kernel_I(boolean2) == []


def test_kernel_I_four_cycle(four_cycle):
    ker = kernel_I(four_cycle)
    ring = t_ring(four_cycle)
    expected = ring.parse("t2*t3*t4 + t1*t3*t4 + t1*t2*t4 + t1*t2*t3")
    assert ideal_equal(ker, [expected])


def test_kernel_I_triangle(triangle_f2):
    ker = kernel_I(triangle_f2)
    ring = t_ring(triangle_f2)
    assert ideal_equal(ker, [ring.parse("t1*t2 + t1*t3 + t2*t3")])


def test_kernel_K_degree_zero_matches_kernel_I(four_cycle, triangle_q, triangle_f2):
    for arr in (four_cycle, triangle_q, triangle_f2):
        k0 = kernel_K_degree(arr, 0)
        polys = [e.entry(()) for e in k0]
        assert ideal_equal(polys, kernel_I(arr))


def test_kernel_K_boolean_zero(boolean3_f2):
    for r in range(4):
        assert kernel_K_degree(boolean3_f2, r) == []


def test_kernel_K_beyond_the_rank_matches_the_preimage(four_cycle, triangle_q,
                                                       triangle_f2):
    """Beyond the rank kernel_K_degree returns every u_I of the degree; the
    preimage it takes up to the rank gives the same reduced basis there."""
    from recplane.modules import module_preimage
    from recplane.oracle import degree_module_columns, degree_module_relations

    for arr in (four_cycle, triangle_q, triangle_f2):
        ring = t_ring(arr)
        assert arr.rank < arr.m
        for r in range(arr.rank + 1, arr.m + 1):
            subsets, columns = degree_module_columns(arr, r)
            rows = module_preimage(columns, degree_module_relations(arr, r))
            preimage = module_groebner(
                [ExtElement(ring, {subsets[i]: p for i, p in row.items()})
                 for row in rows])
            assert kernel_K_degree(arr, r) == preimage


def test_kernel_K_triangle_degree_two_contains_cyclic_relation(triangle_q):
    ring = t_ring(triangle_q)
    gens = kernel_K_degree(triangle_q, 2)
    basis = module_groebner(gens)
    target = parse_ext(ring, "u1*u2 + u2*u3 + u3*u1")
    assert module_normal_form(target, basis).is_zero()


# -- instance-level theorem checks ----------------------------------------------


def test_theorem1_reports(four_cycle, triangle_f2, boolean3_f2):
    for arr in (four_cycle, triangle_f2, boolean3_f2):
        rep = verify_theorem1(arr)
        assert rep.ok, rep.to_json()


def test_theorem2_triangle_rational(triangle_q):
    rep = verify_theorem2(triangle_q)
    assert rep.ok
    assert [d["r"] for d in rep.details["degrees"]] == [0, 1, 2, 3]


def test_theorem2_four_cycle(four_cycle):
    rep = verify_theorem2(four_cycle)
    assert rep.ok
    assert len(rep.details["degrees"]) == 5


def test_theorem2_boolean_trivial(boolean3_f2):
    assert verify_theorem2(boolean3_f2).ok


def test_minimal_vacuous_on_single_relation(four_cycle):
    assert verify_minimal(four_cycle).ok


def test_minimal_collinear_triples():
    coll = Arrangement(F2, 1, [[1], [1], [1]])
    assert [c.support for c in circuits(coll)] == [(1, 2), (1, 3), (2, 3)]
    assert verify_minimal(coll).ok


def test_minimal_two_independent_circuits():
    arr = Arrangement(F2, 3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1]])
    assert arr.m - arr.rank == 2
    assert verify_minimal(arr).ok


TWO_CIRCUITS = Arrangement(
    F2, 3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1]]
)


def _u_multiples(m, gens, r):
    """Every nonzero u_B * g with |B| = r - deg g: the degree-r span as
    verify_lemma7 built it before the bases were chained."""
    out = []
    for g in gens:
        k = g.grassmann_degrees()[0]
        if k > r:
            continue
        for B in itertools.combinations(range(1, m + 1), r - k):
            prod = ext_mul_monomial(B, g)
            if not prod.is_zero():
                out.append(prod)
    return out


def _span_generators(pres, r):
    """The u_B multiples of degree r of a presentation's generators, each
    once up to a scalar, in generator order."""
    gens = [g.element for g in pres.generators if not g.element.is_zero()]
    out = []
    seen = set()
    for prod in _u_multiples(pres.arrangement.m, gens, r):
        key = prod.monic().sort_key()
        if key not in seen:
            seen.add(key)
            out.append(prod)
    return out


def _modules_equal(A, B):
    """Mutual containment of two spans by reduction: (equal, witness)."""
    ga = module_groebner(A)
    gb = module_groebner(B)
    for b in B:
        if not module_normal_form(b, ga).is_zero():
            return False, f"not in first span: {b}"
    for a in A:
        if not module_normal_form(a, gb).is_zero():
            return False, f"not in second span: {a}"
    return True, None


def _sweep_report(arr, sup_c):
    """verify_minimal by its definition, with no chain: in every degree,
    the first u_B multiple of the all family that does not reduce to zero
    modulo the reduced basis of the circuit family's u_B multiples."""
    import recplane.oracle as oracle

    ok_i, witnesses = oracle._minimal_ideal(arr, None)
    sup_a = super_generators(arr, "all")
    degrees = []
    ok = ok_i
    for r in range(arr.m + 1):
        gb = module_groebner(_span_generators(sup_c, r))
        status = "pass"
        for cand in _span_generators(sup_a, r):
            if not module_normal_form(cand, gb).is_zero():
                status = "fail"
                ok = False
                witnesses.append({"r": r, "witness": str(cand)})
                break
        degrees.append({"r": r, "status": status})
    return {"check": "minimal", "instance": oracle.instance_label(arr),
            "status": "pass" if ok else "fail", "witnesses": witnesses,
            "details": {"ideal_equal": ok_i, "degrees": degrees}}


def _patch_circuits(monkeypatch, change):
    """Make oracle.super_generators pass the circuit presentation's
    generators through `change`; returns the patched function."""
    import recplane.oracle as oracle

    real = oracle.super_generators

    def patched(arr, mode="circuits", caps=None):
        pres = real(arr, mode, caps)
        if mode != "circuits":
            return pres
        return dataclasses.replace(pres, generators=change(pres.generators))

    monkeypatch.setattr(oracle, "super_generators", patched)
    return patched


@pytest.mark.parametrize("arr", [
    Arrangement(F2, 1, [[1], [1], [1]]),
    TWO_CIRCUITS,
    Arrangement(F2, 1, [[1]] * 5),  # p2_n1_m5_0-0-0-0-0 of the corpus
], ids=["collinear-triples", "two-circuits", "p2_n1_m5_0-0-0-0-0"])
def test_minimal_per_generator_matches_sweep(arr):
    rep = verify_minimal(arr)
    assert rep.ok
    assert rep.to_json() == _sweep_report(arr, super_generators(arr))


def test_minimal_falls_back_to_sweep_on_failure(monkeypatch):
    """With one circuit's odd generators gone, degree 0 fails, and every
    later degree reduces all its u_B multiples as the sweep does."""
    without_circuit = _patch_circuits(monkeypatch, lambda gens: tuple(
        g for g in gens if g.relation.support != (1, 2, 3)))
    arr = TWO_CIRCUITS
    rep = verify_minimal(arr)
    assert rep.status == "fail"
    assert rep.details["ideal_equal"]
    assert {"r": 0, "status": "fail"} in rep.details["degrees"]
    assert rep.to_json() == _sweep_report(arr, without_circuit(arr))


@st.composite
def small_arrangements(draw):
    field = draw(st.sampled_from((F2, F3, F5, Q)))
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2).map(field.from_int)
    form = st.lists(entry, min_size=n, max_size=n).filter(
        lambda row: any(x != field.zero for x in row))
    return Arrangement(field, n, draw(st.lists(form, min_size=1, max_size=5)))


@settings(max_examples=25, deadline=None)
@given(small_arrangements())
def test_chained_bases_match_the_u_multiples(arr):
    """G_r built from G_{r-1} is the reduced basis of every u_B multiple of
    the generators, for a presentation (the chain it carries) and for each
    circuit's P_{L,T}."""
    from recplane.oracle import _grassmann_chain, _presentation_bases
    from recplane.relations import p_of_LS, subsets_of

    pres = super_generators(arr)
    gens = [g.element for g in pres.generators if not g.element.is_zero()]
    bases = _presentation_bases(pres, arr.m)
    assert bases is pres.bases
    assert len(bases) == arr.m + 1
    for r, gb in enumerate(bases):
        assert gb == module_groebner(_u_multiples(arr.m, gens, r))
    ring = t_ring(arr)
    for rel in circuits(arr):
        gens = [p_of_LS(ring, rel, T) for T in subsets_of(rel.support)]
        gens = [p for p in gens if not p.is_zero()]
        top = len(rel.support) + 1
        for r, gb in enumerate(_grassmann_chain(gens, arr.m, top)):
            assert gb == module_groebner(_u_multiples(arr.m, gens, r))


def test_minimal_reuses_the_chain_theorem2_built(monkeypatch):
    """The chain is built only as far as asked, and carried by the circuit
    presentation, so minimal on an equal arrangement builds nothing."""
    import recplane.context as context
    import recplane.oracle as oracle
    from recplane.context import instance_context

    monkeypatch.setattr(context, "_current", None)
    arr = Arrangement(F2, 3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1],
                              [0, 1, 1]])
    assert verify_theorem2(arr, rmax=1).ok
    assert list(instance_context(arr).presentations) == [
        (True, "circuits", None)]
    chain = super_generators(arr).bases
    assert len(chain) == 2
    assert verify_theorem2(arr).ok
    assert len(chain) == arr.m + 1

    def refuse(*args, **kwargs):
        raise AssertionError("the circuit span was built again")

    monkeypatch.setattr(oracle, "module_groebner", refuse)
    twin = Arrangement(F2, 3, [list(arr.form(i)) for i in range(1, 6)])
    assert twin is not arr and twin == arr
    assert verify_minimal(twin).ok
    assert super_generators(twin).bases is chain


def test_lemma7_reads_the_generators_theorem2_checked(monkeypatch):
    """lemma7 groups the P_{L,S} of the memoized circuit presentation by
    circuit, so after theorem2 it builds none of them."""
    import recplane.context as context
    import recplane.relations as relations

    monkeypatch.setattr(context, "_current", None)
    arr = TWO_CIRCUITS
    assert verify_theorem2(arr).ok

    def refuse(*args, **kwargs):
        raise AssertionError("lemma7 built a P_{L,S}")

    monkeypatch.setattr(relations, "p_of_LS", refuse)
    rep = verify_lemma7(arr)
    assert rep.ok, rep.witnesses
    assert rep.details["pairs"] == sum(2 ** len(c.support)
                                       for c in circuits(arr))


def _drop_P_L(gens):
    """P_{L,()} of every circuit dropped with its record."""
    return tuple(g for g in gens if g.subset != ())


def _without_P_L(monkeypatch):
    """Drop P_{L,()} of every circuit."""
    return _patch_circuits(monkeypatch, _drop_P_L)


def _extra_t2_u1(gens):
    """t2*u1, which psi does not kill, under the subset (1,) of the first
    circuit's generators."""
    ring = gens[0].element.ring
    extra = ExtElement.generator(ring, 1).poly_mul(ring.variable("t2"))
    return gens + (dataclasses.replace(gens[0], element=extra, subset=(1,)),)


def _theorem2_reference(arr, pres):
    """The witnesses of verify_theorem2 by mutual containment of the u_B
    multiples and the kernel, degree by degree."""
    expected = []
    for r in range(arr.m + 1):
        rhs = kernel_K_degree(arr, r)
        if r > arr.rank:
            ring = t_ring(arr)
            rhs = [ExtElement(ring, {I: ring.one()})
                   for I in itertools.combinations(range(1, arr.m + 1), r)]
        equal, witness = _modules_equal(_span_generators(pres, r), rhs)
        if not equal:
            expected.append({"r": r, "witness": witness})
    return expected


def test_theorem2_failure_names_the_u_multiple_witness(monkeypatch,
                                                       four_cycle):
    # the chain of the full presentation is kept, and must not be read
    # for the presentation that lacks P_L
    assert verify_theorem2(four_cycle).ok
    dropped = _without_P_L(monkeypatch)
    rep = verify_theorem2(four_cycle)
    assert rep.status == "fail"
    expected = _theorem2_reference(four_cycle, dropped(four_cycle))
    assert [w["r"] for w in expected] == [0, 1]
    assert rep.witnesses == expected


def test_theorem2_names_a_generator_outside_the_kernel(monkeypatch,
                                                      four_cycle):
    """An extra generator t2*u1, which psi does not kill, makes the span
    too large: the witness is a u_B multiple outside the kernel."""
    patched = _patch_circuits(monkeypatch, _extra_t2_u1)
    extra = patched(four_cycle).generators[-1].element
    rep = verify_theorem2(four_cycle)
    assert rep.status == "fail"
    assert rep.witnesses[0] == {"r": 1,
                                "witness": f"not in second span: {extra}"}
    assert rep.witnesses == _theorem2_reference(four_cycle,
                                                patched(four_cycle))


def test_minimal_failure_names_the_old_sweep_witness(monkeypatch, four_cycle):
    """Without P_L degree 0 fails, and each later degree names the first
    failing u_B multiple, as reducing by the u_B multiples did."""
    dropped = _without_P_L(monkeypatch)
    rep = verify_minimal(four_cycle)
    assert rep.status == "fail"
    assert [w["r"] for w in rep.witnesses] == [0, 1]
    assert rep.to_json() == _sweep_report(four_cycle, dropped(four_cycle))


def test_minimal_failure_first_seen_in_degree_one(monkeypatch, four_cycle):
    """Without the P_{L,S} with |S| = 1, degree 0 passes and degree 1 is
    the first to fail; its witness is a degree-1 generator."""
    dropped = _patch_circuits(
        monkeypatch, lambda gens: tuple(g for g in gens if len(g.subset) != 1))
    rep = verify_minimal(four_cycle)
    assert rep.status == "fail"
    assert rep.details["degrees"][:2] == [{"r": 0, "status": "pass"},
                                          {"r": 1, "status": "fail"}]
    assert rep.witnesses[0]["r"] == 1
    assert rep.to_json() == _sweep_report(four_cycle, dropped(four_cycle))


def test_theorem2_settles_every_degree_by_equal_bases(monkeypatch, triangle_q,
                                                      triangle_f2):
    """Both sides of each degree are u elements, so every degree is settled
    by comparing the reduced bases, and no generator is reduced."""
    import recplane.oracle as oracle

    def refuse(*args, **kwargs):
        raise AssertionError("theorem2 reduced a generator")

    monkeypatch.setattr(oracle, "module_normal_form", refuse)
    for arr in (triangle_q, triangle_f2):
        rep = verify_theorem2(arr)
        assert rep.ok
        assert rep.details["degrees"] == [
            {"r": r, "status": "pass"} for r in range(arr.m + 1)]


# -- the instance context --------------------------------------------------------


def test_instance_context_eliminates_once(monkeypatch, four_cycle):
    """theorem2, the point count and lemma7 share one elimination kernel;
    theorem1 still runs its own."""
    import recplane.context as context
    import recplane.oracle as oracle

    calls = []
    real = oracle.eliminate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(context, "_current", None)
    monkeypatch.setattr(oracle, "eliminate", counted)
    assert verify_theorem2(four_cycle).ok
    assert count_points(four_cycle).ok
    assert verify_lemma7(four_cycle).ok
    assert len(calls) == 1
    assert verify_theorem1(four_cycle).ok
    assert len(calls) == 2


def test_instance_context_keeps_caps():
    """A memoized presentation does not let a capped call skip its cap."""
    assert verify_minimal(Arrangement(F2, 1, [[1]] * 4)).ok
    with pytest.raises(CapExceeded):
        verify_minimal(Arrangement(F2, 1, [[1]] * 4), Caps(relations=1))


def test_instance_context_holds_one_arrangement():
    import gc
    import weakref

    first = Arrangement(F2, 2, [[1, 0], [0, 1], [1, 1]])
    assert verify_theorem2(first).ok
    ref = weakref.ref(first)
    del first
    assert verify_theorem2(Arrangement(F3, 2, [[1, 0], [0, 1], [1, 1]])).ok
    gc.collect()
    assert ref() is None


def test_lemma7_reports(four_cycle, triangle_q):
    for arr in (four_cycle, triangle_q):
        rep = verify_lemma7(arr)
        assert rep.ok, rep.witnesses


def test_groebner_lemma_examples(four_cycle, triangle_f2, boolean3_f2):
    for arr, r in ((triangle_f2, 1), (four_cycle, 1), (four_cycle, 2)):
        rep = verify_groebner_lemma(arr, r)
        assert rep.ok, rep.witnesses
        assert rep.details["pairs"] > 0
    rep = verify_groebner_lemma(boolean3_f2, 1)
    assert rep.ok  # no relations: the first family alone passes


def test_groebner_lemma_cap():
    fano = Arrangement(
        F2, 3, [v for v in itertools.product([0, 1], repeat=3) if any(v)]
    )
    with pytest.raises(CapExceeded):
        verify_groebner_lemma(fano, 2, Caps(family=100))


# -- point counts ---------------------------------------------------------------


def test_count_points_triangle(triangle_f2):
    rep = count_points(triangle_f2)
    assert rep.ok
    assert rep.details["lhs"] == 4
    table = {tuple(row["flat"]): row["count"] for row in rep.details["per_flat"]}
    assert table[()] == 1
    assert table[(1,)] == table[(2,)] == table[(3,)] == 1
    assert table[(1, 2, 3)] == 0


def test_count_points_boolean_line():
    arr = Arrangement(F2, 1, [[1]])
    rep = count_points(arr)
    assert rep.ok
    assert rep.details["lhs"] == 2
    assert rep.details["rhs"] == 2


def test_count_points_four_cycle(four_cycle):
    rep = count_points(four_cycle)
    assert rep.ok
    assert rep.details["lhs"] == rep.details["rhs"]


def test_count_points_cap(four_cycle):
    with pytest.raises(CapExceeded):
        count_points(four_cycle, Caps(points=8))


def _brute_force_count(field, m, gens):
    """Every point of F_p^m, every generator at every point."""
    return sum(
        all(_evaluate_at(field, _unpacked(g), point) == field.zero
            for g in gens)
        for point in itertools.product(range(field.char), repeat=m)
    )


@st.composite
def small_fp_arrangements(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 3))
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).filter(any)
    return Arrangement(PrimeField(p), n, draw(st.lists(vec, max_size=4)))


@settings(max_examples=40, deadline=None)
@given(small_fp_arrangements())
def test_count_points_matches_brute_force(arr):
    rep = count_points(arr)
    assert rep.details["lhs"] == _brute_force_count(arr.field, arr.m,
                                                     kernel_I(arr))
    assert rep.ok


def test_evaluate_at():
    r = PolyRing(F2, ("t3", "t2", "t1"))
    terms = _unpacked(r.parse("t1*t2 + t3"))
    assert _evaluate_at(F2, terms, [1, 1, 1]) == 0  # point[k] is rank k + 1
    assert _evaluate_at(F2, terms, [1, 0, 1]) == 1


def test_vanishing_count_constants_and_no_coordinates():
    ring = t_ring(Arrangement(F3, 1, [[1], [2]]))
    assert _vanishing_count(F3, 2, []) == 9
    assert _vanishing_count(F3, 2, [ring.zero()]) == 9
    assert _vanishing_count(F3, 2, [ring.parse("t1 - t2"), ring.one()]) == 0
    assert _vanishing_count(F3, 2, [ring.parse("t1*t2 - 1")]) == 2
    assert _vanishing_count(F3, 0, []) == 1
    assert _vanishing_count(F3, 0, [ring.one()]) == 0
    assert count_points(Arrangement(F3, 2, [])).details["lhs"] == 1


# -- Hilbert tables ---------------------------------------------------------------


def test_hilbert_boolean_binomials(boolean2):
    tables = hilbert(boolean2, super=False, max_degree=10)
    assert tables["standard"] == tables["rank"]
    for d in range(6):
        assert tables["standard"][2 * d] == d + 1
    assert all(tables["standard"][deg] == 0 for deg in range(11) if deg % 2)


def test_hilbert_triangle_degree_four(triangle_f2):
    tables = hilbert(triangle_f2, super=False, max_degree=4)
    assert tables["standard"][4] == 5  # six monomials minus one relation
    assert tables["standard"] == tables["rank"]


def test_hilbert_degree_zero_is_one(four_cycle, triangle_q):
    for arr in (four_cycle, triangle_q):
        for flag in (False, True):
            tables = hilbert(arr, super=flag, max_degree=2)
            assert tables["standard"][0] == 1
            assert tables["rank"][0] == 1


def test_hilbert_super_agreement(triangle_q, triangle_f2):
    for arr in (triangle_q, triangle_f2):
        tables = hilbert(arr, super=True, max_degree=8)
        assert tables["standard"] == tables["rank"]


def _counted(monkeypatch, name, replacement=None):
    """Route calls of `oracle.<name>` through `replacement` (the original
    when None) and return the list of their argument tuples."""
    from recplane import oracle

    calls = []
    target = replacement or getattr(oracle, name)

    def wrapped(*args):
        calls.append(args)
        return target(*args)

    monkeypatch.setattr(oracle, name, wrapped)
    return calls


@pytest.mark.parametrize("seed", [18, 19])
def test_hilbert_rank_bounds_match_the_exact_rank(monkeypatch, seed):
    """Over Q the commutative rank column comes from the bounds, and each
    entry equals the exact rank of the images."""
    from recplane.corpus import random_rational_arrangements
    from recplane.oracle import _rank_dimension

    for _, arr in random_rational_arrangements(8, seed, max_n=3, max_m=5):
        exact = _counted(monkeypatch, "_rank_dimension")
        tables = hilbert(arr, super=False, max_degree=6)
        assert [args[2] for args in exact] == [1, 3, 5]
        monkeypatch.undo()
        for deg, dim in tables["rank"].items():
            assert dim == _rank_dimension(arr, False, deg)
        assert tables["standard"] == tables["rank"]


def test_hilbert_takes_the_exact_rank_when_the_bounds_differ(monkeypatch):
    """A lower bound one short of the standard count settles nothing: every
    degree takes the exact path, and the tables do not change."""
    arr = _braid_a3(Q)
    want = hilbert(arr, super=False, max_degree=4)
    _counted(monkeypatch, "_evaluation_rank",
             lambda forms, d, npoints, rng: npoints - 1)
    exact = _counted(monkeypatch, "_rank_dimension")
    assert hilbert(arr, super=False, max_degree=4) == want
    assert [args[2] for args in exact] == [0, 1, 2, 3, 4]


def test_hilbert_refuses_the_bounds_for_a_generator_outside_the_kernel(
        monkeypatch, triangle_q):
    """With t1 added to the kernel, the standard count is no upper bound:
    no evaluation rank is taken, and the tables still disagree."""
    from recplane import oracle

    want = hilbert(triangle_q, super=False, max_degree=6)
    kernel = oracle._instance_kernel(triangle_q)
    ring = t_ring(triangle_q)
    monkeypatch.setattr(oracle, "_instance_kernel",
                        lambda arr: kernel + (ring.variable("t1"),))
    evaluated = _counted(monkeypatch, "_evaluation_rank")
    tables = hilbert(triangle_q, super=False, max_degree=6)
    assert evaluated == []
    assert tables["standard"] != tables["rank"]
    assert tables["rank"] == want["rank"]


def test_hilbert_bounds_keep_a_missing_generator_visible(monkeypatch,
                                                        triangle_q):
    """Without its one generator the kernel still maps to zero, so the
    bounds are tried, but the evaluation rank stays below the standard
    count and the exact rank shows the disagreement."""
    from recplane import oracle

    monkeypatch.setattr(oracle, "_instance_kernel", lambda arr: ())
    evaluated = _counted(monkeypatch, "_evaluation_rank")
    tables = hilbert(triangle_q, super=False, max_degree=6)
    assert len(evaluated) == 4
    assert tables["standard"] == {0: 1, 1: 0, 2: 3, 3: 0, 4: 6, 5: 0, 6: 10}
    assert tables["rank"] == {0: 1, 1: 0, 2: 3, 3: 0, 4: 5, 5: 0, 6: 7}


@pytest.mark.parametrize("forms", [
    [[1, 0], [0, 1], [1, Fraction(1, 2**61 - 1)]],  # denominator 0 mod P
    [[2**61 - 1, 0], [0, 1], [1, 1]],  # a form 0 mod P
])
def test_hilbert_forms_zero_mod_p_take_the_exact_path(monkeypatch, forms):
    arr = Arrangement(Q, 2, [[Fraction(x) for x in row] for row in forms])
    evaluated = _counted(monkeypatch, "_evaluation_rank")
    exact = _counted(monkeypatch, "_rank_dimension")
    tables = hilbert(arr, super=False, max_degree=4)
    assert evaluated == [] and len(exact) == 5
    assert tables["standard"] == tables["rank"]
    assert tables["rank"] == {0: 1, 1: 0, 2: 3, 3: 0, 4: 5}


def test_hilbert_bounds_only_over_q_and_commutative(monkeypatch, triangle_q,
                                                     triangle_f2):
    """F_2, F_p and the odd ring keep the exact rank in every degree."""
    evaluated = _counted(monkeypatch, "_evaluation_rank")
    for arr, flag in ((triangle_f2, False), (_braid_a3(F5), False),
                      (triangle_q, True)):
        tables = hilbert(arr, super=flag, max_degree=4)
        assert tables["standard"] == tables["rank"]
    assert evaluated == []


def _braid_a3(field):
    return Arrangement(field, 4, [
        [1 if k == i else -1 if k == j else 0 for k in range(4)]
        for i, j in itertools.combinations(range(4), 2)
    ])


@pytest.mark.parametrize("field, deg, super", [
    (F5, 4, False), (F5, 4, True), (Q, 3, True),
])
def test_rank_images_match_eval_over_the_largest_denominator(field, deg, super):
    """Each image built at the shared exponent equals the eval_h / eval_psi
    image with its numerator multiplied by the missing z_k powers, and the
    shared exponent is the largest one those images need of any form."""
    from recplane.oracle import _exterior_labels, _t_monomials_of_degree
    from recplane.oracle import z_polynomials

    arr = _braid_a3(field)
    ring = t_ring(arr)
    zs = z_polynomials(arr)
    old = []
    for r, B in _exterior_labels(arr, super, deg):
        for m in _t_monomials_of_degree(ring, (deg - r) // 2):
            poly = ring.poly({m: field.one})
            old.append(eval_psi(arr, ExtElement(ring, {B: poly})) if super
                       else eval_h(arr, poly))
    new = list(_rank_images(arr, super, deg))
    assert len(new) == len(old) > 0
    den = max(max(img.den) for img in old)
    for got, want in zip(new, old):
        assert got.den == (den,) * arr.m
        numerator = want.numerator
        for z, e in zip(zs, want.den):
            for _ in range(den - e):
                numerator = numerator.poly_mul(z)
        assert got.numerator == numerator


@st.composite
def exponent_vectors(draw):
    field = draw(st.sampled_from((F2, F5, Q)))
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2).map(field.from_int)
    form = st.lists(entry, min_size=n, max_size=n).filter(
        lambda row: any(x != field.zero for x in row))
    forms = draw(st.lists(form, min_size=1, max_size=4))
    vector = st.tuples(*[st.integers(0, 3)] * len(forms))
    return Arrangement(field, n, forms), draw(st.lists(vector, min_size=1,
                                                       max_size=6))


@settings(max_examples=60, deadline=None)
@given(exponent_vectors())
def test_shared_product_equals_the_plain_product(case):
    """The memoized products of one call group, kept or not, equal the
    left-to-right products of the form powers."""
    from recplane.oracle import _SharedSubstitution, z_polynomials

    arr, vectors = case
    zs = z_polynomials(arr)
    groups = [_SharedSubstitution(arr, unkept) for unkept in (0, 1, 2)]
    for exps in vectors:
        want = zs[0].ring.one()
        for z, k in zip(zs, exps):
            want = want * z.pow(k)
        for shared in groups:
            assert shared.product(exps, shared.unkept) == want


def test_call_groups_leave_no_state_in_the_instance_context(four_cycle):
    """hilbert and verify_charts drop their products with the call: the
    instance context keeps its slots, and neither the kernel nor any
    presentation, its chain included, holds an x-polynomial."""
    from recplane.context import InstanceContext, instance_context
    from recplane.oracle import x_ring

    assert verify_theorem2(four_cycle).ok
    assert hilbert(four_cycle, super=True, max_degree=4)["rank"]
    assert verify_charts(four_cycle).ok
    assert InstanceContext.__slots__ == ("arrangement", "kernel",
                                         "presentations")
    ctx = instance_context(four_cycle)
    held = list(ctx.kernel)
    chains = 0
    for pres in ctx.presentations.values():
        held += [g.element for g in pres.generators]
        held += [b for basis in pres.bases for b in basis]
        chains += len(pres.bases)
    assert chains == four_cycle.m + 1
    xr = x_ring(four_cycle)
    assert not any(v.ring == xr for v in held)


# -- charts ------------------------------------------------------------------------


def test_chart_kernel_matches_chart_generators(triangle_f2):
    from recplane.relations import chart_ring as build_chart

    for f in flats(triangle_f2):
        ch = build_chart(triangle_f2, f)
        assert ideal_equal([g.element for g in ch.generators], chart_kernel(triangle_f2, f))


def test_chart_kernel_top_flat_is_linear_ideal(triangle_f2):
    top = closure(triangle_f2, (1, 2, 3))
    ker = chart_kernel(triangle_f2, top)
    from recplane.relations import _chart_poly_ring

    ring = _chart_poly_ring(F2, (), (1, 2, 3))
    assert ideal_equal(ker, [ring.parse("z1 + z2 + z3")])


def test_verify_charts(four_cycle, triangle_f2, triangle_q):
    for arr in (triangle_f2, triangle_q, four_cycle):
        rep = verify_charts(arr)
        assert rep.ok, rep.witnesses


def test_verify_charts_reports_a_failing_super_generator(monkeypatch,
                                                        four_cycle):
    """A super chart generator whose image is not zero fails the check and is
    named in a witness: a bare u_i off the flat maps to dz_i/z_i."""
    import recplane.oracle as oracle
    from recplane.relations import GeneratorRecord

    real = oracle.chart_ring
    bad_flat = (1,)
    added = []

    def with_extra(arr, f, *args, **kwargs):
        chart = real(arr, f, *args, **kwargs)
        if not (kwargs.get("super") and f.indices == bad_flat):
            return chart
        u2 = ExtElement.generator(chart.ring, 2, frozenset(bad_flat))
        added.append(str(u2))
        extra = GeneratorRecord(u2, chart.generators[0].relation, (2,))
        return dataclasses.replace(
            chart, generators=chart.generators + (extra,))

    monkeypatch.setattr(oracle, "chart_ring", with_extra)
    rep = verify_charts(four_cycle)
    assert added == ["u2"]
    assert rep.status == "fail"
    assert rep.witnesses == [{"flat": [1], "super_generator": "u2"}]


def test_eval_chart_kills_divided_generators(triangle_q):
    from recplane.relations import chart_ring as build_chart

    for f in flats(triangle_q):
        for sup in (False, True):
            ch = build_chart(triangle_q, f, super=sup)
            for g in ch.generators:
                if not g.element.is_zero():
                    assert eval_chart(triangle_q, f, g.element).is_zero()


# -- engine invariants on oracle outputs -----------------------------------------


def test_kernel_outputs_are_groebner(four_cycle, triangle_q):
    for arr in (four_cycle, triangle_q):
        assert is_groebner(kernel_I(arr))
        for r in range(arr.rank + 1):
            basis = kernel_K_degree(arr, r)
            assert is_module_groebner(basis)


def test_intersection_matches_preimage_kernel(triangle_q):
    """P_1 and N_1 intersected directly agree with the degree-1 kernel mapped
    through u_I -> t_I dz_I; two independent routes to the same submodule."""
    from recplane.modules import module_intersect
    from recplane.superalg import DZ
    from recplane.oracle import degree_module_columns, degree_module_relations

    arr = triangle_q
    ring = t_ring(arr)
    subsets, columns = degree_module_columns(arr, 1)
    relmod = degree_module_relations(arr, 1)
    inter = module_intersect(columns, relmod)

    images = []
    for xi in kernel_K_degree(arr, 1):
        img = ExtElement.zero(ring, DZ)
        for subset, poly in xi.entries.items():
            col = columns[subsets.index(subset)]
            img = img + col.poly_mul(poly)
        if not img.is_zero():
            images.append(img)
    gi = module_groebner(images)
    gn = module_groebner(inter)
    for v in inter:
        assert module_normal_form(v, gi).is_zero()
    for v in images:
        assert module_normal_form(v, gn).is_zero()


def _lemma7_reference(arr):
    """verify_lemma7 as a report, every Q_{L,S} reduced modulo the reduced
    basis G_r of its circuit's chain, with no division first."""
    import recplane.oracle as oracle
    from recplane.relations import p_of_L, q_of_LS
    from recplane.superalg import ext_mul

    ring = t_ring(arr)
    by_relation = {}
    for g in oracle.super_generators(arr).generators:
        by_relation.setdefault(g.relation, {})[g.subset] = g.element
    witnesses = []
    pairs = 0
    for rel, plist in by_relation.items():
        support = list(rel.support)
        i1 = rel.support[0]
        gens = [p for p in plist.values() if not p.is_zero()]
        base = ext_mul(ExtElement.generator(ring, i1),
                       ExtElement.from_poly(p_of_L(ring, rel)))
        base -= plist[(i1,)].poly_mul(ring.variable(f"t{i1}"))
        if base != q_of_LS(ring, rel, ()):
            witnesses.append({"relation": support, "identity":
                              "u_min*P_L - t_min*P_L_min != Q_L_empty"})
        for S, p in plist.items():
            q = q_of_LS(ring, rel, S)
            pairs += 1
            for i in S:
                if q != ext_mul(ExtElement.generator(ring, i), p):
                    witnesses.append({"relation": support, "S": list(S),
                                      "i": i, "identity": "Q != u_i * P_LS"})
            if q.is_zero():
                continue
            r = len(S) + 1
            chain = oracle._grassmann_chain(gens, arr.m, r)
            nf = module_normal_form(q, chain[r])
            if not nf.is_zero():
                witnesses.append({"relation": support, "S": list(S),
                                  "reduction": str(nf)})
    return {"check": "lemma7", "instance": oracle.instance_label(arr),
            "status": "fail" if witnesses else "pass",
            "witnesses": witnesses, "details": {"pairs": pairs}}


def _zero_P_L(gens):
    """P_{L,()} of every circuit replaced by zero: Q_{L,()} is still
    checked, and lies outside the span of what is left."""
    return tuple(dataclasses.replace(g, element=ExtElement.zero(g.element.ring))
                 if g.subset == () else g for g in gens)


def _t_scaled_singletons(gens):
    """Each P_{L,(i)} times the t of its circuit's last index: the identities
    fail, Q_{L,(i)} leaves the span, and Q_{L,()} stays in it though
    division by the u_B multiples leaves a remainder."""
    def scaled(g):
        t = g.element.ring.variable(f"t{g.relation.support[-1]}")
        return dataclasses.replace(g, element=g.element.poly_mul(t))
    return tuple(scaled(g) if len(g.subset) == 1 else g for g in gens)


@pytest.mark.parametrize("change, reduces", [
    (_zero_P_L, True),
    (_t_scaled_singletons, True),
    (_drop_P_L, False),
    (_extra_t2_u1, False),
], ids=["zero-P_L", "t-scaled-P_L_i", "drop-P_L", "extra-t2-u1"])
@pytest.mark.parametrize("name", ["four_cycle", "triangle_q"])
def test_lemma7_failure_matches_the_chain_reference(monkeypatch, request, name,
                                                    change, reduces):
    """A nonzero division remainder falls back to the circuit's chain, so a
    failing report names the normal forms modulo G_r, as before division.
    Dropping P_{L,()} stops Q_{L,()} from being checked, and t2*u1 takes the
    place of P_{L,(1)}; either way every checked Q_{L,S} stays in the span,
    so those reports pass or fail on the identities alone."""
    arr = request.getfixturevalue(name)
    _patch_circuits(monkeypatch, change)
    rep = verify_lemma7(arr)
    assert rep.to_json() == _lemma7_reference(arr)
    assert any("reduction" in w for w in rep.witnesses) == reduces


def test_lemma7_keeps_a_pair_that_division_leaves_but_the_span_holds(
        monkeypatch, four_cycle):
    """With the P_{L,(i)} scaled by t, division leaves a remainder of
    Q_{L,()}, but Q_{L,()} lies in J_1: the chain clears it."""
    import recplane.oracle as oracle
    from recplane.relations import q_of_LS

    _patch_circuits(monkeypatch, _t_scaled_singletons)
    records = oracle.super_generators(four_cycle).generators
    rel = records[0].relation
    q = q_of_LS(t_ring(four_cycle), rel, ())
    divisors = list(oracle._u_multiples(records, four_cycle.m, 1))
    assert not module_normal_form(q, divisors).is_zero()
    rep = verify_lemma7(four_cycle)
    assert rep.status == "fail"
    assert not any(w.get("S") == [] for w in rep.witnesses)


def test_lemma7_passes_without_building_a_chain(monkeypatch, four_cycle,
                                                triangle_q):
    """Every Q_{L,S} of a passing lemma7 divides to zero by its circuit's
    u_B * P_{L,T}, so no chain is built and every pair is still counted."""
    import recplane.oracle as oracle

    def refuse(*args, **kwargs):
        raise AssertionError("lemma7 built a chain")

    monkeypatch.setattr(oracle, "_grassmann_chain", refuse)
    for arr in (four_cycle, triangle_q, TWO_CIRCUITS):
        rep = verify_lemma7(arr)
        assert rep.ok, rep.witnesses
        assert rep.details["pairs"] == sum(2 ** len(c.support)
                                           for c in circuits(arr))
