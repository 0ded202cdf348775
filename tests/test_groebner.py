import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recplane import groebner
from recplane.fields import PrimeField, RationalField
from recplane.groebner import (
    buchberger,
    eliminate,
    groebner_ideal,
    ideal_equal,
    is_groebner,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from recplane.polynomials import PolyRing, RingError, mono_pairs

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)


def t_ring(field, m):
    return PolyRing(field, tuple(f"t{i}" for i in range(m, 0, -1)))


def test_normal_form_divisibility():
    r = t_ring(Q, 2)
    assert normal_form(r.parse("t1*t2"), [r.parse("t1")]).is_zero()


def test_normal_form_single_reduction():
    r = PolyRing(Q, ("t1", "t2"))  # t1 greatest, so t1 - t2 rewrites t1 -> t2
    assert normal_form(r.parse("t1 + t2"), [r.parse("t1 - t2")]) == r.parse("2*t2")


def test_normal_form_empty_basis():
    r = t_ring(Q, 2)
    p = r.parse("t1 + t2")
    assert normal_form(p, []) == p


def test_groebner_monomial_ideal():
    r = t_ring(Q, 2)
    basis = groebner_ideal([r.parse("t1"), r.parse("t2")])
    assert basis == [r.parse("t1"), r.parse("t2")]


def test_groebner_linear_ideal_single_representative():
    r = t_ring(Q, 3)
    basis = groebner_ideal([r.parse("t1 - t2"), r.parse("t2 - t3")])
    reps = {str(normal_form(r.variable(v), basis)) for v in ("t1", "t2", "t3")}
    assert len(reps) == 1


def test_triangle_generator_is_its_own_groebner_basis():
    r = t_ring(F2, 3)
    gen = r.parse("t1*t2 + t1*t3 + t2*t3")
    assert is_groebner([gen])
    assert groebner_ideal([gen]) == [gen]


def test_eliminate_no_constraint():
    r = PolyRing(Q, ("x1", "t1"))
    assert eliminate([r.parse("x1 - t1")], {"x1"}) == []


def test_eliminate_equal_inverses():
    r = PolyRing(Q, ("x1", "t2", "t1"))
    out = eliminate([r.parse("x1*t1 - 1"), r.parse("x1*t2 - 1")], {"x1"})
    sub = PolyRing(Q, ("t2", "t1"))
    assert out == [sub.parse("t2 - t1")]


def test_eliminate_requires_greatest_variables():
    r = PolyRing(Q, ("x1", "t1"))
    with pytest.raises(RingError):
        eliminate([r.parse("x1*t1 - 1")], {"t1"})


def test_ideal_equal_unit_multiple():
    r = t_ring(Q, 1)
    assert ideal_equal([r.parse("t1")], [r.parse("2*t1")])


def test_ideal_equal_strict_containment():
    r = t_ring(Q, 1)
    assert not ideal_equal([r.parse("t1")], [r.parse("t1^2")])


def test_buchberger_postcondition():
    r = t_ring(Q, 3)
    basis = groebner_ideal(
        [r.parse("t1*t2 - t3"), r.parse("t2*t3 - t1"), r.parse("t1*t3 - t2")]
    )
    assert is_groebner(basis)


poly_data = st.lists(
    st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(0, 2)] * 3)),
    max_size=5,
)


def _poly(r, data):
    d = {}
    for c, e in data:
        m = r.mono({f"t{i + 1}": x for i, x in enumerate(e) if x})
        d[m] = r.field.add(d.get(m, r.field.zero), r.field.from_int(c))
    return r.poly(d)


@settings(max_examples=40, deadline=None)
@given(poly_data, poly_data, poly_data)
def test_normal_form_additive_property(da, db, dbasis):
    r = t_ring(Q, 3)
    f, g = _poly(r, da), _poly(r, db)
    basis = [b for b in [_poly(r, dbasis)] if not b.is_zero()]
    lhs = normal_form(f + g, basis)
    rhs = normal_form(normal_form(f, basis) + normal_form(g, basis), basis)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(poly_data, poly_data)
def test_groebner_membership_of_combinations(da, db):
    r = t_ring(F2, 3)
    a, b = _poly(r, da), _poly(r, db)
    gens = [g for g in (a, b) if not g.is_zero()]
    if not gens:
        return
    basis = groebner_ideal(gens)
    assert is_groebner(basis)
    combo = a * b + sum(gens[1:], gens[0])
    if combo.is_zero():
        return
    assert normal_form(combo, basis).is_zero()


# -- plain-scalar division against one field call per term -------------------


def _reference_normal_form(f, basis):
    """{monomial: coefficient} of the remainder, by the division loop with a
    field.sub and a field.mul per updated term, kept as the reference."""
    ring = f.ring
    field = ring.field
    reducers = [(g.lm(), g.lc(), g) for g in basis if not g.is_zero()]
    work = dict(f._d)
    rem = {}
    while work:
        m = max(work)
        c = work.pop(m)
        for lm, lc, g in reducers:
            if ring.mono_divides(lm, m):
                break
        else:
            rem[m] = c
            continue
        factor = field.div(c, lc)
        for gm, gc in g._d.items():
            if gm != lm:
                key = ring.mono_mul(gm, ring.mono_div(m, lm))
                s = field.sub(work.get(key, field.zero), field.mul(factor, gc))
                if s == field.zero:
                    work.pop(key, None)
                else:
                    work[key] = s
    return rem


def _reference_s_polynomial(f, g):
    """{monomial: coefficient} of lcm/lt(f) * f - lcm/lt(g) * g, one
    field.add and field.mul per term."""
    ring = f.ring
    field = ring.field
    lcm = ring.mono_lcm(f.lm(), g.lm())
    out = {}
    for p, sign in ((f, field.one), (g, field.neg(field.one))):
        a = field.mul(sign, field.inv(p.lc()))
        shift = ring.mono_div(lcm, p.lm())
        for m, c in p._d.items():
            key = m + shift
            s = field.add(out.get(key, field.zero), field.mul(a, c))
            if s == field.zero:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def assert_canonical(field, coeffs):
    """Over F_p an int in 1..p-1; over Q a nonzero int or Fraction."""
    for c in coeffs:
        if field.char:
            assert type(c) is int and 0 < c < field.char, c
        else:
            assert type(c) in (int, Fraction) and c != 0, c


# Over Q a drawn coefficient is a plain int or a Fraction, and
# `PolyRing.canonical` stores an integral one as an int; over F_p a drawn
# a/b is read as a / b.
mixed_coeff = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from((3, 7))),
)
mixed_poly = st.lists(
    st.tuples(mixed_coeff, st.tuples(*[st.integers(0, 2)] * 3)), max_size=5)


def _mixed_poly(r, data):
    d = {}
    for c, e in data:
        if isinstance(c, Fraction) and r.field.char:
            c = r.field.parse(str(c))
        m = r.mono({f"t{i + 1}": x for i, x in enumerate(e) if x})
        d[m] = d.get(m, 0) + c
    return r.poly(d)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((F2, F5, Q)), mixed_poly,
       st.lists(mixed_poly, max_size=4))
def test_normal_form_matches_field_call_reference(field, df, dbasis):
    """Remainders and S-polynomials equal those of per-term field calls,
    from a plain list and from a reducer basis, and every coefficient is
    canonical: never a float, however ints and Fractions mix over Q."""
    r = t_ring(field, 3)
    f = _mixed_poly(r, df)
    basis = [_mixed_poly(r, d) for d in dbasis]
    want = _reference_normal_form(f, basis)
    for divisor in (basis, groebner._ReducerBasis(basis)):
        got = normal_form(f, divisor)
        assert got._d == want
        assert_canonical(field, got._d.values())
    nonzero = [g for g in basis if not g.is_zero()]
    for g, h in itertools.combinations(nonzero, 2):
        s = s_polynomial(g, h)
        assert s._d == _reference_s_polynomial(g, h)
        assert_canonical(field, s._d.values())


# -- the pair criteria leave the reduced basis unchanged ----------------------

FIELDS = (F2, PrimeField(3), PrimeField(5), Q)


def plain_completion(gens):
    """Buchberger's algorithm with no pair criterion: every pair of the
    growing basis is reduced, in the order the pairs arise."""
    G = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if not r.is_zero():
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append(r.monic())
    return G


small_poly = st.lists(
    st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(0, 2)] * 3)),
    min_size=1, max_size=3,
)


@st.composite
def ideals(draw):
    field = draw(st.sampled_from(FIELDS))
    r = t_ring(field, 3)
    gens = [_poly(r, d) for d in draw(st.lists(small_poly, min_size=1,
                                               max_size=3))]
    return r, [g for g in gens if not g.is_zero()]


@settings(max_examples=60, deadline=None)
@given(ideals())
def test_criteria_keep_the_reduced_basis(case):
    _, gens = case
    basis = groebner_ideal(gens)
    assert basis == reduce_basis(plain_completion(gens))
    assert is_groebner(basis)


def test_chain_criterion_skips_a_pair(monkeypatch):
    """Each pair of t1*t2, t2*t3, t1*t3 has the lcm t1*t2*t3, which the third
    leading monomial divides: once two pairs are treated, the third is
    skipped."""
    r = t_ring(Q, 3)
    gens = [r.parse("t1*t2"), r.parse("t2*t3"), r.parse("t1*t3")]
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return s_polynomial(f, g)

    monkeypatch.setattr(groebner, "s_polynomial", counted)
    assert buchberger(gens) == gens
    assert len(calls) == 2


# -- differential test against sympy ------------------------------------------

def _as_monic_set(pairs, p):
    """{(exponent vector, coefficient)} of each monic polynomial, with F_p
    coefficients taken to 0..p-1."""
    out = set()
    for terms in pairs:
        lead = max(terms)[1]
        if p:
            inv = pow(lead, -1, p)
            out.add(frozenset((e, c * inv % p) for e, c in terms))
        else:
            out.add(frozenset((e, c / lead) for e, c in terms))
    return out


def _dense_terms(poly):
    n = len(poly.ring.variables)
    return [(tuple(dict(mono_pairs(m)).get(n - i, 0) for i in range(n)), c)
            for m, c in poly.terms]


@settings(max_examples=60, deadline=None)
@given(ideals())
def test_groebner_ideal_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    r, gens = case
    if not gens:
        return
    p = getattr(r.field, "p", 0)
    symbols = sympy.symbols(r.variables)
    options = {"modulus": p} if p else {"domain": sympy.QQ}
    polys = [sympy.Poly.from_dict(
        {e: int(c) if p else sympy.Rational(c.numerator, c.denominator)
         for e, c in _dense_terms(g)}, *symbols, **options) for g in gens]
    theirs = sympy.groebner(polys, *symbols, order="lex", **options)
    want = _as_monic_set(
        ([(e, int(c) if p else Fraction(int(c.p), int(c.q)))
          for e, c in g.terms()]
         for g in theirs.polys), p)
    got = _as_monic_set((_dense_terms(g) for g in groebner_ideal(gens)), p)
    assert got == want
