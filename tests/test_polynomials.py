from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recplane.fields import PrimeField, RationalField
from recplane.groebner import normal_form
from recplane.modules import module_normal_form
from recplane.polynomials import MAX_EXPONENT, PolyRing, RingError, mono_pairs
from recplane.superalg import ExtElement

Q = RationalField()
F2 = PrimeField(2)


def t_ring(field, m):
    return PolyRing(field, tuple(f"t{i}" for i in range(m, 0, -1)))


def test_difference_of_squares():
    r = t_ring(Q, 2)
    a = r.parse("t1 + t2")
    b = r.parse("t1 - t2")
    assert a * b == r.parse("t1^2 - t2^2")


def test_frobenius_square_char2():
    r = t_ring(F2, 2)
    sq = r.parse("t1 + t2") * r.parse("t1 + t2")
    assert sq == r.parse("t1^2 + t2^2")


def test_self_subtraction_vanishes():
    r = t_ring(Q, 3)
    p = r.parse("t2*t3 + t1*t3 + t1*t2")  # three-line relation polynomial
    prod = p * p
    assert (prod - prod).is_zero()


def test_leading_term_is_lex_greatest():
    r = t_ring(Q, 3)  # t3 > t2 > t1
    p = r.parse("t1^5 + t2*t1 + t3")
    assert p.lm() == r.mono({"t3": 1})
    assert str(p) == "t3 + t1*t2 + t1^5"


def test_mixed_ring_rejected():
    a = t_ring(Q, 2).parse("t1")
    b = t_ring(Q, 3).parse("t1")
    with pytest.raises(RingError):
        a + b
    with pytest.raises(RingError):
        a * b
    assert a != b


def test_equal_rings_that_are_distinct_objects_mix():
    r1, r2 = PolyRing(Q, ("t2", "t1")), PolyRing(Q, ("t2", "t1"))
    assert r1 is not r2
    a, b = r1.parse("t1 + t2"), r2.parse("t2 + t1")
    assert a == b
    assert a - b == r1.zero()


def test_parse_format_roundtrip_canonical():
    r = PolyRing(Q, ("s", "t2", "t1"))
    text = "s^2*t1 - 3/2*t2 + 1"
    p = r.parse(text)
    assert r.parse(str(p)) == p
    assert str(p) == "s^2*t1 - 3/2*t2 + 1"


def test_parse_merges_duplicate_monomials():
    r = t_ring(F2, 1)
    assert r.parse("t1 + t1").is_zero()
    assert r.parse("t1*t1") == r.parse("t1^2")


def test_zero_formatting():
    r = t_ring(Q, 1)
    assert str(r.zero()) == "0"
    assert str(r.constant(-1)) == "-1"


def _random_poly(r, coeffs, exps):
    d = {}
    for c, e in zip(coeffs, exps):
        m = r.mono({f"t{i + 1}": x for i, x in enumerate(e) if x})
        d[m] = r.field.add(d.get(m, r.field.zero), r.field.from_int(c))
    return r.poly(d)


poly_data = st.lists(
    st.tuples(st.integers(-4, 4), st.tuples(*[st.integers(0, 3)] * 3)),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(poly_data, poly_data, st.sampled_from([2, 3, 5]))
def test_frobenius_property(da, db, p):
    """(a+b)^p == a^p + b^p over F_p."""
    field = PrimeField(p)
    r = t_ring(field, 3)
    a = _random_poly(r, [c for c, _ in da], [e for _, e in da])
    b = _random_poly(r, [c for c, _ in db], [e for _, e in db])
    assert (a + b).pow(p) == a.pow(p) + b.pow(p)


@settings(max_examples=60, deadline=None)
@given(poly_data, poly_data)
def test_mul_commutes_and_distributes(da, db):
    r = t_ring(Q, 3)
    a = _random_poly(r, [c for c, _ in da], [e for _, e in da])
    b = _random_poly(r, [c for c, _ in db], [e for _, e in db])
    assert a * b == b * a
    assert a * (b + b) == a * b + a * b


@settings(max_examples=40, deadline=None)
@given(poly_data)
def test_serialize_parse_identity(da):
    r = t_ring(Q, 3)
    p = _random_poly(r, [c for c, _ in da], [e for _, e in da])
    assert r.parse(str(p)) == p


# -- packed monomials against a sparse-tuple reference ------------------------
#
# The reference monomial is a tuple of (rank, exponent) pairs, rank 1 the
# least variable, sorted by descending rank: under tuple comparison that is
# the lex order too.

def _ref_mul(a, b):
    d = dict(a)
    for r, e in b:
        d[r] = d.get(r, 0) + e
    return tuple(sorted(d.items(), reverse=True))


def _ref_divides(b, a):
    d = dict(a)
    return all(d.get(r, 0) >= e for r, e in b)


def _ref_div(a, b):
    d = dict(a)
    for r, e in b:
        d[r] -= e
    return tuple(sorted(((r, e) for r, e in d.items() if e), reverse=True))


def _ref_lcm(a, b):
    d = dict(a)
    for r, e in b:
        d[r] = max(d.get(r, 0), e)
    return tuple(sorted(d.items(), reverse=True))


def _ref_degree(a):
    return sum(e for _, e in a)


def _packed(ring, ref):
    n = len(ring.variables)
    return ring.mono({ring.variables[n - r]: e for r, e in ref})


def _ref_poly_mul(field, a, b):
    acc = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _ref_mul(ma, mb)
            acc[m] = field.add(acc.get(m, field.zero), field.mul(ca, cb))
    return {m: c for m, c in acc.items() if c != field.zero}


def _ref_combine(field, a, b, op):
    acc = dict(a)
    for m, c in b.items():
        acc[m] = op(acc.get(m, field.zero), c)
    return {m: c for m, c in acc.items() if c != field.zero}


def _ref_scale(field, c, a, mono=()):
    acc = {_ref_mul(m, mono): field.mul(c, x) for m, x in a.items()}
    return {m: c for m, c in acc.items() if c != field.zero}


def assert_canonical(field, coeffs):
    """Every stored coefficient is canonical: in 1..p-1 over F_p; over Q a
    nonzero int, or a Fraction whose denominator is not 1."""
    for c in coeffs:
        if field.char:
            assert type(c) is int and 0 < c < field.char
        else:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1), c
            assert c != 0


def scalars(field):
    """Small scalars of `field`; over Q ints, Fractions, and integral
    Fractions such as Fraction(4, 2), which the ring stores as ints."""
    if field.char:
        return st.integers(-4, 4).map(field.from_int)
    return st.one_of(st.integers(-4, 4),
                     st.builds(Fraction, st.integers(-4, 4),
                               st.sampled_from((1, 2, 3))))


exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT))


@st.composite
def ref_monomials(draw, n, exps=exponent):
    vec = draw(st.lists(exps, min_size=n, max_size=n))
    return tuple((n - i, e) for i, e in enumerate(vec) if e)


@st.composite
def ring_and_monomials(draw):
    n = draw(st.integers(1, 12))
    ring = PolyRing(Q, tuple(f"v{i}" for i in range(n, 0, -1)))
    return ring, draw(ref_monomials(n)), draw(ref_monomials(n))


@settings(max_examples=300, deadline=None)
@given(ring_and_monomials())
def test_packed_monomials_match_tuple_reference(case):
    ring, a, b = case
    pa, pb = _packed(ring, a), _packed(ring, b)
    assert mono_pairs(pa) == list(a)
    assert (pa < pb) == (a < b)
    assert (pa == pb) == (a == b)
    prod = _ref_mul(a, b)
    if all(e <= MAX_EXPONENT for _, e in prod):
        assert ring.mono_mul(pa, pb) == _packed(ring, prod)
    else:
        with pytest.raises(RingError):
            ring.mono_mul(pa, pb)
    assert ring.mono_divides(pb, pa) == _ref_divides(b, a)
    if _ref_divides(b, a):
        assert ring.mono_div(pa, pb) == _packed(ring, _ref_div(a, b))
    else:
        with pytest.raises(RingError):
            ring.mono_div(pa, pb)
    assert ring.mono_lcm(pa, pb) == _packed(ring, _ref_lcm(a, b))
    assert ring.mono_degree(pa) == _ref_degree(a)


@st.composite
def polynomial_products(draw):
    field = draw(st.sampled_from([F2, PrimeField(5), Q]))
    n = draw(st.integers(1, 12))
    ring = PolyRing(field, tuple(f"v{i}" for i in range(n, 0, -1)))
    # mostly small exponents; MAX_EXPONENT - 1 makes some products overflow
    exps = st.integers(0, 4).map(lambda e: MAX_EXPONENT - 1 if e == 4 else e)

    def poly():
        terms = draw(st.lists(st.tuples(ref_monomials(n, exps),
                                        scalars(field)), max_size=5))
        d = {}
        for m, c in terms:
            d[m] = field.add(d.get(m, field.zero), c)
        return {m: c for m, c in d.items() if c != field.zero}

    c = draw(scalars(field))
    return ring, poly(), poly(), c, draw(ref_monomials(n, exps))


def _fits(ref):
    return all(e <= MAX_EXPONENT for m in ref for _, e in m)


@settings(max_examples=200, deadline=None)
@given(polynomial_products())
def test_polynomial_product_matches_tuple_reference(case):
    """Every constructor of a polynomial agrees with per-term field calls
    and stores canonical coefficients, over F_2, F_5 and Q."""
    ring, a, b, c, mono = case
    field = ring.field

    def wrap(ref):
        return ring.poly({_packed(ring, m): x for m, x in ref.items()})

    pa, pb = wrap(a), wrap(b)
    want = _ref_poly_mul(field, a, b)
    if _fits(want):
        got = pa * pb
        assert got == wrap(want)
        assert_canonical(field, got._d.values())
    else:
        with pytest.raises(RingError):
            pa * pb
    for got, ref in ((pa + pb, _ref_combine(field, a, b, field.add)),
                     (pa - pb, _ref_combine(field, a, b, field.sub)),
                     (-pa, {m: field.neg(x) for m, x in a.items()}),
                     (pa.scale(c), _ref_scale(field, c, a))):
        assert got == wrap(ref)
        assert_canonical(field, got._d.values())
    want = _ref_scale(field, c, a, mono)
    if _fits(want):
        got = pa.mul_term(c, _packed(ring, mono))
        assert got == wrap(want)
        assert_canonical(field, got._d.values())
    else:
        with pytest.raises(RingError):
            pa.mul_term(c, _packed(ring, mono))


def test_products_past_the_largest_exponent_raise():
    """On 80 variables, far past any fixed-width guard mask, at both ends."""
    ring = PolyRing(F2, tuple(f"v{i}" for i in range(80, 0, -1)))
    with pytest.raises(RingError):
        ring.mono({"v80": MAX_EXPONENT + 1})
    with pytest.raises(RingError):
        ring.mono({"v1": MAX_EXPONENT + 1})
    for name in ("v80", "v1"):
        full = ring.term(1, {name: MAX_EXPONENT, "v40": 1})
        x = ring.variable(name)
        with pytest.raises(RingError):
            full * x
        with pytest.raises(RingError):
            x * full
        with pytest.raises(RingError):
            full.mul_term(1, ring.mono({name: 1}))
        assert (full * ring.variable("v40")).lm() == ring.mono(
            {name: MAX_EXPONENT, "v40": 2})
    # a reducer's other terms hold no more of the greatest variable than its
    # leading term, so reduction can overflow any variable but that one
    for big, small in (("v80", "v79"), ("v2", "v1")):
        f = ring.term(1, {big: 1, small: MAX_EXPONENT})
        g = ring.variable(big) + ring.variable(small)
        with pytest.raises(RingError):
            normal_form(f, [g])
        with pytest.raises(RingError):
            module_normal_form(ExtElement.from_poly(f), [ExtElement.from_poly(g)])


def test_division_remainders_keep_the_scalar_rule():
    """Over Q a division step's factor may be a Fraction whose products
    with the reducer are integral: the remainder stores them as ints."""
    ring = PolyRing(Q, ("x", "y"))
    f, g = ring.parse("x + y"), ring.parse("2*x + 4*y")
    for rem in (normal_form(f, [g]),
                module_normal_form(ExtElement.from_poly(f),
                                   [ExtElement.from_poly(g)])):
        coeffs = list((rem._t if isinstance(rem, ExtElement) else rem._d)
                      .values())
        assert coeffs == [-1] and type(coeffs[0]) is int
    h = ring.parse("3*x + 2*y")  # factor 1/3: the remainder is 1/3*y
    rem = normal_form(f, [h])
    assert list(rem._d.values()) == [Fraction(1, 3)]
    assert_canonical(Q, rem._d.values())
