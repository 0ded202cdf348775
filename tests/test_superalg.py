import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recplane.fields import PrimeField, RationalField
from recplane.polynomials import MAX_EXPONENT, PolyRing, RingError
from recplane.superalg import (
    DZ,
    LABEL_BITS,
    U,
    ExtElement,
    UnconvertibleMonomial,
    ext_mul,
    ext_mul_monomial,
    parse_ext,
    shuffle_sign,
    subset_key,
    xi_from_tdz,
)

Q = RationalField()
F2 = PrimeField(2)


def ring(field=Q, m=4):
    return PolyRing(field, tuple(f"t{i}" for i in range(m, 0, -1)))


def test_shuffle_sign_examples():
    assert shuffle_sign((1,), (2,)) == 1
    assert shuffle_sign((2,), (1,)) == -1
    # sorting (1,3,2) needs one transposition
    assert shuffle_sign((1, 3), (2,)) == -1
    assert shuffle_sign((1, 2), (2, 3)) == 0


def test_shuffle_sign_cocycle():
    universe = range(1, 7)
    for s1 in itertools.combinations(universe, 2):
        rest = [x for x in universe if x not in s1]
        for s2 in itertools.combinations(rest, 2):
            rest2 = [x for x in rest if x not in s2]
            for s3 in itertools.combinations(rest2, 1):
                lhs = shuffle_sign(s1, s2) * shuffle_sign(tuple(sorted(s1 + s2)), s3)
                rhs = shuffle_sign(s2, s3) * shuffle_sign(s1, tuple(sorted(s2 + s3)))
                assert lhs == rhs


def test_unit_products_carry_the_shuffle_sign():
    """On label masks, e_A * e_B and u_A * e_B take the sign that
    `shuffle_sign` gives the index tuples, and vanish when A meets B."""
    r = ring()
    subsets = [s for k in range(6) for s in itertools.combinations(range(1, 6), k)]
    for A in subsets:
        e_A = ExtElement(r, {A: r.one()})
        for B in subsets:
            e_B = ExtElement(r, {B: r.one()})
            sign = shuffle_sign(A, B)
            want = (ExtElement(r, {tuple(sorted(A + B)): r.constant(sign)})
                    if sign else ExtElement.zero(r))
            assert ext_mul(e_A, e_B) == want
            assert ext_mul_monomial(A, e_B) == want


def test_anticommutativity():
    r = ring()
    u1 = ExtElement.generator(r, 1)
    u2 = ExtElement.generator(r, 2)
    assert ext_mul(u1, u2) == ExtElement(r, {(1, 2): r.one()})
    assert ext_mul(u2, u1) == -ExtElement(r, {(1, 2): r.one()})


def test_exterior_square_vanishes_every_characteristic():
    for field in (Q, F2):
        r = ring(field)
        u1 = ExtElement.generator(r, 1)
        assert ext_mul(u1, u1).is_zero()


def test_mixed_product_with_sign():
    r = ring()
    a = ExtElement(r, {(2,): r.variable("t1")})  # t1*u2
    b = ExtElement(r, {(1,): r.variable("t3")})  # t3*u1
    prod = ext_mul(a, b)
    assert prod == ExtElement(
        r, {(1, 2): (r.variable("t1") * r.variable("t3")).scale(Q.from_int(-1))}
    )


def test_xi_from_tdz_single_substitution():
    r = ring()
    e = ExtElement(r, {(2,): r.variable("t2")}, DZ)
    assert xi_from_tdz(e) == ExtElement(r, {(2,): r.one()})


def test_xi_from_tdz_pair():
    r = ring()
    e = ExtElement(r, {(1, 3): r.parse("t1*t3")}, DZ)
    assert xi_from_tdz(e) == ExtElement(r, {(1, 3): r.one()})


def test_xi_from_tdz_partial_t_part():
    # t2*t3*dz2 -> t3*u2 (first summand of the worked relation example)
    r = ring()
    e = ExtElement(r, {(2,): r.parse("t2*t3")}, DZ)
    assert xi_from_tdz(e) == ExtElement(r, {(2,): r.variable("t3")})


def test_xi_from_tdz_missing_factor_raises():
    r = ring()
    e = ExtElement(r, {(2,): r.variable("t3")}, DZ)
    with pytest.raises(UnconvertibleMonomial):
        xi_from_tdz(e)


def test_parse_ext_normalizes_order_and_squares():
    r = ring(m=3)
    assert parse_ext(r, "u2*u1") == -ExtElement(r, {(1, 2): r.one()})
    assert parse_ext(r, "u1*u1").is_zero()
    assert parse_ext(r, "t1*u2 + t3*u2 - u1*t3 - u3*t1") == parse_ext(
        r, "u2*t1 + u2*t3 - t3*u1 - t1*u3"
    )


def test_kind_takes_part_in_equality_and_products():
    r = ring()
    u = ExtElement(r, {(1,): r.one()})
    dz = ExtElement(r, {(1,): r.one()}, DZ)
    assert u != dz
    with pytest.raises(RingError):
        u + dz
    with pytest.raises(RingError):
        ext_mul(u, dz)
    with pytest.raises(RingError):
        xi_from_tdz(u)


def test_str_renders_each_kind_and_parses_back():
    r = ring(m=3)
    entries = {(1, 2): r.variable("t3"), (3,): r.constant(-2)}
    shown = {U: "t3*u1*u2 - 2*u3", DZ: "t3*dz1*dz2 - 2*dz3",
             frozenset({1}): "t3*dz1*u2 - 2*u3",
             frozenset({2, 3}): "t3*u1*dz2 - 2*dz3"}
    for kind, text in shown.items():
        e = ExtElement(r, entries, kind)
        assert str(e) == text
        assert parse_ext(r, text, kind) == e


subset_strategy = st.lists(st.integers(1, 4), max_size=3).map(
    lambda xs: tuple(sorted(set(xs)))
)
xi_strategy = st.lists(
    st.tuples(subset_strategy, st.integers(-3, 3), st.integers(0, 2)),
    max_size=4,
)


def _xi(r, data):
    total = ExtElement.zero(r)
    for subset, coeff, exp in data:
        poly = r.term(coeff, {"t1": exp})
        total = total + ExtElement(r, {subset: poly})
    return total


@settings(max_examples=60, deadline=None)
@given(xi_strategy, xi_strategy, xi_strategy)
def test_ext_mul_associative(da, db, dc):
    r = ring()
    a, b, c = _xi(r, da), _xi(r, db), _xi(r, dc)
    assert ext_mul(ext_mul(a, b), c) == ext_mul(a, ext_mul(b, c))


@settings(max_examples=60, deadline=None)
@given(xi_strategy)
def test_ext_mul_unital(da):
    r = ring()
    a = _xi(r, da)
    one = ExtElement.from_poly(r.one())
    assert ext_mul(one, a) == a == ext_mul(a, one)


@settings(max_examples=100, deadline=None)
@given(xi_strategy, subset_strategy)
def test_relabelled_monomial_product_matches_ext_mul(da, B):
    """u_B * g by relabelling equals the full product with the monomial u_B."""
    r = ring()
    g = _xi(r, da)
    assert ext_mul_monomial(B, g) == ext_mul(ExtElement(r, {B: r.one()}), g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graded_commutativity(data):
    r = ring()
    ra = data.draw(st.integers(0, 3))
    rb = data.draw(st.integers(0, 3))
    sa = data.draw(st.sampled_from(list(itertools.combinations(range(1, 5), ra))))
    sb = data.draw(st.sampled_from(list(itertools.combinations(range(1, 5), rb))))
    ca = data.draw(st.integers(-3, 3))
    cb = data.draw(st.integers(-3, 3))
    a = ExtElement(r, {sa: r.constant(ca)})
    b = ExtElement(r, {sb: r.constant(cb)})
    lhs = ext_mul(a, b)
    rhs = ext_mul(b, a)
    if (ra * rb) % 2:
        rhs = -rhs
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conversion_respects_products_on_compatible_splits(data):
    """With disjoint exterior supports and matching t-factors recorded on each
    side, converting after multiplying equals multiplying the conversions."""
    r = ring()
    sa = data.draw(st.sampled_from([(), (1,), (2,), (1, 2)]))
    sb = data.draw(st.sampled_from([(), (3,), (4,), (3, 4)]))
    ca = data.draw(st.integers(-2, 2))
    cb = data.draw(st.integers(-2, 2))
    pa = r.term(ca, {"t1": data.draw(st.integers(0, 1))})
    pb = r.term(cb, {"t2": data.draw(st.integers(0, 1))})
    ta = pa * r.term(1, {f"t{i}": 1 for i in sa})
    tb = pb * r.term(1, {f"t{i}": 1 for i in sb})
    a = ExtElement(r, {sa: ta}, DZ)
    b = ExtElement(r, {sb: tb}, DZ)
    lhs = xi_from_tdz(ext_mul(a, b))
    rhs = ext_mul(xi_from_tdz(a), xi_from_tdz(b))
    assert lhs == rhs


def _unit_term(r, mono, label):
    return ExtElement(r, {label: r.poly({mono: r.field.one})})


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, MAX_EXPONENT)] * 3),
        st.sets(st.integers(1, 16), max_size=16),
    ),
    min_size=2, max_size=12,
))
def test_packed_order_is_the_top_order(terms):
    """Sorting terms by packed key gives the order of (monomial,
    subset_key(label)): monomial first, then labels by their descending
    index tuples, for labels of mixed sizes over 16 indices."""
    r = ring(F2, 3)
    pairs = [(r.mono({f"t{i + 1}": e for i, e in enumerate(exps)}),
              tuple(sorted(label))) for exps, label in terms]
    by_key = sorted(pairs, key=lambda t: _unit_term(r, *t).lead_key())
    by_top = sorted(pairs, key=lambda t: (t[0], subset_key(t[1])))
    assert by_key == by_top
    for mono, label in pairs:
        assert _unit_term(r, mono, label).lt() == (mono, 1, label)


def test_label_index_beyond_the_label_bits_is_refused():
    """An index past LABEL_BITS would reach into the monomial bits; it is
    refused, and so are index 0 and labels that are not ascending."""
    r = ring(Q, 2)
    for label in ((LABEL_BITS + 1,), (1, LABEL_BITS + 1), (0,), (2, 1), (1, 1)):
        with pytest.raises(RingError):
            ExtElement(r, {label: r.one()})
    with pytest.raises(RingError):
        ExtElement.generator(r, LABEL_BITS + 1)
    with pytest.raises(RingError):
        ext_mul_monomial((LABEL_BITS + 1,), ExtElement.generator(r, 1))
    with pytest.raises(RingError):
        parse_ext(r, f"t1*u{LABEL_BITS + 1}")
    # the widest index stays below the least monomial: t1 * e_() leads
    top = ExtElement.generator(r, LABEL_BITS)
    e = top + ExtElement(r, {(): r.parse("t1")})
    assert e.lt() == (r.mono({"t1": 1}), 1, ())
    assert top.lt() == (0, 1, (LABEL_BITS,))
    assert not top.uses_variable("t1")
    assert str(e) == f"t1 + u{LABEL_BITS}"


# -- coefficient arithmetic against per-term field calls -------------------------
#
# A reference element is {(label, exponents): coefficient}, `exponents` the
# tuple of t_3, t_2, t_1 exponents, with every sum made by a field call.

REF_VARS = ("t3", "t2", "t1")


def _ref_sign(a, b):
    """The shuffle sign of e_a * e_b, 0 when the labels meet; counted
    here, apart from superalg."""
    if set(a) & set(b):
        return 0
    return -1 if sum(1 for i in a for j in b if i > j) & 1 else 1


def _ref_add(field, acc, key, c):
    acc[key] = field.add(acc.get(key, field.zero), c)


def _ref_clean(field, acc):
    return {k: c for k, c in acc.items() if c != field.zero}


def assert_canonical(field, coeffs):
    """In 1..p-1 over F_p; over Q a nonzero int, or a Fraction whose
    denominator is not 1."""
    for c in coeffs:
        if field.char:
            assert type(c) is int and 0 < c < field.char
        else:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1), c
            assert c != 0


def scalars(field, bound):
    """Scalars of `field` up to `bound`; over Q ints, Fractions, and
    integral Fractions such as Fraction(4, 2), which are stored as ints."""
    if field.char:
        return st.integers(-bound, bound).map(field.from_int)
    return st.one_of(st.integers(-bound, bound),
                     st.builds(Fraction, st.integers(-bound, bound),
                               st.sampled_from((1, 2, 3))))


def _ref_element(r, ref):
    entries = {}
    for (label, exps), c in ref.items():
        mono = r.mono(dict(zip(REF_VARS, exps)))
        entries.setdefault(label, {})[mono] = c
    return ExtElement(r, {s: r.poly(d) for s, d in entries.items()}, U)


def _ref_wedge(field, rows, labels):
    """The minors of `rows` over every len(rows)-subset of `labels`, by the
    Leibniz formula with field calls."""
    out = {}
    k = len(rows)
    for cols in itertools.combinations(range(len(labels)), k):
        det = field.zero
        for perm in itertools.permutations(range(k)):
            inversions = sum(1 for i in range(k) for j in range(i + 1, k)
                             if perm[i] > perm[j])
            term = field.one
            for i in range(k):
                term = field.mul(term, rows[i][cols[perm[i]]])
            det = field.sub(det, term) if inversions & 1 else field.add(
                det, term)
        out[tuple(labels[j] for j in cols)] = det
    return _ref_clean(field, out)


@st.composite
def coefficient_cases(draw):
    field = draw(st.sampled_from([F2, PrimeField(5), Q]))
    labels = [()] + [s for k in (1, 2) for s in itertools.combinations(
        range(1, 5), k)]
    exps = st.tuples(*[st.integers(0, 2)] * len(REF_VARS))

    def element():
        acc = {}
        for label, e, c in draw(st.lists(st.tuples(
                st.sampled_from(labels), exps, scalars(field, 3)),
                max_size=5)):
            _ref_add(field, acc, (label, e), c)
        return _ref_clean(field, acc)

    poly = {}
    for e, c in draw(st.lists(st.tuples(exps, scalars(field, 3)),
                              max_size=3)):
        _ref_add(field, poly, e, c)
    rows = draw(st.lists(st.lists(scalars(field, 2), min_size=4,
                                  max_size=4), min_size=1, max_size=3))
    c = draw(scalars(field, 3))
    return field, element(), element(), _ref_clean(field, poly), rows, c


@settings(max_examples=100, deadline=None)
@given(coefficient_cases())
def test_ext_arithmetic_matches_field_call_reference(case):
    """Sums, negation, scaling, products and wedge expansion
    agree with per-term field calls over F_2, F_5 and Q, and store only
    canonical coefficients."""
    from recplane.oracle import wedge_expand

    field, a, b, poly, rows, c = case
    r = PolyRing(field, REF_VARS)
    ea, eb = _ref_element(r, a), _ref_element(r, b)

    def combine(op):
        acc = dict(a)
        for key, x in b.items():
            acc[key] = op(acc.get(key, field.zero), x)
        return _ref_clean(field, acc)

    prod, poly_prod = {}, {}
    for (sa, ma), ca in a.items():
        for (sb, mb), cb in b.items():
            sign = _ref_sign(sa, sb)
            if sign:
                x = field.mul(ca, cb)
                _ref_add(field, prod, (tuple(sorted(sa + sb)),
                                       tuple(map(sum, zip(ma, mb)))),
                         x if sign > 0 else field.neg(x))
        for mp, cp in poly.items():
            _ref_add(field, poly_prod, (sa, tuple(map(sum, zip(ma, mp)))),
                     field.mul(ca, cp))
    poly_elem = r.poly({r.mono(dict(zip(REF_VARS, e))): x
                        for e, x in poly.items()})
    for got, ref in (
            (ea + eb, combine(field.add)),
            (ea - eb, combine(field.sub)),
            (-ea, {k: field.neg(x) for k, x in a.items()}),
            (ea.scale(c), _ref_clean(field, {k: field.mul(c, x)
                                             for k, x in a.items()})),
            (ea.poly_mul(poly_elem), _ref_clean(field, poly_prod)),
            (ext_mul(ea, eb), _ref_clean(field, prod))):
        assert got == _ref_element(r, ref)
        assert_canonical(field, got._t.values())
    labels = (1, 2, 3, 4)
    got = wedge_expand(field, rows, labels)
    assert got == _ref_wedge(field, rows, labels)
    assert_canonical(field, got.values())
