"""`str()` of polynomials and exterior elements against a reference copy of
the earlier renderer, which sorted each monomial's (name, exponent) pairs
by family and index one monomial at a time."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recplane.fields import PrimeField, RationalField
from recplane.polynomials import PolyRing, mono_pairs
from recplane.superalg import (
    DX,
    DZ,
    U,
    ExtElement,
    UnconvertibleMonomial,
    ext_name,
    xi_from_tdz,
)

# -- the reference renderer ----------------------------------------------------


def _ref_display_key(name):
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


def _ref_mono_items(ring, mono):
    n = len(ring.variables)
    name_of = {n - i: v for i, v in enumerate(ring.variables)}
    items = [(name_of[r], e) for r, e in mono_pairs(mono)]
    items.sort(key=lambda it: _ref_display_key(it[0]))
    return items


def _ref_scalar(field, c):
    # F_p representatives are never negative, so only a rational is
    if c < 0:
        return True, field.fmt(-c)
    return False, field.fmt(c)


def _ref_terms(ring, pieces):
    chunks = []
    for terms, s, ext in pieces:
        for m, c in terms:
            neg, mag = _ref_scalar(ring.field, c)
            factors = []
            if (not m and not s) or mag != "1":
                factors.append(mag)
            for name, x in _ref_mono_items(ring, m):
                factors.append(name if x == 1 else f"{name}^{x}")
            if ext:
                factors.append(ext)
            text = "*".join(factors)
            if not chunks:
                chunks.append(f"-{text}" if neg else text)
            else:
                chunks.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(chunks)


def ref_poly(p):
    if p.is_zero():
        return "0"
    return _ref_terms(p.ring, [(p.terms, (), "")])


def ref_ext(e):
    if e.is_zero():
        return "0"
    pieces = []
    for s in e.labels():
        ext = "*".join(ext_name(e.kind, i) for i in s)
        pieces.append((e.entry(s).terms, s, ext))
    return _ref_terms(e.ring, pieces)


def ref_unconvertible(ring, m, s):
    name = "*".join(f"{n}^{x}" if x > 1 else n for n, x in _ref_mono_items(ring, m))
    dzs = "*".join(f"dz{j}" for j in s)
    return f"{name or '1'}*{dzs}"


# -- strategies -----------------------------------------------------------------

FIELDS = (PrimeField(2), PrimeField(5), RationalField())
KINDS = (U, DZ, DX, frozenset(), frozenset({1}), frozenset({2, 4}),
         frozenset({1, 2, 3, 4, 5}))
LABELS = st.lists(st.integers(1, 5), max_size=3, unique=True).map(
    lambda s: tuple(sorted(s)))


@st.composite
def rings(draw):
    """A ring over F_2, F_5 or Q whose variables, in a drawn order, come
    from several families, with indices past 9 and names without one."""
    field = draw(st.sampled_from(FIELDS))
    names = draw(st.lists(
        st.builds(lambda h, i: h + ("" if i is None else str(i)),
                  st.sampled_from(("t", "z", "x", "w")),
                  st.none() | st.integers(1, 12)),
        min_size=1, max_size=6, unique=True))
    return PolyRing(field, tuple(draw(st.permutations(names))))


def coefficients(field):
    """Over Q plain ints and Fractions, integral ones among them, which the
    ring stores as ints."""
    if field.char == 0:
        return st.one_of(
            st.sampled_from((1, -1, 2, -3)),
            st.fractions(min_value=-5, max_value=5, max_denominator=7),
        )
    return st.integers(0, field.char - 1)


@st.composite
def polynomials(draw, ring):
    d = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = {v: draw(st.integers(0, 3)) for v in ring.variables}
        d[ring.mono(exps)] = draw(coefficients(ring.field))
    return ring.poly(d)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_polynomial_text_matches_the_reference(data):
    ring = data.draw(rings())
    p = data.draw(polynomials(ring))
    assert str(p) == ref_poly(p)
    assert repr(p) == f"<{ref_poly(p)}>"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ext_element_text_matches_the_reference(data):
    ring = data.draw(rings())
    kind = data.draw(st.sampled_from(KINDS))
    labels = data.draw(st.lists(LABELS, max_size=4, unique=True))
    e = ExtElement(ring, {s: data.draw(polynomials(ring)) for s in labels},
                   kind)
    assert str(e) == ref_ext(e)


@st.composite
def shared_text_cases(draw):
    """(ring, kind, polynomials, elements): a ring over F_2, F_5 or Q, an
    exterior kind, and 1-4 polynomials and elements of that ring and kind.
    Bare constants, unit and minus-unit coefficients, negative fractions
    and zero are each drawn often."""
    ring = draw(rings())
    kind = draw(st.sampled_from(KINDS))
    field = ring.field
    if field.char == 0:
        units = st.sampled_from((1, -1, Fraction(-1), Fraction(-1, 2),
                                 Fraction(-7, 3)))
        coeff = st.one_of(units, coefficients(field))
    else:
        coeff = st.one_of(st.sampled_from((1, field.char - 1)),
                          st.integers(1, field.char - 1))
    mono = st.one_of(
        st.just({}),
        st.dictionaries(st.sampled_from(ring.variables), st.integers(0, 3),
                        max_size=3)).map(ring.mono)

    def poly():
        return ring.poly(draw(st.dictionaries(mono, coeff, max_size=4)))

    polys = [poly() for _ in range(draw(st.integers(1, 4)))]
    elements = [
        ExtElement(ring, {s: poly() for s in draw(
            st.lists(LABELS, max_size=4, unique=True))}, kind)
        for _ in range(draw(st.integers(1, 4)))]
    return ring, kind, polys, elements


@settings(max_examples=200, deadline=None)
@given(shared_text_cases())
def test_shared_monomial_texts_match_the_per_term_reference(case):
    """One `texts` dict, shared as a chart or a presentation shares it by
    the polynomials and exterior elements of one ring and kind, leaves
    every text equal to the per-term reference, as does `str()`."""
    ring, kind, polys, elements = case
    texts: dict = {}
    for p in polys:
        assert str(p) == ref_poly(p)
        assert p.text(texts) == ref_poly(p)
    for e in elements:
        assert str(e) == ref_ext(e)
        assert e.text(texts) == ref_ext(e)
    # a second pass reads every monomial and label from the dict
    for x, ref in [(p, ref_poly(p)) for p in polys] + [
            (e, ref_ext(e)) for e in elements]:
        assert x.text(texts) == ref


def test_render_examples():
    """Units, constants and signs, in a ring whose order is not the
    display order."""
    q = RationalField()
    ring = PolyRing(q, ("z2", "t10", "t2", "z1"))
    p = ring.parse("-t10*z1 + 3/2*t2^2 - 1 + z2")
    assert str(p) == "z2 - t10*z1 + 3/2*t2^2 - 1"
    e = ExtElement(ring, {(): ring.parse("-1"), (1, 3): ring.parse("t2 - 1")},
                   frozenset({3}))
    assert str(e) == "-1 + t2*u1*dz3 - u1*dz3"
    # int coefficients over Q, as every integral rational is stored
    xy = PolyRing(q, ("x", "y"))
    x, y = xy.mono({"x": 1}), xy.mono({"y": 1})
    assert str(xy.poly({x: 2, y: -3})) == "2*x - 3*y"
    assert str(xy.poly({x: -1, 0: -1})) == "-x - 1"
    assert str(xy.poly({x: Fraction(-4, 2), y: Fraction(1, 2)})) == (
        "-2*x + 1/2*y")
    f5 = PolyRing(PrimeField(5), ("t2", "t1"))
    assert str(f5.parse("-t1 + 1")) == "4*t1 + 1"
    assert str(ExtElement.zero(f5)) == "0" and str(f5.zero()) == "0"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unconvertible_monomial_text_matches_the_reference(data):
    """xi_from_tdz names the first monomial that lacks a t factor for one
    of its dz factors, in the same words as before."""
    field = data.draw(st.sampled_from(FIELDS))
    ring = PolyRing(field, ("t12", "t5", "t4", "t3", "t2", "t1"))
    labels = data.draw(st.lists(
        st.lists(st.sampled_from((1, 2, 3, 4, 5, 12)), min_size=1,
                 max_size=3, unique=True).map(lambda s: tuple(sorted(s))),
        min_size=1, max_size=3, unique=True))
    e = ExtElement(ring, {s: data.draw(polynomials(ring)) for s in labels},
                   DZ)
    # entries are visited in insertion order, not label order, so the
    # failing monomial may be any of the element's unconvertible ones
    texts = {
        ref_unconvertible(ring, m, s)
        for s in e.labels() for m, _ in e.entry(s).terms
        if not ring.mono_divides(ring.mono({f"t{j}": 1 for j in s}), m)
    }
    if not texts:
        xi_from_tdz(e)
        return
    with pytest.raises(UnconvertibleMonomial) as info:
        xi_from_tdz(e)
    got = info.value.mono_text
    assert got in texts
    assert str(info.value) == (f"monomial {got} has a dz factor without "
                               f"its t factor")
