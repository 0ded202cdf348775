"""Sparse multivariate polynomials over an exact field, lex-ordered.

A ring fixes an explicit variable list, greatest first; there is no implicit
alphabetical order anywhere.  A monomial is one int: every variable owns a
field of `_W` bits, the greatest variable the highest field, and the top bit
of each field is a guard that a valid monomial leaves clear.  With that
layout (Bachmann-Schoenemann 1998) int comparison is the lexicographic
monomial order, the unit monomial is 0, a product is `a + b` and a quotient
`a - b`, and `b` divides `a` exactly when `a - b` is non-negative with every
bit of the ring's `guard` mask clear.

Two exponents up to MAX_EXPONENT sum below the next field, so an exponent
that passes MAX_EXPONENT in a product sets its field's guard bit and never
carries into the next variable.  The products made here and in the
division loops of `groebner` and `modules` are tested against the guard
mask of their ring, which covers every variable, and a set guard bit raises
ExponentOverflow (a RingError); `PolyRing.mono` refuses an exponent above
MAX_EXPONENT.

The layout stays in this module.  Elsewhere a monomial is read with
`mono_pairs`, or, in hot loops, as `(m >> ring.shift_of(name)) &
MAX_EXPONENT`.  Printing (`format_terms`) walks the ring's display order,
built on the first print.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

_W = 16  # bits per variable, guard bit included
MAX_EXPONENT = (1 << (_W - 1)) - 1  # also the mask of one exponent field


class RingError(ValueError):
    """Configuration error: mismatched rings, orders or variables."""


class ExponentOverflow(RingError):
    """A product has an exponent above MAX_EXPONENT."""

    def __init__(self):
        super().__init__(f"a product has an exponent above {MAX_EXPONENT}")


def mono_pairs(m: int) -> list:
    """(rank, exponent) pairs of monomial m, greatest variable first.

    Rank 1 is the least variable of the ring; only nonzero exponents appear.
    """
    out = []
    rank = 1
    while m:
        e = m & MAX_EXPONENT
        if e:
            out.append((rank, e))
        m >>= _W
        rank += 1
    out.reverse()
    return out


def _check_guard(guard: int, monos) -> None:
    for m in monos:
        if m & guard:
            raise ExponentOverflow()


def _display_key(name: str):
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


class PolyRing:
    """F[v_1, ..., v_k] under the lex order induced by `variables`.

    `variables` lists the names greatest first; e.g. ("s", "t2", "t1") puts
    s > t2 > t1.  `guard` has the guard bit of every variable's field set.
    """

    __slots__ = ("field", "variables", "guard", "_shift_of", "_display")

    def __init__(self, field, variables: Iterable[str]):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise RingError("duplicate variable names")
        n = len(self.variables)
        # rank r = n - i sits at bit (r - 1) * _W
        self._shift_of = {v: (n - 1 - i) * _W for i, v in enumerate(self.variables)}
        self._display = None
        fields = ((1 << (n * _W)) - 1) // ((1 << _W) - 1)  # bit 0 of each field
        self.guard = fields << (_W - 1)

    # ---- construction ----
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {0: self.field.one})

    def constant(self, c) -> "Polynomial":
        c = self.field.from_int(c) if isinstance(c, int) else c
        return Polynomial(self, {0: c} if c != self.field.zero else {})

    def variable(self, name: str) -> "Polynomial":
        return Polynomial(self, {self.mono({name: 1}): self.field.one})

    def term(self, coeff, exps: dict) -> "Polynomial":
        coeff = self.field.from_int(coeff) if isinstance(coeff, int) else coeff
        if coeff == self.field.zero:
            return self.zero()
        return Polynomial(self, {self.mono(exps): coeff})

    def poly(self, d: dict) -> "Polynomial":
        """Wrap {mono: coeff}; zero coefficients are dropped.

        Over F_p a coeff may be any int of its residue class, such as a sum
        of products left unreduced: it is reduced `% p` here, once per
        monomial.  The dict is not kept."""
        p = self.field.char
        if p:
            return Polynomial(self, {m: r for m, c in d.items()
                                     if (r := c % p)})
        return Polynomial(self, {m: c for m, c in d.items() if c})

    def mono(self, exps: dict) -> int:
        """The monomial with exponents {name: exponent}."""
        m = 0
        for name, e in exps.items():
            if e < 0:
                raise RingError(f"negative exponent for {name}")
            if e:
                if e > MAX_EXPONENT:
                    raise RingError(
                        f"exponent {e} of {name} is above {MAX_EXPONENT}")
                try:
                    m += e << self._shift_of[name]
                except KeyError:
                    raise RingError(f"variable {name!r} not in ring") from None
        return m

    def display_order(self) -> tuple:
        """(shift, name) of every variable in display order: by family, then
        index.  Built on the first call, so rings that are never printed
        never sort their names."""
        if self._display is None:
            self._display = tuple(
                (self._shift_of[v], v)
                for v in sorted(self.variables, key=_display_key)
            )
        return self._display

    def mono_items(self, mono):
        """(name, exponent) pairs of the monomial, in display order."""
        items = []
        for shift, name in self.display_order():
            if not mono:
                break
            e = (mono >> shift) & MAX_EXPONENT
            if e:
                items.append((name, e))
                mono -= e << shift
        return items

    def shift_of(self, name: str) -> int:
        """Bit offset of `name`: its exponent in m is
        `(m >> shift) & MAX_EXPONENT`, and `e << shift` is name^e."""
        return self._shift_of[name]

    # ---- monomial arithmetic (hot loops inline these) ----
    def mono_mul(self, a: int, b: int) -> int:
        m = a + b
        if m & self.guard:
            raise ExponentOverflow()
        return m

    def mono_divides(self, b: int, a: int) -> bool:
        """True when monomial b divides monomial a."""
        d = a - b
        return d >= 0 and not d & self.guard

    def mono_div(self, a: int, b: int) -> int:
        """a / b; b must divide a."""
        if not self.mono_divides(b, a):
            raise RingError("monomial quotient is not a monomial")
        return a - b

    def mono_lcm(self, a: int, b: int) -> int:
        guard = self.guard
        # a field's guard bit survives (a | guard) - b exactly when a >= b
        # there; no field borrows from the next
        ge = ((a | guard) - b) & guard
        pick_a = ge - (ge >> (_W - 1))  # the exponent bits of those fields
        return (a & pick_a) | (b & ~pick_a)

    @staticmethod
    def mono_degree(a: int) -> int:
        d = 0
        while a:
            d += a & MAX_EXPONENT
            a >>= _W
        return d

    # ---- moving between rings (ranks do not move, so neither do monomials) ----
    def lift(self, poly: "Polynomial", parent: "PolyRing") -> "Polynomial":
        """Reinterpret in `parent`, which extends self by greater variables."""
        k = len(parent.variables) - len(self.variables)
        if k < 0 or parent.variables[k:] != self.variables:
            raise RingError("target ring does not extend this ring")
        return Polynomial(parent, dict(poly._d))

    def restrict(self, poly: "Polynomial", sub: "PolyRing") -> "Polynomial":
        """Reinterpret in the subring `sub` obtained by dropping greatest vars."""
        k = len(self.variables) - len(sub.variables)
        if k < 0 or self.variables[k:] != sub.variables:
            raise RingError("subring must drop a prefix of greatest variables")
        # the lex-greatest monomial involves a dropped variable if any does
        if poly._d and max(poly._d) >> (len(sub.variables) * _W):
            raise RingError("polynomial involves dropped variables")
        return Polynomial(sub, dict(poly._d))

    def parse(self, text: str) -> "Polynomial":
        d = {}
        zero = self.field.zero
        for coeff_text, exps in parse_terms(text):
            c = self.field.parse(coeff_text)
            m = self.mono(exps)
            c = self.field.add(d.get(m, zero), c)
            if c == zero:
                d.pop(m, None)
            else:
                d[m] = c
        return Polynomial(self, d)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"PolyRing({self.field!r}, {self.variables})"


class Polynomial:
    """Immutable sparse polynomial; canonical form, structural equality."""

    __slots__ = ("ring", "_d", "_terms")

    def __init__(self, ring: PolyRing, d: dict):
        self.ring = ring
        self._d = d
        self._terms = None

    # ---- queries ----
    def is_zero(self) -> bool:
        return not self._d

    @property
    def terms(self):
        """(monomial, coefficient) pairs, strictly descending."""
        if self._terms is None:
            self._terms = tuple(
                (m, self._d[m]) for m in sorted(self._d, reverse=True)
            )
        return self._terms

    def lm(self):
        if not self._d:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._d)

    def lc(self):
        return self._d[self.lm()]

    def lt(self):
        m = self.lm()
        return m, self._d[m]

    # ---- arithmetic ----
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        field = self.ring.field
        if field.char == 2:
            return Polynomial(
                self.ring, dict.fromkeys(self._d.keys() ^ other._d.keys(), 1)
            )
        d = dict(self._d)
        zero = field.zero
        for m, c in other._d.items():
            s = field.add(d.get(m, zero), c)
            if s == zero:
                d.pop(m, None)
            else:
                d[m] = s
        return Polynomial(self.ring, d)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        field = self.ring.field
        if field.char == 2:
            return Polynomial(
                self.ring, dict.fromkeys(self._d.keys() ^ other._d.keys(), 1)
            )
        d = dict(self._d)
        zero = field.zero
        for m, c in other._d.items():
            s = field.sub(d.get(m, zero), c)
            if s == zero:
                d.pop(m, None)
            else:
                d[m] = s
        return Polynomial(self.ring, d)

    def __neg__(self) -> "Polynomial":
        field = self.ring.field
        if field.char == 2:
            return self
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self._d.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        field = self.ring.field
        a, b = self._d, other._d
        if len(a) > len(b):
            a, b = b, a
        # an overflowed product is still a unique int, so checking the
        # monomials that survive cancellation is enough
        if field.char == 2:
            acc = set()
            for ma in a:
                acc ^= {ma + mb for mb in b}
            _check_guard(self.ring.guard, acc)
            return Polynomial(self.ring, dict.fromkeys(acc, 1))
        acc: dict = {}
        get = acc.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                acc[m] = get(m, 0) + ca * cb
        product = self.ring.poly(acc)
        _check_guard(self.ring.guard, product._d)
        return product

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        if c == field.zero:
            return Polynomial(self.ring, {})
        if c == field.one:
            return self
        return self.ring.poly({m: c * x for m, x in self._d.items()})

    def mul_term(self, c, mono) -> "Polynomial":
        """self * c * x^mono."""
        field = self.ring.field
        if c == field.zero:
            return Polynomial(self.ring, {})
        if c == field.one:
            d = {m + mono: x for m, x in self._d.items()}
        else:
            d = {m + mono: field.mul(c, x) for m, x in self._d.items()}
        _check_guard(self.ring.guard, d)
        return Polynomial(self.ring, d)

    def monic(self) -> "Polynomial":
        if not self._d:
            return self
        c = self.lc()
        if c == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(c))

    def pow(self, k: int) -> "Polynomial":
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    # ---- structure ----
    def _check(self, other):
        # rings are shared objects, so the by-value test is rarely reached
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingError("polynomials from different rings")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and (other.ring is self.ring or other.ring == self.ring)
            and other._d == self._d
        )

    def __hash__(self):
        return hash((self.ring.variables, self.terms))

    def __str__(self):
        return format_terms(self.ring, ((self, ""),))

    def __repr__(self):
        return f"<{self}>"


def format_terms(ring: PolyRing, pieces) -> str:
    """The display text of a sum of terms, "0" when there are none.

    `pieces` yields `(poly, tail)` pairs: a polynomial of `ring`, whose
    terms are written greatest first, and the text of the factor written
    after each of its terms ("" for none; an exterior monomial for
    `ExtElement`).  A unit coefficient is written only for a bare
    constant, and a negative rational coefficient as a minus sign; F_p
    scalars are never negative.
    """
    fmt = ring.field.fmt
    chunks = []
    for poly, tail in pieces:
        for m, c in sorted(poly._d.items(), reverse=True):
            neg = isinstance(c, Fraction) and c < 0
            mag = fmt(-c if neg else c)
            factors = [mag] if mag != "1" or not (m or tail) else []
            for name, e in ring.mono_items(m):
                factors.append(name if e == 1 else f"{name}^{e}")
            if tail:
                factors.append(tail)
            text = "*".join(factors)
            if chunks:
                chunks.append(("- " if neg else "+ ") + text)
            else:
                chunks.append("-" + text if neg else text)
    return " ".join(chunks) or "0"


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z]+\d*)|(?P<op>[*^+\-()]))")


def tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad token at {text[pos:pos + 10]!r}")
            break
        pos = m.end()
        if m.group("num"):
            out.append(("num", m.group("num")))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def parse_terms(text: str):
    """Parse a sum of product terms into (coefficient-text, {name: exp}) pairs.

    Grammar: term ((+|-) term)*; term: factor ('*' factor)*;
    factor: number | name ['^' number].  Signs fold into the coefficient text
    as a leading '-' count; the caller's field parses the number.
    """
    tokens = tokenize(text)
    if not tokens:
        return []
    terms = []
    i = 0
    n = len(tokens)

    def parse_term(sign):
        nonlocal i
        coeff_num = None
        exps: dict = {}
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if kind == "op" and val in "+-" and not expect_factor:
                break
            if kind == "num":
                if coeff_num is None:
                    coeff_num = val
                else:
                    raise ValueError("two numeric factors in one term")
                i += 1
            elif kind == "name":
                name = val
                i += 1
                e = 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num" or "/" in tokens[i][1]:
                        raise ValueError("exponent must be an integer")
                    e = int(tokens[i][1])
                    i += 1
                exps[name] = exps.get(name, 0) + e
            elif kind == "op" and val == "*":
                i += 1
                expect_factor = True
                continue
            else:
                raise ValueError(f"unexpected token {val!r}")
            expect_factor = False
        if expect_factor:
            raise ValueError("dangling operator")
        coeff = coeff_num if coeff_num is not None else "1"
        if sign < 0:
            coeff = "-" + coeff
        return coeff, exps

    sign = 1
    while i < n:
        kind, val = tokens[i]
        if kind == "op" and val in "+-":
            sign = -sign if val == "-" else sign
            i += 1
            continue
        terms.append(parse_term(sign))
        sign = 1
    return terms
