"""Exact coefficient fields: prime fields F_p and the rationals.

Scalars are plain Python values: ints over F_p; over Q an int when
integral, else a ``Fraction``.  The field object carries the context and
all arithmetic.  F_p values are kept as canonical representatives in
[0, p).  Over Q the constants and every method that returns a scalar keep
the rule, and `PolyRing.canonical` keeps it for every summed coefficient.
`PrimeField(p)` tests p by trial division and Miller-Rabin on the 13
primes up to 41, which is exact for p < 3,317,044,064,679,887,385,961,981
(Sorenson and Webster 2015), and refuses a larger p.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Invalid field specification or cross-field operation."""


# 41 is needed: the composite 318,665,857,834,031,151,167,461 passes the
# twelve bases up to 37
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Trial division by the bases, then a Miller-Rabin round on each;
    exact for p < _PRIME_BOUND (Sorenson and Webster 2015)."""
    if p < 2:
        return False
    for q in _BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field with p elements, p prime."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= _PRIME_BOUND:
            raise FieldError(f"p = {p} is too large: primality is decided "
                             f"only below {_PRIME_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    zero = 0
    one = 1

    def from_int(self, k: int):
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def parse(self, text: str):
        if "/" in text:
            num, den = text.split("/", 1)
            den = int(den) % self.p
            if den == 0:
                raise FieldError(f"{text!r} divides by zero in F_{self.p}")
            return self.div(int(num) % self.p, den)
        return int(text) % self.p

    def fmt(self, a) -> str:
        return str(a % self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def _demote(q):
    """An integral Fraction as its int; any other scalar as it is."""
    return q.numerator if q.__class__ is Fraction and q.denominator == 1 else q


class RationalField:
    """The rationals.  A scalar is an int when it is integral, else a
    `Fraction`; both are exact.  Every scalar this class returns keeps
    that rule.  An integral Fraction that arises inside a division loop
    equals its int and hashes like it."""

    __slots__ = ()

    char = 0
    zero = 0
    one = 1

    def from_int(self, k: int):
        return int(k)

    def add(self, a, b):
        return _demote(a + b)

    def sub(self, a, b):
        return _demote(a - b)

    def mul(self, a, b):
        return _demote(a * b)

    def neg(self, a):
        return _demote(-a)

    # an int over an int is a float: only a Fraction operand keeps `/`
    # exact, and an integral quotient of two ints is their `//`
    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if isinstance(a, Fraction):
            return _demote(1 / a)
        return a if a == 1 or a == -1 else Fraction(1, a)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            return _demote(a / b)
        return a // b if a % b == 0 else Fraction(a, b)

    def parse(self, text: str):
        try:
            return _demote(Fraction(text))
        except ZeroDivisionError as exc:
            raise FieldError(f"{text!r} divides by zero") from exc

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


def json_int(value, name: str) -> int:
    """A JSON integer; bool is a subclass of int, and floats would truncate."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise FieldError(f"{name} must be an integer, not {value!r}")
    return value


def field_to_json(field) -> dict:
    if isinstance(field, PrimeField):
        return {"type": "prime", "p": field.p}
    return {"type": "rational"}


def field_from_json(data: dict):
    kind = data.get("type")
    if kind == "prime":
        return PrimeField(json_int(data["p"], "p"))
    if kind == "rational":
        return RationalField()
    raise FieldError(f"unknown field type {kind!r}")
