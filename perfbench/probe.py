"""A fixed slice of pure-Python work that gauges the host's speed.

The benchmark runs on shared virtual machines whose speed can change by a
factor of two for minutes at a time, with nothing else running in the
machine.  A timing taken alone cannot tell a slower program from a slower
host.  So a pass runs `probe()` once after set-up and once after every item,
and scales each timing by `speed()`: the reference probe time over the
median of the probe times measured around it.  A change to the program
moves its timings and not the probe; a change of host speed moves both,
and cancels.

The probe imports nothing from recplane, so no change to the program can
change it.  Its work is the kind recplane's hot loops do: reduction of
sparse polynomials, with exponent tuples as dict keys, over F_p and over
`Fraction`.  The cyclic garbage collector is off while it runs, so objects
the program left behind do not slow it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Seconds one probe takes at the reference speed: the median probe time
# inside benchmark passes on a 2-vCPU Intel Xeon virtual machine, Python
# 3.11.7, in its fast level.  Normalized timings are in seconds at that
# speed.  (A probe run alone, `python3 perfbench/probe.py`, is a few percent
# faster: the items leave the caches cold.)
REF_S = 0.00387


class _ModP:
    zero = 0

    def __init__(self, p: int):
        self.p = p

    def mul(self, a, b):
        return a * b % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p


class _Rational:
    zero = Fraction(0)

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return a - b

    def div(self, a, b):
        return a / b


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _poly(seed: int, terms: int, top: int) -> dict:
    out = {}
    x = seed
    for _ in range(terms):
        x = (x * 1103515245 + 12345) % 2147483648
        mono = (x % top, (x >> 4) % top, (x >> 8) % top, (x >> 12) % top)
        out[mono] = 1 + x % 97
    return out


# Lead terms x_i^2 over lex-smaller tails, so every remainder term has all
# exponents below 2.
_BASIS = [
    {(2, 0, 0, 0): 1, (1, 1, 0, 0): 3, (0, 2, 1, 0): 5, (0, 0, 0, 0): 2},
    {(0, 2, 0, 0): 1, (0, 1, 1, 1): 2, (0, 0, 2, 0): 7},
    {(0, 0, 2, 0): 1, (0, 0, 1, 1): 4, (0, 0, 0, 0): 1},
    {(0, 0, 0, 2): 1, (0, 0, 0, 1): 6, (0, 0, 0, 0): 3},
]


def _normal_form(field, f: dict, basis: list) -> dict:
    """The remainder of f under lex division by basis, in the style of
    recplane's reduction loops: dict terms, `max` for the lead term,
    field arithmetic through method calls."""
    lead = [(max(g), g[max(g)], g) for g in basis]
    work = dict(f)
    rem = {}
    while work:
        m = max(work)
        c = work[m]
        for lm, lc, g in lead:
            if all(a >= b for a, b in zip(m, lm)):
                break
        else:
            rem[m] = c
            del work[m]
            continue
        factor = field.div(c, lc)
        shift = tuple(a - b for a, b in zip(m, lm))
        for gm, gc in g.items():
            key = _mono_mul(gm, shift)
            val = field.sub(work.get(key, field.zero), field.mul(factor, gc))
            if val == field.zero:
                work.pop(key, None)
            else:
                work[key] = val
    return rem


_FP = _ModP(32003)
_F_FP = _poly(1, 20, 4)
_QQ = _Rational()
_F_QQ = {m: Fraction(c) for m, c in _poly(2, 12, 3).items()}
_BASIS_QQ = [{m: Fraction(c) for m, c in g.items()} for g in _BASIS]


def _work() -> int:
    return (len(_normal_form(_FP, _F_FP, _BASIS))
            + len(_normal_form(_QQ, _F_QQ, _BASIS_QQ)))


def probe() -> float:
    """Seconds one fixed slice of work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(probe_s) -> float:
    """How much faster than the reference the host ran, by the median of
    these probe times: multiply a timing by it to get seconds at the
    reference speed.  The median, so that a probe the scheduler cut into
    does not count for the probes around it."""
    return REF_S / statistics.median(probe_s)


if __name__ == "__main__":
    for _ in range(5):
        probe()
    times = [probe() for _ in range(200)]
    print(f"probe median {statistics.median(times):.6f} s, "
          f"quartiles {statistics.quantiles(times, n=4)}")
