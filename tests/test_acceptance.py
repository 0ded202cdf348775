"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The corpus-scale criteria share a single session run of the verification
corpus (and a second full run feeds the determinism criterion), so invoking
this file exercises everything end to end:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import time

import pytest

from recplane.arrangement import Arrangement
from recplane.corpus import acceptance_corpus, enumerate_arrangements
from recplane.fields import PrimeField, RationalField
from recplane.groebner import groebner_ideal, ideal_equal, is_groebner
from recplane.modules import is_module_groebner, module_groebner
from recplane.oracle import (
    count_points,
    hilbert,
    kernel_I,
    kernel_K_degree,
    verify_groebner_lemma,
    verify_lemma7,
    verify_minimal,
    verify_theorem1,
    verify_theorem2,
)
from recplane.relations import commutative_generators, t_ring
from recplane.superalg import ExtElement, parse_ext

F2 = PrimeField(2)
Q = RationalField()

E1 = Arrangement(F2, 4, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
E2 = Arrangement(Q, 2, [[1, 0], [0, 1], [-1, -1]])
E3 = Arrangement(F2, 2, [[1, 0], [0, 1], [1, 1]])

CORPUS_SEED = 7


def _report(criterion: str, ok: bool, extra: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert ok, line


def run_corpus_once():
    """One full corpus pass; returns (results, serialized JSON report)."""
    results = []
    for name, arr in acceptance_corpus(CORPUS_SEED):
        reports = [verify_theorem2(arr)]
        if arr.field.char:
            if arr.m - arr.rank >= 2:
                reports.append(verify_minimal(arr))
            reports.append(count_points(arr))
        reports.append(verify_lemma7(arr))
        results.append(
            {"name": name, "reports": [r.to_json() for r in reports]}
        )
    blob = json.dumps(results, indent=2, sort_keys=True)
    return results, blob


@pytest.fixture(scope="session")
def corpus_run():
    t0 = time.monotonic()
    results, blob = run_corpus_once()
    elapsed = time.monotonic() - t0
    return results, blob, elapsed


def _statuses(results, check):
    out = {}
    for entry in results:
        for rep in entry["reports"]:
            if rep["check"] == check:
                out[entry["name"]] = rep
    return out


def test_criterion_1_four_cycle_presentation_and_kernel():
    t0 = time.monotonic()
    pres = commutative_generators(E1)
    text = str(pres.generators[0].element)
    exact = text == "t2*t3*t4 + t1*t3*t4 + t1*t2*t4 + t1*t2*t3"
    only = len(pres.generators) == 1
    rep = verify_theorem1(E1)
    elapsed = time.monotonic() - t0
    _report(
        "1 (four-line presentation + elimination kernel)",
        exact and only and rep.ok and elapsed < 5,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_super_presentation_worked_relations():
    t0 = time.monotonic()
    from recplane.relations import super_generators

    pres = super_generators(E2)
    ring = t_ring(E2)
    by_subset = {g.subset: g.element for g in pres.generators}
    want_single = parse_ext(ring, "u2*t1 + u2*t3 - u1*t3 - u3*t1")
    want_pair = parse_ext(ring, "u1*u2 + u2*u3 + u3*u1")
    got_single = by_subset[(2,)]
    got_pair = by_subset[(1, 2)]
    ok_single = got_single in (want_single, -want_single)
    ok_pair = got_pair in (want_pair, -want_pair)
    elapsed = time.monotonic() - t0
    _report(
        "2 (worked odd relations, up to sign)",
        ok_single and ok_pair and elapsed < 5,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_full_f2_arrangements_quadric_ideal():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3):
        forms = [v for v in itertools.product([0, 1], repeat=n) if any(v)]
        arr = Arrangement(F2, n, forms)
        ring = t_ring(arr)
        circuit_ideal = [g.element for g in commutative_generators(arr).generators]
        quadrics = []
        for a, b, c in itertools.combinations(range(1, arr.m + 1), 3):
            if all(
                (x + y + z) % 2 == 0
                for x, y, z in zip(arr.form(a), arr.form(b), arr.form(c))
            ):
                quadrics.append(
                    ring.parse(f"t{a}*t{b} + t{a}*t{c} + t{b}*t{c}")
                )
        ok = ok and ideal_equal(circuit_ideal, quadrics)
    elapsed = time.monotonic() - t0
    _report(
        "3 (full F2 arrangements: circuit ideal equals the quadric ideal)",
        ok and elapsed < 60,
        f"{elapsed:.2f}s",
    )


def test_criterion_4_theorem2_corpus(corpus_run):
    results, _, elapsed = corpus_run
    statuses = _statuses(results, "theorem2")
    bad = [n for n, rep in statuses.items() if rep["status"] != "pass"]
    _report(
        "4 (main presentation theorem on the corpus)",
        not bad and len(statuses) == len(results) and elapsed < 1800,
        f"{len(statuses)} instances, corpus pass {elapsed:.0f}s",
    )


def test_criterion_5_minimality_on_corpus(corpus_run):
    results, _, _ = corpus_run
    statuses = _statuses(results, "minimal")
    bad = [n for n, rep in statuses.items() if rep["status"] != "pass"]
    # every finite-field instance with at least two independent relations ran
    expected = sum(
        1
        for name, arr in acceptance_corpus(CORPUS_SEED)
        if arr.field.char and arr.m - arr.rank >= 2
    )
    _report(
        "5 (circuit generators suffice)",
        not bad and len(statuses) == expected,
        f"{len(statuses)} instances",
    )


def test_criterion_6_q_relations_on_corpus(corpus_run):
    results, _, _ = corpus_run
    statuses = _statuses(results, "lemma7")
    bad = [n for n, rep in statuses.items() if rep["status"] != "pass"]
    pairs = sum(rep["details"]["pairs"] for rep in statuses.values())
    _report(
        "6 (Q-element identities and reductions)",
        not bad and len(statuses) == len(results),
        f"{pairs} (L,S) pairs",
    )


def test_criterion_7_groebner_family():
    t0 = time.monotonic()
    failures = []
    instances = [("E1", E1), ("E3", E3)]
    instances += [
        (name, arr) for name, arr in enumerate_arrangements(2, 3, 4)
    ]
    pair_total = 0
    for name, arr in instances:
        for r in (1, 2):
            if r > arr.rank:
                continue
            rep = verify_groebner_lemma(arr, r)
            pair_total += rep.details["pairs"]
            if not rep.ok:
                failures.append((name, r))
    elapsed = time.monotonic() - t0
    _report(
        "7 (explicit family is a Groebner basis)",
        not failures and elapsed < 600,
        f"{len(instances)} instances, {pair_total} S-pairs, {elapsed:.0f}s",
    )


def test_criterion_8_stratification_on_corpus(corpus_run):
    results, _, _ = corpus_run
    statuses = _statuses(results, "stratification")
    bad = [n for n, rep in statuses.items() if rep["status"] != "pass"]
    e3 = count_points(E3)
    table = {tuple(r["flat"]): r["count"] for r in e3.details["per_flat"]}
    derived = (
        e3.details["lhs"] == 4
        and table[()] == 1
        and table[(1,)] + table[(2,)] + table[(3,)] == 3
        and table[(1, 2, 3)] == 0
    )
    _report(
        "8 (point-count stratification)",
        not bad and derived,
        f"{len(statuses)} instances",
    )


def test_criterion_9_engine_self_consistency():
    t0 = time.monotonic()
    named = [
        E1, E2, E3,
        Arrangement(Q, 2, [[1, 0], [0, 1]]),
        Arrangement(F2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        Arrangement(F2, 1, [[1], [1], [1]]),
        Arrangement(PrimeField(3), 2, [[1, 0], [0, 1], [1, 1], [1, 2]]),
    ]
    ok = True
    for arr in named:
        # (a) the degree-zero syzygy kernel reproduces the elimination kernel
        igens = kernel_I(arr)
        k0 = [e.entry(()) for e in kernel_K_degree(arr, 0)]
        if not (ideal_equal(k0, igens) if (k0 or igens) else True):
            ok = False
        # (b) Hilbert tables agree both ways up to topological degree 10
        for flag in (False, True):
            tables = hilbert(arr, super=flag, max_degree=10)
            if tables["standard"] != tables["rank"]:
                ok = False
        # (d) emitted bases satisfy the Buchberger criterion
        if not is_groebner(igens):
            ok = False
        for r in range(arr.rank + 1):
            basis = kernel_K_degree(arr, r)
            if not is_module_groebner(basis):
                ok = False
    # (c) rank-1 module completion matches the ideal engine
    ring = t_ring(E3)
    polys = [ring.parse("t1*t2 + t1*t3 + t2*t3"), ring.parse("t1^2 + t2*t3")]
    mod_basis = module_groebner([ExtElement(ring, {(): p}) for p in polys])
    if [m.entry(()) for m in mod_basis] != groebner_ideal(polys):
        ok = False
    elapsed = time.monotonic() - t0
    _report(
        "9 (engine self-consistency)",
        ok and elapsed < 600,
        f"{elapsed:.0f}s",
    )


def test_criterion_10_determinism(corpus_run):
    _, blob_first, _ = corpus_run
    t0 = time.monotonic()
    _, blob_second = run_corpus_once()
    elapsed = time.monotonic() - t0
    _report(
        "10 (byte-identical corpus reports)",
        blob_first == blob_second,
        f"second pass {elapsed:.0f}s",
    )
