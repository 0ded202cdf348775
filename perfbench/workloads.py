"""The benchmark's workloads: items made from a seed, and their checks.

An item is one call into recplane's public API (one corpus instance through
its checks, or one CLI command) plus the closed-form check of its output.
Corpus samples are stratified: every instance is keyed by its matroid
(field, n, m, rank, parallel classes, circuit sizes) from `checker.Matroid`,
and each make-up table below fixes how many instances of each stratum a pass
takes.  The seed picks which instances; the fixed make-up keeps the amount
of work, and so the timings, nearly the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from checker import (
    Matroid,
    check_charts,
    check_flats,
    check_hilbert,
    check_report,
)

# stratum key -> instances per pass.  Keys are
# (p, n, m, rank, parallel classes, sorted circuit sizes); p = 0 is Q.
CORPUS_FP_MAKEUP = {
    (2, 1, 1, 1, 1, ()): 1,
    (2, 1, 2, 1, 1, (2,)): 1,
    (2, 1, 3, 1, 1, (2, 2, 2)): 1,
    (2, 1, 4, 1, 1, (2,) * 6): 1,
    (2, 1, 5, 1, 1, (2,) * 10): 1,
    (2, 2, 2, 2, 2, ()): 1,
    (2, 2, 3, 2, 2, (2,)): 1,
    (2, 2, 4, 2, 2, (2, 2, 2)): 1,
    (2, 2, 5, 2, 2, (2, 2, 2, 2)): 1,
    (2, 3, 3, 3, 3, ()): 1,
    (2, 3, 4, 3, 3, (2,)): 1,
    (2, 3, 4, 3, 4, (4,)): 1,
    (2, 3, 5, 3, 3, (2, 2)): 1,
    (2, 3, 5, 3, 3, (2, 2, 2)): 1,
    (2, 3, 5, 3, 4, (2, 3)): 1,
    (2, 3, 5, 3, 4, (2, 3, 3)): 1,
    (3, 1, 1, 1, 1, ()): 1,
    (3, 1, 2, 1, 1, (2,)): 1,
    (3, 1, 3, 1, 1, (2, 2, 2)): 1,
    (3, 1, 4, 1, 1, (2,) * 6): 1,
    (3, 2, 2, 2, 2, ()): 1,
    (3, 2, 3, 2, 2, (2,)): 1,
    (3, 2, 3, 2, 3, (3,)): 2,
    (3, 2, 4, 2, 2, (2, 2)): 1,
    (3, 2, 4, 2, 2, (2, 2, 2)): 1,
    (3, 2, 4, 2, 3, (2, 3, 3)): 1,
    (3, 2, 4, 2, 4, (3, 3, 3, 3)): 1,
    (5, 1, 1, 1, 1, ()): 1,
    (5, 1, 2, 1, 1, (2,)): 1,
    (5, 1, 3, 1, 1, (2, 2, 2)): 1,
    (5, 2, 2, 2, 2, ()): 1,
    (5, 2, 3, 2, 2, (2,)): 4,
    (5, 2, 3, 2, 3, (3,)): 20,
}

# The rational pool: random_rational_arrangements(POOL, seed, max_n=3,
# max_m=4).  m = 5 is left out: one such instance can take 40 s.
RATIONAL_POOL = 600
CORPUS_RATIONAL_MAKEUP = {
    (0, 1, 1, 1, 1, ()): 1,
    (0, 1, 2, 1, 1, (2,)): 1,
    (0, 2, 2, 2, 2, ()): 2,
    (0, 3, 3, 3, 3, ()): 2,
    (0, 1, 3, 1, 1, (2, 2, 2)): 3,
    (0, 2, 3, 2, 3, (3,)): 5,
    (0, 1, 4, 1, 1, (2,) * 6): 5,
    (0, 2, 4, 2, 3, (2, 3, 3)): 2,
    (0, 2, 4, 2, 4, (3, 3, 3, 3)): 1,
    (0, 3, 4, 3, 4, (4,)): 1,
}


@dataclass
class Item:
    """One closed-loop request: `run` calls the program, `check` its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def stratum(mat: Matroid) -> tuple:
    """(rank, parallel classes, sorted circuit sizes); the make-up keys
    put (p, n, m) in front."""
    atoms = sum(1 for r in mat.flats().values() if r == 1)
    return (mat.rank, atoms, tuple(sorted(len(c) for c in mat.circuits())))


def stratified_sample(instances, makeup: dict, seed: int):
    """Fill every stratum quota of `makeup` with seeded picks.

    Instances are grouped by (p, n, m) and each group is scanned in seeded
    order, so only as many matroids are built as the quotas need.  Returns
    (name, arr, matroid) in the corpus order.
    """
    rng = random.Random(seed)
    order = {name: k for k, (name, _) in enumerate(instances)}
    groups: dict = {}
    for name, arr in instances:
        groups.setdefault((arr.field.char, arr.n, arr.m), []).append((name, arr))
    chosen = []
    for family, members in groups.items():
        quotas = {k[3:]: q for k, q in makeup.items() if k[:3] == family}
        if not quotas:
            raise ValueError(f"family {family} has no quota in the make-up")
        members = list(members)
        rng.shuffle(members)
        for name, arr in members:
            if not quotas:
                break
            mat = Matroid(arr.field.char, [list(row) for row in arr.forms])
            key = stratum(mat)
            if quotas.get(key, 0):
                chosen.append((name, arr, mat))
                quotas[key] -= 1
                if not quotas[key]:
                    del quotas[key]
        if quotas:
            raise ValueError(f"family {family}: strata {sorted(quotas)} "
                             "not found")
    families = {k[:3] for k in makeup}
    if families != set(groups):
        raise ValueError(f"make-up families {sorted(families - set(groups))} "
                         "are not in the corpus")
    chosen.sort(key=lambda entry: order[entry[0]])
    return chosen


# -- corpus workloads -----------------------------------------------------------


def _corpus_item(oracle, name, arr, mat, finite: bool) -> Item:
    """The checks of one corpus instance, in the order the acceptance suite
    runs them; output is the instance's entry of the corpus report."""

    def run():
        reports = [oracle.verify_theorem2(arr)]
        if finite:
            if arr.m - arr.rank >= 2:
                reports.append(oracle.verify_minimal(arr))
            reports.append(oracle.count_points(arr))
        reports.append(oracle.verify_lemma7(arr))
        return {"name": name, "reports": [r.to_json() for r in reports]}

    expected = ["theorem2"]
    if finite:
        if mat.m - mat.rank >= 2:
            expected.append("minimal")
        expected.append("stratification")
    expected.append("lemma7")

    def check(entry):
        got = [rep["check"] for rep in entry["reports"]]
        problems = [] if got == expected else [f"checks {got} != {expected}"]
        for rep in entry["reports"]:
            problems += check_report(rep, mat)
        return problems

    return Item(name, run, check)


def corpus_fp(seed: int, workdir: str) -> list:
    from recplane import corpus, oracle

    instances = [(name, arr) for name, arr in corpus.acceptance_corpus()
                 if arr.field.char]
    return [_corpus_item(oracle, name, arr, mat, True)
            for name, arr, mat in
            stratified_sample(instances, CORPUS_FP_MAKEUP, seed)]


def corpus_rational(seed: int, workdir: str) -> list:
    from recplane import corpus, oracle

    pool = corpus.random_rational_arrangements(RATIONAL_POOL, seed,
                                               max_n=3, max_m=4)
    return [_corpus_item(oracle, name, arr, mat, False)
            for name, arr, mat in
            stratified_sample(pool, CORPUS_RATIONAL_MAKEUP, seed)]


# -- cli-specs ------------------------------------------------------------------


def _braid(n: int):
    return [[1 if k == i else -1 if k == j else 0 for k in range(n)]
            for i, j in itertools.combinations(range(n), 2)]


# name -> (field JSON, n, forms)
FIXED_SPECS = {
    "four_cycle_f2": ({"type": "prime", "p": 2}, 4,
                      [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]),
    "triangle_q": ({"type": "rational"}, 2, [[1, 0], [0, 1], [-1, -1]]),
    "all_f2_3": ({"type": "prime", "p": 2}, 3,
                 [list(v) for v in itertools.product((0, 1), repeat=3)
                  if any(v)]),
    "braid_a3_f5": ({"type": "prime", "p": 5}, 4, _braid(4)),
    "braid_a3_q": ({"type": "rational"}, 4, _braid(4)),
    "pencil6_f7": ({"type": "prime", "p": 7}, 2,
                   [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3], [1, 4]]),
}
# seeded rational specs: stratum of the instances and how many
SEEDED_SPEC_STRATUM = (0, 2, 3, 2, 3, (3,))
SEEDED_SPECS = 2

# Commands per spec, with Hilbert degrees sized so that no item takes more
# than about a second.  `points` and `groebner-lemma` need a finite field,
# and the groebner-lemma family fits the default caps only on the four-cycle.
CLI_COMMANDS = {
    "four_cycle_f2": ("flats", "points", "theorem1", "groebner-lemma",
                      "charts", "verify_charts", "hilbert 8",
                      "hilbert --super 4"),
    "triangle_q": ("flats", "theorem1", "charts", "verify_charts",
                   "hilbert 8", "hilbert --super 4"),
    "all_f2_3": ("flats", "points", "theorem1", "hilbert 8"),
    "braid_a3_f5": ("flats", "points", "theorem1", "charts",
                    "verify_charts", "hilbert 6", "hilbert --super 2"),
    "braid_a3_q": ("flats", "theorem1", "hilbert 4", "hilbert --super 1"),
    "pencil6_f7": ("flats", "points", "theorem1", "charts", "hilbert 8"),
    "seeded": ("flats", "theorem1", "charts", "verify_charts", "hilbert 8",
               "hilbert --super 4"),
}


def _argv(command: str, path: str) -> list:
    words = command.split()
    if words[0] in ("theorem1", "groebner-lemma"):
        return ["verify", "--check", words[0], path]
    if words[0] == "charts":
        return ["charts", "--super", path]
    if words[0] == "hilbert":
        extra = ["--super"] if "--super" in words else []
        return ["hilbert", *extra, "--max-degree", words[-1], path]
    return [words[0], path]


def _cli_check(command: str, mat: Matroid):
    words = command.split()

    def check(output):
        _, text = output
        payload = json.loads(text)
        if words[0] == "flats":
            return check_flats(payload, mat)
        if words[0] == "charts":
            return check_charts(payload, mat)
        if words[0] == "hilbert":
            return check_hilbert(payload, mat, "--super" in words,
                                 int(words[-1]))
        return check_report(payload, mat)

    return check


def _cli_item(cli, label: str, argv: list, check) -> Item:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--format", "json", *argv])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return code, out.getvalue()

    return Item(label, run, check)


def _charts_verified_item(oracle, label: str, arr, mat: Matroid) -> Item:
    """`verify_charts` on the spec: the CLI prints chart rings but has no
    check of them, so this library call is the only kind of item that is
    not a command."""

    def run():
        return oracle.verify_charts(arr).to_json()

    def check(rep):
        problems = [] if rep["status"] == "pass" else ["charts: status "
                                                       f"{rep['status']}"]
        if rep["details"]["flats"] != len(mat.flats()):
            problems.append(f"charts: {rep['details']['flats']} flats, "
                            f"expected {len(mat.flats())}")
        return problems

    return Item(label, run, check)


def cli_specs(seed: int, workdir: str) -> list:
    from recplane import cli, corpus, oracle
    from recplane.arrangement import Arrangement

    specs = []
    for name, (field, n, forms) in FIXED_SPECS.items():
        specs.append((name, CLI_COMMANDS[name],
                      {"field": field, "n": n, "hyperplanes": forms}))
    pool = corpus.random_rational_arrangements(RATIONAL_POOL, seed,
                                               max_n=2, max_m=3)
    seeded = stratified_sample(
        [(n_, a) for n_, a in pool if (a.n, a.m) == (2, 3)],
        {SEEDED_SPEC_STRATUM: SEEDED_SPECS}, seed)
    for name, arr, _ in seeded:
        specs.append((name, CLI_COMMANDS["seeded"], arr.to_json()))
    items = []
    for name, commands, spec in specs:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        arr = Arrangement.from_json(spec)
        mat = Matroid(spec["field"].get("p", 0), spec["hyperplanes"])
        for command in commands:
            label = f"{name}: {command}"
            if command == "verify_charts":
                items.append(_charts_verified_item(oracle, label, arr, mat))
            else:
                items.append(_cli_item(cli, label, _argv(command, path),
                                       _cli_check(command, mat)))
    return items


WORKLOADS = {
    "corpus-fp": corpus_fp,
    "corpus-rational": corpus_rational,
    "cli-specs": cli_specs,
}
