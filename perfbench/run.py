"""recplane benchmark: run one workload for a fixed time and print metrics.

    python3 perfbench/run.py --workload corpus-fp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --hashes [--seed 1]

Each pass over a workload runs in a fresh interpreter (worker.py), one after
another, until the next pass would end after --seconds.  Every timing is
scaled to a reference host speed by a probe run between items (probe.py),
so that a shared host's changes of speed cancel.  With --trace 0 the last
line of standard output is the end-to-end metrics: medians over the passes
of the pass time, set-up time and peak RSS, and the median item time over
every item run.  With --trace 1 untraced and traced passes alternate,
and the last line is the per-layer metrics of the traced passes (medians),
with the tracing overhead.  Every pass checks its outputs against the
closed-form checker, and all passes of a run must give the same report
digest.  Details go to perfbench/out/.

--hashes prints the report digest of each workload for the seed, computed
anew, for comparing two versions of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
RUN_LIMIT_S = 170  # every run, set-up and last pass included, ends by then
WORKLOADS = ("corpus-fp", "corpus-rational", "cli-specs")


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        spans = OUT / f"spans-{workload}-seed{seed}.json.gz"
        cmd += ["--trace", "--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} pass ran past the run limit") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{workload} pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Rounds of one pass (two with tracing: untraced, then traced) until
    the next round, if it took as long as the longest so far, would end
    after `seconds`; at least one round."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    longest = 0.0
    while True:
        round_start = time.monotonic()
        passes.append(run_pass(workload, seed, False, deadline))
        if trace:
            passes.append(run_pass(workload, seed, True, deadline))
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now + longest - start > seconds:
            return passes


def summarize(passes: list, bench: dict, trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    digests = {p["blob_sha256"] for p in passes}
    problems = [msg for p in passes for msg in p["problems"]]
    if len(digests) != 1:
        problems.append(f"passes gave {len(digests)} different report digests")
    med = statistics.median
    if trace:
        values = {"trace.wall_s": med(p["wall_s"] for p in traced),
                  "trace.untraced_wall_s": med(p["wall_s"] for p in plain)}
        values["trace.overhead"] = (values["trace.wall_s"]
                                    / values["trace.untraced_wall_s"])
        for name in traced[0]["layers"]:
            values[name] = med(p["layers"][name] for p in traced)
        wanted = bench["per_layer"]
    else:
        values = {
            "wall_s": med(p["wall_s"] for p in plain),
            "item_p50_ms": 1000 * med(t for p in plain for _, t in p["items"]),
            "setup_s": med(p["setup_s"] for p in plain),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        }
        wanted = bench["end_to_end"]
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "problems": problems[:50],
        "errors": [msg for p in passes for msg in p["errors"]][:50],
    }


def slowest(passes: list, count: int = 10) -> list:
    per_item: dict = {}
    for p in passes:
        if not p["traced"]:
            for name, t in p["items"]:
                per_item.setdefault(name, []).append(t)
    ranked = sorted(((statistics.median(ts), name)
                     for name, ts in per_item.items()), reverse=True)
    return [[name, t] for t, name in ranked[:count]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--hashes", action="store_true",
                    help="print each workload's report digest and exit")
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    try:
        if args.hashes:
            deadline = time.monotonic() + 3 * RUN_LIMIT_S
            digests = {w: run_pass(w, args.seed, False, deadline)
                       for w in WORKLOADS}
            print(json.dumps({w: {"seed": args.seed,
                                  "blob_sha256": p["blob_sha256"],
                                  "failed": p["failed"],
                                  "problems": p["problems"]}
                              for w, p in digests.items()}, indent=2))
            return 0
        if not args.workload:
            ap.error("--workload is required")
        passes = run_passes(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    result = summarize(passes, bench, bool(args.trace))
    detail = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    plain = [p for p in passes if not p["traced"]]
    detail.write_text(json.dumps({
        "result": result,
        "unscaled_medians": {
            key: statistics.median(p[key] for p in plain)
            for key in ("raw_wall_s", "raw_setup_s", "speed")},
        "slowest_items": slowest(passes),
        "passes": passes,
    }, indent=2))
    for msg in result.pop("problems"):
        print(f"problem: {msg}", file=sys.stderr)
    for msg in result.pop("errors"):
        print(f"failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
