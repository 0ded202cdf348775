"""One pass over one workload, in a fresh interpreter started by run.py.

The pass is a closed loop: one caller, no threads, the next item sent only
when the previous one has returned.  A speed probe (probe.py) runs after
set-up and after every item, and each timing is scaled to the reference
speed by the probes around it.  Outputs are checked after the pass, so the
checker's own time is in no figure.  The result is one JSON line on standard
output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HALF = 4  # probes taken on each side of an item gauge the host speed for it


def import_program():
    """recplane from the checkout's own src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import recplane
    except ImportError as exc:
        sys.exit(f"worker: cannot import recplane from {SRC}: {exc}")
    if Path(recplane.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"worker: recplane came from {recplane.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)

    import_program()
    tracer = None
    if args.trace:
        from tracing import TIMED, Tracer

        for mod in TIMED:
            importlib.import_module(f"recplane.{mod}")
        tracer = Tracer()
        tracer.install()
    from probe import probe, speed
    from workloads import WORKLOADS

    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = WORKLOADS[args.workload](args.seed, str(workdir))
        raw_setup_s = time.monotonic() - args.spawned_at
        probe(), probe()  # warm-up: the interpreter specializes its code
        # probes[k] is taken just before item k, probes[k + 1] just after
        probes = [probe()]
        raw_times, outputs, errors = [], [], []
        clock = time.perf_counter
        for k, item in enumerate(items):
            if tracer:
                tracer.current_item = k
            t0 = clock()
            try:
                out = item.run()
            except Exception as exc:  # a failed item; counted, not fatal
                out = None
                errors.append(f"{item.name}: {type(exc).__name__}: {exc}")
            raw_times.append(clock() - t0)
            outputs.append(out)
            probes.append(probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    times = [t * speed(probes[max(0, k + 1 - HALF):k + 1 + HALF])
             for k, t in enumerate(raw_times)]
    setup_s = raw_setup_s * speed(probes[:HALF])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    for item, out in zip(items, outputs):
        if out is not None:
            problems += [f"{item.name}: {p}" for p in item.check(out)]
    # Serialized as the acceptance suite's run_corpus_once serializes the
    # corpus report, so the digest can be compared across versions.
    blob = json.dumps(outputs, indent=2, sort_keys=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "setup_s": setup_s,
        "wall_s": sum(times),
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": sum(raw_times),
        "speed": speed(probes),
        "peak_rss_mb": peak_rss_mb,
        "items": [[item.name, t] for item, t in zip(items, times)],
        "raw_item_s": raw_times,
        "probe_s": probes,
        "attempted": len(items),
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
        "blob_sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans, [item.name for item in items])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
