"""Command-line front end.

Subcommands mirror the library operations one to one; inputs are arrangement
spec files (JSON), outputs are deterministic text or JSON.  Exit codes:
0 pass, 1 verification failure, 2 input error, 3 cap exceeded.

JSON output is byte for byte `json.dumps(payload, indent=2, sort_keys=True)`
plus a newline, written by `write_json`; `charts` writes one chart at a time,
in either format.  When the reader closes the pipe, output stops quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import types
from functools import cache

from .arrangement import Arrangement, SpecError, circuits, closure, flats
from .caps import Caps, CapExceeded
from .fields import FieldError
from .oracle import (
    count_points,
    hilbert,
    verify_charts,
    verify_groebner_lemma,
    verify_lemma7,
    verify_minimal,
    verify_theorem1,
    verify_theorem2,
)
from .polynomials import RingError
from .relations import chart_ring, commutative_generators, super_generators

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3

CHECKS = ("theorem1", "theorem2", "minimal", "groebner-lemma",
          "stratification", "lemma7", "charts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recplane",
        description="Presentations and verification for reciprocal-plane "
                    "rings of hyperplane arrangements and their "
                    "graded-commutative analogs.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--cap-points", type=int, default=None)
    parser.add_argument("--cap-flats", type=int, default=None)
    parser.add_argument("--cap-relations", type=int, default=None)
    parser.add_argument("--cap-family", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_arg(p):
        p.add_argument("spec", help="arrangement spec JSON file")

    spec_arg(sub.add_parser("circuits", help="matroid circuits"))
    spec_arg(sub.add_parser("flats", help="all flats"))

    p = sub.add_parser("presentation", help="generators of the relation ideal")
    p.add_argument("--super", action="store_true")
    p.add_argument("--mode", choices=("circuits", "all"), default="circuits")
    spec_arg(p)

    p = sub.add_parser("verify", help="run one verification check")
    p.add_argument("--check", choices=CHECKS, required=True)
    p.add_argument("--grassmann", type=int, default=None,
                   help="restrict the Grassmann degree (theorem2 and "
                        "groebner-lemma only)")
    spec_arg(p)

    spec_arg(sub.add_parser("points", help="stratified point count"))

    p = sub.add_parser("hilbert", help="dimension tables, two methods")
    p.add_argument("--max-degree", type=int, default=10)
    p.add_argument("--super", action="store_true")
    spec_arg(p)

    p = sub.add_parser("charts", help="chart rings over flats")
    p.add_argument("--flat", default=None,
                   help="comma-separated form indices (closure is taken)")
    p.add_argument("--invert", default=None,
                   help="comma-separated indices made invertible")
    p.add_argument("--super", action="store_true")
    spec_arg(p)

    p = sub.add_parser("corpus", help="emit the verification corpus")
    p.add_argument("--p", type=int, default=None, help="prime field order")
    p.add_argument("--rational", action="store_true")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-m", type=int, default=5)
    p.add_argument("--count", type=int, default=None,
                   help="number of rational instances (default 20)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the rational instances (default 7)")
    p.add_argument("--out", default=None, help="directory for spec files")
    return parser


def load_arrangement(path: str) -> Arrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return Arrangement.from_json(data)


def caps_from_args(args) -> Caps:
    """The caps of the environment (`Caps.from_env`), overridden by the
    --cap-* flags; a negative cap is an input error."""
    base = Caps.from_env()
    vals = {}
    for name in ("points", "flats", "relations", "family"):
        flag = getattr(args, f"cap_{name}")
        if flag is not None and flag < 0:
            raise SpecError(f"--cap-{name} must be nonnegative, not {flag}")
        vals[name] = flag if flag is not None else getattr(base, name)
    return Caps(**vals)


_escape = json.encoder.encode_basestring_ascii  # the C encoder's string step


def write_json(write, obj) -> None:
    """Write `obj` as `json.dumps(obj, indent=2, sort_keys=True)`, then a
    newline, through `write`.

    Payloads hold dicts with str keys, lists, tuples, str, int, bool and
    None; any other value, floats included, raises TypeError.  A generator
    is written as a list, each item as soon as it is made, so a payload can
    stream.  A dict met more than once at one depth (the one relation dict
    of many chart generators) is encoded once; its text is kept only until
    the item of the generator it belongs to is written, or, outside a
    generator, until the payload is.
    """
    parts = []
    _encode(obj, "\n", parts, write, {})
    parts.append("\n")
    write("".join(parts))


def _encode(obj, nl, parts, write, met) -> None:
    """Append the text of `obj`, whose lines start with `nl`, to `parts`;
    a generator also writes out `parts` after each of its items.

    `met` maps (id, nl) of each dict encoded so far to (the list its text
    went to, start, end), and, from its second meeting on, to its text.
    Every dict it names is alive, since the payload holds it, and every
    list it names still holds that text: when a generator writes out
    `parts` and forgets its item, `met` is cleared too.
    """
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        key = (id(obj), nl)
        got = met.get(key)
        if got is None:
            start = len(parts)
            met[key] = None
            _encode_dict(obj, nl, parts, write, met)
            if key in met:  # else a generator inside wrote `parts` out
                met[key] = (parts, start, len(parts))
            return
        if type(got) is tuple:
            where, start, end = got
            got = met[key] = "".join(where[start:end])
        parts.append(got)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = nl + "  "
        kind = type(obj[0])
        if (kind is str or kind is int) and all(type(x) is kind for x in obj):
            text = map(_escape if kind is str else int.__repr__, obj)
            parts.append("[" + inner + ("," + inner).join(text) + nl + "]")
            return
        sep = "[" + inner
        for x in obj:
            parts.append(sep)
            _encode(x, inner, parts, write, met)
            sep = "," + inner
        parts.append(nl + "]")
    elif isinstance(obj, types.GeneratorType):
        inner = nl + "  "
        sep = first = "[" + inner
        for x in obj:
            parts.append(sep)
            _encode(x, inner, parts, write, met)
            write("".join(parts))
            parts.clear()
            met.clear()
            sep = "," + inner
        parts.append("[]" if sep is first else nl + "]")
    elif isinstance(obj, str):
        parts.append(_escape(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode_dict(obj, nl, parts, write, met) -> None:
    """Append the text of the nonempty dict `obj`, keys sorted."""
    for key in obj:
        if not isinstance(key, str):
            raise TypeError(f"JSON keys must be str, not {key!r}")
    inner = nl + "  "
    sep = "{" + inner
    for key in sorted(obj):
        val = obj[key]
        if type(val) is str:
            parts.append(sep + _escape(key) + ": " + _escape(val))
        else:
            parts.append(sep + _escape(key) + ": ")
            _encode(val, inner, parts, write, met)
        sep = "," + inner
    parts.append(nl + "}")


def emit(args, payload, text) -> None:
    """Write the JSON payload or the text to stdout.  Each is a callable
    that builds its form, so only the form asked for is built: `payload`
    returns the JSON value, `text` an iterable of lines (an item may hold
    several lines, joined by newlines).  Generators are written as they
    yield.

    If the reader closes the pipe, writing stops, so nothing further is
    built, and stdout is pointed at os.devnull so that the flush at exit
    says nothing either.
    """
    out = sys.stdout
    try:
        if args.format == "json":
            write_json(out.write, payload())
        else:
            for line in text():
                out.write(line + "\n")
        out.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)


def _parse_indices(text, m: int):
    """The comma-separated form indices of `text`, each in 1..m."""
    if not text:
        return ()
    try:
        indices = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise SpecError(f"bad index list {text!r}") from exc
    for i in indices:
        if not 1 <= i <= m:
            raise SpecError(f"index {i} is not a form index 1..{m}")
    return indices


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later calls in the
    same process; parsing leaves it unchanged."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    caps = caps_from_args(args)

    if args.command == "corpus":
        return _run_corpus(args)

    arr = load_arrangement(args.spec)

    if args.command == "circuits":
        cs = circuits(arr)
        emit(args, lambda: {"circuits": [c.to_json(arr.field) for c in cs]},
             lambda: [f"circuits: {len(cs)}"] + [
                 f"  {list(c.support)} coeffs "
                 f"{[arr.field.fmt(a) for a in c.coeffs]}"
                 for c in cs
             ])
        return EXIT_PASS

    if args.command == "flats":
        fl = flats(arr, caps)
        emit(args, lambda: {"flats": [f.to_json() for f in fl]},
             lambda: [f"flats: {len(fl)}"] + [
                 f"  {list(f.indices)} quotient_dim {f.quotient_dim}"
                 for f in fl
             ])
        return EXIT_PASS

    if args.command == "presentation":
        pres = (
            super_generators(arr, args.mode, caps)
            if args.super
            else commutative_generators(arr, args.mode, caps)
        )
        emit(args, pres.to_json, lambda: [pres.to_text()])
        return EXIT_PASS

    if args.command == "points":
        rep = count_points(arr, caps)
        emit(args, rep.to_json, lambda: _points_lines(rep))
        return EXIT_PASS if rep.ok else EXIT_FAIL

    if args.command == "verify":
        if args.grassmann is not None:
            if args.grassmann < 0:
                raise SpecError("--grassmann must be nonnegative")
            if args.check not in ("theorem2", "groebner-lemma"):
                raise SpecError(f"--check {args.check} has no --grassmann")
            if args.grassmann > arr.m:
                raise SpecError(f"--grassmann {args.grassmann} is above the "
                                f"number of forms, {arr.m}")
            # theorem2 checks degrees past the rank; the Groebner-lemma
            # family has no basis labels of that size and would pass empty
            if args.check == "groebner-lemma" and args.grassmann > arr.rank:
                raise SpecError(f"--grassmann {args.grassmann} is above the "
                                f"rank, {arr.rank}")
        rep = _run_check(arr, args, caps)
        emit(args, rep.to_json, lambda: _report_lines(rep))
        return EXIT_PASS if rep.ok else EXIT_FAIL

    if args.command == "hilbert":
        if args.max_degree < 0:
            raise SpecError("--max-degree must be nonnegative")
        tables = hilbert(arr, super=args.super, max_degree=args.max_degree)
        agree = tables["standard"] == tables["rank"]
        emit(args, lambda: {
            "standard": {str(k): v for k, v in tables["standard"].items()},
            "rank": {str(k): v for k, v in tables["rank"].items()},
            "agree": agree,
        }, lambda: _hilbert_lines(tables, agree))
        return EXIT_PASS if agree else EXIT_FAIL

    if args.command == "charts":
        invert = _parse_indices(args.invert, arr.m)
        if args.flat is not None:
            flat = closure(arr, _parse_indices(args.flat, arr.m))
            for i in invert:
                if i not in flat.indices:
                    raise SpecError(f"index {i} lies outside the flat "
                                    f"{list(flat.indices)}")
            target = [flat]
        else:
            target = flats(arr, caps)

        def charts():
            # one chart at a time, each written before the next is built
            for f in target:
                yield chart_ring(arr, f, invert=tuple(i for i in invert
                                                      if i in set(f.indices)),
                                 super=args.super)

        emit(args, lambda: {"charts": (ch.to_json() for ch in charts())},
             lambda: (ch.to_text() for ch in charts()))
        return EXIT_PASS

    raise AssertionError(f"unhandled command {args.command}")


def _points_lines(rep):
    lines = [f"lhs={rep.details['lhs']} rhs={rep.details['rhs']} {rep.status}"]
    for row in rep.details["per_flat"]:
        lines.append(f"  flat {row['flat']}: {row['count']}")
    return lines


def _report_lines(rep):
    lines = [f"{rep.check}: {rep.status}"]
    if rep.check == "stratification":
        lines.append(f"  lhs={rep.details['lhs']} rhs={rep.details['rhs']}")
    for key, val in sorted(rep.details.items()):
        if key in ("lhs", "rhs", "per_flat"):
            continue
        lines.append(f"  {key}: {val}")
    for w in rep.witnesses:
        lines.append(f"  witness: {w}")
    return lines


def _hilbert_lines(tables, agree):
    lines = ["degree standard rank"]
    for d in sorted(tables["standard"]):
        lines.append(
            f"{d:6d} {tables['standard'][d]:8d} {tables['rank'][d]:4d}"
        )
    lines.append(f"agree: {agree}")
    return lines


def _run_check(arr, args, caps):
    check = args.check
    if check == "theorem1":
        return verify_theorem1(arr)
    if check == "theorem2":
        return verify_theorem2(arr, rmax=args.grassmann)
    if check == "minimal":
        return verify_minimal(arr, caps)
    if check == "stratification":
        return count_points(arr, caps)
    if check == "lemma7":
        return verify_lemma7(arr)
    if check == "charts":
        return verify_charts(arr, caps)
    if check == "groebner-lemma":
        if args.grassmann is not None:
            degrees = [args.grassmann]
        else:
            degrees = [r for r in (1, 2) if r <= arr.rank]
        from .oracle import Report, instance_label

        reports = [verify_groebner_lemma(arr, r, caps) for r in degrees]
        ok = all(r.ok for r in reports)
        return Report(
            "groebner-lemma",
            instance_label(arr),
            "pass" if ok else "fail",
            [w for r in reports for w in r.witnesses],
            {"degrees": [r.details for r in reports]},
        )
    raise SpecError(f"unknown check {check}")


def _run_corpus(args) -> int:
    from .corpus import enumerate_arrangements, random_rational_arrangements

    if args.p is not None:
        if args.rational:
            raise SpecError("corpus takes --p or --rational, not both")
        for flag, value in (("--count", args.count), ("--seed", args.seed)):
            if value is not None:
                raise SpecError(f"{flag} applies only to --rational")
    for flag, value, least in (("--max-n", args.max_n, 1),
                               ("--max-m", args.max_m, 1),
                               ("--count", args.count, 0)):
        if value is not None and value < least:
            raise SpecError(f"{flag} must be at least {least}, not {value}")
    # a rational instance of dimension n <= max-n draws m from n..max-m
    if args.rational and args.max_m < args.max_n:
        raise SpecError(f"--max-m {args.max_m} is below --max-n "
                        f"{args.max_n}: a rational instance of dimension n "
                        f"has at least n forms")
    if args.rational:
        instances = random_rational_arrangements(
            20 if args.count is None else args.count,
            7 if args.seed is None else args.seed, args.max_n, args.max_m
        )
    elif args.p is not None:
        instances = enumerate_arrangements(args.p, args.max_n, args.max_m)
    else:
        raise SpecError("corpus needs --p or --rational")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        written = 0
        for name, arr in instances:
            path = os.path.join(args.out, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                write_json(fh.write, arr.to_json())
            written += 1
        emit(args, lambda: {"out": args.out, "written": written},
             lambda: [f"wrote {written} spec files to {args.out}"])
    else:
        emit(args, lambda: {"instances": (name for name, _ in instances)},
             lambda: (name for name, _ in instances))
    return EXIT_PASS


def main(argv=None) -> int:
    try:
        return run(argv)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SpecError, FieldError, RingError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
