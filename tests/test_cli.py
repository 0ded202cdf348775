import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import recplane
from recplane.cli import main, write_json

E1_SPEC = {
    "field": {"type": "prime", "p": 2},
    "n": 4,
    "hyperplanes": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]],
}
E2_SPEC = {
    "field": {"type": "rational"},
    "n": 2,
    "hyperplanes": [[1, 0], [0, 1], [-1, -1]],
}
E3_SPEC = {
    "field": {"type": "prime", "p": 2},
    "n": 2,
    "hyperplanes": [[1, 0], [0, 1], [1, 1]],
}


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, spec in (("E1", E1_SPEC), ("E2", E2_SPEC), ("E3", E3_SPEC)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_presentation_golden_text(specs, capsys):
    code, out, _ = run_cli(capsys, "presentation", specs["E1"])
    assert code == 0
    assert "t2*t3*t4 + t1*t3*t4 + t1*t2*t4 + t1*t2*t3" in out


def test_presentation_super_contains_worked_relations(specs, capsys):
    code, out, _ = run_cli(capsys, "presentation", "--super", specs["E2"])
    assert code == 0
    assert "u1*u2" in out and "u2*u3" in out


def test_circuits_output(specs, capsys):
    code, out, _ = run_cli(capsys, "circuits", specs["E1"])
    assert code == 0
    assert "[1, 2, 3, 4]" in out


def test_flats_output(specs, capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "flats", specs["E3"])
    assert code == 0
    data = json.loads(out)
    assert [f["indices"] for f in data["flats"]] == [
        [], [1], [2], [3], [1, 2, 3]
    ]


def test_verify_stratification(specs, capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "stratification", specs["E3"])
    assert code == 0
    assert "lhs=4 rhs=4" in out


def test_verify_all_checks_pass_on_examples(specs, capsys):
    for check in ("theorem1", "theorem2", "minimal", "lemma7", "groebner-lemma"):
        code, out, _ = run_cli(capsys, "verify", "--check", check, specs["E3"])
        assert code == 0, (check, out)


def test_verify_charts_check(specs, capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--check",
                           "charts", specs["E3"])
    assert code == 0
    data = json.loads(out)
    assert data["check"] == "charts" and data["status"] == "pass"
    assert data["details"]["flats"] == 5  # [], [1], [2], [3], [1, 2, 3]


def test_points_and_hilbert(specs, capsys):
    code, out, _ = run_cli(capsys, "points", specs["E3"])
    assert code == 0
    code, out, _ = run_cli(
        capsys, "hilbert", "--max-degree", "6", "--super", specs["E3"]
    )
    assert code == 0
    assert "agree: True" in out


def test_charts_subcommand(specs, capsys):
    code, out, _ = run_cli(capsys, "charts", "--flat", "1", specs["E3"])
    assert code == 0
    assert "t2*t3*z1 + t3 + t2" in out
    code, out, _ = run_cli(
        capsys, "charts", "--flat", "1,2", "--super", specs["E3"]
    )
    assert code == 0
    assert "dz1" in out


def test_charts_super_json_renders_dz_on_the_flat(specs, capsys):
    """On flat [1] of the triangle, index 1 reads dz1 in the JSON element
    strings, as in the text output and the chart's variable lists."""
    code, out, _ = run_cli(capsys, "--format", "json", "charts", "--flat",
                           "1", "--super", specs["E2"])
    assert code == 0
    (chart,) = json.loads(out)["charts"]
    assert chart["flat"] == [1]
    assert chart["variables"]["dz"] == ["dz1"]
    elements = [g["element"] for g in chart["generators"]]
    assert any("dz1" in e for e in elements)
    assert not any("u1" in e for e in elements)


def test_charts_super_golden(specs, capsys):
    code, out, _ = run_cli(capsys, "charts", "--super", specs["E3"])
    assert code == 0
    assert out == golden("charts_super_e3.txt")
    code, out, _ = run_cli(capsys, "--format", "json", "charts", "--super",
                           specs["E3"])
    assert code == 0
    assert out == golden("charts_super_e3.json")


def test_charts_build_only_the_form_printed(specs, capsys, monkeypatch):
    """Under --format json no chart text is built, and under text no chart
    JSON; the output is the golden one either way."""
    from recplane.relations import ChartRing

    def refuse(self):
        raise AssertionError("built a form that is not printed")

    with monkeypatch.context() as patch:
        patch.setattr(ChartRing, "to_text", refuse)
        code, out, _ = run_cli(capsys, "--format", "json", "charts",
                               "--super", specs["E3"])
    assert code == 0
    assert out == golden("charts_super_e3.json")
    with monkeypatch.context() as patch:
        patch.setattr(ChartRing, "to_json", refuse)
        code, out, _ = run_cli(capsys, "charts", "--super", specs["E3"])
    assert code == 0
    assert out == golden("charts_super_e3.txt")


def test_hilbert_super_golden(specs, capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--super", "--max-degree", "4",
                           specs["E1"])
    assert code == 0
    assert out == golden("hilbert_super_e1.txt")


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": ')
    code, _, err = run_cli(capsys, "circuits", str(bad))
    assert code == 2
    assert "line" in err and "column" in err


def test_zero_form_exit_code(tmp_path, capsys):
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps({
        "field": {"type": "prime", "p": 2}, "n": 2,
        "hyperplanes": [[2, 0], [0, 1]],
    }))
    code, _, err = run_cli(capsys, "circuits", str(spec))
    assert code == 2
    assert "zero" in err


def test_boolean_coefficient_exit_code(tmp_path, capsys):
    spec = tmp_path / "bool.json"
    spec.write_text(json.dumps({
        "field": {"type": "prime", "p": 2}, "n": 2,
        "hyperplanes": [[True, False], [0, 1], [1, 1]],
    }))
    code, out, err = run_cli(capsys, "circuits", str(spec))
    assert code == 2
    assert out == ""
    assert "True" in err


def test_negative_max_degree_exit_code(specs, capsys):
    code, out, err = run_cli(capsys, "hilbert", "--max-degree", "-3",
                             specs["E3"])
    assert code == 2
    assert out == ""
    assert "max-degree" in err


def _spec_with(tmp_path, **changes):
    spec = tmp_path / "malformed.json"
    spec.write_text(json.dumps(dict(E3_SPEC, **changes)))
    return str(spec)


GRASSMANN_IGNORED = ("theorem1", "minimal", "stratification", "lemma7",
                     "charts")


@pytest.mark.parametrize("changes, argv, message", [
    ({"field": {"type": "prime", "p": 5},
      "hyperplanes": [[1, 0], [0, 1], ["1/5", 1]]}, ["circuits"], "1/5"),
    ({"field": {"type": "rational"},
      "hyperplanes": [[1, 0], [0, 1], ["1/0", 1]]}, ["circuits"], "1/0"),
    ({}, ["charts", "--flat", "0"], "index 0"),
    ({}, ["charts", "--flat", "9"], "index 9"),
    ({}, ["charts", "--invert", "9"], "index 9"),
    ({}, ["verify", "--check", "theorem2", "--grassmann", "-1"],
     "grassmann"),
    ({}, ["verify", "--check", "theorem2", "--grassmann", "4"],
     "grassmann 4 is above"),
    ({}, ["verify", "--check", "groebner-lemma", "--grassmann", "4"],
     "grassmann 4 is above"),
    ({}, ["verify", "--check", "groebner-lemma", "--grassmann", "3"],
     "grassmann 3 is above the rank, 2"),
    ({"n": 2.7}, ["circuits"], "2.7"),
    ({"n": True}, ["circuits"], "True"),
    ({"field": {"type": "prime", "p": 2.0}}, ["circuits"], "2.0"),
    ({}, ["charts", "--flat", "1", "--invert", "3"], "index 3"),
    ({"field": {"type": "prime", "p": 2**89 - 1}}, ["circuits"],
     "too large"),
] + [({}, ["verify", "--check", check, "--grassmann", "1"], "grassmann")
     for check in GRASSMANN_IGNORED],
    ids=["one-fifth-over-F5", "one-over-zero-over-Q", "flat-0", "flat-9",
         "invert-9", "grassmann-negative", "grassmann-above-m-theorem2",
         "grassmann-above-m-groebner-lemma",
         "grassmann-above-rank-groebner-lemma", "n-float", "n-boolean",
         "p-float",
         "invert-outside-flat", "p-beyond-the-primality-bound"]
    + [f"grassmann-{check}" for check in GRASSMANN_IGNORED])
def test_malformed_input_exit_code(tmp_path, capsys, changes, argv, message):
    """Malformed input exits 2 with a message, never a traceback and never
    a silent pass."""
    code, out, err = run_cli(capsys, *argv, _spec_with(tmp_path, **changes))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and message in err


@pytest.mark.parametrize("argv, env, message", [
    (["--cap-points", "-1", "points", "E3"], {}, "--cap-points"),
    (["--cap-flats", "-1", "flats", "E3"], {}, "--cap-flats"),
    (["--cap-relations", "-2", "presentation", "--mode", "all", "E3"], {},
     "--cap-relations"),
    (["--cap-family", "-1", "verify", "--check", "groebner-lemma", "E3"], {},
     "--cap-family"),
    (["points", "E3"], {"RECPLANE_CAP_POINTS": "-1"}, "RECPLANE_CAP_POINTS"),
    (["flats", "E3"], {"RECPLANE_CAP_FLATS": "many"}, "RECPLANE_CAP_FLATS"),
    (["corpus", "--p", "2", "--max-n", "0"], {}, "--max-n"),
    (["corpus", "--p", "2", "--max-m", "0"], {}, "--max-m"),
    (["corpus", "--rational", "--count", "-3"], {}, "--count"),
    (["corpus", "--rational", "--max-n", "3", "--max-m", "1"], {},
     "--max-m 1 is below --max-n 3"),
    (["corpus", "--p", "3", "--rational", "--count", "2"], {},
     "--p or --rational, not both"),
    (["corpus", "--p", "2", "--max-n", "1", "--max-m", "2", "--count", "5"],
     {}, "--count applies only to --rational"),
    (["corpus", "--p", "2", "--max-n", "1", "--max-m", "2", "--seed", "9"],
     {}, "--seed applies only to --rational"),
], ids=["cap-points-flag", "cap-flats-flag", "cap-relations-flag",
        "cap-family-flag", "cap-points-env", "cap-flats-env-not-int",
        "corpus-max-n-0", "corpus-max-m-0", "corpus-count-negative",
        "rational-max-m-below-max-n", "corpus-p-and-rational",
        "corpus-count-with-p", "corpus-seed-with-p"])
def test_malformed_size_exit_code(specs, capsys, monkeypatch, argv, env,
                                  message):
    """A size that is negative, zero where at least one is needed, or not an
    integer exits 2 with a message naming its flag or variable; none of
    these is read as a cap that everything exceeds (exit 3) or as an empty
    corpus (exit 0)."""
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    argv = [specs.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and message in err


def test_presentation_and_theorem2_share_the_circuit_presentation(
        specs, capsys, monkeypatch):
    """Circuits mode reads no caps, so `presentation --super` and theorem2
    find one memoized presentation: the triangle's 8 P_{L,S}, built once."""
    import recplane.context as context
    import recplane.relations as relations

    monkeypatch.setattr(context, "_current", None)
    built = []
    p_of_LS = relations.p_of_LS

    def counted(*args):
        built.append(args)
        return p_of_LS(*args)

    monkeypatch.setattr(relations, "p_of_LS", counted)
    assert run_cli(capsys, "presentation", "--super", specs["E3"])[0] == 0
    assert run_cli(capsys, "verify", "--check", "theorem2", specs["E3"])[0] == 0
    assert len(built) == 8


def test_cap_exceeded_exit_code(specs, capsys):
    code, _, err = run_cli(
        capsys, "--cap-points", "8", "verify", "--check", "stratification",
        specs["E1"],
    )
    assert code == 3
    assert "cap exceeded" in err


def test_cap_env_override(specs, capsys, monkeypatch):
    monkeypatch.setenv("RECPLANE_CAP_POINTS", "8")
    code, _, err = run_cli(capsys, "points", specs["E1"])
    assert code == 3
    monkeypatch.delenv("RECPLANE_CAP_POINTS")


def test_json_output_deterministic(specs, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "--format", "json", "verify", "--check", "theorem2",
            specs["E3"],
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_corpus_generation(tmp_path, capsys):
    out_dir = str(tmp_path / "corpus")
    code, out, _ = run_cli(
        capsys, "corpus", "--p", "2", "--max-n", "2", "--max-m", "3",
        "--out", out_dir,
    )
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert files and all(f.endswith(".json") for f in files)
    # every emitted spec loads back
    from recplane.arrangement import Arrangement

    for f in files:
        with open(os.path.join(out_dir, f)) as fh:
            Arrangement.from_json(json.load(fh))


def test_corpus_listing_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "corpus", "--p", "3", "--max-n", "2",
                            "--max-m", "2")
    code, out2, _ = run_cli(capsys, "corpus", "--p", "3", "--max-n", "2",
                            "--max-m", "2")
    assert out1 == out2


def test_corpus_listing_as_json(capsys):
    """`--format json` lists the same names as the text, in one object."""
    args = ("corpus", "--p", "3", "--max-n", "2", "--max-m", "2")
    code, text, _ = run_cli(capsys, *args)
    assert code == 0
    code, out, _ = run_cli(capsys, "--format", "json", *args)
    assert code == 0
    names = text.splitlines()
    assert names
    assert out == json.dumps({"instances": names}, indent=2,
                             sort_keys=True) + "\n"


def test_rational_corpus_seeded(capsys):
    code, out1, _ = run_cli(capsys, "corpus", "--rational", "--count", "5",
                            "--seed", "3")
    code, out2, _ = run_cli(capsys, "corpus", "--rational", "--count", "5",
                            "--seed", "3")
    assert out1 == out2


def test_verification_failure_exit_code(specs, capsys, monkeypatch):
    """A failing report must surface as exit code 1."""
    from recplane.oracle import Report
    import recplane.cli as cli

    monkeypatch.setattr(
        cli, "verify_theorem1",
        lambda arr, caps=None: Report("theorem1", "x", "fail", ["w"], {}),
    )
    code, out, _ = run_cli(capsys, "verify", "--check", "theorem1", specs["E3"])
    assert code == 1
    assert "fail" in out


# -- the JSON writer ------------------------------------------------------------

CHARS = st.characters(exclude_categories=()) | st.sampled_from(
    "\x00\x08\x1f\x7f\"\\/\u00e9\u2028\ud800\U0001f600")
JSON_TEXT = st.text(CHARS, max_size=12)
JSON_SCALARS = (st.none() | st.booleans() | st.sampled_from((0, 1, -1))
                | st.integers(-2 ** 200, 2 ** 200) | JSON_TEXT)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(JSON_TEXT, children, max_size=5)),
    max_leaves=20)


def written(obj):
    parts = []
    write_json(parts.append, obj)
    return "".join(parts)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
def test_write_json_matches_json_dumps(obj):
    assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_write_json_examples():
    """Booleans next to 0 and 1, empty containers, tuples and escapes."""
    obj = {"b": [True, 1, False, 0, None], "a": {}, "c": [], "d": ("x", 2),
           "\u00e9": "\x00\u2028", "e": [[], [{}]]}
    assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert written([]) == "[]\n" and written("\u00e9") == '"\\u00e9"\n'


@settings(max_examples=40, deadline=None)
@given(st.lists(JSON_TREES, max_size=4))
def test_write_json_streams_a_generator(items):
    """A generator reads as a list, and each item is written out before
    the next is made."""
    writes = []
    made = []

    def stream():
        for item in items:
            made.append(len(writes))
            yield item

    write_json(writes.append, {"items": stream(), "z": 0})
    assert "".join(writes) == json.dumps({"items": items, "z": 0}, indent=2,
                                         sort_keys=True) + "\n"
    assert made == list(range(len(items)))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=3), JSON_TREES, min_size=1,
                       max_size=3), st.integers(1, 4))
def test_write_json_encodes_a_shared_dict_once(shared, copies):
    """One dict object met several times, at one depth and at others, in a
    payload and in each item of a stream: the bytes are those of
    json.dumps, and its text is built once per item, or per payload."""
    import recplane.cli as cli

    encoded = []
    encode_dict = cli._encode_dict

    def counted(obj, *args):
        encoded.append(id(obj))
        return encode_dict(obj, *args)

    def payloads():
        row = {"a": shared, "b": [shared] * copies}
        nested = [row, {"deeper": [shared, shared]}]
        yield nested, nested, 2
        yield ({"items": (dict(row) for _ in range(copies)), "z": shared},
               {"items": [dict(row) for _ in range(copies)], "z": shared},
               2 * copies + 1)

    for payload, plain, encodes in payloads():
        want = json.dumps(plain, indent=2, sort_keys=True) + "\n"
        cli._encode_dict = counted
        try:
            del encoded[:]
            got = written(payload)
        finally:
            cli._encode_dict = encode_dict
        assert got == want
        # once per depth it is met at, anew in each stream item
        assert encoded.count(id(shared)) == encodes


@pytest.mark.parametrize("obj", [
    1.5, float("nan"), {1, 2}, [0, 0.0], {"a": {1: "b"}}, {None: 1},
    {True: 1}, {("a",): 1}, b"bytes", {"a": object()},
], ids=["float", "nan", "set", "nested-float", "int-key", "none-key",
        "bool-key", "tuple-key", "bytes", "object"])
def test_write_json_refuses_what_a_payload_never_holds(obj):
    with pytest.raises(TypeError):
        written(obj)


def test_corpus_files_are_the_json_dumps_text(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, _, _ = run_cli(capsys, "corpus", "--rational", "--count", "4",
                         "--seed", "3", "--out", str(out_dir))
    assert code == 0
    for path in sorted(out_dir.iterdir()):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"


def test_corpus_out_reports_the_files_it_wrote(tmp_path, capsys):
    """`--out` counts the files as it writes them and reports the count
    through `emit`: one text line, or one JSON object."""
    args = ("corpus", "--p", "2", "--max-n", "2", "--max-m", "3")
    text_dir, json_dir = tmp_path / "text", tmp_path / "json"
    code, out, _ = run_cli(capsys, *args, "--out", str(text_dir))
    assert code == 0
    count = len(list(text_dir.iterdir()))
    assert count and out == f"wrote {count} spec files to {text_dir}\n"
    code, out, _ = run_cli(capsys, "--format", "json", *args,
                           "--out", str(json_dir))
    assert code == 0
    assert json.loads(out) == {"out": str(json_dir), "written": count}
    assert len(list(json_dir.iterdir())) == count


def test_corpus_listing_writes_each_name_before_the_next_is_built(
        capsys, monkeypatch):
    """The finite-field listing takes the enumeration lazily: its first
    name is out before the second instance is made."""
    import recplane.corpus as corpus

    enumerate_arrangements = corpus.enumerate_arrangements
    written_before_second = []

    def watched(*args):
        instances = enumerate_arrangements(*args)
        yield next(instances)
        written_before_second.append(capsys.readouterr().out)
        yield from instances

    monkeypatch.setattr(corpus, "enumerate_arrangements", watched)
    code, out, _ = run_cli(capsys, "corpus", "--p", "2", "--max-n", "2",
                           "--max-m", "2")
    assert code == 0
    first = written_before_second[0]
    assert first.count("\n") == 1 and first.startswith("p2_n1_m1_")
    assert out and first not in out


# -- one parser per process -------------------------------------------------------


def test_the_parser_is_built_once(specs, capsys, monkeypatch):
    """Later calls reuse the first call's parser, and no flag of one call
    leaks into the next."""
    import recplane.cli as cli

    assert run_cli(capsys, "presentation", "--super", specs["E3"])[0] == 0

    def refuse():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out, _ = run_cli(capsys, "presentation", specs["E3"])
    assert code == 0 and out.startswith("commutative presentation")
    code, out, _ = run_cli(capsys, "--format", "json", "flats", specs["E3"])
    assert code == 0 and json.loads(out)["flats"]


# -- a reader that closes the pipe -------------------------------------------------

BRAID_A4_F5 = {
    "field": {"type": "prime", "p": 5},
    "n": 5,
    "hyperplanes": [[1 if k == i else -1 if k == j else 0 for k in range(5)]
                    for i in range(5) for j in range(i + 1, 5)],
}


@pytest.mark.parametrize("fmt, head", [
    ("json", b'{\n  "charts": [\n    {\n'),
    ("text", b"super chart: flat=[] inverted=[]\n  [L="),
])
def test_closed_pipe_ends_quietly(tmp_path, fmt, head):
    """`charts --super` on braid A4 writes megabytes; a reader that takes
    100 bytes and closes the pipe gets them, and the command exits 0 with
    nothing on stderr."""
    spec = tmp_path / "braid_a4_f5.json"
    spec.write_text(json.dumps(BRAID_A4_F5))
    code, err, got = _read_and_close(
        "--format", fmt, "charts", "--super", str(spec))
    assert code == 0
    assert err == b""
    assert got.startswith(head)


@pytest.mark.parametrize("fmt, head", [
    ("json", b'{\n  "instances": [\n    "q_seed1_'),
    ("text", b"q_seed1_"),
])
def test_corpus_listing_closed_pipe_ends_quietly(fmt, head):
    """The corpus listing goes through `emit` too: 10,000 names are far
    more than a pipe buffer holds, and a reader that takes 100 bytes and
    closes the pipe leaves the command with exit 0 and an empty stderr."""
    code, err, got = _read_and_close(
        "--format", fmt, "corpus", "--rational", "--count", "10000",
        "--seed", "1")
    assert code == 0
    assert err == b""
    assert got.startswith(head)


def _read_and_close(*argv):
    """(exit code, stderr, first 100 bytes of stdout) of the CLI in a
    subprocess whose stdout is closed after those 100 bytes."""
    src = os.path.dirname(os.path.dirname(recplane.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "recplane.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    got = b""
    while len(got) < 100:
        chunk = proc.stdout.read(100 - len(got))
        assert chunk, "the command ended before writing 100 bytes"
        got += chunk
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err, got


class _ClosedPipe:
    """A stdout whose reader has gone; `fileno` is a file of the test's."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_pipe_builds_no_further_charts(specs, tmp_path, monkeypatch,
                                              fmt):
    """The first write fails, so only the first of the triangle's five
    charts is built, and stdout's descriptor then points at os.devnull."""
    import recplane.cli as cli

    built = []
    chart_ring = cli.chart_ring

    def counted(*args, **kwargs):
        built.append(args[1])
        return chart_ring(*args, **kwargs)

    monkeypatch.setattr(cli, "chart_ring", counted)
    target = tmp_path / "stdout"
    with open(target, "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = main(["--format", fmt, "charts", "--super", specs["E3"]])
        monkeypatch.undo()
        os.write(fh.fileno(), b"after the pipe closed")
    assert code == 0
    assert len(built) == 1
    assert target.read_bytes() == b""
