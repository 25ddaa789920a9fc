import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, strategies as st

from paramax import cli, conditions, engine, param
from paramax.cli import (
    DOCUMENT_SCHEMA,
    EXIT_IMPOSSIBLE,
    EXIT_MISMATCH,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_OUT_OF_MEMORY,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    dump,
    main,
)
from paramax.conditions import WIDTH_CAP, render_mask
from paramax.consistency import ConsistencyReport
from paramax.engine import ORACLE_CAP, AnalysisConfig, OracleReport, analyze_param
from paramax.frontend import MAX_NESTING, AssumptionId, ParseError, dump_cfg, parse_cfg
from paramax.intervals import BOTTOM, NEG_INF, POS_INF, Interval, IntervalEnv
from paramax.param import ParamState, Rule
from paramax.synthesis import SynthesisOutcome

from conftest import CORPUS, CORPUS_DIR, RuleList, corpus_source, env_of, independent_source, table_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_path(name: str) -> str:
    return str(CORPUS_DIR / name)


def test_analyze_text_output(capsys):
    code, out, _ = run(capsys, "analyze", corpus_path("example1.pwl"))
    assert code == EXIT_OK
    assert "true -> x:[5,5]" in out
    assert "assumptions: a, b" in out
    assert "converged=true" in out


def test_analyze_json_matches_schema(capsys):
    code, out, _ = run(capsys, "analyze", corpus_path("example1.pwl"), "--format", "json")
    assert code == EXIT_OK
    document = json.loads(out)
    jsonschema.validate(document, DOCUMENT_SCHEMA)
    assert document["assumptions"] == ["a", "b"]
    node3 = document["nodes"][3]
    assert node3["rules"] == [
        {"condition": "true", "condition_sets": [0, 1, 2, 3], "state": {"x": [5, 5]}}
    ]


def test_all_corpus_documents_validate(capsys):
    for entry in CORPUS:
        argv = ["analyze", corpus_path(entry.name), "--format", "json"]
        if entry.config is not None and entry.config.widening_delay:
            argv += ["--widen", str(entry.config.widening_delay)]
        code, out, _ = run(capsys, *argv)
        document = json.loads(out)
        jsonschema.validate(document, DOCUMENT_SCHEMA)
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)


def test_text_and_json_agree_on_rules(capsys):
    _, text_out, _ = run(capsys, "analyze", corpus_path("mutex.pwl"))
    _, json_out, _ = run(capsys, "analyze", corpus_path("mutex.pwl"), "--format", "json")
    document = json.loads(json_out)
    for node in document["nodes"]:
        for rule in node["rules"]:
            state = rule["state"]
            if state == "bottom":
                rendered = "bottom"
            else:
                rendered = " ".join(
                    f"{var}:[{lo},{hi}]" for var, (lo, hi) in sorted(state.items())
                )
            assert f"{rule['condition']} -> {rendered}" in text_out


def test_analyze_nonconvergent_exit(capsys):
    code, out, _ = run(capsys, "analyze", corpus_path("loop_diverge.pwl"))
    assert code == EXIT_NOT_CONVERGED
    assert "converged=false" in out


def test_analyze_with_widening_converges(capsys):
    code, out, _ = run(capsys, "analyze", corpus_path("loop_diverge.pwl"), "--widen", "3")
    assert code == EXIT_OK
    assert "x:[0,+inf]" in out


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.pwl"
    bad.write_text("x := ;")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == EXIT_USAGE
    assert "line 1" in err


@pytest.mark.parametrize(
    "source, line, col, message",
    [
        ("assume : x >= 0;", 1, 8, "expected an assumption label"),
        ("x := 0;\nif (x >= 0 && x <= 1) { x := 1; }", 2, 12,
         "guard conditions must be a single comparison"),
        ("x := 2 * ;", 1, 8, "expected a variable after '*'"),
        ("x := 0;\nassert x ;", 2, 10, "expected a comparison operator"),
        ("x := input() in [a, 3];", 1, 18, "expected an integer"),
        ("x := 1;\n\tx := $;", 2, 7, "unexpected character '$'"),  # a tab is one column
        ("x := 1; # note\ny := x @ 2;", 2, 8, "unexpected character '@'"),
        ("x := 1; é", 1, 9, "unexpected character 'é'"),
        ("x := y * ;", 1, 10, "expected a constant after '*'"),
        ("x := 0;\nassert ( ;", 2, 10, "expected a variable or constant"),
        ("x := 1\n# tail", 2, 7, "expected ';'"),  # the end of input, after a comment
        ("x := 0; assume a: x >= 0;\n  assume a: x >= 1;", 2, 10, "duplicate assume label 'a'"),
    ],
    ids=[
        "label", "guard", "star", "comparison", "integer", "tab", "comment", "non-ascii",
        "constant", "operand", "end", "duplicate",
    ],
)
def test_parse_errors_name_their_position(tmp_path, capsys, source, line, col, message):
    path = tmp_path / "bad.pwl"
    path.write_text(source, encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"{path}: line {line}, col {col}: {message}\n"
    assert "Traceback" not in err


# The most digits `int` converts here; 0 where it converts any number.
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize(
    "source, col",
    [
        ("x := N;", 6),
        ("x := 2 * N;", 10),
        ("x := y * N;", 10),
        ("x := input() in [0, N];", 21),
        ("x := 0;\nassert x <= -N;", 14),
    ],
    ids=["constant", "constant-factor", "coefficient", "input-range", "assertion"],
)
def test_a_literal_too_long_to_convert_names_its_position(tmp_path, capsys, source, col):
    digits = _INT_DIGITS + 1
    path = tmp_path / "long.pwl"
    path.write_text(source.replace("N", "9" * digits), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    line = source.count("\n") + 1
    message = f"integer literal of {digits} digits is too long"
    assert err == f"{path}: line {line}, col {col}: {message}\n"


@pytest.mark.skipif(not _INT_DIGITS, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize(
    "source",
    [
        "x := @H * H;",
        "x := N + @N;",
        "x := N*y + @N*y;",
        "x := input();\nif (@x > N) { skip; }",
        "x := input();\nwhile (@x <= N) { skip; }",
        "x := input();\nassume a: x >= 0 && @x > N;",
    ],
    ids=["product", "sum", "coefficient", "guard", "negated-guard", "bound"],
)
def test_a_value_folded_past_the_convertible_digits_names_its_term(tmp_path, capsys, source):
    # each literal converts, but the value the parser makes of them does not:
    # H * H has about twice H's digits, and N + N or N + 1 one more than N's
    source = source.replace("H", "9" * (_INT_DIGITS // 2 + 1)).replace("N", "9" * _INT_DIGITS)
    before, _, after = source.partition("@")
    line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
    path = tmp_path / "folded.pwl"
    path.write_text(before + after, encoding="utf-8")
    message = f"value of more than {_INT_DIGITS} digits is too long"
    for command in ("dump-cfg", "analyze"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (EXIT_USAGE, ""), command
        assert err == f"{path}: line {line}, col {col}: {message}\n"


# More digits than the largest finite float has: such an int has no float form.
_PAST_FLOAT = "9" * (len(str(int(sys.float_info.max))) + 1)


@pytest.mark.parametrize("expr", [f"{_PAST_FLOAT}*x", f"x + {_PAST_FLOAT}", f"-{_PAST_FLOAT}*x"])
def test_a_constant_past_float_range_meets_an_unbounded_input(tmp_path, capsys, expr):
    path = tmp_path / "wide.pwl"
    path.write_text(f"x := input();\ny := {expr};\nassert y >= 0;\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert out.count("x:[-inf,+inf] y:[-inf,+inf]") == 5


def test_running_out_of_memory_exits_6_naming_the_command(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "analyze_param", exhausted)
    for command in ("analyze", "synthesize", "consistency", "check-oracle"):
        code, out, err = run(capsys, command, corpus_path("example1.pwl"))
        assert (code, out, err) == (EXIT_OUT_OF_MEMORY, "", f"paramax {command}: out of memory\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_an_analysis_past_an_address_space_limit_exits_6(tmp_path):
    # 16 inputs summed: the sum's partition has 2**16 cells of 2**16-bit masks,
    # about 512 MiB, so the child runs out under its own 250 MB limit
    n = 16
    path = tmp_path / "sum16.pwl"
    sums = " + ".join(f"x{i}" for i in range(n))
    path.write_text(independent_source(n) + f"\ns := {sums};\nassert s >= 0;\n", encoding="utf-8")
    script = (
        "import resource, sys\n"
        "soft, hard = 250_000 * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    soft = min(soft, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        "import paramax.cli\n"
        "sys.exit(paramax.cli.main(['analyze', sys.argv[1]]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (EXIT_OUT_OF_MEMORY, "paramax analyze: out of memory\n")


@pytest.mark.parametrize(
    "source, expected",
    [
        ("x := 1;\ry := $;", "line 1, col 14: unexpected character '$'"),  # `\r` ends no line
        ("x := 1;\r\ny := $;\r\n", "line 2, col 6: unexpected character '$'"),
        ("x := 1; # note\ry := 2;", 4),  # a `\r` ends the comment
        ("x := 1; # note\r\ny := 2;\r\n", 4),
    ],
    ids=["cr-error", "crlf-error", "cr-comment", "crlf-comment"],
)
def test_the_cli_reads_a_source_as_parse_cfg_does(tmp_path, capsys, source, expected):
    # the file's bytes reach the parser untranslated, so the CLI reports the
    # position and builds the CFG that `parse_cfg` gives on the same text
    path = tmp_path / "newlines.pwl"
    path.write_bytes(source.encode())
    code, out, err = run(capsys, "dump-cfg", str(path))
    try:
        cfg = parse_cfg(source)
    except ParseError as exc:
        assert (code, out, err) == (EXIT_USAGE, "", f"{path}: {exc}\n")
        assert str(exc) == expected
    else:
        assert (code, out, err) == (EXIT_OK, dump_cfg(cfg), "")
        assert len(cfg.nodes) == expected


def test_a_file_of_lone_carriage_returns_reads_as_its_lf_copy(tmp_path, capsys):
    # comments end at a `\r` too, so no comment swallows the lines after it
    source = corpus_source("example1.pwl")
    assert "#" in source and "\r" not in source
    path = tmp_path / "example1_cr.pwl"
    path.write_bytes(source.replace("\n", "\r").encode())
    assert run(capsys, "dump-cfg", str(path)) == run(capsys, "dump-cfg", corpus_path("example1.pwl"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("3", "--input-range expects LO:HI, got '3'"),
        ("a:b", "--input-range expects integers, got 'a:b'"),
        ("3:1", "--input-range is empty"),
    ],
)
def test_input_range_errors(capsys, text, message):
    code, out, err = run(
        capsys, "check-oracle", corpus_path("fig1.pwl"), "--soundness", "--input-range", text
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


def _deep_programs() -> dict[str, tuple[str, int, int]]:
    """Source, line and column of the token that crosses the nesting limit."""
    col_if = len("if (x > 0) ") + 1
    col_while = len("while (x > 0) ") + 1
    return {
        "if300": (
            "x := input();\n" + "if (x > 0) {\n" * 300 + "x := 1;\n" + "}\n" * 300,
            MAX_NESTING + 2,
            col_if,
        ),
        "while300": (
            "x := input();\n" + "while (x > 0) {\n" * 300 + "x := x - 1;\n" + "}\n" * 300,
            MAX_NESTING + 2,
            col_while,
        ),
        "paren400": (
            "x := 0;\nassert " + "(" * 400 + "x <= 1" + ")" * 400 + ";\n",
            2,
            len("assert ") + MAX_NESTING + 1,
        ),
    }


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    assert MAX_NESTING == 100
    for name, (source, line, col) in _deep_programs().items():
        path = tmp_path / f"{name}.pwl"
        path.write_text(source)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_USAGE, name
        assert out == ""
        assert err == f"{path}: line {line}, col {col}: nesting deeper than 100 levels\n"
        assert "Traceback" not in err


def test_nesting_below_the_limit_analyzes(tmp_path, capsys):
    path = tmp_path / "if50.pwl"
    path.write_text(
        "x := input();\nassume a: x >= 0;\n"
        + "if (x > 0) {\n" * 50
        + "x := 1;\n"
        + "}\n" * 50
        + "assert " + "(" * 49 + "x >= 0" + ")" * 49 + ";\n"
    )
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_OK, err
    assert "converged=true" in out


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/nope.pwl")
    assert code == EXIT_USAGE
    assert err


def test_synthesize_solutions_exit(capsys):
    code, out, _ = run(capsys, "synthesize", corpus_path("synth_gate.pwl"))
    assert code == EXIT_OK
    assert "solutions: [{a}]" in out
    assert "minimal: [{a}]" in out
    assert "verification: ok" in out


def test_synthesize_no_asserts(capsys):
    code, out, _ = run(capsys, "synthesize", corpus_path("example1.pwl"))
    assert code == EXIT_OK
    assert "solutions: all subsets" in out


def test_synthesize_impossible_exit(capsys):
    code, out, _ = run(capsys, "synthesize", corpus_path("impossible.pwl"))
    assert code == EXIT_IMPOSSIBLE
    assert "verdict: impossible" in out


def test_synthesize_unknown_exit(capsys):
    code, out, _ = run(capsys, "synthesize", corpus_path("unknown_assert.pwl"))
    assert code == EXIT_UNKNOWN
    assert "verdict: unknown" in out


def test_synthesize_json_document(capsys):
    code, out, _ = run(
        capsys, "synthesize", corpus_path("branch_assume.pwl"), "--format", "json"
    )
    assert code == EXIT_OK
    document = json.loads(out)
    jsonschema.validate(document, DOCUMENT_SCHEMA)
    assert document["synthesis"]["verdict"] == "solutions"
    assert document["synthesis"]["solutions"] == [3]


def test_consistency_never_consistent(capsys):
    code, out, _ = run(capsys, "consistency", corpus_path("never_consistent.pwl"))
    assert code == EXIT_OK
    assert "a1: never-consistent" in out


def test_consistency_irrefutable(capsys):
    code, out, _ = run(capsys, "consistency", corpus_path("irrefutable.pwl"))
    assert code == EXIT_OK
    assert "a: in-every-consistent-set" in out


def test_consistency_phi_table(capsys):
    code, out, _ = run(
        capsys, "consistency", corpus_path("mutex.pwl"), "--phi-table"
    )
    assert code == EXIT_OK
    assert "phi-table:" in out
    assert "{lo, hi} -> {lo}" in out


def test_consistency_json(capsys):
    code, out, _ = run(
        capsys, "consistency", corpus_path("mutex.pwl"), "--format", "json"
    )
    document = json.loads(out)
    jsonschema.validate(document, DOCUMENT_SCHEMA)
    assert document["consistency"]["classification"] == {
        "lo": "in-every-consistent-set",
        "hi": "never-consistent",
    }


def test_json_output_builds_no_text_report(capsys, monkeypatch):
    argvs = (
        ("synthesize", corpus_path("synth_gate.pwl"), "--verify-solutions", "2"),
        ("consistency", corpus_path("mutex.pwl"), "--phi-table"),
        ("check-oracle", corpus_path("example1.pwl")),
    )
    before = [run(capsys, *argv, "--format", "json") for argv in argvs]

    def refuse(*args):
        raise AssertionError("format_subset is called for the text report only")

    monkeypatch.setattr(cli, "format_subset", refuse)
    for argv, expected in zip(argvs, before):
        assert expected[0] == EXIT_OK
        assert run(capsys, *argv, "--format", "json") == expected, argv
    with pytest.raises(AssertionError, match="text report only"):
        main(["consistency", corpus_path("mutex.pwl"), "--phi-table"])


def test_check_oracle_passes(capsys):
    code, out, _ = run(
        capsys, "check-oracle", corpus_path("example1.pwl"), "--theorem1"
    )
    assert code == EXIT_OK
    assert "equivalence: pass" in out


def test_check_oracle_soundness_with_range(capsys):
    code, out, _ = run(
        capsys,
        "check-oracle",
        corpus_path("fig1.pwl"),
        "--soundness",
        "--input-range",
        "-2:13",
    )
    assert code == EXIT_OK
    assert "soundness: pass" in out


def test_check_oracle_rejects_a_negative_step_bound(capsys):
    # on a diverging loop an unchecked negative bound never returns
    code, out, err = run(
        capsys, "check-oracle", corpus_path("fig1.pwl"), "--soundness", "--max-steps", "-1"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: --max-steps must be at least 0, got -1\n"


def test_check_oracle_runs_both_by_default(capsys):
    code, out, _ = run(capsys, "check-oracle", corpus_path("meet_narrow.pwl"))
    assert code == EXIT_OK
    assert "equivalence: pass" in out and "soundness: pass" in out


def test_check_oracle_mutant_exits_5(capsys, monkeypatch):
    # mismatching analyzer stand-in: report a fabricated inequality
    def fake_verify(cfg, config=None, program_name="x", **kw):
        report = OracleReport("equivalence", program_name, 4, "equality")
        report.mismatches.append({"subset": 1, "node": 3, "baseline": "x", "parameterized": "y"})
        return report

    monkeypatch.setattr(cli, "verify_equivalence", fake_verify)
    code, out, _ = run(
        capsys, "check-oracle", corpus_path("example1.pwl"), "--theorem1"
    )
    assert code == EXIT_MISMATCH
    assert "FAIL" in out
    code, out, _ = run(
        capsys, "check-oracle", corpus_path("example1.pwl"), "--theorem1", "--format", "json"
    )
    assert code == EXIT_MISMATCH
    assert json.loads(out)["oracle_reports"][0]["mismatches"] == [
        {"subset": 1, "node": 3, "baseline": "x", "parameterized": "y"}
    ]
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


NONCONVERGENT_COUNTER = """x := input();
i := 0;
assume a: x >= 1;
assume b: x <= 5;
assume c: i >= 0;
while (i < x) { i := i + 1; }
"""


@pytest.mark.parametrize("command", ["synthesize", "consistency", "check-oracle"])
def test_non_convergence_names_the_option_that_can_help(tmp_path, capsys, command):
    # a program without a loop converges given more evaluations; a loop may need widening
    straight = tmp_path / "straight.pwl"
    straight.write_text("".join(f"x := x + {i};\n" for i in range(20)))
    loop = tmp_path / "counter.pwl"
    loop.write_text(NONCONVERGENT_COUNTER)
    for path, flags, hint in ((straight, ("--max-iters", "10"), "--max-iters"), (loop, (), "--widen")):
        code, out, err = run(capsys, command, str(path), *flags)
        assert (code, out) == (EXIT_NOT_CONVERGED, "")
        assert err == f"analysis did not converge; try {hint}\n"


def test_check_oracle_refuses_nonconvergent_analysis(tmp_path, capsys):
    source = tmp_path / "counter.pwl"
    source.write_text(NONCONVERGENT_COUNTER)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "check-oracle", str(source), "--format", fmt)
        assert code == EXIT_NOT_CONVERGED, fmt
        assert "analysis did not converge" in err
        assert out == ""
    code, out, _ = run(capsys, "check-oracle", str(source), "--widen", "2")
    assert code == EXIT_OK
    assert "equivalence: pass" in out


def test_check_oracle_analyzes_once(capsys, monkeypatch):
    calls = []
    real = engine.analyze_param

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze_param", counting)
    monkeypatch.setattr(engine, "analyze_param", counting)
    code, out, _ = run(capsys, "check-oracle", corpus_path("meet_narrow.pwl"))
    assert code == EXIT_OK
    assert "equivalence: pass" in out and "soundness: pass" in out
    assert len(calls) == 1


def test_text_mode_builds_no_json_document(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("text output built a JSON document")

    monkeypatch.setattr(cli, "analysis_document", refuse)
    monkeypatch.setattr(cli, "_table_writer", refuse)
    for owner in (SynthesisOutcome, ConsistencyReport, OracleReport):
        monkeypatch.setattr(owner, "to_json", refuse)
    cases = [
        ("analyze", "example1.pwl", EXIT_OK, "true -> x:[5,5]"),
        ("synthesize", "synth_gate.pwl", EXIT_OK, "verification: ok"),
        ("synthesize", "unknown_assert.pwl", EXIT_UNKNOWN, "verdict: unknown"),
        ("consistency", "mutex.pwl", EXIT_OK, "hi: never-consistent"),
        ("check-oracle", "meet_narrow.pwl", EXIT_OK, "soundness: pass"),
    ]
    for command, name, expected_code, expected_line in cases:
        code, out, _ = run(capsys, command, corpus_path(name))
        assert code == expected_code, (command, name)
        assert expected_line in out, (command, name)


def test_cli_builds_no_condition_tree_outside_the_output(capsys, monkeypatch):
    # the analysis and both applications work on masks, and output prints a
    # mask's cover with `render_mask`: no command builds or reads a tree
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(conditions, "formula", counting("formula", conditions.formula))
    for cls in (conditions.Atom, conditions.Not, conditions.And, conditions.Or):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    conditions.truth_table.cache_clear()
    conditions.simplify.cache_clear()
    for argv in (
        ["analyze", "chain8.pwl", "--format", "json"],
        ["synthesize", "synth_gate.pwl"],
        ["synthesize", "chain8.pwl", "--format", "json"],
        ["consistency", "mutex.pwl", "--phi-table"],
        ["check-oracle", "loop_assume_widen.pwl", "--widen", "2", "--input-range", "-3:3"],
    ):
        code, out, _ = run(capsys, argv[0], corpus_path(argv[1]), *argv[2:])
        assert code == EXIT_OK, argv
        assert out, argv
    assert conditions.truth_table.cache_info().currsize == 0
    assert conditions.simplify.cache_info().currsize == 0
    assert calls == Counter()
    # the counters are live: one formula over one atom builds one Atom
    conditions.formula(0b10, (AssumptionId(0, "a", 1),))
    assert calls == Counter(formula=1, Atom=1)


def test_synthesize_and_consistency_at_the_width_cap(tmp_path, capsys):
    # the program of test_param's width-cap test: stacked lower bounds on x,
    # then upper bounds, then an assertion that needs x >= 4
    lower, upper = range(1, 14), (20, 9, 4)
    lines = ["x := input();"] + [f"assume w{i}: x >= {i};" for i in lower]
    lines += [f"assume u{j}: x <= {b};" for j, b in enumerate(upper, 1)]
    path = tmp_path / "cap.pwl"
    path.write_text("\n".join(lines + ["y := x + 1;", "assert y >= 5;"]))
    bounds = [(i, math.inf) for i in lower] + [(-math.inf, b) for b in upper]
    labels = [f"w{i}" for i in lower] + [f"u{j}" for j in range(1, len(upper) + 1)]
    assert len(labels) == WIDTH_CAP

    def box(subset, upto):  # x's bounds after the subset's first `upto` assumptions
        held = [bounds[k] for k in range(upto) if labels[k] in subset]
        return max([-math.inf] + [b[0] for b in held]), min([math.inf] + [b[1] for b in held])

    def proved(subset):  # y = x + 1 >= 5 on every reaching state, or no state reaches
        lo, hi = box(subset, len(labels))
        return lo >= 4 or lo > hi

    def phi(subset):  # the assumptions whose assume node leaves some state feasible
        return {
            label
            for k, label in enumerate(labels)
            if max(box(subset, k)[0], bounds[k][0]) <= min(box(subset, k)[1], bounds[k][1])
        }

    def text(subset):
        return "{" + ", ".join(label for label in labels if label in subset) + "}"

    layers = ([c for c in combinations(labels, k) if proved(c)] for k in range(len(labels) + 1))
    minimal = sorted(next(filter(None, layers)), key=lambda c: sum(1 << labels.index(x) for x in c))
    code, out, _ = run(capsys, "synthesize", str(path))
    assert code == EXIT_OK
    assert "verdict: solutions" in out.splitlines()
    assert "minimal: [" + ", ".join(text(c) for c in minimal) + "]" in out.splitlines()

    core = set()
    while phi(phi(core)) != core:
        core = phi(phi(core))
    envelope = phi(core)
    code, out, _ = run(capsys, "consistency", str(path))
    assert code == EXIT_OK
    expected = [f"core: {text(core)}", f"envelope: {text(envelope)}"]
    kinds = ("never-consistent", "in-some-consistent-set", "in-every-consistent-set")
    expected += [f"{label}: {kinds[(label in envelope) + (label in core)]}" for label in labels]
    assert out.splitlines()[1:] == expected


def test_dump_cfg(capsys):
    code, out, _ = run(capsys, "dump-cfg", corpus_path("example1.pwl"))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "id=0 kind=entry succs=[1]"
    assert out.splitlines()[-1] == "id=5 kind=exit succs=[]"


def test_usage_error_exit():
    assert main(["analyze"]) == EXIT_USAGE
    assert main(["frobnicate", "x.pwl"]) == EXIT_USAGE


def test_programs_above_the_width_cap_are_refused(tmp_path, capsys):
    # `consistency`, not `analyze`: at the cap each node's table has 65,536 rules
    for n, expected in ((WIDTH_CAP, EXIT_OK), (WIDTH_CAP + 1, EXIT_USAGE)):
        path = tmp_path / f"independent{n}.pwl"
        path.write_text(independent_source(n))
        code, out, err = run(capsys, "consistency", str(path))
        assert code == expected, n
        assert ("width cap" in err) == (code == EXIT_USAGE) == (out == ""), n
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: program has 17 assumptions; configured width cap is 16\n"


def test_check_oracle_above_the_oracle_cap_is_refused(tmp_path, capsys):
    path = tmp_path / "independent13.pwl"
    path.write_text(independent_source(ORACLE_CAP + 1))
    code, out, err = run(capsys, "check-oracle", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: refusing to enumerate 2**13 subsets (cap 12)\n"


def test_synthesize_rejects_a_negative_verification_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "analyze_param", None)  # rejected before analyzing
    code, out, err = run(
        capsys, "synthesize", corpus_path("chain8.pwl"), "--verify-solutions", "-1"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --verify-solutions must be at least 0, got -1\n"


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "analyze", corpus_path("chain8.pwl"), "--format", "json")
    _, second, _ = run(capsys, "analyze", corpus_path("chain8.pwl"), "--format", "json")
    assert first == second


def test_json_output_beyond_the_corpus_matches_the_stdlib(tmp_path, capsys):
    # 8 independent assumptions: 2**8 rules at the exit, far more rules and
    # subsets than any golden corpus document has
    n = 8
    path = tmp_path / "independent8.pwl"
    path.write_text(_independent_program(n))
    code, out, _ = run(capsys, "synthesize", str(path), "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["nodes"][-1]["rules"]) == 1 << n
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "flags, config",
    [
        ((), AnalysisConfig()),
        (("--max-iters", "5"), AnalysisConfig(max_iterations=5)),  # stopped before the fixpoint
        (("--widen", "1"), AnalysisConfig(widening_delay=1)),
    ],
)
def test_streamed_rule_tables_equal_the_plain_form(tmp_path, capsys, flags, config):
    independent = tmp_path / "independent8.pwl"
    independent.write_text(_independent_program(8))
    for path in [*(CORPUS_DIR / entry.name for entry in CORPUS), independent]:
        result = analyze_param(parse_cfg(path.read_text()), config)
        for command in ("analyze", "synthesize"):
            _, out, _ = run(capsys, command, str(path), "--format", "json", *flags)
            if not out:  # synthesize prints no document if the analysis did not converge
                continue
            nodes = json.loads(out)["nodes"]
            assert len(nodes) == len(result.states), (path.name, command)
            for node, state in zip(nodes, result.states):
                assert node["rules"] == table_json(state), (path.name, command, node["id"])


def _independent_program(n: int) -> str:
    return (
        "".join(f"x{i} := input();\nassume a{i}: x{i} >= 0;\n" for i in range(n))
        + "assert " + " && ".join(f"x{i} >= 0" for i in range(n)) + ";\n"
    )


def _plain(value):
    """`value` with each `ParamState` replaced by its `table_json`."""
    if isinstance(value, ParamState):
        return table_json(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def test_writer_renders_each_distinct_mask_and_state_once(monkeypatch):
    # the tables are read off the partitions: no rule or state is built, and
    # each distinct mask and (variable, interval) is rendered once; every mask
    # of a product of single-assumption cells is a cube, printed with no cover
    cfg = parse_cfg(_independent_program(7))
    result = analyze_param(cfg, AnalysisConfig())
    doc = cli.analysis_document("independent7", cfg, result)
    assert [node["rules"] for node in doc["nodes"]] == result.states
    assert all(node["rules"] is result.states[node["id"]] for node in doc["nodes"])
    expected = json.dumps(_plain(doc), indent=2)
    rules = [rule for state in result.states for rule in state.rules]
    masks = {rule.mask for rule in rules}
    bindings = {(v, iv) for rule in rules if not rule.state.is_bottom for v, iv in rule.state.items()}
    calls: dict[str, list] = {"render_mask": [], "members": [], "to_json": []}

    def counting(name, fn):
        def counted(first, *rest):
            calls[name].append(first)
            return fn(first, *rest)

        return counted

    def refuse(*args):
        raise AssertionError("the writer built a rule, read a state or covered a cube")

    fresh = analyze_param(cfg, AnalysisConfig())  # states whose rules were never read
    doc = cli.analysis_document("independent7", cfg, fresh)
    monkeypatch.setattr(cli, "render_mask", counting("render_mask", cli.render_mask))
    monkeypatch.setattr(cli, "members", counting("members", cli.members))
    monkeypatch.setattr(Interval, "to_json", counting("to_json", Interval.to_json))
    monkeypatch.setattr(param, "Rule", refuse)
    monkeypatch.setattr(IntervalEnv, "items", refuse)
    monkeypatch.setattr(conditions, "_cover", refuse)
    pieces: list[str] = []
    dump(doc, pieces.append)
    assert "".join(pieces) == expected
    # every table is written rule by rule: one piece per rule, and a few per node
    assert len(rules) < len(pieces) < len(rules) + 20 * len(cfg.nodes)
    # one text per distinct mask and (variable, interval), however many rules share it
    assert len(masks) < len(rules)
    assert calls["members"] == calls["render_mask"]
    assert sorted(calls["render_mask"]) == sorted(masks)
    assert len(calls["to_json"]) == len(bindings) == 7 * 2  # each x: top and [0, +inf]


def test_unchanged_nodes_share_their_predecessors_state_and_rules():
    cfg = parse_cfg(_independent_program(7))
    result = analyze_param(cfg, AnalysisConfig())
    doc = cli.analysis_document("independent7", cfg, result)
    kinds = {"input": 0, "assert": 0, "exit": 0}
    for node in cfg.nodes:
        kind = node.render().partition("(")[0]
        if kind in kinds:
            kinds[kind] += 1
            (pred,) = cfg.predecessors(node.id)
            assert result.states[node.id] is result.states[pred], node.render()
            assert doc["nodes"][node.id]["rules"] is doc["nodes"][pred]["rules"]
    assert kinds == {"input": 7, "assert": 1, "exit": 1}
    assert len({id(state) for state in result.states}) == 8  # entry and the 7 assumes


def test_json_output_peak_memory_stays_below_one_and_a_half_times_its_size(tmp_path):
    path = tmp_path / "independent8.pwl"
    path.write_text(_independent_program(8))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["synthesize", str(path), "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    size = len(out.getvalue())
    assert size > 1_000_000
    assert peak < 1.5 * size, (peak, size)


class _Pieces(io.StringIO):
    """A stdout that also counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_text_analyze_streams_node_by_node_below_three_times_its_size(tmp_path):
    path = tmp_path / "independent8.pwl"
    path.write_text(_independent_program(8))
    cfg = parse_cfg(path.read_text())
    result = analyze_param(cfg, AnalysisConfig())
    # the report as it was built before streaming: one line per expanded rule, joined
    labels = ", ".join(a.label for a in cfg.assumptions)
    lines = ["program: independent8.pwl", f"assumptions: {labels}"]
    for node in cfg.nodes:
        lines.append(f"node {node.id} {node.render()}:")
        for rule in result.states[node.id].rules:
            lines.append(f"  {render_mask(rule.mask, cfg.assumptions)} -> {rule.state.render()}")
    lines.append(f"meta: iterations={result.iterations} converged=true")
    out = _Pieces()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["analyze", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert out.getvalue() == "\n".join(lines) + "\n"
    assert out.writes == len(cfg.nodes) + 2  # the header, one piece per node, the meta line
    size = len(out.getvalue())
    assert size > 150_000
    assert peak < 3 * size, (peak, size)


# escapes, control characters, non-ASCII text and a lone surrogate
_SPECIAL_TEXT = st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "é", "☃", "😀"]
)
_TEXT = st.lists(st.text() | _SPECIAL_TEXT, max_size=3).map("".join)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0])
    | _TEXT
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


def dumps(value) -> str:
    """The text that `dump` writes, joined."""
    pieces: list[str] = []
    dump(value, pieces.append)
    return "".join(pieces)


@given(_JSON_VALUES)
def test_dumps_matches_the_stdlib(value):
    assert dumps(value) == json.dumps(value, indent=2)


@st.composite
def _shared_json_values(draw):
    """A list that holds the same list, tuple or dict objects at several
    depths and positions, empty ones included: each container drawn holds
    scalars and earlier containers, and the list holds all of them."""
    pool = [[], (), {}]
    for _ in range(draw(st.integers(1, 6))):
        items = [
            draw(st.sampled_from(pool) if draw(st.booleans()) else _SCALARS)
            for _ in range(draw(st.integers(1, 3)))
        ]
        kind = draw(st.sampled_from([list, tuple, dict]))
        pool.append({draw(_TEXT): v for v in items} if kind is dict else kind(items))
    return draw(st.permutations(pool))


@given(_shared_json_values())
def test_dump_writes_pieces_that_join_to_the_stdlib_text(value):
    pieces = []
    dump(value, pieces.append)
    assert "".join(pieces).encode() == json.dumps(value, indent=2).encode()
    assert all(type(piece) is str for piece in pieces)
    assert len(pieces) >= 2 + len(value)  # the list is written item by item


@st.composite
def _shared_rule_states(draw):
    """A document-like list that holds the same `ParamState`s, and equal rules,
    masks, states and intervals, at several positions and depths within the
    outer three levels; all the states range over one tuple of atoms."""
    width = draw(st.integers(0, 3))
    atoms = tuple(AssumptionId(i, f"a{i}", i) for i in range(width))
    variables = draw(st.sampled_from([(), ("x",), ("x", "y")]))
    lows, highs = st.integers(-3, 3) | st.just(NEG_INF), st.integers(-3, 3) | st.just(POS_INF)

    def interval():
        lo, hi = draw(lows), draw(highs)
        return Interval(min(lo, hi), max(lo, hi))

    envs = [BOTTOM]
    for _ in range(draw(st.integers(1, 3))):
        bounds = {v: interval() for v in variables}
        envs += [env_of(bounds), env_of(dict(bounds))]  # equal, not the same

    def state():  # each subset draws one of a few rules
        cells = draw(st.integers(1, 1 << width))
        masks = [0] * cells
        for subset in range(1 << width):
            masks[draw(st.integers(0, cells - 1))] |= 1 << subset
        return RuleList([Rule(mask, draw(st.sampled_from(envs))) for mask in masks], atoms).factored()

    pool = [state() for _ in range(draw(st.integers(1, 3)))]
    states = st.sampled_from(pool)
    items = (
        states
        | st.builds(lambda k, s: {"id": k, "rules": s}, st.integers(0, 9), states)
        | st.lists(states, max_size=2)
        | st.builds(lambda s: {"node": {"rules": s}}, states)
        | _SCALARS
    )
    return draw(st.lists(items, max_size=5))


@given(_shared_rule_states())
def test_dump_matches_the_stdlib_on_shared_rule_states(value):
    pieces = []
    dump(value, pieces.append)
    assert "".join(pieces).encode() == json.dumps(_plain(value), indent=2).encode()
    assert all(type(piece) is str for piece in pieces)
    assert dumps(value) == "".join(pieces)


@given(_shared_json_values())
def test_dumps_matches_the_stdlib_on_shared_containers(value):
    assert dumps(value) == json.dumps(value, indent=2)


@given(_JSON_VALUES, st.none() | st.booleans() | st.integers() | st.floats())
def test_dumps_rejects_non_str_keys(value, key):
    with pytest.raises(TypeError):
        dumps([value, {key: value}])


@pytest.mark.parametrize("unknown", [object(), {1, 2}, b"bytes", 1j, ParamState])
def test_dumps_rejects_unknown_types(unknown):
    with pytest.raises(TypeError):
        dumps({"nodes": [1, unknown]})


# --- the flag table -----------------------------------------------------------

COMMON_OPTIONS = ("--format", "--widen", "--max-iters")
OPTIONS = {
    "analyze": COMMON_OPTIONS,
    "synthesize": COMMON_OPTIONS + ("--verify-solutions",),
    "consistency": COMMON_OPTIONS + ("--phi-table",),
    "check-oracle": COMMON_OPTIONS
    + ("--theorem1", "--soundness", "--input-range", "--max-steps"),
    "dump-cfg": (),
}
# option -> (attribute, value on the command line or None for a flag, parsed value)
SAMPLES = {
    "--format": ("format", "json", "json"),
    "--widen": ("widen", "2", "2"),
    "--max-iters": ("max_iters", "-1", -1),
    "--verify-solutions": ("verify_solutions", "0", 0),
    "--phi-table": ("phi_table", None, True),
    "--theorem1": ("theorem1", None, True),
    "--soundness": ("soundness", None, True),
    "--input-range": ("input_range", "-2:2", "-2:2"),
    "--max-steps": ("max_steps", "7", 7),
}


def test_the_flag_table_lists_every_option():
    table = {command: tuple(row[0] for row in entry[2]) for command, entry in cli.COMMANDS.items()}
    assert table == OPTIONS


def test_every_option_parses_in_both_forms():
    for command, options in OPTIONS.items():
        defaults = vars(cli._parse([command, "p.pwl"]))
        assert defaults["command"] == command and defaults["source"] == "p.pwl"
        for name in options:
            dest, text, value = SAMPLES[name]
            forms = [[name]] if text is None else [[name, text], [f"{name}={text}"]]
            for form in forms:
                for argv in ([command, "p.pwl", *form], [command, *form, "p.pwl"]):
                    assert vars(cli._parse(argv)) == {**defaults, dest: value}, argv


def test_repeated_options_keep_the_last_value():
    args = cli._parse(["analyze", "--max-iters", "5", "p.pwl", "--max-iters=6", "--format=json"])
    assert (args.max_iters, args.format, args.source) == (6, "json", "p.pwl")


def test_options_before_the_source_and_negative_values_run(capsys):
    fig1 = corpus_path("fig1.pwl")
    after = run(capsys, "check-oracle", fig1, "--soundness", "--input-range", "-2:13")
    before = run(capsys, "check-oracle", "--input-range", "-2:13", "--soundness", fig1)
    joined = run(capsys, "check-oracle", "--input-range=-2:13", fig1, "--soundness")
    assert after == before == joined
    assert after[0] == EXIT_OK and "soundness: pass" in after[1] and "equivalence" not in after[1]
    for argv in (["check-oracle", "--equivalence"], ["analyze", "--max-cells", "2"]):
        code, out, err = run(capsys, argv[0], corpus_path("example1.pwl"), *argv[1:])
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.splitlines()[1] == f"paramax: error: unknown option {argv[1]}"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analyze"],
        ["analyze", "a.pwl", "b.pwl"],
        ["frobnicate", "a.pwl"],
        ["--format", "json", "analyze", "a.pwl"],
        ["analyze", "a.pwl", "--bogus"],
        ["analyze", "a.pwl", "--verify", "3"],  # no abbreviations
        ["analyze", "a.pwl", "--max-iters"],
        ["analyze", "a.pwl", "--max-iters", "x"],
        ["analyze", "a.pwl", "--format", "xml"],
        ["consistency", "a.pwl", "--phi-table=yes"],
        ["dump-cfg", "a.pwl", "--format", "json"],
    ],
)
def test_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: paramax ")
    assert error.startswith("paramax: error: ")


def test_help_names_every_command_and_option(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: paramax ")
        assert all(command in out for command in OPTIONS)
    for command, options in OPTIONS.items():
        for argv in ([command, "--help"], [command, "-h"], [command, "p.pwl", "--help"]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (EXIT_OK, ""), argv
            assert out.startswith(f"usage: paramax {command} ")
            assert all(name in out for name in options), argv
            assert "--help" in out and "SOURCE" in out


def test_the_cli_imports_no_argument_parser():
    # argparse builds its parser and looks up translations on every call;
    # the flag table needs neither, nor the gettext and locale modules
    script = (
        "import sys\n"
        "import paramax.cli\n"
        f"code = paramax.cli.main(['synthesize', {corpus_path('example1.pwl')!r}])\n"
        "print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_the_cli_imports_no_code_generation_modules():
    # records are plain classes: importing the CLI generates no code, so it
    # loads neither dataclasses nor what dataclasses imports; comparing with
    # a snapshot ignores whatever the interpreter preloads at start-up
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import paramax.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
