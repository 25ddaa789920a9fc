"""Randomized end-to-end checks: generated programs against both oracles.

Programs are built from a seeded grammar walk (assignments, inputs, nested
branches, bounded-ish loops, assumes, asserts). Every generated program is
pushed through the exhaustive per-subset equality check and the concrete
containment check, and each report must also equal its per-subset
reference's; non-convergent variants may be skipped by the verifiers but any
mismatch is a real bug. The CLI is also fed generated programs and byte
mutations of the corpus: it must answer with a documented exit code and
well-formed JSON.
"""

import json
import random
import re

import jsonschema
import pytest

from paramax import cli
from paramax.engine import (
    AnalysisConfig,
    analyze_param,
    verify_equivalence,
    verify_soundness,
)
from paramax.frontend import parse_cfg
from paramax.synthesis import SynthesisVerdict, synthesize, verify_solutions

from conftest import CORPUS_DIR, reference_equivalence, reference_soundness

VARS = ("x", "y")


def _expr(rng: random.Random) -> str:
    kind = rng.randint(0, 4)
    if kind == 0:
        return str(rng.randint(-4, 8))
    if kind == 1:
        return rng.choice(VARS)
    if kind == 2:
        return f"{rng.choice(VARS)} + {rng.randint(1, 3)}"
    if kind == 3:
        return f"{rng.choice(VARS)} - {rng.randint(1, 3)}"
    offset = rng.randint(-2, 2)
    sign = "+" if offset >= 0 else "-"
    return f"{rng.randint(-2, 2)}*{rng.choice(VARS)} {sign} {abs(offset)}"


def _comparison(rng: random.Random) -> str:
    lhs = rng.choice(VARS)
    op = rng.choice(("<=", "<", ">=", ">", "="))
    rhs = rng.choice(VARS) if rng.random() < 0.3 else str(rng.randint(-3, 6))
    return f"{lhs} {op} {rhs}"


def _bound(rng: random.Random) -> str:
    var = rng.choice(VARS)
    op = rng.choice(("<=", ">=", "="))
    return f"{var} {op} {rng.randint(-3, 6)}"


class _Generator:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.labels = 0

    def label(self) -> str:
        self.labels += 1
        return f"g{self.labels}"

    def block(self, depth: int, budget: list[int]) -> list[str]:
        rng = self.rng
        lines = []
        for _ in range(rng.randint(1, 3)):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            roll = rng.random()
            if roll < 0.30:
                lines.append(f"{rng.choice(VARS)} := {_expr(rng)};")
            elif roll < 0.42:
                lines.append(f"{rng.choice(VARS)} := input();")
            elif roll < 0.62 and self.labels < 3:
                lines.append(f"assume {self.label()}: {_bound(rng)};")
            elif roll < 0.74:
                lines.append(f"assert {_comparison(rng)};")
            elif roll < 0.90 and depth < 2:
                then_body = self.block(depth + 1, budget)
                else_body = self.block(depth + 1, budget) if rng.random() < 0.6 else []
                lines.append(f"if ({_comparison(rng)}) {{")
                lines += [f"  {l}" for l in then_body]
                if else_body:
                    lines.append("} else {")
                    lines += [f"  {l}" for l in else_body]
                lines.append("}")
            elif depth < 1:
                # counting loop: converges without widening for most draws
                var = rng.choice(VARS)
                limit = rng.randint(0, 5)
                body = self.block(depth + 1, budget)
                lines.append(f"while ({var} <= {limit}) {{")
                lines += [f"  {l}" for l in body]
                lines.append(f"  {var} := {var} + {rng.randint(1, 2)};")
                lines.append("}")
            else:
                lines.append("skip;")
        return lines or ["skip;"]


def generate_program(seed: int) -> str:
    rng = random.Random(seed)
    gen = _Generator(rng)
    budget = [10]
    lines = [f"{v} := 0;" for v in VARS]
    lines += gen.block(0, budget)
    return "\n".join(lines)


def test_random_programs_match_both_oracles():
    config = AnalysisConfig(max_iterations=4000)
    checked = skipped_variants = 0
    for seed in range(120):
        source = generate_program(seed)
        cfg = parse_cfg(source)
        equal = verify_equivalence(cfg, config, program_name=f"seed {seed}")
        assert equal.mismatches == [], (seed, source, equal.mismatches[:3])
        reference = reference_equivalence(cfg, config, program_name=f"seed {seed}")
        assert equal.to_json() == reference.to_json(), (seed, source)
        param = analyze_param(cfg, config)
        kwargs = dict(input_range=(-2, 2), step_bound=4000, program_name=f"seed {seed}")
        sound = verify_soundness(cfg, config, param=param, **kwargs)
        assert sound.mismatches == [], (seed, source, sound.mismatches[:3])
        reference = reference_soundness(cfg, config, param=param, **kwargs)
        assert sound.to_json() == reference.to_json(), (seed, source)
        checked += 1
        skipped_variants += len(equal.skipped) + len(sound.skipped)
    assert checked == 120
    # the generator is tuned to converge most of the time; a flood of skips
    # would mean the oracles stopped checking anything
    assert skipped_variants < checked


def test_random_programs_synthesis_roundtrip():
    config = AnalysisConfig(max_iterations=4000)
    solutions_reproved = 0
    for seed in range(120, 180):
        cfg = parse_cfg(generate_program(seed))
        result = analyze_param(cfg, config)
        if not result.converged or not cfg.assert_nodes():
            continue
        outcome = synthesize(result, cfg)
        if outcome.verdict is not SynthesisVerdict.SOLUTIONS:
            continue
        report = verify_solutions(
            cfg, outcome, config, limit=min(len(outcome.solutions), 16)
        )
        assert report.mismatches == [], (seed, report.mismatches[:3])
        solutions_reproved += report.subsets_checked - len(report.skipped)
    assert solutions_reproved > 0


# every command, with its own flags bounded so that each run stays small
COMMANDS = (
    ("analyze",),
    ("synthesize", "--verify-solutions", "2"),
    ("consistency", "--phi-table"),
    ("check-oracle", "--input-range", "-2:2", "--max-steps", "200"),
    ("dump-cfg",),
)
COMMON_FLAGS = (("--widen", "2"),)
BAD_FLAGS = (("--widen", "0"), ("--max-iters", "-1"), ("--widen", "x"))
# fragments that push the parser or the analysis toward its edges
TOKENS = (
    b"{", b"}", b"(", b")", b";", b":=", b"&&", b"assume b: ", b"assert ", b"while (x <= 3) ",
    b"if (x > y) ", b"input(-3:2)", b"99999999999999999999", b"-", b"\xff", b"\n",
)
NUMBERS = (b"0", b"1", b"-1", b"7", b"-20", b"99999999999999999999", b"-99999999999999999999")


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """Byte edits, which mostly reach the parser's errors, or line and
    number edits, which mostly leave a program that parses."""
    if rng.random() < 0.3:
        out = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(out) + 1)
            roll = rng.random()
            if roll < 0.35 and at < len(out):
                out[at] = rng.randrange(256)
            elif roll < 0.7:
                out[at:at] = rng.choice(TOKENS)
            else:
                del out[at:at + rng.randint(1, 12)]
        return bytes(out)
    lines = data.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(lines))
        roll = rng.random()
        if roll < 0.25:
            lines.insert(at, rng.choice(lines))
        elif roll < 0.4 and len(lines) > 1:
            del lines[at]
        else:
            lines[at] = re.sub(rb"\d+", lambda _: rng.choice(NUMBERS), lines[at], count=1)
    return b"\n".join(lines)


# The corpus programs that the CLI fuzz test mutates, named so that a new
# corpus file leaves its draws as they are.
MUTATION_SOURCES = (
    "bounds_pair.pwl", "box_assume.pwl", "branch_assume.pwl", "chain8.pwl", "example1.pwl",
    "example1_loop.pwl", "fig1.pwl", "guard_relation.pwl", "impossible.pwl", "input_sites.pwl",
    "irrefutable.pwl", "loop_assume_widen.pwl", "loop_diverge.pwl", "meet_narrow.pwl",
    "mutex.pwl", "nested_if.pwl", "never_consistent.pwl", "straightline.pwl", "synth_gate.pwl",
    "unknown_assert.pwl",
)


def test_cli_answers_generated_and_mutated_programs(tmp_path, capsys):
    rng = random.Random(9)
    corpus = [CORPUS_DIR / name for name in MUTATION_SOURCES]
    codes = set()
    json_outputs = 0
    for case in range(60):
        if case % 2:
            source = _mutate(rng, rng.choice(corpus).read_bytes())
        else:
            source = generate_program(1000 + case).encode()
        path = tmp_path / f"case{case}.pwl"
        path.write_bytes(source)
        for command, *extra in COMMANDS:
            argv = [command, str(path), *extra]
            if command != "dump-cfg":
                argv += ["--max-iters", "200", "--format", rng.choice(("text", "json"))]
                for flags in rng.sample(COMMON_FLAGS, rng.randint(0, len(COMMON_FLAGS))):
                    argv += flags
                if rng.random() < 0.05:
                    argv += rng.choice(BAD_FLAGS)
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback is a defect on any input
                pytest.fail(f"{argv} raised {exc!r} on {source!r}")
            out = capsys.readouterr().out
            assert code in range(6), (argv, source)
            codes.add(code)
            if "json" in argv and out:
                document = json.loads(out)
                jsonschema.validate(document, cli.DOCUMENT_SCHEMA)
                assert out == json.dumps(document, indent=2) + "\n", (argv, source)
                json_outputs += 1
    # the draws reach the encoder and the error paths alike
    assert json_outputs >= 60
    assert {0, 1, 2} <= codes
