"""Randomized end-to-end checks: generated programs against both oracles.

Programs are built from a seeded grammar walk (assignments, inputs, nested
branches, bounded-ish loops, assumes, asserts). Every generated program is
pushed through the exhaustive per-subset equality check and the concrete
containment check, whose report must also equal the per-subset reference's;
non-convergent variants may be skipped by the verifiers but any mismatch is
a real bug.
"""

import random

from paramax.engine import (
    AnalysisConfig,
    analyze_param,
    verify_equivalence,
    verify_soundness,
)
from paramax.frontend import parse_cfg
from paramax.synthesis import SynthesisVerdict, synthesize, verify_solutions

from conftest import reference_soundness

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
