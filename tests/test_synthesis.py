import random

import pytest

from paramax.conditions import members, render_mask
from paramax.engine import AnalysisConfig, OracleReport, analyze_baseline, analyze_param
from paramax.frontend import parse_cfg, render_assert, restrict
from paramax.intervals import ProofVerdict, proves
from paramax.synthesis import (
    SOLUTION_CAP,
    SynthesisOutcome,
    SynthesisVerdict,
    synthesize,
    verify_solutions,
)

from conftest import CORPUS, corpus_cfg


def outcome_for(source_or_name: str, config: AnalysisConfig | None = None):
    if source_or_name.endswith(".pwl"):
        cfg = corpus_cfg(source_or_name)
    else:
        cfg = parse_cfg(source_or_name)
    result = analyze_param(cfg, config)
    assert result.converged
    return cfg, result, synthesize(result, cfg)


def brute_force_solutions(cfg, config=None):
    width = len(cfg.assumptions)
    out = []
    for accepted in range(1 << width):
        base = analyze_baseline(restrict(cfg, accepted), config)
        assert base.converged
        if all(
            proves(base.states[n.id], n.op.test) is ProofVerdict.PROVED
            for n in cfg.assert_nodes()
        ):
            out.append(accepted)
    return out


def test_gate_assumption_is_the_only_solution():
    cfg, _, outcome = outcome_for("synth_gate.pwl")
    assert outcome.verdict is SynthesisVerdict.SOLUTIONS
    assert render_mask(outcome.condition, cfg.assumptions) == "a"
    assert list(outcome.solutions) == [0b1]
    assert outcome.minimal == (0b1,)
    report = verify_solutions(cfg, outcome)
    assert report.passed


def test_no_asserts_every_subset_works():
    _, _, outcome = outcome_for("example1.pwl")
    assert outcome.verdict is SynthesisVerdict.SOLUTIONS
    assert list(outcome.solutions) == [0, 1, 2, 3]
    assert outcome.minimal == (0,)


def test_impossible_program():
    _, _, outcome = outcome_for("impossible.pwl")
    assert outcome.verdict is SynthesisVerdict.IMPOSSIBLE
    assert outcome.solutions == ()
    assert outcome.minimal == ()


def test_unknown_program():
    _, _, outcome = outcome_for("unknown_assert.pwl")
    assert outcome.verdict is SynthesisVerdict.UNKNOWN


def test_conjunction_of_assumptions_needed():
    _, _, outcome = outcome_for("branch_assume.pwl")
    assert outcome.verdict is SynthesisVerdict.SOLUTIONS
    assert list(outcome.solutions) == [0b11]
    assert outcome.minimal == (0b11,)


def test_relational_assert_needs_both_bounds():
    _, _, outcome = outcome_for("bounds_pair.pwl")
    assert list(outcome.solutions) == [0b11]


def test_chain_minimal_solutions():
    _, _, outcome = outcome_for("chain8.pwl")
    # any assumption forcing x >= 4 suffices on its own
    assert outcome.minimal == tuple(1 << i for i in range(3, 8))


def test_per_assertion_detail():
    cfg, _, outcome = outcome_for("synth_gate.pwl")
    (node_id,) = outcome.per_assertion.keys()
    rows = dict(
        (render_mask(mask, cfg.assumptions), verdict)
        for mask, verdict in outcome.per_assertion[node_id]
    )
    assert rows == {"a": ProofVerdict.PROVED, "!a": ProofVerdict.UNKNOWN}


def test_minimal_rejects_other_verdicts():
    for name in ("impossible.pwl", "unknown_assert.pwl"):
        _, _, outcome = outcome_for(name)
        assert outcome.verdict is not SynthesisVerdict.SOLUTIONS
        assert outcome.minimal == (), name


def test_solution_cap_truncates():
    # nine assumptions that every subset proves: 512 solutions
    assumes = "".join(f" assume a{i}: x >= 0;" for i in range(9))
    cfg = parse_cfg("x := 1;" + assumes + " assert x >= 0;")
    outcome = synthesize(analyze_param(cfg), cfg)
    assert outcome.condition == (1 << 512) - 1
    assert outcome.truncated
    assert outcome.solutions == tuple(range(SOLUTION_CAP))
    # minimal solutions still cover the whole space
    assert outcome.minimal == (0,)


def test_verify_solutions_rejects_a_negative_limit():
    cfg, _, outcome = outcome_for("chain8.pwl")
    assert len(outcome.solutions) == 248
    for limit in (-1, -250):
        with pytest.raises(ValueError, match=f"limit must be at least 0, got {limit}"):
            verify_solutions(cfg, outcome, limit=limit)


def test_exact_completeness_against_brute_force():
    for entry in CORPUS:
        if not entry.kleene:
            continue
        cfg = corpus_cfg(entry.name)
        if not cfg.assert_nodes() or len(cfg.assumptions) > 8:
            continue
        result = analyze_param(cfg)
        outcome = synthesize(result, cfg)
        expected = brute_force_solutions(cfg)
        assert members(outcome.condition) == expected


def test_verified_solutions_on_corpus():
    for entry in CORPUS:
        if not entry.kleene:
            continue
        cfg = corpus_cfg(entry.name)
        if not cfg.assert_nodes():
            continue
        result = analyze_param(cfg)
        outcome = synthesize(result, cfg)
        if outcome.verdict is not SynthesisVerdict.SOLUTIONS:
            continue
        report = verify_solutions(cfg, outcome, limit=len(outcome.solutions))
        assert report.passed, report.mismatches


def reference_verify_solutions(cfg, outcome, config, limit):
    """`verify_solutions` as one fresh analysis per chosen subset: its spec."""
    chosen = outcome.solutions[:limit]
    report = OracleReport("synthesis", "<program>", len(chosen), "reproof")
    for accepted in chosen:
        base = analyze_baseline(restrict(cfg, accepted), config)
        if not base.converged:
            report.skipped.append(accepted)
            continue
        for node in cfg.assert_nodes():
            verdict = proves(base.states[node.id], node.op.test)
            if verdict is not ProofVerdict.PROVED:
                report.mismatches.append(
                    {
                        "subset": accepted,
                        "node": node.id,
                        "assertion": render_assert(node.op.test),
                        "verdict": verdict.value,
                    }
                )
    return report


# `c` changes nothing once `b` holds, so two subsets with `b` that differ
# only in `c` share one re-analysis
REDUNDANT_ASSUMES = """
x := input();
assume a: x >= 0;
assume b: x <= 5;
assume c: x <= 10;
assert x <= 3;
"""


def test_verify_solutions_matches_the_per_subset_reference():
    # every subset claimed as a solution, so that most claims fail
    configs = (AnalysisConfig(), AnalysisConfig(widening_delay=2), AnalysisConfig(max_iterations=10))
    cfgs = [corpus_cfg(entry.name) for entry in CORPUS] + [parse_cfg(REDUNDANT_ASSUMES)]
    mismatches = skipped = 0
    for cfg in cfgs:
        width = len(cfg.assumptions)
        if not cfg.assert_nodes() or width > 8:
            continue
        outcome = synthesize(analyze_param(cfg, AnalysisConfig(widening_delay=1)), cfg)
        claimed = SynthesisOutcome(
            outcome.condition,
            SynthesisVerdict.SOLUTIONS,
            tuple(range(1 << width)),
            outcome.minimal,
            outcome.per_assertion,
            outcome.truncated,
            outcome.atoms,
        )
        for config in configs:
            for limit in (1 << width, 3, 0):
                got = verify_solutions(cfg, claimed, config, limit=limit)
                expected = reference_verify_solutions(cfg, claimed, config, limit)
                assert got.to_json() == expected.to_json(), (cfg, config, limit)
                mismatches += len(got.mismatches)
                skipped += len(got.skipped)
    assert mismatches > 60 and skipped > 100


def _stacked_program(lower: int, upper: tuple[int, ...], assertion: str, first: str) -> str:
    """`lower` stacked bounds `x >= i`, then the bounds `x <= b` of `upper`."""
    lines = [first]
    lines += [f"assume w{i}: x >= {i};" for i in range(1, lower + 1)]
    lines += [f"assume u{i}: x <= {b};" for i, b in enumerate(upper, 1)]
    return "\n".join(lines + ["y := x + 1;", assertion])


def test_solutions_and_minimal_match_the_members_of_the_condition():
    unbounded, high = "x := input();", "x := 25;"
    cases = [
        (12, (), "assert y >= 5;", unbounded, SynthesisVerdict.SOLUTIONS),
        (12, (20, 9), "assert y >= 5;", unbounded, SynthesisVerdict.SOLUTIONS),
        (13, (20, 9, 4), "assert y >= 5;", unbounded, SynthesisVerdict.SOLUTIONS),
        (16, (), "assert y >= 9;", unbounded, SynthesisVerdict.SOLUTIONS),
        (14, (), "assert y >= 100;", unbounded, SynthesisVerdict.UNKNOWN),
        (16, (), "assert y >= 100;", unbounded, SynthesisVerdict.UNKNOWN),
        (12, (), "assert y <= 0;", high, SynthesisVerdict.IMPOSSIBLE),
        (16, (), "assert y <= 0;", high, SynthesisVerdict.IMPOSSIBLE),
    ]
    # four more assumptions, each needed by its own assertion: 248 solutions
    others = [f"z{i} := input(); assume v{i}: z{i} >= 0; assert z{i} >= 0;" for i in range(4)]
    cases.append((8, (), "assert y >= 5;", " ".join(others), SynthesisVerdict.SOLUTIONS))
    for lower, upper, assertion, first, verdict in cases:
        cfg = parse_cfg(_stacked_program(lower, upper, assertion, first))
        assert len(cfg.assumptions) >= 12
        result = analyze_param(cfg)
        outcome = synthesize(result, cfg)
        assert outcome.verdict is verdict
        every = members(outcome.condition)
        least = min((s.bit_count() for s in every), default=0)
        assert outcome.solutions == tuple(every[:SOLUTION_CAP])
        assert outcome.truncated == (len(every) > SOLUTION_CAP)
        assert outcome.minimal == tuple(s for s in every if s.bit_count() == least)
        if verdict is not SynthesisVerdict.SOLUTIONS:
            assert outcome.minimal == () and outcome.solutions == ()


def _per_rule_reference(result, cfg):
    """Each assertion's (rule mask, verdict) rows, one `proves` per rule of its
    node, and the mask of the subsets proving every assertion."""
    rows, condition = {}, (1 << (1 << len(cfg.assumptions))) - 1
    for node in cfg.assert_nodes():
        rows[node.id] = tuple((r.mask, proves(r.state, node.op.test)) for r in result.states[node.id].rules)
        condition &= sum(mask for mask, verdict in rows[node.id] if verdict is ProofVerdict.PROVED)
    return rows, condition


def _mixed_verdicts_program(rng: random.Random) -> str:
    """Three inputs, bounds assumed on them, and nested `&&`/`||` assertions
    whose parts are proved, refuted or unknown under different subsets."""
    names = ["x", "y", "z"]

    def operand():
        return rng.choice(names) if rng.random() < 0.7 else str(rng.randint(-2, 2))

    def test(depth):
        if depth == 0 or rng.random() < 0.3:
            return f"{rng.choice(names)} {rng.choice(['<=', '<', '>=', '>', '='])} {operand()}"
        parts = [test(depth - 1) for _ in range(rng.randint(2, 3))]
        return "(" + rng.choice([" && ", " || "]).join(parts) + ")"

    lines = [f"{v} := input();" for v in names]
    for i in range(rng.randint(2, 5)):
        lines.append(f"assume a{i}: {rng.choice(names)} {rng.choice(['<=', '>=', '='])} {rng.randint(-2, 2)};")
    lines += [f"assert {test(2)};" for _ in range(2)]
    return "\n".join(lines)


def test_verdicts_per_cell_match_the_per_rule_reference():
    # an assertion is checked once per cell of the variables it compares; the
    # rows still list every rule, subsets where it is unreached proving it
    from test_fuzz import generate_program

    sources = [corpus_cfg(entry.name) for entry in CORPUS]
    sources += [parse_cfg(generate_program(seed)) for seed in range(40)]
    sources += [parse_cfg(_mixed_verdicts_program(random.Random(seed))) for seed in range(40)]
    sources.append(parse_cfg(
        "x := input(); y := input(); assume a: x >= 5; assume b: x <= 2; assume c: y >= 0;"
        "assert x >= 10; assert y >= 0 || x <= y;"
    ))
    bottoms = 0
    for cfg in sources:
        for config in (AnalysisConfig(widening_delay=2),):
            result = analyze_param(cfg, config)
            outcome = synthesize(result, cfg)
            rows, condition = _per_rule_reference(result, cfg)
            assert outcome.per_assertion == rows
            assert outcome.condition == condition
            bottoms += sum(r.state.is_bottom for n in cfg.assert_nodes() for r in result.states[n.id].rules)
    assert bottoms  # some assertions are unreached under some subsets
    last = synthesize(analyze_param(sources[-1]), sources[-1])
    assert last.solutions == (0b011, 0b111) and last.minimal == (0b011,)  # a and b: unreached
