"""Acceptance suite: one test per criterion, each prints a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured times.
"""

import random
import time

from paramax.conditions import Atom, Not, TRUE, members, render_mask
from paramax.engine import (
    analyze_baseline,
    analyze_param,
    verify_equivalence,
    verify_soundness,
)
from paramax.frontend import parse_cfg, restrict
from paramax.intervals import BOTTOM, NEG_INF, POS_INF, ProofVerdict, proves
from paramax.consistency import (
    Membership,
    brute_force_fixpoints,
    consistency_bounds,
    consistency_report,
)
from paramax.synthesis import SynthesisVerdict, synthesize, verify_solutions

from conftest import (
    CORPUS,
    canonical_rule_key,
    corpus_cfg,
    env,
    exact_merge_step,
    param_state,
    random_param_state,
    redundancy_elim_step,
    unrefuted,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def kleene_corpus():
    for entry in CORPUS:
        if entry.kleene:
            yield entry, corpus_cfg(entry.name)


def test_exhaustive_subset_equality_on_corpus():
    started = time.perf_counter()
    checked = 0
    for entry, cfg in kleene_corpus():
        if len(cfg.assumptions) > 8:
            continue
        rep = verify_equivalence(cfg, program_name=entry.name)
        assert rep.mismatches == [], (entry.name, rep.mismatches[:3])
        assert rep.skipped == [], entry.name
        checked += rep.subsets_checked
    elapsed = time.perf_counter() - started
    report(
        "per-subset equality, whole corpus",
        elapsed < 30.0,
        f"{checked} subsets, exact per-node equality, {elapsed:.2f}s < 30s",
    )


def test_two_assume_golden_rules():
    cfg = corpus_cfg("example1.pwl")
    result = analyze_param(cfg)
    a, b = cfg.assumptions
    ok_v2 = canonical_rule_key(result.states[2]) == canonical_rule_key(
        param_state(
            cfg.assumptions,
            (Not(Atom(a)), env(x=(NEG_INF, POS_INF))),
            (Atom(a), env(x=(1, POS_INF))),
        )
    )
    ok_v3 = result.states[3].rules == param_state(cfg.assumptions, (TRUE, env(x=(5, 5)))).rules

    loop_cfg = corpus_cfg("example1_loop.pwl")
    loop_result = analyze_param(loop_cfg)
    assume_node = loop_cfg.assumptions[0].node_id
    conds = sorted(
        render_mask(r.mask, loop_cfg.assumptions) for r in loop_result.states[assume_node].rules
    )
    ok_loop = conds == ["!a", "a"]  # the contradictory re-split rule was removed

    report(
        "golden rule tables for the two-assume program",
        ok_v2 and ok_v3 and ok_loop,
        "post-assume split, exact merge to one rule, loop re-split eliminated",
    )


def test_meet_narrowing_unit_values():
    sigma = env(x=(-12, 8), y=(NEG_INF, 13))
    from paramax.frontend import AtomicConstraint, Bound, Rel
    from paramax.intervals import AssumeState

    narrow = AssumeState.from_constraint(
        AtomicConstraint((Bound("x", Rel.GE, 3), Bound("x", Rel.LE, 10)))
    )
    first = sigma.meet(narrow) == env(x=(3, 8), y=(NEG_INF, 13))
    low = AssumeState.from_constraint(AtomicConstraint((Bound("x", Rel.GE, 3),)))
    second = env(x=(NEG_INF, 2)).meet(low) is BOTTOM
    report("meet narrowing unit values", first and second, "both exact")


def test_normal_form_unique_for_all_orders():
    rng = random.Random(0xACCE57)
    states = 0
    orders_per_state = 100
    started = time.perf_counter()
    for _ in range(1000):
        width = rng.randint(1, 4)
        state = random_param_state(rng, width)
        assert len(state.rules) <= 6
        expected = canonical_rule_key(state.factored())  # the factored state's rules
        lookups = [state.state_for(accepted) for accepted in range(1 << width)]
        states += 1
        for _ in range(orders_per_state):
            current = state
            while True:
                merges = [
                    (i, j)
                    for i in range(len(current.rules))
                    for j in range(i + 1, len(current.rules))
                    if current.rules[i].state == current.rules[j].state
                ]
                unsat = [i for i, rule in enumerate(current.rules) if rule.mask == 0]
                ops = [("merge", p) for p in merges] + [("drop", k) for k in unsat]
                if not ops:
                    break
                kind, arg = rng.choice(ops)
                current = (
                    exact_merge_step(current, arg)
                    if kind == "merge"
                    else redundancy_elim_step(current, arg)
                )
            assert canonical_rule_key(current) == expected
            for accepted in range(1 << width):
                assert current.state_for(accepted) == lookups[accepted]
    elapsed = time.perf_counter() - started
    report(
        "normal form unique under any reduction order",
        states == 1000,
        f"{states} states x {orders_per_state} orders, lookups preserved, {elapsed:.1f}s",
    )


def test_concrete_states_contained_in_abstract():
    started = time.perf_counter()
    escapes = 0
    subsets = 0
    for entry, cfg in [(e, corpus_cfg(e.name)) for e in CORPUS]:
        if len(cfg.assumptions) > 8:
            continue
        rep = verify_soundness(
            cfg,
            entry.config,
            input_range=entry.input_range,
            step_bound=100_000,
            program_name=entry.name,
        )
        escapes += len(rep.mismatches)
        assert rep.skipped == [], entry.name
        subsets += rep.subsets_checked
    elapsed = time.perf_counter() - started
    report(
        "enumerated executions contained in abstract states",
        escapes == 0 and elapsed < 60.0,
        f"{subsets} subsets, 0 escapes, {elapsed:.2f}s < 60s",
    )


def test_synthesis_sound_and_relatively_complete():
    verified = 0
    compared = 0
    for entry, cfg in kleene_corpus():
        if not cfg.assert_nodes() or len(cfg.assumptions) > 8:
            continue
        width = len(cfg.assumptions)
        result = analyze_param(cfg)
        outcome = synthesize(result, cfg)
        if outcome.verdict is SynthesisVerdict.SOLUTIONS:
            rep = verify_solutions(cfg, outcome, limit=len(outcome.solutions),
                                   program_name=entry.name)
            assert rep.passed and rep.skipped == [], (entry.name, rep.mismatches[:3])
            verified += len(outcome.solutions)
        expected = []
        for accepted in range(1 << width):
            base = analyze_baseline(restrict(cfg, accepted))
            assert base.converged
            if all(
                proves(base.states[n.id], n.op.test) is ProofVerdict.PROVED
                for n in cfg.assert_nodes()
            ):
                expected.append(accepted)
        assert members(outcome.condition) == expected, entry.name
        compared += 1
    report(
        "synthesized subsets re-proved and exhaustively complete",
        compared > 0,
        f"{verified} solutions re-proved, {compared} programs compared against brute force",
    )


def test_consistency_bounds_sandwich():
    rng = random.Random(0xC0FFEE)
    programs = 0
    for entry, cfg in kleene_corpus():
        if not cfg.assumptions or len(cfg.assumptions) > 10:
            continue
        width = len(cfg.assumptions)
        result = analyze_param(cfg)
        core, envelope = consistency_bounds(result, cfg)
        fixpoints = brute_force_fixpoints(result, cfg)
        for fixed in fixpoints:
            assert core & fixed == core, entry.name
            assert fixed & envelope == fixed, entry.name
        assert unrefuted(result, cfg, core) == envelope, entry.name
        assert unrefuted(result, cfg, envelope) == core, entry.name
        for _ in range(100):
            small = rng.randrange(1 << width)
            big = small | rng.randrange(1 << width)
            assert (
                unrefuted(result, cfg, big) & unrefuted(result, cfg, small)
            ) == unrefuted(result, cfg, big), entry.name
        programs += 1

    fixture_cfg = corpus_cfg("never_consistent.pwl")
    fixture = consistency_report(analyze_param(fixture_cfg), fixture_cfg)
    assert fixture.classification["a1"] is Membership.NEVER
    report(
        "consistency bounds sandwich every fixpoint",
        programs > 0,
        f"{programs} programs, alternation and anti-monotonicity verified,"
        " contradictory fixture classified never-consistent",
    )


def _wide_program(width: int) -> str:
    lines = ["x := input();"]
    for i in range(1, width + 1):
        lines.append(f"assume w{i}: x >= {i};")
    lines += ["y := x + 1;", "assert y >= 5;"]
    return "\n".join(lines)


def test_single_pass_beats_per_subset_reanalysis():
    cfg = parse_cfg(_wide_program(12))
    assert len(cfg.assumptions) == 12

    started = time.perf_counter()
    param = analyze_param(cfg)
    param_time = time.perf_counter() - started
    assert param.converged
    max_rules = max(len(s.rules) for s in param.states)
    assert max_rules <= 64, max_rules

    started = time.perf_counter()
    for accepted in range(1 << 12):
        base = analyze_baseline(restrict(cfg, accepted))
        assert base.converged
    baseline_time = time.perf_counter() - started

    report(
        "one pass beats 4096 re-analyses tenfold",
        param_time < baseline_time / 10,
        f"one pass {param_time * 1000:.1f}ms vs 4096 runs {baseline_time * 1000:.1f}ms"
        f" ({baseline_time / max(param_time, 1e-9):.0f}x), max {max_rules} rules per node",
    )
