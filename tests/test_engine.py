import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from paramax import engine, param
from paramax.conditions import And, Atom, Not, TRUE, full_mask, members, render_mask
from paramax.consistency import brute_force_fixpoints, consistency_report
from paramax.engine import (
    ORACLE_CAP,
    AnalysisConfig,
    WidthCapError,
    analyze_baseline,
    analyze_param,
    analyze_variants,
    run_collecting,
    verify_equivalence,
    verify_soundness,
)
from paramax.frontend import Assume, parse_cfg, restrict
from paramax.intervals import BOTTOM, NEG_INF, POS_INF, AssumeState, Interval, enforce, transfer
from paramax.param import ParamState, Rule, leq_param

from conftest import (
    CORPUS,
    CORPUS_DIR,
    RuleList,
    canonical_rule_key,
    corpus_cfg,
    env,
    independent_source,
    is_partition,
    labelled,
    param_state,
    reference_equivalence,
    reference_run_collecting,
    reference_soundness,
    rule_state,
    states_as_given,
    truncated_as_given,
)
from test_fuzz import generate_program

EXAMPLE1 = "x := input(); assume a: x > 0; x := 5; assume b: x = 0;"


# --- plain analysis ------------------------------------------------------


def test_baseline_straightline():
    cfg = parse_cfg("x := 0;")
    result = analyze_baseline(cfg)
    assert result.converged
    assert result.states[cfg.exit] == env(x=(0, 0))


def test_baseline_example1_variants(example1_cfg):
    cfg = example1_cfg
    # only the first assumption accepted: nothing blocks the end of the program
    only_a = analyze_baseline(restrict(cfg, 0b01))
    assert only_a.states[2] == env(x=(1, POS_INF))
    assert only_a.states[3] == env(x=(5, 5))
    assert only_a.states[4] == env(x=(5, 5))
    # no assumptions: both assumes act as skips
    none = analyze_baseline(restrict(cfg, 0b00))
    assert none.states[3] == env(x=(5, 5))
    assert none.states[4] == env(x=(5, 5))
    # accepting the second assumption contradicts the constant store
    both = analyze_baseline(restrict(cfg, 0b11))
    assert both.states[4] is BOTTOM
    only_b = analyze_baseline(restrict(cfg, 0b10))
    assert only_b.states[4] is BOTTOM


def test_baseline_fig1():
    cfg = corpus_cfg("fig1.pwl")
    result = analyze_baseline(cfg)
    assert result.converged
    assert result.states[cfg.exit] == env(x=(0, POS_INF))


def test_baseline_ascending_chain():
    cfg = corpus_cfg("fig1.pwl")
    updates = []
    analyze_baseline(cfg, observer=lambda v, old, new: updates.append((old, new)))
    assert updates
    for old, new in updates:
        assert old.leq(new) and old != new


def test_baseline_fixpoint_reapplication():
    cfg = corpus_cfg("fig1.pwl")
    result = analyze_baseline(cfg)
    again = analyze_baseline(cfg)
    assert result.states == again.states
    # one more full sweep changes nothing
    from paramax.intervals import enforce, transfer
    from paramax.engine import _assume_states

    pis = _assume_states(cfg)
    for node in cfg.nodes:
        if node.id == cfg.entry:
            continue
        acc = BOTTOM
        for p in cfg.predecessors(node.id):
            sigma = result.states[p]
            if isinstance(node.op, Assume):
                acc = acc.join(enforce(sigma, pis[node.id]))
            else:
                acc = acc.join(transfer(node, sigma))
        assert acc == result.states[node.id]


def test_param_fixpoint_reapplication(example1_cfg):
    # re-evaluating every node constraint from the final states changes nothing
    from paramax.engine import _assume_states
    from paramax.param import join_states, lift_transfer, split
    from paramax.intervals import transfer

    cfg = example1_cfg
    result = analyze_param(cfg)
    pis = _assume_states(cfg)
    for node in cfg.nodes:
        if node.id == cfg.entry:
            continue
        inputs = []
        for p in cfg.predecessors(node.id):
            if isinstance(node.op, Assume):
                inputs.append(split(result.states[p], node.op.assumption, pis[node.id]))
            else:
                inputs.append(lift_transfer(result.states[p], node))
        again = join_states(inputs)
        assert again.rules == result.states[node.id].rules  # both in normal form


def test_baseline_budget_exhaustion_flagged():
    cfg = corpus_cfg("loop_diverge.pwl")
    result = analyze_baseline(cfg, AnalysisConfig(max_iterations=200))
    assert not result.converged
    assert result.iterations == 200


def test_baseline_widening_converges():
    cfg = corpus_cfg("loop_diverge.pwl")
    result = analyze_baseline(cfg, AnalysisConfig(widening_delay=2))
    assert result.converged
    head = next(n.id for n in cfg.nodes if n.loop_head)
    assert result.states[head] == env(x=(0, POS_INF))
    assert result.states[cfg.exit] is BOTTOM  # exit guard x <= -1 never holds


# --- parameterized analysis ----------------------------------------------


def test_param_example1_golden(example1_cfg):
    cfg = example1_cfg
    result = analyze_param(cfg)
    assert result.converged
    a, b = cfg.assumptions
    assert canonical_rule_key(result.states[2]) == canonical_rule_key(
        param_state(
            cfg.assumptions,
            (Not(Atom(a)), env(x=(NEG_INF, POS_INF))),
            (Atom(a), env(x=(1, POS_INF))),
        )
    )
    assert result.states[3].rules == param_state(cfg.assumptions, (TRUE, env(x=(5, 5)))).rules
    assert canonical_rule_key(result.states[4]) == canonical_rule_key(
        param_state(cfg.assumptions, (Not(Atom(b)), env(x=(5, 5))), (Atom(b), BOTTOM))
    )


def test_param_loop_resplit_drops_contradictions():
    cfg = corpus_cfg("example1_loop.pwl")
    result = analyze_param(cfg)
    assert result.converged
    assume_node = cfg.assumptions[0].node_id
    state = result.states[assume_node]
    # exactly the accepted and declined branches survive the loop re-split
    conds = {render_mask(r.mask, cfg.assumptions) for r in state.rules}
    assert conds == {"a", "!a"}
    assert state.state_for(0b1).get("x").lo == 1
    assert state.state_for(0b0).get("x") == env(x=(NEG_INF, POS_INF)).get("x")


def test_param_width_cap():
    assert analyze_param(parse_cfg(independent_source(16))).converged
    with pytest.raises(WidthCapError) as caught:
        analyze_param(parse_cfg(independent_source(17)))
    assert str(caught.value) == "program has 17 assumptions; configured width cap is 16"


def test_param_states_stay_partitions():
    for entry in CORPUS:
        cfg = corpus_cfg(entry.name)
        if len(cfg.assumptions) > 4:
            continue
        result = analyze_param(cfg, entry.config)
        for state in result.states:
            assert is_partition(state)


def test_param_ascent():
    cfg = corpus_cfg("example1_loop.pwl")
    updates = []
    analyze_param(cfg, observer=lambda v, old, new: updates.append((old, new)))
    for old, new in updates:
        assert leq_param(old, new)


# --- collecting oracle ----------------------------------------------------


def test_nodes_that_change_no_rule_make_no_transfer_calls(monkeypatch):
    # entry, exit, skip and assert keep their predecessor's state, a transfer
    # runs once per cell of the variables its node mentions, and a state that
    # a transfer leaves as it was is kept itself
    cfg = parse_cfg(
        "".join(f"x{i} := input();\nassume a{i}: x{i} >= 0;\n" for i in range(4))
        + "y := 0;\ny := 0;\nassert x0 >= 0;\nskip;\nassert x1 >= 0 && y <= 0;\n"
        + "z := x2 + y;\nif (x3 <= z) { skip; }\n"
    )
    expected = analyze_param(cfg)
    ops = []

    def counting_transfer(node, env):
        ops.append(type(node.op).__name__)
        return transfer(node, env)

    monkeypatch.setattr(param, "transfer", counting_transfer)
    result = analyze_param(cfg)
    assert result.states == expected.states
    assert (result.iterations, result.converged) == (expected.iterations, expected.converged)
    # each `y := 0` runs once, not once per rule; `z := x2 + y` once per cell of
    # x2, y and z (2 x 1 x 1), and the guard once per cell of x3 and z (2 x 2)
    assert ops.count("Input") == 4 and ops.count("Assign") == 2 + 2
    assert ops.count("GuardFilter") == 2 * 4
    assert not {"Entry", "Exit", "Skip", "Assert"} & set(ops)
    assert len(result.states[-1].rules) == 16
    for node in cfg.nodes[1:]:
        (pred, *more) = cfg.predecessors(node.id)
        kept = result.states[node.id] is result.states[pred]
        if type(node.op).__name__ in ("Exit", "Skip", "Assert", "Input") and not more:
            assert kept, node.render()
    first, second = (node.id for node in cfg.nodes if node.render() == "assign(y := 0)")
    assert result.states[first] is not result.states[first - 1]
    assert result.states[second] is result.states[first]  # the second `y := 0` changes nothing


def test_an_assume_node_enforces_once_per_cell_of_the_subsets_that_take_it(monkeypatch):
    # `lo` and `hi` each see one cell; `box` bounds x and y, which `lo` and
    # `hi` have split in two, so it enforces once per cell of a 2 x 2 product
    cfg = corpus_cfg("box_assume.pwl")
    expected = analyze_param(cfg)
    calls = []

    def counting_enforce(env, pi):
        calls.append((pi, env.variables()))
        return enforce(env, pi)

    monkeypatch.setattr(param, "enforce", counting_enforce)
    result = analyze_param(cfg)
    assert result.states == expected.states
    labels = {
        AssumeState.from_constraint(node.op.constraint): node.op.assumption.label
        for node in cfg.nodes
        if isinstance(node.op, Assume)
    }
    assert [(labels[pi], names) for pi, names in calls] == [
        ("lo", ("x",)), ("hi", ("y",)), *[("box", ("x", "y"))] * 4
    ]


def test_collecting_assume_filters_everything():
    cfg = parse_cfg("x := 0; assume a: x >= 3;")
    collected = run_collecting(cfg, (-2, 2))
    assume_node = cfg.assumptions[0].node_id
    assert states_as_given(collected, cfg)[assume_node] == []
    assert not truncated_as_given(collected, cfg)


def test_collecting_example1_filter(example1_cfg):
    cfg = restrict(example1_cfg, 0b01)
    after_assume = states_as_given(run_collecting(cfg, (-2, 2)), cfg)[2]
    assert after_assume == [{"x": 1}, {"x": 2}]


def test_collecting_refuses_an_empty_input_range(example1_cfg):
    with pytest.raises(ValueError, match=r"^empty input range$"):
        run_collecting(example1_cfg, (3, 1))
    with pytest.raises(ValueError, match=r"^empty input range$"):
        verify_soundness(example1_cfg, input_range=(3, 1))


def test_collecting_states_are_read_off_the_labelled_entries(example1_cfg):
    # the states and truncation of the program as given are the all-accepted
    # subset's share of the labelled entries and of `truncated_subsets`
    cfg = example1_cfg
    collected = run_collecting(cfg, (-2, 2), step_bound=2)
    everyone = 1 << ((1 << len(cfg.assumptions)) - 1)
    states = states_as_given(collected, cfg)
    for node in cfg.nodes:
        expected = [
            dict(zip(cfg.variables, values))
            for values, mask in labelled(collected)[node.id]
            if mask & everyone
        ]
        assert states[node.id] == expected
    assert truncated_as_given(collected, cfg) == bool(collected.truncated_subsets & everyone)
    assert truncated_as_given(collected, cfg) and states[cfg.exit] == []
    assert list(vars(collected)) == ["reached", "truncated_subsets"]  # nothing else is kept


def test_collecting_no_inputs_single_path():
    cfg = parse_cfg("x := 1; y := x + 2;")
    states = states_as_given(run_collecting(cfg), cfg)
    for node in cfg.nodes:
        assert len(states[node.id]) == 1
    assert states[cfg.exit] == [{"x": 1, "y": 3}]


def test_collecting_respects_site_ranges():
    cfg = corpus_cfg("input_sites.pwl")
    states = states_as_given(run_collecting(cfg, (-100, 100)), cfg)
    xs = {s["x"] for s in states[1]}
    assert xs == set(range(-2, 14))
    zs = {s["z"] for s in states[3]}
    assert zs == set(range(-2, 17))


def test_collecting_truncates_infinite_loops():
    cfg = corpus_cfg("loop_diverge.pwl")
    collected = run_collecting(cfg, (-2, 2), step_bound=500)
    assert truncated_as_given(collected, cfg)


@pytest.mark.parametrize("step_bound", [-1, -500])
def test_collecting_rejects_a_negative_step_bound(step_bound):
    # a negative bound never equals the depth, so it would never truncate
    # and a diverging loop would run forever; a terminating program keeps
    # this test from hanging if the check is lost
    cfg = corpus_cfg("fig1.pwl")
    with pytest.raises(ValueError, match="step bound"):
        run_collecting(cfg, (-2, 2), step_bound=step_bound)
    with pytest.raises(ValueError, match="step bound"):
        verify_soundness(cfg, step_bound=step_bound)


def _wide_input_sites(tmp_path):
    """`input_sites.pwl` with a site range of about 10**20 values."""
    source = (CORPUS_DIR / "input_sites.pwl").read_text(encoding="utf-8")
    wide = source.replace("y := input() in [0, 3];", "y := input() in [-99999999999999999999, 3];")
    assert wide != source
    path = tmp_path / "wide_input_sites.pwl"
    path.write_text(wide, encoding="utf-8")
    return path


def _returns_in_time(script: str, *args: str) -> list[str]:
    """The stdout lines of `script` run in a fresh interpreter, which must exit 0 within 60 s.

    The wide site offers about 10**20 values: an enumeration that stops
    drawing them too late runs for days, and the timeout ends it.
    """
    src = str(Path(engine.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_collecting_draws_input_values_lazily(tmp_path):
    # a bound that ends at the wide site takes only the values it needs; a
    # bound past it collects values until the entry cap
    script = (
        "import sys\n"
        "from paramax import engine\n"
        "from paramax.frontend import parse_cfg\n"
        "engine.MAX_COLLECTED = 1000\n"
        "cfg = parse_cfg(open(sys.argv[1], encoding='utf-8').read())\n"
        "for bound in range(6):\n"
        "    result = engine.run_collecting(cfg, (-2, 2), bound)\n"
        "    print(bound, result.truncated_subsets == 1, sum(map(len, result.reached)))\n"
    )
    lines = _returns_in_time(script, str(_wide_input_sites(tmp_path)))
    assert len(lines) == 6
    for bound, line in enumerate(lines):
        shown, truncated, entries = line.split()
        assert (int(shown), truncated) == (bound, "True") and int(entries) <= 1000, line


def test_collecting_stops_at_the_entry_cap(monkeypatch):
    # subset {a} leaves the loop at once; subset {} counts to a million
    cfg = parse_cfg("x := input(); assume a: x <= -100; while (x < 1000000) { x := x + 1; }")
    monkeypatch.setattr(engine, "MAX_COLLECTED", 50)
    result = run_collecting(cfg, (-8, 8))
    assert sum(map(len, result.reached)) == 50
    assert result.truncated_subsets == 0b01  # only the subset with states left to expand
    assert not truncated_as_given(result, cfg)  # the program as given, with `a` accepted, finished
    report = verify_soundness(cfg, AnalysisConfig(widening_delay=2))
    assert report.partial == [0] and report.passed


def test_check_oracle_returns_on_a_wide_input_range(tmp_path):
    # one step ends the enumeration at the wide site; 200 steps go past it
    script = (
        "import sys\n"
        "from paramax import cli, engine\n"
        "engine.MAX_COLLECTED = 2000\n"
        "for steps in ('1', '200'):\n"
        "    print('exit', cli.main([*sys.argv[1:], '--max-steps', steps]))\n"
    )
    path = str(_wide_input_sites(tmp_path))
    lines = _returns_in_time(script, "check-oracle", path, "--soundness", "--input-range", "-2:2")
    assert lines.count("soundness: pass (1 subsets, mode=membership, 1 partial)") == 2
    assert lines.count("exit 0") == 2


def test_collecting_masks_match_per_subset_runs(example1_cfg):
    cfg = example1_cfg
    collected = run_collecting(cfg, (-2, 2))
    assume_a = cfg.assumptions[0].node_id
    # x <= 0 fails `assume a: x > 0`, so only the subsets declining a (bit 0) reach it
    declines_a = 1 << 0b00 | 1 << 0b10
    assert labelled(collected)[assume_a] == [
        ((-2,), declines_a),
        ((-1,), declines_a),
        ((0,), declines_a),
        ((1,), 0b1111),
        ((2,), 0b1111),
    ]
    for accepted in range(4):
        restricted = restrict(cfg, accepted)
        alone = states_as_given(run_collecting(restricted, (-2, 2)), restricted)
        for node in cfg.nodes:
            members = [
                dict(zip(cfg.variables, s))
                for s, mask in labelled(collected)[node.id]
                if mask >> accepted & 1
            ]
            assert members == alone[node.id], (accepted, node.id)
    assert collected.truncated_subsets == 0


TRUNCATES_WITHOUT_A = "x := input(); assume a: x <= 0; while (x >= 1) { x := x + 1; }"


def test_collecting_truncates_only_the_diverging_subsets():
    cfg = parse_cfg(TRUNCATES_WITHOUT_A)
    collected = run_collecting(cfg, (-2, 2), step_bound=300)
    # accepting a keeps x <= 0, so the loop never runs; declining it lets x >= 1 count up forever
    assert collected.truncated_subsets == 1 << 0b0
    assert not truncated_as_given(collected, cfg)
    for accepted in range(2):
        restricted = restrict(cfg, accepted)
        alone = run_collecting(restricted, (-2, 2), step_bound=300)
        assert truncated_as_given(alone, restricted) == (accepted == 0)
    report = verify_soundness(
        cfg, AnalysisConfig(widening_delay=2), input_range=(-2, 2), step_bound=300
    )
    assert report.partial == [0]
    assert report.passed


SHORTCUT_WITHOUT_A = """
c := input() in [0, 1];
i := 0;
if (c >= 1) { assume a: c <= 0; c := 0; i := 20; }
while (i < 20) { i := i + 1; }
j := 0;
while (j < 30) { j := j + 1; }
"""


def test_collecting_truncation_follows_each_subsets_own_layers():
    # declining a jumps straight to i = 20, reaching every state after the
    # first loop about 60 steps before the subset accepting a does
    cfg = parse_cfg(SHORTCUT_WITHOUT_A)
    for bound, expected in ((100, 0b11), (130, 0b10), (160, 0b00)):
        collected = run_collecting(cfg, step_bound=bound)
        assert collected.truncated_subsets == expected, bound
        for accepted in range(2):
            restricted = restrict(cfg, accepted)
            alone = run_collecting(restricted, step_bound=bound)
            truncated = bool(expected >> accepted & 1)
            assert truncated_as_given(alone, restricted) == truncated, (bound, accepted)


def test_collecting_truncates_only_when_a_step_is_left():
    # x := 0; has 3 nodes: every state is collected after 2 steps
    cfg = parse_cfg("x := 0;")
    for bound, truncated in ((0, True), (1, True), (2, False), (3, False)):
        collected = run_collecting(cfg, step_bound=bound)
        assert truncated_as_given(collected, cfg) == truncated, bound
        assert collected.truncated_subsets == int(truncated), bound
    assert states_as_given(run_collecting(cfg, step_bound=1), cfg) == [[{"x": 0}], [{"x": 0}], []]


def _collecting_programs():
    """(name, cfg, input range) for the corpus and the first 120 fuzz programs."""
    for entry in CORPUS:
        yield entry.name, corpus_cfg(entry.name), entry.input_range
    for seed in range(120):
        yield f"seed {seed}", parse_cfg(generate_program(seed)), (-2, 2)


@pytest.mark.parametrize("step_bound", [0, 1, 2, 5, 50, None])
def test_collecting_matches_the_per_entry_reference(step_bound):
    # one batch per (node, edge) and layer must collect what one step per
    # entry does; the default bound lets the diverging loops hit the entry cap
    bound = {} if step_bound is None else {"step_bound": step_bound}
    for name, cfg, input_range in _collecting_programs():
        got = run_collecting(cfg, input_range, **bound)
        expected = reference_run_collecting(cfg, input_range, **bound)
        assert labelled(got) == labelled(expected), (name, step_bound)
        assert got.truncated_subsets == expected.truncated_subsets, (name, step_bound)
        assert got == expected, (name, step_bound)  # the same entries, whatever their order


@pytest.mark.parametrize("cap", [7, 60])
def test_collecting_at_a_small_entry_cap_keeps_a_part_of_the_uncut_run(monkeypatch, cap):
    # which entries of the cut layer are kept depends on the order of the
    # layer, so only the count, the truncated subsets and each kept entry's
    # place in the uncut run are the reference's
    uncut = {
        (name, bound): run_collecting(cfg, input_range, bound)
        for name, cfg, input_range in _collecting_programs()
        for bound in (5, 50)
    }
    monkeypatch.setattr(engine, "MAX_COLLECTED", cap)
    cut_short = 0
    for name, cfg, input_range in _collecting_programs():
        for bound in (5, 50):
            got = run_collecting(cfg, input_range, bound)
            expected = reference_run_collecting(cfg, input_range, bound)
            entries = sum(map(len, got.reached))
            assert entries == sum(map(len, expected.reached)) <= cap, (name, bound)
            assert got.truncated_subsets == expected.truncated_subsets, (name, bound)
            whole = uncut[name, bound].reached
            for node, reached in enumerate(got.reached):
                for values, mask in reached.items():
                    assert mask & ~whole[node].get(values, 0) == 0, (name, bound, node, values)
            cut_short += entries < sum(map(len, whole))
    assert cut_short > 20  # the cap cut many runs short


NONCONVERGENT_COUNTER = """x := input();
i := 0;
assume a: x >= 1;
assume b: x <= 5;
assume c: i >= 0;
while (i < x) { i := i + 1; }
"""


def test_verifiers_do_not_pass_when_every_subset_is_skipped():
    cfg = parse_cfg(NONCONVERGENT_COUNTER)
    for verify in (verify_equivalence, verify_soundness):
        report = verify(cfg)
        assert report.skipped == list(range(8)), verify.__name__
        assert report.mismatches == []
        assert not report.passed, verify.__name__
        widened = verify(cfg, AnalysisConfig(widening_delay=2))
        assert widened.skipped == [] and widened.passed, verify.__name__


# --- exhaustive verifiers --------------------------------------------------


def _oracle_corpus():
    for entry in CORPUS:
        cfg = corpus_cfg(entry.name)
        if len(cfg.assumptions) <= 8:
            yield entry, cfg, entry.config or AnalysisConfig()


def test_soundness_matches_per_subset_reference_on_corpus():
    partial = 0
    for entry, cfg, config in _oracle_corpus():
        param = analyze_param(cfg, config)
        kwargs = dict(
            input_range=entry.input_range, step_bound=2000, program_name=entry.name, param=param
        )
        got = verify_soundness(cfg, config, **kwargs)
        assert got.to_json() == reference_soundness(cfg, config, **kwargs).to_json(), entry.name
        partial += len(got.partial)
    assert partial  # the diverging loops are cut at the step bound


def test_soundness_matches_reference_on_small_step_bounds():
    entry = next(e for e in CORPUS if e.name == "loop_assume_widen.pwl")
    cfg = corpus_cfg(entry.name)
    for bound in (0, 1, 2, 5, 50):
        args = (cfg, entry.config, entry.input_range, bound)
        got = verify_soundness(*args)
        assert got.to_json() == reference_soundness(*args).to_json(), bound
    assert got.partial == [0, 1]


def _mutants(param, rng: random.Random, count: int):
    """Copies of a result with a few random rule states set to bottom."""
    for _ in range(count):
        states = list(param.states)
        for _ in range(3):
            i = rng.randrange(len(states))
            rules = list(states[i].rules)
            j = rng.randrange(len(rules))
            rules[j] = Rule(rules[j].mask, BOTTOM)
            states[i] = RuleList(rules, states[i].atoms).factored()
        yield type(param)(states, param.iterations, param.converged, param.config)


def _narrowed(param, rng: random.Random, count: int):
    """Copies of a result with one finite endpoint of one rule state moved in by 1.

    Most states collected under such a rule still lie inside it, so its
    bounding box fails while most per-state checks pass.
    """
    nodes = [i for i, s in enumerate(param.states) if any(_inner(r.state) for r in s.rules)]
    for _ in range(count if nodes else 0):
        states = list(param.states)
        i = rng.choice(nodes)
        rules = list(states[i].rules)
        j = rng.choice([j for j, rule in enumerate(rules) if _inner(rule.state)])
        var, narrower = rng.choice(_inner(rules[j].state))
        rules[j] = Rule(rules[j].mask, rules[j].state.updated(var, narrower))
        states[i] = RuleList(rules, states[i].atoms).factored()
        yield type(param)(states, param.iterations, param.converged, param.config)


def _inner(state) -> list:
    """(variable, interval) for each finite endpoint of a state moved in by 1."""
    if state.is_bottom:
        return []
    out = []
    for var, iv in state.items():
        if iv.lo < iv.hi:
            if iv.lo != NEG_INF:
                out.append((var, Interval(iv.lo + 1, iv.hi)))
            if iv.hi != POS_INF:
                out.append((var, Interval(iv.lo, iv.hi - 1)))
    return out


@pytest.mark.parametrize("n", [
    3,
    pytest.param(4, marks=pytest.mark.xfail(strict=True, reason=(
        "run_collecting hits MAX_COLLECTED from 4 inputs and leaves the exit without "
        "concrete states; the all-partial report passes (ROADMAP item 11)"
    ))),
])
def test_soundness_rejects_a_bottomed_exit(n):
    cfg = parse_cfg(independent_source(n))
    result = analyze_param(cfg)
    states = list(result.states)
    states[-1] = ParamState.bottom(states[-1].atoms)
    mutant = type(result)(states, result.iterations, result.converged, result.config)
    report = verify_soundness(cfg, param=mutant)
    assert not report.passed
    assert {m["node"] for m in report.mismatches} == {len(states) - 1}


def test_soundness_matches_reference_on_mutants():
    rng = random.Random(0x50D)
    mismatches = 0
    for entry, cfg, config in _oracle_corpus():
        for mutant in _mutants(analyze_param(cfg, config), rng, 3):
            kwargs = dict(input_range=entry.input_range, step_bound=300, param=mutant)
            got = verify_soundness(cfg, config, **kwargs)
            assert got.to_json() == reference_soundness(cfg, config, **kwargs).to_json(), entry.name
            mismatches += len(got.mismatches)
    assert mismatches > 1000


def test_soundness_matches_reference_on_narrowed_rules():
    rng = random.Random(0xB0C5)
    failing = 0
    for entry, cfg, config in _oracle_corpus():
        for mutant in _narrowed(analyze_param(cfg, config), rng, 4):
            kwargs = dict(input_range=entry.input_range, step_bound=300, param=mutant)
            got = verify_soundness(cfg, config, **kwargs)
            assert got.to_json() == reference_soundness(cfg, config, **kwargs).to_json(), entry.name
            failing += bool(got.mismatches)
    assert failing > 40  # the narrowed endpoint is most often one a concrete state reaches


EQUIVALENCE_CONFIGS = (
    AnalysisConfig(),
    AnalysisConfig(widening_delay=2),
    AnalysisConfig(max_iterations=100),  # some variants stop early and are skipped
)


def test_equivalence_matches_reference_on_corpus():
    skipped = 0
    for entry, cfg, _ in _oracle_corpus():
        for config in EQUIVALENCE_CONFIGS:
            got = verify_equivalence(cfg, config, program_name=entry.name)
            expected = reference_equivalence(cfg, config, program_name=entry.name)
            assert got.to_json() == expected.to_json(), (entry.name, config)
            skipped += len(got.skipped)
    assert skipped


def test_equivalence_matches_reference_on_mutants():
    rng = random.Random(0xE0)
    mismatches = 0
    for entry, cfg, config in _oracle_corpus():
        param = analyze_param(cfg, config)
        for mutant in [*_mutants(param, rng, 2), *_narrowed(param, rng, 2)]:
            got = verify_equivalence(cfg, config, param=mutant)
            assert got.to_json() == reference_equivalence(cfg, config, param=mutant).to_json()
            mismatches += len(got.mismatches)
    assert mismatches > 100


def test_the_oracles_read_the_partitions_without_expanding(monkeypatch):
    # both oracles compare per variable and look up only mismatching
    # subsets, so no state is expanded into its rules, on passing results
    # and on mutants alike
    rng = random.Random(0xFAC7)
    runs = []
    for entry, cfg, config in _oracle_corpus():
        kwargs = dict(input_range=entry.input_range, step_bound=300)
        param = analyze_param(cfg, config)
        for mutant in [param, *_mutants(param, rng, 1)]:
            runs.append((verify_soundness, cfg, config, dict(kwargs, param=mutant)))
        for other in EQUIVALENCE_CONFIGS:
            param = analyze_param(cfg, other)
            for mutant in [param, *_narrowed(param, rng, 1)]:
                runs.append((verify_equivalence, cfg, other, dict(param=mutant)))

    def expand(self, columns=None):
        raise AssertionError("a state was expanded")

    def reports():
        return [verify(cfg, config, **kwargs).to_json() for verify, cfg, config, kwargs in runs]

    with monkeypatch.context() as patched:  # first, so no earlier run expands a state for it
        patched.setattr(ParamState, "expand", expand)
        got = reports()
    assert got == reports()
    passing = [report for report in got if not report["mismatches"]]
    assert len(passing) > 60 and len(got) - len(passing) > 20


def _check_sweep(cfg, config, subsets=None, label=None) -> int:
    """The sweep's groups partition the chosen subsets, and each group's result
    equals the memo-less plain analysis of every subset in it; the group count."""
    chosen = full_mask(len(cfg.assumptions)) if subsets is None else subsets
    covered = 0
    runs = analyze_variants(cfg, config, subsets)
    for group, shared in runs:
        assert group and not group & covered, label
        covered |= group
        for accepted in members(group):
            alone = analyze_baseline(restrict(cfg, accepted), config)
            assert shared.states == alone.states, (label, accepted)
            assert shared.iterations == alone.iterations, (label, accepted)
            assert shared.converged == alone.converged, (label, accepted)
    assert covered == chosen, label
    return len(runs)


def test_variant_sweep_keeps_every_analysis():
    # one forked sweep: the same states, iterations and convergence per subset
    # as independent analyses, with and without widening or an early stop
    forked = 0
    for entry, cfg, _ in _oracle_corpus():
        for config in EQUIVALENCE_CONFIGS:
            forked += _check_sweep(cfg, config, label=(entry.name, config)) > 1
    assert forked > 20


def test_variant_sweep_keeps_every_analysis_of_generated_programs():
    # widening from the first, second or third visit (widening the bottom
    # state of a first visit changes nothing, so only a delay of 3 tells a
    # fork's own visit counts from counts shared with the run it left), and a
    # cut that stops some runs
    configs = (
        AnalysisConfig(widening_delay=1),
        AnalysisConfig(widening_delay=2),
        AnalysisConfig(widening_delay=3),
        AnalysisConfig(max_iterations=12),
        AnalysisConfig(widening_delay=2, max_iterations=25),
    )
    rng = random.Random(0x5EED)
    groups = cut = 0
    for seed in range(400):
        cfg = parse_cfg(generate_program(seed))
        subsets = 1 << len(cfg.assumptions)
        for config in configs:
            groups += _check_sweep(cfg, config, label=(seed, config))
            cut += not all(r.converged for _, r in analyze_variants(cfg, config))
            # a random sparse choice of subsets, possibly none
            sparse = sum(1 << a for a in range(subsets) if rng.random() < 0.25)
            _check_sweep(cfg, config, sparse, label=(seed, config, sparse))
    assert groups > 2000 and cut > 100


_RELATIONAL16 = """
x := input(); y := input(); z := input();
assume a0: x >= 0; assume a1: x <= 40; assume a2: y >= 5; assume a3: y <= 30;
assume a4: z >= -10; assume a5: z <= 10;
i := 0;
while (i < x) { i := i + 1; assume a6: i <= 50; }
if (x <= y) { z := z + x; assume a7: z >= 0; } else { z := y - x; assume a8: z <= -1; }
assume a9: i >= 3; assume a10: y >= 10 && y <= 25; assume a11: x = 7;
assume a12: z <= 20; assume a13: i <= 40;
w := x + y;
assume a14: w >= 12; assume a15: w <= 60;
assert i >= x;
assert w >= 12 || z <= 0;
"""


def test_the_oracles_enumerate_up_to_the_cap():
    # every assume node sets the subsets apart: 4,096 fresh states per node;
    # inputs in [-1, 0] take and fail each assumption, and every subset's
    # concrete run completes
    assert ORACLE_CAP == 12
    cfg = parse_cfg(independent_source(12))
    result = analyze_param(cfg)
    assert verify_equivalence(cfg, param=result).passed
    soundness = verify_soundness(cfg, input_range=(-1, 0), param=result)
    assert soundness.passed and not soundness.partial
    fixpoints = brute_force_fixpoints(result, cfg)
    assert consistency_report(result, cfg).fixpoints == tuple(fixpoints) == ((1 << 12) - 1,)

    cfg = parse_cfg(independent_source(13))
    result = analyze_param(cfg)
    for check in (
        lambda: verify_equivalence(cfg, param=result),
        lambda: verify_soundness(cfg, param=result),
        lambda: brute_force_fixpoints(result, cfg),
    ):
        with pytest.raises(ValueError, match=r"refusing to enumerate 2\*\*13 subsets \(cap 12\)"):
            check()
    assert consistency_report(result, cfg).fixpoints is None


@pytest.mark.parametrize(
    "source, config",
    [(independent_source(16), AnalysisConfig()), (_RELATIONAL16, AnalysisConfig(widening_delay=2))],
    ids=["independent", "relational-guard-and-widened-loop"],
)
def test_states_above_the_oracle_cap_match_sampled_re_analyses(source, config):
    # at 16 assumptions the exhaustive oracles refuse; a sample of subsets is
    # re-analyzed instead: the empty and full sets, every singleton and
    # co-singleton, and 16 seeded subsets
    cfg = parse_cfg(source)
    width = len(cfg.assumptions)
    assert width == 16
    result = analyze_param(cfg, config)
    assert result.converged
    everyone = (1 << width) - 1
    rng = random.Random(1716)
    sample = {0, everyone, *(1 << i for i in range(width)), *(everyone ^ 1 << i for i in range(width))}
    sample |= {rng.randrange(1 << width) for _ in range(16)}
    exact = config.widening_delay is None
    runs = analyze_variants(cfg, config, subsets=sum(1 << a for a in sample))
    checked = 0
    for group, base in runs:
        assert base.converged
        for accepted in members(group):
            for node in cfg.nodes:
                expected = base.states[node.id]
                got = result.states[node.id].state_for(accepted)
                assert expected == got if exact else expected.leq(got), (accepted, node.id)
            checked += 1
    assert checked == len(sample) >= 2 + 2 * width + 12
    if exact:  # each variable's partition at the exit: [0, +inf] where assumed, else top
        exit_state = result.states[cfg.exit]
        assert is_partition(exit_state)
        assert len(exit_state.parts) == width and all(len(part) <= 2 for part in exit_state.parts)


def test_variant_sweep_rejects_subsets_outside_the_program(example1_cfg):
    assert analyze_variants(example1_cfg, subsets=0) == []
    for subsets in (-1, 1 << 4):
        with pytest.raises(ValueError):
            analyze_variants(example1_cfg, subsets=subsets)


def test_verifiers_raise_on_broken_partitions(example1_cfg):
    # rules that leave a gap or overlap do not make a state: factoring refuses them
    cfg = example1_cfg
    a = Atom(cfg.assumptions[0])
    gap = rule_state(cfg.assumptions, (a, env(x=(NEG_INF, POS_INF))))
    overlap = rule_state(cfg.assumptions, (TRUE, env(x=(5, 5))), (Not(a), env(x=(5, 5))))
    contradiction = param_state(
        cfg.assumptions, (TRUE, env(x=(5, 5))), (And((a, Not(a))), BOTTOM)
    )
    for broken in (gap, overlap):
        with pytest.raises(ValueError, match="rule"):
            broken.factored()
        param = analyze_param(cfg)
        param.states[3] = broken  # a rule list in place of the state
        with pytest.raises(ValueError, match="rule"):
            reference_soundness(cfg, input_range=(-2, 2), param=param)
    # an unsatisfiable extra rule is no gap and no overlap
    param = analyze_param(cfg)
    param.states[3] = contradiction
    assert verify_soundness(cfg, input_range=(-2, 2), param=param).passed
    assert verify_equivalence(cfg, param=param).passed

# --- exhaustive verifiers --------------------------------------------------


def test_equivalence_example1(example1_cfg):
    report = verify_equivalence(example1_cfg, program_name="example1")
    assert report.passed
    assert report.subsets_checked == 4
    assert report.skipped == []


def test_equivalence_no_assumptions():
    report = verify_equivalence(corpus_cfg("fig1.pwl"))
    assert report.passed and report.subsets_checked == 1


def test_equivalence_skips_nonconvergent_variants():
    cfg = corpus_cfg("loop_diverge.pwl")
    report = verify_equivalence(cfg, AnalysisConfig(max_iterations=100))
    assert report.skipped == [0]
    assert not report.passed  # every subset skipped: nothing was checked


def test_equivalence_catches_mutant():
    cfg = parse_cfg(EXAMPLE1)
    report = verify_equivalence(cfg)
    # corrupt the parameterized result: swap one rule state
    from paramax import engine as engine_mod

    original = engine_mod.analyze_param

    def mutant(cfg_, config=None, observer=None):
        result = original(cfg_, config, observer)
        result.states[3] = ParamState.of_state(env(x=(6, 6)), cfg_.assumptions)
        return result

    engine_mod_analyze = engine_mod.analyze_param
    engine_mod.analyze_param = mutant
    try:
        bad = verify_equivalence(cfg)
    finally:
        engine_mod.analyze_param = engine_mod_analyze
    assert report.passed and not bad.passed
    assert {m["node"] for m in bad.mismatches} == {3}


def test_soundness_example1(example1_cfg):
    report = verify_soundness(example1_cfg, input_range=(-3, 3))
    assert report.passed and report.subsets_checked == 4


def test_soundness_fig1():
    report = verify_soundness(
        corpus_cfg("fig1.pwl"), input_range=(-2, 13), step_bound=10_000
    )
    assert report.passed


def test_soundness_partial_on_truncation():
    cfg = corpus_cfg("loop_diverge.pwl")
    report = verify_soundness(
        cfg, AnalysisConfig(widening_delay=2), input_range=(-2, 2), step_bound=300
    )
    assert report.partial == [0]
    assert report.passed
