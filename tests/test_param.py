import random

import pytest

from paramax.conditions import WIDTH_CAP, And, Atom, FALSE, Not, TRUE, render_mask, truth_table
from paramax import engine, param
from paramax.engine import AnalysisConfig, analyze_param
from paramax.frontend import AssumptionId, AtomicConstraint, Bound, Rel, parse_cfg
from paramax.intervals import BOTTOM, AssumeState, NEG_INF, POS_INF
from paramax.param import (
    ParamState,
    PartitionError,
    Rule,
    approx_merge,
    join_states,
    leq_param,
    lift_transfer,
    merge_loss,
    normalize,
    reduce_to_budget,
    split,
    widen_param,
)

from conftest import (
    CORPUS,
    canonical_rule_key,
    corpus_source,
    env,
    exact_merge_step,
    fake_assumptions,
    iv,
    param_state,
    random_param_state,
    redundancy_elim_step,
    reference_reduce_to_budget,
)

A = fake_assumptions(4)
a0, a1 = Atom(A[0]), Atom(A[1])
TOP1 = env(x=(NEG_INF, POS_INF))


def state_of(width: int, *rules) -> ParamState:
    """`param_state` over the first `width` of the atoms `A`."""
    return param_state(A[:width], *rules)


def pi_ge(c: int) -> AssumeState:
    return AssumeState.from_constraint(AtomicConstraint((Bound("x", Rel.GE, c),)))


def pi_eq(c: int) -> AssumeState:
    return AssumeState.from_constraint(AtomicConstraint((Bound("x", Rel.EQ, c),)))


def test_state_lookup():
    single = state_of(2, (TRUE, env(x=(1, 2))))
    assert single.state_for(0b00) == env(x=(1, 2))
    assert single.state_for(0b11) == env(x=(1, 2))

    pair = state_of(2, (a0, env(x=(1, POS_INF))), (Not(a0), TOP1))
    assert pair.state_for(0b01) == env(x=(1, POS_INF))
    assert pair.state_for(0b00) == TOP1
    assert pair.state_for(0b10) == TOP1


def test_state_lookup_detects_broken_partition():
    overlapping = state_of(2, (a0, TOP1), (TRUE, TOP1))
    with pytest.raises(PartitionError):
        overlapping.state_for(0b01)
    gappy = state_of(2, (a0, TOP1))
    with pytest.raises(PartitionError):
        gappy.state_for(0b00)


def test_states_hash_and_print_without_hashing_atoms(monkeypatch):
    state = state_of(2, (a0, env(x=(1, POS_INF))), (Not(a0), TOP1))
    swapped = ParamState(state.rules, (A[1], A[0]))
    document = state.to_json()

    def refuse(self):
        raise AssertionError("an assumption was hashed")

    monkeypatch.setattr(AssumptionId, "__hash__", refuse)
    assert hash(state) == hash(swapped)
    assert state.to_json() == document
    # equality still tells the atoms apart
    assert state != swapped and state == ParamState(state.rules, A[:2])


def test_exact_merge_step():
    five = env(x=(5, 5))
    state = state_of(1, (a0, five), (Not(a0), five))
    merged = exact_merge_step(state)
    assert merged is not None
    assert len(merged.rules) == 1
    assert merged.rules[0].state == five
    assert merged.rules[0].mask == 0b11

    distinct = state_of(1, (a0, five), (Not(a0), TOP1))
    assert exact_merge_step(distinct) is None

    triple = state_of(2, (a0, five), (And((Not(a0), a1)), five), (And((Not(a0), Not(a1))), five))
    one_step = exact_merge_step(triple)
    assert one_step is not None and len(one_step.rules) == 2  # one pair per step


def test_redundancy_elim_step():
    contradiction = And((Not(a0), a0))
    state = state_of(1, (contradiction, env(x=(1, 2))), (TRUE, TOP1))
    out = redundancy_elim_step(state)
    assert out is not None and out.rules == state_of(1, (TRUE, TOP1)).rules

    sat_state = state_of(1, (a0, TOP1), (Not(a0), env(x=(0, 0))))
    assert redundancy_elim_step(sat_state) is None

    falsy = state_of(1, (FALSE, env(x=(0, 0))), (TRUE, TOP1))
    assert redundancy_elim_step(falsy).rules == state_of(1, (TRUE, TOP1)).rules


def test_normalize_merges_and_simplifies():
    five = env(x=(5, 5))
    state = state_of(1, (a0, five), (Not(a0), five))
    assert normalize(state).rules == state_of(1, (TRUE, five)).rules

    already = state_of(1, (Not(a0), TOP1), (a0, five))
    assert normalize(already) == already  # fixpoint, canonical order kept


def test_normalize_matches_enumeration_oracle():
    rng = random.Random(20240811)
    for _ in range(150):
        width = rng.randint(1, 4)
        state = random_param_state(rng, width)
        normalized = normalize(state)
        # oracle: group subsets by their looked-up state, via plain enumeration
        groups = {}
        for accepted in range(1 << width):
            groups.setdefault(state.state_for(accepted), 0)
            groups[state.state_for(accepted)] |= 1 << accepted

        got = {r.state: r.mask for r in normalized.rules}
        assert got == groups
        # and the lookup function is unchanged
        for accepted in range(1 << width):
            assert normalized.state_for(accepted) == state.state_for(accepted)
        # result is in normal form: distinct states, nonempty masks
        states = [r.state for r in normalized.rules]
        assert len(set(states)) == len(states)
        assert all(r.mask for r in normalized.rules)


def test_unchanged_states_are_returned_themselves():
    box = env(x=(0, 5), y=(NEG_INF, POS_INF))
    assert box.updated("x", iv(0, 5)) is box
    assert box.updated("y", iv(NEG_INF, POS_INF)) is box
    moved = box.updated("x", iv(0, 6))
    assert moved is not box and moved == env(x=(0, 6), y=(NEG_INF, POS_INF))
    assert BOTTOM.updated("x", iv(0, 1)) is BOTTOM

    rng = random.Random(1212)
    for _ in range(100):
        state = random_param_state(rng, rng.randint(0, 4))
        assert lift_transfer(state, lambda e: e) is state
        # sending one state to bottom rebuilds its rules and keeps the others
        first = state.rules[0].state
        lifted = lift_transfer(state, lambda e: BOTTOM if e is first else e)
        assert (lifted is state) == (first is BOTTOM)
        for new, old in zip(lifted.rules, state.rules):
            assert new == (Rule(old.mask, BOTTOM) if old.state is first else old)
            assert (new is old) == (old.state is not first or first is BOTTOM)
        normal = normalize(state)
        assert normalize(normal) is normal
        assert (normal is state) == (normal.rules == state.rules)
        lows = [rule.mask & -rule.mask for rule in normal.rules]
        assert lows == sorted(set(lows)) and all(lows)  # ordered by lowest subset


def test_split_fresh_atom():
    state = state_of(2, (TRUE, TOP1))
    out = split(state, A[0], pi_ge(1))
    assert canonical_rule_key(out) == canonical_rule_key(
        state_of(2, (a0, env(x=(1, POS_INF))), (Not(a0), TOP1))
    )


def test_split_skips_unsatisfiable_branch():
    state = state_of(1, (Not(a0), TOP1))
    out = split(state, A[0], pi_ge(1))
    assert out.rules == state.rules


def test_split_reuses_deciding_condition():
    state = state_of(1, (a0, env(x=(0, 9))))
    out = split(state, A[0], pi_ge(1))
    assert out.rules == state_of(1, (a0, env(x=(1, 9)))).rules  # the mask kept whole


def test_split_preserves_partition_and_semantics():
    rng = random.Random(7)
    for _ in range(100):
        width = rng.randint(1, 4)
        state = normalize(random_param_state(rng, width))
        index = rng.randrange(width)
        pi = pi_ge(rng.randint(-2, 5))
        out = split(state, A[index], pi)
        assert out.is_partition()
        for accepted in range(1 << width):
            before = state.state_for(accepted)
            expect = before.meet(pi) if (accepted >> index) & 1 else before
            assert out.state_for(accepted) == expect


def test_join_single_input_normalizes():
    state = state_of(1, (a0, env(x=(5, 5))), (Not(a0), env(x=(5, 5))))
    assert join_states([state]).rules == state_of(1, (TRUE, env(x=(5, 5)))).rules


def test_join_pointwise_hull():
    first = state_of(1, (TRUE, env(x=(11, 12))))
    second = state_of(1, (TRUE, env(x=(0, 0))))
    assert join_states([first, second]).rules == state_of(1, (TRUE, env(x=(0, 12)))).rules


def test_join_with_bottom_is_identity():
    split_state = state_of(1, (a0, env(x=(1, 2))), (Not(a0), env(x=(3, 4))))
    bottom = ParamState.bottom(A[:1])
    joined = join_states([split_state, bottom])
    assert canonical_rule_key(joined) == canonical_rule_key(normalize(split_state))


def test_join_realizes_pointwise_join():
    rng = random.Random(99)
    for _ in range(60):
        width = rng.randint(1, 3)
        states = [normalize(random_param_state(rng, width)) for _ in range(rng.randint(1, 3))]
        joined = join_states(states)
        assert joined.is_partition()
        for accepted in range(1 << width):
            expect = BOTTOM
            for s in states:
                expect = expect.join(s.state_for(accepted))
            assert joined.state_for(accepted) == expect


def test_leq_param():
    state = state_of(1, (a0, env(x=(1, 2))), (Not(a0), env(x=(5, 6))))
    assert leq_param(state, state)
    assert leq_param(ParamState.bottom(A[:1]), state)
    merged = approx_merge(state, 0, 1)
    assert leq_param(state, merged)
    assert not leq_param(merged, state)


def test_approx_merge():
    state = state_of(1, (a0, env(x=(1, 3))), (Not(a0), env(x=(10, 12))))
    merged = approx_merge(state, 0, 1)
    assert merged.rules == state_of(1, (TRUE, env(x=(1, 12)))).rules
    same = state_of(1, (a0, env(x=(7, 7))), (Not(a0), env(x=(7, 7))))
    assert approx_merge(same, 0, 1).rules[0].state == env(x=(7, 7))
    with pytest.raises(IndexError):
        approx_merge(state, 0, 5)
    with pytest.raises(IndexError):
        approx_merge(state, 1, 1)


def test_approx_merge_overapproximates_randomly():
    rng = random.Random(4242)
    for _ in range(200):
        width = rng.randint(1, 4)
        state = normalize(random_param_state(rng, width))
        if len(state.rules) < 2:
            continue
        i = rng.randrange(len(state.rules))
        j = rng.randrange(len(state.rules))
        if i == j:
            continue
        merged = approx_merge(state, i, j)
        assert merged.is_partition()
        assert leq_param(state, merged)
        for accepted in range(1 << width):
            assert state.state_for(accepted).leq(merged.state_for(accepted))


def test_merge_loss_examples():
    assert merge_loss(env(x=(1, 3)), env(x=(1, 3))) == (0, 0)
    assert merge_loss(env(x=(1, 3)), env(x=(10, 12))) == (0, 9)
    assert merge_loss(env(x=(0, 5)), env(x=(0, POS_INF))) == (0, 0)
    assert merge_loss(BOTTOM, env(x=(0, 5))) == (0, 0)
    assert merge_loss(env(x=(1, 2), y=(0, 0)), env(x=(2, 3), y=(0, 9))) == (0, 1 + 0)


def test_reduce_to_budget():
    rules = state_of(
        2,
        (And((a0, a1)), env(x=(1, 2))),
        (And((a0, Not(a1))), env(x=(2, 3))),
        (Not(a0), env(x=(100, 200))),
    )
    assert reduce_to_budget(rules, 3) == rules
    reduced = reduce_to_budget(rules, 2)
    assert len(reduced.rules) == 2
    # the two nearby ranges merged first: their loss (0,1) beats (0,98) and (0,99)
    assert env(x=(1, 3)) in [r.state for r in reduced.rules]
    single = reduce_to_budget(rules, 1)
    assert len(single.rules) == 1
    assert single.rules[0].mask == truth_table(TRUE, 2)
    with pytest.raises(ValueError):
        reduce_to_budget(rules, 0)


def test_reduce_preserves_partition_and_overapproximates():
    rng = random.Random(11)
    for _ in range(100):
        width = rng.randint(1, 4)
        state = normalize(random_param_state(rng, width))
        budget = rng.randint(1, 3)
        reduced = reduce_to_budget(state, budget)
        assert len(reduced.rules) <= budget
        assert reduced.is_partition()
        assert leq_param(state, reduced)


def _many_rules(rng: random.Random, width: int) -> ParamState:
    """A random partition of the 2**width subsets into up to 2**width cells,
    some empty, in random order; the states repeat, and joins of them often
    equal another rule's state, so merges also fuse rules."""
    bounds = [NEG_INF, 0, 1, 2, 3, POS_INF]

    def interval():
        lo, hi = sorted(rng.sample(bounds[:-1], 2)) if rng.random() < 0.5 else (0, rng.choice(bounds[1:]))
        return (lo, hi)

    pool = [BOTTOM] + [env(x=interval(), y=interval()) for _ in range(rng.randint(1, 12))]
    cells = rng.randint(1, 1 << width)
    masks = [0] * cells
    for subset in range(1 << width):
        masks[rng.randrange(cells)] |= 1 << subset
    rules = [Rule(mask, rng.choice(pool)) for mask in masks]
    rng.shuffle(rules)
    return ParamState(tuple(rules), fake_assumptions(width))


def test_reduce_to_budget_chooses_as_the_full_rescan_does():
    rng = random.Random(16)
    for _ in range(400):
        state = _many_rules(rng, rng.randint(0, 5))
        for given in (state, normalize(state)):
            budget = rng.randint(1, len(given.rules) + 1)
            assert reduce_to_budget(given, budget) == reference_reduce_to_budget(given, budget), (
                given,
                budget,
            )


def test_reduce_to_budget_analyzes_the_corpus_as_the_full_rescan_does(monkeypatch):
    runs = []
    for entry in CORPUS:
        cfg = parse_cfg(corpus_source(entry.name))
        delay = entry.config.widening_delay if entry.config else None
        for budget in range(1, 9):
            config = AnalysisConfig(widening_delay=delay, merge_budget=budget)
            runs.append((entry.name, budget, cfg, config, analyze_param(cfg, config)))
    monkeypatch.setattr(engine, "reduce_to_budget", reference_reduce_to_budget)
    for name, budget, cfg, config, got in runs:
        expected = analyze_param(cfg, config)
        assert got.states == expected.states, (name, budget)
        assert (got.iterations, got.converged) == (expected.iterations, expected.converged)


def test_reduce_to_budget_computes_each_pair_loss_once(monkeypatch):
    """One reduction from r rules makes at most r(r-1)/2 + merges * (r-1)
    `merge_loss` calls: every pair once, then the pairs of each merged rule."""
    source = "".join(f"x{i} := input();\nassume a{i}: x{i} >= 0;\n" for i in range(7))
    result = analyze_param(parse_cfg(source))
    state = result.states[-1]
    r = len(state.rules)
    assert r == 128 and normalize(state) is state
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return merge_loss(a, b)

    monkeypatch.setattr(param, "merge_loss", counting)
    for budget in (1, 16, 64, 127):
        calls.clear()
        reduced = reduce_to_budget(state, budget)
        assert len(reduced.rules) <= budget
        assert len(calls) <= r * (r - 1) // 2 + (r - budget) * (r - 1), budget
    # the full rescan makes about r(r-1)/2 calls per merge
    calls.clear()
    monkeypatch.setattr("conftest.merge_loss", counting)
    reference_reduce_to_budget(state, r - 4)
    assert len(calls) > 4 * (r - 4) * (r - 5) // 2


def test_widen_param_cells():
    old = state_of(1, (a0, env(x=(0, 5))), (Not(a0), env(x=(0, 0))))
    new = state_of(1, (a0, env(x=(0, 8))), (Not(a0), env(x=(0, 0))))
    widened = widen_param(old, new)
    assert widened.state_for(0b1) == env(x=(0, POS_INF))
    assert widened.state_for(0b0) == env(x=(0, 0))
    assert widened.is_partition()


def test_normal_form_unique_for_any_reduction_order():
    # randomized interleavings of the two reduction steps all land on the
    # same canonical form (smaller-scale; the acceptance suite scales it up)
    rng = random.Random(555)
    for _ in range(50):
        width = rng.randint(1, 4)
        state = random_param_state(rng, width)
        expected = canonical_rule_key(normalize(state))
        for _ in range(20):
            current = state
            while True:
                merges = [
                    (i, j)
                    for i in range(len(current.rules))
                    for j in range(i + 1, len(current.rules))
                    if current.rules[i].state == current.rules[j].state
                ]
                unsat = [i for i, rule in enumerate(current.rules) if rule.mask == 0]
                ops = [("merge", p) for p in merges] + [("drop", i) for i in unsat]
                if not ops:
                    break
                kind, arg = rng.choice(ops)
                if kind == "merge":
                    current = exact_merge_step(current, arg)
                else:
                    current = redundancy_elim_step(current, arg)
            assert canonical_rule_key(current) == expected
            for accepted in range(1 << width):
                assert current.state_for(accepted) == state.state_for(accepted)


def test_rule_conditions_stay_small_at_the_width_cap():
    # stacked lower bounds as in the acceptance suite's wide program, plus
    # upper bounds, so the rule tables mix both kinds of refinement
    lines = ["x := input();"]
    lines += [f"assume w{i}: x >= {i};" for i in range(1, 14)]
    lines += ["assume u1: x <= 20;", "assume u2: x <= 9;", "assume u3: x <= 4;"]
    lines += ["y := x + 1;", "assert y >= 5;"]
    cfg = parse_cfg("\n".join(lines))
    assert len(cfg.assumptions) == WIDTH_CAP
    result = analyze_param(cfg)
    assert result.converged
    for node, state in zip(cfg.nodes, result.states):
        for rule in state.rules:
            text = render_mask(rule.mask, cfg.assumptions)
            assert len(text) <= 2000, (node.id, text[:200])
