import random

import pytest

from paramax.conditions import WIDTH_CAP, And, Atom, FALSE, Not, TRUE, full_mask, members, render_mask
from paramax.engine import analyze_param
from paramax.frontend import (
    AssumptionId, AtomicConstraint, Bound, Entry, Exit, LinearExpr, Rel, Skip, parse_cfg,
)
from paramax.intervals import (
    BOTTOM, AssumeState, IntervalEnv, NEG_INF, POS_INF, eval_linear, transfer,
)
from paramax.param import (
    ParamState,
    Rule,
    join_states,
    leq_param,
    lift_transfer,
    mismatched,
    normalize,
    split,
    widen_param,
)

from conftest import (
    RuleList,
    canonical_rule_key,
    env,
    exact_merge_step,
    env_of,
    fake_assumptions,
    is_partition,
    iv,
    param_state,
    random_param_state,
    redundancy_elim_step,
    reference_join_states,
    reference_leq_param,
    reference_lift_transfer,
    reference_normalize,
    reference_split,
    reference_widen_param,
    rule_state,
    table_json,
)

A = fake_assumptions(4)
a0, a1 = Atom(A[0]), Atom(A[1])
TOP1 = env(x=(NEG_INF, POS_INF))


def state_of(width: int, *rules) -> ParamState:
    """`param_state` over the first `width` of the atoms `A`."""
    return param_state(A[:width], *rules)


def rules_of(width: int, *rules) -> RuleList:
    """`rule_state` over the first `width` of the atoms `A`."""
    return rule_state(A[:width], *rules)


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
    # rules that overlap or leave a gap do not factor; the rule lists show why
    overlapping = rules_of(2, (a0, TOP1), (TRUE, TOP1))
    with pytest.raises(ValueError, match="multiple rules apply to subset 0x1"):
        overlapping.factored()
    with pytest.raises(ValueError, match="2 rules apply to subset 0x1"):
        overlapping.state_for(0b01)
    gappy = rules_of(2, (a0, TOP1))
    with pytest.raises(ValueError, match="no rule applies to subset 0x0"):
        gappy.factored()
    with pytest.raises(ValueError, match="0 rules apply to subset 0x0"):
        gappy.state_for(0b00)
    # an empty-mask rule is no overlap
    state = rules_of(2, (TRUE, TOP1), (FALSE, env(x=(0, 0)))).factored()
    assert state.rules == (Rule(0b1111, TOP1),)


_X01 = state_of(1, (a0, env(x=(1, 2))), (Not(a0), TOP1))
_X01_TEXT = "!a1 -> x:[-inf,+inf]; a1 -> x:[1,2]"
_OTHER_ATOMS = param_state((A[1],), (TRUE, TOP1))
_OTHER_VARIABLES = state_of(1, (TRUE, env(y=(0, 0))))
_OTHER_VARIABLES_UNDER_A0 = state_of(1, (a0, env(y=(0, 0))), (Not(a0), BOTTOM))
_CFG = parse_cfg("x := 1;")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: join_states([]), "join of no parameterized states"),
        (lambda: join_states([_X01, _OTHER_ATOMS]), "mismatched assumptions"),
        (lambda: leq_param(_X01, _OTHER_ATOMS), "mismatched assumptions"),
        (lambda: join_states([_X01, _OTHER_VARIABLES]), "mismatched variable universes"),
        (lambda: leq_param(_X01, _OTHER_VARIABLES), "mismatched variable universes"),
        # raised even where `_X01` reaches a subset that the other state does not
        (lambda: leq_param(_X01, _OTHER_VARIABLES_UNDER_A0), "mismatched variable universes"),
        (lambda: mismatched(_X01, ("y",), [(0, 0)], 0b11, True), "mismatched variable universes"),
        (lambda: BOTTOM.get("x"), "bottom environment has no bindings"),
        (lambda: BOTTOM.items(), "bottom environment has no bindings"),
        (lambda: eval_linear(LinearExpr(1, ()), BOTTOM), "cannot evaluate in the bottom environment"),
        (lambda: _CFG.predecessors(99), "unknown node id 99"),
        (lambda: _CFG.successors(-1), "unknown node id -1"),
        (lambda: _X01.state_for(-1), f"no rule applies to subset -0x1: {_X01_TEXT}"),
        (lambda: _X01.state_for(2), f"no rule applies to subset 0x2: {_X01_TEXT}"),
    ],
    ids=[
        "join-none", "join-atoms", "leq-atoms", "join-variables", "leq-variables",
        "leq-variables-unreached",
        "mismatched-variables", "get-bottom", "items-bottom", "eval-bottom", "predecessors", "successors", "state-for-negative",
        "state-for-past-width",
    ],
)
def test_defensive_raises_name_their_cause(call, message):
    # safety checks that no analysis reaches, on hand-built values
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_states_hash_and_print_without_hashing_atoms(monkeypatch):
    state = state_of(2, (a0, env(x=(1, POS_INF))), (Not(a0), TOP1))
    swapped = RuleList(state.rules, (A[1], A[0])).factored()
    document, text = table_json(state), repr(state)

    def refuse(self):
        raise AssertionError("an assumption was hashed")

    monkeypatch.setattr(AssumptionId, "__hash__", refuse)
    assert hash(state) == hash(swapped)
    assert table_json(state) == document and repr(state) == text
    # equality still tells the atoms apart
    assert state != swapped and state == RuleList(state.rules, A[:2]).factored()


def test_exact_merge_step():
    five = env(x=(5, 5))
    state = rules_of(1, (a0, five), (Not(a0), five))
    merged = exact_merge_step(state)
    assert merged is not None
    assert len(merged.rules) == 1
    assert merged.rules[0].state == five
    assert merged.rules[0].mask == 0b11

    distinct = rules_of(1, (a0, five), (Not(a0), TOP1))
    assert exact_merge_step(distinct) is None

    triple = rules_of(2, (a0, five), (And((Not(a0), a1)), five), (And((Not(a0), Not(a1))), five))
    one_step = exact_merge_step(triple)
    assert one_step is not None and len(one_step.rules) == 2  # one pair per step


def test_redundancy_elim_step():
    contradiction = And((Not(a0), a0))
    state = rules_of(1, (contradiction, env(x=(1, 2))), (TRUE, TOP1))
    out = redundancy_elim_step(state)
    assert out is not None and out.rules == rules_of(1, (TRUE, TOP1)).rules

    sat_state = rules_of(1, (a0, TOP1), (Not(a0), env(x=(0, 0))))
    assert redundancy_elim_step(sat_state) is None

    falsy = rules_of(1, (FALSE, env(x=(0, 0))), (TRUE, TOP1))
    assert redundancy_elim_step(falsy).rules == rules_of(1, (TRUE, TOP1)).rules


def test_normalize_merges_and_simplifies():
    # factoring merges rules of equal states; the rules come back in normal form
    five = env(x=(5, 5))
    state = state_of(1, (a0, five), (Not(a0), five))
    assert state.rules == rules_of(1, (TRUE, five)).rules
    assert reference_normalize(rules_of(1, (a0, five), (Not(a0), five))).rules == state.rules

    already = rules_of(1, (Not(a0), TOP1), (a0, five))
    assert already.factored().rules == already.rules  # fixpoint, canonical order kept

    # `normalize` pools cells of equal intervals and keeps what did not change
    two = state_of(2, (a0, env(x=(1, 3), y=(0, 0))), (Not(a0), env(x=(5, 5), y=(0, 0))))
    x_cells = list(two.parts[0].items())
    assert normalize(two, two.reach, [x_cells, two.parts[1]]) is two
    pooled = normalize(two, two.reach, [[(iv(0, 9), 0b0101), (iv(0, 9), 0b1010)], two.parts[1]])
    assert pooled.parts[0] == {iv(0, 9): 0b1111} and pooled.parts[1] is two.parts[1]
    assert pooled.rules == (Rule(0b1111, env(x=(0, 9), y=(0, 0))),)
    # subsets outside the reach become bottom in every partition
    cut = normalize(two, 0b0011, two.parts)
    assert cut.rules == (Rule(0b0001, env(x=(5, 5), y=(0, 0))), Rule(0b0010, env(x=(1, 3), y=(0, 0))),
                         Rule(0b1100, BOTTOM))
    assert is_partition(cut) and cut.parts[1] == {iv(0, 0): 0b0011, None: 0b1100}
    assert normalize(two, 0, two.parts) == ParamState.bottom(A[:2])


def test_normalize_matches_enumeration_oracle():
    rng = random.Random(20240811)
    for _ in range(150):
        width = rng.randint(1, 4)
        state = random_param_state(rng, width)
        normalized = state.factored()
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


_NODES = parse_cfg(
    "x := input(); y := input(); x := x; y := 2*x - 3; x := x + y; x := 7;"
    "if (x <= y) { skip; } if (x < y) { skip; } if (x = y) { skip; } if (x != y) { skip; }"
    "if (x >= 2) { skip; } if (y > x) { skip; } if (3 <= 2) { skip; }"
).nodes


def _two_variable_pool(rng: random.Random) -> list:
    """States over x and y, some of them bottom, with a few shared intervals."""
    bounds = [NEG_INF, -2, 0, 1, 3, POS_INF]

    def interval():
        lo, hi = sorted(rng.sample(bounds, 2))
        return (lo, hi) if lo != hi or lo not in (NEG_INF, POS_INF) else (0, 0)

    return [BOTTOM] + [env(x=interval(), y=interval()) for _ in range(rng.randint(1, 5))]


def test_unchanged_states_are_returned_themselves():
    box = env(x=(0, 5), y=(NEG_INF, POS_INF))
    assert box.updated("x", iv(0, 5)) is box
    assert box.updated("y", iv(NEG_INF, POS_INF)) is box
    moved = box.updated("x", iv(0, 6))
    assert moved is not box and moved == env(x=(0, 6), y=(NEG_INF, POS_INF))
    assert BOTTOM.updated("x", iv(0, 1)) is BOTTOM

    keep = next(node for node in _NODES if node.render() == "assign(x := x)")
    rng = random.Random(1212)
    for _ in range(100):
        state = random_param_state(rng, rng.randint(0, 4), state_pool=_two_variable_pool(rng))
        factored = state.factored()
        # entry, exit, skip and `x := x` give the state itself
        for node in (*_NODES[:1], *_NODES[-1:], keep, *(n for n in _NODES if n.render() == "skip")):
            assert lift_transfer(factored, node) is factored
        # a transfer that changes one variable keeps the other's partition itself
        y_node = next(node for node in _NODES if node.render() == "assign(y := 2*x - 3)")
        moved = lift_transfer(factored, y_node)
        assert moved.rules == reference_normalize(
            reference_lift_transfer(state, lambda e: transfer(y_node, e))
        ).rules
        if moved.reach:
            assert moved.parts[0] is factored.parts[0]
        assert is_partition(factored) and is_partition(moved)
        lows = [rule.mask & -rule.mask for rule in factored.rules]
        assert lows == sorted(set(lows)) and all(lows)  # ordered by lowest subset


def test_factoring_then_expanding_is_the_identity_on_normal_states():
    rng = random.Random(17)
    no_variables = [BOTTOM, env_of({})]
    for _ in range(300):
        width = rng.randint(0, 5)
        pool = rng.choice([None, no_variables, _two_variable_pool(rng)])
        rules = random_param_state(rng, width, state_pool=pool)
        normal = reference_normalize(rules)
        state = normal.factored()
        assert state.rules == normal.rules
        assert rules.factored() == state  # any rule list of the function factors alike
        assert RuleList(state.rules, state.atoms).factored() == state
        assert is_partition(state)
        for accepted in range(1 << width):
            assert state.state_for(accepted) == rules.state_for(accepted)


def _assume_state(rng: random.Random) -> AssumeState:
    """An assumption bounding x, y or both, sometimes contradictory."""
    bounds = [
        Bound(rng.choice("xy"), rng.choice([Rel.LE, Rel.GE, Rel.EQ]), rng.randint(-2, 3))
        for _ in range(rng.randint(1, 3))
    ]
    return AssumeState.from_constraint(AtomicConstraint(tuple(bounds)))


def test_factored_operations_expand_to_the_reference():
    # random walks of transfers (relational guards included), multi-variable
    # assumes, joins and widenings, in lock step with the rule-list
    # operations; bottom cells come from the pools and the guards
    rng = random.Random(2026)
    nodes = [node for node in _NODES if not isinstance(node.op, (Entry, Exit, Skip))]
    seen = set()
    for _ in range(250):
        width = rng.randint(0, 4)
        pool = _two_variable_pool(rng)
        expected = reference_normalize(random_param_state(rng, width, state_pool=pool))
        got = expected.factored()
        for _ in range(6):
            other = reference_normalize(random_param_state(rng, width, state_pool=pool))
            step = rng.choice(["transfer", "assume", "join", "widen", "leq"])
            if step == "transfer":
                node = rng.choice(nodes)
                got = lift_transfer(got, node)
                expected = reference_lift_transfer(expected, lambda e: transfer(node, e))
            elif step == "assume" and width:
                atom, pi = A[rng.randrange(width)], _assume_state(rng)
                got, expected = split(got, atom, pi), reference_split(expected, atom, pi)
            elif step == "join":
                got = join_states([got, other.factored()])
                expected = reference_join_states([expected, other])
            elif step == "widen":
                got = widen_param(got, other.factored())
                expected = reference_widen_param(expected, other)
            elif step == "leq":
                assert leq_param(got, other.factored()) == reference_leq_param(expected, other)
                assert leq_param(got, join_states([got, other.factored()]))
            expected = reference_normalize(expected)
            assert got.rules == expected.rules, (step, got, expected)
            assert is_partition(got)
            seen.add(step)
            seen.update(f"bottom {r.state.is_bottom}" for r in got.rules)
    assert {"transfer", "assume", "join", "widen", "leq", "bottom True"} <= seen


def test_split_fresh_atom():
    state = state_of(2, (TRUE, TOP1))
    out = split(state, A[0], pi_ge(1))
    assert canonical_rule_key(out) == canonical_rule_key(
        state_of(2, (a0, env(x=(1, POS_INF))), (Not(a0), TOP1))
    )


def test_split_skips_unsatisfiable_branch():
    state = state_of(1, (Not(a0), TOP1), (a0, BOTTOM))
    out = split(state, A[0], pi_ge(1))
    assert out is state  # no reached subset takes the assumption


def test_split_reuses_deciding_condition():
    state = state_of(1, (a0, env(x=(0, 9))), (Not(a0), BOTTOM))
    out = split(state, A[0], pi_ge(1))
    assert out.rules == state_of(1, (a0, env(x=(1, 9))), (Not(a0), BOTTOM)).rules  # the mask kept whole
    empty = AssumeState.from_constraint(AtomicConstraint((Bound("x", Rel.GE, 3), Bound("x", Rel.LE, 2))))
    assert split(state, A[0], empty) == ParamState.bottom(A[:1])


def test_split_preserves_partition_and_semantics():
    rng = random.Random(7)
    for _ in range(100):
        width = rng.randint(1, 4)
        state = random_param_state(rng, width).factored()
        index = rng.randrange(width)
        pi = pi_ge(rng.randint(-2, 5))
        out = split(state, A[index], pi)
        assert is_partition(out)
        assert out.rules == reference_normalize(reference_split(state, A[index], pi)).rules
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
    assert join_states([split_state, bottom]) is split_state
    assert join_states([bottom, split_state]) is split_state
    assert canonical_rule_key(join_states([bottom, split_state])) == canonical_rule_key(split_state)


def test_join_realizes_pointwise_join():
    rng = random.Random(99)
    for _ in range(60):
        width = rng.randint(1, 3)
        states = [random_param_state(rng, width).factored() for _ in range(rng.randint(1, 3))]
        joined = join_states(states)
        assert is_partition(joined)
        for accepted in range(1 << width):
            expect = BOTTOM
            for s in states:
                expect = expect.join(s.state_for(accepted))
            assert joined.state_for(accepted) == expect


def test_leq_param():
    state = state_of(1, (a0, env(x=(1, 2))), (Not(a0), env(x=(5, 6))))
    assert leq_param(state, state)
    assert leq_param(ParamState.bottom(A[:1]), state)
    merged = state_of(1, (TRUE, env(x=(1, 6))))
    assert leq_param(state, merged)
    assert not leq_param(merged, state)


_TWO_VARIABLE_POOL = [BOTTOM] + [
    env(x=x, y=y)
    for x in ((0, 0), (0, 5), (NEG_INF, 2))
    for y in ((1, 1), (-3, POS_INF))
]


def test_tally_agrees_with_the_state_of_each_subset():
    # per value of `fn`, the reached subsets whose cell yields it, checked
    # against each subset's own state cut down to the variables asked for
    rng = random.Random(33)
    fns = [lambda e: e, lambda e: all(i.lo >= 0 for _, i in e.items())]
    queries = ({"x"}, {"y"}, {"x", "y"}, set())
    unreached = 0
    for _ in range(200):
        width = rng.randint(0, 4)
        state = random_param_state(rng, width, state_pool=_TWO_VARIABLE_POOL).factored()
        unreached += state.reach != full_mask(width)
        for variables, fn in ((v, f) for v in queries for f in fns):
            expected: dict = {}
            for accepted in members(state.reach):
                kept = ((v, i) for v, i in state.state_for(accepted).items() if v in variables)
                value = fn(IntervalEnv(tuple(kept)))
                expected[value] = expected.get(value, 0) | 1 << accepted
            assert state.tally(variables, fn) == expected, (state, variables)
    assert unreached


def _box(plain: IntervalEnv) -> list | None:
    """A plain state as `mismatched` reads it: its (lo, hi) pairs, None for bottom."""
    return None if plain.is_bottom else [(i.lo, i.hi) for _, i in plain.items()]


def test_mismatched_agrees_with_a_per_subset_lookup():
    rng = random.Random(2020)
    for _ in range(300):
        width = rng.randint(0, 4)
        pool = rng.choice([_two_variable_pool(rng), [BOTTOM, env(x=(0, 5)), env(x=(1, 3)), TOP1]])
        state = random_param_state(rng, width, state_pool=pool).factored()
        plain = rng.choice(pool)
        subsets = rng.randrange(1 << (1 << width))
        for exact in (True, False):
            expected = sum(
                1 << a for a in range(1 << width) if subsets >> a & 1
                and not (plain == state.state_for(a) if exact else plain.leq(state.state_for(a)))
            )
            got = mismatched(state, plain.variables(), _box(plain), subsets, exact)
            assert got == expected, (state, plain, exact)
    other = state_of(1, (TRUE, env(y=(0, 0))))
    for exact in (True, False):
        with pytest.raises(ValueError, match="mismatched variable universes"):
            mismatched(other, ("x",), [(0, 0)], 0b11, exact)


def test_widen_param_cells():
    old = state_of(1, (a0, env(x=(0, 5))), (Not(a0), env(x=(0, 0))))
    new = state_of(1, (a0, env(x=(0, 8))), (Not(a0), env(x=(0, 0))))
    widened = widen_param(old, new)
    assert widened.state_for(0b1) == env(x=(0, POS_INF))
    assert widened.state_for(0b0) == env(x=(0, 0))
    assert is_partition(widened)


def test_normal_form_unique_for_any_reduction_order():
    # randomized interleavings of the two reduction steps all land on the
    # same canonical form (smaller-scale; the acceptance suite scales it up)
    rng = random.Random(555)
    for _ in range(50):
        width = rng.randint(1, 4)
        state = random_param_state(rng, width)
        expected = canonical_rule_key(state.factored())
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
