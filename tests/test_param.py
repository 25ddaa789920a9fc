import random

import pytest

from paramax.conditions import WIDTH_CAP, And, Atom, FALSE, Not, TRUE, full_mask, render_mask, truth_table
from paramax import engine, param
from paramax.engine import AnalysisConfig, analyze_param
from paramax.frontend import (
    AssumptionId, AtomicConstraint, Bound, Entry, Exit, LinearExpr, Rel, Skip, parse_cfg,
)
from paramax.intervals import BOTTOM, AssumeState, NEG_INF, POS_INF, eval_linear, transfer
from paramax.param import (
    ParamState,
    Rule,
    join_states,
    leq_param,
    lift_transfer,
    merge_loss,
    mismatched,
    normalize,
    reduce_to_budget,
    split,
    widen_param,
)

from conftest import (
    CORPUS,
    RuleList,
    canonical_rule_key,
    corpus_source,
    env,
    exact_merge_step,
    env_of,
    fake_assumptions,
    independent_source,
    is_partition,
    iv,
    param_state,
    random_param_state,
    redundancy_elim_step,
    reference_join_states,
    reference_leq_param,
    reference_lift_transfer,
    reference_merge_loss,
    reference_normalize,
    reference_reduce_to_budget,
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
_CFG = parse_cfg("x := 1;")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: join_states([]), "join of no parameterized states"),
        (lambda: join_states([_X01, _OTHER_ATOMS]), "mismatched assumptions"),
        (lambda: leq_param(_X01, _OTHER_ATOMS), "mismatched assumptions"),
        (lambda: join_states([_X01, _OTHER_VARIABLES]), "mismatched variable universes"),
        (lambda: leq_param(_X01, _OTHER_VARIABLES), "mismatched variable universes"),
        (lambda: mismatched(_X01, env(y=(0, 0)), 0b11, True), "mismatched variable universes"),
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
    # assumes, joins, widenings and budget reductions, in lock step with the
    # rule-list operations; bottom cells come from the pools and the guards
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
            step = rng.choice(["transfer", "assume", "join", "widen", "leq", "budget"])
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
            elif step == "budget":
                budget = rng.randint(1, 4)
                got, expected = reduce_to_budget(got, budget), reference_reduce_to_budget(expected, budget)
            expected = reference_normalize(expected)
            assert got.rules == expected.rules, (step, got, expected)
            assert is_partition(got)
            seen.add(step)
            seen.update(f"bottom {r.state.is_bottom}" for r in got.rules)
    assert {"transfer", "assume", "join", "widen", "leq", "budget", "bottom True"} <= seen


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
    merged = reduce_to_budget(state, 1)
    assert leq_param(state, merged)
    assert not leq_param(merged, state)


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
            assert mismatched(state, plain, subsets, exact) == expected, (state, plain, exact)
    other = state_of(1, (TRUE, env(y=(0, 0))))
    for exact in (True, False):
        with pytest.raises(ValueError, match="mismatched variable universes"):
            mismatched(other, env(x=(0, 0)), 0b11, exact)


def test_reduce_to_budget_joins_rules_and_fuses_equal_states():
    state = state_of(1, (a0, env(x=(1, 3))), (Not(a0), env(x=(10, 12))))
    assert reduce_to_budget(state, 1).rules == state_of(1, (TRUE, env(x=(1, 12)))).rules
    # the least-loss pair of x's cells (the two lowest, on a tie at loss 0)
    # joins to the third cell's interval, so one merge leaves two cells
    top = env(x=(NEG_INF, POS_INF))
    four = state_of(
        2,
        (And((Not(a0), Not(a1))), env(x=(0, POS_INF))),
        (And((a0, Not(a1))), env(x=(NEG_INF, 0))),
        (And((Not(a0), a1)), top),
        (And((a0, a1)), env(x=(5, 5))),
    )
    both = And((a0, a1))
    assert reduce_to_budget(four, 3).rules == state_of(2, (Not(both), top), (both, env(x=(5, 5)))).rules
    # unreached subsets stay bottom: only the reached cells count
    gone = state_of(2, (Not(a1), BOTTOM), (And((Not(a0), a1)), env(x=(1, 1))), (both, env(x=(3, 3))))
    assert reduce_to_budget(gone, 1).rules == state_of(2, (Not(a1), BOTTOM), (a1, env(x=(1, 3)))).rules
    assert reduce_to_budget(state_of(1, (a0, env(x=(1, 3))), (Not(a0), BOTTOM)), 1).reach == 0b10
    # each variable's partition is budgeted alone; one within budget is kept itself
    pair = state_of(2, (a0, env(x=(1, 3), y=(0, 0))), (Not(a0), env(x=(10, 12), y=(0, 0))))
    merged = reduce_to_budget(pair, 1)
    assert merged.parts == ({iv(1, 12): 0b1111}, {iv(0, 0): 0b1111})
    assert merged.parts[1] is pair.parts[1]


def reached_cells(state: ParamState) -> int:
    """The most reached cells of any variable's partition."""
    return max((len(part) - (None in part) for part in state.parts), default=0)


def test_reduce_to_budget_overapproximates_randomly():
    rng = random.Random(4242)
    for _ in range(200):
        width = rng.randint(1, 4)
        state = random_param_state(rng, width, state_pool=_two_variable_pool(rng)).factored()
        for budget in range(1, reached_cells(state) + 1):
            merged = reduce_to_budget(state, budget)
            assert is_partition(merged) and reached_cells(merged) <= budget
            assert merged.reach == state.reach and leq_param(state, merged)
            assert (merged is state) == (budget >= reached_cells(state))
            for accepted in range(1 << width):
                assert state.state_for(accepted).leq(merged.state_for(accepted))


def test_merge_loss_examples():
    assert merge_loss(iv(1, 3), iv(1, 3)) == 0
    assert merge_loss(iv(1, 3), iv(10, 12)) == 9
    assert merge_loss(iv(0, 5), iv(0, POS_INF)) == 0
    assert merge_loss(iv(NEG_INF, 0), iv(0, POS_INF)) == 0
    assert merge_loss(iv(1, 2), iv(2, 3)) == 1
    assert merge_loss(iv(0, 0), iv(0, 9)) == merge_loss(iv(0, 9), iv(0, 0)) == 0


def test_merge_loss_is_the_growth_of_the_lexicographic_loss():
    # the lexicographic loss put endpoints that a join makes infinite first;
    # a join keeps its inputs' endpoints, so that key is always 0
    rng = random.Random(2202)
    ends = [NEG_INF, -7, -1, 0, 2, 5, POS_INF]

    def random_interval():
        if rng.random() < 0.2:
            return iv(*[rng.choice(ends[1:-1])] * 2)
        return iv(*sorted(rng.sample(ends, 2)))

    infinite = 0
    for _ in range(3000):
        a, b = random_interval(), random_interval()
        joined = a.join(b)
        infinite += joined.lo == NEG_INF or joined.hi == POS_INF
        if a.lo != NEG_INF and b.lo != NEG_INF:
            assert joined.lo != NEG_INF, (a, b)
        if a.hi != POS_INF and b.hi != POS_INF:
            assert joined.hi != POS_INF, (a, b)
        assert reference_merge_loss(a, b) == (0, merge_loss(a, b)), (a, b)
    assert infinite > 1000  # infinite endpoints were drawn


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
        state = _many_rules(rng, width).factored()
        budget = rng.randint(1, 3)
        reduced = reduce_to_budget(state, budget)
        assert reached_cells(reduced) <= budget
        assert is_partition(reduced)
        assert reduced.reach == state.reach and leq_param(state, reduced)


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
    return RuleList(rules, fake_assumptions(width))


def test_reduce_to_budget_chooses_as_the_full_rescan_does():
    # the rescan works on the expanded rules, the merge on the partitions
    rng = random.Random(16)
    fused = 0
    for _ in range(400):
        given = _many_rules(rng, rng.randint(0, 5)).factored()
        for budget in (rng.randint(1, reached_cells(given) + 1), rng.randint(1, 4)):
            got = reduce_to_budget(given, budget)
            assert got.rules == reference_reduce_to_budget(given, budget).rules, (given, budget)
            assert reached_cells(got) <= budget
            fused += reached_cells(got) < min(budget, reached_cells(given))
    assert fused  # some joins fused with a third cell
    # finite intervals, one per subset: the losses of a joined cell change
    for _ in range(100):
        width = rng.randint(2, 5)
        bounds = [(lo, lo + rng.randint(0, 6)) for lo in (rng.randint(-9, 9) for _ in range(8))]
        rules = [Rule(1 << s, env(x=rng.choice(bounds), y=rng.choice(bounds))) for s in range(1 << width)]
        given = RuleList(rules, fake_assumptions(width)).factored()
        budget = rng.randint(1, reached_cells(given))
        got = reduce_to_budget(given, budget)
        assert got.rules == reference_reduce_to_budget(given, budget).rules, (given, budget)


def test_reduce_to_budget_analyzes_the_corpus_as_the_full_rescan_does(monkeypatch):
    runs = []
    for entry in CORPUS:
        cfg = parse_cfg(corpus_source(entry.name))
        delay = entry.config.widening_delay if entry.config else None
        for budget in range(1, 9):
            config = AnalysisConfig(widening_delay=delay, merge_budget=budget)
            runs.append((entry.name, budget, cfg, config, analyze_param(cfg, config)))
    monkeypatch.setattr(
        engine, "reduce_to_budget", lambda s, b: reference_reduce_to_budget(s, b).factored()
    )
    for name, budget, cfg, config, got in runs:
        expected = analyze_param(cfg, config)
        assert got.states == expected.states, (name, budget)
        assert (got.iterations, got.converged) == (expected.iterations, expected.converged)


def _staircase(width: int) -> ParamState:
    """One rule per subset s: x = [s, 2s] and y = [s % 5, s % 5], so x's
    partition has 2**width cells and y's 5."""
    rules = [Rule(1 << s, env(x=(s, 2 * s), y=(s % 5, s % 5))) for s in range(1 << width)]
    return RuleList(rules, fake_assumptions(width)).factored()


def test_reduce_to_budget_computes_each_pair_loss_once(monkeypatch):
    """Per partition of c cells, one reduction makes at most c(c-1)/2 +
    merges * (c-1) `merge_loss` calls: every pair once, then the pairs of
    each changed cell."""
    state = _staircase(7)
    sizes = [len(part) for part in state.parts]
    assert sizes == [128, 5]
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return merge_loss(a, b)

    monkeypatch.setattr(param, "merge_loss", counting)
    for budget in (1, 4, 16, 64, 127):
        calls.clear()
        reduced = reduce_to_budget(state, budget)
        assert reached_cells(reduced) <= budget
        merged = [c for c in sizes if c > budget]
        assert sum(c * (c - 1) // 2 for c in merged) <= len(calls), budget
        assert len(calls) <= sum(c * (c - 1) // 2 + (c - budget) * (c - 1) for c in merged), budget
    # x = [s - 32, 32 - s] on subset s < 32, bottom above: each join is the
    # lower cell's interval, so no pair is scored again
    rules = [Rule(1 << s, env(x=(s - 32, 32 - s))) for s in range(32)]
    nested = RuleList(rules + [Rule(full_mask(6) ^ full_mask(5), BOTTOM)], fake_assumptions(6)).factored()
    for budget, scored in ((1, 32 * 31 // 2), (16, 32 * 31 // 2), (32, 0), (64, 0)):
        calls.clear()
        assert reached_cells(reduce_to_budget(nested, budget)) == min(budget, 32)
        assert len(calls) == scored, budget
    # the full rescan makes about c(c-1)/2 calls per merge
    calls.clear()
    monkeypatch.setattr("conftest.reference_merge_loss", counting)
    reference_reduce_to_budget(state, 124)
    assert len(calls) > 4 * 124 * 123 // 2


def test_reduce_to_budget_never_expands_a_state(monkeypatch):
    # the merge reads the partitions alone: no rule, no expansion, no product
    small = analyze_param(parse_cfg(independent_source(5))).states[-1]
    assert [len(part) for part in small.parts] == [2] * 5
    cases = [(small, budget) for budget in (1, 2, 64)] + [(_staircase(5), b) for b in (1, 3, 8)]
    expected = [reference_reduce_to_budget(state, budget) for state, budget in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("reduce_to_budget expanded a state")

    monkeypatch.setattr(ParamState, "expand", forbidden)
    monkeypatch.setattr(ParamState, "rules", property(forbidden))
    monkeypatch.setattr(Rule, "__init__", forbidden)
    monkeypatch.setattr(param, "product", forbidden)
    got = [reduce_to_budget(state, budget) for state, budget in cases]
    monkeypatch.undo()
    assert [reduced.rules for reduced in got] == [reference.rules for reference in expected]
    kept = [reduced is state for reduced, (state, _) in zip(got, cases)]
    assert kept == [False, True, True, False, False, False]


def test_a_budget_above_the_cells_of_independent_inputs_changes_nothing():
    # every partition of the 12-input program has at most 2 cells, so a
    # budget of 64 keeps each state, where a bound on rules would not
    cfg = parse_cfg(independent_source(12))
    exact = analyze_param(cfg)
    budgeted = analyze_param(cfg, AnalysisConfig(merge_budget=64))
    assert budgeted.converged and budgeted.states == exact.states
    assert max(reached_cells(state) for state in exact.states) == 2
    single = analyze_param(cfg, AnalysisConfig(merge_budget=1))
    assert single.converged and max(reached_cells(state) for state in single.states) == 1
    assert all(leq_param(a, b) for a, b in zip(exact.states, single.states))


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
