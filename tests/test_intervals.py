import itertools

import pytest
from hypothesis import given, strategies as st

from paramax.engine import _concrete_test
from paramax.frontend import (
    Assume,
    AssumptionId,
    AtomicConstraint,
    Bound,
    CfgNode,
    Comparison,
    GuardFilter,
    LinearExpr,
    Rel,
    parse_cfg,
)
from paramax.intervals import (
    BOTTOM,
    AssumeState,
    Interval,
    IntervalEnv,
    NEG_INF,
    POS_INF,
    ProofVerdict,
    enforce,
    eval_linear,
    feasible,
    gamma_contains,
    proves,
    transfer,
)

from conftest import env, env_of, iv, reference_holds, reference_leq, reference_meet, reference_refine_guard


def pi(*bounds: tuple[str, Rel, int]) -> AssumeState:
    return AssumeState.from_constraint(
        AtomicConstraint(tuple(Bound(v, op, c) for v, op, c in bounds))
    )


# --- hand examples -------------------------------------------------------


def test_meet_narrows_from_both_sides():
    sigma = env(x=(-12, 8), y=(NEG_INF, 13))
    narrowed = sigma.meet(pi(("x", Rel.GE, 3), ("x", Rel.LE, 10)))
    assert narrowed == env(x=(3, 8), y=(NEG_INF, 13))


def test_meet_collapses_to_bottom():
    assert env(x=(NEG_INF, 2)).meet(pi(("x", Rel.GE, 3))) is BOTTOM
    assert env(x=(0, 5)).meet(env(x=(10, 20))) is BOTTOM


def test_meet_with_unconstrained_is_identity():
    sigma = env(x=(1, 2))
    assert sigma.meet(pi()) == sigma
    assert sigma.meet(env(x=(NEG_INF, POS_INF))) == sigma


def brute_hull(a: Interval, b: Interval) -> Interval:
    # independent oracle: hull over the endpoint candidates
    candidates = [a.lo, a.hi, b.lo, b.hi]
    return Interval(min(candidates), max(candidates))


def test_empty_intervals_are_refused():
    for lo, hi in ((3, 2), (POS_INF, POS_INF), (NEG_INF, NEG_INF), (POS_INF, 5), (0, NEG_INF)):
        with pytest.raises(ValueError, match="empty interval"):
            Interval(lo, hi)
    assert Interval(NEG_INF, POS_INF) == Interval.top()


def test_join_examples():
    assert BOTTOM.join(env(x=(1, 2))) == env(x=(1, 2))
    joined = env(x=(11, 12)).join(env(x=(0, 0)))
    assert joined == env(x=(0, 12))
    assert joined.get("x") == brute_hull(iv(11, 12), iv(0, 0))
    sigma = env(x=(1, 5), y=(0, 0))
    assert sigma.join(sigma) == sigma


def test_join_universe_mismatch():
    pairs = [
        (env(x=(0, 1)), env(y=(0, 1))),
        (env(x=(0, 1)), env(x=(0, 1), y=(0, 1))),
        (IntervalEnv.top("xy"), IntervalEnv.top("xz").updated("x", iv(0, 1))),
    ]
    for op in ("join", "meet", "leq", "widen"):
        for a, b in pairs:
            for first, second in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="universe"):
                    getattr(first, op)(second)


@pytest.mark.parametrize("op", ["join", "meet", "leq", "widen"])
def test_universe_check_accepts_equal_names_from_any_source(op):
    top = IntervalEnv.top("yx")
    derived = top.updated("x", iv(0, 1)).meet(top)
    built = env(x=(0, 3), y=(-1, 1))  # its own names tuple, equal to top's
    assert derived.variables() is top.variables()
    assert built.variables() == top.variables()
    for first, second in ((derived, built), (built, derived), (top, derived)):
        getattr(first, op)(second)


def test_leq_examples():
    assert BOTTOM.leq(env(x=(5, 5)))
    assert BOTTOM.leq(BOTTOM)
    assert env(x=(3, 8)).leq(env(x=(-12, 8)))
    assert not env(x=(0, 12)).leq(env(x=(11, 12)))
    assert not env(x=(0, 1)).leq(BOTTOM)


def test_widen_examples():
    assert env(x=(0, 5)).widen(env(x=(0, 8))) == env(x=(0, POS_INF))
    assert env(x=(0, 5)).widen(env(x=(-1, 5))) == env(x=(NEG_INF, 5))
    sigma = env(x=(0, 5))
    assert sigma.widen(sigma) == sigma
    assert BOTTOM.widen(sigma) == sigma
    assert sigma.widen(BOTTOM) == sigma


def _single_node(source: str, index: int = 1):
    return parse_cfg(source).nodes[index]


def test_transfer_assign():
    node = _single_node("x := x + 2;")
    assert transfer(node, env(x=(1, 10))) == env(x=(3, 12))
    node5 = _single_node("x := 5;")
    assert transfer(node5, env(x=(1, POS_INF))) == env(x=(5, 5))
    assert transfer(node5, BOTTOM) is BOTTOM


def test_transfer_scaling_is_exact():
    node = _single_node("y := -2*x + 1;", index=1)
    cfg_env = env(x=(1, 3), y=(0, 0))
    out = transfer(node, cfg_env)
    assert out.get("y") == iv(-5, -1)


def test_transfer_input_forgets():
    node = _single_node("x := input();")
    assert transfer(node, env(x=(3, 4))) == env(x=(NEG_INF, POS_INF))


def test_transfer_guard():
    cfg = parse_cfg("x := input(); if (x <= 0) { skip; } else { skip; }")
    guard_le = next(
        n for n in cfg.nodes
        if hasattr(n.op, "test") and n.op.test == Comparison("x", Rel.LE, 0)
    )
    assert transfer(guard_le, env(x=(1, POS_INF))) is BOTTOM
    assert transfer(guard_le, env(x=(-5, 5))) == env(x=(-5, 0))


def test_transfer_guard_variable_pair():
    cfg = parse_cfg("x := input(); y := input(); if (x <= y) { skip; } else { skip; }")
    guard = next(
        n for n in cfg.nodes
        if hasattr(n.op, "test") and n.op.test == Comparison("x", Rel.LE, "y")
    )
    out = transfer(guard, env(x=(0, 10), y=(-5, 3)))
    assert out == env(x=(0, 3), y=(0, 3))
    strict = next(
        n for n in cfg.nodes
        if hasattr(n.op, "test") and n.op.test == Comparison("x", Rel.GT, "y")
    )
    out2 = transfer(strict, env(x=(0, 10), y=(-5, 3)))
    assert out2 == env(x=(0, 10), y=(-5, 3)).meet(env(x=(-4, 10), y=(-5, 9)))


# whether each operator holds for lhs 2, 3 and 4 against 3
HOLDS = {
    Rel.LE: (True, True, False),
    Rel.LT: (True, False, False),
    Rel.GE: (False, True, True),
    Rel.GT: (False, False, True),
    Rel.EQ: (False, True, False),
    Rel.NE: (True, False, True),
}


@pytest.mark.parametrize("rel", list(Rel))
def test_constant_guards_and_bounds_apply_their_operator(rel):
    state = env(x=(-5, 5))
    for lhs, holds in zip((2, 3, 4), HOLDS[rel]):
        guard = CfgNode(1, GuardFilter(Comparison(lhs, rel, 3)))
        assert transfer(guard, state) == (state if holds else BOTTOM)
        assert _concrete_test(guard.op, {})(()) is holds
        if rel in (Rel.LE, Rel.GE, Rel.EQ):  # the operators a bound may carry
            bound = Bound("x", rel, 3)
            assume = Assume(AssumptionId(0, "a", 1), AtomicConstraint((bound,)))
            assert reference_holds(bound, lhs) is holds
            assert _concrete_test(assume, {"x": 0})((lhs,)) is holds


def test_guards_refine_as_the_per_constant_reference():
    # constants below, at, inside and above each endpoint, on either side of
    # the test, and variable pairs where one side is a singleton
    intervals = [
        iv(NEG_INF, POS_INF), iv(NEG_INF, 3), iv(-2, POS_INF), iv(-2, 3), iv(0, 1), iv(4, 4),
    ]
    ends = {c for i in intervals for c in (i.lo, i.hi) if abs(c) != POS_INF}
    constants = sorted({c + d for c in ends for d in (-1, 0, 1)} | {-9, 9})
    for rel in Rel:
        for x, y in itertools.product(intervals, repeat=2):
            state = env(x=(x.lo, x.hi), y=(y.lo, y.hi))
            tests = [Comparison("x", rel, "y"), Comparison("x", rel, "x")]
            tests += [Comparison("x", rel, c) for c in constants]
            tests += [Comparison(c, rel, "y") for c in constants]
            tests += [Comparison(c, rel, 1) for c in constants]
            for test in tests:
                guard = CfgNode(1, GuardFilter(test))
                assert transfer(guard, state) == reference_refine_guard(state, test), (test, state)


def test_transfer_rejects_assume_nodes():
    node = _single_node("x := 0; assume a: x >= 0;", index=2)
    with pytest.raises(ValueError, match="assume"):
        transfer(node, env(x=(0, 0)))


def test_enforce_examples():
    assert enforce(env(x=(NEG_INF, POS_INF)), pi(("x", Rel.GE, 1))) == env(x=(1, POS_INF))
    assert enforce(BOTTOM, pi(("x", Rel.GE, 1))) is BOTTOM
    assert enforce(env(x=(5, 5)), pi(("x", Rel.EQ, 0))) is BOTTOM


def test_feasible_examples():
    assert not feasible(env(x=(NEG_INF, 2)), pi(("x", Rel.GE, 3)))
    assert feasible(env(x=(0, 5)), pi(("x", Rel.GE, 3)))
    assert not feasible(BOTTOM, pi(("x", Rel.GE, 3)))


def test_contradictory_constraint_is_never_feasible():
    empty = pi(("x", Rel.GE, 5), ("x", Rel.LE, 3))
    assert empty.is_empty
    assert not feasible(env(x=(0, 10)), empty)
    assert enforce(env(x=(0, 10)), empty) is BOTTOM


def _assert_expr(source: str):
    cfg = parse_cfg(source)
    return next(n.op.test for n in cfg.nodes if type(n.op).__name__ == "Assert")


def test_proves_examples():
    le_vars = _assert_expr("x := 0; y := 0; assert x <= y;")
    assert proves(env(x=(1, 3), y=(5, 9)), le_vars) is ProofVerdict.PROVED
    assert proves(env(x=(1, 9), y=(5, 9)), le_vars) is ProofVerdict.UNKNOWN
    assert proves(env(x=(10, 12), y=(5, 9)), le_vars) is ProofVerdict.REFUTED

    le_const = _assert_expr("x := 0; assert x <= 5;")
    assert proves(env(x=(6, 9)), le_const) is ProofVerdict.REFUTED
    assert proves(env(x=(0, 9)), le_const) is ProofVerdict.UNKNOWN
    assert proves(env(x=(0, 5)), le_const) is ProofVerdict.PROVED

    assert proves(BOTTOM, le_const) is ProofVerdict.PROVED


def test_proves_connectives():
    both = _assert_expr("x := 0; assert x >= 0 && x <= 5;")
    assert proves(env(x=(0, 5)), both) is ProofVerdict.PROVED
    assert proves(env(x=(-3, 5)), both) is ProofVerdict.UNKNOWN
    assert proves(env(x=(-9, -6)), both) is ProofVerdict.REFUTED
    either = _assert_expr("x := 0; assert x <= -1 || x >= 1;")
    assert proves(env(x=(3, 7)), either) is ProofVerdict.PROVED
    assert proves(env(x=(0, 0)), either) is ProofVerdict.REFUTED
    assert proves(env(x=(0, 5)), either) is ProofVerdict.UNKNOWN


def _concrete_points(sigma: IntervalEnv):
    ranges = [range(int(i.lo), int(i.hi) + 1) for _, i in sigma.items()]
    names = [v for v, _ in sigma.items()]
    for combo in itertools.product(*ranges):
        yield dict(zip(names, combo))


def _eval_concrete(expr, values) -> bool:
    if isinstance(expr, Comparison):
        def val(o):
            return o if isinstance(o, int) else values[o]
        a, b = val(expr.lhs), val(expr.rhs)
        return {
            Rel.LE: a <= b, Rel.LT: a < b, Rel.GE: a >= b,
            Rel.GT: a > b, Rel.EQ: a == b, Rel.NE: a != b,
        }[expr.op]
    results = [_eval_concrete(p, values) for p in expr.parts]
    return all(results) if type(expr).__name__ == "AssertAnd" else any(results)


def test_proves_agrees_with_enumeration():
    # bounded states: check the three-valued verdict against all points
    expr = _assert_expr("x := 0; y := 0; assert x <= y || x = 0;")
    states = [
        env(x=(0, 0), y=(-3, 3)),
        env(x=(1, 2), y=(2, 4)),
        env(x=(3, 4), y=(0, 1)),
        env(x=(-2, 2), y=(-2, 2)),
    ]
    for sigma in states:
        outcomes = {_eval_concrete(expr, point) for point in _concrete_points(sigma)}
        verdict = proves(sigma, expr)
        if verdict is ProofVerdict.PROVED:
            assert outcomes == {True}
        elif verdict is ProofVerdict.REFUTED:
            assert outcomes == {False}


def test_gamma_contains():
    assert gamma_contains(env(x=(3, 8)), {"x": 5})
    assert not gamma_contains(BOTTOM, {"x": 5})
    assert gamma_contains(env(x=(3, 8), y=(NEG_INF, 13)), {"x": 3, "y": -100})
    assert not gamma_contains(env(x=(3, 8)), {"x": 9})
    with pytest.raises(ValueError, match="missing"):
        gamma_contains(env(x=(3, 8)), {"y": 1})


def test_saturating_arithmetic_only_widens():
    huge = env(x=(2**62, 2**62))
    node = _single_node("x := 4*x;")
    out = transfer(node, huge)
    assert out.get("x").hi == POS_INF
    assert out.get("x").lo <= 2**62 * 4 or out.get("x").lo == NEG_INF


def test_saturation_below_the_most_negative_finite_endpoint():
    assert Interval.make(-2**64, -2**64) == Interval(NEG_INF, -(2**63 - 1))


def test_an_int_past_float_range_meets_an_infinity_as_the_infinity():
    # `big * inf` and `big + inf` cannot convert `big` to a float; the
    # infinity absorbs it, with the sign of the coefficient
    big, limit = 10**400, 2**63 - 1
    assert Interval(3, POS_INF).scale(big) == Interval(limit, POS_INF)
    assert Interval(NEG_INF, -1).scale(-big) == Interval(limit, POS_INF)
    assert Interval(NEG_INF, 0).scale(-big) == Interval(0, POS_INF)
    assert Interval(2, big).add(Interval(5, POS_INF)) == Interval(7, POS_INF)
    assert Interval(NEG_INF, -5).add(Interval(-big, -big)) == Interval(NEG_INF, -limit)
    assert Interval(NEG_INF, 4).add(Interval(-big, 0)) == Interval(NEG_INF, 4)


def test_a_zero_coefficient_scales_an_unbounded_interval_to_zero():
    # the parser drops zero coefficients, so only a hand-built form reaches
    # scale(0): on top the general branch would compute 0 * inf, which is NaN
    assert eval_linear(LinearExpr(0, ((0, "x"),)), IntervalEnv.top(["x"])) == Interval(0, 0)


def test_serialization_sentinels():
    assert env(x=(NEG_INF, 3)).to_json() == {"x": ["-inf", 3]}
    assert BOTTOM.to_json() == "bottom"
    assert iv(1, POS_INF).to_json() == [1, "+inf"]


def test_bottom_hashes_stably():
    first = hash(BOTTOM)
    assert hash(BOTTOM) == first
    assert hash(IntervalEnv(None)) == first
    assert {BOTTOM: 1}[IntervalEnv(None)] == 1


# --- lattice properties --------------------------------------------------

_lows = st.one_of(st.integers(-20, 20), st.just(NEG_INF))
_highs = st.one_of(st.integers(-20, 20), st.just(POS_INF))


@st.composite
def envs(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return BOTTOM
    bounds = {}
    for var in ("x", "y"):
        lo = draw(_lows)
        hi = draw(_highs.filter(lambda h, lo=lo: lo <= h))
        bounds[var] = (lo, hi)
    return env(**bounds)


@given(envs(), envs())
def test_join_meet_commute(a, b):
    assert a.join(b) == b.join(a)
    assert a.meet(b) == b.meet(a)


@given(envs(), envs(), envs())
def test_join_meet_associative(a, b, c):
    assert a.join(b.join(c)) == a.join(b).join(c)
    assert a.meet(b.meet(c)) == a.meet(b).meet(c)


@given(envs(), envs())
def test_absorption_and_idempotence(a, b):
    assert a.join(a) == a and a.meet(a) == a
    assert a.join(a.meet(b)) == a
    assert a.meet(a.join(b)) == a


@given(envs(), envs())
def test_equal_envs_hash_equal(a, b):
    hash(a)  # fill a's cached hash before its equal copies exist
    if a.is_bottom:
        copy = IntervalEnv(None)
    else:
        copy = IntervalEnv.top(a.variables())
        for var, interval in a.items():
            copy = copy.updated(var, interval)
    assert copy == a and hash(copy) == hash(a)
    assert {a: 1}[copy] == 1
    assert hash(a.join(b)) == hash(b.join(a))
    assert hash(a.meet(b)) == hash(b.meet(a))


@given(envs(), envs())
def test_order_via_join(a, b):
    assert a.leq(a.join(b)) and b.leq(a.join(b))
    assert a.meet(b).leq(a) and a.meet(b).leq(b)
    if a.leq(b) and b.leq(a):
        assert a == b


@given(envs(), envs(), envs())
def test_leq_transitive(a, b, c):
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


@given(envs())
def test_bottom_least_top_greatest(a):
    assert BOTTOM.leq(a)
    assert a.leq(env(x=(NEG_INF, POS_INF), y=(NEG_INF, POS_INF)))


@given(envs(), envs())
def test_meet_below_both(a, b):
    p = pi(("x", Rel.GE, 0), ("y", Rel.LE, 4))
    met = a.meet(p)
    assert met.leq(a)
    if not met.is_bottom:
        assert met.get("x").lo >= 0 and met.get("y").hi <= 4
    assert a.meet(b).leq(a) and a.meet(b).leq(b)


@given(envs(), envs())
def test_feasible_is_monotone(a, b):
    p = pi(("x", Rel.GE, 3))
    if a.leq(b) and feasible(a, p):
        assert feasible(b, p)


@given(envs(), envs())
def test_widen_is_upper_bound(a, b):
    w = a.widen(b)
    assert a.leq(w) and b.leq(w)


@given(st.lists(envs(), min_size=1, max_size=12))
def test_widening_stabilizes(chain):
    acc = BOTTOM
    changes = 0
    for nxt in chain * 3:
        widened = acc.widen(acc.join(nxt))
        if widened != acc:
            changes += 1
            acc = widened
    assert changes <= 2 * 2 + 1  # two variables: each endpoint moves at most once


_guard_nodes = None


def _transfer_pool():
    global _guard_nodes
    if _guard_nodes is None:
        cfg = parse_cfg(
            "x := x + 2; y := 3*x - 1; x := input();"
            " if (x <= y) { skip; } else { skip; }"
            " if (x >= 2) { skip; } else { skip; }"
        )
        _guard_nodes = [
            n for n in cfg.nodes if type(n.op).__name__ in ("Assign", "Input", "GuardFilter", "Skip")
        ]
    return _guard_nodes


@given(envs(), envs(), st.integers(0, 7))
def test_transfer_monotone(a, b, pick):
    pool = _transfer_pool()
    node = pool[pick % len(pool)]
    if a.leq(b):
        assert transfer(node, a).leq(transfer(node, b))


@st.composite
def universe_envs(draw):
    """An environment over one of three universes, or bottom."""
    if draw(st.integers(0, 5)) == 0:
        return BOTTOM
    bounds = {}
    for var in draw(st.sampled_from((("x", "y"), ("x", "z"), ("x",)))):
        lo = draw(_lows)
        bounds[var] = (lo, draw(_highs.filter(lambda h, lo=lo: lo <= h)))
    return env(**bounds)


def _outcome(op, a, b):
    try:
        return op(a, b)
    except ValueError as exc:
        return str(exc)


@given(universe_envs(), universe_envs())
def test_leq_and_meet_agree_with_the_per_variable_references(a, b):
    assert _outcome(IntervalEnv.leq, a, b) == _outcome(reference_leq, a, b)
    assert _outcome(IntervalEnv.meet, a, b) == _outcome(reference_meet, a, b)


@given(universe_envs(), universe_envs(), st.sets(st.sampled_from("xyz")))
def test_meeting_an_assumption_meets_its_encoding_over_the_whole_universe(a, b, bounded):
    # the encoding bounds the variables of `b` in `bounded` that `a` has;
    # every other variable of `a` is unbounded
    names = () if a.is_bottom else a.variables()
    bounds = () if b.is_bottom else tuple((v, i) for v, i in b.items() if v in bounded and v in names)
    padded = env_of({**{v: Interval.top() for v in names}, **dict(bounds)})
    expected = BOTTOM if a.is_bottom or b.is_bottom else reference_meet(a, padded)
    assert a.meet(AssumeState(bounds, is_empty=b.is_bottom)) == expected
