"""Shared fixtures: corpus access, rule-state helpers and reference specs.

`RuleList` and the `reference_*` functions are the rule-list representation
that `ParamState` factors: a state as a list of (subset mask, environment)
rules and its operations rule by rule. They are the spec the factored
operations are checked against. `RuleList.factored` is the one way from
a rule list to a `ParamState`, and `is_partition` is the invariant every
factored state must keep. `table_json` is a state's rule table as JSON
objects, the reference for the tables that `cli.dump` writes.
`reference_refine_guard` (one case per constant relation) is the longer
form that guard refinement must agree with. `unrefuted` is the
consistency operator of one subset, read off `refuting_condition`.
`reference_run_collecting` steps one concrete entry at a time where
`run_collecting` steps a batch per edge, and tests guards and assumptions
with its own `reference_holds` and `_RELATIONS` lookups; the per-subset
soundness reference runs on it, so it shares no enumeration code with the
oracle.
`reference_leq` (endpoint by endpoint) and `reference_meet` (environment
by environment) are the lattice order and meet that `IntervalEnv.leq`
derives from the join and `IntervalEnv.meet` shares with assumptions.
`labelled`, `states_as_given` and `truncated_as_given` read a
`CollectingResult` as sorted entries and as the program as given.
`reference_tokenize` matches one token or whitespace run at a time and
tracks the line and column as it goes, where `_tokenize` makes one
`finditer` pass and keeps offsets.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import settings

from paramax import engine
from paramax.conditions import Condition, atom_mask, full_mask, members, render_mask, truth_table
from paramax.consistency import refuting_condition
from paramax.engine import (
    AnalysisConfig,
    CollectingResult,
    OracleReport,
    analyze_baseline,
    analyze_param,
)
from paramax.frontend import (
    _FLIPPED,
    _RELATIONS,
    Assign,
    Assume,
    AssumptionId,
    Bound,
    Comparison,
    GuardFilter,
    Input,
    ParseError,
    Rel,
    parse_cfg,
    restrict,
)
from paramax.intervals import (
    BOTTOM,
    Interval,
    IntervalEnv,
    NEG_INF,
    POS_INF,
    enforce,
    gamma_contains,
)
from paramax.param import ParamState, Rule

settings.register_profile("suite", deadline=None, max_examples=75)
settings.load_profile("suite")

CORPUS_DIR = Path(__file__).parent / "corpus"


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kleene: bool = True  # plain analysis converges for every restriction
    input_range: tuple[int, int] = (-8, 8)
    config: AnalysisConfig | None = None  # non-default analysis settings


CORPUS = [
    CorpusEntry("fig1.pwl", input_range=(-2, 13)),
    CorpusEntry("example1.pwl"),
    CorpusEntry("example1_loop.pwl"),
    CorpusEntry("never_consistent.pwl"),
    CorpusEntry("irrefutable.pwl"),
    CorpusEntry("straightline.pwl"),
    CorpusEntry("synth_gate.pwl"),
    CorpusEntry("impossible.pwl"),
    CorpusEntry("unknown_assert.pwl"),
    CorpusEntry("mutex.pwl"),
    CorpusEntry("bounds_pair.pwl"),
    CorpusEntry("nested_if.pwl"),
    CorpusEntry("branch_assume.pwl"),
    CorpusEntry("input_sites.pwl"),
    CorpusEntry("meet_narrow.pwl"),
    CorpusEntry("guard_relation.pwl"),
    CorpusEntry("chain8.pwl"),
    CorpusEntry(
        "loop_diverge.pwl",
        kleene=False,
        config=AnalysisConfig(widening_delay=2),
    ),
    CorpusEntry(
        "loop_assume_widen.pwl",
        kleene=False,
        input_range=(-3, 3),
        config=AnalysisConfig(widening_delay=2),
    ),
]

CORPUS_BY_NAME = {entry.name: entry for entry in CORPUS}


def corpus_source(name: str) -> str:
    return (CORPUS_DIR / name).read_text(encoding="utf-8")


def corpus_cfg(name: str):
    return parse_cfg(corpus_source(name))


@pytest.fixture(scope="session")
def example1_cfg():
    return corpus_cfg("example1.pwl")


def iv(lo, hi) -> Interval:
    return Interval(lo, hi)


def env_of(bindings: Mapping[str, Interval]) -> IntervalEnv:
    """The environment of `bindings`, its variables sorted."""
    return IntervalEnv(tuple(sorted(bindings.items())))


def env(**bounds) -> IntervalEnv:
    return env_of({v: Interval(lo, hi) for v, (lo, hi) in bounds.items()})


def independent_source(n: int) -> str:
    """n inputs, each under its own assumption, and one assertion on the first."""
    return "".join(f"x{i} := input();\nassume a{i}: x{i} >= 0;\n" for i in range(n)) + (
        "assert x0 >= 0;\n"
    )


def fake_assumptions(width: int) -> tuple[AssumptionId, ...]:
    return tuple(AssumptionId(i, f"a{i + 1}", i) for i in range(width))


class RuleList:
    """A rule state as a plain list of rules, as given: rules may overlap,
    leave gaps, repeat a state or have an empty mask."""

    __slots__ = ("rules", "atoms")

    def __init__(self, rules, atoms) -> None:
        self.rules = tuple(rules)
        self.atoms = tuple(atoms)

    @property
    def width(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, RuleList) and (self.rules, self.atoms) == (other.rules, other.atoms)

    def __repr__(self) -> str:
        rules = "; ".join(f"{render_mask(r.mask, self.atoms)} -> {r.state.render()}" for r in self.rules)
        return f"RuleList({rules})"

    def state_for(self, accepted: int) -> IntervalEnv:
        """The result state of the unique rule whose mask holds the subset."""
        found = [rule.state for rule in self.rules if rule.mask >> accepted & 1]
        if len(found) != 1:
            raise ValueError(f"{len(found)} rules apply to subset {accepted:#x}: {self!r}")
        return found[0]

    def factored(self) -> ParamState:
        """The `ParamState` of rules whose masks partition the subsets: each
        variable's partition pools the masks of its intervals in the reached
        rules, the unreached subsets in the sentinel cell. Empty masks and
        repeated states are fine; a subset that no rule or several rules
        hold raises ValueError, the smallest such subset first."""
        full = full_mask(self.width)
        covered = twice = reach = 0
        reached = []
        for rule in self.rules:
            twice |= covered & rule.mask
            covered |= rule.mask
            if rule.mask and not rule.state.is_bottom:
                reach |= rule.mask
                reached.append(rule)
        if bad := (twice | ~covered) & full:
            subset = (bad & -bad).bit_length() - 1
            problem = "multiple rules apply" if twice >> subset & 1 else "no rule applies"
            raise ValueError(f"{problem} to subset {subset:#x}: {self!r}")
        names = reached[0].state.variables() if reached else ()
        parts = [{} for _ in names]
        for rule in reached:
            if rule.state.variables() != names:
                raise ValueError("mismatched variable universes")
            for part, (_, interval) in zip(parts, rule.state.items()):
                part[interval] = part.get(interval, 0) | rule.mask
        if gone := full ^ reach:
            for part in parts:
                part[None] = gone
        return ParamState(self.atoms, reach, names, tuple(parts))


def table_json(state) -> list[dict]:
    """The rule table of a state as JSON objects: the reference that
    `cli.dump` writes for a `ParamState`."""
    return [
        {"condition": render_mask(rule.mask, state.atoms), "condition_sets": members(rule.mask),
         "state": rule.state.to_json()}
        for rule in state.rules
    ]


def is_partition(state: ParamState) -> bool:
    """The invariant of the factored form: each partition's masks are nonempty
    and partition the subsets, the unreached ones in its sentinel cell."""
    full = full_mask(state.width)
    if state.reach & ~full or len(state.parts) != len(state.names):
        return False
    if not state.reach and state.parts:
        return False
    for part in state.parts:
        total = sum(mask.bit_count() for mask in part.values())
        # a sum of masks keeps all `total` of their bits only if no two overlap
        if sum(part.values()) != full or total != 1 << state.width or not all(part.values()):
            return False
        if part.get(None, 0) != full ^ state.reach:
            return False
    return True


def param_state(atoms, *rules: tuple[Condition, IntervalEnv]) -> ParamState:
    """The factored state over `atoms` with one rule per (condition tree, state).

    Each tree becomes its subset mask through `truth_table`.
    """
    return rule_state(atoms, *rules).factored()


def rule_state(atoms, *rules: tuple[Condition, IntervalEnv]) -> RuleList:
    """`param_state`'s rules, as given."""
    atoms = tuple(atoms)
    return RuleList((Rule(truth_table(cond, len(atoms)), state) for cond, state in rules), atoms)


_STATE_POOL = [
    BOTTOM,
    env(x=(0, 0)),
    env(x=(0, 5)),
    env(x=(1, 3)),
    env(x=(-2, 2)),
    env(x=(10, 12)),
    env(x=(NEG_INF, 0)),
    env(x=(5, POS_INF)),
    env(x=(NEG_INF, POS_INF)),
]


def random_param_state(
    rng: random.Random,
    width: int,
    max_unsat_extras: int = 2,
    state_pool=None,
) -> RuleList:
    """Random partition-respecting rule list with optional empty extras.

    Masks come from a random decision tree over the atoms (a few cells
    rather than one per subset); result states repeat often so merging
    steps have work to do.
    """
    pool = state_pool or _STATE_POOL
    leaves = [full_mask(width)]
    depth = rng.randint(0, min(2, width))
    chosen = rng.sample(range(width), depth) if depth else []
    for index in chosen:
        taking = atom_mask(index, width)
        leaves = [half for leaf in leaves for half in (leaf & taking, leaf & ~taking)]
    rules = [Rule(leaf, rng.choice(pool)) for leaf in leaves]
    for _ in range(rng.randint(0, max_unsat_extras)):
        if width:
            rng.randrange(width)  # unused draw: keeps each seed's sequence of states
            rules.insert(rng.randint(0, len(rules)), Rule(0, rng.choice(pool)))
    rng.shuffle(rules)
    return RuleList(rules, fake_assumptions(width))


def canonical_rule_key(state):
    """Per-rule (subset mask, result state) pairs, ordered by mask."""
    return tuple(sorted(((rule.mask, rule.state) for rule in state.rules), key=lambda p: p[0]))


def exact_merge_step(state: RuleList, pair: tuple[int, int] | None = None) -> RuleList | None:
    """Merge one pair of rules with identical result states; None if no pair.

    Without an explicit pair, the lowest-index pair is taken. With
    `redundancy_elim_step` this is the spec of `reference_normalize`: every
    interleaving of the two steps ends in the normal form.
    """
    if pair is None:
        pair = next(
            (
                (i, j)
                for i in range(len(state.rules))
                for j in range(i + 1, len(state.rules))
                if state.rules[i].state == state.rules[j].state
            ),
            None,
        )
        if pair is None:
            return None
    i, j = sorted(pair)
    if state.rules[i].state != state.rules[j].state:
        raise ValueError(f"rules {i} and {j} have different result states")
    merged = Rule(state.rules[i].mask | state.rules[j].mask, state.rules[i].state)
    rules = [merged if k == i else r for k, r in enumerate(state.rules) if k != j]
    return RuleList(rules, state.atoms)


def redundancy_elim_step(state: RuleList, index: int | None = None) -> RuleList | None:
    """Remove one rule with an empty mask; None if none exists."""
    if index is None:
        index = next((i for i, rule in enumerate(state.rules) if rule.mask == 0), None)
        if index is None:
            return None
    if state.rules[index].mask != 0:
        raise ValueError(f"rule {index} has a nonempty mask")
    rules = tuple(r for k, r in enumerate(state.rules) if k != index)
    return RuleList(rules, state.atoms)


# --- the rule-list operations: the spec of `paramax.param` ----------------------
# Each takes states with `rules` and `atoms` (a `RuleList` or a `ParamState`)
# and returns a `RuleList`.


def reference_normalize(state) -> RuleList:
    """The normal form: rules of equal states merged (masks ORed), empty masks
    dropped, ordered by the lowest subset of their masks."""
    pooled: dict[IntervalEnv, int] = {}
    for rule in state.rules:
        if rule.mask:
            pooled[rule.state] = pooled.get(rule.state, 0) | rule.mask
    rules = sorted((Rule(mask, result) for result, mask in pooled.items()), key=lambda r: r.mask & -r.mask)
    return RuleList(rules, state.atoms)


def reference_split(state, assumption, pi) -> RuleList:
    """Fork every rule on taking the assumption: the taking part meets the
    encoding, the rest keeps the state; empty parts are not produced."""
    taking = atom_mask(assumption.index, len(state.atoms))
    out = []
    for rule in state.rules:
        if rule.mask & taking:
            out.append(Rule(rule.mask & taking, enforce(rule.state, pi)))
        if rule.mask & ~taking:
            out.append(Rule(rule.mask & ~taking, rule.state))
    return RuleList(out, state.atoms)


def reference_lift_transfer(state, fn) -> RuleList:
    """A plain state transformer applied to every rule's state."""
    return RuleList((Rule(r.mask, fn(r.state)) for r in state.rules), state.atoms)


def _reference_intersect(a, b):
    """(mask, state in `a`, state in `b`) for every nonempty intersection of two rules."""
    if tuple(a.atoms) != tuple(b.atoms):
        raise ValueError("mismatched assumptions")
    for rule_a in a.rules:
        for rule_b in b.rules:
            if mask := rule_a.mask & rule_b.mask:
                yield mask, rule_a.state, rule_b.state


def reference_join_states(states) -> RuleList:
    """Pointwise join through partition intersection, normalized."""
    joined = RuleList(states[0].rules, states[0].atoms)
    for state in states[1:]:
        cells = [Rule(mask, x.join(y)) for mask, x, y in _reference_intersect(joined, state)]
        joined = RuleList(cells, joined.atoms)
    return reference_normalize(joined)


def reference_widen_param(prev, nxt) -> RuleList:
    """Widening per intersection cell of the two partitions, normalized."""
    cells = [Rule(mask, x.widen(y)) for mask, x, y in _reference_intersect(prev, nxt)]
    return reference_normalize(RuleList(cells, prev.atoms))


def reference_leq_param(a, b) -> bool:
    """Pointwise order via partition intersection."""
    return all(reference_leq(x, y) for _, x, y in _reference_intersect(a, b))


def _universes_agree(a: IntervalEnv, b: IntervalEnv) -> None:
    if not (a.is_bottom or b.is_bottom) and a.variables() != b.variables():
        raise ValueError("mismatched variable universes")


def reference_leq(a: IntervalEnv, b: IntervalEnv) -> bool:
    """The interval order, variable by variable, on the endpoints."""
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    _universes_agree(a, b)
    return all(y.lo <= x.lo and x.hi <= y.hi for (_, x), (_, y) in zip(a.items(), b.items()))


def reference_meet(a: IntervalEnv, b: IntervalEnv) -> IntervalEnv:
    """The meet of two environments over one universe, variable by variable."""
    _universes_agree(a, b)
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    out = []
    for (var, x), (_, y) in zip(a.items(), b.items()):
        if (met := x.meet(y)) is None:
            return BOTTOM
        out.append((var, met))
    return IntervalEnv(tuple(out))


def reference_refine_against_const(iv: Interval, op: Rel, c: int) -> Interval | None:
    """A variable's interval under `var op c`, or None when the guard cannot hold."""
    if op is Rel.LE:
        return iv.meet(Interval(NEG_INF, c))
    if op is Rel.LT:
        return iv.meet(Interval(NEG_INF, c - 1))
    if op is Rel.GE:
        return iv.meet(Interval(c, POS_INF))
    if op is Rel.GT:
        return iv.meet(Interval(c + 1, POS_INF))
    if op is Rel.EQ:
        return iv.meet(Interval(c, c))
    # NE: trim an endpoint when the constant sits on it.
    if iv.lo == iv.hi == c:
        return None
    if iv.lo == c:
        return Interval(c + 1, iv.hi)
    if iv.hi == c:
        return Interval(iv.lo, c - 1)
    return iv


def reference_refine_guard(env: IntervalEnv, test: Comparison) -> IntervalEnv:
    """The spec of a guard's transfer: two constants decide it, a constant
    side refines the variable through `reference_refine_against_const`, and
    two variables tighten each other."""
    lhs, op, rhs = test.lhs, test.op, test.rhs
    if isinstance(lhs, int) and isinstance(rhs, int):
        return env if _RELATIONS[op](lhs, rhs) else BOTTOM
    if isinstance(lhs, int):
        lhs, op, rhs = rhs, _FLIPPED[op], lhs
    if isinstance(rhs, int):
        refined = reference_refine_against_const(env.get(lhs), op, rhs)
        return BOTTOM if refined is None else env.updated(lhs, refined)

    # Variable against variable: tighten each side from the other's bounds.
    x, y = env.get(lhs), env.get(rhs)
    if op in (Rel.LE, Rel.LT):
        shift = 0 if op is Rel.LE else 1
        nx = x.meet(Interval(NEG_INF, y.hi - shift))
        ny = y.meet(Interval(x.lo + shift, POS_INF))
    elif op in (Rel.GE, Rel.GT):
        shift = 0 if op is Rel.GE else 1
        nx = x.meet(Interval(y.lo + shift, POS_INF))
        ny = y.meet(Interval(NEG_INF, x.hi - shift))
    elif op is Rel.EQ:
        nx = ny = x.meet(y)
    else:  # NE: only singleton collisions can be refined soundly
        if x.lo == x.hi == y.lo == y.hi:
            return BOTTOM
        nx = reference_refine_against_const(x, Rel.NE, int(y.lo)) if y.lo == y.hi else x
        ny = reference_refine_against_const(y, Rel.NE, int(x.lo)) if x.lo == x.hi else y
    if nx is None or ny is None:
        return BOTTOM
    return env.updated(lhs, nx).updated(rhs, ny)


def unrefuted(result, cfg, accepted: int) -> int:
    """Assumptions the analysis under `accepted` does not refute."""
    out = 0
    for aid in cfg.assumptions:
        if not refuting_condition(result, cfg, aid) >> accepted & 1:
            out |= 1 << aid.index
    return out


def reference_equivalence(
    cfg,
    config: AnalysisConfig | None = None,
    program_name: str = "<program>",
    param=None,
) -> OracleReport:
    """The equivalence oracle as independent re-analyses: the spec of `verify_equivalence`.

    Every subset's restricted program is analyzed from scratch, with no
    memo, and each node's state is compared with the rule lookup.
    """
    config = config or AnalysisConfig()
    width = len(cfg.assumptions)
    exact = config.widening_delay is None
    report = OracleReport(
        "equivalence", program_name, 1 << width, "equality" if exact else "containment"
    )
    param = param or analyze_param(cfg, config)
    if not param.converged:
        report.skipped = list(range(1 << width))
        return report
    for accepted in range(1 << width):
        base = analyze_baseline(restrict(cfg, accepted), config)
        if not base.converged:
            report.skipped.append(accepted)
            continue
        for node in cfg.nodes:
            expected = base.states[node.id]
            got = param.states[node.id].state_for(accepted)
            if not (expected == got if exact else expected.leq(got)):
                report.mismatches.append(
                    {
                        "subset": accepted,
                        "node": node.id,
                        "baseline": expected.to_json(),
                        "parameterized": got.to_json(),
                    }
                )
    return report


def reference_holds(bound: Bound, value: int) -> bool:
    """Whether `value` satisfies one assumption bound, its relation looked up per call."""
    return _RELATIONS[bound.op](value, bound.value)


def _reference_test(op, slot):
    """Whether a concrete state passes a guard or satisfies an assumption,
    read off the node's records on every call."""
    if isinstance(op, Assume):
        return lambda values: all(reference_holds(b, values[slot[b.var]]) for b in op.constraint.bounds)

    def value(operand, values):
        return operand if isinstance(operand, int) else values[slot[operand]]

    return lambda values: _RELATIONS[op.test.op](value(op.test.lhs, values), value(op.test.rhs, values))


def _reference_concrete_step(op, slot, input_range):
    """The successor states of one concrete state through a node, drawn lazily.

    Assume nodes pass every state: `reference_run_collecting` filters their subsets.
    """
    if isinstance(op, Assign):
        i = slot[op.var]
        constant = op.expr.constant
        terms = [(coef, slot[var]) for coef, var in op.expr.terms]
        return lambda values: [
            values[:i] + (constant + sum(coef * values[j] for coef, j in terms),) + values[i + 1 :]
        ]
    if isinstance(op, Input):
        i = slot[op.var]
        lo, hi = op.input_range if op.input_range is not None else input_range
        sites = range(lo, hi + 1)
        return lambda values: (values[:i] + (value,) + values[i + 1 :] for value in sites)
    if isinstance(op, GuardFilter):
        test = _reference_test(op, slot)
        return lambda values: [values] if test(values) else []
    return lambda values: [values]  # entry, exit, skip, assert, assume


def reference_run_collecting(
    cfg,
    input_range: tuple[int, int] = (-8, 8),
    step_bound: int = 100_000,
) -> CollectingResult:
    """The collecting enumeration one (node, state) entry at a time: the spec of `run_collecting`.

    Each entry of a layer makes one call per successor, and its mask is
    merged into the successor's states one output at a time. It honours a
    patched `engine.MAX_COLLECTED`; at that cap, which entries of the cut
    layer are kept depends on the order of the layer.
    """
    if input_range[0] > input_range[1]:
        raise ValueError("empty input range")
    if step_bound < 0:
        raise ValueError(f"step bound must be at least 0, got {step_bound}")
    width = len(cfg.assumptions)
    everyone = full_mask(width)
    slot = {var: i for i, var in enumerate(cfg.variables)}
    moves = [_reference_concrete_step(node.op, slot, input_range) for node in cfg.nodes]
    filters = {
        node.id: (
            _reference_test(node.op, slot),
            everyone & ~atom_mask(node.op.assumption.index, width),  # the subsets declining it
        )
        for node in cfg.nodes
        if isinstance(node.op, Assume)
    }
    successors = [cfg.successors(node.id) for node in cfg.nodes]
    init = (0,) * len(cfg.variables)
    seen = [{} for _ in cfg.nodes]
    seen[cfg.entry][init] = everyone
    frontier = {(cfg.entry, init): everyone}
    truncated_subsets = depth = 0
    collected = 1  # entries in `seen`
    try:
        while frontier:
            nxt = {}
            for (v, values), mask in frontier.items():
                for w in successors[v]:
                    passed = mask
                    if w in filters:
                        holds, declined = filters[w]
                        if not holds(values):
                            passed &= declined
                            if not passed:
                                continue
                    reached = seen[w]
                    for out in moves[w](values):
                        old = reached.get(out, 0)
                        new = passed & ~old
                        if not new:
                            continue
                        if depth == step_bound:  # one step too many: not collected
                            truncated_subsets |= new
                            if not passed & ~truncated_subsets:
                                break  # the other successors add no subset
                        elif not old and collected == engine.MAX_COLLECTED:
                            raise engine._OutOfRoom
                        else:
                            collected += not old  # a new entry
                            reached[out] = old | new
                            nxt[w, out] = nxt.get((w, out), 0) | new
            frontier = nxt
            depth += 1
    except engine._OutOfRoom:  # every subset with states left to expand is cut short
        for mask in frontier.values():  # `nxt` holds only subsets of these masks
            truncated_subsets |= mask

    return CollectingResult(seen, truncated_subsets)


def labelled(collected: CollectingResult) -> list[list[tuple[tuple[int, ...], int]]]:
    """Per node, the reached (values, mask) pairs, sorted."""
    return [sorted(node.items()) for node in collected.reached]


def _given(cfg) -> int:
    """The bit of the subset that accepts every assumption."""
    return 1 << ((1 << len(cfg.assumptions)) - 1)


def states_as_given(collected: CollectingResult, cfg) -> list[list[dict[str, int]]]:
    """Per node, the sorted concrete states of the program as given, every assumption accepted."""
    given = _given(cfg)
    return [
        [dict(zip(cfg.variables, values)) for values, mask in node if mask & given]
        for node in labelled(collected)
    ]


def truncated_as_given(collected: CollectingResult, cfg) -> bool:
    """Whether the run of the program as given hit the step bound."""
    return bool(collected.truncated_subsets & _given(cfg))


def reference_soundness(
    cfg,
    config: AnalysisConfig | None = None,
    input_range: tuple[int, int] = (-8, 8),
    step_bound: int = 100_000,
    program_name: str = "<program>",
    param=None,
) -> OracleReport:
    """The soundness oracle as a per-subset loop: the spec of `verify_soundness`.

    Every subset's restricted program is run on its own through
    `reference_run_collecting`, each node's abstract state is looked up with
    `state_for`, and every collected concrete state is tested with
    `gamma_contains`.
    """
    config = config or AnalysisConfig()
    width = len(cfg.assumptions)
    report = OracleReport("soundness", program_name, 1 << width, "membership")
    param = param or analyze_param(cfg, config)
    if not param.converged:
        report.skipped = list(range(1 << width))
        return report
    for accepted in range(1 << width):
        alone = restrict(cfg, accepted)
        collected = reference_run_collecting(alone, input_range, step_bound)
        if truncated_as_given(collected, alone):
            report.partial.append(accepted)
        concrete = states_as_given(collected, alone)
        for node in cfg.nodes:
            abstract = param.states[node.id].state_for(accepted)
            for values in concrete[node.id]:
                if not gamma_contains(abstract, values):
                    report.mismatches.append({"subset": accepted, "node": node.id, "state": values})
    return report


# --- the tokenizer that tracks positions: the spec of `frontend._tokenize` ------

_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[^\S\n]+)
    | (?P<comment>\#[^\r\n]*)
    | (?P<nl>\n)
    | (?P<number>[0-9]+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|<=|>=|==|!=|&&|\|\||[<>=:;{}()\[\],+\-*])
    """,
    re.VERBOSE,
)

_REFERENCE_KEYWORDS = {"if", "else", "while", "assume", "assert", "skip", "input", "in"}


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) per token, then the "eof" token; a match per step."""
    tokens: list[tuple[str, str, int, int]] = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _REFERENCE_TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "name" and text in _REFERENCE_KEYWORDS:
                kind = "kw"
            tokens.append((kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens
