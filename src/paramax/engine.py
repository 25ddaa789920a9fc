"""Fixpoint engines and executable correctness checks.

`analyze_baseline` runs the plain interval analysis of one program variant,
and `analyze_variants` that of many restricted variants at once, sharing
one worklist run between subsets until an assume node sets them apart;
`analyze_param` runs the one-pass analysis whose per-node result maps every
assumption subset to the interval state that the plain analysis would
compute for the matching restricted program. `run_collecting` enumerates
concrete executions over finite input ranges once for all assumption
subsets, labelling each reached state with the mask of the subsets whose
restricted programs reach it. The two `verify_*` functions exhaustively
check the per-subset equality (a fresh analysis of every subset) and the
concretization-membership soundness claim (one labelled enumeration) against
those oracles, reading the one-pass states' partitions, never their rules.
"""

from __future__ import annotations

import heapq
import operator
from typing import Callable, Iterable, Mapping

from .conditions import WIDTH_CAP, atom_mask, full_mask, members
from .frontend import _RELATIONS, Assign, Assume, Cfg, GuardFilter, Input, Record
from .intervals import BOTTOM, AssumeState, IntervalEnv, enforce, gamma_contains, transfer
from .param import ParamState, join_states, lift_transfer, mismatched, split, widen_param


ORACLE_CAP = 12  # most assumptions whose 2**n subsets the exhaustive oracles enumerate


class WidthCapError(ValueError):
    """The program has more assumptions than the condition width cap."""


class AnalysisConfig(Record):
    max_iterations: int = 1000  # node evaluations before giving up
    widening_delay: int | None = None  # widen loop heads from this visit on; None = off

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.widening_delay is not None and self.widening_delay < 1:
            raise ValueError("widening delay must be at least 1")

    def to_json(self) -> dict:
        return {
            "max_iterations": self.max_iterations,
            "widening": "off" if self.widening_delay is None else self.widening_delay,
            "condition_width_cap": WIDTH_CAP,
        }


class AnalysisResult(Record):
    states: list  # indexed by node id: the state after each node (a `ParamState` in one pass)
    iterations: int
    converged: bool
    config: AnalysisConfig


ConcreteValues = tuple[int, ...]  # one concrete state, values in `Cfg.variables` order
Entry = tuple[ConcreteValues, int]  # a state and the mask of the subsets reaching it


class CollectingResult(Record):
    """Concrete states per node, as found, each subset's as in `restrict(cfg, subset)`."""

    reached: list[dict[ConcreteValues, int]]  # per node: values -> mask of the subsets reaching them
    truncated_subsets: int  # mask of the subsets whose runs hit the step bound


class OracleReport(Record):
    """Outcome of one exhaustive verification sweep."""

    check: str
    program: str
    subsets_checked: int
    mode: str
    mismatches: list[dict] = []  # each instance gets its own copy
    skipped: list[int] = []
    partial: list[int] = []

    @property
    def passed(self) -> bool:
        """No mismatches, and not every subset skipped."""
        every_skipped = bool(self.skipped) and len(self.skipped) == self.subsets_checked
        return not self.mismatches and not every_skipped

    def record(self, subsets: int, node: int, **found) -> None:
        """One mismatch at `node` for each subset in the mask."""
        self.mismatches += [{"subset": a, "node": node, **found} for a in members(subsets)]

    def sort(self) -> None:
        """Mismatches by subset, then node (stably), and skipped subsets ascending."""
        self.mismatches.sort(key=operator.itemgetter("subset", "node"))
        self.skipped.sort()

    def to_json(self) -> dict:
        return {
            "theorem": self.check,
            "program": self.program,
            "subsets_checked": self.subsets_checked,
            "mode": self.mode,
            "mismatches": self.mismatches,
            "skipped": self.skipped,
            "partial": self.partial,
        }


def _rpo_rank(cfg: Cfg) -> dict[int, int]:
    seen: set[int] = set()
    postorder: list[int] = []
    stack: list[tuple[int, int]] = [(cfg.entry, 0)]
    seen.add(cfg.entry)
    while stack:
        node, i = stack.pop()
        succs = cfg.successors(node)
        if i < len(succs):
            stack.append((node, i + 1))
            nxt = succs[i]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            postorder.append(node)
    order = list(reversed(postorder))
    return {v: k for k, v in enumerate(order)}


def _solve(
    cfg: Cfg,
    config: AnalysisConfig,
    seed,
    bottom,
    evaluate: Callable,
    widen_fn: Callable,
    observer: Callable | None,
    group=None,
) -> list[tuple]:
    """Worklist chaotic iteration from bottom, entry pinned to its seed.

    `evaluate(v, states, group)` gives the new state of node `v` for the
    run's group of program variants (`group` as given, for one analysis) as
    [(group, state)]. More than one pair forks the run: each further group
    goes on from this evaluation in its own copy of the worklist state. One
    (group, states, evaluations, converged) per run.
    """
    rank, delay = _rpo_rank(cfg), config.widening_delay
    states = [bottom] * len(cfg.nodes)
    states[cfg.entry] = seed
    pending = [(rank[v.id], v.id) for v in cfg.nodes if v.id != cfg.entry]
    heapq.heapify(pending)
    runs = [(group, states, pending, {v for _, v in pending}, [0] * len(cfg.nodes), 0, None)]
    done = []
    while runs:
        group, states, pending, queued, visits, evals, forked = runs.pop()
        converged = True
        while pending or forked:
            if forked:
                (v, new), forked = forked, None
            elif evals >= config.max_iterations:
                converged = False
                break
            else:
                _, v = heapq.heappop(pending)
                queued.discard(v)
                evals += 1
                visits[v] += 1
                (group, new), *forks = evaluate(v, states, group)
                for other, state in forks:  # copied before this run takes its own state
                    runs.append((other, states[:], pending[:], set(queued), visits[:], evals, (v, state)))
            if delay is not None and cfg.nodes[v].loop_head and visits[v] >= delay:
                new = widen_fn(states[v], new)
            if states[v] != new:
                if observer is not None:
                    observer(v, states[v], new)
                states[v] = new
                for w in cfg.successors(v):
                    if w != cfg.entry and w not in queued:
                        queued.add(w)
                        heapq.heappush(pending, (rank[w], w))
        done.append((group, states, evals, converged))
    return done


def _assume_states(cfg: Cfg) -> dict[int, AssumeState]:
    return {
        n.id: AssumeState.from_constraint(n.op.constraint)
        for n in cfg.nodes
        if isinstance(n.op, Assume)
    }


def _plain_join(cfg: Cfg, pis: dict[int, AssumeState], v: int, takes: bool, states) -> IntervalEnv:
    """The plain analysis' join at `v`; an assume node enforces if `takes`, else is a skip."""
    acc = BOTTOM
    for p in cfg.predecessors(v):
        env = states[p]
        if v not in pis:
            env = transfer(cfg.nodes[v], env)
        elif takes:
            env = enforce(env, pis[v])
        acc = acc.join(env)
    return acc


def analyze_baseline(
    cfg: Cfg, config: AnalysisConfig | None = None, observer: Callable | None = None
) -> AnalysisResult:
    """Plain interval analysis: Kleene iteration of the node constraints."""
    config = config or AnalysisConfig()
    pis = _assume_states(cfg)
    [(_, states, evals, converged)] = _solve(
        cfg,
        config,
        seed=IntervalEnv.top(cfg.variables),
        bottom=BOTTOM,
        evaluate=lambda v, states, group: [(group, _plain_join(cfg, pis, v, True, states))],
        widen_fn=IntervalEnv.widen,
        observer=observer,
    )
    return AnalysisResult(states, evals, converged, config)


def analyze_variants(
    cfg: Cfg, config: AnalysisConfig | None = None, subsets: int | None = None
) -> list[tuple[int, AnalysisResult]]:
    """`analyze_baseline(restrict(cfg, A))` for every subset A in the mask `subsets`.

    One run starts with every chosen subset (by default all 2**n) and forks
    only at an assume node where its group both takes and declines the
    assumption and enforcing it changes the joined state; each half goes on
    in its own copy of the worklist state. Returns (group, result) pairs
    whose groups partition `subsets`: the result's states, iterations and
    convergence are those of the plain analysis of every subset in the
    group. Node evaluations, keyed by (node, taken, predecessors' states),
    and widenings are computed once per sweep.
    """
    config = config or AnalysisConfig()
    width = len(cfg.assumptions)
    subsets = full_mask(width) if subsets is None else subsets
    if subsets < 0 or subsets & ~full_mask(width):
        raise ValueError(f"subset mask {subsets:#x} outside the program's {width} assumptions")
    pis = _assume_states(cfg)
    taking = {v: atom_mask(cfg.nodes[v].op.assumption.index, width) for v in pis}
    memo: dict = {}

    def share(state: IntervalEnv) -> IntervalEnv:  # one object per distinct state
        return memo.setdefault(state, state)

    preds = [cfg.predecessors(node.id) for node in cfg.nodes]
    keys = [operator.itemgetter(*p) if p else lambda states: () for p in preds]

    def join(key: tuple, states) -> IntervalEnv:  # key: (node, taken, its predecessors' states)
        return memo.get(key) or memo.setdefault(key, share(_plain_join(cfg, pis, *key[:2], states)))

    def evaluate(v: int, states, group: int) -> list[tuple[int, IntervalEnv]]:
        took, pre = group & taking.get(v, 0), keys[v](states)
        if not took or took == group:
            key = (v, bool(took), pre)
            return [(group, memo.get(key) or join(key, states))]  # `join`'s lookup inlined for the hits
        yes, no = join((v, True, pre), states), join((v, False, pre), states)
        return [(group, yes)] if yes == no else [(took, yes), (group ^ took, no)]

    def widen(old: IntervalEnv, new: IntervalEnv) -> IntervalEnv:
        return memo.get((old, new)) or memo.setdefault((old, new), share(old.widen(new)))

    runs = _solve(
        cfg,
        config,
        seed=share(IntervalEnv.top(cfg.variables)),
        bottom=BOTTOM,
        evaluate=evaluate,
        widen_fn=widen,
        observer=None,
        group=subsets,
    ) if subsets else []
    return [(group, AnalysisResult(*run, config)) for group, *run in runs]


def analyze_param(
    cfg: Cfg, config: AnalysisConfig | None = None, observer: Callable | None = None
) -> AnalysisResult:
    """One-pass analysis over rule states covering every assumption subset."""
    config = config or AnalysisConfig()
    width = len(cfg.assumptions)
    if width > WIDTH_CAP:
        raise WidthCapError(f"program has {width} assumptions; configured width cap is {WIDTH_CAP}")
    pis = _assume_states(cfg)
    seed = ParamState.of_state(IntervalEnv.top(cfg.variables), cfg.assumptions)
    bottom = ParamState.bottom(cfg.assumptions)

    def apply_node(v: int, state: ParamState) -> ParamState:
        node = cfg.nodes[v]
        if isinstance(node.op, Assume):
            return split(state, node.op.assumption, pis[v])
        return lift_transfer(state, node)  # a node that changes nothing keeps the state itself

    def evaluate(v: int, states, group) -> list[tuple[None, ParamState]]:
        return [(group, join_states([apply_node(v, states[p]) for p in cfg.predecessors(v)]))]

    [(_, states, evals, converged)] = _solve(
        cfg,
        config,
        seed=seed,
        bottom=bottom,
        evaluate=evaluate,
        widen_fn=widen_param,
        observer=observer,
    )
    return AnalysisResult(states, evals, converged, config)


def _concrete_test(op: GuardFilter | Assume, slot: Mapping[str, int]) -> Callable[[ConcreteValues], bool]:
    """Whether a concrete state passes a guard or satisfies an assumption."""
    if isinstance(op, Assume):  # each bound read once per node, as (slot, relation, constant)
        bounds = [(slot[b.var], _RELATIONS[b.op], b.value) for b in op.constraint.bounds]

        def holds(values: ConcreteValues) -> bool:
            for i, rel, value in bounds:
                if not rel(values[i], value):
                    return False
            return True

        return holds

    def operand(o):
        return (lambda values: o) if isinstance(o, int) else operator.itemgetter(slot[o])

    rel, lhs, rhs = _RELATIONS[op.test.op], operand(op.test.lhs), operand(op.test.rhs)
    return lambda values: rel(lhs(values), rhs(values))


def _concrete_step(
    op, slot: Mapping[str, int], input_range: tuple[int, int], width: int
) -> Callable[[Iterable[Entry]], Iterable[Entry]]:
    """The successor entries of a batch of (values, mask) entries through one node.

    An assume node keeps only the bits of the subsets that decline its
    assumption where its constraint fails, and drops an entry left with
    none. An input site draws its values lazily.
    """
    if isinstance(op, Assign):
        i, constant = slot[op.var], op.expr.constant
        terms = [(coef, slot[var]) for coef, var in op.expr.terms]

        def assign(batch: Iterable[Entry]) -> list[Entry]:
            out = []
            for values, mask in batch:
                value = constant
                for coef, j in terms:
                    value += coef * values[j]
                out.append((values[:i] + (value,) + values[i + 1 :], mask))
            return out

        return assign
    if isinstance(op, Input):
        i = slot[op.var]
        lo, hi = op.input_range if op.input_range is not None else input_range
        sites = range(lo, hi + 1)
        return lambda batch: (
            (values[:i] + (value,) + values[i + 1 :], mask) for values, mask in batch for value in sites
        )
    if isinstance(op, GuardFilter):
        test = _concrete_test(op, slot)
        return lambda batch: [entry for entry in batch if test(entry[0])]
    if isinstance(op, Assume):
        holds = _concrete_test(op, slot)
        declined = full_mask(width) & ~atom_mask(op.assumption.index, width)
        return lambda batch: [
            (values, kept) for values, mask in batch if (kept := mask if holds(values) else mask & declined)
        ]
    return lambda batch: batch  # entry, exit, skip, assert


MAX_COLLECTED = 250_000  # (node, state) entries one `run_collecting` may hold


class _OutOfRoom(Exception):
    """`run_collecting` holds `MAX_COLLECTED` entries and has another to add."""


def run_collecting(
    cfg: Cfg,
    input_range: tuple[int, int] = (-8, 8),
    step_bound: int = 100_000,
) -> CollectingResult:
    """Enumerate concrete executions, collecting the post-states per node.

    Variables start at zero; every input site draws from `input_range`
    unless the site carries its own range annotation. One breadth-first
    enumeration covers every assumption subset: each (node, state) entry
    carries a mask over the 2**n subsets (bit A set when the state is
    reached in `restrict(cfg, A)`). An assume node whose constraint fails
    keeps only the bits of the subsets that decline it, and an entry moves
    on only with the bits that are new to its (node, state), so each subset
    advances through the layers of its own breadth-first run. Each layer
    steps a node's new entries across an edge as one batch, through a step
    built once per node (`_concrete_step`: terms and bounds read before the
    enumeration, folded in plain loops). Paths stop at
    `step_bound` steps; the subsets whose runs would reach a new (node,
    state) with one more step form `truncated_subsets`. That last layer
    goes one entry at a time, so an entry stops drawing input values once
    every subset it carries is truncated. The enumeration also stops once
    it holds `MAX_COLLECTED` entries; every subset with states left to
    expand is then truncated too, and which entries of the cut layer were
    kept depends on the order of the layer.
    """
    if input_range[0] > input_range[1]:
        raise ValueError("empty input range")
    if step_bound < 0:
        raise ValueError(f"step bound must be at least 0, got {step_bound}")
    width = len(cfg.assumptions)
    everyone = full_mask(width)
    slot = {var: i for i, var in enumerate(cfg.variables)}
    steps = [_concrete_step(node.op, slot, input_range, width) for node in cfg.nodes]
    successors = [cfg.successors(node.id) for node in cfg.nodes]
    init: ConcreteValues = (0,) * len(cfg.variables)
    seen: list[dict[ConcreteValues, int]] = [{} for _ in cfg.nodes]
    seen[cfg.entry][init] = everyone
    frontier = {cfg.entry: {init: everyone}}  # per node, the entries new in the last layer
    truncated_subsets = depth = 0
    collected = 1  # entries in `seen`
    try:
        while frontier and depth < step_bound:
            nxt: dict[int, dict[ConcreteValues, int]] = {}
            for v, entries in frontier.items():
                for w in successors[v] if entries else ():  # an empty batch ends its path
                    reached, ahead = seen[w], nxt.setdefault(w, {})
                    for out, passed in steps[w](entries.items()):
                        old = reached.get(out)
                        if old is None:
                            if collected == MAX_COLLECTED:
                                raise _OutOfRoom
                            collected += 1
                            reached[out] = ahead[out] = passed
                        elif new := passed & ~old:
                            reached[out] = old | new
                            ahead[out] = ahead.get(out, 0) | new
            frontier = nxt
            depth += 1
    except _OutOfRoom:  # every subset with states left to expand is cut short
        for entries in frontier.values():  # `nxt` holds only subsets of these masks
            for mask in entries.values():
                truncated_subsets |= mask
    else:  # one step too many: nothing is collected
        for v, entries in frontier.items():
            for w in successors[v]:
                reached = seen[w]
                for entry in entries.items():
                    for out, passed in steps[w]((entry,)):
                        if new := passed & ~reached.get(out, 0):
                            truncated_subsets |= new
                            if not passed & ~truncated_subsets:
                                break  # the entry's other successors add no subset

    return CollectingResult(seen, truncated_subsets)


def _check_oracle_cap(width: int) -> None:
    if width > ORACLE_CAP:
        raise ValueError(f"refusing to enumerate 2**{width} subsets (cap {ORACLE_CAP})")


def verify_equivalence(
    cfg: Cfg,
    config: AnalysisConfig | None = None,
    program_name: str = "<program>",
    param: AnalysisResult | None = None,
) -> OracleReport:
    """Check the one-pass result against a fresh analysis of every variant.

    `analyze_variants` re-analyzes the restricted program of every
    assumption subset, in groups of subsets whose analyses agree. At each
    node, the subsets that reach one fresh state are compared with the rule
    state at once (`param.mismatched`), and each subset that differs is
    reported with its state. The comparison is exact equality, or with
    widening containment of the fresh result: the two analyses need not
    widen in lock step. Non-convergent runs are recorded as skipped, never
    passed. `param`, if given, is the one-pass result of
    `analyze_param(cfg, config)`, reused instead of analyzing again. A
    program with more than `ORACLE_CAP` assumptions raises ValueError.
    """
    config = config or AnalysisConfig()
    width = len(cfg.assumptions)
    _check_oracle_cap(width)
    exact = config.widening_delay is None
    mode = "equality" if exact else "containment"
    report = OracleReport("equivalence", program_name, 1 << width, mode)
    param = param or analyze_param(cfg, config)
    if not param.converged:
        report.skipped = list(range(1 << width))
        return report
    runs = analyze_variants(cfg, config)
    report.skipped = members(sum(group for group, base in runs if not base.converged))
    groups = [group for group, base in runs if base.converged]
    fresh = zip(*[base.states for _, base in runs if base.converged])  # per node, each run's state
    for node, state, found in zip(cfg.nodes, param.states, fresh):
        reached: dict[IntervalEnv, int] = {}  # each fresh state, to the subsets that reach it
        for env, group in zip(found, groups):
            reached[env] = reached.get(env, 0) | group
        for expected, group in reached.items():
            box = None if expected.is_bottom else [(iv.lo, iv.hi) for _, iv in expected.items()]
            for a in members(mismatched(state, expected.variables(), box, group, exact)):
                got = state.state_for(a).to_json()
                report.record(1 << a, node.id, baseline=expected.to_json(), parameterized=got)
    report.sort()
    return report


def verify_soundness(
    cfg: Cfg,
    config: AnalysisConfig | None = None,
    input_range: tuple[int, int] = (-8, 8),
    step_bound: int = 100_000,
    program_name: str = "<program>",
    param: AnalysisResult | None = None,
) -> OracleReport:
    """Check that enumerated concrete states lie inside the abstract ones.

    The program is executed once over the finite input ranges; every
    collected concrete state carries the mask of the assumption subsets
    whose restricted programs reach it (see `run_collecting`). At each node
    the states are grouped by that label, in the order they were found, and
    the bounding box of each group, each variable's least and greatest
    value with no environment built, is compared with the node's rule state
    (`param.mismatched`, the equality oracle's routine too). Only the states
    of the groups whose box some subset's state misses are sorted and tested
    for membership in those subsets' states, and a failure is reported per
    subset, in the order of the states' values. Subsets whose exploration
    was truncated are recorded as partial evidence. `param` is reused, and
    the cap enforced, as in `verify_equivalence`.
    """
    config = config or AnalysisConfig()
    width = len(cfg.assumptions)
    _check_oracle_cap(width)
    report = OracleReport("soundness", program_name, 1 << width, "membership")
    param = param or analyze_param(cfg, config)
    if not param.converged:
        report.skipped = list(range(1 << width))
        return report
    collected = run_collecting(cfg, input_range, step_bound)
    report.partial = members(collected.truncated_subsets)
    names = cfg.variables  # sorted, as a state's are
    for node, state, reached in zip(cfg.nodes, param.states, collected.reached):
        groups: dict[int, list] = {label: [] for label in set(reached.values())}
        for values, label in reached.items():  # per label, the states that carry it
            groups[label].append(values)
        missed = {}  # per label, the subsets whose state misses the bounding box of its states
        for label, group in groups.items():
            if bad := mismatched(state, names, [(min(c), max(c)) for c in zip(*group)], label, exact=False):
                missed[label] = bad
        for values, label in sorted((values, label) for label in missed for values in groups[label]):
            concrete = dict(zip(names, values))
            for a in members(missed[label]):
                if not gamma_contains(state.state_for(a), concrete):
                    report.record(1 << a, node.id, state=concrete)
    report.sort()
    return report
