"""Rule-based analysis states parameterized by assumption subsets.

A `ParamState` is a finite set of rules (condition, interval environment)
whose conditions partition the space of assumption subsets, so exactly one
rule applies to every subset: the state denotes a function from subsets to
environments. `normalize` reduces a state to its unique compact normal form
(distinct result states, satisfiable conditions); `split` is the transformer
of an assume node; `approx_merge`/`reduce_to_budget` trade precision for
fewer rules, guided by a loss score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .conditions import (
    And,
    Atom,
    Condition,
    Not,
    Or,
    TRUE,
    members,
    simplify,
    render,
    satisfying_sets,
    truth_table,
)
from .frontend import AssumptionId
from .intervals import BOTTOM, AssumeState, IntervalEnv, enforce


class PartitionError(Exception):
    """The rule conditions stopped forming a partition (internal invariant)."""


@dataclass(frozen=True)
class Rule:
    condition: Condition
    state: IntervalEnv

    def render(self) -> str:
        return f"{render(self.condition)} -> {self.state.render()}"


class ParamState:
    """Immutable rule set over a fixed number of assumption atoms."""

    __slots__ = ("rules", "width")

    def __init__(self, rules: tuple[Rule, ...], width: int):
        self.rules = rules
        self.width = width

    @staticmethod
    def of_state(state: IntervalEnv, width: int) -> "ParamState":
        return ParamState((Rule(TRUE, state),), width)

    @staticmethod
    def bottom(width: int) -> "ParamState":
        return ParamState((Rule(TRUE, BOTTOM),), width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamState):
            return NotImplemented
        return self.width == other.width and self.rules == other.rules

    def __hash__(self) -> int:
        return hash((self.rules, self.width))

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"ParamState({self.render()})"

    def render(self) -> str:
        return "; ".join(r.render() for r in self.rules)

    def masks(self) -> list[int]:
        return [truth_table(r.condition, self.width) for r in self.rules]

    def state_for(self, accepted: int) -> IntervalEnv:
        """The result state of the unique rule whose condition holds."""
        return self._owner(accepted, self.masks())

    def _owner(self, accepted: int, masks: Sequence[int]) -> IntervalEnv:
        found = [rule.state for rule, mask in zip(self.rules, masks) if mask >> accepted & 1]
        if len(found) > 1:
            raise PartitionError(f"multiple rules apply to subset {accepted:#x}: {self.render()}")
        if not found:
            raise PartitionError(f"no rule applies to subset {accepted:#x}: {self.render()}")
        return found[0]

    def is_partition(self) -> bool:
        masks = self.masks()
        union = 0
        total = 0
        for m in masks:
            union |= m
            total += m.bit_count()
        full = (1 << (1 << self.width)) - 1
        return union == full and total == (1 << self.width)

    def cells(self) -> list[tuple[int, IntervalEnv]]:
        """The (subset mask, state) pairs of the rules with satisfiable conditions.

        Unless the masks partition the 2**width subsets, raises the
        PartitionError that `state_for` raises for the smallest subset that
        no rule or several rules cover.
        """
        masks = self.masks()
        if not self.is_partition():
            for accepted in range(1 << self.width):
                self._owner(accepted, masks)
        return [(mask, rule.state) for rule, mask in zip(self.rules, masks) if mask]

    def table(self) -> list[IntervalEnv]:
        """The result state of every subset, indexed by subset; checked as in `cells`."""
        out: list[IntervalEnv] = [BOTTOM] * (1 << self.width)
        for mask, state in self.cells():
            for accepted in members(mask):
                out[accepted] = state
        return out

    def semantic_items(self) -> tuple[tuple[int, IntervalEnv], ...]:
        """Canonical (subset-mask, state) pairs: the denoted function.

        Equal-state rules are pooled and empty conditions dropped, so two
        states denote the same function exactly when their items are equal.
        Pairs are ordered by each mask's smallest member.
        """
        pooled: dict[IntervalEnv, int] = {}
        for rule, mask in zip(self.rules, self.masks()):
            if mask:
                pooled[rule.state] = pooled.get(rule.state, 0) | mask
        return tuple(sorted(pooled.items(), key=lambda kv: (kv[1] & -kv[1]).bit_length()))

    def to_json(self):
        return [
            {
                "condition": render(r.condition),
                "condition_sets": satisfying_sets(r.condition, self.width),
                "state": r.state.to_json(),
            }
            for r in self.rules
        ]


def exact_merge_step(state: ParamState, pair: tuple[int, int] | None = None) -> ParamState | None:
    """Merge one pair of rules with identical result states; None if no pair.

    Without an explicit pair, the lowest-index pair is taken.
    """
    if pair is None:
        for i in range(len(state.rules)):
            for j in range(i + 1, len(state.rules)):
                if state.rules[i].state == state.rules[j].state:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            return None
    i, j = sorted(pair)
    if state.rules[i].state != state.rules[j].state:
        raise ValueError(f"rules {i} and {j} have different result states")
    merged = Rule(
        simplify(Or((state.rules[i].condition, state.rules[j].condition))),
        state.rules[i].state,
    )
    rules = [merged if k == i else r for k, r in enumerate(state.rules) if k != j]
    return ParamState(tuple(rules), state.width)


def redundancy_elim_step(state: ParamState, index: int | None = None) -> ParamState | None:
    """Remove one rule with an unsatisfiable condition; None if none exists."""
    masks = state.masks()
    if index is None:
        index = next((i for i, m in enumerate(masks) if m == 0), None)
        if index is None:
            return None
    if masks[index] != 0:
        raise ValueError(f"rule {index} has a satisfiable condition")
    rules = tuple(r for k, r in enumerate(state.rules) if k != index)
    return ParamState(rules, state.width)


def normalize(state: ParamState) -> ParamState:
    """Reduce to the unique compact normal form.

    Rules with equal result states are merged (disjoining their conditions)
    and rules with unsatisfiable conditions dropped; this is the fixpoint of
    the two single-step reductions, reached directly by grouping. Rules are
    then ordered by the smallest subset satisfying their condition, making
    equal functions compare structurally equal after normalization.
    """
    groups: dict[IntervalEnv, list[Condition]] = {}
    for rule in state.rules:
        groups.setdefault(rule.state, []).append(rule.condition)
    keyed = []
    for result, conds in groups.items():
        cond = conds[0] if len(conds) == 1 else Or(tuple(conds))
        cond = simplify(cond)
        mask = truth_table(cond, state.width)
        if mask == 0:
            continue
        keyed.append(((mask & -mask).bit_length(), Rule(cond, result)))
    keyed.sort(key=lambda kv: kv[0])
    return ParamState(tuple(r for _, r in keyed), state.width)


def split(state: ParamState, assumption: AssumptionId, pi: AssumeState) -> ParamState:
    """Assume-node transformer: fork every rule on taking the assumption.

    Each rule yields an accepted branch (condition and the atom, state met
    with the assumption's encoding) and a declined branch (condition and the
    negated atom, state unchanged); branches with unsatisfiable conditions
    are never produced. When a rule's condition already decides the atom the
    condition is reused as is.
    """
    atom = Atom(assumption)
    natom = Not(atom)
    width = state.width
    out: list[Rule] = []
    for rule, mask in zip(state.rules, state.masks()):
        if mask == 0:
            continue
        accepted_mask = mask & truth_table(atom, width)
        declined_mask = mask & ~truth_table(atom, width)
        if accepted_mask:
            cond = rule.condition if accepted_mask == mask else simplify(And((rule.condition, atom)))
            out.append(Rule(cond, enforce(rule.state, pi)))
        if declined_mask:
            cond = rule.condition if declined_mask == mask else simplify(And((rule.condition, natom)))
            out.append(Rule(cond, rule.state))
    return ParamState(tuple(out), width)


def join_states(states: Sequence[ParamState]) -> ParamState:
    """Pointwise join of the denoted functions, as a normalized state.

    Realized by intersecting the partitions: every satisfiable combination
    of one condition per input becomes a cell whose state is the join of the
    member states.
    """
    if not states:
        raise ValueError("join of no parameterized states")
    width = states[0].width
    if any(s.width != width for s in states):
        raise ValueError("mismatched assumption widths")
    cells: list[tuple[Condition, int, IntervalEnv]] = [
        (r.condition, m, r.state) for r, m in zip(states[0].rules, states[0].masks()) if m
    ]
    for state in states[1:]:
        nxt: list[tuple[Condition, int, IntervalEnv]] = []
        for cond1, mask1, env1 in cells:
            for rule, mask2 in zip(state.rules, state.masks()):
                mask = mask1 & mask2
                if not mask:
                    continue
                if mask == mask1:
                    cond = cond1
                elif mask == mask2:
                    cond = rule.condition
                else:
                    cond = simplify(And((cond1, rule.condition)))
                nxt.append((cond, mask, env1.join(rule.state)))
        cells = nxt
    merged = ParamState(tuple(Rule(c, s) for c, _, s in cells), width)
    return normalize(merged)


def leq_param(a: ParamState, b: ParamState) -> bool:
    """Pointwise order on the denoted functions, via partition intersection."""
    if a.width != b.width:
        raise ValueError("mismatched assumption widths")
    b_pairs = list(zip(b.rules, b.masks()))
    for rule_a, mask_a in zip(a.rules, a.masks()):
        if mask_a == 0:
            continue
        for rule_b, mask_b in b_pairs:
            if mask_a & mask_b and not rule_a.state.leq(rule_b.state):
                return False
    return True


def approx_merge(state: ParamState, i: int, j: int) -> ParamState:
    """Fuse rules i and j into one, disjoining conditions, joining states.

    The result denotes a pointwise-larger function: precision traded for a
    smaller rule set.
    """
    n = len(state.rules)
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"invalid rule pair ({i}, {j}) for {n} rules")
    i, j = min(i, j), max(i, j)
    merged = Rule(
        simplify(Or((state.rules[i].condition, state.rules[j].condition))),
        state.rules[i].state.join(state.rules[j].state),
    )
    rules = [merged if k == i else r for k, r in enumerate(state.rules) if k != j]
    return ParamState(tuple(rules), state.width)


def merge_loss(a: IntervalEnv, b: IntervalEnv) -> tuple[int, int]:
    """Precision lost by joining two result states, lexicographically.

    Primary key: endpoints infinite in the join but finite in both inputs
    (losing a bound outright is worse than any finite growth). Secondary
    key: total finite width growth of the join over the wider input. A
    bottom input loses nothing: the join is just the other state.
    """
    if a.is_bottom or b.is_bottom:
        return (0, 0)
    new_infinite = 0
    growth = 0
    for (var, ia), (_, ib) in zip(a.items(), b.items()):
        joined = ia.join(ib)
        for side in ("lo", "hi"):
            j, x, y = getattr(joined, side), getattr(ia, side), getattr(ib, side)
            if isinstance(j, float) and not isinstance(x, float) and not isinstance(y, float):
                new_infinite += 1
        wj = joined.width()
        if not isinstance(wj, float):
            growth += int(wj - max(ia.width(), ib.width()))
    return (new_infinite, growth)


def reduce_to_budget(state: ParamState, budget: int) -> ParamState:
    """Greedily merge minimum-loss rule pairs until at most `budget` rules.

    Ties break toward the lowest index pair; the state is re-normalized
    after every merge.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    while len(state.rules) > budget:
        best: tuple[tuple[int, int], tuple[int, int]] | None = None
        for i in range(len(state.rules)):
            for j in range(i + 1, len(state.rules)):
                loss = merge_loss(state.rules[i].state, state.rules[j].state)
                if best is None or (loss, (i, j)) < best:
                    best = (loss, (i, j))
        assert best is not None
        state = normalize(approx_merge(state, *best[1]))
    return state


def widen_param(prev: ParamState, nxt: ParamState) -> ParamState:
    """Widen per intersection cell of the two partitions, then normalize."""
    if prev.width != nxt.width:
        raise ValueError("mismatched assumption widths")
    cells: list[Rule] = []
    for rule_p, mask_p in zip(prev.rules, prev.masks()):
        if mask_p == 0:
            continue
        for rule_n, mask_n in zip(nxt.rules, nxt.masks()):
            mask = mask_p & mask_n
            if not mask:
                continue
            if mask == mask_n:
                cond = rule_n.condition
            elif mask == mask_p:
                cond = rule_p.condition
            else:
                cond = simplify(And((rule_p.condition, rule_n.condition)))
            cells.append(Rule(cond, rule_p.state.widen(rule_n.state)))
    return normalize(ParamState(tuple(cells), prev.width))


def lift_transfer(state: ParamState, fn: Callable[[IntervalEnv], IntervalEnv]) -> ParamState:
    """Apply a plain state transformer to every rule's result state."""
    return ParamState(tuple(Rule(r.condition, fn(r.state)) for r in state.rules), state.width)
