"""Rule-based analysis states parameterized by assumption subsets.

A `ParamState` is a finite set of rules (subset mask, interval environment)
whose masks partition the 2**n assumption subsets, so exactly one rule
applies to every subset: the state denotes a function from subsets to
environments. Bit A of a rule's mask is set when subset A takes the rule
(see `paramax.conditions`); formulas are built from the masks only when a
state is output. `normalize` reduces a state to its unique compact normal
form (distinct result states, nonempty masks); `split` is the transformer
of an assume node; `approx_merge`/`reduce_to_budget` trade precision for
fewer rules, guided by a loss score.
"""

from __future__ import annotations

import heapq
import operator
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .conditions import atom_mask, full_mask, members, render_mask
from .frontend import AssumptionId, Record, _setattr
from .intervals import BOTTOM, AssumeState, IntervalEnv, enforce


class PartitionError(Exception):
    """The rule masks stopped forming a partition (internal invariant)."""


class Rule(Record, frozen=True):
    __slots__ = ("mask", "state")  # built per rule operation: slots and methods written out
    mask: int  # bit A set when assumption subset A takes this rule
    state: IntervalEnv

    def __init__(self, mask: int, state: IntervalEnv) -> None:
        _setattr(self, "mask", mask)
        _setattr(self, "state", state)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Rule:
            return NotImplemented
        return (self.mask, self.state) == (other.mask, other.state)

    def __hash__(self) -> int:
        return hash((self.mask, self.state))


class ParamState:
    """Immutable rule set over a program's assumptions."""

    __slots__ = ("rules", "atoms")

    def __init__(self, rules: tuple[Rule, ...], atoms: tuple[AssumptionId, ...]):
        self.rules = rules
        self.atoms = atoms

    @property
    def width(self) -> int:
        return len(self.atoms)

    @staticmethod
    def of_state(state: IntervalEnv, atoms: tuple[AssumptionId, ...]) -> "ParamState":
        return ParamState((Rule(full_mask(len(atoms)), state),), atoms)

    @staticmethod
    def bottom(atoms: tuple[AssumptionId, ...]) -> "ParamState":
        return ParamState.of_state(BOTTOM, atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamState):
            return NotImplemented
        return self.atoms == other.atoms and self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)  # `__eq__` tells atoms apart; one analysis has one atom tuple

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"ParamState({self.render()})"

    def render(self) -> str:
        return "; ".join(
            f"{render_mask(r.mask, self.atoms)} -> {r.state.render()}" for r in self.rules
        )

    def state_for(self, accepted: int) -> IntervalEnv:
        """The result state of the unique rule whose mask holds the subset."""
        found = [rule.state for rule in self.rules if rule.mask >> accepted & 1]
        if len(found) > 1:
            raise PartitionError(f"multiple rules apply to subset {accepted:#x}: {self.render()}")
        if not found:
            raise PartitionError(f"no rule applies to subset {accepted:#x}: {self.render()}")
        return found[0]

    def is_partition(self) -> bool:
        union = 0
        total = 0
        for rule in self.rules:
            union |= rule.mask
            total += rule.mask.bit_count()
        return union == full_mask(self.width) and total == (1 << self.width)

    def cells(self) -> list[tuple[int, IntervalEnv]]:
        """The (subset mask, state) pairs of the rules with nonempty masks.

        Unless the masks partition the 2**width subsets, raises the
        PartitionError that `state_for` raises for the smallest subset that
        no rule or several rules cover.
        """
        if not self.is_partition():
            for accepted in range(1 << self.width):
                self.state_for(accepted)
        return [(rule.mask, rule.state) for rule in self.rules if rule.mask]

    def to_json(self) -> list[dict]:
        """The rules as JSON objects; `cli.dump` writes their text without them."""
        return [
            {"condition": render_mask(r.mask, self.atoms), "condition_sets": members(r.mask),
             "state": r.state.to_json()}
            for r in self.rules
        ]


def normalize(state: ParamState) -> ParamState:
    """Reduce to the unique compact normal form.

    Rules with equal result states are merged (their masks ORed) and rules
    with empty masks dropped. Rules are then ordered by the lowest set bit
    of their masks, so equal functions have equal normal forms. A state in
    normal form is returned itself.
    """
    pooled: dict[IntervalEnv, int] = {}
    for rule in state.rules:
        if rule.mask:
            pooled[rule.state] = pooled.get(rule.state, 0) | rule.mask
    lows = [(rule.mask & -rule.mask).bit_length() for rule in state.rules]
    if len(pooled) == len(lows) and all(map(int.__lt__, lows, lows[1:])):
        return state
    rules = sorted((Rule(mask, result) for result, mask in pooled.items()), key=_lowest_bit)
    return ParamState(tuple(rules), state.atoms)


def _lowest_bit(rule: Rule) -> int:
    return rule.mask & -rule.mask


def split(state: ParamState, assumption: AssumptionId, pi: AssumeState) -> ParamState:
    """Assume-node transformer: fork every rule on taking the assumption.

    Each rule yields an accepted branch (the mask's subsets holding the
    assumption, state met with its encoding) and a declined branch (the
    other subsets, state unchanged); empty branches are never produced.
    """
    taking = atom_mask(assumption.index, state.width)
    out: list[Rule] = []
    for rule in state.rules:
        if rule.mask & taking:
            out.append(Rule(rule.mask & taking, enforce(rule.state, pi)))
        if rule.mask & ~taking:
            out.append(Rule(rule.mask & ~taking, rule.state))
    return ParamState(tuple(out), state.atoms)


def _intersect(a: ParamState, b: ParamState) -> Iterator[tuple[int, IntervalEnv, IntervalEnv]]:
    """(mask, state in `a`, state in `b`) for every nonempty intersection of two rules."""
    if a.atoms != b.atoms:
        raise ValueError("mismatched assumptions")
    for rule_a in a.rules:
        for rule_b in b.rules:
            mask = rule_a.mask & rule_b.mask
            if mask:
                yield mask, rule_a.state, rule_b.state


def join_states(states: Sequence[ParamState]) -> ParamState:
    """Pointwise join of the denoted functions, as a normalized state.

    Realized by intersecting the partitions: every nonempty intersection of
    one rule per input becomes a cell whose state is the join of the
    member states.
    """
    if not states:
        raise ValueError("join of no parameterized states")
    joined = states[0]
    for state in states[1:]:
        cells = tuple(Rule(mask, x.join(y)) for mask, x, y in _intersect(joined, state))
        joined = ParamState(cells, joined.atoms)
    return normalize(joined)


def leq_param(a: ParamState, b: ParamState) -> bool:
    """Pointwise order on the denoted functions, via partition intersection."""
    return all(x.leq(y) for _, x, y in _intersect(a, b))


def widen_param(prev: ParamState, nxt: ParamState) -> ParamState:
    """Widen per intersection cell of the two partitions, then normalize."""
    cells = tuple(Rule(mask, x.widen(y)) for mask, x, y in _intersect(prev, nxt))
    return normalize(ParamState(cells, prev.atoms))


def approx_merge(state: ParamState, i: int, j: int) -> ParamState:
    """Fuse rules i and j into one, ORing masks, joining states.

    The result denotes a pointwise-larger function: precision traded for a
    smaller rule set.
    """
    n = len(state.rules)
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"invalid rule pair ({i}, {j}) for {n} rules")
    i, j = min(i, j), max(i, j)
    first, second = state.rules[i], state.rules[j]
    merged = Rule(first.mask | second.mask, first.state.join(second.state))
    rules = [merged if k == i else r for k, r in enumerate(state.rules) if k != j]
    return ParamState(tuple(rules), state.atoms)


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
    after every merge. Each pair's loss is computed once and kept in a heap
    under the rules' lowest subsets (their order in normal form) until one of
    them is merged away or takes a new state."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if len(state.rules) > budget and normalize(state) is not state:
        # the first merge picks among the rules as given; every later state is normal
        pairs = combinations(enumerate(state.rules), 2)
        losses = {(i, j): merge_loss(x.state, y.state) for (i, x), (j, y) in pairs}
        state = normalize(approx_merge(state, *min(losses, key=lambda p: (losses[p], p))))
    if len(state.rules) <= budget:
        return state
    rules = {(rule.mask & -rule.mask).bit_length(): rule for rule in state.rules}
    low_of = {rule.state: low for low, rule in rules.items()}
    stamps = dict.fromkeys(rules, 0)  # per lowest subset, bumped when its state changes

    def entry(a: int, b: int) -> tuple:
        return merge_loss(rules[a].state, rules[b].state), a, b, stamps[a], stamps[b]

    heap = [entry(a, b) for a, b in combinations(rules, 2)]
    heapq.heapify(heap)
    while len(rules) > budget:
        _, a, b, stamp_a, stamp_b = heapq.heappop(heap)
        if stamps.get(a) != stamp_a or stamps.get(b) != stamp_b:
            continue
        first, second = rules.pop(a), rules.pop(b)
        del stamps[b], low_of[first.state], low_of[second.state]
        mask, joined, low = first.mask | second.mask, first.state.join(second.state), a
        if (twin := low_of.pop(joined, None)) is not None:  # normalize fuses equal states
            mask |= rules.pop(twin).mask
            low = min(a, twin)
            del stamps[max(a, twin)]
        rules[low], low_of[joined] = Rule(mask, joined), low
        if low == a and joined != first.state:
            stamps[a] += 1
            for other in rules.keys() - {a}:
                heapq.heappush(heap, entry(min(a, other), max(a, other)))
    return ParamState(tuple(rules[low] for low in sorted(rules)), state.atoms)


def lift_transfer(state: ParamState, fn: Callable[[IntervalEnv], IntervalEnv]) -> ParamState:
    """Apply a plain state transformer to every rule's result state; a rule
    (or all of `state`) whose state `fn` returns unchanged is kept itself."""
    rules = tuple(r if (s := fn(r.state)) is r.state else Rule(r.mask, s) for r in state.rules)
    return state if all(map(operator.is_, rules, state.rules)) else ParamState(rules, state.atoms)
