"""Analysis states parameterized by assumption subsets, factored per variable.

A `ParamState` denotes a function from the 2**n assumption subsets to
interval environments (a set of subsets is an int mask, bit A set when
subset A is in it; see `paramax.conditions`). Intervals are non-relational,
so the function is stored factored: `reach`, the mask of the subsets whose
state is not bottom, and per variable a partition of the subsets, a dict
from each interval to the mask where it holds, with the unreached subsets
in the sentinel cell `None`. Masks are nonempty and intervals distinct, so
equal functions have equal states.

The rules, (mask, environment) pairs in normal form (distinct states,
ordered by lowest subset), are the cells of the product of the partitions
plus a bottom rule for the unreached subsets. No state keeps them: `expand`
gives them on each call, each cell as its binding or as a text made once
per cell, and `rules`, `render` and the CLI's output read it, so only this
module knows the cell layout. A state is only ever built from its fields:
`of_state`, `bottom` and `normalize` are the ways in.

Every node's transformer is the plain analysis' own, lifted by `lift`:
it runs once per cell of the product of the partitions of the variables
the node mentions, within the subsets it applies to, and `normalize` pools
the new cells. `lift_transfer` applies `intervals.transfer` to every
subset; `split`, at an assume node, applies `intervals.enforce` to the
subsets that take the assumption. `join_states` and `widen_param` go
variable by variable through one pointwise routine, `_combine`, and
`leq_param` is derived from it: `a` is below `b` when joining `a` into `b`
leaves `b`, exact because equal functions have equal normal forms.
`tally` is the one cell-wise query: per value of a plain function on the
cells of some variables, the mask of the subsets that yield it. Synthesis
reads its proved and refuted masks from it, and consistency its
infeasible ones. `mismatched`, the one cell comparison of both oracles,
tests a box of (lo, hi) endpoint pairs variable by variable.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Sequence

from .conditions import atom_mask, full_mask, render_mask
from .frontend import (
    Assign,
    AssumptionId,
    CfgNode,
    GuardFilter,
    Input,
    Record,
    op_variables,
)
from .intervals import BOTTOM, AssumeState, Interval, IntervalEnv, enforce, transfer


class Rule(Record, frozen=True):
    mask: int  # bit A set when assumption subset A takes this rule
    state: IntervalEnv


Partition = dict  # interval (None: the unreached subsets) -> nonempty subset mask


def product(cover: int, columns: Iterable[Iterable[tuple[object, int]]]) -> list[tuple[int, tuple]]:
    """(mask, payloads) for every nonempty intersection of `cover` with one
    cell of each column, a column being (payload, mask) cells; the payloads
    are those of the cells, in column order."""
    rows = [(cover, ())] if cover else []
    for column in columns:
        rows = [(both, got + (p,)) for mask, got in rows for p, m in column if (both := mask & m)]
    return rows


class ParamState:
    """Immutable factored state over a program's assumptions."""

    __slots__ = ("atoms", "reach", "names", "parts")

    atoms: tuple[AssumptionId, ...]
    reach: int  # the subsets whose state is not bottom
    names: tuple[str, ...]  # the variables, sorted; () when nothing is reached
    parts: tuple[Partition, ...]  # one partition per variable, in `names` order

    def __init__(self, atoms, reach: int, names: tuple[str, ...], parts: tuple) -> None:
        """Fields that form the partitions the module docstring describes; unchecked."""
        self.atoms, self.reach, self.names, self.parts = atoms, reach, names, parts

    @property
    def width(self) -> int:
        return len(self.atoms)

    @staticmethod
    def of_state(state: IntervalEnv, atoms: tuple[AssumptionId, ...]) -> "ParamState":
        if state.is_bottom:
            return ParamState.bottom(atoms)
        full = full_mask(len(atoms))
        parts = tuple({iv: full} for _, iv in state.items())
        return ParamState(atoms, full, state.variables(), parts)

    @staticmethod
    def bottom(atoms: tuple[AssumptionId, ...]) -> "ParamState":
        return ParamState(atoms, 0, (), ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamState):
            return NotImplemented
        return (self.reach, self.parts, self.names, self.atoms) == (
            other.reach, other.parts, other.names, other.atoms
        )

    def __hash__(self) -> int:  # `__eq__` tells atoms apart; one analysis has one atom tuple
        return hash((self.reach, self.names, tuple(frozenset(p.items()) for p in self.parts)))

    def __repr__(self) -> str:
        return f"ParamState({self.render()})"

    def render(self) -> str:
        atoms, names = self.atoms, self.names
        envs = ((mask, BOTTOM if b is None else IntervalEnv(b, names)) for mask, b in self.expand())
        return "; ".join(f"{render_mask(mask, atoms)} -> {env.render()}" for mask, env in envs)

    def columns(self, index: Iterable[int] | None = None) -> list[list[tuple[tuple, int]]]:
        """Per variable (by default every one, else those at `index`), its
        reached cells as ((name, interval), mask) for `product`."""
        index = range(len(self.names)) if index is None else index
        return [
            [((self.names[i], iv), mask) for iv, mask in self.parts[i].items() if iv is not None]
            for i in index
        ]

    def project(
        self, variables: set[str], cover: int
    ) -> tuple[list[int], list[tuple[int, IntervalEnv]]]:
        """The positions of `variables` among the state's, and for each cell of
        the product of their partitions within `cover`, a mask of reached
        subsets, (mask, environment of those variables alone)."""
        index = [i for i, var in enumerate(self.names) if var in variables]
        names = tuple(self.names[i] for i in index)
        cells = product(cover, self.columns(index))
        return index, [(mask, IntervalEnv(bindings, names)) for mask, bindings in cells]

    def tally(self, variables: set[str], fn: Callable[[IntervalEnv], object]) -> dict:
        """For each value of `fn` on the cells of the product of the partitions
        of `variables` (environments of those variables alone), the mask of
        the reached subsets whose cell yields it."""
        out: dict = {}
        for mask, env in self.project(variables, self.reach)[1]:
            value = fn(env)
            out[value] = out.get(value, 0) | mask
        return out

    def expand(self, text: Callable | None = None, texts: dict | None = None) -> list:
        """The rules in lowest-subset order, each as (mask, cells): its cell of
        every variable, a (name, interval) binding or, given `text`, its text
        `text(name, interval)`, made once per key of the memo `texts`; None
        for the bottom rule."""
        columns = self.columns()
        if text is not None:
            columns = [
                [(texts.get(c) or texts.setdefault(c, text(*c)), mask) for c, mask in cells]
                for cells in columns
            ]
        rows = product(self.reach, columns)
        if gone := full_mask(self.width) ^ self.reach:
            rows.append((gone, None))
        rows.sort(key=lambda row: row[0] & -row[0])
        return rows

    @property
    def rules(self) -> tuple[Rule, ...]:
        """The rules in normal form."""
        names, rows = self.names, self.expand()
        return tuple(Rule(m, BOTTOM if b is None else IntervalEnv(b, names)) for m, b in rows)

    def state_for(self, accepted: int) -> IntervalEnv:
        """The state of subset `accepted`."""
        if not 0 <= accepted < 1 << self.width:
            raise ValueError(f"no rule applies to subset {accepted:#x}: {self.render()}")
        if not self.reach >> accepted & 1:
            return BOTTOM
        bit = 1 << accepted
        cells = [next(iv for iv, mask in part.items() if mask & bit) for part in self.parts]
        return IntervalEnv(tuple(zip(self.names, cells)), self.names)


def normalize(state: ParamState, reach: int, parts: Sequence) -> ParamState:
    """`state` over the reached subsets `reach`, with new partitions, in normal form.

    Each item of `parts` is a variable's partition: a dict, kept (a dict
    of the state's own may only lose reached subsets), or a list of
    (interval, mask) cells, pooled so that equal intervals share one cell
    and replaced by the state's own partition if it equals that. Subsets
    outside `reach` go to every sentinel cell. `state` itself comes back
    when nothing changed.
    """
    if not reach:
        return state if not state.reach else ParamState.bottom(state.atoms)
    gone = full_mask(state.width) ^ reach
    out = []
    for old, new in zip(state.parts, parts):
        if new.__class__ is list:
            pooled: Partition = {}
            for iv, mask in new:
                if mask := mask & reach:
                    pooled[iv] = pooled.get(iv, 0) | mask
            if gone:
                pooled[None] = gone
            new = old if pooled == old else pooled
        elif new.get(None, 0) != gone:  # some subsets became unreached
            new = {iv: m & reach for iv, m in new.items() if iv is not None and m & reach}
            new[None] = gone
        out.append(new)
    if reach == state.reach and all(map(operator.is_, out, state.parts)):
        return state
    return ParamState(state.atoms, reach, state.names, tuple(out))


def lift(
    state: ParamState, variables: set[str], step: Callable[[IntervalEnv], IntervalEnv], within: int
) -> ParamState:
    """The plain transformer `step` applied to the state of every reached
    subset in the mask `within`; the other subsets keep their cells.

    It runs once per cell of the product of the partitions of `variables`,
    on an environment of those variables alone, and may change only them; a
    cell whose result is bottom becomes unreached. `state` itself comes back
    when nothing changed.
    """
    cover = state.reach & within
    rest = state.reach ^ cover
    index, envs = state.project(variables, cover)
    cells = [[(iv, mask & rest) for iv, mask in state.parts[i].items()] for i in index]
    dead = 0
    for mask, env in envs:
        env = step(env)
        if env.is_bottom:
            dead |= mask
            continue
        for column, (_, iv) in zip(cells, env.items()):
            column.append((iv, mask))
    parts = list(state.parts)
    for i, column in zip(index, cells):
        parts[i] = column
    return normalize(state, state.reach & ~dead, parts)


def split(state: ParamState, assumption: AssumptionId, pi: AssumeState) -> ParamState:
    """Assume-node transformer: the plain analysis' step for a taken
    assumption, `enforce`, lifted to the subsets that take it; the others
    keep their state."""
    within = atom_mask(assumption.index, state.width)
    return lift(state, {var for var, _ in pi.intervals}, lambda env: enforce(env, pi), within)


def lift_transfer(state: ParamState, node: CfgNode) -> ParamState:
    """The node's plain transfer (`intervals.transfer`, not for assume nodes)
    lifted to every subset. Entry, exit, skip and assert nodes, and nodes
    that change nothing, give `state` itself."""
    if not isinstance(node.op, (Assign, Input, GuardFilter)):
        return state
    return lift(state, op_variables(node.op), lambda env: transfer(node, env), state.reach)


def _combine(a: ParamState, b: ParamState, op: Callable[[Interval, Interval], Interval]):
    """The pointwise `op` of two states, a bottom state its identity, variable by variable."""
    if a.atoms != b.atoms:
        raise ValueError("mismatched assumptions")
    if not b.reach or a is b:
        return a
    if not a.reach:
        return b
    if a.names != b.names:
        raise ValueError("mismatched variable universes")
    reach = a.reach | b.reach
    parts = [
        pa if pa is pb else [
            (y if x is None else x if y is None else op(x, y), mask)
            for mask, (x, y) in product(reach, (pa.items(), pb.items()))
        ]
        for pa, pb in zip(a.parts, b.parts)
    ]
    return normalize(a, reach, parts)


def join_states(states: Sequence[ParamState]) -> ParamState:
    """Pointwise join of the denoted functions; one state is returned itself."""
    if not states:
        raise ValueError("join of no parameterized states")
    joined = states[0]
    for state in states[1:]:
        joined = _combine(joined, state, Interval.join)
    return joined


def widen_param(prev: ParamState, nxt: ParamState) -> ParamState:
    """Pointwise widening of the denoted functions, variable by variable."""
    return _combine(prev, nxt, Interval.widen)


def leq_param(a: ParamState, b: ParamState) -> bool:
    """Pointwise order on the denoted functions: joining `a` into `b` leaves `b`."""
    return _combine(b, a, Interval.join) == b


def mismatched(state: ParamState, names: tuple, box: Sequence | None, subsets: int, exact: bool) -> int:
    """The subsets in the mask `subsets` whose state is not (`exact`) or does not hold
    `box`: a (lo, hi) pair of endpoints per variable of `names`, or None for bottom."""
    if box is None:
        return subsets & state.reach if exact else 0
    if state.reach and names != state.names:
        raise ValueError("mismatched variable universes")
    good = subsets & state.reach  # none of them in the sentinel cell (None)
    for (lo, hi), part in zip(box, state.parts):
        for y, mask in part.items():
            if mask & good and not (lo == y.lo and hi == y.hi if exact else y.lo <= lo and hi <= y.hi):
                good &= ~mask
    return subsets & ~good
