"""Integer interval environments: the base lattice of the analysis.

An `IntervalEnv` is either the distinguished bottom element or a total map
from the program's variables to intervals. Endpoints are 64-bit integers
plus infinity sentinels; arithmetic saturates at the sentinels, which only
ever widens a result and therefore stays sound. A program's constants may
be longer: where one past float range meets an infinity, the infinity
absorbs it.

Each lattice operation on environments is defined once: `join` and
`widen` share one pointwise loop, `leq` is derived from the join (a is
below b when a joined with b is b), and `meet` takes an environment as the
assumption encoding that bounds every variable.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Union

from .frontend import (
    AssertAnd,
    AssertExpr,
    Assign,
    Assume,
    AtomicConstraint,
    CfgNode,
    Comparison,
    GuardFilter,
    Input,
    LinearExpr,
    Operand,
    Record,
    Rel,
    _setattr,
)

NEG_INF = float("-inf")
POS_INF = float("inf")
_LIMIT = 2**63 - 1
_INF_TEXT = {NEG_INF: "-inf", POS_INF: "+inf"}  # how infinite endpoints print

Endpoint = Union[int, float]


def _sat_lo(lo: Endpoint) -> Endpoint:
    if lo == NEG_INF or lo == POS_INF:
        return lo
    if lo < -_LIMIT:
        return NEG_INF
    if lo > _LIMIT:
        return _LIMIT
    return int(lo)


def _sat_hi(hi: Endpoint) -> Endpoint:
    if hi == NEG_INF or hi == POS_INF:
        return hi
    if hi > _LIMIT:
        return POS_INF
    if hi < -_LIMIT:
        return -_LIMIT
    return int(hi)


class Interval(Record, frozen=True):
    """Nonempty integer interval [lo, hi]; emptiness lives at the env level."""

    __slots__ = ("lo", "hi")  # built per transfer: slots and methods written out
    lo: Endpoint
    hi: Endpoint

    def __init__(self, lo: Endpoint, hi: Endpoint) -> None:
        if lo > hi or lo == POS_INF or hi == NEG_INF:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @staticmethod
    def top() -> "Interval":
        return _TOP_INTERVAL

    @staticmethod
    def make(lo: Endpoint, hi: Endpoint) -> "Interval":
        return Interval(_sat_lo(lo), _sat_hi(hi))

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return None if lo > hi else Interval(lo, hi)

    def widen(self, nxt: "Interval") -> "Interval":
        lo = self.lo if nxt.lo >= self.lo else NEG_INF
        hi = self.hi if nxt.hi <= self.hi else POS_INF
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        try:
            return Interval.make(self.lo + other.lo, self.hi + other.hi)
        except OverflowError:  # an int past float range met an infinity, which absorbs it
            lo = NEG_INF if NEG_INF in (self.lo, other.lo) else self.lo + other.lo
            hi = POS_INF if POS_INF in (self.hi, other.hi) else self.hi + other.hi
            return Interval.make(lo, hi)

    def scale(self, coef: int) -> "Interval":
        if coef == 0:  # 0 * inf would be NaN; the parser drops zero terms, a hand-built form may not
            return Interval(0, 0)
        try:
            lo, hi = coef * self.lo, coef * self.hi
        except OverflowError:  # an int past float range times an infinity: the signed infinity
            sign = 1 if coef > 0 else -1
            lo, hi = (x * sign if x in _INF_TEXT else coef * x for x in (self.lo, self.hi))
        return Interval.make(lo, hi) if coef > 0 else Interval.make(hi, lo)

    def render(self) -> str:
        return f"[{_INF_TEXT.get(self.lo, self.lo)},{_INF_TEXT.get(self.hi, self.hi)}]"

    def to_json(self) -> list:
        return [_INF_TEXT.get(self.lo, self.lo), _INF_TEXT.get(self.hi, self.hi)]


_TOP_INTERVAL = Interval(NEG_INF, POS_INF)


class IntervalEnv:
    """Total map from variables to intervals, or the unique bottom element."""

    __slots__ = ("_bindings", "_names", "_hash")

    # None marks bottom; otherwise a name-sorted tuple of (var, Interval).
    # `_names` (the variable names; derived envs share one tuple, so a
    # universe check builds none) and `_hash` are filled on first use.
    def __init__(self, bindings: tuple[tuple[str, Interval], ...] | None, names=None):
        self._bindings = bindings
        self._names = names
        self._hash: int | None = None

    @staticmethod
    def top(variables) -> "IntervalEnv":
        names = tuple(sorted(variables))
        return IntervalEnv(tuple((v, _TOP_INTERVAL) for v in names), names)

    @property
    def is_bottom(self) -> bool:
        return self._bindings is None

    def variables(self) -> tuple[str, ...]:
        if self._names is None:
            self._names = () if self._bindings is None else tuple(v for v, _ in self._bindings)
        return self._names

    def get(self, var: str) -> Interval:
        if self._bindings is None:
            raise ValueError("bottom environment has no bindings")
        for name, iv in self._bindings:
            if name == var:
                return iv
        raise KeyError(var)

    def updated(self, var: str, iv: Interval) -> "IntervalEnv":
        if self._bindings is None or (var, iv) in self._bindings:  # nothing changes
            return self
        bindings = tuple((n, iv if n == var else old) for n, old in self._bindings)
        return IntervalEnv(bindings, self._names)

    def items(self) -> tuple[tuple[str, Interval], ...]:
        if self._bindings is None:
            raise ValueError("bottom environment has no bindings")
        return self._bindings

    def _check_universe(self, other: "IntervalEnv") -> None:
        if self._bindings is None or other._bindings is None:
            return
        if self.variables() != other.variables():
            raise ValueError("mismatched variable universes")

    def _combine(self, other: "IntervalEnv", op) -> "IntervalEnv":
        """The pointwise `op` of two environments, bottom its identity."""
        self._check_universe(other)
        if self._bindings is None:
            return other
        if other._bindings is None:
            return self
        pairs = zip(self._bindings, other._bindings)
        return IntervalEnv(tuple((v, op(a, b)) for (v, a), (_, b) in pairs), self._names)

    def join(self, other: "IntervalEnv") -> "IntervalEnv":
        return self._combine(other, Interval.join)

    def widen(self, nxt: "IntervalEnv") -> "IntervalEnv":
        return self._combine(nxt, Interval.widen)

    def leq(self, other: "IntervalEnv") -> bool:
        return self.join(other) == other

    def meet(self, other: "IntervalEnv | AssumeState") -> "IntervalEnv":
        """The meet with an assumption's encoding, or with an environment as
        the encoding that bounds every variable."""
        if isinstance(other, IntervalEnv):
            self._check_universe(other)
            bounds, empty = other._bindings, other._bindings is None
        else:
            bounds, empty = other.intervals, other.is_empty
        if self._bindings is None or empty:
            return BOTTOM
        bounds = dict(bounds)
        out = []
        for v, a in self._bindings:
            if (b := bounds.get(v)) is not None and (a := a.meet(b)) is None:
                return BOTTOM
            out.append((v, a))
        return IntervalEnv(tuple(out), self._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalEnv):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._bindings)
        return self._hash

    def render(self) -> str:
        if self._bindings is None:
            return "bottom"
        if not self._bindings:
            return "{}"
        return " ".join(f"{v}:{iv.render()}" for v, iv in self._bindings)

    def __repr__(self) -> str:
        return f"IntervalEnv({self.render()})"

    def to_json(self):
        """"bottom", or [lo, hi] per variable."""
        if self._bindings is None:
            return "bottom"
        return {v: iv.to_json() for v, iv in self._bindings}


BOTTOM = IntervalEnv(None)


class AssumeState(Record, frozen=True):
    """The interval encoding of an assumption's constraint.

    Maps only the mentioned variables; unmentioned variables are implicitly
    unconstrained. A constraint whose conjuncts contradict each other has no
    representable state; it is marked empty and meets to bottom.
    """

    intervals: tuple[tuple[str, Interval], ...]
    is_empty: bool = False

    @staticmethod
    def from_constraint(constraint: AtomicConstraint) -> "AssumeState":
        acc: dict[str, Interval] = {}
        for bound in constraint.bounds:
            if bound.op is Rel.LE:
                iv = Interval(NEG_INF, bound.value)
            elif bound.op is Rel.GE:
                iv = Interval(bound.value, POS_INF)
            else:
                iv = Interval(bound.value, bound.value)
            if bound.var in acc:
                met = acc[bound.var].meet(iv)
                if met is None:
                    return AssumeState((), is_empty=True)
                acc[bound.var] = met
            else:
                acc[bound.var] = iv
        return AssumeState(tuple(sorted(acc.items())), False)  # every field: no default lookup


def enforce(env: IntervalEnv, state: AssumeState) -> IntervalEnv:
    """Force an assumption onto a state by meeting with its encoding."""
    return env.meet(state)


def feasible(env: IntervalEnv, state: AssumeState) -> bool:
    """Whether the state admits the assumption (the meet is not bottom)."""
    return not env.meet(state).is_bottom


def eval_linear(expr: LinearExpr, env: IntervalEnv) -> Interval:
    if env.is_bottom:
        raise ValueError("cannot evaluate in the bottom environment")
    acc = Interval(expr.constant, expr.constant)
    for coef, var in expr.terms:
        acc = acc.add(env.get(var).scale(coef))
    return acc


def _trim(iv: Interval, c: int) -> Interval:
    """`iv` without an endpoint equal to `c`; `iv` is not [c, c]."""
    if iv.lo == c:
        return Interval(c + 1, iv.hi)
    if iv.hi == c:
        return Interval(iv.lo, c - 1)
    return iv


def _refine_guard(env: IntervalEnv, test: Comparison) -> IntervalEnv:
    """Tighten each side of the test from the other side's bounds. A constant
    is a singleton side: it only decides whether the guard can hold."""
    lhs, op, rhs = test.lhs, test.op, test.rhs
    x, y = _operand_interval(env, lhs), _operand_interval(env, rhs)
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
        nx = _trim(x, y.lo) if y.lo == y.hi else x
        ny = _trim(y, x.lo) if x.lo == x.hi else y
    if nx is None or ny is None:
        return BOTTOM
    if isinstance(lhs, str):
        env = env.updated(lhs, nx)
    if isinstance(rhs, str):
        env = env.updated(rhs, ny)
    return env


def transfer(node: CfgNode, env: IntervalEnv) -> IntervalEnv:
    """Node transformer for everything but assume nodes.

    Assume nodes are handled by the caller (`enforce` for the plain analysis,
    rule splitting for the parameterized one).
    """
    op = node.op
    if isinstance(op, Assume):
        raise ValueError("assume nodes have no plain transfer; use enforce or split")
    if env.is_bottom:
        return env
    if isinstance(op, Assign):
        return env.updated(op.var, eval_linear(op.expr, env))
    if isinstance(op, Input):
        return env.updated(op.var, Interval.top())
    if isinstance(op, GuardFilter):
        return _refine_guard(env, op.test)
    return env  # entry, exit, skip, assert


class ProofVerdict(Enum):
    PROVED = "proved"
    UNKNOWN = "unknown"
    REFUTED = "refuted"


def _operand_interval(env: IntervalEnv, operand: Operand) -> Interval:
    if isinstance(operand, int):
        return Interval(operand, operand)
    return env.get(operand)


def _compare_verdict(a: Interval, op: Rel, b: Interval) -> ProofVerdict:
    if op is Rel.LE:
        if a.hi <= b.lo:
            return ProofVerdict.PROVED
        if a.lo > b.hi:
            return ProofVerdict.REFUTED
    elif op is Rel.LT:
        if a.hi < b.lo:
            return ProofVerdict.PROVED
        if a.lo >= b.hi:
            return ProofVerdict.REFUTED
    elif op is Rel.GE:
        return _compare_verdict(b, Rel.LE, a)
    elif op is Rel.GT:
        return _compare_verdict(b, Rel.LT, a)
    elif op is Rel.EQ:
        if a.lo == a.hi == b.lo == b.hi:
            return ProofVerdict.PROVED
        if a.hi < b.lo or b.hi < a.lo:
            return ProofVerdict.REFUTED
    else:
        raise ValueError(f"unsupported assertion operator {op}")
    return ProofVerdict.UNKNOWN


def proves(env: IntervalEnv, test: AssertExpr) -> ProofVerdict:
    """Three-valued assertion check; the bottom state proves everything."""
    if env.is_bottom:
        return ProofVerdict.PROVED
    if isinstance(test, Comparison):
        return _compare_verdict(
            _operand_interval(env, test.lhs), test.op, _operand_interval(env, test.rhs)
        )
    verdicts = [proves(env, part) for part in test.parts]
    if isinstance(test, AssertAnd):
        if all(v is ProofVerdict.PROVED for v in verdicts):
            return ProofVerdict.PROVED
        if any(v is ProofVerdict.REFUTED for v in verdicts):
            return ProofVerdict.REFUTED
    else:
        if any(v is ProofVerdict.PROVED for v in verdicts):
            return ProofVerdict.PROVED
        if all(v is ProofVerdict.REFUTED for v in verdicts):
            return ProofVerdict.REFUTED
    return ProofVerdict.UNKNOWN


def gamma_contains(env: IntervalEnv, values: Mapping[str, int]) -> bool:
    """Concretization membership: every variable's value lies in its interval."""
    if env.is_bottom:
        return False
    for var, iv in env.items():
        if var not in values:
            raise ValueError(f"concrete state is missing variable {var!r}")
        if not iv.contains(values[var]):
            return False
    return True
