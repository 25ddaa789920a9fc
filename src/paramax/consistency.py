"""Consistency bounds on assumption sets.

An assumption set is consistent when re-analyzing under it neither refutes
any member nor admits any outside assumption. Refutation is read off the
parameterized result: an assumption is refuted under a subset when the
subset's state at its assume node is bottom or misses a bound, read off the
cells of the variables the assumption bounds. The induced operator (subset
-> surviving assumptions) is anti-monotone, so its square is monotone;
iterating the square from the empty set yields a core contained in every
consistent set, and its image an envelope containing them all. The set of
all fixpoints, built as one mask from the refuting tables, serves as the
oracle.
"""

from __future__ import annotations

from enum import Enum

from .conditions import atom_mask, full_mask, members
from .engine import ORACLE_CAP, AnalysisResult, _check_oracle_cap
from .frontend import Assume, AssumptionId, Cfg, Record, op_variables
from .intervals import AssumeState, feasible


class Membership(Enum):
    IN_EVERY = "in-every-consistent-set"
    IN_SOME = "in-some-consistent-set"
    NEVER = "never-consistent"


class ConsistencyReport(Record):
    core: int  # assumptions present in every consistent set
    envelope: int  # assumptions present in at least one consistent set
    classification: dict[str, Membership]  # by label, in assumption order
    phi_table: dict[int, int] | None
    fixpoints: tuple[int, ...] | None

    def to_json(self) -> dict:
        out = {
            "core": self.core,
            "envelope": self.envelope,
            "classification": {k: v.value for k, v in self.classification.items()},
        }
        if self.phi_table is not None:
            out["phi_table"] = {str(k): v for k, v in self.phi_table.items()}
        if self.fixpoints is not None:
            out["fixpoints"] = list(self.fixpoints)
        return out


def refuting_condition(
    result: AnalysisResult, cfg: Cfg, assumption: AssumptionId
) -> int:
    """The mask of the subsets whose state at the assume node has no feasible
    state, tested once per cell of the variables the assumption bounds."""
    node = cfg.nodes[assumption.node_id]
    if not isinstance(node.op, Assume):
        raise ValueError(f"node {assumption.node_id} is not an assume node")
    pi = AssumeState.from_constraint(node.op.constraint)
    state = result.states[node.id]
    infeasible = state.tally(op_variables(node.op), lambda env: feasible(env, pi)).get(False, 0)
    return full_mask(len(cfg.assumptions)) ^ state.reach | infeasible  # bottom admits nothing


def _refuting_tables(result: AnalysisResult, cfg: Cfg) -> list[int]:
    return [refuting_condition(result, cfg, a) for a in cfg.assumptions]


def _phi(tables: list[int], assumptions, accepted: int) -> int:
    out = 0
    for aid, table in zip(assumptions, tables):
        if not (table >> accepted) & 1:
            out |= 1 << aid.index
    return out


def _phi_table(tables: list[int], assumptions) -> dict[int, int]:
    """`_phi` of every subset, read off the tables column-wise: one bit string
    per assumption, character A set when its table lacks A, transposed."""
    width, size = len(assumptions), 1 << len(assumptions)
    columns = ["0" * size] * (width + 1)  # column 0 is a leading zero, so width 0 has a row
    for aid, table in zip(assumptions, tables):
        columns[width - aid.index] = format(full_mask(width) & ~table, f"0{size}b")[::-1]
    return {a: int("".join(bits), 2) for a, bits in enumerate(zip(*columns))}


def consistency_bounds(
    result: AnalysisResult, cfg: Cfg, tables: list[int] | None = None
) -> tuple[int, int]:
    """(core, envelope): bounds sandwiching every consistent assumption set.

    The core is the least fixpoint of the squared operator, iterated from
    the empty set; the envelope is its image. The dual iteration from the
    full set must land on the same pair, which is asserted.
    `tables`, if given, are the refuting tables of `_refuting_tables`.
    """
    width = len(cfg.assumptions)
    if tables is None:
        tables = _refuting_tables(result, cfg)
    assumptions = cfg.assumptions

    def iterate(accepted: int) -> int:
        """The squared operator iterated from `accepted` until it is stable."""
        for _ in range(width + 2):
            nxt = _phi(tables, assumptions, _phi(tables, assumptions, accepted))
            if nxt == accepted:
                break
            accepted = nxt
        return accepted

    core = iterate(0)
    envelope = _phi(tables, assumptions, core)

    upper = iterate((1 << width) - 1)
    if upper != envelope:
        raise AssertionError(f"fixpoint iterations disagree: envelope {envelope:#x} vs {upper:#x}")
    return core, envelope


def brute_force_fixpoints(
    result: AnalysisResult, cfg: Cfg, tables: list[int] | None = None
) -> list[int]:
    """All subsets the operator maps to themselves; the oracle for bounds.
    A program with more than `ORACLE_CAP` assumptions raises ValueError."""
    width = len(cfg.assumptions)
    _check_oracle_cap(width)
    if tables is None:
        tables = _refuting_tables(result, cfg)
    fixed = full_mask(width)
    for aid, table in zip(cfg.assumptions, tables):
        fixed &= atom_mask(aid.index, width) ^ table  # A holds aid iff aid's table lacks A
    return members(fixed)


def consistency_report(
    result: AnalysisResult,
    cfg: Cfg,
    include_phi_table: bool | None = None,
) -> ConsistencyReport:
    """Classify each assumption against the consistency bounds.

    The full operator table is attached up to 6 assumptions (or on
    request), and the brute-forced fixpoints up to `ORACLE_CAP`.
    """
    width = len(cfg.assumptions)
    tables = _refuting_tables(result, cfg)
    core, envelope = consistency_bounds(result, cfg, tables)
    classification = {}
    for aid in cfg.assumptions:
        bit = 1 << aid.index
        if core & bit:
            classification[aid.label] = Membership.IN_EVERY
        elif envelope & bit:
            classification[aid.label] = Membership.IN_SOME
        else:
            classification[aid.label] = Membership.NEVER

    if include_phi_table is None:
        include_phi_table = width <= 6
    phi_table = _phi_table(tables, cfg.assumptions) if include_phi_table else None
    fixpoints = (
        tuple(brute_force_fixpoints(result, cfg, tables)) if width <= ORACLE_CAP else None
    )
    return ConsistencyReport(
        core=core,
        envelope=envelope,
        classification=classification,
        phi_table=phi_table,
        fixpoints=fixpoints,
    )
