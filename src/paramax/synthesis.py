"""Assumption synthesis: which assumption subsets prove every assertion.

From a parameterized analysis result, each assertion contributes the mask
of the subsets under which its check is proved, read off the cells of the
variables it compares; the intersection over all assertions is exactly the
set of subsets the analysis certifies. The verdict is `solutions` when that
set is nonempty, `impossible` when every remaining subset is actively
refuted at some assertion, and `unknown` otherwise. The minimal solutions
are read off the mask one cardinality layer at a time, never one subset at
a time.
"""

from __future__ import annotations

from enum import Enum

from .conditions import atom_mask, full_mask, members, render_mask
from .engine import AnalysisConfig, OracleReport, AnalysisResult, analyze_variants
from .frontend import (
    AssumptionId,
    Cfg,
    Record,
    assert_variables,
    render_assert,
)
from .intervals import ProofVerdict, proves

SOLUTION_CAP = 256  # most solutions an outcome lists, lowest subsets first


class SynthesisVerdict(Enum):
    SOLUTIONS = "solutions"
    UNKNOWN = "unknown"
    IMPOSSIBLE = "impossible"


class SynthesisOutcome(Record):
    condition: int  # mask of the subsets under which every assertion is proved
    verdict: SynthesisVerdict
    solutions: tuple[int, ...]  # present when verdict is SOLUTIONS (at most SOLUTION_CAP)
    minimal: tuple[int, ...]  # minimum-cardinality solutions, ascending
    per_assertion: dict[int, tuple[tuple[int, ProofVerdict], ...]]  # (rule mask, verdict)
    truncated: bool
    atoms: tuple[AssumptionId, ...]

    @property
    def width(self) -> int:
        return len(self.atoms)

    def to_json(self, names: dict | None = None) -> dict:
        """The outcome as JSON; `names` as in `render_mask`."""
        return {
            "syn_condition": render_mask(self.condition, self.atoms, names),
            "verdict": self.verdict.value,
            "solutions": list(self.solutions),
            "minimal_solutions": list(self.minimal),
            "truncated": self.truncated,
            "per_assertion": {
                str(node): [
                    {"condition": render_mask(mask, self.atoms, names), "verdict": verdict.value}
                    for mask, verdict in rows
                ]
                for node, rows in self.per_assertion.items()
            },
        }


def synthesize(result: AnalysisResult, cfg: Cfg) -> SynthesisOutcome:
    """Intersect, across assertions, the masks of the subsets whose states prove them.

    An assertion is checked once per cell of the variables it compares
    (`ParamState.tally`), and a bottom state proves it; its rows give the
    verdict of every rule of its node, in the rules' order. The solutions
    listed are the first `SOLUTION_CAP` members of the condition, and
    `truncated` says whether more exist.
    """
    width = len(cfg.assumptions)
    full = full_mask(width)
    condition = full
    refuted_anywhere = 0
    per_assertion: dict[int, tuple[tuple[int, ProofVerdict], ...]] = {}
    for node in cfg.assert_nodes():
        state = result.states[node.id]
        test = node.op.test
        verdicts = state.tally(assert_variables(test), lambda env: proves(env, test))
        proved = verdicts.get(ProofVerdict.PROVED, 0) | full ^ state.reach
        refuted = verdicts.get(ProofVerdict.REFUTED, 0)
        condition &= proved
        refuted_anywhere |= refuted
        per_assertion[node.id] = tuple(
            (mask, ProofVerdict.PROVED if mask & proved else
             ProofVerdict.REFUTED if mask & refuted else ProofVerdict.UNKNOWN)
            for mask, _ in state.expand()
        )

    if condition:
        verdict = SynthesisVerdict.SOLUTIONS
    elif refuted_anywhere == full:  # every subset hits a refuted assertion
        verdict = SynthesisVerdict.IMPOSSIBLE
    else:
        verdict = SynthesisVerdict.UNKNOWN

    # the least cardinality layer that meets the condition: the subsets of
    # size k+1 are those of size k, each extended by one atom it lacks
    layer = 1  # the empty set
    if condition:
        atoms = [(atom_mask(i, width), 1 << i) for i in range(width)]
        while not layer & condition:
            nxt = 0
            for pattern, shift in atoms:
                nxt |= (layer & ~pattern) << shift
            layer = nxt
    solutions = []
    rest = condition
    while rest and len(solutions) < SOLUTION_CAP:
        low = rest & -rest
        solutions.append(low.bit_length() - 1)
        rest ^= low
    return SynthesisOutcome(
        condition=condition,
        verdict=verdict,
        solutions=tuple(solutions),
        minimal=tuple(members(layer & condition)),
        per_assertion=per_assertion,
        truncated=rest != 0,
        atoms=cfg.assumptions,
    )


def verify_solutions(
    cfg: Cfg,
    outcome: SynthesisOutcome,
    config: AnalysisConfig | None = None,
    limit: int = 8,
    program_name: str = "<program>",
) -> OracleReport:
    """Re-analyze restricted variants and re-prove every assertion.

    Checks the first `limit` (at least 0) of the reported solutions with the
    plain analysis (one `analyze_variants` sweep); any assertion not proved
    is a mismatch.
    """
    if limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    if outcome.verdict is not SynthesisVerdict.SOLUTIONS:
        raise ValueError("can only verify a solutions outcome")
    config = config or AnalysisConfig()
    chosen = outcome.solutions[:limit]
    report = OracleReport("synthesis", program_name, len(chosen), "reproof")
    for group, base in analyze_variants(cfg, config, sum(1 << accepted for accepted in chosen)):
        if not base.converged:
            report.skipped += members(group)
            continue
        for node in cfg.assert_nodes():
            verdict = proves(base.states[node.id], node.op.test)
            if verdict is not ProofVerdict.PROVED:
                found = {"assertion": render_assert(node.op.test), "verdict": verdict.value}
                report.record(group, node.id, **found)
    report.sort()
    return report
