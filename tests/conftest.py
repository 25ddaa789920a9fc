"""Shared fixtures: corpus access and random rule-state generation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from paramax.conditions import And, Atom, Condition, Not, TRUE, truth_table
from paramax.engine import AnalysisConfig, OracleReport, analyze_param, run_collecting
from paramax.frontend import AssumptionId, parse_cfg, restrict
from paramax.intervals import BOTTOM, Interval, IntervalEnv, NEG_INF, POS_INF, gamma_contains
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


def env(**bounds) -> IntervalEnv:
    return IntervalEnv.of({v: Interval(lo, hi) for v, (lo, hi) in bounds.items()})


def fake_assumptions(width: int) -> list[AssumptionId]:
    return [AssumptionId(i, f"a{i + 1}", i) for i in range(width)]


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
) -> ParamState:
    """Random partition-respecting rule state with optional unsat extras.

    Conditions come from a random decision tree over the atoms (compact
    formulas rather than full minterm expansions); result states repeat
    often so merging steps have work to do.
    """
    pool = state_pool or _STATE_POOL
    atoms = fake_assumptions(width)
    leaves: list[Condition] = [TRUE]
    depth = rng.randint(0, min(2, width))
    chosen = rng.sample(range(width), depth) if depth else []
    for index in chosen:
        split_leaves = []
        for leaf in leaves:
            a = Atom(atoms[index])
            yes = a if isinstance(leaf, type(TRUE)) else And((leaf, a))
            no = Not(a) if isinstance(leaf, type(TRUE)) else And((leaf, Not(a)))
            split_leaves += [yes, no]
        leaves = split_leaves
    rules = [Rule(leaf, rng.choice(pool)) for leaf in leaves]
    for _ in range(rng.randint(0, max_unsat_extras)):
        index = rng.randrange(width) if width else 0
        if width:
            contradiction = And((Atom(atoms[index]), Not(Atom(atoms[index]))))
            rules.insert(rng.randint(0, len(rules)), Rule(contradiction, rng.choice(pool)))
    rng.shuffle(rules)
    return ParamState(tuple(rules), width)


def canonical_rule_key(state: ParamState):
    """Per-rule (subset mask, result state) pairs, ordered by mask."""
    pairs = [
        (truth_table(rule.condition, state.width), rule.state) for rule in state.rules
    ]
    return tuple(sorted(pairs, key=lambda p: p[0]))


def reference_soundness(
    cfg,
    config: AnalysisConfig | None = None,
    input_range: tuple[int, int] = (-8, 8),
    step_bound: int = 100_000,
    program_name: str = "<program>",
    param=None,
) -> OracleReport:
    """The soundness oracle as a per-subset loop: the spec of `verify_soundness`.

    Every subset's restricted program is run on its own, each node's
    abstract state is looked up with `state_for`, and every collected
    concrete state is tested with `gamma_contains`.
    """
    config = config or AnalysisConfig()
    width = len(cfg.assumptions)
    report = OracleReport("soundness", program_name, 1 << width, "membership")
    param = param or analyze_param(cfg, config)
    if not param.converged:
        report.skipped = list(range(1 << width))
        return report
    for accepted in range(1 << width):
        collected = run_collecting(restrict(cfg, accepted), input_range, step_bound)
        if collected.truncated:
            report.partial.append(accepted)
        for node in cfg.nodes:
            abstract = param.states[node.id].state_for(accepted)
            for values in collected.states[node.id]:
                if not gamma_contains(abstract, values):
                    report.mismatches.append({"subset": accepted, "node": node.id, "state": values})
    return report
