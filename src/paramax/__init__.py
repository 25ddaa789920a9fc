"""Interval static analysis parameterized by labeled program assumptions.

The analyzer runs once per program and produces, at every CFG node, a small
set of rules mapping assumption subsets to interval states: asking "what
would the analysis say under these assumptions?" becomes a table lookup
instead of a re-analysis. On top of that sit two applications, assumption
synthesis (which subsets prove all assertions) and consistency bounds
(which subsets survive their own analysis), plus brute-force oracles that
make the correctness claims executable.
"""

from .conditions import (
    And,
    Atom,
    Condition,
    FALSE,
    Not,
    Or,
    TRUE,
    format_subset,
    formula,
    satisfying_sets,
    simplify,
)
from .consistency import (
    ConsistencyReport,
    Membership,
    brute_force_fixpoints,
    consistency_bounds,
    consistency_report,
    refuting_condition,
)
from .engine import (
    AnalysisConfig,
    AnalysisResult,
    CollectingResult,
    OracleReport,
    WidthCapError,
    analyze_baseline,
    analyze_param,
    analyze_variants,
    run_collecting,
    verify_equivalence,
    verify_soundness,
)
from .frontend import (
    AssumptionId,
    AtomicConstraint,
    Cfg,
    CfgNode,
    ParseError,
    dump_cfg,
    parse_cfg,
    restrict,
)
from .intervals import (
    BOTTOM,
    AssumeState,
    Interval,
    IntervalEnv,
    NEG_INF,
    POS_INF,
    ProofVerdict,
    enforce,
    feasible,
    gamma_contains,
    proves,
    transfer,
)
from .param import (
    ParamState,
    Rule,
    join_states,
    leq_param,
    normalize,
    split,
    widen_param,
)
from .synthesis import (
    SynthesisOutcome,
    SynthesisVerdict,
    synthesize,
    verify_solutions,
)

__version__ = "0.1.0"
