"""Outside-in layer trace for one forked child.

`install` replaces the public functions at each paramax module boundary
with wrappers that record one span per call: name, start, end and parent
span. The modules import names directly (`from .param import join_states`),
so every module's binding of a function is replaced, not only the one in
the defining module. Nothing under `src/` changes.

Spans stay in memory; `Tracer.summary` turns them into per-name call counts
and self times (a span's duration minus the time its child spans cover)
when the program ends.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span name, defining module, function) for each traced boundary.
FUNCTIONS = (
    ("frontend.parse_cfg", "paramax.frontend", "parse_cfg"),
    ("frontend.restrict", "paramax.frontend", "restrict"),
    ("intervals.transfer", "paramax.intervals", "transfer"),
    ("intervals.gamma_contains", "paramax.intervals", "gamma_contains"),
    ("conditions.truth_table", "paramax.conditions", "truth_table"),
    ("conditions.simplify", "paramax.conditions", "simplify"),
    ("conditions.satisfying_sets", "paramax.conditions", "satisfying_sets"),
    ("param.split", "paramax.param", "split"),
    ("param.join_states", "paramax.param", "join_states"),
    ("param.normalize", "paramax.param", "normalize"),
    ("param.widen_param", "paramax.param", "widen_param"),
    ("engine.analyze_param", "paramax.engine", "analyze_param"),
    ("engine.analyze_baseline", "paramax.engine", "analyze_baseline"),
    ("engine.run_collecting", "paramax.engine", "run_collecting"),
    ("engine.verify_equivalence", "paramax.engine", "verify_equivalence"),
    ("engine.verify_soundness", "paramax.engine", "verify_soundness"),
    ("synthesis.synthesize", "paramax.synthesis", "synthesize"),
    ("synthesis.verify_solutions", "paramax.synthesis", "verify_solutions"),
    ("consistency.consistency_report", "paramax.consistency", "consistency_report"),
    ("consistency.refuting_condition", "paramax.consistency", "refuting_condition"),
    ("cli.document", "paramax.cli", "analysis_document"),
    ("cli.emit", "paramax.cli", "_emit"),
)
# IntervalEnv's lattice operations share one span name.
ENV_OPS = ("intervals.env_ops", ("join", "meet", "leq", "widen"))
CACHED = ("conditions.truth_table", "conditions.simplify")  # lru_caches: hit ratios
NAMES = tuple(name for name, _, _ in FUNCTIONS) + (ENV_OPS[0],)
_FIELDS = 4  # name, start ns, end ns, parent index (-1 at top level)


class Tracer:
    def __init__(self) -> None:
        self.spans = array("q")
        self.evaluations = 0
        self._stack = [-1]  # indexes of the open spans
        self._covered = [0]  # per open span: time covered by finished children
        self._caches: dict[str, object] = {}

    def wrap(self, name_id: int, fn, count_evaluations: bool = False):
        spans, stack, covered = self.spans, self._stack, self._covered
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans) // _FIELDS
            spans.extend((name_id, 0, 0, stack[-1]))
            stack.append(index)
            covered.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered.pop()
                covered[-1] += end - start
                spans[index * _FIELDS + 1] = start
                spans[index * _FIELDS + 2] = end
            if count_evaluations:
                self.evaluations += result.iterations
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per-name calls and self time, plus the figures of derived metrics."""
        spans = self.spans
        count = len(spans) // _FIELDS
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        for i in range(count):
            base = i * _FIELDS
            name_id = spans[base]
            duration = spans[base + 2] - spans[base + 1]
            calls[name_id] += 1
            self_ns[name_id] += duration
            parent = spans[base + 3]
            if parent >= 0:
                self_ns[spans[parent * _FIELDS]] -= duration
        out = {
            "calls": dict(zip(NAMES, calls)),
            "self_ns": dict(zip(NAMES, self_ns)),
            "evaluations": self.evaluations,
            "spans": count,
        }
        for name, cached in self._caches.items():
            info = cached.cache_info()
            out[name] = {"hits": info.hits, "lookups": info.hits + info.misses}
        out.update(self._one_pass_figures())
        return out

    def _one_pass_figures(self) -> dict:
        """Time of the per-subset re-analyses and of the one-pass analysis.

        A re-analysis is one `restrict` plus one `analyze_baseline`; restricts
        made for the concrete-execution oracle are not part of it.
        """
        spans = self.spans
        ids = {name: i for i, name in enumerate(NAMES)}
        restrict, baseline = ids["frontend.restrict"], ids["engine.analyze_baseline"]
        param, soundness = ids["engine.analyze_param"], ids["engine.verify_soundness"]
        rerun_ns = param_ns = baseline_calls = param_calls = 0
        for i in range(len(spans) // _FIELDS):
            base = i * _FIELDS
            name_id = spans[base]
            duration = spans[base + 2] - spans[base + 1]
            if name_id == baseline:
                rerun_ns += duration
                baseline_calls += 1
            elif name_id == restrict:
                parent = spans[base + 3]
                if parent < 0 or spans[parent * _FIELDS] != soundness:
                    rerun_ns += duration
            elif name_id == param:
                param_ns += duration
                param_calls += 1
        return {
            "rerun_ns": rerun_ns,
            "reruns": baseline_calls,
            "param_ns": param_ns,
            "param_calls": param_calls,
        }


def install() -> Tracer:
    """Wrap every traced boundary in the loaded paramax modules."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name.startswith("paramax") and m is not None]
    for name_id, (name, module, attribute) in enumerate(FUNCTIONS):
        original = getattr(sys.modules[module], attribute)
        if name in CACHED:
            tracer._caches[name] = original
        counting = name in ("engine.analyze_param", "engine.analyze_baseline")
        wrapper = tracer.wrap(name_id, original, count_evaluations=counting)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    env_class = sys.modules["paramax.intervals"].IntervalEnv
    env_id = NAMES.index(ENV_OPS[0])
    for method in ENV_OPS[1]:
        setattr(env_class, method, tracer.wrap(env_id, getattr(env_class, method)))
    return tracer
