"""Fork-per-program benchmark of the paramax CLI.

    python3 bench/run.py --workload tables|wide|oracle --seed N --seconds S --trace 0|1

The parent imports paramax from this checkout's `src/`, generates the
workload's programs from the seed, and then runs whole rounds of them until
S seconds have passed. Every operation is one `paramax.cli.main` call in a
child forked from the parent, which has analyzed nothing, so each program
starts from the empty process-global caches a real `paramax` invocation
has. The parent checks every output against the generator's answers.
One client, one program at a time, no threads.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` each child wraps the module boundaries (see
`layertrace.py`) and the metrics are per-layer figures, given per program.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import layertrace
import programs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_SPAWNS = 9  # fresh interpreters timed per run for setup_s
CHILD_TIMEOUT_S = 60.0


def import_paramax():
    """Import paramax.cli from this checkout's src/, refusing any other copy."""
    if not (SRC / "paramax" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'paramax'} not found; run from a paramax checkout")
    sys.path.insert(0, str(SRC))
    import paramax.cli

    found = Path(paramax.cli.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise SystemExit(f"error: imported paramax from {found}, not from {SRC}")
    return paramax.cli


def time_import() -> float:
    """Wall time for a fresh interpreter to import paramax.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import paramax.cli"], env=env, check=True)
    return time.perf_counter() - started


def _child(cli, request: dict) -> dict:
    tracer = layertrace.install() if request["traced"] else None
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(request["argv"])
        seconds = time.perf_counter() - started
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stdout = out.getvalue()
    report = {
        "code": code,
        "seconds": seconds,
        "rss_kib": rss_kib,
        "stdout": stdout,
        "stderr": err.getvalue(),
        "output_bytes": len(stdout.encode("utf-8")),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        if request["keep_spans"]:
            report["spans"] = tracer.spans.tolist()
    return report


def _wait_for_eof(fd: int, timeout: float) -> bool:
    """Whether the pipe's writer closed it (by exiting) within the timeout."""
    deadline = time.monotonic() + timeout
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return False
        if not os.read(fd, 4096):
            return True


def _fork_child(cli, request: dict) -> dict:
    """Run one CLI call in a forked child, which writes its report to a file."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                report = _child(cli, request)
            except Exception:
                report = {"error": traceback.format_exc()}
            with open(request["report"], "w", encoding="utf-8") as handle:
                json.dump(report, handle)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        finished = _wait_for_eof(read_fd, CHILD_TIMEOUT_S)
    finally:
        os.close(read_fd)
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if not finished:
        return {"error": f"no result within {CHILD_TIMEOUT_S:.0f} s"}
    if status != 0:
        return {"error": f"child exited with status {status}"}
    return {}


class Zygote:
    """A process frozen right after `import paramax` that forks the children.

    Forking from the parent itself would hand each child whatever heap the
    parent's output checks left behind, and that shows in the children's
    resident set. The zygote only passes short messages, and the children
    write their reports to files, so every child starts from the same
    process image.
    """

    def __init__(self, cli) -> None:
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(request_w)
                os.close(result_r)
                with os.fdopen(request_r, "rb") as requests, os.fdopen(result_w, "wb") as results:
                    for line in requests:
                        outcome = _fork_child(cli, json.loads(line))
                        results.write(json.dumps(outcome).encode("utf-8") + b"\n")
                        results.flush()
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(result_w)
        self.pid = pid
        self._requests = os.fdopen(request_w, "wb")
        self._results = os.fdopen(result_r, "rb")

    def run(self, argv: list[str], report: Path, traced: bool, keep_spans: bool) -> dict:
        request = {"argv": argv, "report": str(report), "traced": traced, "keep_spans": keep_spans}
        report.unlink(missing_ok=True)
        self._requests.write(json.dumps(request).encode("utf-8") + b"\n")
        self._requests.flush()
        line = self._results.readline()
        if not line:
            return {"error": "the forking process ended"}
        outcome = json.loads(line)
        if "error" in outcome:
            return outcome
        return json.loads(report.read_text(encoding="utf-8"))

    def close(self) -> None:
        self._requests.close()
        self._results.close()
        os.waitpid(self.pid, 0)


def run_operation(zygote: Zygote, op, path, traced: bool, keep_spans: bool):
    """(report, failure, wrong): failure when the child returned no result
    (an exception escaped cli.main, it crashed or it timed out), wrong when
    its exit code or output contradicts the answer."""
    report = zygote.run(op.argv(str(path)), path.with_suffix(".report.json"), traced, keep_spans)
    if "error" in report:
        return report, report["error"], None
    try:
        checks.check(op, report["code"], report["stdout"])
    except (checks.CheckFailed, KeyError, TypeError, IndexError) as exc:
        stderr = report["stderr"].strip()[:200]
        return report, None, f"{type(exc).__name__}: {exc}" + (f" ({stderr})" if stderr else "")
    return report, None, None


def end_to_end(samples: list[dict], setup: list[float]) -> dict:
    seconds = [s["seconds"] for s in samples]
    completed = sum(1 for s in samples if s["ok"])
    return {
        "program_ms.p50": {"value": statistics.median(seconds) * 1000, "unit": "ms"},
        "programs_per_s": {"value": completed / sum(seconds), "unit": "1/s"},
        "peak_rss_mib": {"value": max(s["rss_kib"] for s in samples) / 1024, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


# The traced spans whose call count and self time are per-layer metrics;
# the derived figures follow in `per_layer`.
SPAN_METRICS = (
    ("frontend.parse_cfg", ("ms",)),
    ("frontend.restrict", ("calls", "ms")),
    ("intervals.transfer", ("ms",)),
    ("intervals.env_ops", ("calls", "ms")),
    ("intervals.gamma_contains", ("calls",)),
    ("conditions.truth_table", ("calls", "ms")),
    ("conditions.simplify", ("calls", "ms")),
    ("conditions.satisfying_sets", ("calls", "ms")),
    ("param.split", ("calls", "ms")),
    ("param.join_states", ("calls", "ms")),
    ("param.normalize", ("calls", "ms")),
    ("param.widen_param", ("calls", "ms")),
    ("engine.analyze_param", ("calls", "ms")),
    ("engine.analyze_baseline", ("calls", "ms")),
    ("engine.run_collecting", ("ms",)),
    ("synthesis.synthesize", ("ms",)),
    ("synthesis.verify_solutions", ("ms",)),
    ("consistency.consistency_report", ("ms",)),
    ("consistency.refuting_condition", ("calls",)),
    ("cli.document", ("ms",)),
    ("cli.emit", ("ms",)),
)


def per_layer(samples: list[dict]) -> dict:
    """Per-program means of the traced counts and self times."""
    n = len(samples)
    traces = [s["trace"] for s in samples]
    metrics = {}
    for span, kinds in SPAN_METRICS:
        if "calls" in kinds:
            total = sum(t["calls"][span] for t in traces)
            metrics[f"{span}.calls"] = {"value": total / n, "unit": "count"}
        if "ms" in kinds:
            total = sum(t["self_ns"][span] for t in traces)
            metrics[f"{span}.ms"] = {"value": total / n / 1e6, "unit": "ms"}
    for name in layertrace.CACHED:
        hits = sum(t[name]["hits"] for t in traces)
        lookups = sum(t[name]["lookups"] for t in traces)
        metrics[f"{name}.hit_ratio"] = {"value": hits / lookups if lookups else 0.0, "unit": "ratio"}
    metrics["engine.evaluations"] = {
        "value": sum(t["evaluations"] for t in traces) / n,
        "unit": "count",
    }
    # Estimated time of 2^n re-analyses over the time of one analyze_param.
    # On `oracle` all 2^n subsets are re-analyzed; on the synthesis
    # workloads the mean over the re-proved solutions stands in for them.
    ratios = [
        t["rerun_ns"] / t["reruns"] * (1 << s["width"]) / (t["param_ns"] / t["param_calls"])
        for s, t in zip(samples, traces)
        if t["reruns"] and t["param_calls"]
    ]
    metrics["engine.one_pass_ratio"] = {
        "value": statistics.median(ratios) if ratios else 0.0,
        "unit": "ratio",
    }
    metrics["cli.output_mib"] = {
        "value": sum(s["output_bytes"] for s in samples) / n / 2**20,
        "unit": "MiB",
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fork-per-program paramax CLI benchmark")
    parser.add_argument("--workload", choices=programs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    cli = import_paramax()
    ops = programs.workload(args.workload, args.seed)
    paths = programs.write_programs(ops, OUT / f"{args.workload}-s{args.seed}")
    time_import()  # untimed: the first start pays for cold file caches

    samples: list[dict] = []
    spans: list[dict] = []
    failures: list[str] = []
    wrong: list[str] = []
    setup: list[float] = []
    rounds = 0
    zygote = Zygote(cli)
    try:
        started = time.perf_counter()
        deadline = started + args.seconds
        # Import timings are spread over the run, like the programs, so
        # that both see the same drift of the host's speed.
        spawn_at = [started + k * args.seconds / SETUP_SPAWNS for k in range(SETUP_SPAWNS)]
        while rounds == 0 or time.perf_counter() < deadline:
            for op in ops:
                while spawn_at and time.perf_counter() >= spawn_at[0]:
                    setup.append(time_import())
                    spawn_at.pop(0)
                keep_spans = traced and rounds == 0
                report, failure, mismatch = run_operation(zygote, op, paths[op.name], traced, keep_spans)
                label = f"{op.name} {op.command[0]}"
                if failure:
                    failures.append(f"{label}: {failure}")
                    continue
                if mismatch:
                    wrong.append(f"{label}: {mismatch}")
                samples.append(
                    {
                        "name": label,
                        "width": op.width,
                        "ok": mismatch is None,
                        "seconds": report["seconds"],
                        "rss_kib": report["rss_kib"],
                        "output_bytes": report["output_bytes"],
                        "trace": report.get("trace"),
                    }
                )
                if keep_spans:
                    spans.append({"program": len(samples) - 1, "operation": label, "spans": report["spans"]})
            rounds += 1
        setup.extend(time_import() for _ in spawn_at)
    finally:
        zygote.close()

    for line in failures[:5] + wrong[:5]:
        print(line, file=sys.stderr)
    if samples:
        p50 = statistics.median(s["seconds"] for s in samples) * 1000
        print(
            f"{args.workload} seed={args.seed} rounds={rounds} operations={len(samples)}"
            f" in-child p50={p50:.1f} ms traced={args.trace}",
            file=sys.stderr,
        )
    if not samples:
        metrics = {}
    elif traced:
        metrics = per_layer(samples)
        write_trace(args, samples, spans)
    else:
        metrics = end_to_end(samples, setup)
    result = {
        "correct": not wrong,
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def write_trace(args, samples: list[dict], spans: list[dict]) -> None:
    """Write a traced run's spans and per-program summaries when it ends.

    The spans of the first round are kept in full; later rounds repeat the
    same programs, so only their summaries are kept.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-s{args.seed}.json"
    document = {
        "span_names": list(layertrace.NAMES),
        "span_fields": ["name", "start_ns", "end_ns", "parent"],
        "programs": [
            {"program": i, "operation": s["name"], "seconds": s["seconds"], **s["trace"]}
            for i, s in enumerate(samples)
        ],
        "spans": spans,
    }
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
