"""Seeded `.pwl` program families with independently computed answers.

Three families, one per workload. Every generator takes a `random.Random`
and returns the program text together with the answers the CLI must give,
derived from the family's closed form in plain Python: this module never
imports paramax, so a fault in paramax cannot leak into the expectations.

- `tables`: independent assumptions, one interval per variable, straight-
  line code. The exit node has one rule per assumption subset, and the
  synthesis answer is "every superset of the asserted variables' labels".
- `wide`: stacked lower and upper bounds on one variable. Every subset's
  exit state is a sequential interval meet, which gives the synthesis and
  consistency answers.
- `oracle`: branches and loops with per-site input ranges, shaped so that
  `--widen 2` converges and every concrete run terminates; its answer is
  that both exhaustive oracles pass.

Run as a script to write one workload's programs and answers to a
directory: `python3 bench/programs.py --workload tables --seed 1 --out DIR`.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

TOP = ["-inf", "+inf"]  # an unconstrained variable in the CLI's JSON

# The program sizes that make up one round of each workload. Programs of
# one size share one shape (see `wide_program` and `oracle_program`), so
# every seed costs the same. The middle size holds the median, so that
# `program_ms.p50` does not jump between size clusters from run to run.
TABLES_SIZES = (6, 6, 7, 7, 7, 8, 8)
WIDE_SIZES = (12, 13, 13, 14)
ORACLE_SIZES = (3, 4, 4, 5, 5, 5, 6, 6)

WIDE_UPPER_BOUNDS = 3
SOLUTION_CAP = 256  # synthesis lists at most this many solutions
VERIFY_LIMIT = 8  # default of `synthesize --verify-solutions`
PHI_FIXPOINT_LIMIT = 12  # consistency lists the consistent sets up to this width


@dataclass(frozen=True)
class Operation:
    """One CLI invocation on one generated program, with its answer."""

    name: str  # file stem of the program, e.g. "tables-03"
    source: str
    command: tuple[str, ...]  # CLI arguments before the program path
    width: int  # number of assumptions
    expected: dict

    def argv(self, path: str) -> list[str]:
        return [self.command[0], *self.command[1:], path]


# --- tables ------------------------------------------------------------------


def tables_program(rng: random.Random, n: int) -> tuple[str, dict]:
    """n variables, each with one interval assumption; two asserted."""
    bounds = []
    lines = []
    for i in range(1, n + 1):
        lo = rng.randint(-60, 40)
        hi = lo + rng.randint(1, 40)
        bounds.append((lo, hi))
        lines.append(f"x{i} := input();")
        lines.append(f"assume a{i}: x{i} >= {lo} && x{i} <= {hi};")
    asserted = sorted(rng.sample(range(n), 2))
    derived = {}
    for k, i in enumerate(asserted, start=1):
        shift = rng.randint(-9, 9)
        lo, hi = bounds[i]
        derived[f"d{k}"] = (i, shift)
        lines.append(f"d{k} := x{i + 1} + {shift};" if shift >= 0 else f"d{k} := x{i + 1} - {-shift};")
        lines.append(f"assert d{k} >= {lo + shift} && d{k} <= {hi + shift};")
    required = sum(1 << i for i in asserted)
    solutions = [s for s in range(1 << n) if s & required == required]
    expected = {
        "labels": [f"a{i}" for i in range(1, n + 1)],
        "bounds": bounds,
        "derived": derived,
        "verdict": "solutions",
        "solutions": solutions[:SOLUTION_CAP],
        "truncated": len(solutions) > SOLUTION_CAP,
        "minimal": [required],
        "verified": min(VERIFY_LIMIT, len(solutions)),
    }
    return "\n".join(lines) + "\n", expected


def tables_exit_box(expected: dict, subset: int) -> dict:
    """The exit state under `subset`, as the CLI's JSON renders it."""
    box = {}
    for i, (lo, hi) in enumerate(expected["bounds"]):
        box[f"x{i + 1}"] = [lo, hi] if (subset >> i) & 1 else TOP
    for name, (i, shift) in expected["derived"].items():
        lo, hi = expected["bounds"][i]
        box[name] = [lo + shift, hi + shift] if (subset >> i) & 1 else TOP
    return box


# --- wide --------------------------------------------------------------------


def wide_program(rng: random.Random, width: int, shape: random.Random) -> tuple[str, dict]:
    """Stacked bounds on x: mostly lower bounds, a few upper bounds.

    `shape` fixes which positions hold upper bounds and how all constants
    compare; `rng` draws the constants in that order. Every state, and so
    every rule table, then has the same form for every seed.
    """
    ranks = list(range(width))
    shape.shuffle(ranks)
    uppers = set(shape.sample(range(width), WIDE_UPPER_BOUNDS))
    values = sorted(rng.sample(range(0, 100), width))
    kinds = [("<=" if i in uppers else ">=", values[ranks[i]]) for i in range(width)]
    threshold = sorted(c for op, c in kinds if op == ">=")[-4]  # four bounds prove it alone
    lines = ["x := input();"]
    for i, (op, c) in enumerate(kinds, start=1):
        lines.append(f"assume a{i}: x {op} {c};")
    lines.append(f"assert x >= {threshold};")
    expected = {"labels": [f"a{i}" for i in range(1, width + 1)]}
    expected.update(_wide_synthesis(kinds, threshold))
    expected.update(_wide_consistency(kinds))
    return "\n".join(lines) + "\n", expected


def _wide_bounds(kinds, subset: int) -> tuple[float, float]:
    lo, hi = float("-inf"), float("inf")
    for i, (op, c) in enumerate(kinds):
        if (subset >> i) & 1:
            if op == ">=":
                lo = max(lo, c)
            else:
                hi = min(hi, c)
    return lo, hi


def _wide_synthesis(kinds, threshold: int) -> dict:
    # The exit state under a subset is x in [max lower, min upper]; the
    # assertion x >= threshold holds when that is empty or starts high enough.
    width = len(kinds)
    solutions = []
    for subset in range(1 << width):
        lo, hi = _wide_bounds(kinds, subset)
        if lo > hi or lo >= threshold:
            solutions.append(subset)
    least = min(s.bit_count() for s in solutions)
    return {
        "verdict": "solutions",
        "solutions": solutions[:SOLUTION_CAP],
        "truncated": len(solutions) > SOLUTION_CAP,
        "all": len(solutions) == 1 << width,
        "minimal": [s for s in solutions if s.bit_count() == least],
        "verified": min(VERIFY_LIMIT, len(solutions)),
    }


def _wide_phi(kinds, accepted: int) -> int:
    """Assumptions that the analysis under `accepted` does not refute.

    An assumption is refuted when the interval reaching its node, the meet
    of the accepted assumptions before it, misses its own bound.
    """
    out = 0
    lo, hi = float("-inf"), float("inf")
    for i, (op, c) in enumerate(kinds):
        own_lo, own_hi = (max(lo, c), hi) if op == ">=" else (lo, min(hi, c))
        if own_lo <= own_hi:
            out |= 1 << i
        if (accepted >> i) & 1:
            lo, hi = own_lo, own_hi
    return out


def _wide_consistency(kinds) -> dict:
    width = len(kinds)
    core = 0
    for _ in range(width + 2):
        nxt = _wide_phi(kinds, _wide_phi(kinds, core))
        if nxt == core:
            break
        core = nxt
    envelope = _wide_phi(kinds, core)
    classes = {}
    for i in range(width):
        if (core >> i) & 1:
            classes[f"a{i + 1}"] = "in-every-consistent-set"
        elif (envelope >> i) & 1:
            classes[f"a{i + 1}"] = "in-some-consistent-set"
        else:
            classes[f"a{i + 1}"] = "never-consistent"
    fixpoints = None
    if width <= PHI_FIXPOINT_LIMIT:
        fixpoints = [s for s in range(1 << width) if _wide_phi(kinds, s) == s]
    return {"core": core, "envelope": envelope, "classes": classes, "fixpoints": fixpoints}


# --- oracle ------------------------------------------------------------------


def oracle_program(rng: random.Random, n: int, shape: random.Random) -> tuple[str, dict]:
    """Branches, a counted loop and an input-bounded loop; n in 3..6.

    The first three assumptions sit before the branch, in the then-branch
    and in the counted loop; the rest follow the loops. Loops terminate on
    every concrete input, and `--widen 2` makes the abstract loops converge.

    `shape` draws the program's form and constants; `rng` draws one offset
    added to x, y, j and every constant they are compared with. The offset
    cancels in z, i and every guard, so the abstract and the concrete runs
    take the same steps for every seed.
    """
    if not 3 <= n <= 6:
        raise ValueError("oracle programs have 3 to 6 assumptions")
    d = rng.randint(-20, 20)
    x_lo = shape.randint(-4, -2)
    x_hi = x_lo + shape.randint(8, 10)
    y_lo = shape.randint(-3, 0)
    y_hi = y_lo + shape.randint(4, 6)
    post = [
        f"x <= {shape.randint(2, 5) + d}",
        f"z >= {shape.randint(1, 4)}",
        f"y >= {shape.randint(-1, 2) + d}",
    ]
    lines = [
        f"x := input() in [{x_lo + d}, {x_hi + d}];",
        f"y := input() in [{y_lo + d}, {y_hi + d}];",
        "i := 0;",
        f"j := x - {shape.randint(3, 5)};",
        "z := 0;",
        f"assume a1: x >= {shape.randint(x_lo, 0) + d};",
        "if (x <= y) {",
        "  z := y - x;",
        f"  assume a2: z <= {shape.randint(2, 6)};",
        "} else {",
        f"  z := x - y + {shape.randint(0, 3)};",
        "}",
        f"while (i < {shape.randint(2, 3)}) {{",
        f"  assume a3: y <= {shape.randint(1, y_hi) + d};",
        "  i := i + 1;",
        f"  z := z + {shape.randint(1, 2)};",
        "}",
        "while (j < x) {",
        "  j := j + 1;",
        "}",
    ]
    for k in range(3, n):
        lines.append(f"assume a{k + 1}: {post[k - 3]};")
    lines += ["assert z >= 0;", "assert j >= x && i >= 0;"]
    labels = [f"a{i}" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n", {"labels": labels, "subsets": 1 << n}


# --- workloads ---------------------------------------------------------------


def workload(name: str, seed: int) -> list[Operation]:
    """One round of the workload's operations, drawn from `seed`."""
    rng = random.Random(f"{name}:{seed}")
    ops: list[Operation] = []
    if name == "tables":
        for k, n in enumerate(TABLES_SIZES):
            source, expected = tables_program(rng, n)
            ops.append(Operation(f"tables-{k:02d}", source, ("synthesize", "--format", "json"), n, expected))
    elif name == "wide":
        for k, w in enumerate(WIDE_SIZES):
            source, expected = wide_program(rng, w, random.Random(f"wide-shape:{w}"))
            for command in ("synthesize", "consistency"):
                ops.append(Operation(f"wide-{k:02d}", source, (command,), w, expected))
    elif name == "oracle":
        command = ("check-oracle", "--theorem1", "--soundness", "--widen", "2", "--format", "json")
        for k, n in enumerate(ORACLE_SIZES):
            source, expected = oracle_program(rng, n, random.Random(f"oracle-shape:{n}"))
            ops.append(Operation(f"oracle-{k:02d}", source, command, n, expected))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


WORKLOADS = ("tables", "wide", "oracle")


def write_programs(ops: list[Operation], out: Path) -> dict[str, Path]:
    """Write each distinct program once; returns name -> path."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        if op.name not in paths:
            path = out / f"{op.name}.pwl"
            path.write_text(op.source, encoding="utf-8")
            paths[op.name] = path
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    ops = workload(args.workload, args.seed)
    write_programs(ops, args.out)
    answers = [
        {"program": f"{op.name}.pwl", "command": list(op.command), "expected": op.expected}
        for op in ops
    ]
    (args.out / "answers.json").write_text(json.dumps(answers, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
