"""Self-tests of the benchmark: generator, output checks, trace and exit.

    python3 -m unittest discover -s bench -p "test_*.py"

Each output check must reject a deliberately corrupted copy of a real CLI
output, and the generator must repeat byte for byte for a given seed.
"""

from __future__ import annotations

import copy
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import programs  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402


def cli_output(op: programs.Operation) -> str:
    """Run the CLI in this process; the tests do not measure anything."""
    from paramax import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{op.name}.pwl"
        path.write_text(op.source, encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(op.argv(str(path)))
    assert code == 0, code
    return out.getvalue()


def small_wide(command: str) -> programs.Operation:
    source, expected = programs.wide_program(random.Random(5), 7, random.Random(6))
    return programs.Operation("wide-small", source, (command,), 7, expected)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in programs.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                programs.write_programs(programs.workload(name, 7), Path(a))
                programs.write_programs(programs.workload(name, 7), Path(b))
                files = sorted(p.name for p in Path(a).iterdir())
                self.assertTrue(files)
                for file in files:
                    self.assertEqual((Path(a) / file).read_bytes(), (Path(b) / file).read_bytes())

    def test_seeds_differ(self):
        for name in programs.WORKLOADS:
            first = [op.source for op in programs.workload(name, 1)]
            second = [op.source for op in programs.workload(name, 2)]
            self.assertNotEqual(first, second)

    def test_round_sizes_do_not_depend_on_seed(self):
        for name in programs.WORKLOADS:
            sizes = {tuple(op.width for op in programs.workload(name, seed)) for seed in range(5)}
            self.assertEqual(len(sizes), 1)


class TablesCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.op = programs.workload("tables", 3)[0]
        cls.doc = json.loads(cli_output(cls.op))

    def assertRejected(self, doc):
        with self.assertRaises(CheckFailed):
            checks.check(self.op, 0, json.dumps(doc))

    def test_accepts_real_output(self):
        checks.check(self.op, 0, json.dumps(self.doc))

    def test_rejects_wrong_exit_box(self):
        doc = copy.deepcopy(self.doc)
        rule = next(r for r in doc["nodes"][-1]["rules"] if r["state"]["x1"] != programs.TOP)
        rule["state"]["x1"] = [rule["state"]["x1"][0], rule["state"]["x1"][1] + 1]
        self.assertRejected(doc)

    def test_rejects_missing_subset(self):
        doc = copy.deepcopy(self.doc)
        doc["nodes"][2]["rules"][0]["condition_sets"].pop()
        self.assertRejected(doc)

    def test_rejects_subset_in_two_rules(self):
        doc = copy.deepcopy(self.doc)
        rules = doc["nodes"][2]["rules"]
        rules[1]["condition_sets"].append(rules[0]["condition_sets"][0])
        self.assertRejected(doc)

    def test_rejects_wrong_solutions(self):
        doc = copy.deepcopy(self.doc)
        doc["synthesis"]["solutions"].pop()
        self.assertRejected(doc)

    def test_rejects_wrong_minimal(self):
        doc = copy.deepcopy(self.doc)
        doc["synthesis"]["minimal_solutions"] = [0]
        self.assertRejected(doc)

    def test_rejects_failed_reproof(self):
        doc = copy.deepcopy(self.doc)
        doc["oracle_reports"][0]["mismatches"].append({"subset": 1})
        self.assertRejected(doc)

    def test_rejects_text(self):
        with self.assertRaises(CheckFailed):
            checks.check(self.op, 0, "program: tables-00.pwl\n")


class WideCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.synth = small_wide("synthesize")
        cls.consistency = small_wide("consistency")
        cls.synth_text = cli_output(cls.synth)
        cls.consistency_text = cli_output(cls.consistency)

    def test_accepts_real_output(self):
        checks.check(self.synth, 0, self.synth_text)
        checks.check(self.consistency, 0, self.consistency_text)
        # The default round is checked at full width too.
        op = programs.workload("wide", 0)[0]
        checks.check(op, 0, cli_output(op))

    def edit(self, text: str, key: str, value: str) -> str:
        lines = [f"{key}: {value}" if line.startswith(f"{key}: ") else line for line in text.splitlines()]
        return "\n".join(lines) + "\n"

    def test_rejects_wrong_verdict(self):
        with self.assertRaises(CheckFailed):
            checks.check(self.synth, 0, self.edit(self.synth_text, "verdict", "unknown"))

    def test_rejects_wrong_minimal(self):
        with self.assertRaises(CheckFailed):
            checks.check(self.synth, 0, self.edit(self.synth_text, "minimal", "[{a1}]"))

    def test_rejects_dropped_solution(self):
        line = next(x for x in self.synth_text.splitlines() if x.startswith("solutions: "))
        dropped = "solutions: [" + line.split("}, ", 1)[1]
        with self.assertRaises(CheckFailed):
            checks.check(self.synth, 0, self.synth_text.replace(line, dropped))

    def test_rejects_failed_verification(self):
        with self.assertRaises(CheckFailed):
            checks.check(self.synth, 0, self.edit(self.synth_text, "verification", "FAILED (8 solutions re-proved)"))

    def test_rejects_wrong_core_or_envelope(self):
        labels = self.consistency.expected["labels"]
        for key in ("core", "envelope"):
            wrong = self.consistency.expected[key] ^ 1
            subset = "{" + ", ".join(x for i, x in enumerate(labels) if (wrong >> i) & 1) + "}"
            with self.subTest(key=key), self.assertRaises(CheckFailed):
                checks.check(self.consistency, 0, self.edit(self.consistency_text, key, subset))

    def test_rejects_wrong_class(self):
        label, membership = next(iter(self.consistency.expected["classes"].items()))
        other = "never-consistent" if membership != "never-consistent" else "in-some-consistent-set"
        with self.assertRaises(CheckFailed):
            checks.check(self.consistency, 0, self.edit(self.consistency_text, label, other))

    def test_rejects_missing_consistent_sets(self):
        text = "\n".join(x for x in self.consistency_text.splitlines() if not x.startswith("consistent-sets"))
        with self.assertRaises(CheckFailed):
            checks.check(self.consistency, 0, text)


class OracleCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.op = programs.workload("oracle", 3)[0]
        cls.doc = json.loads(cli_output(cls.op))

    def assertRejected(self, doc):
        with self.assertRaises(CheckFailed):
            checks.check(self.op, 0, json.dumps(doc))

    def test_accepts_real_output(self):
        checks.check(self.op, 0, json.dumps(self.doc))

    def test_rejects_each_defect(self):
        defects = {
            "subsets_checked": lambda r: r.update(subsets_checked=r["subsets_checked"] - 1),
            "skipped": lambda r: r["skipped"].append(0),
            "partial": lambda r: r["partial"].append(0),
            "mismatches": lambda r: r["mismatches"].append({"subset": 0, "node": 1}),
        }
        for index in range(2):
            for name, corrupt in defects.items():
                with self.subTest(report=index, defect=name):
                    doc = copy.deepcopy(self.doc)
                    corrupt(doc["oracle_reports"][index])
                    self.assertRejected(doc)

    def test_rejects_mismatch_exit_code(self):
        with self.assertRaises(CheckFailed):
            checks.check(self.op, 5, json.dumps(self.doc))

    def test_rejects_missing_report(self):
        doc = copy.deepcopy(self.doc)
        doc["oracle_reports"].pop()
        self.assertRejected(doc)

    def test_rejects_nonconvergence(self):
        doc = copy.deepcopy(self.doc)
        doc["meta"]["converged"] = False
        self.assertRejected(doc)


class TraceTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = layertrace.Tracer()
        inner = tracer.wrap(0, lambda: sum(range(20000)))
        outer = tracer.wrap(1, lambda: [inner() for _ in range(3)])
        outer()
        summary = tracer.summary()
        outer_name, inner_name = layertrace.NAMES[1], layertrace.NAMES[0]
        self.assertEqual(summary["calls"][inner_name], 3)
        self.assertEqual(summary["calls"][outer_name], 1)
        spans = tracer.spans
        outer_span = [s for s in range(summary["spans"]) if spans[s * 4] == 1][0]
        total = spans[outer_span * 4 + 2] - spans[outer_span * 4 + 1]
        self.assertEqual(summary["self_ns"][outer_name] + summary["self_ns"][inner_name], total)

    def test_traced_child_counts(self):
        """Counts in a traced child are exact and repeat between runs."""
        cli = run.import_paramax()
        zygote = run.Zygote(cli)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                op = programs.workload("oracle", 4)[0]
                path = Path(tmp) / "p.pwl"
                path.write_text(op.source, encoding="utf-8")
                report = Path(tmp) / "report.json"
                first = zygote.run(op.argv(str(path)), report, True, False)["trace"]
                second = zygote.run(op.argv(str(path)), report, True, False)["trace"]
        finally:
            zygote.close()
        self.assertEqual(first["calls"], second["calls"])
        self.assertEqual(first["calls"]["engine.analyze_param"], 3)
        self.assertEqual(first["calls"]["engine.analyze_baseline"], 1 << op.width)
        self.assertEqual(first["reruns"], 1 << op.width)
        self.assertEqual(first["calls"]["frontend.parse_cfg"], 1)
        self.assertGreater(first["calls"]["intervals.env_ops"], 0)


class RefuseWithoutSourceTest(unittest.TestCase):
    def test_exits_nonzero_without_src(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
