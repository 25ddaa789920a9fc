"""Output checks for the benchmark, run in the parent process.

Each check compares one CLI output with the answer `programs` derived for
its program, or with a property every correct output has. The checks read
only the CLI's text or JSON: calling paramax here would fill the shared
condition caches that every later forked child inherits.
"""

from __future__ import annotations

import json
import re

from programs import Operation, tables_exit_box


class CheckFailed(Exception):
    """The output contradicts the expected answer."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check(op: Operation, code: int, stdout: str) -> None:
    """Raise CheckFailed unless exit code and stdout answer `op` rightly.

    Every generated program has a successful answer, so the exit code is 0.
    """
    _require(code == 0, f"exit code {code}")
    command = op.command[0]
    if command == "check-oracle":
        check_oracle(op, _document(stdout))
    elif op.name.startswith("tables"):
        check_tables(op, _document(stdout))
    elif command == "synthesize":
        check_wide_synthesis(op, stdout)
    elif command == "consistency":
        check_wide_consistency(op, stdout)
    else:
        raise CheckFailed(f"no check for command {command!r}")


def _document(stdout: str) -> dict:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "document is not an object")
    return doc


def check_partition(doc: dict, width: int) -> None:
    """At every node the rules' condition_sets split all 2^width subsets."""
    full = 1 << width
    for node in doc["nodes"]:
        seen: set[int] = set()
        for rule in node["rules"]:
            for subset in rule["condition_sets"]:
                _require(0 <= subset < full, f"node {node['id']}: subset {subset} out of range")
                _require(subset not in seen, f"node {node['id']}: subset {subset} in two rules")
                seen.add(subset)
        _require(len(seen) == full, f"node {node['id']}: {full - len(seen)} subsets have no rule")


def _check_header(op: Operation, doc: dict) -> None:
    _require(doc.get("assumptions") == op.expected["labels"], "assumption labels differ")
    _require(doc["meta"]["converged"] is True, "analysis did not converge")
    check_partition(doc, op.width)


def check_tables(op: Operation, doc: dict) -> None:
    _check_header(op, doc)
    expected = op.expected
    exit_node = doc["nodes"][-1]
    _require(exit_node["kind"] == "exit", "last node is not the exit")
    _require(
        len(exit_node["rules"]) == 1 << op.width,
        f"exit has {len(exit_node['rules'])} rules, expected {1 << op.width}",
    )
    for rule in exit_node["rules"]:
        for subset in rule["condition_sets"]:
            want = tables_exit_box(expected, subset)
            _require(rule["state"] == want, f"exit state for subset {subset}: {rule['state']} != {want}")
    synthesis = doc["synthesis"]
    _require(synthesis["verdict"] == expected["verdict"], f"verdict {synthesis['verdict']}")
    _require(synthesis["solutions"] == expected["solutions"], "solutions differ")
    _require(synthesis["truncated"] == expected["truncated"], "truncation flag differs")
    _require(synthesis["minimal_solutions"] == expected["minimal"], "minimal solutions differ")
    reports = doc.get("oracle_reports", [])
    _require(len(reports) == 1 and reports[0]["theorem"] == "synthesis", "no re-proof report")
    report = reports[0]
    _require(report["subsets_checked"] == expected["verified"], "re-proved a different number of solutions")
    _require(not report["mismatches"] and not report["skipped"], "re-proof failed or skipped")


def check_oracle(op: Operation, doc: dict) -> None:
    _check_header(op, doc)
    reports = {r["theorem"]: r for r in doc.get("oracle_reports", [])}
    _require(sorted(reports) == ["equivalence", "soundness"], f"reports {sorted(reports)}")
    for name, report in reports.items():
        _require(report["subsets_checked"] == op.expected["subsets"], f"{name}: subsets_checked differs")
        _require(not report["mismatches"], f"{name}: {len(report['mismatches'])} mismatches")
        _require(not report["skipped"], f"{name}: {len(report['skipped'])} subsets skipped")
        _require(not report["partial"], f"{name}: {len(report['partial'])} subsets partial")


_SUBSET = re.compile(r"\{([^{}]*)\}")


def _lines(text: str) -> dict[str, str]:
    """The text output's `key: value` lines, first occurrence of each key."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            out.setdefault(key, value)
    return out


def _subsets(value: str, labels: list[str]) -> list[int]:
    index = {label: i for i, label in enumerate(labels)}
    out = []
    for body in _SUBSET.findall(value):
        mask = 0
        for label in filter(None, (part.strip() for part in body.split(","))):
            _require(label in index, f"unknown label {label!r}")
            mask |= 1 << index[label]
        out.append(mask)
    return out


def _field(lines: dict[str, str], key: str) -> str:
    _require(key in lines, f"output has no {key!r} line")
    return lines[key]


def check_wide_synthesis(op: Operation, text: str) -> None:
    expected = op.expected
    labels = expected["labels"]
    lines = _lines(text)
    _require(_field(lines, "verdict") == expected["verdict"], f"verdict {lines['verdict']}")
    solutions = _field(lines, "solutions")
    if expected["all"]:
        _require(solutions == "all subsets", "expected every subset to be a solution")
    else:
        _require(_subsets(solutions, labels) == expected["solutions"], "solutions differ")
        _require(solutions.endswith("(truncated)") == expected["truncated"], "truncation marker differs")
    _require(_subsets(_field(lines, "minimal"), labels) == expected["minimal"], "minimal solutions differ")
    want = f"ok ({expected['verified']} solutions re-proved)"
    _require(_field(lines, "verification") == want, f"verification {lines['verification']!r}")


def check_wide_consistency(op: Operation, text: str) -> None:
    expected = op.expected
    labels = expected["labels"]
    lines = _lines(text)
    _require(_subsets(_field(lines, "core"), labels) == [expected["core"]], "core differs")
    _require(_subsets(_field(lines, "envelope"), labels) == [expected["envelope"]], "envelope differs")
    for label, membership in expected["classes"].items():
        _require(_field(lines, label) == membership, f"{label}: {lines[label]} != {membership}")
    if expected["fixpoints"] is None:
        _require("consistent-sets" not in lines, "unexpected consistent-sets line")
    else:
        found = _subsets(_field(lines, "consistent-sets"), labels)
        _require(found == expected["fixpoints"], "consistent sets differ")
