"""Command-line interface.

Commands: analyze, synthesize, consistency, check-oracle, dump-cfg. Output
is deterministic text by default or JSON with --format json; documents
follow `DOCUMENT_SCHEMA`. Exit codes: 0 success, 1 usage/parse error,
2 analysis did not converge, 3 synthesis unknown, 4 synthesis impossible,
5 oracle mismatch, 6 out of memory.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import Callable, Sequence

from . import consistency as consistency_mod
from . import synthesis as synthesis_mod
from .conditions import format_subset, members, render_mask
from .engine import (
    AnalysisConfig, AnalysisResult, analyze_param, verify_equivalence, verify_soundness,
)
from .frontend import Cfg, ParseError, dump_cfg, parse_cfg
from .param import ParamState

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_UNKNOWN = 3
EXIT_IMPOSSIBLE = 4
EXIT_MISMATCH = 5
EXIT_OUT_OF_MEMORY = 6

# Published shape of every JSON document the CLI emits.
DOCUMENT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["program", "assumptions", "nodes", "meta"],
    "properties": {
        "program": {"type": "string"},
        "assumptions": {"type": "array", "items": {"type": "string"}},
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "rules"],
                "properties": {
                    "id": {"type": "integer"},
                    "kind": {"type": "string"},
                    "rules": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["condition", "condition_sets", "state"],
                            "properties": {
                                "condition": {"type": "string"},
                                "condition_sets": {
                                    "type": "array",
                                    "items": {"type": "integer"},
                                },
                                "state": {
                                    "oneOf": [
                                        {"const": "bottom"},
                                        {
                                            "type": "object",
                                            "additionalProperties": {
                                                "type": "array",
                                                "minItems": 2,
                                                "maxItems": 2,
                                                "items": {
                                                    "oneOf": [
                                                        {"type": "integer"},
                                                        {"enum": ["-inf", "+inf"]},
                                                    ]
                                                },
                                            },
                                        },
                                    ]
                                },
                            },
                        },
                    },
                },
            },
        },
        "meta": {
            "type": "object",
            "required": ["iterations", "converged", "config"],
            "properties": {
                "iterations": {"type": "integer"},
                "converged": {"type": "boolean"},
                "config": {"type": "object"},
            },
        },
        "synthesis": {"type": "object"},
        "consistency": {"type": "object"},
        "oracle_reports": {"type": "array", "items": {"type": "object"}},
    },
}


def _parse_widen(text: str) -> int | None:
    if text == "off":
        return None
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"--widen expects 'off' or a positive integer, got {text!r}")
    if value < 1:
        raise ValueError("--widen delay must be at least 1")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.rpartition(":")
    if not sep:
        raise ValueError(f"--input-range expects LO:HI, got {text!r}")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"--input-range expects integers, got {text!r}")
    if lo > hi:
        raise ValueError("--input-range is empty")
    return lo, hi


def _make_config(args: SimpleNamespace) -> AnalysisConfig:
    return AnalysisConfig(max_iterations=args.max_iters, widening_delay=_parse_widen(args.widen))


def _load(path: str) -> tuple[str, Cfg]:
    # newlines untranslated, so that an error's position is the one `parse_cfg` gives
    with open(path, "r", encoding="utf-8", newline="") as handle:
        source = handle.read()
    return os.path.basename(path), parse_cfg(source)


def analysis_document(name: str, cfg: Cfg, result: AnalysisResult) -> dict:
    """The JSON document of an analysis, each node's `ParamState` itself under
    "rules": `dump` writes it as its rule table."""
    return {
        "program": name,
        "assumptions": [a.label for a in cfg.assumptions],
        "nodes": [
            {"id": node.id, "kind": node.render(), "rules": result.states[node.id]}
            for node in cfg.nodes
        ],
        "meta": {
            "iterations": result.iterations,
            "converged": result.converged,
            "config": result.config.to_json(),
        },
    }


def _write_analysis_text(write, name: str, cfg: Cfg, result: AnalysisResult) -> None:
    """Write the text report of an analysis through `write`, one piece per
    node, its rules read off the partitions (`ParamState.expand`) with no
    state built."""
    atoms, names, cells = cfg.assumptions, {}, {}
    write(f"program: {name}\nassumptions: {', '.join(a.label for a in atoms) or '(none)'}\n")
    for node in cfg.nodes:
        lines = [f"node {node.id} {node.render()}:"]
        for mask, env in result.states[node.id].expand(lambda v, iv: f"{v}:{iv.render()}", cells):
            env = "bottom" if env is None else " ".join(env) or "{}"
            lines.append(f"  {render_mask(mask, atoms, names)} -> {env}")
        write("\n".join(lines) + "\n")
    write(f"meta: iterations={result.iterations} converged={str(result.converged).lower()}\n")


_quote = json.encoder.encode_basestring_ascii  # raises TypeError on a non-str


def _block(brackets, items: list[str], newline: str) -> str:
    """The text of a container in `json.dumps(..., indent=2)` from its items'
    texts, where `newline` (line break and indentation) closes it and
    `brackets` holds its opening and closing text."""
    if not items:
        return brackets[0] + brackets[1]
    inner = newline + "  "
    # brackets go onto the end items, so one join copies the container's text
    items[0] = brackets[0] + inner + items[0]
    items[-1] += newline + brackets[1]
    return ("," + inner).join(items)


def _table_writer(write: Callable[[str], object], names: dict, newline: str):
    """A function that writes a `ParamState` as `dump` writes its rule table
    where `newline` closes it, one `write` per rule, read off the partitions
    (`ParamState.expand`). A rule's text is the *head* of its mask (the
    opening, with the "," that parts it from a previous rule, "condition",
    "condition_sets" and the "state" key), then one join of its cells' texts
    in fixed brackets, or a bottom rule's fixed tail. Heads and cell texts are
    made once for all the tables, rule texts only for the state written last,
    written again from them."""
    rule_in, key_in, item_in = (newline + "  " * depth for depth in (1, 2, 3))
    sep, opening, close = "," + item_in, "{" + item_in, key_in + "}" + rule_in + "}"
    tails = {None: '"bottom"' + rule_in + "}", (): "{}" + rule_in + "}"}  # bottom; no variable
    heads, cells = {}, {}
    last: list = [None, ()]  # the state written last and its rules' texts

    def binding(var: str, iv) -> str:
        return _quote(var) + ": " + _block("[]", [json.dumps(x) for x in iv.to_json()], item_in)

    def table(state: ParamState) -> None:
        if state is not last[0]:
            texts = []
            for mask, env in state.expand(binding, cells):
                if (text := heads.get(mask)) is None:
                    condition = _quote(render_mask(mask, state.atoms, names))
                    sets = _block("[]", list(map(str, members(mask))), key_in)
                    text = heads[mask] = (
                        f',{rule_in}{{{key_in}"condition": {condition},'
                        f'{key_in}"condition_sets": {sets},{key_in}"state": '
                    )
                texts.append(f"{text}{opening}{sep.join(env)}{close}" if env else text + tails[env])
            last[:] = state, texts
        texts = last[1]
        write("[" + texts[0][1:])
        for text in texts[1:]:
            write(text)
        write(newline + "]")

    return table


def dump(value, write: Callable[[str], object], names: dict | None = None) -> None:
    """Write `json.dumps(value, indent=2)`, byte for byte, through `write`, with
    each `ParamState` as its rule table: a list of one object per rule of
    `rules`, with its "condition" (`render_mask`), "condition_sets"
    (`members`) and "state" (`IntervalEnv.to_json`). The outer three levels
    (a document, its nodes, each node) go item by item, a `ParamState` among
    their items rule by rule (`_table_writer`, one per indentation, whose mask
    and cell texts serve all its tables), each other deeper container with one
    `str.join`.
    `names` (see `render_mask`) serves every table and may come filled from the
    rest of the document. Tuples encode as lists; non-`str` keys and other
    types raise TypeError."""
    names = {} if names is None else names
    tables: dict[str, Callable[[ParamState], None]] = {}  # one writer per indentation

    def encode(value, newline: str) -> str:
        # `newline` is the line break and indentation that close the value
        if isinstance(value, str):
            return _quote(value)
        inner = newline + "  "
        if isinstance(value, dict):
            brackets = "{}"
            items = [
                _quote(k) + ": " + (int.__repr__(v) if type(v) is int else encode(v, inner))
                for k, v in value.items()
            ]
        elif isinstance(value, (list, tuple)):
            brackets = "[]"
            items = [int.__repr__(v) if type(v) is int else encode(v, inner) for v in value]
        elif value is None or isinstance(value, (bool, int, float)):
            return json.dumps(value)
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        return _block(brackets, items, newline)

    def stream(value, newline: str, depth: int) -> None:
        if isinstance(value, ParamState):
            if (table := tables.get(newline)) is None:
                table = tables[newline] = _table_writer(write, names, newline)
            table(value)
            return
        if depth == 0 or not isinstance(value, (dict, list, tuple)) or not value:
            write(int.__repr__(value) if type(value) is int else encode(value, newline))
            return
        inner, brackets = newline + "  ", "{}" if isinstance(value, dict) else "[]"
        for k, item in enumerate(value):
            key = _quote(item) + ": " if brackets == "{}" else ""
            write(("," if k else brackets[0]) + inner + key)
            stream(value[item] if key else item, inner, depth - 1)
        write(newline + brackets[1])

    stream(value, "\n", 3)


def _emit(args: SimpleNamespace, document: Callable, text: Callable, names=None) -> None:
    """Write `text(write)`, or with --format json dump `document()`, whose rule
    tables read and fill `names`: only one is built, and both write to stdout."""
    if args.format == "json":
        dump(document(), sys.stdout.write, names)
        sys.stdout.write("\n")
    else:
        text(sys.stdout.write)


def _cmd_analyze(args: SimpleNamespace) -> int:
    name, cfg = _load(args.source)
    result = analyze_param(cfg, _make_config(args))
    _emit(
        args,
        lambda: analysis_document(name, cfg, result),
        lambda write: _write_analysis_text(write, name, cfg, result),
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _not_converged(cfg: Cfg) -> int:
    """Say that the analysis stopped short of its fixpoint, with the option
    that can help: `--widen` if the program has a loop, else `--max-iters`."""
    hint = "--widen" if any(node.loop_head for node in cfg.nodes) else "--max-iters"
    print(f"analysis did not converge; try {hint}", file=sys.stderr)
    return EXIT_NOT_CONVERGED


def _format_subsets(subsets, cfg: Cfg, truncated: bool = False) -> str:
    rendered = ", ".join(format_subset(s, cfg.assumptions) for s in subsets)
    return f"[{rendered}]" + (" ... (truncated)" if truncated else "")


def _cmd_synthesize(args: SimpleNamespace) -> int:
    name, cfg = _load(args.source)
    config = _make_config(args)
    if args.verify_solutions < 0:
        raise ValueError(f"--verify-solutions must be at least 0, got {args.verify_solutions}")
    result = analyze_param(cfg, config)
    if not result.converged:
        return _not_converged(cfg)
    outcome = synthesis_mod.synthesize(result, cfg)
    solved = outcome.verdict is synthesis_mod.SynthesisVerdict.SOLUTIONS
    report = None
    if solved and args.verify_solutions > 0:
        report = synthesis_mod.verify_solutions(
            cfg, outcome, config, limit=args.verify_solutions, program_name=name
        )

    names: dict = {}  # each rule mask rendered once, in the text or the document

    def text(write: Callable[[str], object]) -> None:
        lines = [f"program: {name}", f"verdict: {outcome.verdict.value}"]
        lines.append(f"condition: {render_mask(outcome.condition, cfg.assumptions, names)}")
        if solved:
            if not outcome.truncated and len(outcome.solutions) == 1 << outcome.width:
                lines.append("solutions: all subsets")
            else:
                lines.append(
                    "solutions: " + _format_subsets(outcome.solutions, cfg, outcome.truncated)
                )
            lines.append("minimal: " + _format_subsets(outcome.minimal, cfg))
        if report is not None:
            status = "ok" if report.passed else "FAILED"
            lines.append(f"verification: {status} ({report.subsets_checked} solutions re-proved)")
        for node_id, rows in outcome.per_assertion.items():
            lines.append(f"assertion at node {node_id}:")
            for mask, verdict in rows:
                lines.append(f"  {render_mask(mask, cfg.assumptions, names)} -> {verdict.value}")
        write("\n".join(lines) + "\n")

    def document() -> dict:
        out = analysis_document(name, cfg, result)
        out["synthesis"] = outcome.to_json(names)
        if report is not None:
            out["oracle_reports"] = [report.to_json()]
        return out

    _emit(args, document, text, names)
    if solved:
        return EXIT_OK
    if outcome.verdict is synthesis_mod.SynthesisVerdict.UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_IMPOSSIBLE


def _cmd_consistency(args: SimpleNamespace) -> int:
    name, cfg = _load(args.source)
    result = analyze_param(cfg, _make_config(args))
    if not result.converged:
        return _not_converged(cfg)
    report = consistency_mod.consistency_report(
        result, cfg, include_phi_table=args.phi_table or None
    )

    def text(write: Callable[[str], object]) -> None:
        lines = [f"program: {name}"]
        lines.append(f"core: {format_subset(report.core, cfg.assumptions)}")
        lines.append(f"envelope: {format_subset(report.envelope, cfg.assumptions)}")
        for label, membership in report.classification.items():
            lines.append(f"{label}: {membership.value}")
        if report.fixpoints is not None:
            lines.append("consistent-sets: " + _format_subsets(report.fixpoints, cfg))
        if args.phi_table and report.phi_table is not None:
            lines.append("phi-table:")
            for accepted, image in report.phi_table.items():
                lines.append(
                    f"  {format_subset(accepted, cfg.assumptions)}"
                    f" -> {format_subset(image, cfg.assumptions)}"
                )
        write("\n".join(lines) + "\n")

    _emit(
        args,
        lambda: {**analysis_document(name, cfg, result), "consistency": report.to_json()},
        text,
    )
    return EXIT_OK


def _cmd_check_oracle(args: SimpleNamespace) -> int:
    name, cfg = _load(args.source)
    config = _make_config(args)
    input_range = _parse_range(args.input_range)
    if args.max_steps < 0:
        raise ValueError(f"--max-steps must be at least 0, got {args.max_steps}")
    run_equivalence = args.theorem1 or not (args.theorem1 or args.soundness)
    run_soundness = args.soundness or not (args.theorem1 or args.soundness)
    result = analyze_param(cfg, config)
    if not result.converged:
        return _not_converged(cfg)
    reports = []
    if run_equivalence:
        reports.append(verify_equivalence(cfg, config, program_name=name, param=result))
    if run_soundness:
        reports.append(
            verify_soundness(
                cfg,
                config,
                input_range=input_range,
                step_bound=args.max_steps,
                program_name=name,
                param=result,
            )
        )

    def text(write: Callable[[str], object]) -> None:
        lines = [f"program: {name}"]
        for report in reports:
            status = "pass" if report.passed else f"FAIL ({len(report.mismatches)} mismatches)"
            extra = f", {len(report.skipped)} skipped" if report.skipped else ""
            extra += f", {len(report.partial)} partial" if report.partial else ""
            lines.append(
                f"{report.check}: {status} ({report.subsets_checked} subsets, mode={report.mode}{extra})"
            )
            for mismatch in report.mismatches[:10]:
                lines.append(f"  mismatch: {json.dumps(mismatch)}")
        write("\n".join(lines) + "\n")

    _emit(
        args,
        lambda: {
            **analysis_document(name, cfg, result),
            "oracle_reports": [r.to_json() for r in reports],
        },
        text,
    )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_MISMATCH


def _cmd_dump_cfg(args: SimpleNamespace) -> int:
    _, cfg = _load(args.source)
    print(dump_cfg(cfg), end="")
    return EXIT_OK


# The options of each command: (name, dest, kind, default, metavar, help), where
# kind is int, str, a tuple of the accepted values, or None for a flag with no
# value. These rows alone drive parsing and the --help text.
_COMMON = (
    ("--format", "format", ("text", "json"), "text", "text|json", "output format"),
    ("--widen", "widen", str, "off", "off|K", "widen loop heads from the K-th visit"),
    ("--max-iters", "max_iters", int, 1000, "N", "stop the fixpoint after N iterations"),
)
# command -> (handler, help, options)
COMMANDS = {
    "analyze": (_cmd_analyze, "per-node rule tables", _COMMON),
    "synthesize": (_cmd_synthesize, "assumption sets that prove every assertion", _COMMON + (
        ("--verify-solutions", "verify_solutions", int, 8, "N", "re-prove up to N solutions"),
    )),
    "consistency": (_cmd_consistency, "bound the self-consistent assumption sets", _COMMON + (
        ("--phi-table", "phi_table", None, False, "", "print the full operator table"),
    )),
    "check-oracle": (_cmd_check_oracle, "brute-force verification sweeps", _COMMON + (
        ("--theorem1", "theorem1", None, False, "", "per-subset equality with fresh analyses"),
        ("--soundness", "soundness", None, False, "", "concrete states inside abstract ones"),
        ("--input-range", "input_range", str, "-8:8", "LO:HI", "values of unannotated inputs"),
        ("--max-steps", "max_steps", int, 100_000, "N", "steps of each concrete run"),
    )),
    "dump-cfg": (_cmd_dump_cfg, "print the control-flow graph", ()),
}


class _UsageError(Exception):
    """A command line that `_parse` rejects: args are (command or None, message)."""


def _help(command: str | None) -> str:
    if command is None:
        about = "Interval analysis parameterized by labeled program assumptions"
        rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
    else:
        _, about, options = COMMANDS[command]
        rows = [("SOURCE", "path to a .pwl program")] + [
            (f"{name} {metavar}", f"{text} (default {default})" if default else text)
            for name, _, _, default, metavar, text in options
        ]
    rows.append(("-h, --help", "print this help"))
    pad = max(len(left) for left, _ in rows) + 2
    lines = [f"  {left.ljust(pad)}{text}" for left, text in rows]
    usage = f"usage: paramax {command or 'COMMAND'} [options] SOURCE"
    return "\n".join([usage, "", about, "", *lines]) + "\n"


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The arguments of a command line, or the help text that it asks for.

    Options come before or after the source, as `--opt VALUE` or
    `--opt=VALUE`; a value may begin with '-'. The last occurrence wins.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return _help(None)
    if command not in COMMANDS:
        raise _UsageError(None, f"unknown command {command!r}" if argv else "no command")
    options = {row[0]: row for row in COMMANDS[command][2]}
    args = SimpleNamespace(command=command, **{row[1]: row[3] for row in options.values()})
    sources = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg in ("-h", "--help"):
            return _help(command)
        if arg[:1] != "-" or arg == "-":
            sources.append(arg)
            continue
        name, has_value, value = arg.partition("=")
        if name not in options:
            raise _UsageError(command, f"unknown option {name}")
        _, dest, kind, _, metavar, _ = options[name]
        if kind is None:
            if has_value:
                raise _UsageError(command, f"{name} takes no value")
            value = True
        elif not has_value and (value := next(rest, None)) is None:
            raise _UsageError(command, f"{name} expects a value {metavar}")
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(command, f"{name} expects an integer, got {value!r}")
        elif kind is not str and value not in kind:
            raise _UsageError(command, f"{name} must be one of {'|'.join(kind)}, got {value!r}")
        setattr(args, dest, value)
    if len(sources) != 1:
        raise _UsageError(command, f"expected one SOURCE, got {len(sources)}")
    args.source = sources[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        usage = _help(exc.args[0]).partition("\n")[0]
        print(usage, f"paramax: error: {exc.args[1]}", sep="\n", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(args, str):
        print(args, end="")
        return EXIT_OK
    try:
        return COMMANDS[args.command][0](args)
    except ParseError as exc:
        print(f"{args.source}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"paramax {args.command}: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


if __name__ == "__main__":
    raise SystemExit(main())
