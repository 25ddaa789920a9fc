"""Golden CLI outputs: the sha256 of stdout and the exit code of every case.

The cases are `analyze`, `synthesize`, `consistency --phi-table` and
`check-oracle --max-steps 2000` on every `tests/corpus/*.pwl` program, in
text and JSON, with and without `--widen 2`. The digests live in
`tests/golden_cli.json`; regenerate that file (and say why in CHANGES.md)
with:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from paramax.cli import main

CORPUS_DIR = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden_cli.json"
COMMANDS = (
    ("analyze",),
    ("synthesize",),
    ("consistency", "--phi-table"),
    ("check-oracle", "--max-steps", "2000"),
)
FORMATS = ("text", "json")
WIDENINGS = ((), ("--widen", "2"))


def cases() -> dict[str, list[str]]:
    """Case name -> argv."""
    out = {}
    for program in sorted(CORPUS_DIR.glob("*.pwl")):
        for command, *flags in COMMANDS:
            for fmt in FORMATS:
                for widen in WIDENINGS:
                    name = " ".join([command, program.name, fmt, *widen])
                    out[name] = [command, str(program), *flags, "--format", fmt, *widen]
    return out


def digest(argv: list[str]) -> list:
    """[exit code, sha256 of stdout]."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]


def current() -> dict[str, list]:
    return {name: digest(argv) for name, argv in cases().items()}


def test_cli_outputs_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = current()
    assert sorted(got) == sorted(expected), "the case list changed; regenerate the file"
    failing = [name for name in got if got[name] != expected[name]]
    assert not failing, f"{len(failing)} cases differ, e.g. {failing[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    lines = [f" {json.dumps(name)}: {json.dumps(row)}" for name, row in sorted(current().items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
