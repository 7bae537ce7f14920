"""Golden sweep of the command line over the corpus.

Every `corpus/*/*.sdf` is run in-process through `cli.main` with `check`,
`schedule --format json`, `run --scheduler exhaustive --format json` and
`run --scheduler roundRobin --format json` (a whole trace), each with every
declared size set to 2, and its stdout, stderr and exit code are compared
with `tests/golden/cli_corpus.json`.  A change to any verdict, diagnostic,
schedule or trace on the corpus shows up here.

After an intended change of output, rewrite the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sdflow.cli import main
from sdflow.parser import parse_program
from sdflow.syntax import SizeKind

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden" / "cli_corpus.json"

COMMANDS = {
    "check": ["check"],
    "schedule": ["schedule", "--format", "json"],
    "run": ["run", "--scheduler", "exhaustive", "--format", "json"],
    "trace": ["run", "--scheduler", "roundRobin", "--format", "json"],
}


def _size_args(path: Path) -> list[str]:
    net = parse_program(path.read_text())
    if isinstance(net, list):
        return []
    return [arg for name, kind in net.tenv.items if isinstance(kind, SizeKind)
            for arg in ("--size", f"{name}=2")]


def _cases():
    for path in sorted(CORPUS.glob("*/*.sdf")):
        for command in COMMANDS:
            yield f"{path.relative_to(CORPUS).as_posix()} {command}", path, command


def _invoke(path: Path, command: str) -> dict:
    argv = COMMANDS[command][:1] + [str(path)] + COMMANDS[command][1:] \
        + _size_args(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,path,command",
                         [pytest.param(*c, id=c[0]) for c in _cases()])
def test_cli_output_matches_the_golden_file(name, path, command):
    assert _invoke(path, command) == _golden()[name]


def test_golden_file_covers_exactly_the_corpus():
    assert sorted(_golden()) == sorted(name for name, _, _ in _cases())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {name: _invoke(path, command) for name, path, command in _cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN.relative_to(ROOT)}",
          file=sys.stderr)
