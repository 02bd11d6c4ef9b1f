"""CLI output pinned byte for byte: exit code, stdout, stderr and the --out file.

`golden/cases.json` lists the commands; `golden/<name>.txt` holds what each
one printed when it was recorded.  A case whose argv holds "{out}" writes
its payload to a temporary file, which is compared too.  To record the
files again after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which files changed and why.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from patrolgame.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _section(title: str, text: str) -> str:
    # byte counts make the rendering unambiguous whatever the streams hold
    return f"# {title} ({len(text.encode())} bytes)\n{text}"


def run_case(argv: list[str], workdir: Path) -> str:
    out_path = workdir / "out"
    argv = [arg.replace("{out}", str(out_path)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    text = f"# exit {code}\n" + _section("stdout", stdout.getvalue())
    text += _section("stderr", stderr.getvalue())
    if out_path.exists():
        text += _section("out file", out_path.read_bytes().decode())
    return text


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, tmp_path):
    # line by line, so that a stale file fails on its first differing line
    # and not on a diff of the whole output, which under -v can take minutes;
    # the kept line ends make equal lines and an equal count byte-exact
    actual = run_case(case["argv"], tmp_path).encode().splitlines(keepends=True)
    expected = (GOLDEN / f"{case['name']}.txt").read_bytes().splitlines(keepends=True)
    for number, (got, want) in enumerate(zip(actual, expected), 1):
        assert got == want, f"line {number} differs"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            text = run_case(case["argv"], Path(tmp))
        (GOLDEN / f"{case['name']}.txt").write_bytes(text.encode())
        print(case["name"], file=sys.stderr)
