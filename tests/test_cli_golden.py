"""Exit code, stdout and stderr of the CLI, pinned byte for byte.

tests/data/cli_golden.json holds one record per invocation: every
subcommand in text and --json form (the benchmark's seeded valid queries
for seeds 1-3), the benchmark's malformed templates for the same seeds,
--help, deep nesting, a non-decimal digit and the selftest tables.  The
records are checked in-process through cli.main, and a few of them again
in a fresh ``python -m skeincalc.cli`` process.

To re-record from the current tree (only after a deliberate change of
output): PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from skeincalc import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
# argparse wraps --help at the terminal width; pin it.
ENV = {"COLUMNS": "80"}
SUBCOMMANDS = {
    "mul", "reduce-t2", "abelianize", "certify-ab", "reduce-t3", "common-curve",
    "generators", "grade", "oracle-check", "closure-check", "selftest",
}


def run_in_process(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def invocations() -> list[list[str]]:
    """The recorded argument lists; needs bench/ on sys.path."""
    from workloads import KNOWN_VIOLATIONS, _malformed_queries, _valid_queries

    argvs = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)  # drawn in the benchmark's order
        argvs += _valid_queries(rng)
        argvs += _malformed_queries(rng)
    argvs += KNOWN_VIOLATIONS
    argvs += [
        [],
        ["--help"],
        ["mul", "--help"],
        ["mul"],
        ["certify-ab", "1", "x"],
        ["mul", "(" * 150 + "(1,0)" + ")" * 150],
        ["mul", "²"],
        ["mul", "A^²*(1,0)"],
        ["oracle-check", "--box", "2"],
        ["oracle-check", "--box", "2", "--json"],
        ["selftest", "--box", "2"],
        ["selftest", "--box", "2", "--json"],
    ]
    unique = []
    for argv in argvs:
        if argv not in unique:
            unique.append(argv)
    return unique


def record() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    os.environ.update(ENV)
    records = [run_in_process(argv) for argv in invocations()]
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(records)} invocations recorded in {GOLDEN}")


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def cli_env(monkeypatch):
    for key, value in ENV.items():
        monkeypatch.setenv(key, value)


def test_golden_covers_every_subcommand_in_both_forms(golden):
    answered = [r["argv"] for r in golden if r["code"] == 0 and "--help" not in r["argv"]]
    assert {argv[0] for argv in answered if "--json" in argv} == SUBCOMMANDS
    assert {argv[0] for argv in answered if "--json" not in argv} == SUBCOMMANDS
    assert sum(r["code"] == 2 for r in golden) >= 30
    assert len(golden) >= 90


def test_in_process_bytes_match_golden(golden, cli_env):
    for want in golden:
        assert run_in_process(want["argv"]) == want


def test_spawned_bytes_match_golden(golden):
    # One answer, one parse error and the help text, each in a fresh process.
    picks = [
        next(r for r in golden if r["argv"] and r["argv"][0] == "reduce-t3" and r["code"] == 0),
        next(r for r in golden if r["argv"] == ["mul", "²"]),
        next(r for r in golden if r["argv"] == ["--help"]),
    ]
    env = {**os.environ, **ENV, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for want in picks:
        done = subprocess.run(
            [sys.executable, "-m", "skeincalc.cli", *want["argv"]],
            capture_output=True,
            env=env,
            timeout=60,
        )
        got = {
            "argv": want["argv"],
            "code": done.returncode,
            "stdout": done.stdout.decode("utf-8"),
            "stderr": done.stderr.decode("utf-8"),
        }
        assert got == want


if __name__ == "__main__":
    record()
