import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import skeincalc
from skeincalc import checks
from skeincalc.cli import main
from skeincalc.torus2 import SkeinT2Element, curve

# The directory holding the package, for child processes.
PACKAGE_ROOT = str(Path(skeincalc.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "(1,0)", "(0,1)")
    assert code == 0
    assert out.strip() == "(A^-1)*(1,-1) + (A)*(1,1)"


def test_mul_json_matches_text(capsys):
    code, out, _ = run(capsys, "mul", "--json", "(1,0)*(0,1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [
        {"label": [1, -1], "coef": "A^-1"},
        {"label": [1, 1], "coef": "A"},
    ]


def test_reduce_t2_normalizes(capsys):
    code, out, _ = run(capsys, "reduce-t2", "(1,0)*(1,0)")
    assert code == 0
    assert out.strip() == "(2)*empty + (1)*(2,0)"


def test_abelianize(capsys):
    code, out, _ = run(capsys, "abelianize", "A*(3,4) + (1,0)")
    assert code == 0
    assert out.strip() == "(A + 1)*(1,0)"


def test_certify_ab_json_schema(capsys):
    code, out, _ = run(capsys, "certify-ab", "--json", "3", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == [3, 1]
    assert doc["canonical"] == [1, 1]
    # A step holds integers only; the text form prints its derived scale.
    assert doc["steps"] == [{"from": [3, 1], "to": [1, 1], "conjugator": [1, 0]}]
    code, out, _ = run(capsys, "certify-ab", "3", "1")
    assert code == 0 and "conjugator (1, 0)  scale (A)/(A^2 - 1)\n" in out


def test_reduce_t3_json(capsys):
    code, out, _ = run(capsys, "reduce-t3", "--json", "2", "3", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == [2, 3, 5]
    assert doc["canonical"] == [0, 1, 1]
    (step,) = doc["steps"]
    assert step == {"u": [-1, 1, 0], "v": [0, 1, 1], "from_pair": [-2, 5], "to_pair": [0, 1]}


def test_reduce_t3_far_curve_is_one_step(capsys):
    code, out, _ = run(capsys, "reduce-t3", "--json", "1000000000001", "2", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["canonical"] == [1, 0, 1]
    assert len(doc["steps"]) == 1


def test_reduce_t3_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "reduce-t3", "2", "4", "6")
    assert code == 2
    assert "coprime" in err


def test_generators(capsys):
    code, out, _ = run(capsys, "generators", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 9
    assert doc[0] == {"kind": "empty"}
    assert {"kind": "curve", "curve": [1, 1, 1]} in doc
    assert doc[-1] == {"kind": "alpha"}


def test_grade(capsys):
    code, out, _ = run(capsys, "grade", "--json", "2,3,5", "1,0,1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["buckets"]) == 8
    by_class = {tuple(b["class"]): b["curves"] for b in doc["buckets"]}
    assert by_class[(0, 1, 1)] == [[2, 3, 5]]
    assert by_class[(1, 0, 1)] == [[1, 0, 1]]


def test_common_curve(capsys):
    code, out, _ = run(
        capsys,
        "common-curve",
        "--",
        "1,0,0;0,1,0;0,0,1",
        "1,2",
        "-2,-3,1;1,0,0;0,1,0",
        "1,2",
    )
    assert code == 0
    assert out.strip() == "[2,-1,0]"


def test_common_curve_same_plane(capsys):
    code, _, err = run(
        capsys, "common-curve", "1,0,0;0,1,0;0,0,1", "1,2", "1,0,0;0,1,0;0,0,1", "2,1"
    )
    assert code == 2
    assert "coincide" in err


def test_common_curve_column_count_exits_2(capsys):
    identity = "1,0,0;0,1,0;0,0,1"
    for cols1, cols2 in (("1", "1,3"), ("1,2", "1,2,3")):
        code, out, err = run(capsys, "common-curve", "--", identity, cols1, identity, cols2)
        assert code == 2
        assert out == ""
        assert err == "error: columns must be two distinct 1-based indices\n"


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "--box", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"box": 2, "comparisons": 169, "mismatches": 0, "pass": True}


def test_oracle_check_mismatch_prints_the_differing_terms(capsys, monkeypatch):
    # A curve product that adds (5,5): its image A^-25 (l^5 m^5 + l^-5 m^-5)
    # is on the skein side only, one stderr line per differing key.
    product = SkeinT2Element.__mul__
    monkeypatch.setattr(SkeinT2Element, "__mul__", lambda x, y: product(x, y) + curve(5, 5))
    code, out, err = run(capsys, "oracle-check", "--box", "1")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "oracle mismatch at labels (0, 0) * (0, 0)",
        "  l^5*m^5: skein side A^-25, quantum-torus side 0",
        "  l^-5*m^-5: skein side A^-25, quantum-torus side 0",
    ]


def test_closure_check(capsys):
    code, out, _ = run(capsys, "closure-check", "--box", "3")
    assert code == 0
    assert "pass" in out


def test_box_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("SKEINCALC_BOX", "-1")
    code, out, err = run(capsys, "oracle-check", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["box"] == 3


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--box", "2")
    assert code == 0
    assert "FAIL" not in out


def test_selftest_reports_a_raising_check_and_finishes(capsys, monkeypatch):
    def broken(box):
        raise RuntimeError("sweep crashed")

    monkeypatch.setattr(checks, "reduction_sweep", broken)
    code, out, err = run(capsys, "selftest", "--box", "1")
    rows = out.splitlines()
    assert code == 1 and err == ""
    assert len(rows) == 10
    assert [row for row in rows if "FAIL" in row] == [
        "3-torus reduction            FAIL  (RuntimeError: sweep crashed)"
    ]
    code, out, err = run(capsys, "selftest", "--box", "1", "--json")
    doc = json.loads(out)
    assert code == 1 and err == "" and doc["pass"] is False
    assert len(doc["checks"]) == 10
    assert [c for c in doc["checks"] if not c["pass"]] == [
        {"name": "3-torus reduction", "pass": False, "detail": "RuntimeError: sweep crashed"}
    ]


def test_empty_sweeps_report_zero_cases_and_selftest_fails_them(capsys, monkeypatch):
    assert checks.chebyshev_sweep(0, 8) == (0, None)
    assert checks.associativity_sweep(0, 5) == (0, None)
    assert checks.jw_basis_sweep(-1) == (0, None)
    monkeypatch.setattr(checks, "chebyshev_sweep", lambda box, max_n: (0, None))
    code, out, err = run(capsys, "selftest", "--box", "1")
    assert code == 1 and err == ""
    assert [row for row in out.splitlines() if "FAIL" in row] == [
        "chebyshev labels             FAIL  (checked no cases)"
    ]
    code, out, err = run(capsys, "selftest", "--box", "1", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["pass"] is False
    assert [c for c in doc["checks"] if not c["pass"]] == [
        {"name": "chebyshev labels", "pass": False, "detail": "checked no cases"}
    ]


def test_selftest_rows_print_each_counterexample(capsys, monkeypatch):
    # n = 0 is a counterexample too, though it is falsy.
    monkeypatch.setattr(checks, "jw_basis_sweep", lambda max_n: (1, 0))
    monkeypatch.setattr(checks.torus3, "generators", lambda: ())
    code, out, err = run(capsys, "selftest", "--box", "1")
    assert code == 1 and err == ""
    assert [row for row in out.splitlines() if "FAIL" in row] == [
        "second-kind basis            FAIL  (fails at n=0)",
        "nine generators              FAIL  (generator list malformed: [])",
    ]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "reduce-t2", "(1,0) +")
    assert code == 2
    assert "line 1" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_roundtrip_render_parse_via_cli(capsys):
    code, out, _ = run(capsys, "reduce-t2", "(A^2+1)*(2,3) + (1,0)*(0,1)")
    assert code == 0
    code2, out2, _ = run(capsys, "reduce-t2", out.strip())
    assert code2 == 0
    assert out2 == out


def test_deep_nesting_exits_2(capsys):
    for text in ("(" * 3000 + "(1,0)" + ")" * 3000, "1*" + "-" * 3000 + "(1,0)"):
        code, out, err = run(capsys, "mul", text)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: line 1, column ")
        assert len(err.splitlines()) == 1


def test_non_decimal_digits_exit_2(capsys):
    for text, col in (("\u00b2", 1), ("A^\u00b2", 3)):
        code, out, err = run(capsys, "mul", text)
        assert code == 2
        assert out == ""
        assert err == f"parse error: line 1, column {col}: unexpected character '\u00b2'\n"


def test_box_below_1_exits_2(capsys):
    for argv in (["oracle-check", "--box", "-3"], ["selftest", "--box", "0"], ["closure-check", "--box", "-1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --box must be at least 1, got {argv[-1]}\n"


def _child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": PACKAGE_ROOT, **extra}


# Prints the modules a command adds to those of a bare interpreter start.
_NEW_MODULES = """
import contextlib, io, sys
before = set(sys.modules)
from skeincalc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""


def _new_modules(*argv) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    code, *modules = done.stdout.split()
    assert (code, done.stderr) == ("0", "")
    return set(modules)


def test_commands_import_only_what_they_use():
    loaded = _new_modules("mul", "(1,0)", "(0,1)")
    assert {"skeincalc.cli", "skeincalc.expressions", "skeincalc.torus2"} <= loaded
    assert not loaded & {
        "dataclasses",
        "inspect",
        "json",
        "skeincalc.abelianize",
        "skeincalc.torus3",
        "skeincalc.checks",
        "skeincalc.quantum_torus",
    }
    loaded = _new_modules("reduce-t3", "2", "3", "5")
    assert "skeincalc.torus3" in loaded
    assert not loaded & {"dataclasses", "skeincalc.abelianize", "skeincalc.quantum_torus"}


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_1_without_traceback(unbuffered):
    # The read end is closed before the child starts, so its first write
    # to stdout fails, whether it writes at once or only at its last flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "skeincalc.cli", "selftest", "--box", "1", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # 1 GiB


@pytest.mark.parametrize(
    "expr",
    [
        "(A+1)*(1,0)/(1 + A^200000000)",  # a gcd in the constructor
        "(1,0)/(1 + A^200000000) + (1,0)/(1 - A^3)",  # a gcd in a sum
    ],
)
def test_out_of_memory_exits_2_without_traceback(expr):
    # A gcd of degree 2*10^8 needs more memory than the limit allows.
    done = subprocess.run(
        [sys.executable, "-m", "skeincalc.cli", "reduce-t2", expr],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: out of memory\n"


def test_sparse_huge_exponent_answers(capsys):
    code, out, _ = run(capsys, "reduce-t2", "A^100000000*(1,0)")
    assert code == 0
    assert out == "(A^100000000)*(1,0)\n"
