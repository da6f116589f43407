"""Command-line front end.

Subcommands: mul, reduce-t2, abelianize, certify-ab, reduce-t3,
common-curve, generators, grade, oracle-check, closure-check, selftest.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure or closed stdout, 2 usage or parse error.
oracle-check, closure-check and selftest run the sweeps of skeincalc.checks
and take --box N; the SKEINCALC_BOX environment variable overrides the
default.  A box below 1, from either source, is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports what it uses, so a process loads only its own.
from .errors import ExpressionError, VerificationError


def _box(args, fallback: int) -> int:
    """The sweep half-width: --box, else SKEINCALC_BOX, else the fallback.

    A box below 1 is refused: a negative box holds no labels, so a sweep
    over it would report PASS having checked nothing, and box 0 holds only
    the degenerate label (0, 0).
    """
    if args.box is not None:
        box, source = args.box, "--box"
    else:
        value = os.environ.get("SKEINCALC_BOX")
        if value is None:
            return fallback
        try:
            box, source = int(value), "SKEINCALC_BOX"
        except ValueError:
            raise ValueError(f"SKEINCALC_BOX must be an integer, got {value!r}")
    if box < 1:
        raise ValueError(f"{source} must be at least 1, got {box}")
    return box


def _element_terms(x) -> list[dict]:
    return [
        {"label": "empty" if not label else list(label), "coef": str(x.terms[label])}
        for label in sorted(x.terms)
    ]


def _print_json(doc, indent: int | None = 2) -> None:
    import json
    print(json.dumps(doc, indent=indent))


def _emit_element(x, as_json: bool) -> None:
    if as_json:
        _print_json({"terms": _element_terms(x)})
    else:
        print(x)


def cmd_mul(args) -> int:
    from .expressions import parse_element
    result = parse_element(args.expr[0])
    for text in args.expr[1:]:
        result = result * parse_element(text)
    _emit_element(result, args.json)
    return 0


def cmd_reduce_t2(args) -> int:
    from .expressions import parse_element
    _emit_element(parse_element(args.expr), args.json)
    return 0


def cmd_abelianize(args) -> int:
    from .abelianize import reduce_element
    from .expressions import parse_element
    _emit_element(reduce_element(parse_element(args.expr)), args.json)
    return 0


def cmd_certify_ab(args) -> int:
    from . import abelianize
    cert = abelianize.certificate(args.p, args.q)
    abelianize.verify_certificate(cert)
    if args.json:
        _print_json(cert.to_json_dict())
    else:
        print(f"input: ({args.p},{args.q})")
        print(f"canonical: ({cert.canonical[0]},{cert.canonical[1]})")
        print(f"steps: {len(cert.steps)}")
        for s in cert.steps:
            print(f"  {s.from_pair} -> {s.to_pair}  conjugator {s.conjugator}  scale {s.scale}")
        print("certificate verified")
    return 0


def cmd_reduce_t3(args) -> int:
    from . import torus3
    c = torus3.Curve3.of(args.p, args.q, args.r)
    canonical, cert = torus3.reduce_curve(c)
    torus3.replay_certificate(cert)
    if args.json:
        _print_json(cert.to_json_dict())
    else:
        print(f"input: {c}")
        print(f"canonical: {canonical}")
        print(f"steps: {len(cert.steps)}")
        for s in cert.steps:
            print(f"  matrix {list(map(list, s.embedding.matrix))} columns {s.embedding.columns}"
                  f" {s.from_pair} -> {s.to_pair} perm {s.permutation}")
        print("certificate verified")
    return 0


def _embedding(matrix: str, cols: str):
    # rows 'a,b,c;d,e,f;g,h,i' and columns 'i,j'
    from .torus3 import StandardEmbedding
    rows = [[int(x) for x in row.strip().split(",")] for row in matrix.split(";")]
    i, j = (int(x) for x in cols.split(","))
    return StandardEmbedding(rows, (i, j))


def cmd_common_curve(args) -> int:
    from .torus3 import common_curve
    w = common_curve(_embedding(args.matrix1, args.cols1), _embedding(args.matrix2, args.cols2))
    if args.json:
        _print_json({"curve": list(w.coords)}, indent=None)
    else:
        print(w)
    return 0


def cmd_generators(args) -> int:
    from .torus3 import generators
    gens = generators()
    if args.json:
        _print_json(
            [{"kind": g.kind, **({"curve": list(g.curve.coords)} if g.curve else {})} for g in gens]
        )
    else:
        for g in gens:
            print(g)
    return 0


def cmd_grade(args) -> int:
    from .torus3 import Curve3, grade_decompose
    curves = []
    for text in args.triple:
        parts = [int(x) for x in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected p,q,r, got {text!r}")
        curves.append(Curve3.of(*parts))
    buckets = grade_decompose(curves)
    if args.json:
        doc = [
            {"class": list(h), "curves": [list(c.coords) for c in buckets[h]]}
            for h in sorted(buckets)
        ]
        _print_json({"buckets": doc})
    else:
        for h in sorted(buckets):
            members = " ".join(str(c) for c in buckets[h]) or "-"
            print(f"({h[0]},{h[1]},{h[2]}): {members}")
    return 0


def cmd_oracle_check(args) -> int:
    from .checks import oracle_sweep
    box = _box(args, 3)
    comparisons, mismatch = oracle_sweep(box)
    if mismatch is not None:
        print(f"oracle mismatch at labels {mismatch[0]} * {mismatch[1]}", file=sys.stderr)
        return 1
    if args.json:
        doc = {"box": box, "comparisons": comparisons, "mismatches": 0, "pass": True}
        _print_json(doc, indent=None)
    else:
        print(f"oracle-check: pass, {comparisons} label-pair comparisons (box {box})")
    return 0


def cmd_closure_check(args) -> int:
    from .checks import closure_sweep
    box = _box(args, 6)
    problem = closure_sweep(box)
    if problem is not None:
        print(f"closure mismatch: {problem}", file=sys.stderr)
        return 1
    # closure_sweep passes only when the partition has exactly 4 classes.
    if args.json:
        _print_json({"box": box, "classes": 4, "pass": True}, indent=None)
    else:
        print(f"closure-check: pass, 4 classes matching parities (box {box})")
    return 0


def _swept(count: int, noun: str, problem: str | None = None):
    # A selftest row for a sweep: a sweep that checked no case fails.
    if problem is None and not count:
        problem = "checked no cases"
    return problem, f"{count} {noun}"


def cmd_selftest(args) -> int:
    from . import checks, torus3
    box = _box(args, 3)

    def run_oracle():
        comparisons, mismatch = checks.oracle_sweep(box)
        return _swept(comparisons, "pairs", f"mismatch at {mismatch}" if mismatch else None)

    def run_assoc():
        count, bad = checks.associativity_sweep(200, 10)
        return _swept(count, "triples", f"counterexample {bad}" if bad else None)

    def run_cheb():
        count, bad = checks.chebyshev_sweep(3, 8)
        return _swept(count, "cases in box 3, n <= 8", f"counterexample {bad}" if bad else None)

    def run_jw():
        count, bad = checks.jw_basis_sweep(20)
        return _swept(count, "degrees, n <= 20", f"fails at n={bad}" if bad is not None else None)

    def run_closure():
        for n in range(2, 7):
            problem = checks.closure_sweep(n)
            if problem:
                return problem, ""
        return None, "boxes 2..6"

    def run_certs():
        return _swept(checks.certificate_sweep(4), "labels in box 4")

    def run_reduce():
        return _swept(checks.reduction_sweep(5), "curves (box 5)")

    def run_generators():
        gens = torus3.generators()
        classes = {g.curve.parities() for g in gens if g.kind == "curve"}
        ok = len(gens) == 9 and len(classes) == 7 and (0, 0, 0) not in classes
        return (None if ok else "generator list malformed"), "9 elements"

    def run_diffeo():
        return _swept(checks.diffeo_sweep(100), "curves")

    def run_intersections():
        return _swept(checks.intersection_sweep(100), "pairs")

    table = [
        ("oracle homomorphism", run_oracle),
        ("product associativity", run_assoc),
        ("chebyshev labels", run_cheb),
        ("second-kind basis", run_jw),
        ("abelianization closure", run_closure),
        ("commutator certificates", run_certs),
        ("3-torus reduction", run_reduce),
        ("nine generators", run_generators),
        ("diffeomorphism to (1,0,0)", run_diffeo),
        ("torus intersections", run_intersections),
    ]
    results = []
    failed = False
    for name, fn in table:
        try:
            problem, detail = fn()
        except (VerificationError, AssertionError) as exc:
            problem, detail = str(exc), ""
        except Exception as exc:  # any other fault is this check's FAIL row
            problem, detail = f"{type(exc).__name__}: {exc}", ""
        ok = problem is None
        failed = failed or not ok
        results.append({"name": name, "pass": ok, "detail": problem or detail})
        if not args.json:
            status = "PASS" if ok else "FAIL"
            extra = f"  ({problem or detail})" if (problem or detail) else ""
            print(f"{name:<28} {status}{extra}")
    if args.json:
        _print_json({"checks": results, "pass": not failed})
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeincalc",
        description="Exact skein-algebra calculator for the 2- and 3-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(func=fn)
        return p

    p = add("mul", cmd_mul, "multiply skein expressions")
    p.add_argument("expr", nargs="+", help="expressions, e.g. '(1,0)*(0,1)'")

    p = add("reduce-t2", cmd_reduce_t2, "expand an expression to curve-basis normal form")
    p.add_argument("expr")

    p = add("abelianize", cmd_abelianize, "project an expression onto the five classes")
    p.add_argument("expr")

    p = add("certify-ab", cmd_certify_ab, "commutator certificate for a curve label")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = add("reduce-t3", cmd_reduce_t3, "reduce a 3-torus curve to its parity class")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)

    p = add("common-curve", cmd_common_curve, "curve on the intersection of two tori")
    p.add_argument("matrix1", help="rows 'a,b,c;d,e,f;g,h,i' (put -- first if a value starts with '-')")
    p.add_argument("cols1", help="selected columns, e.g. '1,3'")
    p.add_argument("matrix2")
    p.add_argument("cols2")

    add("generators", cmd_generators, "list the nine generators")

    p = add("grade", cmd_grade, "sort curves into the eight homology buckets")
    p.add_argument("triple", nargs="*", help="curves as 'p,q,r'")

    p = add("oracle-check", cmd_oracle_check, "quantum-torus oracle sweep")
    p.add_argument("--box", type=int, default=None, help="half-width (default 3)")

    p = add("closure-check", cmd_closure_check, "union-find closure vs parity classes")
    p.add_argument("--box", type=int, default=None, help="half-width (default 6)")

    p = add("selftest", cmd_selftest, "run all sweeps at default sizes")
    p.add_argument("--box", type=int, default=None, help="oracle half-width (default 3)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExpressionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> int:
    """main() for a process of its own: a closed stdout ends it with exit 1.

    As in the note on SIGPIPE in the signal module's documentation, stdout is
    flushed inside the handler, then pointed at devnull so exit cannot fail.
    """
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(console_main())
