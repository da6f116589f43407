"""Command-line front end.

Subcommands: mul, reduce-t2, abelianize, certify-ab, reduce-t3,
common-curve, generators, grade, oracle-check, closure-check, selftest.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure or closed stdout, 2 usage, parse error or out of memory.
oracle-check, closure-check and selftest run the sweeps of skeincalc.checks
and take --box N; a box below 1 is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports what it uses, so a process loads only its own.
from .errors import ExpressionError, VerificationError


def _box(args) -> int:
    """The sweep half-width from --box.

    A box below 1 is refused: a negative box holds no labels, so a sweep
    over it would report PASS having checked nothing, and box 0 holds only
    the degenerate label (0, 0).
    """
    if args.box < 1:
        raise ValueError(f"--box must be at least 1, got {args.box}")
    return args.box


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
    from . import labels
    cert = labels.certificate(args.p, args.q)
    labels.verify_certificate(cert)
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
            print(f"  u {s.u} v {s.v} {s.from_pair} -> {s.to_pair}")
        print("certificate verified")
    return 0


def _embedding(matrix: str, cols: str):
    # rows 'a,b,c;d,e,f;g,h,i' and columns 'i,j'
    from .torus3 import StandardEmbedding
    rows = [[int(x) for x in row.strip().split(",")] for row in matrix.split(";")]
    return StandardEmbedding(rows, tuple(int(x) for x in cols.split(",")))


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
    from .checks import oracle_diff, oracle_sweep
    box = _box(args)
    comparisons, mismatch = oracle_sweep(box)
    if mismatch is not None:
        a, b = mismatch
        print(f"oracle mismatch at labels {a} * {b}", file=sys.stderr)
        for (p, q), skein, torus in oracle_diff(a, b):
            print(f"  l^{p}*m^{q}: skein side {skein}, quantum-torus side {torus}", file=sys.stderr)
        return 1
    if args.json:
        doc = {"box": box, "comparisons": comparisons, "mismatches": 0, "pass": True}
        _print_json(doc, indent=None)
    else:
        print(f"oracle-check: pass, {comparisons} label-pair comparisons (box {box})")
    return 0


def cmd_closure_check(args) -> int:
    from .checks import closure_sweep
    box = _box(args)
    _, problem = closure_sweep(box)
    if problem is not None:
        print(f"closure mismatch: {problem}", file=sys.stderr)
        return 1
    # closure_sweep passes only when the partition has exactly 4 classes.
    if args.json:
        _print_json({"box": box, "classes": 4, "pass": True}, indent=None)
    else:
        print(f"closure-check: pass, 4 classes matching parities (box {box})")
    return 0


def cmd_selftest(args) -> int:
    from . import checks
    # (name, sweep, its arguments, detail for the case count, problem for the counterexample)
    table = (
        ("oracle homomorphism", checks.oracle_sweep, (_box(args),), "{} pairs", "mismatch at {}"),
        ("product associativity", checks.associativity_sweep, (200, 10), "{} triples", "counterexample {}"),
        ("chebyshev labels", checks.chebyshev_sweep, (3, 8), "{} cases in box 3, n <= 8", "counterexample {}"),
        ("second-kind basis", checks.jw_basis_sweep, (20,), "{} degrees, n <= 20", "fails at n={}"),
        ("abelianization closure", checks.closure_sweep, (2, 3, 4, 5, 6), "boxes 2..6", "{}"),
        ("commutator certificates", checks.certificate_sweep, (4,), "{} labels in box 4", "{}"),
        ("3-torus reduction", checks.reduction_sweep, (5,), "{} curves (box 5)", "{}"),
        ("nine generators", checks.generators_sweep, (), "{} elements", "generator list malformed: {}"),
        ("diffeomorphism to (1,0,0)", checks.diffeo_sweep, (100,), "{} curves", "{}"),
        ("torus intersections", checks.intersection_sweep, (100,), "{} pairs", "{}"),
    )
    results = []
    failed = False
    for name, sweep, sweep_args, detail, counterexample in table:
        try:
            count, bad = sweep(*sweep_args)
            if bad is not None:
                problem = counterexample.format(bad)
            else:  # a sweep that checked no case fails
                problem = None if count else "checked no cases"
            detail = detail.format(count)
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
    p.add_argument("--box", type=int, default=3, help="half-width (default 3)")

    p = add("closure-check", cmd_closure_check, "union-find closure vs parity classes")
    p.add_argument("--box", type=int, default=6, help="half-width (default 6)")

    p = add("selftest", cmd_selftest, "run all sweeps at default sizes")
    p.add_argument("--box", type=int, default=3, help="oracle half-width (default 3)")

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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
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
