"""Command-line front end.

Subcommands: mul, reduce-t2, abelianize, certify-ab, reduce-t3,
common-curve, generators, grade, oracle-check, closure-check, selftest.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage or parse error.  Sweep commands take
--box N; the SKEINCALC_BOX environment variable overrides the default.
A box below 1, from either source, is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from . import abelianize, torus2, torus3
from .errors import VerificationError
from .expressions import ExpressionError, parse_element
from .quantum_torus import embed_element
from .torus2 import SkeinT2Element, chebyshev_t, curve, t_to_jw
from .torus3 import Curve3, StandardEmbedding


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
        {
            "label": "empty" if not label else list(label),
            "coef": str(x.terms[label]),
        }
        for label in sorted(x.terms)
    ]


def _emit_element(x, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"terms": _element_terms(x)}, indent=2))
    else:
        print(x)


# ---------------------------------------------------------------- sweeps


def oracle_sweep(box: int):
    """Compare the curve product against the quantum-torus product on a box.

    Returns (comparisons, first mismatch or None); the count is
    (2*box+1)^4 label pairs.
    """
    rng = range(-box, box + 1)
    labels = [(p, q) for p in rng for q in rng]
    images = {lab: embed_element(curve(*lab)) for lab in labels}
    comparisons = 0
    for a in labels:
        xa = curve(*a)
        pa = images[a]
        for b in labels:
            comparisons += 1
            lhs = embed_element(xa * curve(*b))
            if lhs != pa * images[b]:
                return comparisons, (a, b)
    return comparisons, None


def associativity_sweep(count: int, box: int, seed: int = 11):
    rng = random.Random(seed)
    for _ in range(count):
        a, b, c = (
            curve(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(3)
        )
        if (a * b) * c != a * (b * c):
            return (a, b, c)
    return None


def chebyshev_sweep(box: int, max_n: int):
    for p in range(-box, box + 1):
        for q in range(-box, box + 1):
            if math.gcd(p, q) != 1:
                continue
            for n in range(max_n + 1):
                if chebyshev_t(n, (p, q)) != curve(n * p, n * q):
                    return (p, q, n)
    return None


def jw_basis_sweep(max_n: int):
    # Independent model: explicit polynomials in a commuting variable.
    t_polys = [{0: 2}, {1: 1}]
    s_polys = [{0: 1}, {1: 1}]
    for _ in range(max_n):
        for fam in (t_polys, s_polys):
            nxt = {e + 1: c for e, c in fam[-1].items()}
            for e, c in fam[-2].items():
                nxt[e] = nxt.get(e, 0) - c
            fam.append({e: c for e, c in nxt.items() if c})
    for n in range(max_n + 1):
        combo: dict[int, int] = {}
        for level, coef in t_to_jw(n).items():
            for e, c in s_polys[level].items():
                combo[e] = combo.get(e, 0) + coef * c
        if {e: c for e, c in combo.items() if c} != t_polys[n]:
            return n
    return None


def closure_sweep(box: int):
    part = abelianize.closure_check(box)
    if len(part) != 4:
        return f"box {box}: {len(part)} classes, expected 4"
    root_of = {}
    for rep, members in part.items():
        for m in members:
            root_of[m] = rep
    for pt, rep in root_of.items():
        if abelianize.reduce_label(*pt) != abelianize.reduce_label(*rep):
            return f"box {box}: {pt} grouped with {rep}, parities differ"
    return None


def certificate_sweep(box: int):
    for p in range(-box, box + 1):
        for q in range(-box, box + 1):
            if (p, q) == (0, 0):
                continue
            abelianize.verify_certificate(abelianize.certificate(p, q))
    return None


def reduction_sweep(box: int):
    count = 0
    for p in range(-box, box + 1):
        for q in range(-box, box + 1):
            for r in range(-box, box + 1):
                if math.gcd(p, q, r) != 1:
                    continue
                count += 1
                c = Curve3.of(p, q, r)
                canonical, cert = torus3.reduce_curve(c)
                if canonical.coords != c.parities():
                    raise VerificationError(f"{c} reduced to {canonical}")
                torus3.replay_certificate(cert)
    return count


def _random_unimodular(rng: random.Random) -> list[list[int]]:
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(8):
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-3, 3)
        for col in range(3):
            m[i][col] += k * m[j][col]
    return m


def random_embedding(rng: random.Random) -> StandardEmbedding:
    cols = rng.sample((1, 2, 3), 2)
    return StandardEmbedding(_random_unimodular(rng), tuple(cols))


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def intersection_sweep(count: int, seed: int = 23):
    rng = random.Random(seed)
    done = 0
    while done < count:
        e1, e2 = random_embedding(rng), random_embedding(rng)
        if torus3.cross(e1.normal(), e2.normal()) == (0, 0, 0):
            continue
        w = torus3.common_curve(e1, e2)
        if _dot(w.coords, e1.normal()) or _dot(w.coords, e2.normal()):
            raise VerificationError(f"{w} not orthogonal to both normals")
        if math.gcd(*w.coords) != 1:
            raise VerificationError(f"{w} is not primitive")
        done += 1
    return done


def random_coprime_triple(rng: random.Random, bound: int = 20) -> Curve3:
    while True:
        p, q, r = (rng.randint(-bound, bound) for _ in range(3))
        if math.gcd(p, q, r) == 1:
            return Curve3.of(p, q, r)


def diffeo_sweep(count: int, seed: int = 31):
    rng = random.Random(seed)
    curves = [g.curve for g in torus3.generators() if g.kind == "curve"]
    curves += [random_coprime_triple(rng) for _ in range(count)]
    for c in curves:
        m = torus3.find_diffeo(c)
        if torus3.mat_det(m) != 1:
            raise VerificationError(f"matrix for {c} has determinant {torus3.mat_det(m)}")
        if torus3.mat_vec(m, c.coords) != (1, 0, 0):
            raise VerificationError(f"matrix for {c} does not send it to (1,0,0)")
    return len(curves)


# ---------------------------------------------------------------- commands


def cmd_mul(args) -> int:
    result = parse_element(args.expr[0])
    for text in args.expr[1:]:
        result = result * parse_element(text)
    _emit_element(result, args.json)
    return 0


def cmd_reduce_t2(args) -> int:
    _emit_element(parse_element(args.expr), args.json)
    return 0


def cmd_abelianize(args) -> int:
    _emit_element(abelianize.reduce_element(parse_element(args.expr)), args.json)
    return 0


def cmd_certify_ab(args) -> int:
    cert = abelianize.certificate(args.p, args.q)
    abelianize.verify_certificate(cert)
    if args.json:
        print(json.dumps(cert.to_json_dict(), indent=2))
    else:
        print(f"input: ({args.p},{args.q})")
        print(f"canonical: ({cert.canonical[0]},{cert.canonical[1]})")
        print(f"steps: {len(cert.steps)}")
        for s in cert.steps:
            print(
                f"  {s.from_pair} -> {s.to_pair}  conjugator {s.conjugator}"
                f"  scale {s.scale}"
            )
        print("certificate verified")
    return 0


def cmd_reduce_t3(args) -> int:
    c = Curve3.of(args.p, args.q, args.r)
    canonical, cert = torus3.reduce_curve(c)
    torus3.replay_certificate(cert)
    if args.json:
        print(json.dumps(cert.to_json_dict(), indent=2))
    else:
        print(f"input: {c}")
        print(f"canonical: {canonical}")
        print(f"steps: {len(cert.steps)}")
        for s in cert.steps:
            print(
                f"  matrix {list(map(list, s.embedding.matrix))}"
                f" columns {s.embedding.columns}"
                f" {s.from_pair} -> {s.to_pair} perm {s.permutation}"
            )
        print("certificate verified")
    return 0


def _parse_matrix(text: str) -> list[list[int]]:
    rows = [row.strip() for row in text.split(";")]
    return [[int(x) for x in row.split(",")] for row in rows]


def _parse_cols(text: str) -> tuple[int, int]:
    i, j = (int(x) for x in text.split(","))
    return (i, j)


def cmd_common_curve(args) -> int:
    e1 = StandardEmbedding(_parse_matrix(args.matrix1), _parse_cols(args.cols1))
    e2 = StandardEmbedding(_parse_matrix(args.matrix2), _parse_cols(args.cols2))
    w = torus3.common_curve(e1, e2)
    if args.json:
        print(json.dumps({"curve": list(w.coords)}))
    else:
        print(w)
    return 0


def cmd_generators(args) -> int:
    gens = torus3.generators()
    if args.json:
        doc = [
            {"kind": g.kind, **({"curve": list(g.curve.coords)} if g.curve else {})}
            for g in gens
        ]
        print(json.dumps(doc, indent=2))
    else:
        for g in gens:
            print(g)
    return 0


def _parse_triple(text: str) -> Curve3:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected p,q,r, got {text!r}")
    return Curve3.of(*parts)


def cmd_grade(args) -> int:
    curves = [_parse_triple(t) for t in args.triple]
    buckets = torus3.grade_decompose(curves)
    if args.json:
        doc = [
            {"class": list(h), "curves": [list(c.coords) for c in buckets[h]]}
            for h in sorted(buckets)
        ]
        print(json.dumps({"buckets": doc}, indent=2))
    else:
        for h in sorted(buckets):
            members = " ".join(str(c) for c in buckets[h]) or "-"
            print(f"({h[0]},{h[1]},{h[2]}): {members}")
    return 0


def cmd_oracle_check(args) -> int:
    box = _box(args, 3)
    comparisons, mismatch = oracle_sweep(box)
    if mismatch is not None:
        print(f"oracle mismatch at labels {mismatch[0]} * {mismatch[1]}", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {"box": box, "comparisons": comparisons, "mismatches": 0, "pass": True}
            )
        )
    else:
        print(f"oracle-check: pass, {comparisons} label-pair comparisons (box {box})")
    return 0


def cmd_closure_check(args) -> int:
    box = _box(args, 6)
    problem = closure_sweep(box)
    if problem is not None:
        print(f"closure mismatch: {problem}", file=sys.stderr)
        return 1
    # closure_sweep passes only when the partition has exactly 4 classes.
    if args.json:
        print(json.dumps({"box": box, "classes": 4, "pass": True}))
    else:
        print(f"closure-check: pass, 4 classes matching parities (box {box})")
    return 0


def cmd_selftest(args) -> int:
    box = _box(args, 3)

    def run_oracle():
        comparisons, mismatch = oracle_sweep(box)
        return (f"mismatch at {mismatch}" if mismatch else None, f"{comparisons} pairs")

    def run_assoc():
        bad = associativity_sweep(200, 10)
        return (f"counterexample {bad}" if bad else None, "200 triples")

    def run_cheb():
        bad = chebyshev_sweep(3, 8)
        return (f"counterexample {bad}" if bad else None, "box 3, n <= 8")

    def run_jw():
        bad = jw_basis_sweep(20)
        return (f"fails at n={bad}" if bad is not None else None, "n <= 20")

    def run_closure():
        for n in range(2, 7):
            problem = closure_sweep(n)
            if problem:
                return problem, ""
        return None, "boxes 2..6"

    def run_certs():
        certificate_sweep(4)
        return None, "box 4"

    def run_reduce():
        count = reduction_sweep(5)
        return None, f"{count} curves (box 5)"

    def run_generators():
        gens = torus3.generators()
        classes = {g.curve.parities() for g in gens if g.kind == "curve"}
        ok = len(gens) == 9 and len(classes) == 7 and (0, 0, 0) not in classes
        return (None if ok else "generator list malformed"), "9 elements"

    def run_diffeo():
        count = diffeo_sweep(100)
        return None, f"{count} curves"

    def run_intersections():
        count = intersection_sweep(100)
        return None, f"{count} pairs"

    checks = [
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
    for name, fn in checks:
        try:
            problem, detail = fn()
        except (VerificationError, AssertionError) as exc:
            problem, detail = str(exc), ""
        ok = problem is None
        failed = failed or not ok
        results.append({"name": name, "pass": ok, "detail": problem or detail})
        if not args.json:
            status = "PASS" if ok else "FAIL"
            extra = f"  ({problem or detail})" if (problem or detail) else ""
            print(f"{name:<28} {status}{extra}")
    if args.json:
        print(json.dumps({"checks": results, "pass": not failed}, indent=2))
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


if __name__ == "__main__":
    sys.exit(main())
