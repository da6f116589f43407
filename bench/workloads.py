"""The four benchmark workloads and the exactness gate.

A workload is built from a namespace of freshly imported skeincalc
modules (``lib``) and the seed.  It generates every input up front, as
plain integers or text, and exposes

    items           the seeded inputs the timed loop cycles through
    trace_items     the fixed prefix of ``items`` run by the traced pass
    run(item)       the program's work for one operation (this is timed)
    check(item, r)  the benchmark's own verification of that work; it
                    returns None, or a one-line description of the defect

Every workload is a closed loop with one client: the next operation
starts when the previous one has been checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A child process that has not answered after this long counts as failed.
CHILD_TIMEOUT_S = 60


# ------------------------------------------------------------ exactness gate


def gate_scalar(rf) -> str | None:
    """Check one Q(A) value against the canonical-form rules of ``ratfunc``.

    The rules are re-stated here rather than called, so the gate stays
    independent of the code it checks: no stored zero coefficient, every
    coefficient an ``int`` or a ``Fraction`` (never a float), and a
    denominator that is monic, has a nonzero constant term and no negative
    power of A.  Zero must be 0/1.
    """
    num, den = rf.num.terms, rf.den.terms
    for part, terms in (("numerator", num), ("denominator", den)):
        for e, c in terms.items():
            if type(c) is not int and type(c) is not Fraction:
                return f"{part} coefficient of A^{e} is a {type(c).__name__}: {c!r}"
            if not c:
                return f"{part} stores a zero coefficient at A^{e}"
    if not den:
        return "denominator is zero"
    if min(den) < 0:
        return f"denominator has the negative power A^{min(den)}"
    if 0 not in den:
        return "denominator has a zero constant term"
    if den[max(den)] != 1:
        return f"denominator is not monic (leading coefficient {den[max(den)]})"
    if not num and den != {0: 1}:
        return "zero is not stored as 0/1"
    return None


def gate_terms(terms: dict) -> str | None:
    """Gate every coefficient of a {key: RationalFunction} combination."""
    for key, coeff in terms.items():
        if not coeff.num.terms:
            return f"zero coefficient stored at {key}"
        problem = gate_scalar(coeff)
        if problem:
            return f"coefficient of {key}: {problem}"
    return None


# ------------------------------------------------------------ oracle


class Oracle:
    """One seeded label pair (a, b) from the box; checks exactly that
    embed(curve(a) * curve(b)) == embed(curve(a)) * embed(curve(b)).

    Every label product is two signed monomials over 1, so the L0 gcd
    path never runs: this is the control for gcd changes and the target
    of a Z[A^+-1] fast path.
    """

    BOX = 5
    POOL = 20_000
    TRACE_ITEMS = 2_000
    WARMUP = 500

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        b = self.BOX
        self.items = [
            ((rng.randint(-b, b), rng.randint(-b, b)), (rng.randint(-b, b), rng.randint(-b, b)))
            for _ in range(self.POOL)
        ]
        self.trace_items = self.items[: self.TRACE_ITEMS]

    def run(self, item):
        curve = self.lib.torus2.curve
        embed = self.lib.quantum_torus.embed_element
        x, y = curve(*item[0]), curve(*item[1])
        product = x * y
        return product, embed(product), embed(x) * embed(y)

    def check(self, item, result) -> str | None:
        product, lhs, rhs = result
        if lhs != rhs:
            return f"oracle mismatch for {item[0]} * {item[1]}"
        return gate_terms(product.terms) or gate_terms(lhs.terms)


# ------------------------------------------------------------ dense


def _laurent_text(rng: random.Random, nterms: int) -> str:
    parts = []
    for e in sorted(rng.sample(range(-3, 4), nterms), reverse=True):
        c = rng.choice((1, 2, 3))
        mon = "" if e == 0 else ("A" if e == 1 else f"A^{e}")
        body = str(c) if not mon else (mon if c == 1 else f"{c}*{mon}")
        sign = rng.choice(("+", "-"))
        parts.append((sign, body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _denominator_text(rng: random.Random) -> str:
    j = rng.choice((1, 2))
    mon = "A" if j == 1 else f"A^{j}"
    return rng.choice((f"1 + {mon}", f"1 - {mon}", f"{mon} - A^-{j}"))


def _dense_operand(rng: random.Random, nterms: int, ndens: int, box: int) -> str:
    labels: set[tuple[int, int]] = set()
    while len(labels) < nterms:
        p, q = rng.randint(-box, box), rng.randint(-box, box)
        if (p, q) != (0, 0) and (-p, -q) not in labels:
            labels.add((p, q))
    divided = set(rng.sample(range(nterms), ndens))
    terms = []
    for i, (p, q) in enumerate(sorted(labels)):
        coeff = f"({_laurent_text(rng, 2)})"
        if i in divided:
            coeff += f"/({_denominator_text(rng)})"
        terms.append(f"{coeff}*({p},{q})")
    return " + ".join(terms)


class Dense:
    """Two seeded 4-term expressions, two terms of each divided by
    1 +- A^j or A^j - A^-j: parse both, multiply, check the product
    against the quantum-torus product, render it, parse the text again
    and compare.

    Same L0/L1 code as ``oracle``, used the other way: labels collide in
    the accumulate step, coefficients are multi-term polynomials and sums
    go through gcds.
    """

    TERMS = 4
    DENOMINATORS = 2
    BOX = 3
    POOL = 1_000
    TRACE_ITEMS = 24
    WARMUP = 4

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        self.items = [
            tuple(_dense_operand(rng, self.TERMS, self.DENOMINATORS, self.BOX) for _ in range(2))
            for _ in range(self.POOL)
        ]
        self.trace_items = self.items[: self.TRACE_ITEMS]

    def run(self, item):
        parse = self.lib.expressions.parse_element
        embed = self.lib.quantum_torus.embed_element
        x, y = parse(item[0]), parse(item[1])
        product = x * y
        lhs, rhs = embed(product), embed(x) * embed(y)
        text = str(product)
        return product, lhs, rhs, parse(text)

    def check(self, item, result) -> str | None:
        product, lhs, rhs, reparsed = result
        if lhs != rhs:
            return f"oracle mismatch for {item[0]!r} * {item[1]!r}"
        if reparsed != product:
            return f"render then parse is not the identity for {item[0]!r} * {item[1]!r}"
        return gate_terms(product.terms) or gate_terms(lhs.terms)


# ------------------------------------------------------------ certify


def _coprime_triple(rng: random.Random, bound: int) -> tuple[int, int, int]:
    while True:
        t = (rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(-bound, bound))
        if math.gcd(*t) == 1:
            return t


def _parity_class(p: int, q: int) -> tuple[int, int]:
    pp, qq = p % 2, q % 2
    return (2, 0) if (pp, qq) == (0, 0) else (pp, qq)


class Certify:
    """One seeded label (p, q) and one seeded coprime triple: certificate +
    verify_certificate on the label, reduce_curve + replay_certificate on
    the triple, then both certificates through JSON text and replayed
    again.  Each canonical class must equal the parity class.

    The only workload where ``abelianize`` and ``torus3`` do the work; the
    certificate scales 1/(A^k - A^-k) drive the L0 gcd path.
    """

    BOX = 9
    TRIPLE_BOUND = 20
    POOL = 6_000
    TRACE_ITEMS = 200
    WARMUP = 50

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        b = self.BOX
        items = []
        while len(items) < self.POOL:
            p, q = rng.randint(-b, b), rng.randint(-b, b)
            if (p, q) != (0, 0):
                items.append(((p, q), _coprime_triple(rng, self.TRIPLE_BOUND)))
        self.items = items
        self.trace_items = items[: self.TRACE_ITEMS]

    def run(self, item):
        ab, t3 = self.lib.abelianize, self.lib.torus3
        cert = ab.certificate(*item[0])
        ab.verify_certificate(cert)
        canonical, cert3 = t3.reduce_curve(t3.Curve3.of(*item[1]))
        t3.replay_certificate(cert3)
        cert_back = ab.AbCertificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
        ab.verify_certificate(cert_back)
        cert3_back = t3.Reduction3Certificate.from_json_dict(
            json.loads(json.dumps(cert3.to_json_dict()))
        )
        t3.replay_certificate(cert3_back)
        return cert, cert_back, canonical, cert3, cert3_back

    def check(self, item, result) -> str | None:
        cert, cert_back, canonical, cert3, cert3_back = result
        (p, q), triple = item
        if cert.canonical != _parity_class(p, q):
            return f"({p},{q}) certified onto {cert.canonical}"
        if canonical.coords != tuple(x % 2 for x in triple):
            return f"{triple} reduced onto {canonical}"
        if cert_back != cert or cert3_back != cert3:
            return f"certificate for {item} changed through JSON"
        for c in (cert, cert_back):
            for step in c.steps:
                problem = gate_scalar(step.scale)
                if problem:
                    return f"scale of step {step.from_pair} -> {step.to_pair}: {problem}"
        return None


# ------------------------------------------------------------ cli


def _label(rng: random.Random, box: int) -> str:
    while True:
        p, q = rng.randint(-box, box), rng.randint(-box, box)
        if (p, q) != (0, 0):
            return f"({p},{q})"


def _triple_arg(rng: random.Random) -> str:
    return ",".join(map(str, _coprime_triple(rng, 9)))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _embedding_args(rng: random.Random) -> tuple[str, str, tuple[int, int, int]]:
    """A seeded determinant-1 matrix, two selected columns and their normal."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        k = rng.choice((-2, -1, 1, 2))
        for col in range(3):
            m[i][col] += k * m[j][col]
    a, b = rng.sample((1, 2, 3), 2)
    normal = _cross([row[a - 1] for row in m], [row[b - 1] for row in m])
    return ";".join(",".join(map(str, row)) for row in m), f"{a},{b}", normal


def _common_curve_args(rng: random.Random) -> list[str]:
    while True:
        m1, c1, n1 = _embedding_args(rng)
        m2, c2, n2 = _embedding_args(rng)
        if _cross(n1, n2) != (0, 0, 0):
            return ["--", m1, c1, m2, c2]


def _valid_queries(rng: random.Random) -> list[list[str]]:
    """One seeded query per subcommand; each is also asked with --json."""
    base = [
        ["mul", f"A*{_label(rng, 3)} + {_label(rng, 3)}", _label(rng, 3)],
        ["reduce-t2", f"(A^2 + 1)*{_label(rng, 3)} + {_label(rng, 3)}*{_label(rng, 3)}"],
        ["abelianize", f"A*{_label(rng, 4)} + (A^-1 - 2)*{_label(rng, 4)}"],
        ["certify-ab", *_label(rng, 6).strip("()").split(",")],
        ["reduce-t3", *_triple_arg(rng).split(",")],
        ["grade", "--", *(_triple_arg(rng) for _ in range(3))],
        ["common-curve", *_common_curve_args(rng)],
        ["generators"],
        ["closure-check", "--box", str(rng.randint(2, 4))],
    ]
    out = []
    for argv in base:
        out.append(argv)
        out.append([argv[0], "--json", *argv[1:]])
    return out


def _malformed_queries(rng: random.Random) -> list[list[str]]:
    """Inputs the contract answers with exit 2 and a one-line error."""
    lab = _label(rng, 3)
    p, q = rng.randint(1, 5), rng.randint(1, 5)
    k = rng.randint(2, 4)
    return [
        ["mul", lab[:-1]],
        ["mul", f"{lab}#"],
        ["reduce-t2", f"A^{rng.randint(1, 4)} * A^"],
        ["abelianize", f"x*{lab}"],
        ["mul", f"{lab}/{_label(rng, 3)}"],
        ["reduce-t2", f"{lab}/0"],
        ["certify-ab", "0", "0"],
        ["reduce-t3", str(k * p), str(k * q), str(k)],
        ["grade", "--", f"{p},{q}"],
        ["common-curve", "--", f"1,0,0;0,{k},0;0,0,1", "1,2", "1,0,0;0,1,0;0,0,1", "1,3"],
        ["closure-check", "--box", "1"],
        ["common-curve", "--", "1,0,0;0,1,0;0,0,1", "1,2", "1,0,0;0,1,0;0,0,1", "2,1"],
    ]


# Queries that break the exit-code contract at the commit that introduced
# this benchmark: a check over an empty box reports PASS and exits 0, and
# deep nesting ends in a RecursionError traceback with exit 1.  They are
# run once per traced run and counted by cli.exit_mismatch, outside the
# timed loop, so that every timed operation can pass.
KNOWN_VIOLATIONS = [
    ["oracle-check", "--box", "-3"],
    ["mul", "(" * 3000 + "(1,0)" + ")" * 3000],
]


class Cli:
    """One fresh ``python -m skeincalc.cli`` process per operation, running
    a seeded query: each subcommand in text and --json form, plus a seeded
    share of malformed input.  Stdout must equal the in-process answer
    byte for byte with exit 0; malformed input must exit 2 with one line
    on stderr and no traceback.

    The only workload that measures the L4 process layer: interpreter
    start, import and argument handling.
    """

    MALFORMED = 6
    WARMUP = 1

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        valid = _valid_queries(rng)
        malformed = rng.sample(_malformed_queries(rng), self.MALFORMED)
        items = [(argv, 0, self.in_process(argv)[1], self.gate_reference(argv)) for argv in valid]
        items += [(argv, 2, b"", None) for argv in malformed]
        rng.shuffle(items)
        self.items = items
        self.trace_items = [item for item in items if item[1] == 0]

    def in_process(self, argv: list[str]) -> tuple[int, bytes, bytes]:
        """Exit code, stdout and stderr of ``cli.main(argv)`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(argv)
        return code, out.getvalue().encode(), err.getvalue().encode()

    def gate_reference(self, argv: list[str]) -> str | None:
        """Gate the library value behind an element or certificate query."""
        lib = self.lib
        args = [a for a in argv[1:] if a != "--json"]
        if argv[0] == "certify-ab":
            for step in lib.abelianize.certificate(int(args[0]), int(args[1])).steps:
                problem = gate_scalar(step.scale)
                if problem:
                    return f"certify-ab scale: {problem}"
            return None
        if argv[0] not in ("mul", "reduce-t2", "abelianize"):
            return None
        value = lib.expressions.parse_element(args[0])
        for text in args[1:]:
            value = value * lib.expressions.parse_element(text)
        if argv[0] == "abelianize":
            value = lib.abelianize.reduce_element(value)
        return gate_terms(value.terms)

    def run(self, item):
        return spawn([sys.executable, "-m", "skeincalc.cli", *item[0]])

    def check(self, item, result) -> str | None:
        argv, want_code, want_out, gate_problem = item
        code, out, err = result
        if gate_problem:
            return f"{argv[0]}: {gate_problem}"
        if code != want_code:
            return f"{argv[0]} exited {code}, expected {want_code}"
        if out != want_out:
            return f"{argv[0]}: stdout differs from the in-process answer"
        if want_code == 0:
            return f"{argv[0]}: unexpected stderr" if err else None
        lines = err.decode(errors="replace").splitlines()
        if len(lines) != 1 or "Traceback" in lines[0]:
            return f"{argv[0]}: stderr is not a one-line error ({len(lines)} lines)"
        return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SKEINCALC_BOX", None)
    return env


def spawn(cmd: list[str]) -> tuple[int, bytes, bytes]:
    """Run one child to completion; on timeout it is killed and reaped."""
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return -1, b"", b"timed out"
    return done.returncode, done.stdout, done.stderr


WORKLOADS = {"oracle": Oracle, "dense": Dense, "certify": Certify, "cli": Cli}
