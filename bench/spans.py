"""Spans around each layer's public functions, installed from outside.

``Tracer.install_library`` and ``Tracer.install_cli`` replace functions
and methods of freshly imported skeincalc modules with wrappers that
record a span (entry and exit times) and a few counts at the boundary.
A span's self time is its duration minus the time covered by the wrapped
spans it encloses.  Spans are folded into per-name totals as they close,
so memory stays flat however long the run.  Nothing is replaced until an
install method is called, so untraced runs pay nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import wraps

# Per-layer metrics in output order, with their units.
LAYER_METRICS = {
    "ratfunc.lp_mul.calls": "count",
    "ratfunc.lp_mul.self_s": "s",
    "ratfunc.a_pow.hit_frac": "fraction",
    "ratfunc.poly_gcd.calls": "count",
    "ratfunc.poly_gcd.self_s": "s",
    "ratfunc.poly_gcd.nontrivial_frac": "fraction",
    "ratfunc.rf_add.calls": "count",
    "ratfunc.max_den_deg": "degree",
    "torus2.mul.calls": "count",
    "torus2.mul.self_s": "s",
    "torus2.mul.label_pairs": "count",
    "torus2.mul.merge_frac": "fraction",
    "torus2.render.self_s": "s",
    "quantum_torus.mul.calls": "count",
    "quantum_torus.mul.self_s": "s",
    "quantum_torus.embed.self_s": "s",
    "quantum_torus.embed_curve.hit_frac": "fraction",
    "expressions.parse.calls": "count",
    "expressions.parse.self_s": "s",
    "expressions.parse.bytes": "bytes",
    "abelianize.certificate.self_s": "s",
    "abelianize.verify.self_s": "s",
    "abelianize.steps": "count",
    "torus3.reduce.self_s": "s",
    "torus3.replay.self_s": "s",
    "torus3.steps": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.exit_mismatch": "count",
    "trace_overhead_frac": "fraction",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # Boundary counts: label_pairs, out_terms, bytes, steps, nontrivial, max_den_deg.
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._lib = None

    def reset(self) -> None:
        """Zero every total and clear the L0/L1 caches, for a cold pass."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._stack.clear()
        self._lib.ratfunc.a_pow.cache_clear()
        self._lib.quantum_torus.embed_curve.cache_clear()

    def _wrap(self, name: str, fn, after=None):
        clock, stack, self_s, calls = time.perf_counter, self._stack, self.self_s, self.calls

        @wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(args, result)
            return result

        return span

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self._wrap(name, getattr(owner, attr), after))

    def install_library(self, lib) -> None:
        """Spans on the L0-L2 layers and the parser."""
        self._lib = lib
        counts = self.counts

        def den_degree(args, rf):
            counts["max_den_deg"] = max(counts["max_den_deg"], max(rf.den.terms))

        def gcd_result(args, g):
            counts["nontrivial"] += g.terms != {0: 1}

        def mul_sizes(args, out):
            counts["label_pairs"] += len(args[0].terms) * len(args[1].terms)
            counts["out_terms"] += len(out.terms)

        def parsed_bytes(args, out):
            counts["bytes"] += len(args[0].encode())

        def ab_steps(args, cert):
            counts["abelianize.steps"] += len(cert.steps)

        def t3_steps(args, out):
            counts["torus3.steps"] += len(out[1].steps)

        rf = lib.ratfunc
        self._patch(rf.LaurentPoly, "__mul__", "ratfunc.lp_mul")
        self._patch(rf, "poly_gcd", "ratfunc.poly_gcd", gcd_result)
        for attr, name in (
            ("__add__", "rf_add"),
            ("__sub__", "rf_sub"),
            ("__mul__", "rf_mul"),
            ("__truediv__", "rf_div"),
            ("inverse", "rf_inverse"),
        ):
            self._patch(rf.RationalFunction, attr, f"ratfunc.{name}", den_degree)
        self._patch(lib.torus2.SkeinT2Element, "__mul__", "torus2.mul", mul_sizes)
        self._patch(lib.torus2.SkeinT2Element, "__str__", "torus2.render")
        self._patch(lib.quantum_torus.QTorusElement, "__mul__", "quantum_torus.mul")
        self._patch(lib.quantum_torus, "embed_element", "quantum_torus.embed")
        self._patch(lib.expressions, "parse_element", "expressions.parse", parsed_bytes)
        self._patch(lib.abelianize, "certificate", "abelianize.certificate", ab_steps)
        self._patch(lib.abelianize, "verify_certificate", "abelianize.verify")
        self._patch(lib.torus3, "reduce_curve", "torus3.reduce", t3_steps)
        self._patch(lib.torus3, "replay_certificate", "torus3.replay")

    def install_cli(self, lib) -> None:
        """One span on the in-process entry point; the library layers are
        measured by the in-process workloads, not here."""
        self._lib = lib
        self._patch(lib.cli, "main", "cli.main")

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for a fixed seed."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()}, **self.counts}

    def metrics(self) -> dict[str, float]:
        """The traced layer metrics (cli probes and overhead are added by the caller)."""
        s, c, n = self.self_s, self.calls, self.counts
        a_pow = self._lib.ratfunc.a_pow.cache_info()
        embed_curve = self._lib.quantum_torus.embed_curve.cache_info()
        return {
            "ratfunc.lp_mul.calls": c["ratfunc.lp_mul"],
            "ratfunc.lp_mul.self_s": s["ratfunc.lp_mul"],
            "ratfunc.a_pow.hit_frac": _ratio(a_pow.hits, a_pow.hits + a_pow.misses),
            "ratfunc.poly_gcd.calls": c["ratfunc.poly_gcd"],
            "ratfunc.poly_gcd.self_s": s["ratfunc.poly_gcd"],
            "ratfunc.poly_gcd.nontrivial_frac": _ratio(n["nontrivial"], c["ratfunc.poly_gcd"]),
            "ratfunc.rf_add.calls": c["ratfunc.rf_add"],
            "ratfunc.max_den_deg": n["max_den_deg"],
            "torus2.mul.calls": c["torus2.mul"],
            "torus2.mul.self_s": s["torus2.mul"],
            "torus2.mul.label_pairs": n["label_pairs"],
            "torus2.mul.merge_frac": _ratio(n["out_terms"], 2 * n["label_pairs"]),
            "torus2.render.self_s": s["torus2.render"],
            "quantum_torus.mul.calls": c["quantum_torus.mul"],
            "quantum_torus.mul.self_s": s["quantum_torus.mul"],
            "quantum_torus.embed.self_s": s["quantum_torus.embed"],
            "quantum_torus.embed_curve.hit_frac": _ratio(
                embed_curve.hits, embed_curve.hits + embed_curve.misses
            ),
            "expressions.parse.calls": c["expressions.parse"],
            "expressions.parse.self_s": s["expressions.parse"],
            "expressions.parse.bytes": n["bytes"],
            "abelianize.certificate.self_s": s["abelianize.certificate"],
            "abelianize.verify.self_s": s["abelianize.verify"],
            "abelianize.steps": n["abelianize.steps"],
            "torus3.reduce.self_s": s["torus3.reduce"],
            "torus3.replay.self_s": s["torus3.replay"],
            "torus3.steps": n["torus3.steps"],
            "cli.main.self_s": s["cli.main"],
        }
