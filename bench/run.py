"""Benchmark harness for skeincalc.

    python3 bench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every input is generated from --seed
before the timed phase.  With --trace 0 the last line of stdout is one
JSON object with the end-to-end metrics; with --trace 1 the untraced
timed phase is followed by traced passes over a fixed prefix of the
inputs, and the object holds the per-layer metrics.  Earlier lines are a
readable table and a ``record`` line (interpreter, nproc, load, commit,
seeds, sample counts, wall-clock figures).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from spans import LAYER_METRICS, Tracer
from workloads import KNOWN_VIOLATIONS, WORKLOADS, spawn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("ratfunc", "torus2", "quantum_torus", "expressions", "abelianize", "torus3", "cli")

# Set-up (fresh import, input generation, warm-up) is repeated this many
# times and its median reported, so one slow repetition does not move setup_s.
SETUP_REPS = 5
# Claims tuned on one seed are confirmed on this offset from it.
CHECK_SEED_OFFSET = 1
# Starts of the bare interpreter and of the CLI import, per traced cli run.
PROBES = 5
# The reference loop runs this often during a phase (wall seconds).  The
# machine the bounds were set on needs REFERENCE_CAL_S CPU seconds for it.
CAL_EVERY_S = 0.1
REFERENCE_CAL_S = 0.00088


def reference_work() -> None:
    """Fixed pure-Python work, independent of skeincalc, that calibrates the
    machine's current speed: a product of two Laurent polynomials held as
    dicts of Fractions, the same kind of work as the program's hot loop."""
    a = {e: Fraction(e + 1, 3) for e in range(-6, 7)}
    b = {e: Fraction(2 * e - 1, 5) for e in range(-5, 6)}
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2


def cpu_self() -> float:
    return time.process_time()


def cpu_with_children() -> float:
    """CPU time of this process plus every child it has waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


@dataclass
class Phase:
    # Per-operation times are kept as C doubles, so a long run of cheap
    # operations adds little to the benchmark's own share of peak_rss_mb.
    cpu: array = field(default_factory=lambda: array("d"))  # the operation
    iteration: array = field(default_factory=lambda: array("d"))  # operation + check
    wall: array = field(default_factory=lambda: array("d"))
    cal: array = field(default_factory=lambda: array("d"))  # reference loop
    failures: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    wall_s: float = 0.0

    @property
    def ok(self) -> int:
        return len(self.cpu) - len(self.failures)

    @property
    def ops_per_s(self) -> float:
        """Verified operations per CPU second at the median iteration cost.

        On a virtual machine, steal time is charged to whichever iterations
        it lands on; that moves the phase total far more than the median.
        """
        return self.ok / len(self.cpu) / statistics.median(self.iteration)


def run_ops(run, check, items, clock, deadline: float | None = None) -> Phase:
    """Closed loop over ``items``: one pass, or cycling until the wall-clock
    ``deadline`` (at least one operation).

    Each operation's latency is ``clock`` time spent in ``run``; ``check``
    runs after it, inside the phase's totals.  An operation that raises,
    or whose check reports a defect, is a failed operation.  Between
    operations, every CAL_EVERY_S, the reference loop is timed.
    """
    wall = time.perf_counter
    phase = Phase()
    start_wall, start_cpu = wall(), clock()
    next_cal = start_wall
    i = 0
    while (i == 0 or wall() < deadline) if deadline is not None else (i < len(items)):
        if wall() >= next_cal:
            c0 = time.process_time()
            reference_work()
            phase.cal.append(time.process_time() - c0)
            next_cal = wall() + CAL_EVERY_S
        item = items[i % len(items)]
        i += 1
        w0, c0 = wall(), clock()
        try:
            result, problem = run(item), None
        except Exception as exc:  # the operation failed; record it and go on
            result, problem = None, f"raised {type(exc).__name__}: {str(exc)[:200]}"
        phase.cpu.append(clock() - c0)
        phase.wall.append(wall() - w0)
        if problem is None:
            try:
                problem = check(item, result)
            except Exception as exc:  # a check that cannot run is a failed check
                problem = f"check raised {type(exc).__name__}: {str(exc)[:200]}"
        phase.iteration.append(clock() - c0)
        if problem:
            phase.failures.append(problem)
    phase.cpu_s, phase.wall_s = clock() - start_cpu, wall() - start_wall
    return phase


def fresh_import() -> SimpleNamespace:
    """Import skeincalc from scratch: new modules, hence cold caches."""
    for name in [n for n in sys.modules if n == "skeincalc" or n.startswith("skeincalc.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"skeincalc.{m}") for m in MODULES})


def p90(latencies: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cold_passes(tracer, run, check, items, clock, problems: list[str]) -> tuple[dict, list[Phase]]:
    """Two traced passes over ``items`` from cold caches; every count must
    repeat exactly.  The metrics are those of the second pass."""
    passes, counts = [], []
    for _ in range(2):
        tracer.reset()
        passes.append(run_ops(run, check, items, clock))
        counts.append(tracer.exact_counts())
    for key in sorted(counts[0].keys() | counts[1].keys()):
        if counts[0].get(key) != counts[1].get(key):
            problems.append(f"count {key} differs between traced passes: {counts[0].get(key)} vs {counts[1].get(key)}")
    return tracer.metrics(), passes


def traced_library(wl, lib, clock, problems: list[str]) -> tuple[dict, list[Phase]]:
    """Spans on the library layers, over ``wl.trace_items``."""
    tracer = Tracer()
    tracer.install_library(lib)
    metrics, passes = cold_passes(tracer, wl.run, wl.check, wl.trace_items, clock, problems)
    metrics.update({k: 0 for k in LAYER_METRICS if k.startswith("cli.")})
    return metrics, passes


def traced_cli(wl, lib, clock, problems: list[str]) -> tuple[dict, list[Phase]]:
    """Process-layer probes, two in-process passes of cli.main, and one
    child pass over every query plus the known contract violations; the
    child pass comes last, and it is the traced pass that is timed."""

    def median_start(code: str) -> float:
        times = []
        for _ in range(PROBES):
            c0 = clock()
            spawn([sys.executable, "-c", code])
            times.append(clock() - c0)
        return statistics.median(times)

    interpreter_s = median_start("pass")
    import_s = median_start("import skeincalc.cli") - interpreter_s

    tracer = Tracer()
    tracer.install_cli(lib)
    def in_process(item):
        return wl.in_process(item[0])

    metrics, passes = cold_passes(tracer, in_process, wl.check, wl.trace_items, clock, problems)

    mismatches = 0

    def run_child(item):
        nonlocal mismatches
        result = wl.run(item)
        mismatches += result[0] != item[1]
        return result

    passes.append(run_ops(run_child, wl.check, wl.items, clock))
    for argv in KNOWN_VIOLATIONS:
        mismatches += spawn([sys.executable, "-m", "skeincalc.cli", *argv])[0] != 2
    metrics.update(
        {"cli.interpreter_s": interpreter_s, "cli.import_s": import_s, "cli.exit_mismatch": mismatches}
    )
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skeincalc" / "__init__.py").is_file():
        print(f"error: no skeincalc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    is_cli = args.workload == "cli"
    clock = cpu_with_children if is_cli else cpu_self
    load_before = os.getloadavg()

    setups = []
    for _ in range(SETUP_REPS):
        c0 = clock()
        lib = fresh_import()
        wl = WORKLOADS[args.workload](lib, args.seed)
        run_ops(wl.run, wl.check, wl.items[: wl.WARMUP], clock)
        setups.append(clock() - c0)
    gc.collect()

    timed = run_ops(wl.run, wl.check, wl.items, clock, deadline=time.perf_counter() + args.seconds)
    phases = [timed]
    problems: list[str] = []
    if args.trace:
        traced = traced_cli if is_cli else traced_library
        layers, passes = traced(wl, lib, clock, problems)
        phases += passes
        layers["trace_overhead_frac"] = 1 - passes[-1].ops_per_s / timed.ops_per_s
        if args.workload == "oracle" and layers["ratfunc.poly_gcd.calls"] != 0:
            problems.append(f"oracle ran poly_gcd {layers['ratfunc.poly_gcd.calls']} times")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    ).ru_maxrss / 1024
    load_after = os.getloadavg()

    n = len(timed.cpu)
    p50_s, (p90_s, beyond) = statistics.median(timed.cpu), p90(timed.cpu)
    # Times are scaled to the reference machine's speed, so that a host
    # that runs faster or slower for minutes at a time does not move them.
    scale = REFERENCE_CAL_S / statistics.median(timed.cal)
    if not args.trace:
        metrics = {
            "ops_per_s": {"value": timed.ops_per_s / scale, "unit": "ops/s"},
            "op_p50_ms": {"value": p50_s * scale * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": p90_s * scale * 1e3, "unit": "ms"},
            "verified_frac": {"value": timed.ok / n, "unit": "fraction"},
            "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    attempted = sum(len(p.cpu) for p in phases)
    failures = [f for p in phases for f in p.failures]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, m in metrics.items():
        note = ""
        if name in ("op_p50_ms", "op_p90_ms"):
            note = f"  (n={n}" + (f", {beyond} beyond)" if name == "op_p90_ms" else ")")
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<36} {len(failures) / attempted:>14.6g} fraction  ({len(failures)} of {attempted})")
    for problem in (failures + problems)[:5]:
        print(f"  problem: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "check_seed": args.seed + CHECK_SEED_OFFSET,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "commit": git_commit(),
        "samples": n,
        "p90_beyond": beyond,
        "cal_median_s": statistics.median(timed.cal),
        "cal_samples": len(timed.cal),
        "scale": scale,
        "raw_ops_per_s": timed.ops_per_s,
        "raw_p50_ms": p50_s * 1e3,
        "raw_p90_ms": p90_s * 1e3,
        "raw_setup_reps_s": setups,
        "total_cpu_ops_per_s": timed.ok / timed.cpu_s,
        "wall_ops_per_s": timed.ok / timed.wall_s,
        "wall_p50_ms": statistics.median(timed.wall) * 1e3,
        "wall_p90_ms": p90(timed.wall)[0] * 1e3,
        "failures": len(failures),
        "problems": problems,
    }
    print("record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
