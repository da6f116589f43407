"""Run bench/run.py over several seeds and summarise the spread.

    python3 bench/summarize.py --workload dense --seeds 1-10
    python3 bench/summarize.py --workload oracle --seeds 1-10 --trace-seed 1 --out bench/baseline.json

Each run uses ``run_seconds`` from BENCHMARK.json.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the interquartile distance as a share of the median,
beside the metric's bound.  ``--trace-seed`` adds one traced run.
``--out`` merges the summary for this workload into a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    return {"result": json.loads(lines[-1]), "record": record}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        run = run_once(args.workload, seed, seconds, 0)
        res = run["result"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} samples={run['record']['samples']} "
              f"p90_beyond={run['record']['p90_beyond']} load={run['record']['loadavg_before'][0]:.2f}",
              flush=True)
        runs.append(run)

    summary = {}
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}

    doc = {
        "seconds": seconds,
        "seeds": seed_list(args.seeds),
        "all_correct": all(r["result"]["correct"] for r in runs),
        "record": runs[0]["record"],
        "end_to_end": summary,
    }
    if args.trace_seed is not None:
        traced = run_once(args.workload, args.trace_seed, seconds, 1)
        doc["traced"] = {
            "seed": args.trace_seed,
            "correct": traced["result"]["correct"],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        }
        print(f"traced seed {args.trace_seed}: correct={traced['result']['correct']}")
    if args.out is not None:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        merged[args.workload] = doc
        args.out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
