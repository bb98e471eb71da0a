"""Run the benchmark over seeds 1 to 10 and summarise it into a BENCH file.

    python3 bench/baseline.py --out bench/baselines/BENCH_<commit>.json

Every workload of BENCHMARK.json runs once per seed for its
``run_seconds``, one ``bench/run.py`` process after another, so only one
process loads the machine. For every end-to-end metric the summary gives
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median,
beside the metric's bound from BENCHMARK.json. One traced run per
workload, on seed 1, adds the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread <= bound / 3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            record, result = one_run(workload, seed, seconds, 0)
            runs.append(result)
            vals = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {vals}", flush=True)
        entry = {
            "environment": record["environment"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in runs], bound)
                for name, bound in bounds.items()
            },
        }
        record, result = one_run(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        entry["traced_record"] = record
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["within_third_of_bound"] else ("WIDE" if s["spread"] > s["bound"] else "over-third")
            print(f"  {workload:14s} {name:12s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={s['bound']} {flag}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
