"""Benchmark entry point for dnll.

    python3 bench/run.py --workload train-epm --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout: the library is imported from ``src/``
next to this directory, never from an installed copy. The last line of
standard output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``). The line before it is the run
record: environment, sample counts, tail percentiles and failed checks.
Spans and the record are also written to ``bench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

import workloads
from workloads import ROOT, WORK

WORKLOADS = ("train-epm", "train-ep-crop", "theory-lab")
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DNLL_THREADS")


def import_dnll():
    src = ROOT / "src"
    if not (src / "dnll" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no dnll sources under {src}; run it from a checkout of the repository")
    sys.path.insert(0, str(src))
    import dnll
    import dnll.trainer

    if Path(dnll.__file__).resolve().parent != (src / "dnll").resolve():
        sys.exit(f"bench/run.py: imported dnll from {dnll.__file__}, not from {src}")
    return dnll


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        **{var: os.environ.get(var) for var in ENV_VARS},
    }


def measure(dnll, workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return the result line, the run record and the Run."""
    if workload == "theory-lab":
        run = workloads.run_theory(dnll, seed, seconds, trace, tiny)
    else:
        run = workloads.run_training(dnll, workload, seed, seconds, trace, tiny)
    run.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units = metric_units()["per_layer" if trace else "end_to_end"]
    measured = run.per_layer if trace else run.end_to_end
    unknown = set(measured) - set(units)
    if unknown:
        raise RuntimeError(f"{workload} measured metrics BENCHMARK.json does not name: {sorted(unknown)}")
    # Per-layer metrics of modules this workload never calls read 0.
    metrics = {name: {"value": measured.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "fail_ratio": run.failed / max(run.attempted, 1),
        "not_exercised": sorted(set(units) - set(measured)),
        "problems": run.problems,
        **run.extra,
    }
    return result, record, run


def write_out(workload: str, seed: int, trace: bool, result: dict, record: dict, run) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{workload}-s{seed}-trace{int(trace)}.json"
    spans = {
        key: {"spans": t.spans, "summary": t.summary(), "counts": dict(t.counts)}
        for key, t in run.tracers.items()
    }
    path.write_text(json.dumps({"result": result, "record": record, "tracers": spans}) + "\n")
    return path


def smoke(dnll) -> int:
    """Tiny inputs, one epoch per round: every named metric appears with its unit."""
    units = metric_units()
    seen, bad = set(), []
    for workload in WORKLOADS:
        for trace in (False, True):
            result, record, _ = measure(dnll, workload, 1, 0.0, trace, tiny=True)
            kind = "per_layer" if trace else "end_to_end"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units[kind]:
                bad.append(f"{workload} trace={int(trace)}: metrics {got} != {units[kind]}")
            if not result["correct"] or result["attempted"] < 1:
                bad.append(f"{workload} trace={int(trace)}: {result} {record['problems']}")
            if trace:
                seen |= set(units[kind]) - set(record["not_exercised"])
            print(f"smoke {workload} trace={int(trace)}: {len(got)} metrics, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
    missing = set(units["per_layer"]) - seen
    if missing:
        bad.append(f"per-layer metrics no workload measures: {sorted(missing)}")
    for line in bad:
        print("smoke FAIL:", line)
    print("smoke ok" if not bad else "smoke failed")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, check every metric is printed")
    parser.add_argument("--generate", choices=WORKLOADS[:2], help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    dnll = import_dnll()
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit("bench/run.py: BENCHMARK.json not found next to the bench directory")
    if args.generate:
        workloads.generate(dnll, args.generate, args.seed, args.tiny)
        return 0
    if args.smoke:
        return smoke(dnll)
    if not args.workload:
        parser.error("--workload is required")
    result, record, run = measure(dnll, args.workload, args.seed, args.seconds, bool(args.trace))
    record["out"] = str(write_out(args.workload, args.seed, bool(args.trace), result, record, run).relative_to(ROOT))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
