"""The three benchmark workloads, their cached inputs and their checks.

``train-epm`` and ``train-ep-crop`` drive ``DualTrainer`` through the
public API on synthetic IDX files; ``theory-lab`` runs ``run_grid`` for
both theorems. Every workload returns a ``Run``: the bench-level spans
(set-up, timed units), the attempted/failed unit counts, the output
checks that failed, and its end-to-end and per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"
WORK = BENCH / ".out"

# -- training workloads -------------------------------------------------------

_COMMON = {
    "lambda": "1.0",
    "m": "3",
    "learning_mode": "mutual_plus_self",
    "epochs": "30",
    "batch_size": "100",
    "model.hidden": "256,128",
}

# "acc_floor" is the lowest ensemble test accuracy a round may end with:
# just below the lowest of seeds 0 to 40 (0.692 on train-epm, 0.586 on
# train-ep-crop), so a change that loses accuracy falls below it.
TRAIN = {
    # The quickstart shape: the EPM sampler carries most of each epoch.
    "train-epm": {
        "n_train": 3000,
        "n_test": 600,
        "resume_epochs": 0,
        "acc_floor": 0.65,
        "config": {
            **_COMMON, "selection_mode": "EPM",
            "augment.weak": "identity", "augment.strong": "noise",
        },
    },
    # configs/example.txt with EP and crop/flip views: augmentation and the
    # 5000-sample evaluation carry the load; set-up resumes a checkpoint.
    "train-ep-crop": {
        "n_train": 3000,
        "n_test": 5000,
        "resume_epochs": 1,
        "acc_floor": 0.55,
        "config": {
            **_COMMON, "selection_mode": "EP",
            "optimizer.base_lr": "0.03", "optimizer.momentum": "0.9",
            "optimizer.weight_decay": "0.0005",
            "augment.weak": "crop_flip", "augment.strong": "crop_flip_noise",
            "augment.noise_sigma": "0.1", "data.max_unlabeled": "6000",
        },
    },
}
N_LABELED = 100
N_VAL_PER_CLASS = 20
EPOCHS_PER_ROUND = 2
# setup_s is the median of this many set-ups, each the first in a new
# interpreter and timed there after the imports. Set-ups repeated in one
# process alternate between reusing freed heap memory and faulting in fresh
# pages, and their times split into two clusters.
SETUPS = 7
FRESH_SETUP = (
    "import sys; sys.path[:0] = sys.argv[1:3]; from pathlib import Path; "
    "import dnll, workloads; from spans import Tracer; t = Tracer(); "
    "workloads.setup_trainer(dnll, Path(sys.argv[3]), t, sys.argv[4] == '1'); "
    "print(repr(t.durations('setup')[0]))"
)
# A run never starts a round it expects to end past this many seconds.
HARD_LIMIT_S = 150.0

TINY = {"n_train": 600, "n_test": 200, "model.hidden": "32,16"}

# -- theory lab ---------------------------------------------------------------

THEORY_TINY = {"trials": 10_000, "qs": (0.3, 0.9), "ks": (10,), "ms": (1, 2)}
Z_GATE = 4.0  # the acceptance gate: |estimate - closed form| <= 4 SE
Z_QUALITY = 2.0
# The lab's set-up is what `dnll theory` pays before its first trial: a
# fresh interpreter importing dnll and computing the grid's closed forms.
LAB_SETUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); import dnll; "
    "from dnll.theory import DEFAULT_GRID_Q as Q, DEFAULT_GRID_K as K, DEFAULT_GRID_M as M; "
    "[dnll.transfer_error_rate(q, k, m) for q in Q for k in K for m in M if m <= k - 1]; "
    "[dnll.coupling_probability(q, k, m) for q in Q for k in K for m in M if m <= k - 2]"
)
LAB_SETUPS = 5


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    tracers: dict = field(default_factory=dict)


def median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def tail(values) -> dict:
    """Highest percentile with at least ten samples beyond it.

    Null unless that percentile lies above the median: with 20 samples or
    fewer it would say nothing about slow units.
    """
    n = len(values)
    if n <= 20:
        return {"n": n, "percentile": None, "value_s": None}
    k = n - 11
    return {"n": n, "percentile": round(100.0 * (k + 1) / n, 1), "value_s": sorted(values)[k]}


# -- cached inputs ------------------------------------------------------------


def _train_spec(name: str, tiny: bool) -> dict:
    spec = dict(TRAIN[name], config=dict(TRAIN[name]["config"]))
    if tiny:
        spec.update(n_train=TINY["n_train"], n_test=TINY["n_test"])
        spec["config"]["model.hidden"] = TINY["model.hidden"]
    return spec


def _inputs_key(name: str, seed: int, tiny: bool) -> str:
    """Inputs depend on the seed, the spec and the generating program."""
    h = hashlib.sha256(json.dumps([name, seed, tiny, _train_spec(name, tiny)]).encode())
    for path in sorted((ROOT / "src" / "dnll").glob("*.py")):
        h.update(path.read_bytes())
    h.update(Path(__file__).read_bytes())
    return f"{name}-s{seed}{'-tiny' if tiny else ''}-{h.hexdigest()[:16]}"


def ensure_inputs(name: str, seed: int, tiny: bool) -> Path:
    """Input directory for (workload, seed), generated once in a child process.

    The child keeps generation out of this process's time and peak memory.
    """
    target = CACHE / _inputs_key(name, seed, tiny)
    if not (target / "meta.json").is_file():
        cmd = [sys.executable, str(BENCH / "run.py"), "--generate", name, "--seed", str(seed)]
        if tiny:
            cmd.append("--tiny")
        subprocess.run(cmd, check=True, timeout=600, stdout=subprocess.DEVNULL)
    return target


def generate(dnll, name: str, seed: int, tiny: bool) -> None:
    """Write IDX files, split manifest, config and (optionally) a resume
    checkpoint for one workload seed, then move them into the cache."""
    spec = _train_spec(name, tiny)
    target = CACHE / _inputs_key(name, seed, tiny)
    tmp = CACHE / f"{target.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    t0 = time.perf_counter()
    train = dnll.synthetic_digits(spec["n_train"], seed=2 * seed)
    test = dnll.synthetic_digits(spec["n_test"], seed=2 * seed + 1, role="test")
    gen_s = time.perf_counter() - t0
    dnll.write_idx(tmp / "train-images-idx3-ubyte", train.images)
    dnll.write_idx(tmp / "train-labels-idx1-ubyte", train.labels)
    dnll.write_idx(tmp / "t10k-images-idx3-ubyte", test.images)
    dnll.write_idx(tmp / "t10k-labels-idx1-ubyte", test.labels)
    split = dnll.split_indices(train, N_LABELED, N_VAL_PER_CLASS, seed)
    dnll.write_split_manifest(tmp / "split.txt", split, seed)
    (tmp / "config.txt").write_text("".join(f"{k} = {v}\n" for k, v in spec["config"].items()))
    if spec["resume_epochs"]:
        trainer = setup_trainer(dnll, tmp, Tracer(), resume=False)
        trainer.run(tmp / "resume_run", stop_after=spec["resume_epochs"])
        os.replace(tmp / "resume_run" / "checkpoint_last.dnll", tmp / "resume.dnll")
        shutil.rmtree(tmp / "resume_run")
    meta = {"samples_per_s": (spec["n_train"] + spec["n_test"]) / gen_s, "spec": spec}
    (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    try:
        os.rename(tmp, target)
    except OSError:  # another run finished the same inputs first
        shutil.rmtree(tmp, ignore_errors=True)


# -- training -----------------------------------------------------------------


def setup_trainer(dnll, inputs: Path, tracer: Tracer, resume: bool):
    """What a user pays before the first epoch: read inputs, build, resume."""
    with tracer.span("setup"):
        cfg = dnll.parse_config_file(inputs / "config.txt")
        with tracer.span("data.load"):
            train, test = dnll.load_train_test(inputs)
            split = dnll.read_split_manifest(inputs / "split.txt")
        data = dnll.TrainData(
            labeled=train.subset(split.labeled, "labeled"),
            unlabeled=train.subset(split.unlabeled, "unlabeled"),
            validation=train.subset(split.validation, "validation"),
            test=test,
        )
        trainer = dnll.DualTrainer(data, cfg)
        if resume:
            trainer.load(inputs / "resume.dnll")
    return trainer


def _digest(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name == "metrics.csv" or p.suffix == ".dnll"
    }


def run_training(dnll, name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> Run:
    """Rounds of set-up plus ``EPOCHS_PER_ROUND`` epochs, until time is up.

    Every round repeats the same seeded run, so its metrics.csv and
    checkpoints must equal the first round's byte for byte. Under tracing,
    odd rounds run with the library wrappers and even rounds without, which
    gives the tracing overhead from one process.
    """
    spec = _train_spec(name, tiny)
    resume = bool(spec["resume_epochs"])
    inputs = ensure_inputs(name, seed, tiny)
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run()
    plain, traced = Tracer(), Tracer()
    run.tracers = {"untraced": plain, "traced": traced}
    epochs_per_round = 1 if tiny else EPOCHS_PER_ROUND

    start = time.perf_counter()
    cmd = [sys.executable, "-c", FRESH_SETUP, str(ROOT / "src"), str(BENCH), str(inputs), str(int(resume))]
    setups = [
        float(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
        for _ in range(1 if tiny else SETUPS)
    ]
    reference, accuracies, last_round_s, r = None, [], 0.0, 0
    while r < 2 or time.perf_counter() - start + last_round_s <= min(seconds, HARD_LIMIT_S):
        round_start = time.perf_counter()
        tracer = traced if trace and r % 2 == 1 else plain
        out = work / f"round{r}"
        history, ok = [], True
        run.attempted += epochs_per_round
        with tracer.patch(dnll.trainer) if tracer is traced else nullcontext():
            trainer = setup_trainer(dnll, inputs, tracer, resume)
            first = trainer.epoch
            for e in range(first, first + epochs_per_round):
                try:
                    with tracer.span("trainer.epoch"):
                        history += trainer.run(out, stop_after=e + 1)
                except Exception:  # the run goes on; the epoch counts as failed
                    run.problems.append(f"round {r} epoch {e}: {traceback.format_exc(limit=3)}")
                    run.failed += first + epochs_per_round - e
                    ok = False
                    break
        if ok:
            digest = _digest(out)
            acc = history[-1].test_acc_ens
            accuracies.append(acc)
            if reference is None:
                reference = digest
            elif digest != reference:
                run.problems.append(f"round {r}: outputs differ from round 0: {digest} vs {reference}")
                ok = False
            if acc < spec["acc_floor"] and not tiny:
                run.problems.append(f"round {r}: test_acc_ens {acc} below floor {spec['acc_floor']}")
                ok = False
            if not ok:
                run.failed += epochs_per_round
        trainer = None  # one trainer alive at a time keeps peak_rss_mb steady
        shutil.rmtree(out, ignore_errors=True)
        last_round_s = time.perf_counter() - round_start
        r += 1
    shutil.rmtree(work, ignore_errors=True)

    epochs = plain.durations("trainer.epoch")
    run.end_to_end = {
        "setup_s": median(setups),
        "unit_s": median(epochs),
        "quality": median(accuracies),
    }
    run.extra = {
        "rounds": r,
        "epochs_per_round": epochs_per_round,
        "unit": "epoch: DualTrainer.run(out_dir, stop_after=e + 1)",
        "epoch_s": {"median": median(epochs), "tail": tail(epochs)},
        "setup_samples_s": setups,
        "test_acc_ens": accuracies[0] if accuracies else None,
    }
    if trace:
        run.per_layer = _training_layers(traced, epochs, inputs)
        run.extra["traced_epoch_s"] = median(traced.durations("trainer.epoch"))
        run.extra["tracing_overhead_s"] = run.per_layer["trace.overhead_s"]
    return run


def _training_layers(t: Tracer, untraced_epochs: list[float], inputs: Path) -> dict:
    traced_epochs = t.durations("trainer.epoch")
    n = max(len(traced_epochs), 1)
    s = t.summary()

    def total(*names):
        return sum(s.get(x, {}).get("total_s", 0.0) for x in names) / n

    def calls(name):
        return s.get(name, {}).get("calls", 0) / n

    sets = t.counts["negative_labels.sets"]
    evals = {"trainer.evaluate", "trainer.evaluate_ensemble"}
    meta = json.loads((inputs / "meta.json").read_text())
    return {
        "negative_labels.sample_s": total("negative_labels.sample"),
        "negative_labels.sample_calls": calls("negative_labels.sample"),
        "negative_labels.fallback_ratio": t.counts["negative_labels.fallbacks"] / sets if sets else 0.0,
        "negative_labels.profile_s": total("negative_labels.profile"),
        "data.augment_s": total("data.augment"),
        "data.augment_calls": calls("data.augment"),
        "data.load_s": median(t.durations("data.load")),
        "nn.forward_s": total("nn.forward"),
        "nn.forward_calls": calls("nn.forward"),
        "nn.backprop_s": total("nn.backprop"),
        "nn.softmax_s": total("nn.softmax"),
        "losses.loss_s": total("losses.cross_entropy", "losses.negative_loss"),
        "optim.sgd_step_s": total("optim.sgd_step"),
        "optim.sgd_step_calls": calls("optim.sgd_step"),
        "trainer.eval_s": total(*evals),
        "trainer.eval_forwards": t.under("nn.forward", evals) / n,
        "trainer.self_s": s.get("trainer.epoch", {}).get("self_s", 0.0) / n,
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.bytes": t.counts["checkpoint.bytes"] / n,
        "checkpoint.load_s": median(t.durations("checkpoint.load")),
        "synthetic.samples_per_s": meta["samples_per_s"],
        "trace.overhead_s": median(traced_epochs) - median(untraced_epochs),
    }


# -- theory lab ---------------------------------------------------------------


def _closed_forms(dnll, grid: dict) -> dict:
    """The lab's reference values, one per admissible (theorem, q, K, m) cell."""
    refs = {}
    for k in grid["ks"]:
        for m in grid["ms"]:
            for q in grid["qs"]:
                if m <= k - 1:
                    refs[(1, q, k, m)] = dnll.transfer_error_rate(q, k, m)
                if m <= k - 2:
                    refs[(2, q, k, m)] = dnll.coupling_probability(q, k, m)
    return refs


def run_theory(dnll, seed: int, seconds: float, trace: bool, tiny: bool) -> Run:
    """Grid passes over both theorems, until time is up.

    Each pass repeats the same seeded grid, so its rows must equal the
    first pass's exactly; every cell must pass the 4-SE gate.
    """
    from dnll import theory
    from dnll.cli import n_workers

    grid = {"qs": theory.DEFAULT_GRID_Q, "ks": theory.DEFAULT_GRID_K, "ms": theory.DEFAULT_GRID_M}
    if tiny:
        grid = {key: THEORY_TINY[key] for key in grid}
    grid["trials"] = THEORY_TINY["trials"] if tiny else 1_000_000  # run_grid's default
    # The worker count `dnll theory` uses: DNLL_THREADS, else one. Two
    # workers on a two-core machine made grid passes about 1.8x faster but
    # far less steady.
    workers = n_workers()
    run = Run()
    t = Tracer()
    run.tracers = {"untraced": t}

    start = time.perf_counter()
    for _ in range(1 if tiny else LAB_SETUPS):
        with t.span("setup"):
            # No timeout: waiting with one polls the child every 50 ms,
            # which would round the set-up time to that step.
            subprocess.run([sys.executable, "-c", LAB_SETUP, str(ROOT / "src")], check=True)
    refs = _closed_forms(dnll, grid)
    reference, last_pass_s, p, max_z, within = None, 0.0, 0, 0.0, []
    cells = {1: 0, 2: 0}
    while p < 2 or time.perf_counter() - start + last_pass_s <= min(seconds, HARD_LIMIT_S):
        pass_start = time.perf_counter()
        rows = []
        with t.span("theory.pass"):
            for theorem, name in ((1, "theory.transfer"), (2, "theory.coupling")):
                with t.span(name):
                    got = dnll.run_grid(theorem, seed=seed, workers=workers, **grid)
                cells[theorem] = len(got)
                rows += [dict(row, theorem=theorem) for row in got]
        run.attempted += len(rows)
        for row in rows:
            z = abs(row["z_score"])
            key = (row["theorem"], row["q"], row["K"], row["m"])
            if not (z <= Z_GATE and refs.get(key) == row["closed_form"]):
                run.failed += 1
                run.problems.append(f"pass {p}: cell {key} fails the gate: {row}")
            max_z = max(max_z, z)
        if reference is None:
            reference = rows
            within = [abs(row["z_score"]) <= Z_QUALITY for row in rows]
            if len(rows) != len(refs):
                run.problems.append(f"grid has {len(rows)} cells, expected {len(refs)}")
        elif rows != reference:
            run.failed += len(rows)
            run.problems.append(f"pass {p}: rows differ from pass 0")
        last_pass_s = time.perf_counter() - pass_start
        p += 1

    passes = t.durations("theory.pass")
    transfer, coupling = t.durations("theory.transfer"), t.durations("theory.coupling")
    run.end_to_end = {
        "setup_s": median(t.durations("setup")),
        "unit_s": median(passes),
        "quality": sum(within) / len(within),
    }
    run.extra = {
        "passes": p,
        "unit": f"grid pass: run_grid(1) and run_grid(2), {grid['trials']} trials per cell, workers={workers}",
        "pass_s": {"median": median(passes), "tail": tail(passes)},
        "transfer_trials_per_s": cells[1] * grid["trials"] / median(transfer),
        "coupling_trials_per_s": cells[2] * grid["trials"] / median(coupling),
        "cells": cells,
        "max_abs_z": max_z,
    }
    if trace:
        run.per_layer = {
            "theory.transfer_s": median(transfer),
            "theory.coupling_s": median(coupling),
            "theory.max_abs_z": max_z,
        }
    return run
