"""Command-line entry point.

Subcommands: ``synth`` (generate an offline digit dataset as IDX files),
``split`` (deterministic labeled/unlabeled/validation split manifest),
``train`` (the dual-model loop), ``eval`` (checkpoint accuracy + confusion
matrices), ``profile`` (dump EPM matrices as CSV), ``theory`` (Monte Carlo
check of the two closed forms), ``ablate`` (the m / selection / learning
mode sweeps).

Exit codes are a stable contract: 0 success, 1 a requested check failed,
2 usage or input error, 3 numeric failure during training. Exit 2 covers
every package error except a numeric one, and missing files: a bad config,
split manifest, IDX file or checkpoint, and data whose shape does not fit
the checkpoint. ``theory`` fails its check when a cell's |z| exceeds 4,
with z in units of the standard error the closed form p0 implies,
sqrt(p0 * (1 - p0) / trials). The environment
variable DNLL_THREADS caps the worker count used for simulation sharding
(default 1; results are shard-scheduling invariant either way).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .config import parse_config_file, serialize_config
from .data import (
    load_train_test,
    read_split_manifest,
    split_indices,
    write_idx,
    write_split_manifest,
)
from .errors import DnllError, NumericError
from .negative_labels import MisclassProfile
from .nn import Architecture
from .synthetic import synthetic_digits
from .theory import run_grid, simulate_row
from .trainer import DualTrainer, TrainData, evaluate, evaluate_ensemble, unpack_state

THEORY_CSV_HEADER = "q,K,m,trials,closed_form,estimate,standard_error,z_score"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def n_workers() -> int:
    try:
        return max(1, int(os.environ.get("DNLL_THREADS", "1")))
    except ValueError:
        return 1


def _prepare_data(data_dir, split_path) -> TrainData:
    train, test = load_train_test(data_dir)
    split = read_split_manifest(split_path)
    return TrainData(
        labeled=train.subset(split.labeled, "labeled"),
        unlabeled=train.subset(split.unlabeled, "unlabeled"),
        validation=train.subset(split.validation, "validation"),
        test=test,
    )


def _write_manifest(out_dir: Path, command: str, cfg_text: str, inputs: dict, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "created": _now(),
        "inputs": inputs,
        "out_dir": str(out_dir),
        "resolved_config": cfg_text,
    }
    if extra:
        manifest.update(extra)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# --- subcommands -------------------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train = synthetic_digits(args.n_train, args.seed, noise=args.noise, distortion=args.distortion)
    test = synthetic_digits(args.n_test, args.seed + 1, noise=args.noise, distortion=args.distortion)
    write_idx(out / "train-images-idx3-ubyte", train.images)
    write_idx(out / "train-labels-idx1-ubyte", train.labels)
    write_idx(out / "t10k-images-idx3-ubyte", test.images)
    write_idx(out / "t10k-labels-idx1-ubyte", test.labels)
    print(f"wrote {args.n_train} train + {args.n_test} test synthetic digits to {out}")
    return 0


def cmd_split(args) -> int:
    train, _ = load_train_test(args.data_dir)
    split = split_indices(train, args.n_labeled, args.n_val_per_class, args.seed)
    write_split_manifest(args.out, split, args.seed)
    print(
        f"split written to {args.out}: {len(split.labeled)} labeled, "
        f"{len(split.unlabeled)} unlabeled, {len(split.validation)} validation"
    )
    return 0


def cmd_train(args) -> int:
    cfg = parse_config_file(args.config)
    data = _prepare_data(args.data_dir, args.split)
    trainer = DualTrainer(data, cfg)
    out_dir = Path(args.out_dir)
    _write_manifest(
        out_dir,
        "train",
        serialize_config(trainer.cfg),
        {
            "config": {"path": str(args.config), "sha256": _sha256(args.config)},
            "split": {"path": str(args.split), "sha256": _sha256(args.split)},
            "data_dir": str(args.data_dir),
        },
        {"resume": str(args.resume) if args.resume else None},
    )
    if args.resume:
        trainer.load(args.resume)
        print(f"resumed from {args.resume} at epoch {trainer.epoch}")
    history = trainer.run(out_dir, stop_after=args.stop_after)
    for m in history:
        print(
            f"epoch {m.epoch}: sup=({m.sup1:.4f},{m.sup2:.4f}) "
            f"val=({m.val_acc1:.4f},{m.val_acc2:.4f}) "
            f"test=({m.test_acc1:.4f},{m.test_acc2:.4f},ens {m.test_acc_ens:.4f})"
        )
    best = trainer.best
    print(
        f"best: {best['which']} at epoch {best['epoch']} "
        f"val_acc={best['val_acc']:.4f} test_acc={best['test_acc']:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    _, arch, tensors, _ = load_checkpoint(args.checkpoint)
    model1, model2, _, _ = unpack_state(Architecture.from_dict(arch), tensors)
    train, test = load_train_test(args.data_dir)
    if args.split:
        split = read_split_manifest(args.split)
        val = train.subset(split.validation, "validation")
        vx, vy = val.flat_images(), val.labels
        print(f"val_acc1={evaluate(model1, vx, vy)[0]!r}")
        print(f"val_acc2={evaluate(model2, vx, vy)[0]!r}")
        print(f"val_acc_ens={evaluate_ensemble(model1, model2, vx, vy)!r}")
    x = test.flat_images()
    y = test.labels
    acc1, conf1 = evaluate(model1, x, y)
    acc2, conf2 = evaluate(model2, x, y)
    ens = evaluate_ensemble(model1, model2, x, y)
    print(f"test_acc1={acc1!r}")
    print(f"test_acc2={acc2!r}")
    print(f"test_acc_ens={ens!r}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, conf in (("confusion_model1.csv", conf1), ("confusion_model2.csv", conf2)):
            _write_matrix_csv(out / name, conf)
        print(f"confusion matrices written to {out}")
    return 0


def _write_matrix_csv(path, matrix: np.ndarray) -> None:
    k = matrix.shape[1]
    lines = [",".join(str(i) for i in range(k))]
    for row in matrix:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_profile(args) -> int:
    _, arch_dict, tensors, _ = load_checkpoint(args.checkpoint)
    arch = Architecture.from_dict(arch_dict)
    _, _, pr1, pr2 = unpack_state(arch, tensors)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for tag, pr in (("model1", pr1), ("model2", pr2)):
        _write_matrix_csv(out / f"profile_pr_{tag}.csv", pr)
        rates = MisclassProfile(arch.n_classes, pr=pr).rates()
        _write_matrix_csv(out / f"profile_rates_{tag}.csv", rates)
    print(f"profiles written to {out}")
    return 0


def cmd_theory(args) -> int:
    workers = n_workers()
    if args.grid:
        rows = run_grid(args.theorem, trials=args.trials, seed=args.seed, workers=workers)
    else:
        rows = [simulate_row(args.theorem, args.q, args.K, args.m, args.trials, args.seed, workers)]
    lines = [THEORY_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['q']!r},{r['K']},{r['m']},{r['trials']},"
            f"{r['closed_form']!r},{r['estimate']!r},{r['standard_error']!r},{r['z_score']!r}"
        )
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    worst = max(abs(r["z_score"]) for r in rows)
    if worst > 4.0:
        print(f"CHECK FAILED: worst |z| = {worst:.2f} > 4", file=sys.stderr)
        return 1
    return 0


_ABLATION_AXES = {
    "m": [("m=1", {"m": 1}), ("m=2", {"m": 2}), ("m=3", {"m": 3}), ("m=4", {"m": 4})],
    "selection": [
        ("EP", {"selection_mode": "EP"}),
        ("EPM", {"selection_mode": "EPM"}),
    ],
    # "ML" is the full mutual objective (cross + self); "SL" self losses only.
    "learning-mode": [
        ("SL w/o EPM", {"learning_mode": "self_only", "selection_mode": "EP"}),
        ("SL", {"learning_mode": "self_only", "selection_mode": "EPM"}),
        ("ML w/o EPM", {"learning_mode": "mutual_plus_self", "selection_mode": "EP"}),
        ("ML", {"learning_mode": "mutual_plus_self", "selection_mode": "EPM"}),
    ],
}


def cmd_ablate(args) -> int:
    base_cfg = parse_config_file(args.config)
    data = _prepare_data(args.data_dir, args.split)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    variants = _ABLATION_AXES[args.axis]
    first_col = {"m": "m", "selection": "selection", "learning-mode": "mode"}[args.axis]
    rows = []
    for label, overrides in variants:
        cfg = replace(base_cfg, **overrides)
        run_dir = out / label.replace(" ", "_").replace("/", "-")
        trainer = DualTrainer(data, cfg)
        _write_manifest(
            run_dir, "ablate", serialize_config(trainer.cfg),
            {"config": {"path": str(args.config), "sha256": _sha256(args.config)},
             "split": {"path": str(args.split), "sha256": _sha256(args.split)},
             "data_dir": str(args.data_dir), "axis": args.axis, "variant": label},
        )
        trainer.run(run_dir)
        value = label if args.axis != "m" else str(cfg.m)
        rows.append((value, trainer.best["test_acc"]))
        print(f"{label}: best test_acc={trainer.best['test_acc']!r}")
    table = [f"{first_col},final_acc"]
    for value, acc in rows:
        table.append(f"{value},{acc!r}")
    (out / f"ablation_{args.axis}.csv").write_text("\n".join(table) + "\n")
    print(f"ablation table written to {out / f'ablation_{args.axis}.csv'}")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnll",
        description="Dual-model semi-supervised training with pseudo-negative labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic digit dataset as IDX files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-train", type=int, default=8000)
    p.add_argument("--n-test", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--distortion", type=float, default=1.0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("split", help="write a deterministic split manifest")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--n-labeled", type=int, required=True)
    p.add_argument("--n-val-per-class", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("train", help="run the dual-model training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument(
        "--stop-after", type=int, default=None,
        help="interrupt after this many total epochs (schedule unchanged)",
    )
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split", default=None, help="also report validation accuracy")
    p.add_argument("--out-dir", default=None, help="where to write confusion CSVs")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("profile", help="dump EPM misclassification matrices as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("theory", help="Monte Carlo check of the closed forms")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--K", type=int, default=10)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", action="store_true", help="run the default (q, K, m) grid")
    p.add_argument("--out", default=None, help="also write the CSV here")
    p.set_defaults(fn=cmd_theory)

    p = sub.add_parser("ablate", help="controlled sweeps with shared seeds")
    p.add_argument("--axis", choices=tuple(_ABLATION_AXES), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DnllError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
