"""The dual-model training loop.

Per batch, each submodel minimises

    supervised cross-entropy on its own weak view of the labeled half
    + lambda * (cross negative loss + self negative loss on the strong
      unlabeled view)

where negative-label sets are generated from weak-view predictions with no
gradient flowing through the generation (the sets are discrete). Each
transfer is a (generator, receiver) pair of submodels: the generator's weak
view yields the sets, the receiver's strong view is scored against them.
Mutual learning uses the cross pairs (0, 1), (1, 0); self-learning the self
pairs (0, 0), (1, 1); mutual_plus_self the cross pairs, then the self pairs.
That is also the sampler's draw order. EP draws one set per generator,
shared by its cross and self pairs; EPM draws one per pair against the
receiver's rates. Misclass profiles for EPM sampling are refreshed from
labeled-data mistakes once per epoch.

Determinism contract: given one config (all five seeds) and one data
bundle, every run is bit-for-bit identical, including metrics formatting.
RNG streams are separated by purpose (data order, negative sampling,
per-sample augmentation), so modes that skip work (lambda = 0, supervised)
consume exactly the same data stream as modes that do it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, restore_rng, rng_state, save_checkpoint
from .config import TrainConfig, parse_config, serialize_config
from .data import Dataset, augment_batch
from .errors import ConfigError, DataError, FormatError, NumericError
from .losses import cross_entropy, negative_loss, one_hot
from .negative_labels import MisclassProfile, sample_negative_batch, update_misclass_profile
from .nn import Architecture, ModelState, backprop_from, forward, init_model, softmax
from .optim import cosine_lr, sgd_step

METRICS_HEADER = (
    "epoch,lr,sup1,sup2,cross1,cross2,self1,self2,"
    "val_acc1,val_acc2,test_acc1,test_acc2,test_acc_ens,epm_fallbacks"
)

# Stream tags keep the derived augmentation generators of every consumer
# (submodel 1/2 labeled view, shared unlabeled weak/strong view) disjoint.
_STREAM_LABELED_1 = 1
_STREAM_LABELED_2 = 2
_STREAM_UNLABELED_WEAK = 3
_STREAM_UNLABELED_STRONG = 4

# (generator, receiver) submodel pairs per learning mode, in draw order.
_CROSS = ((0, 1), (1, 0))
_SELF = ((0, 0), (1, 1))
_PAIRS = {
    "mutual": _CROSS, "self_only": _SELF, "mutual_plus_self": _CROSS + _SELF, "supervised": (),
}


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    sup1: float
    sup2: float
    cross1: float
    cross2: float
    self1: float
    self2: float
    val_acc1: float
    val_acc2: float
    test_acc1: float
    test_acc2: float
    test_acc_ens: float
    epm_fallbacks: int

    def row(self) -> str:
        vals = [
            self.epoch, self.lr, self.sup1, self.sup2, self.cross1, self.cross2,
            self.self1, self.self2, self.val_acc1, self.val_acc2,
            self.test_acc1, self.test_acc2, self.test_acc_ens, self.epm_fallbacks,
        ]
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in vals)


@dataclass
class TrainData:
    labeled: Dataset
    unlabeled: Dataset
    validation: Dataset
    test: Dataset


def evaluate(model: ModelState, images_flat: np.ndarray, labels: np.ndarray, chunk: int = 1024):
    """Accuracy and K x K confusion matrix (rows true, columns predicted)."""
    if images_flat.shape[0] == 0:
        raise DataError("cannot evaluate on an empty dataset")
    k = model.arch.n_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    for start in range(0, images_flat.shape[0], chunk):
        logits, _ = forward(model, images_flat[start : start + chunk])
        preds = np.argmax(logits, axis=1)
        np.add.at(confusion, (labels[start : start + chunk], preds), 1)
    accuracy = float(np.trace(confusion) / images_flat.shape[0])
    return accuracy, confusion


def evaluate_ensemble(model1: ModelState, model2: ModelState, images_flat, labels, chunk: int = 1024):
    """Accuracy of the averaged-softmax ensemble of the two submodels."""
    correct = 0
    for start in range(0, images_flat.shape[0], chunk):
        x = images_flat[start : start + chunk]
        probs = 0.5 * (softmax(forward(model1, x)[0]) + softmax(forward(model2, x)[0]))
        correct += int((np.argmax(probs, axis=1) == labels[start : start + chunk]).sum())
    return correct / images_flat.shape[0]


def pack_state(model1: ModelState, model2: ModelState, pr1: np.ndarray, pr2: np.ndarray) -> list[np.ndarray]:
    """The checkpoint tensor layout: for each submodel its weights, biases,
    weight and bias momentum (layer order), then the two EPM profiles."""
    tensors = []
    for model in (model1, model2):
        tensors += [*model.weights, *model.biases, *model.vel_w, *model.vel_b]
    return tensors + [pr1, pr2]


def unpack_state(arch: Architecture, tensors: list[np.ndarray]):
    """Inverse of ``pack_state``: (model1, model2, pr1, pr2).

    The count (8 per layer + 2) and every shape are checked against
    ``arch``, so a malformed checkpoint raises FormatError, not a partial
    or misshapen state.
    """
    sizes = arch.layer_sizes
    w_shapes = list(zip(sizes[:-1], sizes[1:]))
    b_shapes = [(n,) for n in sizes[1:]]
    model_shapes = w_shapes + b_shapes + w_shapes + b_shapes
    expected = 2 * model_shapes + 2 * [(arch.n_classes, arch.n_classes)]
    if len(tensors) != len(expected):
        raise FormatError(
            f"checkpoint holds {len(tensors)} tensors, architecture {arch} needs {len(expected)}"
        )
    for i, (t, shape) in enumerate(zip(tensors, expected)):
        if t.shape != shape:
            raise FormatError(f"checkpoint tensor {i} has shape {t.shape}, expected {shape}")
    n = len(w_shapes)
    parts = [tensors[i : i + n] for i in range(0, 8 * n, n)]
    return ModelState(arch, *parts[:4]), ModelState(arch, *parts[4:]), tensors[-2], tensors[-1]


class DualTrainer:
    """Owns the two submodels, their profiles and every RNG stream."""

    def __init__(self, data: TrainData, cfg: TrainConfig):
        self.data = data
        self.n_classes = int(
            max(data.labeled.labels.max(), data.validation.labels.max(), data.test.labels.max())
        ) + 1
        if not 1 <= cfg.m <= self.n_classes - 1:
            raise ConfigError(
                f"m={cfg.m} must be in [1, K-1] with K={self.n_classes} classes"
            )

        img_shape = data.labeled.images.shape[1:]
        self.arch = Architecture(
            input_dim=int(np.prod(img_shape)),
            hidden=cfg.hidden,
            n_classes=self.n_classes,
            activation=cfg.activation,
        )

        n_unl = len(data.unlabeled)
        if cfg.max_unlabeled > 0:
            n_unl = min(n_unl, cfg.max_unlabeled)
        self.n_unlabeled = n_unl
        self.labeled_per_batch = int(round(cfg.batch_size * cfg.labeled_fraction))
        self.unlabeled_per_batch = cfg.batch_size - self.labeled_per_batch
        if self.labeled_per_batch < 1 or self.unlabeled_per_batch < 1:
            raise ConfigError(
                f"batch_size={cfg.batch_size} with labeled_fraction={cfg.labeled_fraction} "
                "leaves an empty batch half"
            )
        self.batches_per_epoch = n_unl // self.unlabeled_per_batch
        if self.batches_per_epoch < 1:
            raise DataError(
                f"{n_unl} unlabeled samples cannot fill one batch half of "
                f"{self.unlabeled_per_batch}"
            )
        total = cfg.epochs * self.batches_per_epoch
        opt = cfg.optimizer
        self.cfg = replace(
            cfg, optimizer=replace(opt, total_steps=opt.total_steps or total)
        )

        seeds = cfg.seeds
        self.model1 = init_model(self.arch, seeds.model1)
        self.model2 = init_model(self.arch, seeds.model2)
        self.profile1 = MisclassProfile(self.n_classes, cfg.ema_decay)
        self.profile2 = MisclassProfile(self.n_classes, cfg.ema_decay)
        self.data_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seeds.data)))
        self.sampler_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seeds.sampler)))
        self.epoch = 0
        self.global_step = 0
        self.best = {"val_acc": -1.0, "test_acc": -1.0, "epoch": -1, "which": ""}

        # Flattened copies used every batch.
        self._lab_flat = data.labeled.flat_images()
        self._lab_onehot = one_hot(data.labeled.labels, self.n_classes)
        self._val_flat = data.validation.flat_images()
        self._test_flat = data.test.flat_images()

    # -- batch helpers ----------------------------------------------------

    def _labeled_view(self, l_idx: np.ndarray, stream: int) -> np.ndarray:
        images = self.data.labeled.images[l_idx]
        aug = self.cfg.augment
        if not aug.per_submodel_streams:
            stream = _STREAM_LABELED_1
        out = augment_batch(
            images, aug, "weak", self.cfg.seeds.augment, stream, self.epoch, l_idx
        )
        return out.reshape(out.shape[0], -1)

    def _unlabeled_views(self, u_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        images = self.data.unlabeled.images[u_idx]
        aug = self.cfg.augment
        weak = augment_batch(
            images, aug, "weak", self.cfg.seeds.augment,
            _STREAM_UNLABELED_WEAK, self.epoch, u_idx,
        )
        strong = augment_batch(
            images, aug, "strong", self.cfg.seeds.augment,
            _STREAM_UNLABELED_STRONG, self.epoch, u_idx,
        )
        return weak.reshape(weak.shape[0], -1), strong.reshape(strong.shape[0], -1)

    # -- one epoch ---------------------------------------------------------

    def train_epoch(self) -> EpochMetrics:
        cfg = self.cfg
        models = (self.model1, self.model2)
        profiles = (self.profile1, self.profile2)
        eff_lam = cfg.effective_lambda(self.epoch)
        pairs = _PAIRS[cfg.learning_mode] if eff_lam != 0.0 else ()
        rates = [p.rates() for p in profiles] if pairs and cfg.selection_mode == "EPM" else None

        # Data order is drawn identically in every mode, so degenerate
        # configs (lambda = 0, supervised) stay bitwise-comparable.
        unl_order = self.data_rng.permutation(self.n_unlabeled)
        lab_perm = self.data_rng.permutation(len(self.data.labeled))
        lab_cursor = 0

        sums = np.zeros(6)  # sup1, sup2, cross1, cross2, self1, self2
        fallbacks = 0
        epoch_lr = cosine_lr(self.global_step, cfg.optimizer)
        epm_true, epm_pred, epm_conf = [], ([], []), ([], [])

        for b in range(self.batches_per_epoch):
            u_idx = unl_order[b * self.unlabeled_per_batch : (b + 1) * self.unlabeled_per_batch]
            if lab_cursor + self.labeled_per_batch > len(lab_perm):
                lab_perm = self.data_rng.permutation(len(self.data.labeled))
                lab_cursor = 0
            l_idx = lab_perm[lab_cursor : lab_cursor + self.labeled_per_batch]
            lab_cursor += self.labeled_per_batch
            lr = cosine_lr(self.global_step, cfg.optimizer)

            y_l = self._lab_onehot[l_idx]
            epm_true.append(self.data.labeled.labels[l_idx])
            losses = np.zeros(6)
            grads = []
            for i, model in enumerate(models):
                logits, cache = forward(model, self._labeled_view(l_idx, _STREAM_LABELED_1 + i))
                probs = softmax(logits)
                ce = cross_entropy(probs, y_l)
                grads.append(backprop_from(model, cache, ce.grad_logits))
                losses[i] = ce.value
                epm_pred[i].append(np.argmax(probs, axis=1))
                epm_conf[i].append(probs[np.arange(len(l_idx)), epm_pred[i][-1]])

            if pairs:
                x_uw, x_us = self._unlabeled_views(u_idx)
                weak = [softmax(forward(model, x_uw)[0]) for model in models]
                strong = [forward(model, x_us) for model in models]
                strong_probs = [softmax(logits) for logits, _ in strong]
                unsup_grads = [np.zeros_like(p) for p in strong_probs]
                # Label generation is gradient-free: only the discrete masks
                # pass from generator g to receiver r. Under EP the cross and
                # self pairs of one generator share its set.
                masks = {}
                for g, r in pairs:
                    key = (g, r if rates else None)
                    if key not in masks:
                        masks[key], _, f = sample_negative_batch(
                            weak[g], cfg.m, self.sampler_rng, rates[r] if rates else None
                        )
                        fallbacks += f
                    nl = negative_loss(strong_probs[r], masks[key])
                    losses[(2 if g != r else 4) + r] = nl.value
                    unsup_grads[r] += nl.grad_logits
                for model, grad, (_, cache), unsup in zip(models, grads, strong, unsup_grads):
                    grad.add_(backprop_from(model, cache, eff_lam * unsup))

            if not np.isfinite(losses).all():
                raise NumericError(
                    f"non-finite loss at epoch {self.epoch} batch {b}: "
                    f"(sup1, sup2, cross1, cross2, self1, self2) = {losses.tolist()}"
                )
            sums += losses
            for model, grad in zip(models, grads):
                sgd_step(model, grad, lr, cfg.optimizer)
            self.global_step += 1

        true_lab = np.concatenate(epm_true)
        for profile, pred, conf in zip(profiles, epm_pred, epm_conf):
            update_misclass_profile(profile, true_lab, np.concatenate(pred), np.concatenate(conf))

        if self.decoupling_distance() == 0.0:
            raise NumericError(
                f"submodels coupled at epoch {self.epoch}: identical parameter vectors"
            )

        val_labels = self.data.validation.labels
        test_labels = self.data.test.labels
        val1, _ = evaluate(self.model1, self._val_flat, val_labels)
        val2, _ = evaluate(self.model2, self._val_flat, val_labels)
        val_ens = evaluate_ensemble(self.model1, self.model2, self._val_flat, val_labels)
        test1, _ = evaluate(self.model1, self._test_flat, test_labels)
        test2, _ = evaluate(self.model2, self._test_flat, test_labels)
        test_ens = evaluate_ensemble(self.model1, self.model2, self._test_flat, test_labels)

        metrics = EpochMetrics(
            self.epoch, float(epoch_lr), *(sums / self.batches_per_epoch).tolist(),
            val1, val2, test1, test2, test_ens, fallbacks,
        )
        for which, val_acc, test_acc in (
            ("model1", val1, test1), ("model2", val2, test2), ("ensemble", val_ens, test_ens),
        ):
            if val_acc > self.best["val_acc"]:
                self.best = {
                    "val_acc": val_acc, "test_acc": test_acc,
                    "epoch": self.epoch, "which": which,
                }
        self.epoch += 1
        return metrics

    def decoupling_distance(self) -> float:
        """L-infinity distance between the two submodels' parameter vectors."""
        return float(
            np.max(np.abs(self.model1.param_vector() - self.model2.param_vector()))
        )

    # -- full runs and checkpointing ---------------------------------------

    def run(self, out_dir=None, stop_after: int | None = None) -> list[EpochMetrics]:
        """Train to cfg.epochs, optionally writing metrics/checkpoints.

        ``stop_after`` interrupts the run after that many total epochs while
        keeping the full schedule, so a later resume with the same config
        continues bit-for-bit where an unbroken run would have been.
        """
        out = None
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            # Rows from this epoch on belong to a run that a crash cut short
            # after its metrics row was appended; the resumed run rewrites them.
            metrics_path = out / "metrics.csv"
            rows = metrics_path.read_text().splitlines()[1:] if metrics_path.exists() else []
            epochs = [row.partition(",")[0] for row in rows]
            kept = [
                row for row, e in zip(rows, epochs)
                if "," in row and e.isdecimal() and int(e) < self.epoch
            ]
            metrics_path.write_text("".join(line + "\n" for line in [METRICS_HEADER, *kept]))
        last_epoch = self.cfg.epochs if stop_after is None else min(stop_after, self.cfg.epochs)
        history = []
        for _ in range(self.epoch, last_epoch):
            metrics = self.train_epoch()
            history.append(metrics)
            if out is not None:
                with open(out / "metrics.csv", "a") as fh:
                    fh.write(metrics.row() + "\n")
                self.save(out / "checkpoint_last.dnll")
                if self.best["epoch"] == metrics.epoch:
                    self.save(out / "checkpoint_best.dnll")
        return history

    def save(self, path) -> None:
        progress = {
            "epoch": self.epoch,
            "global_step": self.global_step,
            "best": self.best,
            "data_rng": rng_state(self.data_rng),
            "sampler_rng": rng_state(self.sampler_rng),
        }
        save_checkpoint(
            path, serialize_config(self.cfg), self.arch.to_dict(),
            pack_state(self.model1, self.model2, self.profile1.pr, self.profile2.pr), progress,
        )

    def load(self, path) -> None:
        """Restore a checkpoint; subsequent epochs match an unbroken run."""
        config_text, arch_dict, tensors, progress = load_checkpoint(path)
        arch = Architecture.from_dict(arch_dict)
        if arch != self.arch:
            raise ConfigError(
                f"checkpoint architecture {arch} does not match trainer {self.arch}"
            )
        ckpt_cfg = parse_config(config_text)
        if serialize_config(ckpt_cfg) != serialize_config(replace(self.cfg, epochs=ckpt_cfg.epochs)):
            raise ConfigError("checkpoint config differs from trainer config (epochs aside)")
        state = unpack_state(arch, tensors)
        try:
            best = progress["best"]
            kinds = (("val_acc", float), ("test_acc", float), ("epoch", int), ("which", str))
            best = {key: kind(best[key]) for key, kind in kinds}
            counters = int(progress["epoch"]), int(progress["global_step"]), best
            rngs = restore_rng(progress["data_rng"]), restore_rng(progress["sampler_rng"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed progress record: {exc!r}") from exc
        self.model1, self.model2, self.profile1.pr, self.profile2.pr = state
        self.epoch, self.global_step, self.best = counters
        self.data_rng, self.sampler_rng = rngs
