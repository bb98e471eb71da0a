"""The dual-model training loop.

Per batch, each submodel minimises

    supervised cross-entropy on its own weak view of the labeled half
    + lambda * (cross negative loss + self negative loss on the strong
      unlabeled view)

where negative-label sets are generated from weak-view predictions with no
gradient flowing through the generation (the sets are discrete). Under
mutual learning, each submodel's strong view is scored against the *other*
submodel's label sets; under self-learning, against its own. Misclass
profiles for EPM sampling are refreshed from labeled-data mistakes once per
epoch.

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
        eff_lam = cfg.effective_lambda(self.epoch)
        use_unsup = eff_lam != 0.0 and cfg.learning_mode != "supervised"
        need_cross = use_unsup and cfg.learning_mode in ("mutual", "mutual_plus_self")
        need_self = use_unsup and cfg.learning_mode in ("self_only", "mutual_plus_self")
        use_epm = cfg.selection_mode == "EPM"
        rates1 = self.profile1.rates() if (use_unsup and use_epm) else None
        rates2 = self.profile2.rates() if (use_unsup and use_epm) else None

        # Data order is drawn identically in every mode, so degenerate
        # configs (lambda = 0, supervised) stay bitwise-comparable.
        unl_order = self.data_rng.permutation(self.n_unlabeled)
        lab_perm = self.data_rng.permutation(len(self.data.labeled))
        lab_cursor = 0

        sums = np.zeros(6)  # sup1, sup2, cross1, cross2, self1, self2
        fallbacks = 0
        epoch_lr = cosine_lr(self.global_step, cfg.optimizer)
        epm_true, epm_pred1, epm_conf1, epm_pred2, epm_conf2 = [], [], [], [], []

        for b in range(self.batches_per_epoch):
            u_idx = unl_order[b * self.unlabeled_per_batch : (b + 1) * self.unlabeled_per_batch]
            if lab_cursor + self.labeled_per_batch > len(lab_perm):
                lab_perm = self.data_rng.permutation(len(self.data.labeled))
                lab_cursor = 0
            l_idx = lab_perm[lab_cursor : lab_cursor + self.labeled_per_batch]
            lab_cursor += self.labeled_per_batch
            lr = cosine_lr(self.global_step, cfg.optimizer)

            y_l = self._lab_onehot[l_idx]
            x_l1 = self._labeled_view(l_idx, _STREAM_LABELED_1)
            x_l2 = self._labeled_view(l_idx, _STREAM_LABELED_2)

            logits1, cache1 = forward(self.model1, x_l1)
            probs1 = softmax(logits1)
            ce1 = cross_entropy(probs1, y_l)
            grads1 = backprop_from(self.model1, cache1, ce1.grad_logits)

            logits2, cache2 = forward(self.model2, x_l2)
            probs2 = softmax(logits2)
            ce2 = cross_entropy(probs2, y_l)
            grads2 = backprop_from(self.model2, cache2, ce2.grad_logits)

            true_lab = self.data.labeled.labels[l_idx]
            epm_true.append(true_lab)
            epm_pred1.append(np.argmax(probs1, axis=1))
            epm_conf1.append(probs1[np.arange(len(l_idx)), epm_pred1[-1]])
            epm_pred2.append(np.argmax(probs2, axis=1))
            epm_conf2.append(probs2[np.arange(len(l_idx)), epm_pred2[-1]])

            cross1 = cross2 = self1 = self2 = 0.0
            if use_unsup:
                x_uw, x_us = self._unlabeled_views(u_idx)
                pw1 = softmax(forward(self.model1, x_uw)[0])
                pw2 = softmax(forward(self.model2, x_uw)[0])

                # Label generation is gradient-free: only the discrete masks
                # cross between the submodels. Draw order is fixed.
                if not use_epm:
                    masks1, _, _ = sample_negative_batch(pw1, cfg.m, self.sampler_rng)
                    masks2, _, _ = sample_negative_batch(pw2, cfg.m, self.sampler_rng)
                    masks1_cross = masks1_self = masks1
                    masks2_cross = masks2_self = masks2
                else:
                    masks1_cross = masks2_cross = masks1_self = masks2_self = None
                    if need_cross:
                        # Receiver of generator-1 labels is submodel 2, so the
                        # draw follows submodel 2's rates (and vice versa).
                        masks1_cross, _, f1 = sample_negative_batch(pw1, cfg.m, self.sampler_rng, rates2)
                        masks2_cross, _, f2 = sample_negative_batch(pw2, cfg.m, self.sampler_rng, rates1)
                        fallbacks += f1 + f2
                    if need_self:
                        masks1_self, _, f1 = sample_negative_batch(pw1, cfg.m, self.sampler_rng, rates1)
                        masks2_self, _, f2 = sample_negative_batch(pw2, cfg.m, self.sampler_rng, rates2)
                        fallbacks += f1 + f2

                logits1s, cache1s = forward(self.model1, x_us)
                p1s = softmax(logits1s)
                logits2s, cache2s = forward(self.model2, x_us)
                p2s = softmax(logits2s)

                unsup_grad1 = np.zeros_like(p1s)
                unsup_grad2 = np.zeros_like(p2s)
                if need_cross:
                    nl = negative_loss(p1s, masks2_cross)
                    cross1 = nl.value
                    unsup_grad1 += nl.grad_logits
                    nl = negative_loss(p2s, masks1_cross)
                    cross2 = nl.value
                    unsup_grad2 += nl.grad_logits
                if need_self:
                    nl = negative_loss(p1s, masks1_self)
                    self1 = nl.value
                    unsup_grad1 += nl.grad_logits
                    nl = negative_loss(p2s, masks2_self)
                    self2 = nl.value
                    unsup_grad2 += nl.grad_logits
                grads1.add_(backprop_from(self.model1, cache1s, eff_lam * unsup_grad1))
                grads2.add_(backprop_from(self.model2, cache2s, eff_lam * unsup_grad2))

            batch_losses = (ce1.value, ce2.value, cross1, cross2, self1, self2)
            if not all(np.isfinite(v) for v in batch_losses):
                raise NumericError(
                    f"non-finite loss at epoch {self.epoch} batch {b}: "
                    f"sup=({ce1.value}, {ce2.value}) cross=({cross1}, {cross2}) "
                    f"self=({self1}, {self2})"
                )
            sums += batch_losses
            sgd_step(self.model1, grads1, lr, cfg.optimizer)
            sgd_step(self.model2, grads2, lr, cfg.optimizer)
            self.global_step += 1

        update_misclass_profile(
            self.profile1, np.concatenate(epm_true), np.concatenate(epm_pred1), np.concatenate(epm_conf1)
        )
        update_misclass_profile(
            self.profile2, np.concatenate(epm_true), np.concatenate(epm_pred2), np.concatenate(epm_conf2)
        )

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

        mean = sums / self.batches_per_epoch
        metrics = EpochMetrics(
            epoch=self.epoch,
            lr=float(epoch_lr),
            sup1=mean[0], sup2=mean[1], cross1=mean[2], cross2=mean[3],
            self1=mean[4], self2=mean[5],
            val_acc1=val1, val_acc2=val2,
            test_acc1=test1, test_acc2=test2, test_acc_ens=test_ens,
            epm_fallbacks=int(fallbacks),
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
            metrics_path = out / "metrics.csv"
            if self.epoch == 0 or not metrics_path.exists():
                metrics_path.write_text(METRICS_HEADER + "\n")
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
        self.model1, self.model2, self.profile1.pr, self.profile2.pr = unpack_state(arch, tensors)
        self.epoch = int(progress["epoch"])
        self.global_step = int(progress["global_step"])
        self.best = dict(progress["best"])
        self.data_rng = restore_rng(progress["data_rng"])
        self.sampler_rng = restore_rng(progress["sampler_rng"])
