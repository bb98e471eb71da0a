"""Training-loop behaviour: degenerate modes, determinism, checkpoints."""

import time

import numpy as np
import pytest

from dnll.checkpoint import load_checkpoint, save_checkpoint
from dnll.config import TrainConfig
from dnll.data import split_dataset
from dnll.errors import ConfigError, DataError, FormatError, NumericError
from dnll.losses import negative_loss
from dnll.negative_labels import sample_negative_batch
from dnll.nn import Architecture, backprop, init_model, predict_probs
from dnll.optim import OptimizerConfig
from dnll.synthetic import synthetic_digits
from dnll.trainer import (
    METRICS_HEADER,
    DualTrainer,
    TrainData,
    evaluate,
    evaluate_ensemble,
    pack_state,
)


def small_bundle(n_train=460, n_test=120, seed=21) -> TrainData:
    train = synthetic_digits(n_train, seed=seed)
    test = synthetic_digits(n_test, seed=seed + 1, role="test")
    labeled, unlabeled, validation = split_dataset(train, 30, 4, seed=7)
    return TrainData(labeled, unlabeled, validation, test)


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        lam=1.0,
        m=2,
        selection_mode="EP",
        learning_mode="mutual_plus_self",
        epochs=2,
        batch_size=20,
        hidden=(24,),
        optimizer=OptimizerConfig(base_lr=0.05),
    )
    base.update(overrides)
    return TrainConfig(**base)


BUNDLE = small_bundle()


def state_of(trainer: DualTrainer) -> list[np.ndarray]:
    return pack_state(trainer.model1, trainer.model2, trainer.profile1.pr, trainer.profile2.pr)


class TestDegenerateModes:
    def test_lambda_zero_equals_supervised_bitwise(self):
        rows, weights = {}, {}
        for tag, cfg in (
            ("lam0", tiny_config(lam=0.0, learning_mode="mutual_plus_self")),
            ("sup", tiny_config(lam=1.0, learning_mode="supervised")),
        ):
            trainer = DualTrainer(BUNDLE, cfg)
            rows[tag] = [m.row() for m in trainer.run()]
            weights[tag] = np.concatenate(
                [trainer.model1.param_vector(), trainer.model2.param_vector()]
            )
        assert rows["lam0"] == rows["sup"]
        assert np.array_equal(weights["lam0"], weights["sup"])

    def test_self_only_reports_zero_cross(self):
        trainer = DualTrainer(BUNDLE, tiny_config(learning_mode="self_only"))
        metrics = trainer.train_epoch()
        assert metrics.cross1 == 0.0 and metrics.cross2 == 0.0
        assert metrics.self1 > 0.0 and metrics.self2 > 0.0

    def test_mutual_reports_zero_self(self):
        trainer = DualTrainer(BUNDLE, tiny_config(learning_mode="mutual"))
        metrics = trainer.train_epoch()
        assert metrics.self1 == 0.0 and metrics.self2 == 0.0
        assert metrics.cross1 > 0.0 and metrics.cross2 > 0.0

    def test_supervised_mode_runs_faster_than_full(self):
        # Not a strict benchmark, just that the unlabeled branch is skipped:
        # losses stay zero and fallbacks never move.
        trainer = DualTrainer(BUNDLE, tiny_config(learning_mode="supervised"))
        metrics = trainer.train_epoch()
        assert metrics.cross1 == metrics.self1 == 0.0
        assert metrics.epm_fallbacks == 0


class TestGradientIsolation:
    def test_receiver_gradient_ignores_generator_weights(self, rng):
        # With the discrete label sets held fixed, the receiving submodel's
        # gradient cannot depend on the generator's parameters.
        arch = Architecture(input_dim=16, hidden=(8,), n_classes=5)
        receiver = init_model(arch, seed=1)
        generator = init_model(arch, seed=2)
        batch = rng.random((6, 16))
        probs_weak = predict_probs(generator, batch)
        masks, _, _ = sample_negative_batch(probs_weak, 2, np.random.default_rng(3))

        def receiver_grads():
            probs = predict_probs(receiver, batch)
            return backprop(receiver, batch, negative_loss(probs, masks).grad_logits)

        before = receiver_grads()
        for w in generator.weights:
            w += 10.0
        after = receiver_grads()
        for a, b in zip(before.dw + before.db, after.dw + after.db):
            assert np.array_equal(a, b)


class TestDecoupling:
    def test_submodels_distinct_every_epoch(self):
        trainer = DualTrainer(BUNDLE, tiny_config(epochs=3))
        assert trainer.decoupling_distance() > 0.0
        for _ in range(3):
            trainer.train_epoch()
            assert trainer.decoupling_distance() > 0.0


class TestEvaluate:
    def test_perfect_predictor(self):
        # One-hot "images" and identity-like weights give argmax = label.
        k = 6
        arch = Architecture(input_dim=k, hidden=(k,), n_classes=k)
        model = init_model(arch, seed=0)
        model.weights[0] = np.eye(k)
        model.weights[1] = np.eye(k)
        for b in model.biases:
            b[:] = 0.0
        labels = np.arange(k).repeat(3)
        images = np.eye(k)[labels]
        acc, confusion = evaluate(model, images, labels)
        assert acc == 1.0
        assert np.array_equal(confusion, np.diag([3] * k))

    def test_untrained_model_near_chance(self):
        # Label-independent predictions on a balanced 10-class set land
        # within 3 binomial sigmas of 0.1.
        arch = Architecture(input_dim=12, hidden=(8,), n_classes=10)
        model = init_model(arch, seed=5)
        n_per = 200
        rng = np.random.default_rng(0)
        images = rng.random((10 * n_per, 12))
        labels = np.arange(10).repeat(n_per)
        acc, confusion = evaluate(model, images, labels)
        sigma = np.sqrt(0.1 * 0.9 / (10 * n_per))
        assert abs(acc - 0.1) < 3 * sigma
        assert confusion.sum() == 10 * n_per
        assert np.trace(confusion) / confusion.sum() == pytest.approx(acc)

    def test_empty_dataset(self):
        arch = Architecture(input_dim=4, hidden=(3,), n_classes=2)
        model = init_model(arch, seed=1)
        with pytest.raises(DataError):
            evaluate(model, np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_ensemble_of_identical_models_matches_single(self):
        arch = Architecture(input_dim=8, hidden=(6,), n_classes=4)
        model = init_model(arch, seed=9)
        rng = np.random.default_rng(1)
        images = rng.random((50, 8))
        labels = rng.integers(0, 4, size=50)
        acc, _ = evaluate(model, images, labels)
        assert evaluate_ensemble(model, model, images, labels) == pytest.approx(acc)


class TestDeterminismAndResume:
    def test_same_seed_bitwise_metrics(self, tmp_path):
        rows = []
        for run in ("a", "b"):
            trainer = DualTrainer(BUNDLE, tiny_config(selection_mode="EPM"))
            trainer.run(tmp_path / run)
            rows.append((tmp_path / run / "metrics.csv").read_bytes())
        assert rows[0] == rows[1]

    def test_metrics_header_contract(self, tmp_path):
        trainer = DualTrainer(BUNDLE, tiny_config(epochs=1))
        trainer.run(tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines[0].split(",")) == 14
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 14

    def test_metrics_fields_parse_as_numbers(self, tmp_path):
        for selection in ("EP", "EPM"):
            DualTrainer(BUNDLE, tiny_config(selection_mode=selection)).run(tmp_path / selection)
            _, *rows = (tmp_path / selection / "metrics.csv").read_text().splitlines()
            for row in rows:
                epoch, *floats, fallbacks = row.split(",")
                assert int(epoch) >= 0 and int(fallbacks) >= 0
                assert all(np.isfinite(float(v)) for v in floats)

    def test_run_one_epoch_at_a_time_matches_unbroken_run(self, tmp_path):
        cfg = tiny_config(epochs=3, selection_mode="EPM")
        DualTrainer(BUNDLE, cfg).run(tmp_path / "full")
        trainer = DualTrainer(BUNDLE, cfg)
        for e in range(cfg.epochs):
            trainer.run(tmp_path / "steps", stop_after=e + 1)
        for name in ("metrics.csv", "checkpoint_last.dnll", "checkpoint_best.dnll"):
            assert (tmp_path / "steps" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_resume_in_place_after_crash_writes_each_epoch_once(self, tmp_path, monkeypatch):
        import dnll.trainer as tr

        cfg = tiny_config(epochs=4, selection_mode="EPM")
        DualTrainer(BUNDLE, cfg).run(tmp_path / "full")
        crashed = DualTrainer(BUNDLE, cfg)
        real_save = tr.save_checkpoint

        def killed_after_row_2(path, *args):
            # epoch 2's metrics row is on disk; its checkpoint never lands
            if crashed.epoch == 3:
                raise OSError("killed")
            real_save(path, *args)

        monkeypatch.setattr(tr, "save_checkpoint", killed_after_row_2)
        with pytest.raises(OSError):
            crashed.run(tmp_path / "run")
        monkeypatch.undo()
        resumed = DualTrainer(BUNDLE, cfg)
        resumed.load(tmp_path / "run" / "checkpoint_last.dnll")
        assert resumed.epoch == 2
        resumed.run(tmp_path / "run")
        full = (tmp_path / "full" / "metrics.csv").read_text()
        assert (tmp_path / "run" / "metrics.csv").read_text() == full
        assert [row.split(",")[0] for row in full.splitlines()[1:]] == ["0", "1", "2", "3"]

    def test_resume_matches_unbroken_run(self, tmp_path):
        cfg = tiny_config(epochs=5, selection_mode="EPM", learning_mode="mutual")
        full = DualTrainer(BUNDLE, cfg)
        full.run(tmp_path / "full")

        part = DualTrainer(BUNDLE, cfg)
        part.run(tmp_path / "part", stop_after=3)
        resumed = DualTrainer(BUNDLE, cfg)
        resumed.load(tmp_path / "part" / "checkpoint_last.dnll")
        assert resumed.epoch == 3
        resumed.run(tmp_path / "resumed")

        full_rows = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
        resumed_rows = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()
        assert resumed_rows[1:] == full_rows[4:6]  # epochs 3 and 4

    def test_checkpoint_roundtrip_restores_tensors(self, tmp_path):
        cfg = tiny_config(epochs=1)
        trainer = DualTrainer(BUNDLE, cfg)
        trainer.train_epoch()
        trainer.save(tmp_path / "c.dnll")
        clone = DualTrainer(BUNDLE, cfg)
        clone.load(tmp_path / "c.dnll")
        for a, b in zip(state_of(trainer), state_of(clone)):
            assert np.array_equal(a, b)
        assert clone.epoch == trainer.epoch
        assert clone.best == trainer.best

    @pytest.mark.parametrize("damage", ["too_few_tensors", "wrong_shape"])
    def test_load_rejects_malformed_state(self, tmp_path, damage):
        trainer = DualTrainer(BUNDLE, tiny_config(epochs=1))
        trainer.train_epoch()
        trainer.save(tmp_path / "c.dnll")
        config_text, arch, tensors, progress = load_checkpoint(tmp_path / "c.dnll")
        if damage == "too_few_tensors":
            del tensors[-3:]
        else:
            tensors[1] = tensors[1][:-1]
        save_checkpoint(tmp_path / "bad.dnll", config_text, arch, tensors, progress)
        clone = DualTrainer(BUNDLE, tiny_config(epochs=1))
        with pytest.raises(FormatError, match="tensor"):
            clone.load(tmp_path / "bad.dnll")

    def test_load_rejects_mismatched_architecture(self, tmp_path):
        trainer = DualTrainer(BUNDLE, tiny_config(epochs=1))
        trainer.train_epoch()
        trainer.save(tmp_path / "c.dnll")
        other = DualTrainer(BUNDLE, tiny_config(epochs=1, hidden=(12,)))
        with pytest.raises(ConfigError):
            other.load(tmp_path / "c.dnll")


class TestLinearCost:
    def test_epoch_time_scales_with_unlabeled_batches(self):
        # Doubling the unlabeled pool should roughly double epoch time.
        # A process's first epoch runs cold, so one untimed epoch goes
        # first; the two sizes alternate so a slow spell hits both.
        cfgs = {
            tag: tiny_config(epochs=1, max_unlabeled=cap, batch_size=20, hidden=(48,))
            for tag, cap in (("small", 150), ("large", 300))
        }
        DualTrainer(BUNDLE, cfgs["small"]).train_epoch()
        samples = {"small": [], "large": []}
        for _ in range(5):
            for tag, cfg in cfgs.items():
                trainer = DualTrainer(BUNDLE, cfg)
                t0 = time.perf_counter()
                trainer.train_epoch()
                samples[tag].append(time.perf_counter() - t0)
        ratio = np.median(samples["large"]) / np.median(samples["small"])
        assert 1.5 <= ratio <= 2.5

    def test_max_unlabeled_controls_batches(self):
        cfg = tiny_config(max_unlabeled=100, batch_size=20)
        trainer = DualTrainer(BUNDLE, cfg)
        assert trainer.batches_per_epoch == 10  # 100 unlabeled / 10 per batch


class TestFailureModes:
    def test_poisoned_weights_raise_numeric_error(self):
        trainer = DualTrainer(BUNDLE, tiny_config())
        trainer.model1.weights[0][:] = np.nan
        with pytest.raises(NumericError, match="batch 0"):
            trainer.train_epoch()

    def test_m_out_of_range_for_k(self):
        with pytest.raises(ConfigError):
            DualTrainer(BUNDLE, tiny_config(m=10))

    def test_epoch_metrics_accuracies_in_range(self):
        trainer = DualTrainer(BUNDLE, tiny_config(epochs=1))
        m = trainer.train_epoch()
        for v in (m.val_acc1, m.val_acc2, m.test_acc1, m.test_acc2, m.test_acc_ens):
            assert 0.0 <= v <= 1.0


class TestEpmIntegration:
    def test_profiles_update_and_fallbacks_zero(self):
        trainer = DualTrainer(BUNDLE, tiny_config(selection_mode="EPM", epochs=1))
        metrics = trainer.train_epoch()
        # Softmax-normalised rates always carry mass, so the uniform
        # fallback should never fire in a normal run.
        assert metrics.epm_fallbacks == 0
        assert trainer.profile1.pr.sum() >= 0.0
        rates = trainer.profile1.rates()
        assert np.allclose(rates.sum(axis=1), 1.0)

    def test_per_submodel_streams_differ(self):
        trainer = DualTrainer(BUNDLE, tiny_config())
        idx = np.arange(4)
        v1 = trainer._labeled_view(idx, 1)
        v2 = trainer._labeled_view(idx, 2)
        # identity weak mode: views coincide; with crop_flip they must not.
        assert np.array_equal(v1, v2)
        cfg = tiny_config()
        cfg.augment.weak = "crop_flip"
        cfg.augment.strong = "crop_flip_noise"
        trainer2 = DualTrainer(BUNDLE, cfg)
        w1 = trainer2._labeled_view(idx, 1)
        w2 = trainer2._labeled_view(idx, 2)
        assert not np.array_equal(w1, w2)


def record_schedule(monkeypatch, trainer):
    """Run one epoch and read back its draw schedule.

    Every array that ``forward``/``softmax`` return is tagged with its
    submodel (1 or 2) and every sampled mask batch with its call index, so
    the record says which submodel's weak probabilities each sampler call
    got, whose rates it used, and which sets each receiver's losses read.
    """
    import dnll.trainer as tr

    real = (tr.forward, tr.softmax, tr.sample_negative_batch, tr.negative_loss)
    rates = {"rates1": trainer.profile1.rates(), "rates2": trainer.profile2.rates()}
    model_of, set_of, keep = {}, {}, []  # keep holds the tagged arrays so ids stay unique
    calls, used = [], {1: [], 2: []}

    def forward(model, x):
        logits, cache = real[0](model, x)
        model_of[id(logits)] = 1 if model is trainer.model1 else 2
        keep.append(logits)
        return logits, cache

    def softmax(logits):
        probs = real[1](logits)
        model_of[id(probs)] = model_of[id(logits)]
        keep.append(probs)
        return probs

    def sample(probs, m, rng, r=None):
        out = real[2](probs, m, rng, r)
        whose = None if r is None else next(k for k, v in rates.items() if np.array_equal(v, r))
        calls.append((f"g{model_of[id(probs)]}", whose))
        set_of[id(out[0])] = len(calls) - 1
        keep.append(out[0])
        return out

    def loss(probs, masks):
        used[model_of[id(probs)]].append(set_of[id(masks)])
        return real[3](probs, masks)

    for name, fn in zip(("forward", "softmax", "sample_negative_batch", "negative_loss"),
                        (forward, softmax, sample, loss)):
        monkeypatch.setattr(tr, name, fn)
    trainer.train_epoch()
    return calls, used


class TestDrawSchedule:
    """Pins, per batch, the (generator, receiver) order of negative-set draws
    and which set each receiver's cross and self losses score against."""

    G1, G2 = ("g1", None), ("g2", None)

    @pytest.mark.parametrize("selection, mode, lam, calls, used", [
        ("EP", "mutual", 1.0, [G1, G2], {1: [1], 2: [0]}),
        ("EP", "self_only", 1.0, [G1, G2], {1: [0], 2: [1]}),
        ("EP", "mutual_plus_self", 1.0, [G1, G2], {1: [1, 0], 2: [0, 1]}),
        ("EPM", "mutual", 1.0, [("g1", "rates2"), ("g2", "rates1")], {1: [1], 2: [0]}),
        ("EPM", "self_only", 1.0, [("g1", "rates1"), ("g2", "rates2")], {1: [0], 2: [1]}),
        ("EPM", "mutual_plus_self", 1.0,
         [("g1", "rates2"), ("g2", "rates1"), ("g1", "rates1"), ("g2", "rates2")],
         {1: [1, 2], 2: [0, 3]}),
        ("EP", "supervised", 1.0, [], {1: [], 2: []}),
        ("EPM", "supervised", 1.0, [], {1: [], 2: []}),
        ("EP", "mutual_plus_self", 0.0, [], {1: [], 2: []}),
        ("EPM", "mutual_plus_self", 0.0, [], {1: [], 2: []}),
    ])
    def test_one_batch_of_epoch_one(self, monkeypatch, selection, mode, lam, calls, used):
        cfg = tiny_config(selection_mode=selection, learning_mode=mode, lam=lam, max_unlabeled=10)
        trainer = DualTrainer(BUNDLE, cfg)
        assert trainer.batches_per_epoch == 1
        trainer.train_epoch()
        assert not np.array_equal(trainer.profile1.rates(), trainer.profile2.rates())
        assert record_schedule(monkeypatch, trainer) == (calls, used)
