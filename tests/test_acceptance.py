"""Acceptance suite.

One test per criterion, each printing a single PASS line with its key
numbers (run pytest with -s or -rA to see them). The desk-scale training
criteria (5 and 6) run the full protocol (100 balanced labels, MLP
784-256-128-10, 30 epochs, batch 100 split 50/50) on the real MNIST IDX
files when they are on disk (set DNLL_DATA_DIR, or place them under
./data/mnist); otherwise they fall back to the deterministic synthetic
digit dataset and say so. Everything is seeded: reruns are bit-identical.
"""

import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from dnll.config import Seeds, TrainConfig
from dnll.data import (
    find_idx_file,
    load_train_test,
    parse_idx,
    split_dataset,
    write_idx,
)
from dnll.errors import FormatError, LengthError
from dnll.losses import cross_entropy, negative_loss, one_hot
from dnll.negative_labels import (
    normalize_profile,
    sample_negative_batch,
    sample_negatives_ep,
    sample_negatives_epm,
)
from dnll.nn import Architecture, backprop, init_model, predict_probs
from dnll.optim import OptimizerConfig
from dnll.synthetic import synthetic_digits
from dnll.theory import (
    TransferModel,
    coupling_probability,
    coupling_probability_stirling,
    simulate_coupling,
    simulate_transfer_error,
)
from dnll.trainer import DualTrainer, TrainData

from conftest import grad_check


def report(n, text):
    print(f"\nACCEPTANCE {n}: {text}: PASS")


# -- criterion 1: gradient correctness ----------------------------------------


def test_criterion_1_gradient_correctness():
    """Analytic vs central-difference gradients for both losses through a
    2-layer MLP: max relative error < 1e-4 over 20 random configurations,
    in under 10 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        d_in = int(rng.integers(4, 10))
        d_hid = int(rng.integers(4, 12))
        k = int(rng.integers(3, 8))
        arch = Architecture(input_dim=d_in, hidden=(d_hid,), n_classes=k)
        model = init_model(arch, seed=int(rng.integers(0, 2**31)))
        batch = rng.normal(size=(8, d_in))
        labels = one_hot(rng.integers(0, k, size=8), k)
        mask = np.zeros((8, k))
        for i in range(8):
            mask[i, rng.choice(k, size=min(2, k - 1), replace=False)] = 1.0

        probs = predict_probs(model, batch)
        ce_grads = backprop(model, batch, cross_entropy(probs, labels).grad_logits)
        worst = max(worst, grad_check(model, batch, lambda p: cross_entropy(p, labels).value, ce_grads))
        nl_grads = backprop(model, batch, negative_loss(probs, mask).grad_logits)
        worst = max(worst, grad_check(model, batch, lambda p: negative_loss(p, mask).value, nl_grads))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"max relative error {worst:.2e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"gradients within {worst:.2e} of finite differences ({elapsed:.1f}s)")


# -- criteria 2 and 3: the two closed forms ------------------------------------

GRID_Q = (0.0, 0.3, 0.5, 0.9, 1.0)
GRID_K = (3, 10, 100)
GRID_M = (1, 2, 3)


def test_criterion_2_transfer_error_grid():
    """10^6-trial Monte Carlo within 4 standard errors of (1-q)m/(K-1) in
    every admissible grid cell, in under 2 minutes."""
    t0 = time.perf_counter()
    cells = 0
    worst = 0.0
    for k in GRID_K:
        for m in GRID_M:
            if m > k - 1:
                continue
            for q in GRID_Q:
                res = simulate_transfer_error(
                    TransferModel(q, k, m, trials=1_000_000, seed=20_000 + cells)
                )
                diff = abs(res.estimate - res.closed_form)
                assert diff <= 4.0 * res.standard_error, (
                    f"q={q} K={k} m={m}: |{res.estimate} - {res.closed_form}| "
                    f"> 4 * {res.standard_error}"
                )
                if res.standard_error > 0:
                    worst = max(worst, abs(res.z_score))
                cells += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(2, f"transfer-error grid: {cells} cells, worst |z| = {worst:.2f} ({elapsed:.0f}s)")


def test_criterion_3_coupling_grid_and_stirling():
    """Coupling simulator within 4 SE of q/C(K-1,m) + (1-q)/C(K-2,m) on the
    grid (m <= K-2), and the Stirling approximation's relative error at
    m=1, q=0.5 strictly decreasing over K in {20, 50, 100, 500}."""
    t0 = time.perf_counter()
    cells = 0
    worst = 0.0
    for k in GRID_K:
        for m in GRID_M:
            if m > k - 2:
                continue
            for q in GRID_Q:
                res = simulate_coupling(
                    TransferModel(q, k, m, trials=1_000_000, seed=30_000 + cells)
                )
                diff = abs(res.estimate - res.closed_form)
                assert diff <= 4.0 * res.standard_error, (
                    f"q={q} K={k} m={m}: |{res.estimate} - {res.closed_form}| "
                    f"> 4 * {res.standard_error}"
                )
                if res.standard_error > 0:
                    worst = max(worst, abs(res.z_score))
                cells += 1
    rel_errors = []
    for k in (20, 50, 100, 500):
        exact = coupling_probability(0.5, k, 1)
        rel_errors.append(abs(coupling_probability_stirling(k, 1) - exact) / exact)
    assert all(a > b for a, b in zip(rel_errors, rel_errors[1:])), rel_errors
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(
        3,
        f"coupling grid: {cells} cells, worst |z| = {worst:.2f}; Stirling rel.err "
        + " > ".join(f"{e:.4f}" for e in rel_errors)
        + f" ({elapsed:.0f}s)",
    )


# -- criterion 4: negative-label invariants -------------------------------------


def test_criterion_4_negative_label_invariants():
    """10^5 fuzzed samples satisfy sum(v) = m and v[pseudo] = 0; EP passes
    chi-square (p > 0.01) at K=10, m=1, N=10^6; EPM with uniform rates is
    distributionally indistinguishable from EP (p > 0.01)."""
    rng = np.random.default_rng(77)
    for _ in range(100_000):
        k = int(rng.integers(2, 101))
        m = int(rng.integers(1, k))
        pred = int(rng.integers(0, k))
        if rng.random() < 0.5 or k == 2:
            nls = sample_negatives_ep(pred, k, m, rng)
        else:
            raw = rng.random(k)
            raw[pred] = 0.0
            nls = sample_negatives_epm(pred, raw / raw.sum(), k, m, rng)
        assert nls.mask.sum() == m
        assert nls.mask[pred] == 0

    # The 10^6-sample tables: 10 batches of 10^5 identical rows.
    n, chunk = 1_000_000, 100_000
    k, pred = 10, 3
    probs = np.tile(np.eye(k)[pred], (chunk, 1))

    def counts(rng, rates=None):
        batches = (sample_negative_batch(probs, 1, rng, rates)[0] for _ in range(n // chunk))
        return sum(masks.sum(axis=0) for masks in batches)

    ep_counts = counts(np.random.default_rng(78))
    candidates = np.arange(k) != pred
    chi = stats.chisquare(ep_counts[candidates])
    assert chi.pvalue > 0.01, f"EP uniformity p={chi.pvalue}"

    uniform = np.stack([normalize_profile(np.zeros(k), c) for c in range(k)])
    epm_counts = counts(np.random.default_rng(79), uniform)
    table = np.stack([ep_counts[candidates], epm_counts[candidates]])
    two = stats.chi2_contingency(table)
    assert two.pvalue > 0.01, f"EPM-vs-EP p={two.pvalue}"
    report(
        4,
        f"10^5 fuzzed sets valid; EP chi-square p={chi.pvalue:.3f}; "
        f"EPM~EP two-sample p={two.pvalue:.3f}",
    )


# -- criteria 5 and 6: the desk-scale experiment --------------------------------

N_TRAIN, N_TEST = 6500, 1500
DATA_SEED = 20260808
EXPERIMENT_SEEDS = (1, 2, 3)


def _mnist_dir() -> Path | None:
    candidates = []
    if os.environ.get("DNLL_DATA_DIR"):
        candidates.append(Path(os.environ["DNLL_DATA_DIR"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for d in candidates:
        try:
            find_idx_file(d, "train-images-idx3-ubyte")
            find_idx_file(d, "t10k-images-idx3-ubyte")
            return d
        except (FileNotFoundError, OSError):
            continue
    return None


@pytest.fixture(scope="module")
def digit_data(tmp_path_factory):
    """The experiment bundle: real MNIST when present, synthetic otherwise.

    Either way the images travel through IDX files and the split machinery,
    so the whole ingestion path is exercised end to end.
    """
    mnist = _mnist_dir()
    if mnist is not None:
        train, test = load_train_test(mnist)
        name = f"MNIST ({mnist})"
    else:
        d = tmp_path_factory.mktemp("digits")
        train_ds = synthetic_digits(N_TRAIN, seed=DATA_SEED)
        write_idx(d / "train-images-idx3-ubyte", train_ds.images)
        write_idx(d / "train-labels-idx1-ubyte", train_ds.labels)
        test_ds = synthetic_digits(N_TEST, seed=DATA_SEED + 1, role="test")
        write_idx(d / "t10k-images-idx3-ubyte", test_ds.images)
        write_idx(d / "t10k-labels-idx1-ubyte", test_ds.labels)
        train, test = load_train_test(d)
        name = "synthetic digits (MNIST files not found)"
    labeled, unlabeled, validation = split_dataset(train, n_labeled=100, n_val_per_class=40, seed=1)
    print(f"\n[experiment data: {name}; unlabeled pool {len(unlabeled)}]")
    return TrainData(labeled, unlabeled, validation, test), name


def _experiment_config(mode: str, lam: float, selection: str, seed_base: int) -> TrainConfig:
    return TrainConfig(
        lam=lam,
        m=3,
        selection_mode=selection,
        learning_mode=mode,
        epochs=30,
        batch_size=100,
        labeled_fraction=0.5,
        hidden=(256, 128),
        max_unlabeled=6000,
        optimizer=OptimizerConfig(base_lr=0.03, momentum=0.9, weight_decay=5e-4),
        seeds=Seeds(
            model1=seed_base,
            model2=seed_base + 100,
            data=seed_base + 200,
            sampler=seed_base + 300,
            augment=seed_base + 400,
        ),
    )


@pytest.fixture(scope="module")
def ssl_runs(digit_data):
    """All training runs shared by criteria 5 and 6, with timings."""
    data, _ = digit_data
    results: dict[str, list[float]] = {}
    timings: dict[str, float] = {}
    # "ML" is the full mutual objective (cross + self losses); "SL" keeps
    # only the self losses. Both under EPM selection, m=3, lambda=1.
    variants = {
        "supervised": ("supervised", 0.0, "EPM"),
        "ml_epm": ("mutual_plus_self", 1.0, "EPM"),
        "sl_epm": ("self_only", 1.0, "EPM"),
        "ml_ep": ("mutual_plus_self", 1.0, "EP"),
    }
    for tag, (mode, lam, selection) in variants.items():
        t0 = time.perf_counter()
        accs = []
        for seed in EXPERIMENT_SEEDS:
            trainer = DualTrainer(data, _experiment_config(mode, lam, selection, seed))
            trainer.run()
            accs.append(trainer.best["test_acc"])
        results[tag] = accs
        timings[tag] = time.perf_counter() - t0
    return results, timings


@pytest.mark.slow
def test_criterion_5_ssl_gain(ssl_runs, digit_data):
    """100 balanced labels, MLP 784-256-128-10, 30 epochs, batch 100
    (50/50): mutual learning + EPM with m=3, lambda=1 beats the lambda=0
    supervised baseline by >= 2.0 accuracy points, median over 3 seeds,
    inside 20 minutes."""
    results, timings = ssl_runs
    _, name = digit_data
    gains = [100.0 * (a - b) for a, b in zip(results["ml_epm"], results["supervised"])]
    median_gain = float(np.median(gains))
    elapsed = timings["ml_epm"] + timings["supervised"]
    assert elapsed < 1200.0, f"criterion-5 runs took {elapsed:.0f}s"
    assert median_gain >= 2.0, (
        f"median gain {median_gain:.2f} pts on {name}: "
        f"dnll={results['ml_epm']} supervised={results['supervised']}"
    )
    report(
        5,
        f"[{name}] median gain {median_gain:+.2f} pts "
        f"(dnll {[round(100*a, 2) for a in results['ml_epm']]} vs "
        f"supervised {[round(100*a, 2) for a in results['supervised']]}; {elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_6_mutual_vs_self_ordering(ssl_runs, digit_data):
    """Median best-validation test accuracy of mutual learning >= that of
    self-learning over the same 3 seeds. The EPM-vs-EP comparison is
    logged but not asserted."""
    results, _ = ssl_runs
    _, name = digit_data
    ml = float(np.median(results["ml_epm"]))
    sl = float(np.median(results["sl_epm"]))
    ep = float(np.median(results["ml_ep"]))
    assert ml >= sl, f"median ML {ml:.4f} < median SL {sl:.4f}"
    epm_note = "EPM >= EP" if ml >= ep else "EPM < EP (logged only, not asserted)"
    report(
        6,
        f"[{name}] median ML {100*ml:.2f} >= median SL {100*sl:.2f}; "
        f"EPM {100*ml:.2f} vs EP {100*ep:.2f}: {epm_note}",
    )


# -- criterion 7: determinism and resume ----------------------------------------


def _tiny_bundle():
    train = synthetic_digits(520, seed=99)
    test = synthetic_digits(120, seed=100, role="test")
    labeled, unlabeled, validation = split_dataset(train, 30, 4, seed=7)
    return TrainData(labeled, unlabeled, validation, test)


def _tiny_config(**overrides) -> TrainConfig:
    base = dict(
        lam=1.0, m=2, selection_mode="EPM", learning_mode="mutual_plus_self",
        epochs=5, batch_size=20, hidden=(32,),
        optimizer=OptimizerConfig(base_lr=0.05),
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_criterion_7_determinism_and_resume(tmp_path):
    """Same-seed runs give byte-identical metrics.csv; train-5 equals
    train-3-plus-resume-2 on the later rows."""
    bundle = _tiny_bundle()
    blobs = []
    for tag in ("a", "b"):
        DualTrainer(bundle, _tiny_config()).run(tmp_path / tag)
        blobs.append((tmp_path / tag / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]

    DualTrainer(bundle, _tiny_config()).run(tmp_path / "part", stop_after=3)
    resumed = DualTrainer(bundle, _tiny_config())
    resumed.load(tmp_path / "part" / "checkpoint_last.dnll")
    resumed.run(tmp_path / "resumed")
    full_rows = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
    resumed_rows = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()
    assert resumed_rows[1:] == full_rows[4:6]
    report(7, "same-seed runs byte-identical; resume rows match the unbroken run")


# -- criterion 8: IDX parser ------------------------------------------------------


def test_criterion_8_idx_parser(tmp_path):
    """Hand-built 2-image fixture decodes byte-exactly; wrong magic and
    truncation raise the declared errors."""
    pixels = np.array(
        [[[0, 1, 2], [3, 4, 5]], [[250, 251, 252], [253, 254, 255]]], dtype=np.uint8
    )
    raw = struct.pack(">IIII", 0x00000803, 2, 2, 3) + pixels.tobytes()
    path = tmp_path / "fixture.idx"
    path.write_bytes(raw)
    images = parse_idx(path)
    assert images.shape == (2, 2, 3)
    assert np.array_equal(images, pixels.astype(np.float64) / 255.0)

    bad_magic = tmp_path / "magic.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x00000802, 2, 2, 3) + pixels.tobytes())
    with pytest.raises(FormatError):
        parse_idx(bad_magic)

    truncated = tmp_path / "short.idx"
    truncated.write_bytes(raw[:-1])
    with pytest.raises(LengthError):
        parse_idx(truncated)
    report(8, "2-image fixture byte-exact; magic and truncation errors raised")


# -- criterion 9: lambda = 0 equivalence -------------------------------------------


def test_criterion_9_lambda_zero_equivalence(tmp_path):
    """The dual trainer with lambda = 0 reproduces the supervised-only
    trainer bit for bit."""
    bundle = _tiny_bundle()
    DualTrainer(bundle, _tiny_config(lam=0.0, learning_mode="mutual_plus_self")).run(tmp_path / "lam0")
    DualTrainer(bundle, _tiny_config(lam=1.0, learning_mode="supervised")).run(tmp_path / "sup")
    a = (tmp_path / "lam0" / "metrics.csv").read_bytes()
    b = (tmp_path / "sup" / "metrics.csv").read_bytes()
    assert a == b
    report(9, "lambda=0 metrics byte-identical to the supervised-only trainer")
