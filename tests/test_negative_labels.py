"""Samplers, candidate counting and the error-perception profile."""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from dnll.errors import ConfigError, DataError
from dnll.negative_labels import (
    MisclassProfile,
    candidate_count,
    normalize_profile,
    pseudo_label,
    sample_negative_batch,
    sample_negatives_ep,
    sample_negatives_epm,
    update_misclass_profile,
)


class TestPseudoLabel:
    def test_argmax(self):
        assert pseudo_label(np.array([0.1, 0.7, 0.2])) == 1

    def test_tie_breaks_low(self):
        assert pseudo_label(np.array([0.25, 0.25, 0.25, 0.25])) == 0

    def test_one_hot(self):
        assert pseudo_label(np.array([0.0, 0.0, 0.0, 1.0])) == 3


class TestCandidateCount:
    def test_singletons(self):
        assert candidate_count(10, 1) == 9

    def test_enumeration_oracle(self):
        # Independent oracle: count the 3-subsets of the 9 candidates.
        assert candidate_count(10, 3) == len(list(itertools.combinations(range(9), 3)))

    def test_full_complement(self):
        assert candidate_count(4, 3) == 1

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            candidate_count(10, 0)
        with pytest.raises(ConfigError):
            candidate_count(10, 10)


class TestEpSampler:
    def test_two_classes_forced(self, rng):
        for _ in range(20):
            nls = sample_negatives_ep(0, 2, 1, rng)
            assert np.array_equal(nls.mask, [0, 1])

    def test_definitional_invariants_fuzz(self, rng):
        for _ in range(2000):
            k = int(rng.integers(2, 30))
            m = int(rng.integers(1, k))
            pred = int(rng.integers(0, k))
            nls = sample_negatives_ep(pred, k, m, rng)
            assert nls.mask.sum() == m
            assert nls.mask[pred] == 0
            assert nls.pseudo_label == pred

    def test_uniform_frequencies(self, rng):
        # K=10, m=1: each of the 9 candidates within 3 binomial sigmas of 1/9.
        n = 100_000
        counts = np.zeros(10)
        for _ in range(n):
            counts += sample_negatives_ep(3, 10, 1, rng).mask
        assert counts[3] == 0
        p = 1.0 / 9.0
        sigma = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts[np.arange(10) != 3] - n * p) < 3 * sigma)

    def test_m_too_large(self, rng):
        with pytest.raises(ConfigError):
            sample_negatives_ep(0, 4, 4, rng)


class TestEpmSampler:
    def test_concentrated_mass(self, rng):
        eps = 1e-3
        r = np.array([0.0, 1.0 - 2 * eps, eps, eps])
        hits = sum(
            int(sample_negatives_epm(0, r, 4, 1, rng).mask[1]) for _ in range(20_000)
        )
        assert hits / 20_000 == pytest.approx(1.0 - 2 * eps, abs=0.01)

    def test_full_complement_ignores_rates(self, rng):
        r = np.array([0.0, 0.9, 0.05, 0.05])
        nls = sample_negatives_epm(0, r, 4, 3, rng)
        assert np.array_equal(nls.mask, [0, 1, 1, 1])

    def test_frequencies_match_rates(self, rng):
        # Single draws against R = (0, .5, .3, .2): chi-square at p > 0.01.
        r = np.array([0.0, 0.5, 0.3, 0.2])
        n = 60_000
        counts = np.zeros(4)
        for _ in range(n):
            counts += sample_negatives_epm(0, r, 4, 1, rng).mask
        res = stats.chisquare(counts[1:], f_exp=n * r[1:])
        assert res.pvalue > 0.01

    def test_zero_mass_falls_back_uniform(self, rng):
        r = np.zeros(5)
        seen = np.zeros(5)
        for _ in range(200):
            nls = sample_negatives_epm(2, r, 5, 2, rng)
            assert nls.fallback
            assert nls.mask[2] == 0 and nls.mask.sum() == 2
            seen += nls.mask
        assert np.all(seen[np.arange(5) != 2] > 0)

    def test_uniform_rates_indistinguishable_from_ep(self, rng):
        # Two-sample chi-square between EP draws and EPM with uniform rates.
        k, n = 10, 40_000
        uniform = normalize_profile(np.zeros(k), 4)
        ep_counts = np.zeros(k)
        epm_counts = np.zeros(k)
        for _ in range(n):
            ep_counts += sample_negatives_ep(4, k, 1, rng).mask
            epm_counts += sample_negatives_epm(4, uniform, k, 1, rng).mask
        table = np.stack([ep_counts[np.arange(k) != 4], epm_counts[np.arange(k) != 4]])
        res = stats.chi2_contingency(table)
        assert res.pvalue > 0.01

    def test_invariants_fuzz(self, rng):
        for _ in range(1000):
            k = int(rng.integers(3, 30))
            m = int(rng.integers(1, k))
            pred = int(rng.integers(0, k))
            raw = rng.random(k) * rng.integers(0, 2, size=k)
            r = raw / raw.sum() if raw.sum() > 0 else raw
            nls = sample_negatives_epm(pred, r, k, m, rng)
            assert nls.mask.sum() == m
            assert nls.mask[pred] == 0


class TestProfile:
    def test_hand_accumulation_oracle(self):
        # Fresh profile, decay 0: class-2 samples misclassified into class 0
        # with confidences .7 and .6, into class 1 with .9.
        profile = MisclassProfile(5, ema_decay=0.0)
        update_misclass_profile(
            profile,
            true_labels=np.array([2, 2, 2, 3]),
            pred_indices=np.array([0, 0, 1, 3]),
            pred_confidences=np.array([0.7, 0.6, 0.9, 0.99]),
        )
        assert np.allclose(profile.pr[2], [1.3, 0.9, 0.0, 0.0, 0.0])
        assert np.allclose(profile.pr[3], 0.0)  # correct prediction ignored

    def test_no_mistakes_decays(self):
        profile = MisclassProfile(3, ema_decay=0.9)
        profile.pr[0, 1] = 1.0
        update_misclass_profile(
            profile, np.array([0, 1]), np.array([0, 1]), np.array([0.9, 0.8])
        )
        assert profile.pr[0, 1] == pytest.approx(0.9)

    def test_diagonal_stays_zero(self, rng):
        profile = MisclassProfile(6, ema_decay=0.5)
        for _ in range(10):
            true = rng.integers(0, 6, size=40)
            pred = rng.integers(0, 6, size=40)
            conf = rng.random(40)
            update_misclass_profile(profile, true, pred, conf)
            assert np.all(np.diag(profile.pr) == 0.0)

    def test_ema_blend(self):
        profile = MisclassProfile(3, ema_decay=0.9)
        update_misclass_profile(profile, np.array([0]), np.array([1]), np.array([1.0]))
        assert profile.pr[0, 1] == pytest.approx(0.1)
        update_misclass_profile(profile, np.array([0]), np.array([1]), np.array([1.0]))
        assert profile.pr[0, 1] == pytest.approx(0.19)

    def test_out_of_range_prediction(self):
        profile = MisclassProfile(3)
        with pytest.raises(DataError):
            update_misclass_profile(profile, np.array([0]), np.array([3]), np.array([1.0]))


class TestNormalizeProfile:
    def test_masked_softmax_oracle(self):
        # Independent evaluation of the masked softmax for row 2 of K=4.
        row = np.array([1.3, 0.9, 0.0, 0.0])
        r = normalize_profile(row, k=2)
        denom = math.exp(1.3) + math.exp(0.9) + math.exp(0.0)
        assert r[2] == 0.0
        assert r[0] == pytest.approx(math.exp(1.3) / denom, rel=1e-12)
        assert r[1] == pytest.approx(math.exp(0.9) / denom, rel=1e-12)
        assert r[3] == pytest.approx(1.0 / denom, rel=1e-12)
        assert r[0] == pytest.approx(0.5148, abs=5e-4)
        assert r[1] == pytest.approx(0.3451, abs=5e-4)
        assert r[3] == pytest.approx(0.1403, abs=5e-4)

    def test_all_zero_row_uniform(self):
        r = normalize_profile(np.zeros(5), k=1)
        assert r[1] == 0.0
        assert np.allclose(r[np.arange(5) != 1], 0.25)

    def test_shift_invariance(self, rng):
        row = rng.random(6) * 3
        row[3] = 0.0
        a = normalize_profile(row, 3)
        shifted = row + 7.5
        shifted[3] = 0.0
        # Only the off-diagonal entries matter; add the constant there.
        shifted2 = row.copy() + 7.5
        b = normalize_profile(shifted2, 3)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_rows_are_distributions(self, rng):
        profile = MisclassProfile(7, ema_decay=0.0)
        update_misclass_profile(
            profile,
            rng.integers(0, 7, size=100),
            rng.integers(0, 7, size=100),
            rng.random(100),
        )
        rates = profile.rates()
        assert np.allclose(rates.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.diag(rates) == 0.0)
        assert np.all(rates >= 0.0)


class TestBatchSampler:
    def test_masks_and_preds(self, rng):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
        masks, preds, fallbacks = sample_negative_batch(probs, 1, rng)
        assert preds.tolist() == [0, 2]
        assert masks.shape == (2, 3)
        assert masks[0, 0] == 0 and masks[1, 2] == 0
        assert masks.sum() == 2
        assert fallbacks == 0

    def test_epm_path_counts_fallbacks(self, rng):
        probs = np.array([[0.9, 0.05, 0.05]])
        rates = np.zeros((3, 3))
        _, _, fallbacks = sample_negative_batch(probs, 1, rng, rates)
        assert fallbacks == 1


def _golden_inputs():
    gen = np.random.default_rng(2024)
    probs = gen.random((50, 10))
    pr = gen.random((10, 10)) * 6.0
    rates = np.stack([normalize_profile(pr[k], k) for k in range(10)])
    return probs, rates


def _digest(masks, preds):
    return hashlib.sha256(masks.tobytes() + preds.tobytes()).hexdigest()


def _exact_subset_probs(r_row, m):
    """P(set) of sequential draw-and-renormalise, summed over draw orders."""
    candidates = np.flatnonzero(r_row > 0)
    total = r_row.sum()
    probs = {}
    for subset in itertools.combinations(candidates, m):
        p = 0.0
        for order in itertools.permutations(subset):
            left, q = total, 1.0
            for c in order:
                q *= r_row[c] / left
                left -= r_row[c]
            p += q
        probs[subset] = p
    return probs


def _choice_reference(probs, m, rng, rates):
    """Row loop over ``Generator.choice``: the sampler's draws without fallback."""
    k = probs.shape[1]
    masks = np.zeros(probs.shape)
    for b, pred in enumerate(np.argmax(probs, axis=1)):
        if rates is None:
            masks[b, rng.choice(np.delete(np.arange(k), pred), size=m, replace=False)] = 1.0
            continue
        weights = rates[pred].copy()
        weights[pred] = 0.0
        for _ in range(m):
            idx = rng.choice(k, p=weights / weights.sum())
            masks[b, idx] = 1.0
            weights[idx] = 0.0
    return masks


class TestBatchSamplerPinned:
    """The batch sampler's masks and RNG consumption, pinned bit for bit."""

    # K=10, m=3, B=50 against sharp rates (row maxima 0.24-0.64), seed 31.
    GOLDEN = {
        "EPM": (
            "f494f87bd5ff9904cc7baba886447f2863867b69b6253cc9fdb55e1c9be7ffe3",
            {"state": 239159585474808836303822614364012207704, "has_uint32": 0, "uinteger": 0},
        ),
        "EP": (
            "3e78871bb1dff87b27a2d64d0c7c7bf057e6e8cb2614c705301467b6c1181108",
            {"state": 127897509167912202604121535178466097251, "has_uint32": 0, "uinteger": 1869533961},
        ),
    }

    @pytest.mark.parametrize("mode", ["EP", "EPM"])
    def test_golden_batch(self, mode):
        probs, rates = _golden_inputs()
        rng = np.random.default_rng(31)
        masks, preds, fallbacks = sample_negative_batch(
            probs, 3, rng, rates if mode == "EPM" else None
        )
        digest, state = self.GOLDEN[mode]
        assert masks.dtype == np.float64 and preds.dtype == np.int64
        assert _digest(masks, preds) == digest
        assert fallbacks == 0
        final = rng.bit_generator.state
        assert final["state"]["state"] == state["state"]
        assert final["state"]["inc"] == 107090353359002252723118071224206516545
        assert (final["has_uint32"], final["uinteger"]) == (state["has_uint32"], state["uinteger"])

    @pytest.mark.parametrize("mode", ["EP", "EPM"])
    def test_batch_equals_scalar_calls(self, mode):
        probs, rates = _golden_inputs()
        rates[[0, 5]] = 0.0  # rows that exhaust their mass fall back
        batch_rng, row_rng = np.random.default_rng(8), np.random.default_rng(8)
        masks, preds, fallbacks = sample_negative_batch(
            probs, 3, batch_rng, rates if mode == "EPM" else None
        )
        row_fallbacks = 0
        for b, row in enumerate(probs):
            pred = pseudo_label(row)
            if mode == "EP":
                nls = sample_negatives_ep(pred, 10, 3, row_rng)
            else:
                nls = sample_negatives_epm(pred, rates[pred], 10, 3, row_rng)
            row_fallbacks += int(nls.fallback)
            assert preds[b] == pred
            assert np.array_equal(masks[b], nls.mask)
        assert fallbacks == row_fallbacks
        assert batch_rng.bit_generator.state == row_rng.bit_generator.state

    @pytest.mark.parametrize("mode", ["EP", "EPM"])
    def test_batch_matches_choice_reference_fuzz(self, mode):
        gen = np.random.default_rng(606)
        for _ in range(150):
            k = int(gen.integers(2, 60))
            m = int(gen.integers(1, k))
            probs = np.round(gen.random((int(gen.integers(1, 40)), k)), 1)  # ties too
            rates = None
            if mode == "EPM":
                pr = gen.random((k, k)) * gen.choice([1.0, 20.0])
                rates = np.stack([normalize_profile(pr[c], c) for c in range(k)])
            seed = int(gen.integers(0, 2**32))
            batch_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            masks, _, fallbacks = sample_negative_batch(probs, m, batch_rng, rates)
            assert fallbacks == 0
            assert np.array_equal(masks, _choice_reference(probs, m, ref_rng, rates))
            assert batch_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("k, m, pred, row", [
        (5, 2, 0, [0.0, 0.4, 0.3, 0.2, 0.1]),
        (6, 3, 2, [0.35, 0.25, 0.0, 0.2, 0.12, 0.08]),
    ])
    def test_exact_small_k_subset_frequencies(self, k, m, pred, row):
        # Every m-subset against the exact sequential-draw probabilities.
        row = np.array(row)
        exact = _exact_subset_probs(row, m)
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
        n = 20_000
        probs = np.tile(np.eye(k)[pred], (n, 1))
        rates = np.tile(row, (k, 1))
        masks, preds, fallbacks = sample_negative_batch(
            probs, m, np.random.default_rng(97), rates
        )
        assert np.all(preds == pred) and fallbacks == 0
        codes = masks.astype(np.int64) @ (1 << np.arange(k))
        subsets = list(exact)
        counts = [np.count_nonzero(codes == sum(1 << c for c in s)) for s in subsets]
        assert sum(counts) == n
        res = stats.chisquare(counts, f_exp=[n * exact[s] for s in subsets])
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_negative_or_nan_rates_rejected(self, rng, bad):
        r = np.array([0.0, 0.5, 0.5, 0.0])
        r[3] = bad
        with pytest.raises(ValueError):
            sample_negatives_epm(0, r, 4, 2, rng)
        with pytest.raises(ValueError):
            sample_negative_batch(np.eye(4)[[0, 1]], 2, rng, np.tile(r, (4, 1)))

    def test_fallback_rows_mixed_with_normal_rows(self):
        k, m = 6, 3
        rates = np.stack([normalize_profile(np.arange(k, dtype=float), c) for c in range(k)])
        rates[0] = 0.0  # no mass at all
        rates[1] = np.eye(k)[4]  # one candidate, then exhausted
        probs = np.eye(k)[np.arange(40) % k] + 0.01
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masks, preds, fallbacks = sample_negative_batch(
                probs, m, np.random.default_rng(5), rates
            )
        assert np.array_equal(preds, np.arange(40) % k)
        assert fallbacks == np.count_nonzero(preds <= 1)
        assert np.all(masks.sum(axis=1) == m)
        assert np.all(masks[np.arange(40), preds] == 0)
        assert np.all(masks[preds == 1, 4] == 1)
