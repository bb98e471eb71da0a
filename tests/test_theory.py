"""Closed forms vs exhaustive enumeration and Monte Carlo simulation."""

import itertools
import math

import pytest

from dnll.errors import ConfigError
from dnll.theory import (
    TransferModel,
    coupling_probability,
    coupling_probability_stirling,
    run_grid,
    simulate_coupling,
    simulate_transfer_error,
    transfer_error_rate,
)


def enumerate_transfer_error(q: float, k: int, m: int) -> float:
    """Exact expected error of the transfer story by full enumeration."""
    total = 0.0
    for true in range(k):
        for pred in range(k):
            if pred == true:
                p_pred = q
            else:
                p_pred = (1.0 - q) / (k - 1)
            candidates = [c for c in range(k) if c != pred]
            subsets = list(itertools.combinations(candidates, m))
            err = sum(1.0 for s in subsets if true in s) / len(subsets)
            total += (1.0 / k) * p_pred * err
    return total


def enumerate_coupling(q: float, k: int, m: int) -> float:
    """Exact coupling probability of the shared-pool story by enumeration."""

    def same_set_prob(pool_size: int) -> float:
        subsets = list(itertools.combinations(range(pool_size), m))
        return sum((1.0 / len(subsets)) ** 2 for _ in subsets)

    return q * same_set_prob(k - 1) + (1.0 - q) * same_set_prob(k - 2)


class TestTransferClosedForm:
    def test_perfect_predictor(self):
        assert transfer_error_rate(1.0, 10, 3) == 0.0

    def test_full_complement_equals_pseudo_label_error(self):
        for q in (0.0, 0.25, 0.7):
            assert transfer_error_rate(q, 8, 7) == pytest.approx(1.0 - q)

    def test_reference_value(self):
        assert transfer_error_rate(0.9, 10, 1) == pytest.approx(0.1 / 9)

    def test_matches_enumeration(self):
        for q, k, m in [(0.3, 4, 1), (0.5, 5, 2), (0.0, 3, 2), (0.8, 6, 3)]:
            assert transfer_error_rate(q, k, m) == pytest.approx(
                enumerate_transfer_error(q, k, m), rel=1e-12
            )

    def test_range_violations(self):
        with pytest.raises(ConfigError):
            transfer_error_rate(1.5, 10, 1)
        with pytest.raises(ConfigError):
            transfer_error_rate(0.5, 10, 10)


class TestCouplingClosedForm:
    def test_first_term_only(self):
        assert coupling_probability(1.0, 10, 1) == pytest.approx(1.0 / 9)

    def test_reference_value(self):
        assert coupling_probability(0.5, 10, 2) == pytest.approx(0.5 / 36 + 0.5 / 28)

    def test_matches_enumeration(self):
        for q, k, m in [(0.3, 5, 1), (0.5, 6, 2), (1.0, 4, 1), (0.0, 5, 3)]:
            assert coupling_probability(q, k, m) == pytest.approx(
                enumerate_coupling(q, k, m), rel=1e-12
            )

    def test_decoupling_complement(self):
        q, k, m = 0.4, 12, 2
        assert 1.0 - coupling_probability(q, k, m) == pytest.approx(
            1.0 - (q / math.comb(11, 2) + (1 - q) / math.comb(10, 2))
        )

    def test_m_too_large(self):
        with pytest.raises(ConfigError):
            coupling_probability(0.5, 10, 9)


class TestStirling:
    def test_reference_value(self):
        # Independent expression: sqrt(2*pi*m) * (m / (e*K))**m at m=1, K=100.
        expected = math.sqrt(2 * math.pi) / (math.e * 100)
        assert coupling_probability_stirling(100, 1) == pytest.approx(expected, rel=1e-12)

    def test_relative_error_decreases_with_k(self):
        errs = []
        for k in (20, 50, 100, 500):
            exact = coupling_probability(0.5, k, 1)
            approx = coupling_probability_stirling(k, 1)
            errs.append(abs(approx - exact) / exact)
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_improves_from_100_to_1000(self):
        def rel(k):
            return abs(coupling_probability_stirling(k, 1) - coupling_probability(0.5, k, 1)) / coupling_probability(0.5, k, 1)

        assert rel(1000) < rel(100)

    def test_vanishes_in_k(self):
        vals = [coupling_probability_stirling(k, 2) for k in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2] > 0.0


class TestTransferSimulation:
    def test_perfect_predictor_exactly_zero(self):
        res = simulate_transfer_error(TransferModel(1.0, 10, 2, trials=50_000, seed=1))
        assert res.estimate == 0.0
        assert res.z_score == 0.0

    def test_small_case_within_three_se(self):
        res = simulate_transfer_error(TransferModel(0.0, 3, 1, trials=400_000, seed=2))
        assert res.closed_form == pytest.approx(0.5)
        assert abs(res.estimate - 0.5) < 3 * res.standard_error

    def test_reference_cell(self):
        res = simulate_transfer_error(TransferModel(0.9, 10, 1, trials=400_000, seed=3))
        assert abs(res.estimate - 0.1 / 9) <= 3 * res.standard_error + 1e-12

    def test_certain_error_cell(self):
        # q=0, K=3, m=2: the two negatives always include the truth.
        res = simulate_transfer_error(TransferModel(0.0, 3, 2, trials=50_000, seed=4))
        assert res.estimate == 1.0 and res.closed_form == 1.0

    def test_worker_count_invariance(self):
        model = TransferModel(0.5, 10, 2, trials=450_000, seed=9)
        assert simulate_transfer_error(model).estimate == simulate_transfer_error(model, workers=3).estimate


class TestCouplingSimulation:
    def test_enumerable_case(self):
        res = simulate_coupling(TransferModel(1.0, 3, 1, trials=400_000, seed=5))
        assert res.closed_form == pytest.approx(0.5)
        assert abs(res.estimate - 0.5) < 3 * res.standard_error

    def test_reference_cell(self):
        res = simulate_coupling(TransferModel(0.5, 10, 2, trials=400_000, seed=6))
        assert abs(res.estimate - res.closed_form) <= 4 * res.standard_error

    def test_rare_cell_without_events_passes_gate(self):
        # K=100, m=3 expects about 6.6 coupled rounds in 10^6 and this seed
        # sees none. Measured in the closed form's own SE that is z = -2.56;
        # an SE estimated from the zero count would be 0 and z infinite.
        res = simulate_coupling(TransferModel(0.0, 100, 3, trials=1_000_000, seed=50))
        assert res.estimate == 0.0
        p0 = res.closed_form
        assert res.standard_error == math.sqrt(p0 * (1 - p0) / res.trials)
        assert abs(res.z_score) <= 4.0

    def test_decreases_in_k(self):
        estimates = [
            simulate_coupling(TransferModel(0.5, k, 1, trials=200_000, seed=7)).estimate
            for k in (4, 8, 16)
        ]
        assert estimates[0] > estimates[1] > estimates[2]

    def test_independent_pools_matches_its_own_enumeration(self):
        # The stricter different-label story (each submodel keeps its own
        # K-1 candidates) has exact coupling probability
        #   q / C(K-1, m) + (1-q) * C(K-2, m) / C(K-1, m)^2,
        # which is below the shared-pool closed form.
        q, k, m = 0.5, 10, 1
        own = q / math.comb(k - 1, m) + (1 - q) * math.comb(k - 2, m) / math.comb(k - 1, m) ** 2
        res = simulate_coupling(TransferModel(q, k, m, trials=600_000, seed=8), shared_pool=False)
        assert abs(res.estimate - own) <= 4 * math.sqrt(own * (1 - own) / res.trials)
        assert own < res.closed_form
        assert res.z_score < -4.0  # the gap is visible, not hidden

    def test_m_too_large(self):
        with pytest.raises(ConfigError):
            simulate_coupling(TransferModel(0.5, 4, 3, trials=50_000))


class TestLabStreamsPinned:
    """Exact estimates at fixed seeds: the lab's draws, pinned bit for bit.

    Coupled or contradicting rounds out of 200,000 trials (one shard).
    """

    TRIALS = 200_000

    @pytest.mark.parametrize("q, k, m, seed, count", [
        (0.3, 3, 1, 11, 70360),
        (0.5, 10, 2, 12, 22342),
        (0.0, 100, 3, 13, 6058),
        (0.9, 10, 3, 14, 6596),
        (0.2, 100, 1, 15, 1613),
    ])
    def test_transfer_error(self, q, k, m, seed, count):
        res = simulate_transfer_error(TransferModel(q, k, m, trials=self.TRIALS, seed=seed))
        assert res.estimate == count / self.TRIALS

    @pytest.mark.parametrize("shared_pool, q, k, m, seed, count", [
        (True, 0.5, 3, 1, 21, 150040),
        (True, 0.3, 10, 2, 22, 6669),
        (True, 0.1, 10, 3, 23, 3404),
        (True, 0.0, 100, 1, 24, 2028),
        (True, 0.6, 100, 2, 25, 48),
        (False, 0.5, 3, 1, 21, 75222),
        (False, 0.3, 10, 2, 22, 4638),
        (False, 0.1, 10, 3, 23, 1670),
        (False, 0.0, 100, 1, 24, 1987),
        (False, 0.6, 100, 2, 25, 46),
    ])
    def test_coupling(self, shared_pool, q, k, m, seed, count):
        model = TransferModel(q, k, m, trials=self.TRIALS, seed=seed)
        res = simulate_coupling(model, shared_pool=shared_pool)
        assert res.estimate == count / self.TRIALS


class TestGridAndModel:
    def test_model_validation(self):
        with pytest.raises(ConfigError):
            TransferModel(0.5, 2, 1)
        with pytest.raises(ConfigError):
            TransferModel(0.5, 10, 0)
        with pytest.raises(ConfigError):
            TransferModel(0.5, 10, 1, trials=100)

    def test_grid_skips_inadmissible_cells(self):
        rows = run_grid(2, trials=10_000, ks=(3,), ms=(1, 2, 3), qs=(0.5,))
        assert [r["m"] for r in rows] == [1]

    def test_grid_row_fields(self):
        rows = run_grid(1, trials=10_000, ks=(4,), ms=(1,), qs=(0.5,))
        assert set(rows[0]) == {
            "q", "K", "m", "trials", "closed_form", "estimate", "standard_error", "z_score",
        }
