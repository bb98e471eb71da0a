"""Closed forms and Monte Carlo checks for the two label-transfer guarantees.

Result 1 (transfer error): a generator with prediction accuracy q that
hands m uniformly chosen negatives out of K-1 candidates contradicts the
ground truth with probability (1-q) * m / (K-1): the plain pseudo-label
error rate scaled down by m/(K-1).

Result 2 (coupling): the probability that two submodels hand each other the
*same* m-set of negatives in one round is q/C(K-1,m) + (1-q)/C(K-2,m),
where q is the probability they predict alike. Its large-K limit is
sqrt(2*pi*m) * (m/(e*K))**m.

The simulators draw the generative stories directly (never the closed
forms) so agreement between the two is evidence, not tautology. They take
every negative draw from ``negative_labels``, the sampler training uses,
so the checks cover the trainer's EP draw. Trials run in fixed-size
shards with per-shard child seeds and are aggregated by exact summation,
so estimates do not depend on how shards are scheduled.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .negative_labels import draw_negatives, uniform_subsets

SHARD = 200_000


@dataclass
class TransferModel:
    """Parameters of one simulation: accuracy q, K classes, m negatives."""

    q: float
    n_classes: int
    m: int
    trials: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ConfigError(f"q must be in [0, 1], got {self.q}")
        if self.n_classes < 3:
            raise ConfigError(f"need at least 3 classes, got {self.n_classes}")
        if not 1 <= self.m <= self.n_classes - 1:
            raise ConfigError(
                f"m must be in [1, K-1], got m={self.m}, K={self.n_classes}"
            )
        if self.trials < 10_000:
            raise ConfigError(f"trials must be >= 10000, got {self.trials}")


@dataclass
class SimResult:
    estimate: float
    standard_error: float
    trials: int
    closed_form: float

    @property
    def z_score(self) -> float:
        diff = self.estimate - self.closed_form
        if self.standard_error == 0.0:
            return 0.0 if diff == 0.0 else math.inf
        return diff / self.standard_error


def transfer_error_rate(q: float, n_classes: int, m: int) -> float:
    """Probability that a transferred negative set contradicts the truth."""
    TransferModel(q, n_classes, m)
    return (1.0 - q) * m / (n_classes - 1)


def coupling_probability(q: float, n_classes: int, m: int) -> float:
    """Probability both submodels transfer the identical negative set."""
    TransferModel(q, n_classes, m)
    if m > n_classes - 2:
        raise ConfigError(
            f"coupling probability needs m <= K-2, got m={m}, K={n_classes}"
        )
    return q / math.comb(n_classes - 1, m) + (1.0 - q) / math.comb(n_classes - 2, m)


def coupling_probability_stirling(n_classes: int, m: int) -> float:
    """Large-K limit of the coupling probability: sqrt(2*pi*m)*(m/(e*K))**m.

    Stirling on m! inside m! * (K-2-m)! * (K-1-q*m) / (K-1)! with the
    remaining factorial ratio collapsing to K**-(m+1) and the (K-1-q*m)
    factor to K; the limit is independent of q.
    """
    if not 1 <= m < n_classes:
        raise ConfigError(f"need 1 <= m < K, got m={m}, K={n_classes}")
    return math.sqrt(2.0 * math.pi * m) * (m / (math.e * n_classes)) ** m


def _shard_seeds(seed: int, trials: int) -> list[tuple[np.random.SeedSequence, int]]:
    shards = []
    root = np.random.SeedSequence(seed)
    children = root.spawn(math.ceil(trials / SHARD))
    remaining = trials
    for child in children:
        shards.append((child, min(SHARD, remaining)))
        remaining -= SHARD
    return shards


def _run_shards(shard_fn, seed: int, trials: int, workers: int) -> int:
    """Sum shard counts. Shard layout is independent of the worker count,
    and integer summation is exact, so parallelism never changes results."""
    shards = _shard_seeds(seed, trials)
    if workers <= 1:
        return sum(shard_fn(child, n) for child, n in shards)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(lambda s: shard_fn(*s), shards))


def simulate_transfer_error(model: TransferModel, workers: int = 1) -> SimResult:
    """Draw the transfer story directly and count contradictions.

    Per trial: a uniform true class; the generator predicts it correctly
    with probability q, otherwise a uniform other class; m distinct
    negatives are drawn uniformly from the K-1 non-predicted classes; the
    trial errs iff the true class landed among them.
    """
    k, m = model.n_classes, model.m

    def shard(child, n) -> int:
        rng = np.random.Generator(np.random.PCG64(child))
        true = rng.integers(0, k, size=n)
        correct = rng.random(n) < model.q
        offset = rng.integers(1, k, size=n)
        pred = np.where(correct, true, (true + offset) % k)
        wrong = ~correct
        n_wrong = int(wrong.sum())
        if not n_wrong:
            return 0
        negs, _ = draw_negatives(pred[wrong], k, m, rng)
        return int((negs == true[wrong][:, None]).any(axis=1).sum())

    errors = _run_shards(shard, model.seed, model.trials, workers)
    return _result(errors, model, transfer_error_rate(model.q, k, m))


def simulate_coupling(model: TransferModel, shared_pool: bool = True, workers: int = 1) -> SimResult:
    """Draw the coupling story directly and count identical negative sets.

    With probability q the submodels share a pseudo label and each draws an
    independent uniform m-subset of the same K-1 candidates. With
    probability 1-q their pseudo labels differ; the closed form's
    combinatorial model has both then drawing from the common pool of the
    K-2 classes excluding both labels (``shared_pool=True``, the default).

    ``shared_pool=False`` instead lets each submodel draw from its own K-1
    candidates in the different-label case, a stricter reading under which
    the sets coincide less often than the closed form predicts. The
    returned z-score quantifies that gap rather than hiding it; see the
    companion test for its own exact value.
    """
    k, m = model.n_classes, model.m
    if m > k - 2:
        raise ConfigError(f"coupling simulation needs m <= K-2, got m={m}, K={k}")

    def shard(child, n) -> int:
        rng = np.random.Generator(np.random.PCG64(child))
        same = rng.random(n) < model.q
        n_same = int(same.sum())
        n_diff = n - n_same
        coupled = 0
        if n_same:
            a = np.sort(uniform_subsets(rng, k - 1, m, n_same), axis=1)
            b = np.sort(uniform_subsets(rng, k - 1, m, n_same), axis=1)
            coupled += int((a == b).all(axis=1).sum())
        if n_diff:
            if shared_pool:
                a = np.sort(uniform_subsets(rng, k - 2, m, n_diff), axis=1)
                b = np.sort(uniform_subsets(rng, k - 2, m, n_diff), axis=1)
                coupled += int((a == b).all(axis=1).sum())
            else:
                pred1 = rng.integers(0, k, size=n_diff)
                pred2 = (pred1 + rng.integers(1, k, size=n_diff)) % k
                a = np.sort(draw_negatives(pred1, k, m, rng)[0], axis=1)
                b = np.sort(draw_negatives(pred2, k, m, rng)[0], axis=1)
                coupled += int((a == b).all(axis=1).sum())
        return coupled

    count = _run_shards(shard, model.seed, model.trials, workers)
    return _result(count, model, coupling_probability(model.q, k, m))


def _result(count: int, model: TransferModel, closed_form: float) -> SimResult:
    """Binomial SE under the closed form p0, sqrt(p0 (1 - p0) / n).

    The plug-in SE from the estimate collapses to zero or near it when a
    rare cell sees 0 or 1 events, which would blow up z by chance alone.
    """
    n = model.trials
    se = math.sqrt(closed_form * (1.0 - closed_form) / n)
    return SimResult(estimate=count / n, standard_error=se, trials=n, closed_form=closed_form)


def simulate_row(
    theorem: int, q: float, k: int, m: int, trials: int, seed: int, workers: int = 1
) -> dict:
    """Simulate one (q, K, m) cell of a theorem; the row matches the CSV contract."""
    model = TransferModel(q, k, m, trials=trials, seed=seed)
    simulate = simulate_transfer_error if theorem == 1 else simulate_coupling
    res = simulate(model, workers=workers)
    return {
        "q": q,
        "K": k,
        "m": m,
        "trials": trials,
        "closed_form": res.closed_form,
        "estimate": res.estimate,
        "standard_error": res.standard_error,
        "z_score": res.z_score,
    }


DEFAULT_GRID_Q = (0.0, 0.3, 0.5, 0.9, 1.0)
DEFAULT_GRID_K = (3, 10, 100)
DEFAULT_GRID_M = (1, 2, 3)


def run_grid(
    theorem: int,
    trials: int = 1_000_000,
    seed: int = 0,
    qs=DEFAULT_GRID_Q,
    ks=DEFAULT_GRID_K,
    ms=DEFAULT_GRID_M,
    workers: int = 1,
) -> list[dict]:
    """Simulate every admissible (q, K, m) cell; rows match the CSV contract."""
    if theorem not in (1, 2):
        raise ConfigError(f"theorem must be 1 or 2, got {theorem}")
    rows = []
    for k in ks:
        for m in ms:
            limit = k - 1 if theorem == 1 else k - 2
            if m > limit:
                continue
            rows += [simulate_row(theorem, q, k, m, trials, seed, workers) for q in qs]
    return rows
