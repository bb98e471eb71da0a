"""Pseudo-negative label generation.

A submodel's argmax prediction on a weak view becomes the pseudo label; the
candidate negatives are every other category. ``m`` of them are drawn either
uniformly (equal probability, EP) or in proportion to the receiving
submodel's misclassification rates (error-perception mechanism, EPM), which
concentrate the negatives on categories the receiver tends to confuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

# Candidate mass below this is treated as exhausted and triggers the
# uniform fallback draw.
_MASS_FLOOR = 1e-300


@dataclass
class NegativeLabelSet:
    """An m-hot 0/1 vector over the categories, zero at the pseudo label."""

    mask: np.ndarray
    pseudo_label: int
    fallback: bool = False

    @property
    def m(self) -> int:
        return int(self.mask.sum())


@dataclass
class MisclassProfile:
    """Per-category confusion mass of one submodel, smoothed with an EMA.

    ``pr[k, i]`` accumulates the confidence of class-k samples wrongly
    predicted as class i (diagonal fixed at zero). ``rates()`` turns each
    row into a selection distribution via a softmax over the off-diagonal
    entries only, so the class itself can never be drawn as its own
    negative.
    """

    n_classes: int
    ema_decay: float = 0.9
    pr: np.ndarray = field(default=None)

    def __post_init__(self):
        if not 0.0 <= self.ema_decay < 1.0:
            raise ConfigError(f"ema_decay must be in [0, 1), got {self.ema_decay}")
        if self.pr is None:
            self.pr = np.zeros((self.n_classes, self.n_classes))
        self.pr = np.asarray(self.pr, dtype=np.float64)
        if self.pr.shape != (self.n_classes, self.n_classes):
            raise ConfigError(
                f"pr must be ({self.n_classes}, {self.n_classes}), got {self.pr.shape}"
            )

    def rates(self) -> np.ndarray:
        """Row-stochastic rate matrix R with hard zeros on the diagonal."""
        return np.stack(
            [normalize_profile(self.pr[k], k) for k in range(self.n_classes)]
        )


def pseudo_label(probs_row: np.ndarray) -> int:
    """Argmax of a distribution, ties broken toward the lowest index."""
    return int(np.argmax(probs_row))


def candidate_count(n_classes: int, m: int) -> int:
    """Number of distinct m-sets of negatives: C(K-1, m)."""
    _check_m(n_classes, m)
    return math.comb(n_classes - 1, m)


def _check_m(n_classes: int, m: int) -> None:
    if not 1 <= m <= n_classes - 1:
        raise ConfigError(
            f"m must satisfy 1 <= m <= K-1, got m={m} with K={n_classes}"
        )


def uniform_subsets(rng: np.random.Generator, n_range: int, m: int, size: int) -> np.ndarray:
    """(size, m) rows of m distinct uniform integers from [0, n_range).

    Draw j takes one ``integers(0, n_range - j)`` for every row: an index
    among the values that draws 0..j-1 left free. Stepping every later draw
    past draw k, for k from the last draw down to the first, maps them into
    [0, n_range). Each row is a uniform random m-subset.
    """
    picks = np.empty((m, size), dtype=np.int64)
    for j in range(m):
        picks[j] = rng.integers(0, n_range - j, size=size)
    for k in range(m - 2, -1, -1):
        picks[k + 1 :] += picks[k + 1 :] >= picks[k]
    return picks.T


def draw_negatives(preds: np.ndarray, n_classes: int, m: int, rng: np.random.Generator, weights=None):
    """Negative picks (B x m) and per-row fallback flags: the one sampler.

    EP (``weights`` None) maps a uniform m-subset of the K-1 candidates past
    each pseudo label. EPM (``weights`` B x K, changed in place) inverts
    ``u[:, j]`` through each row's renormalised CDF as
    ``Generator.choice(K, p=...)`` does; exhausted rows go uniform over the rest.
    """
    _check_m(n_classes, m)
    fallback = np.zeros(len(preds), dtype=bool)
    if weights is None:
        picks = uniform_subsets(rng, n_classes - 1, m, len(preds))
        picks += picks >= preds[:, None]
        return picks, fallback
    if not ((weights >= 0.0) & np.isfinite(weights)).all():
        raise ConfigError("EPM rates must be finite non-negative numbers")
    rows = np.arange(len(preds))
    picks = np.empty((len(preds), m), dtype=np.int64)
    weights[rows, preds] = 0.0
    u = rng.random((len(preds), m, 1))
    for j in range(m):
        empty = weights.sum(axis=1) <= _MASS_FLOOR
        if empty.any():
            fallback |= empty
            weights[empty] = 1.0
            weights[rows[empty, None], np.c_[preds, picks[:, :j]][empty]] = 0.0
        cdf = (weights / weights.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        picks[:, j] = (cdf <= u[:, j]).sum(axis=1)
        weights[rows, picks[:, j]] = 0.0
    return picks, fallback


def _masks(picks: np.ndarray, n_classes: int, dtype=np.float64) -> np.ndarray:
    masks = np.zeros((len(picks), n_classes), dtype=dtype)
    masks[np.arange(len(picks))[:, None], picks] = 1
    return masks


def sample_negatives_ep(pred: int, n_classes: int, m: int, rng: np.random.Generator) -> NegativeLabelSet:
    """Uniform m-subset of the K-1 categories other than ``pred``."""
    picks, _ = draw_negatives(np.array([pred]), n_classes, m, rng)
    return NegativeLabelSet(_masks(picks, n_classes, np.int8)[0], int(pred))


def sample_negatives_epm(
    pred: int, r_row: np.ndarray, n_classes: int, m: int, rng: np.random.Generator
) -> NegativeLabelSet:
    """Weighted m-subset, sequential draw-and-renormalise over ``r_row``.

    ``r_row`` is the receiving submodel's rate row for the pseudo label. If
    the candidate mass runs out mid-draw, the rest of the set is drawn
    uniformly and the result is flagged.
    """
    r_row = np.asarray(r_row, dtype=np.float64)
    if r_row.shape != (n_classes,):
        raise ConfigError(f"r_row must have shape ({n_classes},), got {r_row.shape}")
    picks, fallback = draw_negatives(np.array([pred]), n_classes, m, rng, r_row[None, :].copy())
    return NegativeLabelSet(_masks(picks, n_classes, np.int8)[0], int(pred), bool(fallback[0]))


def sample_negative_batch(
    probs: np.ndarray, m: int, rng: np.random.Generator, rates: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """(masks B x K, pseudo labels B, fallback count) for weak-view probabilities.

    EP when ``rates`` is None, otherwise EPM against the receiver's rate
    matrix. EPM masks and RNG stream equal those of row-by-row scalar calls;
    an EP batch draws its rows column by column, so only a 1-row batch
    equals a scalar call.
    """
    probs = np.asarray(probs, dtype=np.float64)
    preds = np.argmax(probs, axis=1)
    weights = None if rates is None else np.asarray(rates, dtype=np.float64)[preds]
    picks, fallback = draw_negatives(preds, probs.shape[1], m, rng, weights)
    return _masks(picks, probs.shape[1]), preds, int(fallback.sum())


def update_misclass_profile(
    profile: MisclassProfile,
    true_labels: np.ndarray,
    pred_indices: np.ndarray,
    pred_confidences: np.ndarray,
) -> MisclassProfile:
    """Fold one round of labeled-data mistakes into the profile.

    Misclassified samples (true k, predicted i != k) add their predicted-
    class confidence to the batch accumulator A[k, i]; the profile then
    moves as pr <- decay * pr + (1 - decay) * A. Correct predictions
    contribute nothing, so a mistake-free round decays pr toward zero.
    """
    true_labels = np.asarray(true_labels, dtype=np.int64)
    pred_indices = np.asarray(pred_indices, dtype=np.int64)
    pred_confidences = np.asarray(pred_confidences, dtype=np.float64)
    k = profile.n_classes
    if pred_indices.size and (pred_indices.min() < 0 or pred_indices.max() >= k):
        raise DataError(f"prediction index outside [0, {k})")
    if true_labels.size and (true_labels.min() < 0 or true_labels.max() >= k):
        raise DataError(f"true label outside [0, {k})")
    acc = np.zeros((k, k))
    wrong = pred_indices != true_labels
    np.add.at(acc, (true_labels[wrong], pred_indices[wrong]), pred_confidences[wrong])
    profile.pr = profile.ema_decay * profile.pr + (1.0 - profile.ema_decay) * acc
    np.fill_diagonal(profile.pr, 0.0)
    return profile


def normalize_profile(pr_row: np.ndarray, k: int) -> np.ndarray:
    """Softmax of one profile row over the off-diagonal entries only.

    Index ``k`` is masked out of the softmax entirely (a softmax over the
    full row would hand the pseudo label itself nonzero selection mass) and
    is returned as a hard zero. An all-zero row yields the uniform
    distribution over the K-1 candidates.
    """
    pr_row = np.asarray(pr_row, dtype=np.float64)
    n = pr_row.shape[0]
    others = np.arange(n) != k
    vals = pr_row[others]
    e = np.exp(vals - vals.max())
    out = np.zeros(n)
    out[others] = e / e.sum()
    return out
