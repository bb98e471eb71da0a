"""Dense feed-forward classifier with hand-written reverse-mode gradients.

Everything is float64 numpy. A model is a plain container of per-layer
weight/bias arrays plus matching momentum buffers; the forward/backward
functions are pure and reentrant, so two models can be driven from one
thread (or disjoint threads) without locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class Architecture:
    """Layer widths and activation of the classifier.

    ``hidden`` must contain at least one layer; ``n_classes`` is the
    output width.
    """

    input_dim: int
    hidden: tuple[int, ...]
    n_classes: int
    activation: str = "relu"

    def __post_init__(self):
        widths = (self.input_dim, *self.hidden, self.n_classes)
        if len(self.hidden) < 1:
            raise ConfigError("architecture needs at least one hidden layer")
        for w in widths:
            if int(w) <= 0:
                raise ConfigError(f"zero-width layer in architecture {widths}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(
                f"unknown activation {self.activation!r}; expected one of {_ACTIVATIONS}"
            )

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.n_classes)

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden": list(self.hidden),
            "n_classes": self.n_classes,
            "activation": self.activation,
        }

    @staticmethod
    def from_dict(d: dict) -> "Architecture":
        return Architecture(
            input_dim=int(d["input_dim"]),
            hidden=tuple(int(h) for h in d["hidden"]),
            n_classes=int(d["n_classes"]),
            activation=str(d["activation"]),
        )


@dataclass
class ModelState:
    """Parameters and momentum buffers of one classifier."""

    arch: Architecture
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    vel_w: list[np.ndarray]
    vel_b: list[np.ndarray]

    def param_vector(self) -> np.ndarray:
        """All parameters flattened into one vector (for distance checks)."""
        parts = [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        return np.concatenate(parts)


@dataclass
class Gradients:
    """Per-layer parameter gradients, shape-congruent with the model."""

    dw: list[np.ndarray]
    db: list[np.ndarray]

    def add_(self, other: "Gradients") -> "Gradients":
        for a, b in zip(self.dw, other.dw):
            a += b
        for a, b in zip(self.db, other.db):
            a += b
        return self


@dataclass
class ForwardCache:
    """Intermediate values of one forward pass, consumed by the backward pass."""

    inputs: list[np.ndarray] = field(default_factory=list)
    preacts: list[np.ndarray] = field(default_factory=list)


def init_model(arch: Architecture, seed: int) -> ModelState:
    """Build a model with Glorot-uniform weights and zero biases.

    Weights of layer (fan_in, fan_out) are drawn uniformly from
    +-sqrt(6 / (fan_in + fan_out)); the draw order is fixed so the same
    (arch, seed) pair is bit-for-bit reproducible.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    sizes = arch.layer_sizes
    weights, biases, vel_w, vel_b = [], [], [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
        vel_w.append(np.zeros((fan_in, fan_out)))
        vel_b.append(np.zeros(fan_out))
    return ModelState(arch, weights, biases, vel_w, vel_b)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def _check_batch(model: ModelState, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-d (B, input_dim), got shape {batch.shape}")
    if batch.shape[0] < 1:
        raise ShapeError("batch must contain at least one sample")
    if batch.shape[1] != model.arch.input_dim:
        raise ShapeError(
            f"batch width {batch.shape[1]} != model input width {model.arch.input_dim}"
        )
    return batch


def forward(model: ModelState, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the network and keep per-layer inputs/pre-activations for backprop."""
    x = _check_batch(model, batch)
    cache = ForwardCache()
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        cache.inputs.append(x)
        z = x @ w + b
        cache.preacts.append(z)
        x = z if i == n_layers - 1 else _activate(z, model.arch.activation)
    return cache.preacts[-1], cache


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilised by subtracting the row max."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict_probs(model: ModelState, batch: np.ndarray) -> np.ndarray:
    """Class probabilities, one softmax distribution per row."""
    logits, _ = forward(model, batch)
    return softmax(logits)


def backprop_from(model: ModelState, cache: ForwardCache, upstream: np.ndarray) -> Gradients:
    """Backward pass from a cached forward, given dLoss/dlogits."""
    upstream = np.asarray(upstream, dtype=np.float64)
    last = cache.preacts[-1]
    if upstream.shape != last.shape:
        raise ShapeError(
            f"upstream gradient shape {upstream.shape} != logits shape {last.shape}"
        )
    n_layers = len(model.weights)
    dw = [None] * n_layers
    db = [None] * n_layers
    delta = upstream
    for i in range(n_layers - 1, -1, -1):
        x = cache.inputs[i]
        dw[i] = x.T @ delta
        db[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * _activate_grad(
                cache.preacts[i - 1], model.arch.activation
            )
    return Gradients(dw, db)


def backprop(model: ModelState, batch: np.ndarray, upstream: np.ndarray) -> Gradients:
    """Exact gradients of sum(logits * upstream) w.r.t. every parameter.

    ``upstream`` is dLoss/dlogits (shape B x K); combined with the loss
    functions' logit gradients this yields the full parameter gradient of
    any loss in the package.
    """
    _, cache = forward(model, batch)
    return backprop_from(model, cache, upstream)
