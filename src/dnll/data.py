"""Dataset ingestion, deterministic splits and the weak/strong augmentations.

Images travel as float64 arrays (N, H, W) scaled to [0, 1]. The IDX
container (big-endian magic + dimensions + unsigned bytes) is parsed
bit-exactly; gzipped files are handled transparently.

The unlabeled split keeps its ground truth hidden: ``Dataset.labels``
raises for role "unlabeled", so no training code path can read them. The
hidden copy stays available through ``hidden_labels()`` for diagnostics.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, LengthError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

ROLES = ("labeled", "unlabeled", "validation", "test")


class Dataset:
    """Images plus (optionally hidden) labels for one split role."""

    def __init__(self, images: np.ndarray, labels: np.ndarray, role: str):
        if role not in ROLES:
            raise ConfigError(f"unknown dataset role {role!r}")
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if images.shape[0] == 0:
            raise DataError("dataset must contain at least one sample")
        if labels.shape[0] != images.shape[0]:
            raise DataError(
                f"{labels.shape[0]} labels for {images.shape[0]} images"
            )
        self.images = images
        self.role = role
        self._labels = labels

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def labels(self) -> np.ndarray:
        if self.role == "unlabeled":
            raise DataError("unlabeled data exposes no labels to the trainer")
        return self._labels

    def hidden_labels(self) -> np.ndarray:
        """Ground truth of the unlabeled split, for diagnostics only."""
        return self._labels

    def flat_images(self) -> np.ndarray:
        """Images flattened to (N, H*W) for the dense classifier."""
        return self.images.reshape(self.images.shape[0], -1)

    def subset(self, indices: np.ndarray, role: str | None = None) -> "Dataset":
        indices = np.asarray(indices)
        outside = (indices < 0) | (indices >= len(self))
        if outside.any():
            raise DataError(
                f"index {int(indices[outside][0])} is outside a dataset of {len(self)} samples"
            )
        return Dataset(self.images[indices], self._labels[indices], role or self.role)


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def parse_idx(path) -> np.ndarray:
    """Decode one IDX file: float images in [0, 1] or an int label vector."""
    raw = _read_bytes(path)
    if len(raw) < 8:
        raise LengthError(f"{path}: file too short for an IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == IMAGE_MAGIC:
        if len(raw) < 16:
            raise LengthError(f"{path}: truncated image header")
        count, rows, cols = struct.unpack(">III", raw[4:16])
        expected = 16 + count * rows * cols
        if len(raw) < expected:
            raise LengthError(
                f"{path}: expected {expected} bytes for {count} images, found {len(raw)}"
            )
        pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
        return pixels.reshape(count, rows, cols).astype(np.float64) / 255.0
    if magic == LABEL_MAGIC:
        (count,) = struct.unpack(">I", raw[4:8])
        expected = 8 + count
        if len(raw) < expected:
            raise LengthError(
                f"{path}: expected {expected} bytes for {count} labels, found {len(raw)}"
            )
        return np.frombuffer(raw, dtype=np.uint8, count=count, offset=8).astype(np.int64)
    raise FormatError(
        f"{path}: bad IDX magic: expected 0x{IMAGE_MAGIC:08x} (images) or "
        f"0x{LABEL_MAGIC:08x} (labels), found 0x{magic:08x}"
    )


def write_idx(path, array: np.ndarray) -> None:
    """Encode images (float [0,1] or uint8, N x H x W) or labels (N,) as IDX."""
    array = np.asarray(array)
    path = Path(path)
    if array.ndim == 3:
        if array.dtype != np.uint8:
            array = np.clip(np.rint(array * 255.0), 0, 255).astype(np.uint8)
        header = struct.pack(">IIII", IMAGE_MAGIC, *array.shape)
    elif array.ndim == 1:
        array = array.astype(np.uint8)
        header = struct.pack(">II", LABEL_MAGIC, array.shape[0])
    else:
        raise ConfigError(f"cannot encode array of ndim {array.ndim} as IDX")
    path.write_bytes(header + array.tobytes())


def load_pair(images_path, labels_path, role: str) -> Dataset:
    images = parse_idx(images_path)
    labels = parse_idx(labels_path)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: expected an image file, found labels")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: expected a label file, found images")
    return Dataset(images, labels, role)


def find_idx_file(data_dir, stem: str) -> Path:
    """Locate ``stem`` or ``stem.gz`` (also the dotted spelling) in data_dir."""
    data_dir = Path(data_dir)
    for name in (stem, stem + ".gz", stem.replace("-idx", ".idx"), stem.replace("-idx", ".idx") + ".gz"):
        p = data_dir / name
        if p.exists():
            return p
    raise FileNotFoundError(f"no {stem}[.gz] under {data_dir}")


def load_train_test(data_dir) -> tuple[Dataset, Dataset]:
    """Load the conventional four-file layout (train + t10k pairs)."""
    train = load_pair(
        find_idx_file(data_dir, "train-images-idx3-ubyte"),
        find_idx_file(data_dir, "train-labels-idx1-ubyte"),
        "labeled",
    )
    test = load_pair(
        find_idx_file(data_dir, "t10k-images-idx3-ubyte"),
        find_idx_file(data_dir, "t10k-labels-idx1-ubyte"),
        "test",
    )
    return train, test


@dataclass
class Split:
    labeled: np.ndarray
    unlabeled: np.ndarray
    validation: np.ndarray


def split_dataset(
    dataset: Dataset, n_labeled: int, n_val_per_class: int, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Class-balanced labeled/validation split; the remainder is unlabeled.

    The three index sets are disjoint, exhaust the input and depend only on
    ``seed``.
    """
    split = split_indices(dataset, n_labeled, n_val_per_class, seed)
    return (
        dataset.subset(split.labeled, "labeled"),
        dataset.subset(split.unlabeled, "unlabeled"),
        dataset.subset(split.validation, "validation"),
    )


def split_indices(dataset: Dataset, n_labeled: int, n_val_per_class: int, seed: int) -> Split:
    labels = dataset._labels
    classes = np.unique(labels)
    n_classes = classes.shape[0]
    if n_labeled % n_classes != 0:
        raise DataError(
            f"n_labeled={n_labeled} is not divisible by the {n_classes} classes"
        )
    per_class = n_labeled // n_classes
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    labeled, validation, unlabeled = [], [], []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        need = per_class + n_val_per_class
        if idx.shape[0] < need:
            raise DataError(
                f"class {int(c)} has {idx.shape[0]} samples, needs {need}"
            )
        idx = rng.permutation(idx)
        validation.append(idx[:n_val_per_class])
        labeled.append(idx[n_val_per_class : n_val_per_class + per_class])
        unlabeled.append(idx[n_val_per_class + per_class :])
    return Split(
        labeled=np.sort(np.concatenate(labeled)),
        unlabeled=np.sort(np.concatenate(unlabeled)),
        validation=np.sort(np.concatenate(validation)),
    )


def write_split_manifest(path, split: Split, seed: int) -> None:
    """Persist a split as an auditable text file of index lists."""
    lines = [f"seed={seed}"]
    for name in ("labeled", "unlabeled", "validation"):
        idx = getattr(split, name)
        lines.append(f"{name}: " + " ".join(str(int(i)) for i in idx))
    Path(path).write_text("\n".join(lines) + "\n")


def read_split_manifest(path) -> Split:
    """Read a split manifest; each index may appear once across all sections."""
    parts = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" in line.split(":")[0]:
            continue
        name, _, rest = line.partition(":")
        name = name.strip()
        if name in ("labeled", "unlabeled", "validation"):
            try:
                parts[name] = np.array([int(t) for t in rest.split()], dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise FormatError(
                    f"split manifest {path}: section {name!r} holds a non-index token"
                ) from exc
    missing = {"labeled", "unlabeled", "validation"} - parts.keys()
    if missing:
        raise FormatError(f"split manifest {path} is missing sections: {sorted(missing)}")
    values, counts = np.unique(np.concatenate(list(parts.values())), return_counts=True)
    if (counts > 1).any():
        raise DataError(
            f"split manifest {path}: index {int(values[counts > 1][0])} is listed more than once"
        )
    return Split(**parts)


# --- augmentation -----------------------------------------------------------

WEAK_MODES = ("identity", "crop_flip")
STRONG_MODES = ("noise", "crop_flip_noise")


@dataclass
class AugmentConfig:
    weak: str = "identity"
    strong: str = "noise"
    crop_pad: int = 2
    flip_p: float = 0.5
    noise_sigma: float = 0.1
    per_submodel_streams: bool = True

    def __post_init__(self):
        if self.weak not in WEAK_MODES:
            raise ConfigError(f"weak mode {self.weak!r} not in {WEAK_MODES}")
        if self.strong not in STRONG_MODES:
            raise ConfigError(f"strong mode {self.strong!r} not in {STRONG_MODES}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.flip_p <= 1.0:
            raise ConfigError(f"flip_p must be in [0, 1], got {self.flip_p}")


def _crop_flip(image: np.ndarray, rng: np.random.Generator, pad: int, flip_p: float) -> np.ndarray:
    h, w = image.shape
    padded = np.zeros((h + 2 * pad, w + 2 * pad))
    padded[pad : pad + h, pad : pad + w] = image
    top = int(rng.integers(0, 2 * pad + 1))
    left = int(rng.integers(0, 2 * pad + 1))
    out = padded[top : top + h, left : left + w]
    if rng.random() < flip_p:
        out = out[:, ::-1]
    return np.ascontiguousarray(out)


def augment_weak(image: np.ndarray, rng: np.random.Generator, cfg: AugmentConfig) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if cfg.weak == "identity":
        return image.copy()
    return _crop_flip(image, rng, cfg.crop_pad, cfg.flip_p)


def augment_strong(image: np.ndarray, rng: np.random.Generator, cfg: AugmentConfig) -> np.ndarray:
    """Geometric part of the matching weak mode, then Gaussian pixel noise.

    The geometric draws happen before the noise draw, so with sigma = 0 the
    output equals the weak transform of the same starting RNG state.
    """
    image = np.asarray(image, dtype=np.float64)
    if cfg.strong == "crop_flip_noise":
        out = _crop_flip(image, rng, cfg.crop_pad, cfg.flip_p)
    else:
        out = image.copy()
    if cfg.noise_sigma > 0:
        out = out + rng.normal(0.0, cfg.noise_sigma, size=out.shape)
    return np.clip(out, 0.0, 1.0)


def sample_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator derived from (seed, key...): the per-sample stream scheme.

    Batches built from per-sample streams give identical results no matter
    how samples are sheared across parallel workers.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), *map(int, key)))))


def augment_batch(
    images: np.ndarray,
    cfg: AugmentConfig,
    kind: str,
    seed: int,
    stream: int,
    epoch: int,
    sample_indices: np.ndarray,
) -> np.ndarray:
    """Augment a batch with one derived RNG stream per sample.

    ``stream`` separates consumers (submodel 1/2, weak/strong view), so the
    same sample augmented for two purposes sees independent draws.
    """
    fn = augment_weak if kind == "weak" else augment_strong
    if kind == "weak" and cfg.weak == "identity":
        return images.copy()
    out = np.empty_like(images)
    for i, sample_idx in enumerate(sample_indices):
        rng = sample_rng(seed, stream, epoch, sample_idx)
        out[i] = fn(images[i], rng, cfg)
    return out
