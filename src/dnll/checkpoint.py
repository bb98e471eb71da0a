"""Binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..3   magic "DNLL"
    bytes 4..7   format version, u32
    sections     4 length-prefixed blocks (u64 length + payload):
                   1. config text (utf-8)
                   2. architecture json (utf-8)
                   3. tensor blob: u32 count, then per tensor
                      u8 ndim, ndim * u64 dims, float64 raw data
                   4. progress json (epoch, step, RNG states, best-so-far)
    tail         CRC32 of everything above, u32

The CRC is verified before any section is parsed, so a truncated or
corrupted file raises without yielding partial state. Tensor bytes are
raw float64, which makes save/load round-trips bit-exact.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ChecksumError, FormatError

MAGIC = b"DNLL"
VERSION = 1


def _pack_tensors(tensors: list[np.ndarray]) -> bytes:
    parts = [struct.pack("<I", len(tensors))]
    for t in tensors:
        t = np.ascontiguousarray(t, dtype=np.float64)
        parts.append(struct.pack("<B", t.ndim))
        parts.append(struct.pack(f"<{t.ndim}Q", *t.shape))
        parts.append(t.astype("<f8").tobytes())
    return b"".join(parts)


def _unpack_tensors(blob: bytes) -> list[np.ndarray]:
    (count,) = struct.unpack_from("<I", blob, 0)
    offset = 4
    tensors = []
    for _ in range(count):
        (ndim,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        dims = struct.unpack_from(f"<{ndim}Q", blob, offset)
        offset += 8 * ndim
        n = int(np.prod(dims)) if ndim else 1
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(dims)
        offset += 8 * n
        tensors.append(arr.astype(np.float64))
    return tensors


def save_checkpoint(path, config_text: str, arch: dict, tensors: list[np.ndarray], progress: dict) -> None:
    sections = [
        config_text.encode("utf-8"),
        json.dumps(arch, sort_keys=True).encode("utf-8"),
        _pack_tensors(tensors),
        json.dumps(progress, sort_keys=True).encode("utf-8"),
    ]
    body = MAGIC + struct.pack("<I", VERSION)
    for payload in sections:
        body += struct.pack("<Q", len(payload)) + payload
    body += struct.pack("<I", zlib.crc32(body))
    Path(path).write_bytes(body)


def load_checkpoint(path) -> tuple[str, dict, list[np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ChecksumError(f"{path}: file too short to be a checkpoint")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise ChecksumError(f"{path}: CRC mismatch (corrupted or truncated)")
    offset = 8
    sections = []
    for _ in range(4):
        if offset + 8 > len(raw) - 4:
            raise ChecksumError(f"{path}: section table runs past end of file")
        (length,) = struct.unpack_from("<Q", raw, offset)
        offset += 8
        if offset + length > len(raw) - 4:
            raise ChecksumError(f"{path}: section payload runs past end of file")
        sections.append(raw[offset : offset + length])
        offset += length
    try:
        config_text = sections[0].decode("utf-8")
        arch = json.loads(sections[1].decode("utf-8"))
        tensors = _unpack_tensors(sections[2])
        progress = json.loads(sections[3].decode("utf-8"))
    except (ValueError, struct.error) as exc:
        raise FormatError(f"{path}: malformed section: {exc}") from exc
    return config_text, arch, tensors, progress


def rng_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def restore_rng(state: dict) -> np.random.Generator:
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = state
    return gen
