"""Binary checkpoint container: round-trips and integrity failures."""

from pathlib import Path

import numpy as np
import pytest

from dnll.checkpoint import load_checkpoint, restore_rng, rng_state, save_checkpoint
from dnll.errors import ChecksumError, FormatError


def sample_payload(rng):
    config_text = "m = 2\nepochs = 1\n"
    arch = {"input_dim": 4, "hidden": [3], "n_classes": 2, "activation": "relu"}
    tensors = [rng.normal(size=(4, 3)), rng.normal(size=3), np.array([1.5])]
    progress = {"epoch": 3, "global_step": 120, "note": "x"}
    return config_text, arch, tensors, progress


def test_roundtrip_bitwise(tmp_path, rng):
    path = tmp_path / "c.dnll"
    config_text, arch, tensors, progress = sample_payload(rng)
    save_checkpoint(path, config_text, arch, tensors, progress)
    c2, a2, t2, p2 = load_checkpoint(path)
    assert c2 == config_text and a2 == arch and p2 == progress
    for a, b in zip(tensors, t2):
        assert np.array_equal(a, b) and a.dtype == b.dtype


def test_zero_dim_and_fortran_tensors_keep_shape(tmp_path):
    path = tmp_path / "c.dnll"
    tensors = [np.array(2.5), np.arange(6.0).reshape(2, 3).T, np.zeros((0, 4))]
    save_checkpoint(path, "", {}, tensors, {})
    _, _, loaded, _ = load_checkpoint(path)
    for a, b in zip(tensors, loaded):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_bad_magic(tmp_path, rng):
    path = tmp_path / "c.dnll"
    save_checkpoint(path, *sample_payload(rng))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_bad_version(tmp_path, rng):
    path = tmp_path / "c.dnll"
    save_checkpoint(path, *sample_payload(rng))
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    # keep the CRC consistent so the version check itself fires
    import struct, zlib

    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_truncated_file(tmp_path, rng):
    path = tmp_path / "c.dnll"
    save_checkpoint(path, *sample_payload(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_flipped_byte(tmp_path, rng):
    path = tmp_path / "c.dnll"
    save_checkpoint(path, *sample_payload(rng))
    raw = bytearray(path.read_bytes())
    raw[30] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_malformed_section_with_valid_crc(tmp_path, rng):
    # A tensor count larger than the blob holds, re-sealed with a fresh CRC.
    import json, struct, zlib

    path = tmp_path / "c.dnll"
    config_text, arch, tensors, progress = sample_payload(rng)
    save_checkpoint(path, config_text, arch, tensors, progress)
    raw = bytearray(path.read_bytes())
    arch_json = json.dumps(arch, sort_keys=True).encode()
    count_at = 8 + 8 + len(config_text.encode()) + 8 + len(arch_json) + 8
    assert struct.unpack_from("<I", raw, count_at)[0] == len(tensors)
    raw[count_at : count_at + 4] = struct.pack("<I", 99)
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="malformed"):
        load_checkpoint(path)


def test_tiny_file(tmp_path):
    path = tmp_path / "c.dnll"
    path.write_bytes(b"DN")
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_on_disk_layout_contract(tmp_path):
    # magic prefix, little-endian u32 version, little-endian float64 payload
    import struct

    path = tmp_path / "c.dnll"
    save_checkpoint(path, "", {}, [np.array([1.0, -2.5])], {})
    raw = path.read_bytes()
    assert raw[:4] == b"DNLL"
    assert struct.unpack_from("<I", raw, 4)[0] == 1
    assert struct.pack("<dd", 1.0, -2.5) in raw


def test_rng_state_resumes_stream(rng):
    gen = np.random.default_rng(42)
    gen.random(17)
    state = rng_state(gen)
    ahead = gen.random(5)
    resumed = restore_rng(state)
    assert np.array_equal(resumed.random(5), ahead)


def test_failed_write_keeps_previous_checkpoint(tmp_path, rng, monkeypatch):
    path = tmp_path / "c.dnll"
    old = [rng.standard_normal((3, 4))]
    save_checkpoint(path, "cfg", {"a": 1}, old, {"epoch": 1})
    real_write = Path.write_bytes

    def torn_write(self, data):
        real_write(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError):
        save_checkpoint(path, "cfg", {"a": 1}, [rng.standard_normal((3, 4))], {"epoch": 2})
    _, _, tensors, progress = load_checkpoint(path)
    assert progress == {"epoch": 1}
    assert np.array_equal(tensors[0], old[0])
