"""Checkpoint files round-trip byte for byte at random encoder shapes.

Parameters are random float32 bit patterns (NaN payloads included), so a
round trip that converts, reorders or drops any value shows up. The loaded
buffer is a fresh aligned array, never a view into the file's bytes, whose
float32 payload starts at an offset set by the JSON header's length.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    Checkpoint,
    EncoderConfig,
    EncoderParams,
    FormatError,
    load_checkpoint,
    save_checkpoint,
)


def assert_own_aligned_buffer(flat: np.ndarray) -> None:
    assert flat.dtype == np.float32
    assert flat.flags.aligned and flat.flags.c_contiguous
    assert flat.flags.writeable and flat.flags.owndata


@st.composite
def configs(draw) -> EncoderConfig:
    n_heads = draw(st.integers(1, 4))
    return EncoderConfig(
        vocab_size=draw(st.integers(3, 40)),
        dim=n_heads * draw(st.integers(1, 4)),
        n_layers=draw(st.integers(1, 3)),
        n_heads=n_heads,
        ffn_mult=draw(st.integers(1, 4)),
        max_len=draw(st.integers(1, 16)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(config=configs(), data=st.data())
def test_save_load_save_is_byte_identical(config, data):
    rng = np.random.default_rng(config.seed)
    bits = rng.integers(0, 2**32, size=config.n_params, dtype=np.uint32)
    params = EncoderParams(config, bits.view(np.float32))
    ckpt = Checkpoint(
        vocab_hash=data.draw(st.binary(min_size=32, max_size=32), label="vocab_hash"),
        params=params,
        training_meta={"steps": data.draw(st.integers(0, 10**6), label="steps")},
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second, bad = Path(tmp, "a.bemb"), Path(tmp, "b.bemb"), Path(tmp, "bad.bemb")
        save_checkpoint(ckpt, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        blob = first.read_bytes()
        assert second.read_bytes() == blob

        assert loaded.config == config and loaded.vocab_hash == ckpt.vocab_hash
        assert_own_aligned_buffer(loaded.params.flat)
        for (name, a), (_, b) in zip(params.tensors(), loaded.params.tensors()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
        bad.write_bytes(blob + data.draw(st.binary(min_size=1, max_size=8), label="trailing"))
        with pytest.raises(FormatError):
            load_checkpoint(bad)


def test_payload_after_json_of_every_length_mod_4_loads_aligned(tmp_path):
    config = EncoderConfig(vocab_size=5, dim=4, n_layers=1, n_heads=2, ffn_mult=1, max_len=3, seed=9)
    flat = np.random.default_rng(9).normal(size=config.n_params).astype(np.float32)
    residues = set()
    for steps in (1, 10, 100, 1000):
        path = tmp_path / f"{steps}.bemb"
        save_checkpoint(Checkpoint(bytes(32), EncoderParams(config, flat), {"steps": steps}), path)
        (json_len,) = struct.unpack_from("<I", path.read_bytes(), 8)
        residues.add(json_len % 4)
        loaded = load_checkpoint(path)
        assert_own_aligned_buffer(loaded.params.flat)
        assert loaded.params.flat.tobytes() == flat.tobytes()
    assert residues == {0, 1, 2, 3}


def test_short_payload_read_is_a_format_error(tmp_path, monkeypatch):
    # The file shrinks after its size was taken: the read comes up short.
    config = EncoderConfig(vocab_size=5, dim=4, n_layers=1, n_heads=2, ffn_mult=1, max_len=3, seed=9)
    path = tmp_path / "m.bemb"
    save_checkpoint(Checkpoint(bytes(32), EncoderParams(config, np.ones(config.n_params, np.float32)),
                               {}), path)
    full_size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-4])
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=full_size))
    with pytest.raises(FormatError, match="file ended after"):
        load_checkpoint(path)
