"""Checkpoint files round-trip byte for byte at random encoder shapes.

Parameters are random float32 bit patterns (NaN payloads included), so a
round trip that converts, reorders or drops any value shows up.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

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
        config=config,
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
        assert loaded.params.flat.flags.writeable
        for (name, a), (_, b) in zip(params.tensors(), loaded.params.tensors()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
        bad.write_bytes(blob + data.draw(st.binary(min_size=1, max_size=8), label="trailing"))
        with pytest.raises(FormatError):
            load_checkpoint(bad)
