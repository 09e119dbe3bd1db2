"""The in-place AdamW step equals the whole-buffer expression byte for byte.

``reference_step`` is the textbook form, one fresh float64 array per
operation; ``adamw_step`` computes the same per-element operations in the
optimizer's work rows and writes into the parameter buffer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    EncoderConfig,
    EncoderParams,
    OptimizerState,
    TrainingConfig,
    ValidationError,
    adamw_step,
)


def reference_step(params, grads, m, v, step_count, lr, config):
    """One AdamW update as whole-buffer expressions; returns new arrays."""
    t = step_count + 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    g = grads.astype(np.float64)
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * np.square(g)
    decayed = params.astype(np.float64) * (1.0 - lr * config.weight_decay)
    step = lr * (m / bc1) / (np.sqrt(v / bc2) + config.eps)
    return (decayed - step).astype(params.dtype), m, v


OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def random_buffer(rng, n, dtype):
    """Finite values spread over many orders of magnitude, zeros included."""
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 8.0, size=n)
    values[rng.random(n) < 0.1] = 0.0
    return values.astype(dtype)


@settings(max_examples=60, deadline=None)
@given(
    vocab_size=st.integers(3, 60),
    dim=st.integers(1, 6),
    max_len=st.integers(1, 8),
    dtype=st.sampled_from([np.float32, np.float64]),
    steps=st.integers(1, 5),
    lr=st.floats(0.0, 1.0),
    config=st.builds(
        TrainingConfig,
        weight_decay=st.floats(0.0, 0.5),
        beta1=OPEN_UNIT,
        beta2=OPEN_UNIT,
        eps=st.floats(1e-12, 1e-3),
    ),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_matches_whole_buffer_reference(
    vocab_size, dim, max_len, dtype, steps, lr, config, seed, bad
):
    enc = EncoderConfig(vocab_size=vocab_size, dim=dim, n_layers=1, n_heads=1, max_len=max_len)
    rng = np.random.default_rng(seed)
    params = EncoderParams(enc, random_buffer(rng, enc.n_params, dtype))
    grads = params.zeros_like()
    state = OptimizerState.zeros(params)
    ref_p, ref_m, ref_v = params.flat.copy(), state.m.copy(), state.v.copy()

    for k in range(steps):
        grads.flat[...] = random_buffer(rng, enc.n_params, dtype)
        ref_p, ref_m, ref_v = reference_step(ref_p, grads.flat, ref_m, ref_v, k, lr, config)
        adamw_step(params, grads, state, lr, config)
        assert params.flat.dtype == dtype
        assert params.flat.tobytes() == ref_p.tobytes()
        assert state.m.tobytes() == ref_m.tobytes()
        assert state.v.tobytes() == ref_v.tobytes()
        assert state.step_count == k + 1

    grads.flat[rng.integers(enc.n_params)] = bad
    with pytest.raises(ValidationError, match="non-finite gradient"):
        adamw_step(params, grads, state, lr, config)
    assert params.flat.tobytes() == ref_p.tobytes()
    assert state.m.tobytes() == ref_m.tobytes()
    assert state.v.tobytes() == ref_v.tobytes()
    assert state.step_count == steps
