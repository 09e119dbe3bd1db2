"""The in-place AdamW step equals the whole-buffer expression byte for byte.

``reference_step`` is the textbook form, one fresh array per operation in
the dtype of the parameters; ``adamw_step`` computes the same per-element
operations in two block-long work rows it takes per call and the parameter
buffer, one 65,536-element block at a time. ``OptimizerState`` is only the
moments and the step count, so a run continued from copies of them is the
run that never stopped.
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
    m = b1 * m + (1.0 - b1) * grads
    v = b2 * v + (1.0 - b2) * np.square(grads)
    decayed = params * (1.0 - lr * config.weight_decay)
    step = lr * (m / bc1) / (np.sqrt(v / bc2) + config.eps)
    return decayed - step, m, v


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
        given_grads = grads.flat.tobytes()
        ref_p, ref_m, ref_v = reference_step(ref_p, grads.flat, ref_m, ref_v, k, lr, config)
        adamw_step(params, grads, state, lr, config)
        assert grads.flat.tobytes() == given_grads
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


@pytest.mark.parametrize(
    "n_params, dtype",
    [
        # Two full 65,536-element blocks and a 17-element tail.
        pytest.param(2 * 65536 + 17, np.float32, id="float32"),
        pytest.param(2 * 65536 + 17, np.float64, id="float64"),
        # One block less one element, one block, and one block and a
        # one-element tail: the work rows stop growing at one block's
        # length, and a tail block computes in their first columns.
        *(
            pytest.param(n, dtype, id=f"{np.dtype(dtype)}-{n}")
            for n in (65535, 65536, 65537)
            for dtype in (np.float32, np.float64)
        ),
    ],
)
def test_tail_block_matches_reference(n_params, dtype):
    # At dim 1 with one layer, the tensors besides the token table hold 28.
    enc = EncoderConfig(vocab_size=n_params - 28, dim=1, n_layers=1, n_heads=1, max_len=1)
    assert enc.n_params == n_params
    rng = np.random.default_rng(7)
    params = EncoderParams(enc, random_buffer(rng, enc.n_params, dtype))
    grads = params.zeros_like()
    state = OptimizerState.zeros(params)
    config = TrainingConfig(weight_decay=0.01)
    ref_p, ref_m, ref_v = params.flat.copy(), state.m.copy(), state.v.copy()

    for k in range(3):
        grads.flat[...] = random_buffer(rng, enc.n_params, dtype)
        ref_p, ref_m, ref_v = reference_step(ref_p, grads.flat, ref_m, ref_v, k, 1e-3, config)
        adamw_step(params, grads, state, 1e-3, config)
        assert params.flat.tobytes() == ref_p.tobytes()
        assert state.m.tobytes() == ref_m.tobytes()
        assert state.v.tobytes() == ref_v.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 6),
    dtype=st.sampled_from([np.float32, np.float64]),
    steps=st.integers(2, 6),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_continuing_from_copied_moments_matches_one_run(dim, dtype, steps, data, seed):
    stop = data.draw(st.integers(1, steps - 1), label="stop")
    enc = EncoderConfig(vocab_size=11, dim=dim, n_layers=1, n_heads=1, max_len=4)
    rng = np.random.default_rng(seed)
    start = random_buffer(rng, enc.n_params, dtype)
    gradients = [random_buffer(rng, enc.n_params, dtype) for _ in range(steps)]
    lrs = rng.uniform(0.0, 1e-2, size=steps).tolist()
    config = TrainingConfig(weight_decay=0.01)

    def run(params, state, ks):
        for k in ks:
            adamw_step(params, EncoderParams(enc, gradients[k]), state, lrs[k], config)

    whole = EncoderParams(enc, start.copy())
    whole_state = OptimizerState.zeros(whole)
    run(whole, whole_state, range(steps))

    first = EncoderParams(enc, start.copy())
    first_state = OptimizerState.zeros(first)
    run(first, first_state, range(stop))
    resumed = EncoderParams(enc, first.flat.copy())
    resumed_state = OptimizerState(
        first_state.m.copy(), first_state.v.copy(), first_state.step_count
    )
    run(resumed, resumed_state, range(stop, steps))

    assert resumed.flat.tobytes() == whole.flat.tobytes()
    assert resumed_state.m.tobytes() == whole_state.m.tobytes()
    assert resumed_state.v.tobytes() == whole_state.v.tobytes()
    assert resumed_state.step_count == whole_state.step_count == steps
