"""Gradient checks as a property over random encoder shapes.

The hand-written backward pass must agree with central differences of the
training objective at any architecture, batch and loss: `forward`, then the
loss against teacher rows, then `backward` on the loss gradient, as `train`
calls them. Padding must add nothing: token rows that no sentence uses
(``PAD_ID`` among them, though a batch of fewer than 16 tokens gathers it
for its padding rows) and position rows past the longest sentence get
exactly zero gradient.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    EmbeddingBatch,
    EncoderConfig,
    TrainingConfig,
    backward,
    forward,
    init_params,
    mnr_loss,
    mse_loss,
)
from xlembed.tokenizer import PAD_ID

EPS = 1e-5
# Over 2,000 random cases, the fourth-order central difference at EPS in
# float64 agreed with the analytic derivative to within 7e-7 of the sum of
# its terms' magnitudes (the second-order one only to within 1e-4, near
# degenerate layer norms of dim 2); without the attention scale in
# backward, about 45% of cases missed by more than RTOL.
RTOL = 1e-4


@st.composite
def encoder_cases(draw):
    n_heads = draw(st.integers(1, 4))
    config = EncoderConfig(
        vocab_size=draw(st.integers(3, 30)),
        dim=n_heads * draw(st.integers(1, 4)),
        n_layers=draw(st.integers(1, 3)),
        n_heads=n_heads,
        ffn_mult=draw(st.integers(1, 4)),
        max_len=draw(st.integers(1, 10)),
        seed=draw(st.integers(0, 2**16)),
    )
    loss = draw(st.sampled_from(["mse", "mnr"]))
    # Real token ids only: the tokenizer never emits PAD_ID for a word.
    sentence = st.lists(
        st.integers(PAD_ID + 1, config.vocab_size - 1), min_size=1, max_size=config.max_len
    )
    # The ranking loss needs in-batch negatives, as train's batches have.
    batch = draw(st.lists(sentence, min_size=2 if loss == "mnr" else 1, max_size=5))
    return config, loss, batch


def objective(params, batch, teacher, loss):
    """The loss value and the forward cache, by the calls `train` makes."""
    student, cache = forward(params, batch)
    if loss == "mse":
        result = mse_loss(teacher, student)
    else:
        result = mnr_loss(teacher, student, scale=TrainingConfig(loss="mnr").scale)
    return result, cache


@settings(max_examples=80, deadline=None)
@given(case=encoder_cases(), seed=st.integers(0, 2**32 - 1))
def test_gradients_match_central_differences(case, seed):
    config, loss, batch = case
    rng = np.random.default_rng(seed)
    # Perturb the initial weights so that biases and gains are not at their
    # zeros and ones, which would hide terms of their gradients.
    params = init_params(config, dtype=np.float64).map(
        lambda a: a + rng.normal(scale=0.3, size=a.shape)
    )
    teacher = EmbeddingBatch(vectors=rng.normal(size=(len(batch), config.dim)))

    result, cache = objective(params, batch, teacher, loss)
    grads = backward(params, cache, result.grad_student.astype(params.dtype), params.zeros_like())

    direction = rng.normal(size=params.n_params)

    def along(h):
        return objective(params.map(lambda p: p + h * direction), batch, teacher, loss)[0].value

    numeric = (8 * (along(EPS) - along(-EPS)) - (along(2 * EPS) - along(-2 * EPS))) / (12 * EPS)
    analytic = float(grads.flat @ direction)
    scale = np.abs(grads.flat * direction).sum()
    assert abs(numeric - analytic) <= RTOL * max(scale, 1e-3)

    used = np.zeros(config.vocab_size, dtype=bool)
    used[np.concatenate(batch)] = True
    assert not grads.token_embedding[~used].any()
    assert not grads.position_embedding[max(map(len, batch)) :].any()
