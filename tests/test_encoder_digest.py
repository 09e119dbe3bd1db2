"""Pinned bytes of ``forward`` embeddings and ``backward`` gradients.

The encoder's element-wise work (layer norms, softmax, bias and residual
adds, the GELU and its derivative) runs in place and in row blocks; a change
to how it is laid out must not change a single float. The weights are drawn
far from their initial values, so biases and gains are nonzero and the GELU
and softmax work away from their linear ranges. The batches mix sentence
lengths, cross the GELU's row blocks, and include one of fewer than 16
tokens, which gets padding rows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from xlembed import EncoderConfig, backward, forward, init_params


def digest(dim, n_heads, lengths_per_batch, seed):
    config = EncoderConfig(
        vocab_size=500, dim=dim, n_layers=2, n_heads=n_heads, max_len=64, seed=seed
    )
    rng = np.random.default_rng(seed)
    params = init_params(config)
    params.flat[...] = rng.normal(0.0, 0.3, size=params.n_params)
    grads = params.zeros_like()
    h = hashlib.sha256()
    for lengths in lengths_per_batch:
        batch = [rng.integers(0, config.vocab_size, size=n).tolist() for n in lengths]
        emb, cache = forward(params, batch)
        assert emb.vectors.dtype == np.float32
        h.update(emb.vectors.tobytes())
        weights = rng.normal(size=emb.vectors.shape).astype(np.float32)
        backward(params, cache, weights, grads)
        h.update(grads.flat.tobytes())
    return h.hexdigest()


BATCHES = [[3, 5, 2], [64, 1, 17, 40, 9, 33, 64, 30], [12] * 11 + [1]]


@pytest.mark.parametrize(
    "dim, n_heads, expected",
    [
        (32, 2, "10715bdc1a67894c3b86cd01d17b82d1dcfe18fd56834767f5fd2cf742dc8568"),
        (128, 4, "cf0a1f8904c149b794e43ee156aab0a4cd5fe679d52a370825bc48133d02d0a5"),
    ],
)
def test_forward_and_backward_bytes_are_pinned(dim, n_heads, expected):
    assert digest(dim, n_heads, BATCHES, seed=dim) == expected
