"""Pinned bytes of ``forward`` embeddings and ``backward`` gradients, and
``embed``'s rows equal to ``forward``'s.

The encoder's element-wise work (layer norms, softmax, bias and residual
adds, the GELU and its derivative) runs in place and in row blocks; a change
to how it is laid out must not change a single float. The weights are drawn
far from their initial values, so biases and gains are nonzero and the GELU
and softmax work away from their linear ranges. The batches mix sentence
lengths, cross the GELU's row blocks, hold a run of eleven sentences of one
length, and include one of fewer than 16 tokens, which gets padding rows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from xlembed import (
    EncoderConfig,
    ParallelCorpus,
    backward,
    build_vocab,
    embed,
    encode_batch,
    forward,
    init_params,
)


def far_params(dim, n_heads, seed):
    """Weights drawn far from their initial values, and the generator that
    drew them, ready to draw the batches."""
    config = EncoderConfig(
        vocab_size=500, dim=dim, n_layers=2, n_heads=n_heads, max_len=64, seed=seed
    )
    rng = np.random.default_rng(seed)
    params = init_params(config)
    params.flat[...] = rng.normal(0.0, 0.3, size=params.n_params)
    return params, rng


def digest(dim, n_heads, lengths_per_batch, seed):
    params, rng = far_params(dim, n_heads, seed)
    grads = params.zeros_like()
    h = hashlib.sha256()
    for lengths in lengths_per_batch:
        batch = [rng.integers(0, params.config.vocab_size, size=n).tolist() for n in lengths]
        emb, cache = forward(params, batch)
        assert emb.vectors.dtype == np.float32
        h.update(emb.vectors.tobytes())
        weights = rng.normal(size=emb.vectors.shape).astype(np.float32)
        backward(params, cache, weights, grads)
        h.update(grads.flat.tobytes())
    return h.hexdigest()


BATCHES = [[3, 5, 2], [64, 1, 17, 40, 9, 33, 64, 30], [12] * 11 + [1]]
PINNED = [
    (32, 2, "59920ec2bd3510558866dbc0cb9ce26105db677890ccecf7e63239360e20eb50"),
    (128, 4, "c8bcdeeddaab3e041262ef8c0e9df500246f1f1b78182ffcbf71277abd7e2bf0"),
]


@pytest.mark.parametrize("dim, n_heads, expected", PINNED)
def test_forward_and_backward_bytes_are_pinned(dim, n_heads, expected):
    assert digest(dim, n_heads, BATCHES, seed=dim) == expected


@pytest.mark.parametrize("dim, n_heads, expected", PINNED)
def test_bytes_are_pinned_with_the_helper_thread_on_every_batch(dim, n_heads, expected, overlap):
    # backward's weight-gradient products run beside its input-gradient
    # chain on every batch, the one of fewer than 16 tokens too.
    overlap("on")
    assert digest(dim, n_heads, BATCHES, seed=dim) == expected


# 498 words, so that with the two reserved ids the vocabulary fills the
# encoder's table of 500 rows.
WORDS = [f"w{i:03d}" for i in range(498)]
VOCAB = build_vocab(ParallelCorpus(pairs=[(w, w) for w in WORDS]), side="source")


@pytest.mark.parametrize("dim, n_heads", [(32, 2), (128, 4)])
@pytest.mark.parametrize("batch_size", [1, "all"])
def test_embed_gives_the_bytes_of_forward_rows(dim, n_heads, batch_size):
    # embed runs the blocks without a cache, and its GELU overwrites its
    # input one block of rows at a time. The 401 rows of all texts end in a
    # partial GELU block; alone, each sentence of under 16 tokens gets
    # padding rows.
    params, rng = far_params(dim, n_heads, seed=dim)
    texts = [
        [" ".join(rng.choice(WORDS, size=n)) for n in lengths] for lengths in BATCHES
    ]
    expected = np.concatenate(
        [forward(params, encode_batch(VOCAB, batch, 64))[0].vectors for batch in texts]
    )
    flat = [text for batch in texts for text in batch]
    size = len(flat) if batch_size == "all" else batch_size
    got = embed(params, VOCAB, flat, 64, batch_size=size).vectors
    assert got.tobytes() == expected.tobytes()
