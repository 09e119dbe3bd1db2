"""`forward` and `embed` agree with an independent float64 reference encoder.

The reference below is written from the documented model, not from
``encoder.py``, and shares none of its helpers. It embeds one sentence at a
time and runs attention one head at a time:

* token embeddings plus position embeddings, counted from 0 in each sentence;
* pre-norm blocks (Xiong et al. 2020, arXiv:2002.04745): the input plus
  attention of its layer norm, then that plus a feed-forward of its layer norm;
* scaled softmax attention (Vaswani et al. 2017, arXiv:1706.03762), with the
  scores of each head divided by the square root of the head's width;
* a feed-forward with the tanh-form GELU of Hendrycks & Gimpel 2016
  (arXiv:1606.08415);
* a final layer norm, then the mean over the sentence's own tokens.

The digests pin bytes; this property pins meaning, so an output change made
on purpose cannot carry a wrong formula along with it.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    EncoderConfig,
    ParallelCorpus,
    build_vocab,
    embed,
    encode_batch,
    forward,
    init_params,
)

WORDS = [f"w{i:02d}" for i in range(30)]
VOCAB = build_vocab(ParallelCorpus(pairs=[(w, w) for w in WORDS]), side="source")
# float64 rounding in either encoder stays many orders of magnitude below this.
TOL = 1e-9


def layer_norm(x, gain, bias):
    """Each row scaled to zero mean and unit (biased) variance, eps 1e-5."""
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5) * gain + bias


def gelu(u):
    return 0.5 * u * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (u + 0.044715 * u**3)))


def softmax_rows(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_embedding(params, ids):
    """The embedding of one sentence of token ids, in float64."""
    config = params.config
    width = config.dim // config.n_heads
    n = len(ids)
    x = params.token_embedding[list(ids)] + params.position_embedding[:n]
    for layer in params.layers:
        h = layer_norm(x, layer.norm1_gain, layer.norm1_bias)
        q, k, v = (h @ layer.attn_qkv_w[i] + layer.attn_qkv_b[i] for i in range(3))
        context = np.zeros((n, config.dim))
        for head in range(config.n_heads):
            cols = slice(head * width, (head + 1) * width)
            weights = softmax_rows(q[:, cols] @ k[:, cols].T / math.sqrt(width))
            context[:, cols] = weights @ v[:, cols]
        x = x + context @ layer.attn_out_w + layer.attn_out_b
        h = layer_norm(x, layer.norm2_gain, layer.norm2_bias)
        x = x + gelu(h @ layer.ffn_in_w + layer.ffn_in_b) @ layer.ffn_out_w + layer.ffn_out_b
    return layer_norm(x, params.final_gain, params.final_bias).mean(axis=0)


@st.composite
def cases(draw):
    n_heads = draw(st.integers(1, 4))
    config = EncoderConfig(
        vocab_size=VOCAB.size,
        dim=n_heads * draw(st.integers(1, 6)),
        n_layers=draw(st.integers(1, 2)),
        n_heads=n_heads,
        ffn_mult=draw(st.integers(1, 4)),
        max_len=draw(st.integers(1, 24)),
        seed=draw(st.integers(0, 2**16)),
    )
    # Up to 6 sentences of up to 24 tokens: one-token batches, batches of
    # fewer than 16 tokens (which get padding rows) and longer ones.
    sentence = st.lists(st.sampled_from(WORDS + ["unknown"]), min_size=1, max_size=24)
    texts = draw(st.lists(sentence.map(" ".join), min_size=1, max_size=6))
    batch_size = draw(st.integers(1, len(texts)))
    return config, texts, batch_size


@settings(max_examples=60, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**32 - 1))
def test_forward_and_embed_match_the_reference(case, seed):
    config, texts, batch_size = case
    params = init_params(config, dtype=np.float64)
    # Far from the initial weights, so that biases and gains are not at their
    # zeros and ones and every term of the model shows in the output.
    params.flat[...] += np.random.default_rng(seed).normal(scale=0.3, size=params.n_params)
    batch = encode_batch(VOCAB, texts, config.max_len)
    expected = np.array([reference_embedding(params, ids) for ids in batch])
    scale = max(1.0, np.abs(expected).max())

    rows = forward(params, batch)[0].vectors
    assert np.abs(rows - expected).max() <= TOL * scale
    rows = embed(params, VOCAB, texts, config.max_len, batch_size=batch_size).vectors
    assert np.abs(rows - expected).max() <= TOL * scale
