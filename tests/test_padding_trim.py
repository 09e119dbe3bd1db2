"""Packed batches: `forward` does no work for padding, and no row depends on its batch.

`forward` packs the real tokens of a batch back to back, so its cache holds
one row per real token (`bench/tracing.py` reads that from `Cache.ids` and
`Cache.mask`). Properties over random texts, input orders, chunk sizes and
batch neighbours, at the paper-default width of dim 32 and at dim 128: a
sentence's row must not change when a real ``MAX_LEN``-word sentence joins
its batch, and the gradients must not change beyond rounding.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    EmbeddingBatch,
    EncoderConfig,
    ParallelCorpus,
    TeacherTable,
    TrainingConfig,
    backward,
    build_vocab,
    embed,
    encode_batch,
    forward,
    init_params,
    train,
)
from xlembed import trainer as trainer_module

MAX_LEN = 16
WORDS = [f"w{i:02d}" for i in range(40)]
VOCAB = build_vocab(ParallelCorpus(pairs=[(w, w) for w in WORDS]), side="source")
CONFIG = EncoderConfig(
    vocab_size=VOCAB.size, dim=32, n_layers=2, n_heads=4, ffn_mult=4, max_len=MAX_LEN, seed=11
)
PARAMS = init_params(CONFIG)
PARAMS_64 = init_params(CONFIG, dtype=np.float64)

# The larger bench width. Its sentences have 16 or more tokens, so every
# product has at least 16 rows: OpenBLAS may round a float32 product with
# inner dimension 512 differently below that (the README's BLAS caveat).
CONFIG_128 = EncoderConfig(
    vocab_size=VOCAB.size, dim=128, n_layers=2, n_heads=4, ffn_mult=4, max_len=64, seed=12
)
PARAMS_128 = init_params(CONFIG_128)

words = st.sampled_from(WORDS + ["unknown"])
sentence = st.lists(words, min_size=1, max_size=12).map(" ".join)
long_sentence = st.lists(words, min_size=16, max_size=63).map(" ".join)
LONGEST = " ".join(WORDS[:MAX_LEN])
LONGEST_64 = " ".join((WORDS * 2)[:64])


def assert_rows_equal_alone(params, texts, longest):
    """Each row of ``texts + [longest]`` equals the sentence embedded alone."""
    max_len = params.config.max_len
    batch = encode_batch(VOCAB, texts + [longest], max_len)
    together, cache = forward(params, batch)
    assert cache.ids.size == sum(len(seq) for seq in batch)
    for i, seq in enumerate(batch[:-1]):
        alone = forward(params, [seq])[0].vectors[0]
        assert together.vectors[i].tobytes() == alone.tobytes(), texts[i]
    # Attention runs on each sentence's own tokens: every layer caches one
    # (heads, n, n) probability block per sentence of n tokens.
    for layer_cache in cache.layer_caches:
        probs = layer_cache[6]
        assert [p.shape for p in probs] == [
            (params.config.n_heads, len(seq), len(seq)) for seq in batch
        ]


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(sentence, min_size=1, max_size=8),
    long_texts=st.lists(long_sentence, min_size=1, max_size=3),
)
def test_rows_of_a_padded_batch_equal_each_sentence_alone(texts, long_texts):
    assert_rows_equal_alone(PARAMS, texts, LONGEST)
    assert_rows_equal_alone(PARAMS_128, long_texts, LONGEST_64)


@settings(max_examples=40, deadline=None)
@given(
    one_word_texts=st.lists(words, min_size=1, max_size=6),
    other_texts=st.lists(sentence, min_size=0, max_size=20),
    data=st.data(),
)
def test_embed_rows_match_one_padded_pass(one_word_texts, other_texts, data):
    texts = one_word_texts + other_texts
    reference = forward(PARAMS, encode_batch(VOCAB, texts + [LONGEST], MAX_LEN))[0].vectors[:-1]

    order = data.draw(st.permutations(range(len(texts))), label="order")
    # A chunk size of 1 gives one-token chunks for the one-word texts, which
    # need the row floor of 2.
    batch_size = data.draw(
        st.integers(1, len(one_word_texts)) | st.integers(1, len(texts) + 1), label="batch_size"
    )
    max_len = data.draw(st.integers(12, MAX_LEN), label="max_len")
    shuffled = embed(PARAMS, VOCAB, [texts[i] for i in order], max_len, batch_size=batch_size)

    restored = np.empty_like(shuffled.vectors)
    restored[order] = shuffled.vectors
    assert restored.tobytes() == reference.tobytes()


@settings(max_examples=25, deadline=None)
@given(texts=st.lists(sentence, min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
def test_backward_on_trimmed_batch_matches_padded(texts, seed):
    trimmed = encode_batch(VOCAB, texts, MAX_LEN)
    padded = trimmed + encode_batch(VOCAB, [LONGEST], MAX_LEN)
    weights = np.random.default_rng(seed).normal(size=(len(texts), CONFIG.dim))

    emb_padded, cache_padded = forward(PARAMS_64, padded)
    emb_trimmed, cache_trimmed = forward(PARAMS_64, trimmed)
    assert cache_padded.ids.size == sum(len(seq) for seq in padded)
    assert cache_trimmed.ids.size == max(2, sum(len(seq) for seq in trimmed))
    assert np.allclose(emb_padded.vectors[:-1], emb_trimmed.vectors, rtol=1e-12, atol=1e-15)

    # The added sentence gets a zero weight row, so it adds only zero terms.
    padded_weights = np.vstack([weights, np.zeros((1, CONFIG.dim))])
    grads_padded = backward(PARAMS_64, cache_padded, padded_weights, PARAMS_64.zeros_like())
    grads_trimmed = backward(PARAMS_64, cache_trimmed, weights, PARAMS_64.zeros_like())
    for (name, a), (_, b) in zip(grads_padded.tensors(), grads_trimmed.tensors()):
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12), name


@settings(max_examples=10, deadline=None)
@given(
    sources=st.lists(sentence, min_size=2, max_size=12, unique=True),
    batch_size=st.integers(1, 5),
)
def test_train_stacks_each_batch_at_its_longest_real_length(sources, batch_size):
    corpus = ParallelCorpus(pairs=[(s, s) for s in sources])
    rows = np.random.default_rng(len(sources)).normal(size=(len(sources), CONFIG.dim))
    teacher = TeacherTable(embeddings=EmbeddingBatch(vectors=rows.astype(np.float32)))
    packed = []

    def recording_forward(params, batch):
        emb, cache = forward(params, batch)
        packed.append((cache.ids.size, cache.mask.sum(), sum(len(seq) for seq in batch)))
        return emb, cache

    with mock.patch.object(trainer_module, "forward", recording_forward):
        ckpt = train(
            corpus, teacher, VOCAB, CONFIG,
            TrainingConfig(loss="mse", epochs=1, batch_size=batch_size, max_len=MAX_LEN),
        )
    assert len(packed) == ckpt.training_meta["steps"] > 0
    for rows, real_rows, n_real in packed:
        assert rows == max(n_real, min(2, MAX_LEN))
        assert real_rows == n_real
