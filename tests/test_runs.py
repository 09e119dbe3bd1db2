"""Attention over runs of equal-length sentences, and `embed`'s length-sorted chunks.

`forward` runs attention once per run of consecutive sentences of one
length, so a run's sentences share stacked products and softmax passes.
That must not reach the bytes: a sentence's row is the same in a run, next
to other lengths or alone, at the paper-default width and at dim 128.
`embed` sorts its texts by token count and cuts them into as many chunks as
chunks of ``batch_size`` texts would make, with near-equal row counts.
"""

from __future__ import annotations

import math
from unittest import mock

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
from xlembed import encoder as encoder_module

WORDS = [f"w{i:02d}" for i in range(40)]
VOCAB = build_vocab(ParallelCorpus(pairs=[(w, w) for w in WORDS]), side="source")
PARAMS = init_params(
    EncoderConfig(vocab_size=VOCAB.size, dim=32, n_layers=2, n_heads=4, max_len=16, seed=21)
)
WIDE_PARAMS = init_params(
    EncoderConfig(vocab_size=VOCAB.size, dim=128, n_layers=1, n_heads=4, max_len=64, seed=22)
)
words = st.sampled_from(WORDS + ["unknown"])


@st.composite
def runs_of_texts(draw, max_len, max_count):
    """Texts in groups of one length: runs of two or more, and lone sentences."""
    groups = st.tuples(st.integers(1, max_len), st.integers(1, max_count))
    texts = []
    for n, count in draw(st.lists(groups, min_size=1, max_size=5)):
        sentence = st.lists(words, min_size=n, max_size=n).map(" ".join)
        texts += draw(st.lists(sentence, min_size=count, max_size=count))
    return texts


def assert_runs_match_each_sentence_alone(params, texts, batch_size):
    max_len = params.config.max_len
    batch = encode_batch(VOCAB, texts, max_len)
    together = forward(params, batch)[0].vectors
    for i, seq in enumerate(batch):
        alone = forward(params, [seq])[0].vectors[0]
        assert together[i].tobytes() == alone.tobytes(), texts[i]
    rows = embed(params, VOCAB, texts, max_len, batch_size=batch_size).vectors
    assert rows.tobytes() == together.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    texts=runs_of_texts(max_len=16, max_count=5),
    wide_texts=runs_of_texts(max_len=64, max_count=3),
    data=st.data(),
)
def test_rows_in_runs_equal_each_sentence_alone(texts, wide_texts, data):
    # Small draws give batches of fewer than 16 tokens, which get padding rows.
    for params, some_texts in ((PARAMS, texts), (WIDE_PARAMS, wide_texts)):
        batch_size = data.draw(st.integers(1, len(some_texts)), label="batch_size")
        assert_runs_match_each_sentence_alone(params, some_texts, batch_size)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 16), min_size=1, max_size=40),
    batch_size=st.integers(1, 45),
)
def test_embed_cuts_sorted_texts_into_chunks_of_near_equal_rows(lengths, batch_size):
    texts = [" ".join(WORDS[:n]) for n in lengths]
    chunks = []
    encode = encoder_module._encode

    def recording(params, batch, keep):
        chunks.append([len(seq) for seq in batch])
        return encode(params, batch, keep)

    with mock.patch.object(encoder_module, "_encode", recording):
        embed(PARAMS, VOCAB, texts, 16, batch_size=batch_size)
    count = math.ceil(len(texts) / batch_size)
    assert len(chunks) == count
    # Every text is embedded once, and the chunks run from short to long.
    assert [n for chunk in chunks for n in chunk] == sorted(lengths)
    for chunk in chunks:
        assert sum(chunk) <= sum(lengths) / count + 16
