"""Encoder forward/backward: shapes, exact invariants, and gradients."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from xlembed import (
    EmbeddingBatch,
    EncoderConfig,
    ValidationError,
    backward,
    embed,
    encode_batch,
    forward,
    init_params,
)


def loss_and_grads(params, batch, weights):
    """Scalar probe loss sum(embeddings * weights) and its exact gradients."""
    emb, cache = forward(params, batch)
    value = float((emb.vectors * weights).sum())
    return value, backward(params, cache, weights, params.zeros_like())


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            EncoderConfig(vocab_size=2, dim=8, n_layers=1, n_heads=2)
        with pytest.raises(ValidationError):
            EncoderConfig(vocab_size=10, dim=6, n_layers=1, n_heads=4)
        with pytest.raises(ValidationError):
            EncoderConfig(vocab_size=10, dim=8, n_layers=0, n_heads=2)
        with pytest.raises(ValidationError):
            EncoderConfig(vocab_size=10, dim=8, n_layers=1, n_heads=2, max_len=0)
        with pytest.raises(ValidationError):
            EncoderConfig(vocab_size=10, dim=8, n_layers=1, n_heads=2, seed=-1)


class TestInit:
    def test_same_seed_bit_identical(self, tiny_config):
        a = init_params(tiny_config)
        b = init_params(tiny_config)
        for (name, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb), name

    def test_seed_changes_weights(self, tiny_config):
        import dataclasses

        a = init_params(tiny_config)
        b = init_params(dataclasses.replace(tiny_config, seed=tiny_config.seed + 1))
        assert not np.array_equal(a.token_embedding, b.token_embedding)

    def test_gains_one_biases_zero_weights_random(self, tiny_config):
        params = init_params(tiny_config)
        for name, arr in params.tensors():
            leaf = name.rsplit(".", 1)[-1]
            if leaf.endswith("_gain"):
                assert np.array_equal(arr, np.ones_like(arr)), name
            elif leaf.endswith(("_b", "_bias")):
                assert np.array_equal(arr, np.zeros_like(arr)), name
            else:
                assert np.abs(arr).max() > 0, name
                assert np.abs(arr).std() > 0, name

    def test_default_dtype_float32(self, tiny_config):
        assert init_params(tiny_config).dtype == np.float32
        assert init_params(tiny_config, dtype=np.float64).dtype == np.float64

    def test_tensor_order_and_count(self, tiny_config):
        names = [name for name, _ in init_params(tiny_config).tensors()]
        assert names[0] == "token_embedding"
        assert names[1] == "position_embedding"
        assert names[-2:] == ["final_gain", "final_bias"]
        assert len(names) == 2 + 16 * tiny_config.n_layers + 2

    def test_param_count_closed_form(self, tiny_config):
        c = tiny_config
        d, f = c.dim, c.ffn_mult * c.dim
        per_layer = 4 * d * d + 2 * d * f + 9 * d + f
        expected = c.vocab_size * d + c.max_len * d + c.n_layers * per_layer + 2 * d
        assert init_params(c).n_params == expected
        assert c.n_params == expected

    def test_tensors_are_views_into_flat(self, tiny_config):
        params = init_params(tiny_config)
        offset = 0
        for name, arr in params.tensors():
            assert np.shares_memory(arr, params.flat), name
            assert np.array_equal(arr.ravel(), params.flat[offset : offset + arr.size]), name
            offset += arr.size
        assert offset == params.flat.size
        params.flat[:] = 0.0
        assert not params.layers[0].ffn_in_w.any() and not params.final_gain.any()


class TestForward:
    def test_shape_and_finiteness(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        batch = encode_batch(tiny_vocab, ["the cat sat", "a dog"], max_len=5)
        emb, cache = forward(params, batch)
        assert emb.vectors.shape == (2, tiny_config.dim)
        assert np.isfinite(emb.vectors).all()
        assert cache.ids.shape == (5,)

    def test_extra_padding_is_bit_exact_inert(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        short = encode_batch(tiny_vocab, ["the cat", "a dog sat"], max_len=3)
        # A real sentence of max_len words packs beside the other two.
        long = short + encode_batch(tiny_vocab, ["the sun is warm a dog"], max_len=6)
        emb_short, _ = forward(params, short)
        emb_long, cache_long = forward(params, long)
        assert cache_long.ids.shape == (2 + 3 + 6,)
        assert np.array_equal(emb_short.vectors, emb_long.vectors[:2])

    def test_rows_do_not_interact(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        texts = ["the cat sat", "a dog", "the the a"]
        together = embed(params, tiny_vocab, texts, max_len=6)
        for i, text in enumerate(texts):
            alone = embed(params, tiny_vocab, [text], max_len=6)
            assert np.array_equal(together.vectors[i], alone.vectors[0]), text

    def test_batch_order_permutes_rows(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        fwd = embed(params, tiny_vocab, ["the cat", "a dog"], max_len=4)
        rev = embed(params, tiny_vocab, ["a dog", "the cat"], max_len=4)
        assert np.array_equal(fwd.vectors[0], rev.vectors[1])
        assert np.array_equal(fwd.vectors[1], rev.vectors[0])

    def test_chunked_embed_matches_single_pass(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        texts = ["the cat", "a dog", "the a", "cat cat cat", "dog"]
        whole = embed(params, tiny_vocab, texts, max_len=4, batch_size=64)
        chunked = embed(params, tiny_vocab, texts, max_len=4, batch_size=2)
        assert np.array_equal(whole.vectors, chunked.vectors)

    def test_deterministic_across_calls(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        a = embed(params, tiny_vocab, ["the cat sat"], max_len=4)
        b = embed(params, tiny_vocab, ["the cat sat"], max_len=4)
        assert np.array_equal(a.vectors, b.vectors)

    def test_input_validation(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        with pytest.raises(ValidationError, match="empty batch"):
            forward(params, [])
        with pytest.raises(ValidationError, match="max_len"):
            forward(params, [[2] * 7])
        with pytest.raises(ValidationError, match="token id"):
            forward(params, [[tiny_config.vocab_size]])
        with pytest.raises(ValidationError, match="sequence 2: token id"):
            forward(params, [[2], [2, 3], [2, -1], [tiny_config.vocab_size]])
        with pytest.raises(ValidationError, match="sequence 1: no real tokens"):
            forward(params, [[2], []])
        with pytest.raises(ValidationError, match="sequence 0: token ids must be integers"):
            forward(params, [[2.9, 3]])
        with pytest.raises(ValidationError, match="sequence 1: token ids must be integers"):
            forward(params, [[2], [2**70]])
        with pytest.raises(ValidationError, match="max_len"):
            embed(params, tiny_vocab, ["the"], max_len=tiny_config.max_len + 1)
        for batch_size in (0, -1):
            with pytest.raises(ValidationError, match="batch_size"):
                embed(params, tiny_vocab, ["the", "a dog"], max_len=4, batch_size=batch_size)

    def test_embedding_batch_validation(self):
        with pytest.raises(ValidationError):
            EmbeddingBatch(vectors=np.zeros(4))
        with pytest.raises(ValidationError):
            EmbeddingBatch(vectors=np.zeros((0, 4)))
        with pytest.raises(ValidationError):
            EmbeddingBatch(vectors=np.array([[1.0, np.nan]]))


class TestBackward:
    def test_directional_derivative_matches(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config, dtype=np.float64)
        batch = encode_batch(tiny_vocab, ["the cat sat", "a dog", "the a"], max_len=5)
        rng = np.random.default_rng(9)
        weights = rng.normal(size=(3, tiny_config.dim))
        _, grads = loss_and_grads(params, batch, weights)

        direction = params.map(lambda a: rng.normal(size=a.shape))
        eps = 1e-6
        plus = params.map(lambda p, d: p + eps * d, direction)
        minus = params.map(lambda p, d: p - eps * d, direction)
        fd = (
            loss_and_grads(plus, batch, weights)[0]
            - loss_and_grads(minus, batch, weights)[0]
        ) / (2 * eps)
        analytic = sum(
            float((g * d).sum())
            for (_, g), (_, d) in zip(grads.tensors(), direction.tensors())
        )
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))

    def test_position_grads_zero_beyond_batch_length(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config, dtype=np.float64)
        batch = encode_batch(tiny_vocab, ["the cat"], max_len=3)
        _, grads = loss_and_grads(params, batch, np.ones((1, tiny_config.dim)))
        assert np.array_equal(
            grads.position_embedding[3:], np.zeros_like(grads.position_embedding[3:])
        )

    def test_unused_token_rows_get_zero_grad(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config, dtype=np.float64)
        batch = encode_batch(tiny_vocab, ["the cat"], max_len=2)
        _, grads = loss_and_grads(params, batch, np.ones((1, tiny_config.dim)))
        used = {tiny_vocab.token_to_id["the"], tiny_vocab.token_to_id["cat"]}
        for row in range(tiny_config.vocab_size):
            row_grad = grads.token_embedding[row]
            if row in used:
                assert np.abs(row_grad).max() > 0
            else:
                assert np.array_equal(row_grad, np.zeros_like(row_grad))

    def test_grad_output_shape_checked(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        batch = encode_batch(tiny_vocab, ["the cat"], max_len=3)
        _, cache = forward(params, batch)
        with pytest.raises(ValidationError, match="grad_output"):
            backward(params, cache, np.ones((2, tiny_config.dim)), params.zeros_like())

    def test_zeroes_and_returns_the_callers_buffer(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        batch = encode_batch(tiny_vocab, ["the cat", "a dog ran"], max_len=4)
        _, cache = forward(params, batch)
        weights = np.ones((2, tiny_config.dim))
        fresh = backward(params, cache, weights, params.zeros_like())
        dirty = params.map(lambda a: np.full_like(a, np.nan))
        assert backward(params, cache, weights, dirty) is dirty
        assert dirty.flat.tobytes() == fresh.flat.tobytes()
        wider = dataclasses.replace(tiny_config, vocab_size=tiny_config.vocab_size + 1)
        for wrong in (init_params(tiny_config, dtype=np.float64), init_params(wider)):
            with pytest.raises(ValidationError, match="grads"):
                backward(params, cache, weights, wrong)

    def test_grads_mirror_param_tree(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        batch = encode_batch(tiny_vocab, ["the cat"], max_len=3)
        _, cache = forward(params, batch)
        grads = backward(params, cache, np.ones((1, tiny_config.dim)), params.zeros_like())
        for (name_p, p), (name_g, g) in zip(params.tensors(), grads.tensors()):
            assert name_p == name_g
            assert p.shape == g.shape
            assert g.dtype == p.dtype
