"""Encoder forward/backward: shapes, exact invariants, and gradients."""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest

from xlembed import (
    EmbeddingBatch,
    EncoderConfig,
    EncoderParams,
    ParallelCorpus,
    ValidationError,
    backward,
    build_vocab,
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


class TestLayerHalves:
    HALVES = (
        "_embed_tokens", "_attention_forward", "_ffn_forward", "_pool",
        "_pool_backward", "_ffn_backward", "_attention_backward", "_embed_tokens_backward",
    )

    def test_forward_embed_and_backward_share_the_halves(self, tiny_vocab, monkeypatch):
        from xlembed import encoder as encoder_module

        calls = []
        for name in self.HALVES:

            def record(*args, _name=name, _real=getattr(encoder_module, name)):
                # The forward halves take keep last; the others take no flag.
                keep = args[-1] if _name in ("_attention_forward", "_ffn_forward") else None
                calls.append((_name, keep))
                return _real(*args)

            monkeypatch.setattr(encoder_module, name, record)
        config = EncoderConfig(vocab_size=tiny_vocab.size, dim=8, n_layers=3, n_heads=2, max_len=6)
        params = init_params(config)

        def layers(*names, keep=None):
            return [(name, keep) for name in names] * config.n_layers

        texts = ["the cat sat", "a dog ran fast", "birds sing", "the sun"]
        emb, cache = forward(params, encode_batch(tiny_vocab, texts, config.max_len))
        forward_calls = (
            [("_embed_tokens", None)]
            + layers("_attention_forward", "_ffn_forward", keep=True)
            + [("_pool", None)]
        )
        assert calls == forward_calls
        calls.clear()
        backward(params, cache, np.ones_like(emb.vectors), params.zeros_like())
        assert calls == (
            [("_pool_backward", None)]
            + layers("_ffn_backward", "_attention_backward")
            + [("_embed_tokens_backward", None)]
        )
        calls.clear()
        # Four texts in chunks of two: two passes, each without a cache.
        embed(params, tiny_vocab, texts, config.max_len, batch_size=2)
        embed_calls = (
            [("_embed_tokens", None)]
            + layers("_attention_forward", "_ffn_forward", keep=False)
            + [("_pool", None)]
        )
        assert calls == embed_calls * 2


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

    @pytest.mark.parametrize(
        "field", ["vocab_size", "dim", "n_layers", "n_heads", "ffn_mult", "max_len", "seed"]
    )
    def test_rejects_bool_counts(self, field):
        # bool is a subclass of int: True would pass as 1 and False as 0.
        fields = dict(vocab_size=10, dim=1, n_layers=1, n_heads=1, ffn_mult=1, max_len=1, seed=0)
        EncoderConfig(**fields)
        fields[field] = field != "seed"
        with pytest.raises(ValidationError, match=field):
            EncoderConfig(**fields)


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
        assert len(names) == 2 + 12 * tiny_config.n_layers + 2

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
        # 5 real tokens, padded to the floor of 16 rows.
        assert cache.ids.shape == (16,)
        assert cache.mask.sum() == 5

    def test_extra_padding_is_bit_exact_inert(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        short = encode_batch(tiny_vocab, ["the cat", "a dog sat"], max_len=3)
        # A real sentence of max_len words packs beside the other two.
        long = short + encode_batch(tiny_vocab, ["the sun is warm a dog"], max_len=6)
        emb_short, _ = forward(params, short)
        emb_long, cache_long = forward(params, long)
        assert cache_long.ids.shape == (16,)
        assert cache_long.mask.sum() == 2 + 3 + 6
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

    def test_embed_holds_about_one_layer(self, traced_peak):
        # embed keeps no activations for backward. At its peak a chunk holds
        # the block's input, the attention output, the (rows, 4·dim) FFN
        # activation that the GELU overwrites and the block's output: about
        # 7 (rows, dim) arrays, 8 as traced. Keeping forward's cache of ~10
        # such arrays per layer instead peaks at about 31 here.
        words = [f"w{i}" for i in range(100)]
        vocab = build_vocab(ParallelCorpus(pairs=[(w, w) for w in words]), side="source")
        config = EncoderConfig(vocab_size=vocab.size, dim=128, n_layers=2, n_heads=4, max_len=64)
        params = init_params(config)
        rng = np.random.default_rng(0)
        texts = [" ".join(rng.choice(words, size=64)) for _ in range(32)]
        peak = traced_peak(lambda: embed(params, vocab, texts, 64, batch_size=32))
        assert peak < 12 * len(texts) * 64 * config.dim * params.dtype.itemsize

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
        with pytest.raises(ValidationError, match="no texts to embed"):
            embed(params, tiny_vocab, [], max_len=4)
        with pytest.raises(ValidationError, match="max_len"):
            embed(params, tiny_vocab, ["the"], max_len=tiny_config.max_len + 1)
        for batch_size in (0, -1, 2.0, True):
            with pytest.raises(ValidationError, match="batch_size"):
                embed(params, tiny_vocab, ["the", "a dog"], max_len=4, batch_size=batch_size)

    def test_embed_rejects_a_vocab_larger_than_the_token_table(
        self, tiny_config, tiny_vocab, monkeypatch
    ):
        from xlembed import encoder as encoder_module

        calls = []
        real_encode = encoder_module._encode

        def counting_encode(*args, **kwargs):
            calls.append(args)
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(encoder_module, "_encode", counting_encode)
        small = dataclasses.replace(tiny_config, vocab_size=tiny_vocab.size - 1)
        with pytest.raises(
            ValidationError, match=f"{tiny_vocab.size} entries .* {tiny_vocab.size - 1} rows"
        ):
            embed(init_params(small), tiny_vocab, ["the cat sat", "birds sing"], max_len=4)
        assert calls == []
        large = dataclasses.replace(tiny_config, vocab_size=tiny_vocab.size + 3)
        emb = embed(init_params(large), tiny_vocab, ["the cat sat", "birds sing"], max_len=4)
        assert emb.vectors.shape == (2, large.dim) and len(calls) == 1

    def test_embed_max_len_must_be_an_integer(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        for max_len in (1.5, True, 0):
            with pytest.raises(ValidationError, match="max_len"):
                embed(params, tiny_vocab, ["the cat"], max_len=max_len)

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

        direction = EncoderParams(params.config, rng.normal(size=params.n_params))
        eps = 1e-6
        plus = EncoderParams(params.config, params.flat + eps * direction.flat)
        minus = EncoderParams(params.config, params.flat - eps * direction.flat)
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
        dirty = EncoderParams(params.config, np.full_like(params.flat, np.nan))
        _, cache = forward(params, batch)
        assert backward(params, cache, weights, dirty) is dirty
        assert dirty.flat.tobytes() == fresh.flat.tobytes()
        wider = dataclasses.replace(tiny_config, vocab_size=tiny_config.vocab_size + 1)
        for wrong in (init_params(tiny_config, dtype=np.float64), init_params(wider)):
            with pytest.raises(ValidationError, match="grads"):
                backward(params, cache, weights, wrong)

    def test_second_backward_on_one_cache_raises_before_writing(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        batch = encode_batch(tiny_vocab, ["the cat", "a dog ran"], max_len=4)
        _, cache = forward(params, batch)
        weights = np.ones((2, tiny_config.dim))
        grads = backward(params, cache, weights, params.zeros_like())
        assert cache.tape == []
        before = grads.flat.tobytes()
        with pytest.raises(ValidationError, match="consumed"):
            backward(params, cache, weights, grads)
        assert grads.flat.tobytes() == before

    def test_rejected_arguments_leave_the_cache_whole(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        batch = encode_batch(tiny_vocab, ["the cat", "a dog ran"], max_len=4)
        weights = np.ones((2, tiny_config.dim))
        expected = loss_and_grads(params, batch, weights)[1].flat.tobytes()
        _, cache = forward(params, batch)
        with pytest.raises(ValidationError, match="grad_output"):
            backward(params, cache, weights[:1], params.zeros_like())
        nan_weights = weights.copy()
        nan_weights[1, 2] = np.nan
        grads = EncoderParams(params.config, np.ones_like(params.flat))
        with pytest.raises(ValidationError, match="grad_output must be finite"):
            backward(params, cache, nan_weights, grads)
        assert (grads.flat == 1).all()
        with pytest.raises(ValidationError, match="grads"):
            backward(params, cache, weights, init_params(tiny_config, dtype=np.float64))
        assert len(cache.tape) == 2 * tiny_config.n_layers + 1
        assert backward(params, cache, weights, params.zeros_like()).flat.tobytes() == expected

    def test_each_tape_entry_dies_at_its_last_read(self, tiny_vocab, monkeypatch, overlap):
        # With the weight-gradient products on the helper thread too, and
        # with a helper that runs nothing until backward waits for it: the
        # jobs of a half hold parts of its entry, and must have let go of
        # them by the time the next half is entered.
        from xlembed import encoder as encoder_module

        config = EncoderConfig(vocab_size=tiny_vocab.size, dim=8, n_layers=3, n_heads=2, max_len=6)
        params = init_params(config)
        texts = ["the cat sat", "a dog ran fast", "birds sing", "the sun"]

        def arrays(entry):
            if isinstance(entry, np.ndarray):
                yield entry
            else:
                for part in entry:
                    yield from arrays(part)

        def check(name):
            # The half being entered reads the entry just popped, at index
            # len(cache.tape); every entry past it was popped and read earlier.
            current = len(cache.tape)
            if name != "_embed_tokens_backward":
                assert all(ref() is not None for ref in refs[current])
                read.append(current)
            for i in range(current + 1, len(refs)):
                assert all(ref() is None for ref in refs[i]), (name, i)

        for name in ("_ffn_backward", "_attention_backward", "_embed_tokens_backward"):

            def checked(*args, _name=name, _real=getattr(encoder_module, name)):
                check(_name)
                return _real(*args)

            monkeypatch.setattr(encoder_module, name, checked)
        for mode in ("off", "on", "stalled"):
            overlap(mode)
            emb, cache = forward(params, encode_batch(tiny_vocab, texts, config.max_len))
            refs = [[weakref.ref(a) for a in arrays(entry)] for entry in cache.tape]
            read = []
            backward(params, cache, np.ones_like(emb.vectors), params.zeros_like())
            assert read == list(range(2 * config.n_layers - 1, -1, -1)), mode
            assert all(ref() is None for entry in refs for ref in entry), mode
            del emb, cache

    def test_grads_mirror_param_tree(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        batch = encode_batch(tiny_vocab, ["the cat"], max_len=3)
        _, cache = forward(params, batch)
        grads = backward(params, cache, np.ones((1, tiny_config.dim)), params.zeros_like())
        for (name_p, p), (name_g, g) in zip(params.tensors(), grads.tensors()):
            assert name_p == name_g
            assert p.shape == g.shape
            assert g.dtype == p.dtype
