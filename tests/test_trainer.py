"""Optimizer, schedule, training loop, and checkpoint format."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xlembed import (
    Checkpoint,
    EmbeddingBatch,
    EncoderConfig,
    EncoderParams,
    FormatError,
    OptimizerState,
    ParallelCorpus,
    TeacherTable,
    TrainingConfig,
    ValidationError,
    adamw_step,
    backward,
    build_vocab,
    embed,
    forward,
    init_params,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)
from xlembed import encoder as encoder_module
from xlembed import trainer as trainer_module


@pytest.fixture
def random_teacher(tiny_corpus, tiny_config):
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(len(tiny_corpus.pairs), tiny_config.dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return TeacherTable(embeddings=EmbeddingBatch(vectors=rows.astype(np.float32)))


def quick_config(**overrides):
    base = dict(loss="mse", epochs=2, batch_size=2, base_lr=1e-3, max_len=6, seed=0)
    base.update(overrides)
    return TrainingConfig(**base)


STEP_VOCAB = build_vocab(ParallelCorpus(pairs=[(f"w{i}", "x") for i in range(12)]), side="source")
STEP_CONFIG = EncoderConfig(
    vocab_size=STEP_VOCAB.size, dim=4, n_layers=1, n_heads=1, ffn_mult=1, max_len=6
)


class TestSchedule:
    def test_anchor_points_are_exact(self):
        base = 3e-4
        # warmup = round(0.1 * 100) = 10 steps
        assert lr_at(0, 100, 0.1, base) == 0.0
        assert lr_at(10, 100, 0.1, base) == base
        assert lr_at(100, 100, 0.1, base) == 0.0
        assert lr_at(5, 100, 0.1, base) == base * 0.5
        assert lr_at(55, 100, 0.1, base) == base * 0.5

    def test_rises_then_falls_with_one_peak(self):
        values = [lr_at(s, 40, 0.25, 1.0) for s in range(41)]
        peak = values.index(max(values))
        assert peak == 10
        assert all(b > a for a, b in zip(values[:peak], values[1 : peak + 1]))
        assert all(b < a for a, b in zip(values[peak:], values[peak + 1 :]))

    def test_single_step_run_stays_at_zero(self):
        assert lr_at(0, 1, 0.1, 1.0) == 0.0
        assert lr_at(1, 1, 0.1, 1.0) == 0.0

    def test_tiny_ratio_still_warms_up_for_one_step(self):
        # round(0.001 * 10) = 0 is clamped to a single warmup step.
        assert lr_at(0, 10, 0.001, 1.0) == 0.0
        assert lr_at(1, 10, 0.001, 1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            lr_at(0, 0, 0.1, 1.0)
        with pytest.raises(ValidationError):
            lr_at(11, 10, 0.1, 1.0)
        with pytest.raises(ValidationError):
            lr_at(-1, 10, 0.1, 1.0)
        with pytest.raises(ValidationError):
            lr_at(0, 10, 1.0, 1.0)


class TestAdamW:
    def test_first_step_with_unit_gradient(self, tiny_config):
        # With zeroed moments, bias correction makes the very first update
        # lr * g / (|g| + eps); for g = 1 that is lr to within eps.
        params = init_params(tiny_config)
        grads = EncoderParams(params.config, np.ones_like(params.flat))
        state = OptimizerState.zeros(params)
        config = quick_config(base_lr=0.1, weight_decay=0.0)
        adamw_step(params, grads, state, 0.1, config)
        gain_before = 1.0
        gain_after = float(params.final_gain[0])
        assert abs(gain_after - (gain_before - 0.1)) < 1e-7
        assert state.step_count == 1

    def test_two_constant_steps_accumulate(self, tiny_config):
        params = init_params(tiny_config)
        grads = EncoderParams(params.config, np.ones_like(params.flat))
        state = OptimizerState.zeros(params)
        config = quick_config(base_lr=0.1, weight_decay=0.0)
        adamw_step(params, grads, state, 0.1, config)
        adamw_step(params, grads, state, 0.1, config)
        # Bias-corrected moments stay at exactly g and g^2 for a constant
        # gradient, so each step subtracts the same amount.
        assert abs(float(params.final_gain[0]) - 0.8) < 1e-7
        assert state.step_count == 2

    def test_zero_gradient_leaves_only_decay(self, tiny_config):
        params = init_params(tiny_config)
        grads = params.zeros_like()
        state = OptimizerState.zeros(params)
        config = quick_config(base_lr=0.1, weight_decay=0.1)
        # (1 - 0.1 * 0.1) = 0.99, rounded to float32 and applied in float32.
        expected = params.token_embedding * np.float32(0.99)
        assert expected.dtype == np.float32
        adamw_step(params, grads, state, 0.1, config)
        assert np.array_equal(params.token_embedding, expected)
        assert float(params.final_gain[0]) == np.float32(0.99)

    def test_zero_lr_is_identity(self, tiny_config):
        params = init_params(tiny_config)
        before = params.flat.copy()
        grads = EncoderParams(params.config, np.ones_like(params.flat))
        state = OptimizerState.zeros(params)
        adamw_step(params, grads, state, 0.0, quick_config())
        assert params.flat.tobytes() == before.tobytes()

    def test_state_takes_the_params_dtype(self, tiny_config):
        for dtype in (np.float32, np.float64):
            params = init_params(tiny_config, dtype)
            state = OptimizerState.zeros(params)
            assert state.m.dtype == state.v.dtype == dtype
            grads = EncoderParams(params.config, np.ones_like(params.flat))
            adamw_step(params, grads, state, 1e-3, quick_config())
            assert params.dtype == dtype
            assert state.m.dtype == state.v.dtype == dtype

    def test_non_finite_gradients_name_the_tensor(self, tiny_config):
        params = init_params(tiny_config)
        grads = params.zeros_like()
        grads.layers[0].ffn_in_w[0, 0] = np.nan
        with pytest.raises(ValidationError, match="ffn_in_w"):
            adamw_step(params, grads, OptimizerState.zeros(params), 1e-3, quick_config())

    @pytest.mark.parametrize(
        "case",
        [
            "state of a larger encoder",
            "state shorter than the parameters",
            "float64 m",
            "float64 v",
            "gradients of another config",
            "float64 gradients",
            "non-finite learning rate",
            "negative learning rate",
        ],
    )
    def test_mismatched_buffers_raise_before_any_write(self, case):
        # More than one 65,536-entry block, so a late failure would leave
        # the first block updated.
        config = EncoderConfig(vocab_size=2000, dim=32, n_layers=1, n_heads=2, ffn_mult=2)
        params = init_params(config)
        n = params.n_params
        assert n > trainer_module._ADAMW_BLOCK
        rng = np.random.default_rng(0)
        m = rng.normal(size=n).astype(np.float32)
        v = np.abs(rng.normal(size=n)).astype(np.float32)
        grads = EncoderParams(config, np.ones(n, dtype=np.float32))
        lr = {"non-finite learning rate": float("nan"), "negative learning rate": -1.0}.get(case, 1e-3)
        if case == "state of a larger encoder":
            m, v = np.resize(m, n + 80), np.resize(v, n + 80)
        elif case == "state shorter than the parameters":
            m, v = m[: n - 2000].copy(), v[: n - 2000].copy()
        elif case == "float64 m":
            m = m.astype(np.float64)
        elif case == "float64 v":
            v = v.astype(np.float64)
        elif case == "gradients of another config":
            # Four heads hold as many scalars as two.
            grads = EncoderParams(dataclasses.replace(config, n_heads=4), grads.flat)
        elif case == "float64 gradients":
            grads = EncoderParams(config, grads.flat.astype(np.float64))
        state = OptimizerState(m, v, step_count=3)
        before = [params.flat.copy(), m.copy(), v.copy()]
        with pytest.raises(ValidationError):
            adamw_step(params, grads, state, lr, quick_config())
        for after, original in zip([params.flat, state.m, state.v], before):
            assert after.dtype == original.dtype and after.tobytes() == original.tobytes()
        assert state.step_count == 3


class TestTrainingConfig:
    def test_defaults_are_valid(self):
        config = TrainingConfig()
        assert config.loss == "mse" and config.scale == 20.0

    def test_rejections(self):
        bad = [
            dict(loss="huber"),
            dict(epochs=0),
            dict(batch_size=0),
            dict(loss="mnr", batch_size=1),
            dict(base_lr=0.0),
            dict(warmup_ratio=0.0),
            dict(warmup_ratio=1.0),
            dict(weight_decay=-0.1),
            dict(beta1=1.0),
            dict(beta2=0.0),
            dict(eps=0.0),
            dict(scale=-1.0),
            dict(max_len=0),
            dict(seed=-1),
            dict(base_lr=math.nan),
            dict(base_lr=math.inf),
            dict(eps=math.nan),
            dict(scale=math.nan),
            dict(weight_decay=math.nan),
            dict(epochs=1.5),
            # bool is a subclass of int: True would pass as 1 and False as 0.
            dict(epochs=True),
            dict(batch_size=True),
            dict(max_len=True),
            dict(seed=False),
            dict(base_lr="1"),
            dict(eps=None),
            dict(beta1=True),
        ]
        for kwargs in bad:
            with pytest.raises(ValidationError):
                TrainingConfig(**kwargs)

    def test_fields_cannot_change_after_validation(self):
        config = TrainingConfig()
        for name, value in (("loss", "mes"), ("base_lr", -1.0), ("max_len", 128)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, name, value)
        assert config == TrainingConfig()
        assert dataclasses.replace(config, loss="mnr").loss == "mnr"
        with pytest.raises(ValidationError, match="loss"):
            dataclasses.replace(config, loss="mes")
        with pytest.raises(ValidationError, match="base_lr"):
            dataclasses.replace(config, base_lr=-1.0)


class TestTrain:
    def test_returns_finite_params_and_metadata(
        self, tiny_corpus, tiny_vocab, tiny_config, random_teacher
    ):
        ckpt = train(tiny_corpus, random_teacher, tiny_vocab, tiny_config, quick_config())
        assert isinstance(ckpt, Checkpoint)
        for name, arr in ckpt.params.tensors():
            assert np.isfinite(arr).all(), name
        assert ckpt.training_meta["loss"] == "mse"
        assert ckpt.training_meta["steps"] == 2 * 3  # 6 pairs / batch 2 * 2 epochs
        assert ckpt.vocab_hash == tiny_vocab.content_hash()
        assert ckpt.config == tiny_config

    def test_same_seed_reproduces_weights_bit_for_bit(
        self, tiny_corpus, tiny_vocab, tiny_config, random_teacher
    ):
        a = train(tiny_corpus, random_teacher, tiny_vocab, tiny_config, quick_config(epochs=3))
        b = train(tiny_corpus, random_teacher, tiny_vocab, tiny_config, quick_config(epochs=3))
        for (name, ta), (_, tb) in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(ta, tb), name

    def test_loss_drops_over_training(
        self, tiny_corpus, tiny_vocab, tiny_config, random_teacher, tmp_path
    ):
        log = tmp_path / "run.log"
        train(
            tiny_corpus,
            random_teacher,
            tiny_vocab,
            tiny_config,
            quick_config(epochs=30, base_lr=3e-3, log_path=str(log)),
        )
        lines = log.read_text().splitlines()
        assert len(lines) == 30 * 3
        first = float(lines[0].split("\t")[3])
        last = float(lines[-1].split("\t")[3])
        assert last < 0.7 * first

    def test_log_columns(self, tiny_corpus, tiny_vocab, tiny_config, random_teacher, tmp_path):
        log = tmp_path / "run.log"
        config = quick_config(epochs=2, log_path=str(log))
        train(tiny_corpus, random_teacher, tiny_vocab, tiny_config, config)
        lines = [line.split("\t") for line in log.read_text().splitlines()]
        total = len(lines)
        for step, fields in enumerate(lines):
            assert len(fields) == 4
            assert int(fields[0]) == step
            assert int(fields[1]) == step // 3
            expected_lr = lr_at(step, total, config.warmup_ratio, config.base_lr)
            assert float(fields[2]) == pytest.approx(expected_lr, rel=1e-6, abs=1e-12)

    def test_aborted_run_closes_its_log_after_the_finished_steps(
        self, tiny_corpus, tiny_vocab, tiny_config, random_teacher, tmp_path
    ):
        log = tmp_path / "run.log"
        abort_at = 4
        opened = []
        real_open = open

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        def failing_adamw_step(params, grads, state, lr, config):
            if state.step_count == abort_at:
                raise ValidationError("stop here")
            adamw_step(params, grads, state, lr, config)

        with mock.patch.object(trainer_module, "adamw_step", failing_adamw_step), mock.patch.object(
            trainer_module, "open", recording_open, create=True
        ), pytest.raises(ValidationError, match="stop here"):
            train(
                tiny_corpus, random_teacher, tiny_vocab, tiny_config,
                quick_config(epochs=3, log_path=str(log)),
            )
        assert len(opened) == 1 and opened[0].closed
        lines = log.read_text().splitlines()
        assert [int(line.split("\t")[0]) for line in lines] == list(range(abort_at))

    def test_vocab_must_fit_the_token_table(
        self, tiny_corpus, tiny_vocab, tiny_config, random_teacher
    ):
        calls = []

        def counting_forward(*args):
            calls.append(args)
            return forward(*args)

        small = dataclasses.replace(tiny_config, vocab_size=tiny_vocab.size - 1)
        with mock.patch.object(trainer_module, "forward", counting_forward), pytest.raises(
            ValidationError, match=f"{tiny_vocab.size} entries .* {tiny_vocab.size - 1} rows"
        ):
            train(tiny_corpus, random_teacher, tiny_vocab, small, quick_config())
        assert calls == []
        # A larger table trains; with no weight decay its extra rows keep their bytes.
        large = dataclasses.replace(tiny_config, vocab_size=tiny_vocab.size + 3)
        ckpt = train(tiny_corpus, random_teacher, tiny_vocab, large, quick_config(weight_decay=0.0))
        extra = slice(tiny_vocab.size, None)
        initial = init_params(large).token_embedding[extra]
        assert ckpt.params.token_embedding[extra].tobytes() == initial.tobytes()
        assert ckpt.params.flat.tobytes() != init_params(large).flat.tobytes()

    def test_train_and_embed_admit_text_alike(
        self, tiny_corpus, tiny_vocab, tiny_config, random_teacher
    ):
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        small = dataclasses.replace(tiny_config, vocab_size=tiny_vocab.size - 1)
        too_many = f"vocabulary has {tiny_vocab.size} entries but the encoder's token table"
        cases = [
            (tiny_config, 7, "max_len 7 exceeds the encoder's position table (6)"),
            (small, 6, f"{too_many} has {tiny_vocab.size - 1} rows"),
        ]
        with mock.patch.object(trainer_module, "forward", counting(forward)), mock.patch.object(
            encoder_module, "_encode", counting(encoder_module._encode)
        ):
            for config, max_len, message in cases:
                with pytest.raises(ValidationError) as trained:
                    train(tiny_corpus, random_teacher, tiny_vocab, config,
                          quick_config(max_len=max_len))
                with pytest.raises(ValidationError) as embedded:
                    embed(init_params(config), tiny_vocab, ["the cat sat"], max_len)
                assert str(trained.value) == str(embedded.value) == message
        assert calls == []

    def test_mnr_path_trains(self, tiny_corpus, tiny_vocab, tiny_config, random_teacher):
        ckpt = train(
            tiny_corpus,
            random_teacher,
            tiny_vocab,
            tiny_config,
            quick_config(loss="mnr", batch_size=2, epochs=2),
        )
        assert ckpt.training_meta["loss"] == "mnr"
        assert ckpt.training_meta["steps"] == 2 * 3

    def test_mnr_skips_singleton_tail_batch(self, tiny_vocab, tiny_config, caplog):
        corpus = ParallelCorpus(pairs=[(f"the cat {i}", f"t{i}") for i in range(5)])
        rng = np.random.default_rng(2)
        teacher = TeacherTable(
            embeddings=EmbeddingBatch(
                vectors=rng.normal(size=(5, tiny_config.dim)).astype(np.float32)
            )
        )
        with caplog.at_level(logging.WARNING, logger="xlembed.trainer"):
            ckpt = train(
                corpus, teacher, tiny_vocab, tiny_config,
                quick_config(loss="mnr", batch_size=2, epochs=3),
            )
        # ceil(5 / 2) = 3 batches, minus the unusable single-pair tail.
        assert ckpt.training_meta["steps"] == 3 * 2
        assert any("skipping" in rec.message for rec in caplog.records)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        batch_size=st.integers(1, 5),
        loss=st.sampled_from(["mse", "mnr"]),
        epochs=st.integers(1, 2),
    )
    @example(n=1, batch_size=2, loss="mnr", epochs=1)
    @example(n=3, batch_size=2, loss="mnr", epochs=1)
    @example(n=3, batch_size=2, loss="mse", epochs=1)
    def test_every_batch_is_a_step_but_the_ranking_losss_singleton_tail(
        self, n, batch_size, loss, epochs
    ):
        assume(loss == "mse" or batch_size >= 2)
        corpus = ParallelCorpus(pairs=[(f"w{i}", f"t{i}") for i in range(n)])
        rows = np.random.default_rng(n).normal(size=(n, STEP_CONFIG.dim)).astype(np.float32)
        teacher = TeacherTable(embeddings=EmbeddingBatch(vectors=rows))
        config = quick_config(loss=loss, batch_size=batch_size, epochs=epochs)
        tail = loss == "mnr" and n % batch_size == 1
        warnings: list[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = warnings.append
        trainer_module.logger.addHandler(handler)
        try:
            if loss == "mnr" and n == 1:
                with pytest.raises(ValidationError, match="single usable batch"):
                    train(corpus, teacher, STEP_VOCAB, STEP_CONFIG, config)
            else:
                ckpt = train(corpus, teacher, STEP_VOCAB, STEP_CONFIG, config)
                assert ckpt.training_meta["steps"] == epochs * (math.ceil(n / batch_size) - tail)
        finally:
            trainer_module.logger.removeHandler(handler)
        # A run with no step left raises before it drops anything.
        assert any("skipping" in rec.getMessage() for rec in warnings) == (tail and n > 1)

    def test_steps_reuse_one_gradient_buffer_and_update_params_in_place(
        self, tiny_corpus, tiny_vocab, tiny_config, random_teacher
    ):
        calls = []

        def recording_backward(params, cache, grad_output, grads):
            calls.append(("backward", params.flat, grads))
            return backward(params, cache, grad_output, grads)

        def recording_adamw_step(params, grads, state, lr, config):
            calls.append(("adamw_step", params.flat, grads))
            return adamw_step(params, grads, state, lr, config)

        with mock.patch.object(trainer_module, "backward", recording_backward), mock.patch.object(
            trainer_module, "adamw_step", recording_adamw_step
        ):
            ckpt = train(tiny_corpus, random_teacher, tiny_vocab, tiny_config, quick_config())
        steps = ckpt.training_meta["steps"]
        assert [name for name, _, _ in calls] == ["backward", "adamw_step"] * steps
        _, trained, grads = calls[0]
        for _, flat, call_grads in calls:
            assert flat is trained and call_grads is grads
        assert ckpt.params.flat.tobytes() == trained.tobytes()

    def test_holds_one_steps_activations(self, traced_peak, overlap, mode="on"):
        # Weights, gradients and AdamW's moments are 4·n_params floats, and
        # the two work rows each adamw_step call allocates 2·65,536 (one
        # block each). A step's cache keeps about 10 (rows, dim) arrays per
        # layer besides the attention probabilities; backward frees each
        # layer's part once it has read it, and its peak, in the last
        # layer's FFN backward, adds the FFN's (rows, 4·dim) gradient and a
        # few more. It peaks there at about 29.9 such arrays with the weight
        # gradients' products inline. On backward's helper thread, which
        # backward waits for as the next half is entered, a product can
        # still hold the FFN's (rows, 4·dim) gradient through the layer
        # norm's backward while it recomputes a layer norm's output: about
        # 30.9 to 32.0 arrays, and about 30.7 with a helper that runs each
        # product only once backward waits for it. A backward that keeps its cache whole and allocates a
        # fresh GELU output and layer norm gradient peaks at about 36,
        # holding the FFN's gradient through attention's backward as well at
        # about 42, keeping the layer norms' outputs and the GELU's tanh
        # term at about 54, and holding the last step's cache through the
        # next forward at about 80.
        overlap(mode)
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(100)]
        corpus = ParallelCorpus(
            pairs=[(" ".join(rng.choice(words, size=64)), "x") for _ in range(64)]
        )
        vocab = build_vocab(corpus, side="source")
        config = EncoderConfig(vocab_size=vocab.size, dim=128, n_layers=2, n_heads=4, max_len=64)
        rows = rng.normal(size=(64, config.dim)).astype(np.float32)
        teacher = TeacherTable(embeddings=EmbeddingBatch(vectors=rows))
        train_config = TrainingConfig(loss="mnr", epochs=1, batch_size=32, max_len=64)
        train(corpus, teacher, vocab, config, train_config)
        peak = traced_peak(lambda: train(corpus, teacher, vocab, config, train_config))
        itemsize = np.dtype(np.float32).itemsize
        assert peak < (4 * config.n_params + 2 * 65536 + 33 * 32 * 64 * config.dim) * itemsize

    def test_holds_them_with_a_stalled_helper_thread(self, traced_peak, overlap):
        self.test_holds_one_steps_activations(traced_peak, overlap, mode="stalled")

    def test_alignment_validation(self, tiny_corpus, tiny_vocab, tiny_config, random_teacher):
        short = TeacherTable(
            embeddings=EmbeddingBatch(vectors=random_teacher.embeddings.vectors[:-1])
        )
        with pytest.raises(ValidationError, match="align"):
            train(tiny_corpus, short, tiny_vocab, tiny_config, quick_config())
        wide = TeacherTable(
            embeddings=EmbeddingBatch(
                vectors=np.ones((len(tiny_corpus.pairs), tiny_config.dim + 1), dtype=np.float32)
            )
        )
        with pytest.raises(ValidationError, match="dimension"):
            train(tiny_corpus, wide, tiny_vocab, tiny_config, quick_config())
        with pytest.raises(ValidationError, match="max_len"):
            train(
                tiny_corpus, random_teacher, tiny_vocab, tiny_config,
                quick_config(max_len=tiny_config.max_len + 1),
            )
        with pytest.raises(ValidationError, match="empty"):
            train(
                ParallelCorpus(pairs=[]),
                random_teacher,
                tiny_vocab,
                tiny_config,
                quick_config(),
            )


class TestCheckpointFile:
    @pytest.fixture
    def trained(self, tiny_corpus, tiny_vocab, tiny_config, random_teacher):
        return train(tiny_corpus, random_teacher, tiny_vocab, tiny_config, quick_config())

    def test_round_trip_preserves_everything(self, trained, tmp_path):
        path = tmp_path / "model.bemb"
        save_checkpoint(trained, path)
        loaded = load_checkpoint(path)
        assert loaded.config == trained.config
        assert loaded.vocab_hash == trained.vocab_hash
        assert loaded.training_meta == trained.training_meta
        assert loaded.params.dtype == np.float32
        for (name, a), (_, b) in zip(trained.params.tensors(), loaded.params.tensors()):
            assert np.array_equal(a, b), name

    def test_save_load_save_is_byte_stable(self, trained, tmp_path):
        first = tmp_path / "a.bemb"
        second = tmp_path / "b.bemb"
        save_checkpoint(trained, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_embeddings_survive_round_trip(self, trained, tiny_vocab, tmp_path):
        path = tmp_path / "model.bemb"
        texts = ["the cat sat", "a dog"]
        before = embed(trained.params, tiny_vocab, texts, max_len=6)
        save_checkpoint(trained, path)
        after = embed(load_checkpoint(path).params, tiny_vocab, texts, max_len=6)
        assert np.array_equal(before.vectors, after.vectors)

    def test_rejects_corruption(self, trained, tmp_path):
        path = tmp_path / "model.bemb"
        save_checkpoint(trained, path)
        blob = path.read_bytes()
        (json_len,) = struct.unpack_from("<I", blob, 8)
        meta = json.loads(blob[12 : 12 + json_len])
        meta["config"]["vocab_size"] = 10**9
        huge = json.dumps(meta).encode("utf-8")
        meta["config"]["vocab_size"] = trained.config.vocab_size
        meta["config"]["seed"] = -1
        negative = json.dumps(meta).encode("utf-8")
        meta["config"]["seed"] = trained.config.seed
        meta["training_meta"] = 5
        scalar_meta = json.dumps(meta).encode("utf-8")
        cases = {
            "bad magic": b"XXXX" + blob[4:],
            "bad version": blob[:4] + struct.pack("<I", 9) + blob[8:],
            # Version 1 stored Q, K and V as separate tensors per layer: the
            # same payload size in another order, so it must not load.
            "version 1": blob[:4] + struct.pack("<I", 1) + blob[8:],
            "truncated tensor": blob[:-8],
            "trailing bytes": blob + b"\x00" * 4,
            "json overrun": blob[:8] + struct.pack("<I", 2**31) + blob[12:],
            # The size check must come before the ~30 GiB allocation.
            "huge vocab": blob[:8] + struct.pack("<I", len(huge)) + huge + blob[12 + json_len :],
            "negative seed": (
                blob[:8] + struct.pack("<I", len(negative)) + negative + blob[12 + json_len :]
            ),
            # training_meta["steps"] must not fail later with a TypeError.
            "scalar training_meta": (
                blob[:8] + struct.pack("<I", len(scalar_meta)) + scalar_meta + blob[12 + json_len :]
            ),
        }
        for label, corrupted in cases.items():
            bad = tmp_path / "bad.bemb"
            bad.write_bytes(corrupted)
            with pytest.raises(FormatError):
                load_checkpoint(bad)
        bad.write_bytes(cases["scalar training_meta"])
        with pytest.raises(FormatError, match="invalid checkpoint metadata: training_meta"):
            load_checkpoint(bad)

    def test_golden_checkpoint_digest(
        self, tiny_corpus, tiny_vocab, tiny_config, random_teacher, tmp_path, overlap
    ):
        # Pinned bytes of small trained checkpoints: a change to the
        # parameter layout, the optimizer arithmetic, a loss's arithmetic
        # (the ranking loss's row normalization among it) or the file format
        # shows up here. Six pairs in batches of 2 leave the ranking loss no
        # singleton tail to skip. They are too small for backward's helper
        # thread, so it is also forced on.
        golden = {
            "mse": "7fddc4c7d3460c4f332389a9d2500fd1fef1b2030845c28dbf5baf545797dd86",
            "mnr": "4d66f7d2d7f4425269f1df0aee13e9b2df95935c8f278fa4f3bcc2d98efcea41",
        }
        path = tmp_path / "golden.bemb"
        for mode in ("off", "on"):
            overlap(mode)
            for loss, expected in golden.items():
                config = quick_config(loss=loss, epochs=3)
                ckpt = train(tiny_corpus, random_teacher, tiny_vocab, tiny_config, config)
                save_checkpoint(ckpt, path)
                assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, (mode, loss)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            load_checkpoint(tmp_path / "absent.bemb")

    def test_save_rejects_bad_hash_length(self, trained, tmp_path):
        import dataclasses

        bad = dataclasses.replace(trained, vocab_hash=b"short")
        with pytest.raises(ValidationError, match="hash"):
            save_checkpoint(bad, tmp_path / "x.bemb")

    def test_config_is_read_from_the_weights(self, trained, tmp_path):
        import dataclasses

        # 2-head weights under a 4-head config: the same parameter count, so
        # a config stored apart from the weights could load as the wrong model.
        other = dataclasses.replace(trained.config, n_heads=4)
        assert other.n_params == trained.config.n_params
        with pytest.raises(TypeError, match="config"):
            dataclasses.replace(trained, config=other)
        assert trained.config is trained.params.config
        path = tmp_path / "x.bemb"
        save_checkpoint(trained, path)
        loaded = load_checkpoint(path)
        assert loaded.config is loaded.params.config
        assert loaded.config == trained.config
