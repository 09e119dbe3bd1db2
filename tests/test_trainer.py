"""Optimizer, schedule, training loop, and checkpoint format."""

from __future__ import annotations

import hashlib
import json
import logging
import struct
from unittest import mock

import numpy as np
import pytest

from xlembed import (
    Checkpoint,
    EmbeddingBatch,
    FormatError,
    OptimizerState,
    ParallelCorpus,
    TeacherTable,
    TrainingConfig,
    ValidationError,
    adamw_step,
    backward,
    embed,
    init_params,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)
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
        grads = params.map(lambda a: np.ones_like(a))
        state = OptimizerState.zeros(params)
        config = quick_config(base_lr=0.1, weight_decay=0.0)
        adamw_step(params, grads, state, 0.1, config)
        gain_before = 1.0
        gain_after = float(params.final_gain[0])
        assert abs(gain_after - (gain_before - 0.1)) < 1e-7
        assert state.step_count == 1

    def test_two_constant_steps_accumulate(self, tiny_config):
        params = init_params(tiny_config)
        grads = params.map(lambda a: np.ones_like(a))
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
        # (1 - 0.1 * 0.1) = 0.99 exactly, applied in float64 then cast back.
        expected = (params.token_embedding.astype(np.float64) * 0.99).astype(np.float32)
        adamw_step(params, grads, state, 0.1, config)
        assert np.array_equal(params.token_embedding, expected)
        assert float(params.final_gain[0]) == np.float32(0.99)

    def test_zero_lr_is_identity(self, tiny_config):
        params = init_params(tiny_config)
        before = params.flat.copy()
        grads = params.map(lambda a: np.ones_like(a))
        state = OptimizerState.zeros(params)
        adamw_step(params, grads, state, 0.0, quick_config())
        assert params.flat.tobytes() == before.tobytes()

    def test_moments_are_float64_and_params_keep_dtype(self, tiny_config):
        params = init_params(tiny_config)
        state = OptimizerState.zeros(params)
        assert state.m.dtype == np.float64 and state.v.dtype == np.float64
        adamw_step(params, params.map(np.ones_like), state, 1e-3, quick_config())
        assert params.dtype == np.float32
        assert state.m.dtype == np.float64

    def test_non_finite_gradients_name_the_tensor(self, tiny_config):
        params = init_params(tiny_config)
        grads = params.zeros_like()
        grads.layers[0].ffn_in_w[0, 0] = np.nan
        with pytest.raises(ValidationError, match="ffn_in_w"):
            adamw_step(params, grads, OptimizerState.zeros(params), 1e-3, quick_config())


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
        ]
        for kwargs in bad:
            with pytest.raises(ValidationError):
                TrainingConfig(**kwargs)


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
        cases = {
            "bad magic": b"XXXX" + blob[4:],
            "bad version": blob[:4] + struct.pack("<I", 9) + blob[8:],
            "truncated tensor": blob[:-8],
            "trailing bytes": blob + b"\x00" * 4,
            "json overrun": blob[:8] + struct.pack("<I", 2**31) + blob[12:],
            # The size check must come before the ~30 GiB allocation.
            "huge vocab": blob[:8] + struct.pack("<I", len(huge)) + huge + blob[12 + json_len :],
            "negative seed": (
                blob[:8] + struct.pack("<I", len(negative)) + negative + blob[12 + json_len :]
            ),
        }
        for label, corrupted in cases.items():
            bad = tmp_path / "bad.bemb"
            bad.write_bytes(corrupted)
            with pytest.raises(FormatError):
                load_checkpoint(bad)

    def test_golden_checkpoint_digest(
        self, tiny_corpus, tiny_vocab, tiny_config, random_teacher, tmp_path
    ):
        # Pinned bytes of a small trained checkpoint: a change to the
        # parameter layout, the optimizer arithmetic or the file format
        # shows up here.
        ckpt = train(tiny_corpus, random_teacher, tiny_vocab, tiny_config, quick_config(epochs=3))
        path = tmp_path / "golden.bemb"
        save_checkpoint(ckpt, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "bbc3c94c182cf11813da4bd9ecf50211c1c9907fc1603e56c298089814ca76b9"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            load_checkpoint(tmp_path / "absent.bemb")

    def test_save_rejects_bad_hash_length(self, trained, tmp_path):
        import dataclasses

        bad = dataclasses.replace(trained, vocab_hash=b"short")
        with pytest.raises(ValidationError, match="hash"):
            save_checkpoint(bad, tmp_path / "x.bemb")
