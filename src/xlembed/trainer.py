"""Distillation training loop, AdamW optimizer, and checkpoint files.

The schedule is linear warmup to the base learning rate followed by linear
decay to zero. Optimizer math runs in the parameter dtype, as the reference
AdamW does, and in a fixed order, so runs are bit-reproducible for a fixed
seed.

Checkpoints are little-endian binary: magic ``BEMB``, format version
(u32), a u32-length-prefixed UTF-8 JSON blob holding the encoder config
and training metadata, the 32-byte SHA-256 of the vocabulary file content,
then the flat parameter buffer as float32 (every tensor in the fixed
order of ``EncoderParams.tensors()``).
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .corpus import ParallelCorpus
from .encoder import (
    EmbeddingBatch,
    EncoderConfig,
    EncoderParams,
    _encode_texts,
    backward,
    forward,
    init_params,
)
from .errors import FormatError, ValidationError, check_count, check_real
from .losses import LossResult, mnr_loss, mse_loss
from .teacher import TeacherTable, _read_f4, _read_header
from .tokenizer import Vocab

logger = logging.getLogger(__name__)

_MAGIC = b"BEMB"
_VERSION = 2
_HEADER = struct.Struct("<4sII")
_HASH_BYTES = 32
# adamw_step's slice length: short enough that a block stays in cache
# through its 15 element-wise passes.
_ADAMW_BLOCK = 65536


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for one training run; defaults follow the reference recipe."""

    loss: str = "mse"
    epochs: int = 10
    batch_size: int = 4
    base_lr: float = 5e-5
    warmup_ratio: float = 0.1
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scale: float = 20.0
    max_len: int = 64
    seed: int = 0
    log_path: str | None = None

    def __post_init__(self) -> None:
        if self.loss not in ("mse", "mnr"):
            raise ValidationError(f"loss must be 'mse' or 'mnr', got {self.loss!r}")
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("max_len", 1), ("seed", 0)):
            check_count(name, getattr(self, name), minimum)
        for name in ("base_lr", "warmup_ratio", "weight_decay", "beta1", "beta2", "eps", "scale"):
            check_real(name, getattr(self, name))
        if self.loss == "mnr" and self.batch_size < 2:
            raise ValidationError("ranking loss needs in-batch negatives; batch_size must be >= 2")
        if self.base_lr <= 0.0:
            raise ValidationError(f"base_lr must be positive, got {self.base_lr}")
        if not 0.0 < self.warmup_ratio < 1.0:
            raise ValidationError(f"warmup_ratio must be in (0, 1), got {self.warmup_ratio}")
        if self.weight_decay < 0.0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValidationError(f"betas must be in (0, 1), got ({self.beta1}, {self.beta2})")
        if self.eps <= 0.0:
            raise ValidationError(f"eps must be positive, got {self.eps}")
        if self.scale <= 0.0:
            raise ValidationError(f"scale must be positive, got {self.scale}")


@dataclass
class OptimizerState:
    """AdamW's first and second moment estimates ``m`` and ``v`` and the
    step counter: everything a continued run needs of the optimizer.

    ``m`` and ``v`` are flat arrays in the dtype of the parameters and laid
    out like ``EncoderParams.flat``.
    """

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls, params: EncoderParams) -> "OptimizerState":
        return cls(
            m=np.zeros(params.n_params, dtype=params.dtype),
            v=np.zeros(params.n_params, dtype=params.dtype),
        )


@dataclass
class Checkpoint:
    """A trained encoder: vocab fingerprint, weights, run metadata.

    ``config`` is read from the weights, so a checkpoint cannot pair them
    with another architecture (2 and 4 heads, say, hold as many scalars).
    """

    vocab_hash: bytes
    params: EncoderParams
    training_meta: dict[str, Any] = field(default_factory=dict)

    @property
    def config(self) -> EncoderConfig:
        return self.params.config


def lr_at(step: int, total_steps: int, warmup_ratio: float, base_lr: float) -> float:
    """Learning rate at a given step of a linear warmup + linear decay run.

    The rate climbs linearly from 0 to base_lr over the first
    round(warmup_ratio * total_steps) steps, then falls linearly back to 0
    at total_steps. Both endpoints are exactly zero and the peak is hit
    exactly once.
    """
    if total_steps < 1:
        raise ValidationError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValidationError(f"step {step} outside [0, {total_steps}]")
    if not 0.0 < warmup_ratio < 1.0:
        raise ValidationError(f"warmup_ratio must be in (0, 1), got {warmup_ratio}")
    if total_steps == 1:
        return 0.0
    warmup = int(round(warmup_ratio * total_steps))
    warmup = max(1, min(warmup, total_steps - 1))
    if step <= warmup:
        return base_lr * step / warmup
    return base_lr * (total_steps - step) / (total_steps - warmup)


def adamw_step(
    params: EncoderParams,
    grads: EncoderParams,
    state: OptimizerState,
    lr: float,
    config: TrainingConfig,
) -> None:
    """One AdamW update with bias correction and decoupled weight decay.

    Decay multiplies parameters by (1 - lr * weight_decay) before the
    moment-driven update is subtracted. The arithmetic runs in the dtype of
    the parameters, one block of the flat buffer at a time, in two
    block-long work rows taken once per call (their first ``len(block)``
    columns) and straight in ``params.flat``, so a block's operations stay
    in cache.
    Every operation is element-wise, so the blocks give the same bytes as
    whole-buffer passes. ``params`` and ``state`` are updated in place;
    ``grads`` is only read. A gradient of another config or dtype than
    ``params``, moments of another shape or dtype than ``params.flat``, or
    a non-finite gradient raises before anything is written.
    """
    if grads.config != params.config or grads.dtype != params.dtype:
        raise ValidationError(
            f"gradients of {grads.config} in {grads.dtype} do not match "
            f"parameters of {params.config} in {params.dtype}"
        )
    for name, moment in (("m", state.m), ("v", state.v)):
        if moment.shape != params.flat.shape or moment.dtype != params.dtype:
            raise ValidationError(
                f"optimizer state {name} has shape {moment.shape} in {moment.dtype}; "
                f"the parameters need {params.flat.shape} in {params.dtype}"
            )
    if not np.isfinite(grads.flat).all():
        name = next(n for n, arr in grads.tensors() if not np.isfinite(arr).all())
        raise ValidationError(f"non-finite gradient in {name}; aborting the update")
    t = state.step_count + 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    work = np.empty((2, min(params.n_params, _ADAMW_BLOCK)), dtype=params.dtype)
    for start in range(0, params.n_params, _ADAMW_BLOCK):
        block = slice(start, start + _ADAMW_BLOCK)
        g, p = grads.flat[block], params.flat[block]
        m, v = state.m[block], state.v[block]
        a, b = work[:, : g.size]
        # m = b1 * m + (1 - b1) * g
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=b)
        np.add(m, b, out=m)
        # v = b2 * v + (1 - b2) * g**2
        np.square(g, out=a)
        np.multiply(a, 1.0 - b2, out=a)
        np.multiply(v, b2, out=v)
        np.add(v, a, out=v)
        # step = lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        np.add(a, config.eps, out=a)
        np.divide(m, bc1, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        # params = params * (1 - lr * weight_decay) - step
        np.multiply(p, 1.0 - lr * config.weight_decay, out=p)
        np.subtract(p, b, out=p)
    state.step_count = t


def _step(
    params: EncoderParams,
    grads: EncoderParams,
    batch: list[list[int]],
    target_rows: np.ndarray,
    config: TrainingConfig,
    step: int,
) -> LossResult:
    """Forward, loss and backward of one batch, with the gradients written
    to ``grads``; returns the loss result. The step's embeddings and cache
    are this call's locals, so they are freed when it returns, before the
    next step's forward allocates its own."""
    student, cache = forward(params, batch)
    target = EmbeddingBatch(vectors=target_rows)
    if config.loss == "mse":
        result: LossResult = mse_loss(target, student)
    else:
        result = mnr_loss(target, student, scale=config.scale)
    if not math.isfinite(result.value):
        raise ValidationError(f"loss became non-finite at step {step}; aborting")
    backward(params, cache, result.grad_student, grads)
    return result


def train(
    corpus: ParallelCorpus,
    teacher: TeacherTable,
    vocab: Vocab,
    enc_config: EncoderConfig,
    train_config: TrainingConfig,
) -> Checkpoint:
    """Distill the teacher table into a freshly initialized student encoder.

    Row i of the teacher must describe pair i of the corpus. Each epoch
    visits the pairs in a fresh permutation drawn from the seeded RNG. Each
    step embeds a batch of source sentences, scores them against the matching
    teacher rows, and applies one AdamW update under the warmup/decay
    schedule. A step's activations are freed before the next step's
    forward, so training holds one step's cache at a time. Text is admitted
    as ``embed`` admits it (see ``_encode_texts``). The teacher is never
    modified. Per-step records (step, epoch, lr, loss) go to
    train_config.log_path when set; the file is closed however the run
    ends. Steps are counted only in the ``OptimizerState``'s ``step_count``.
    """
    n = len(corpus.pairs)
    if n < 1:
        raise ValidationError("cannot train on an empty corpus")
    if teacher.count != n:
        raise ValidationError(
            f"teacher table has {teacher.count} rows but the corpus has {n} pairs; "
            "they must align one to one"
        )
    if teacher.dim != enc_config.dim:
        raise ValidationError(
            f"teacher dimension {teacher.dim} != encoder dimension {enc_config.dim}"
        )
    seqs = _encode_texts(enc_config, vocab, corpus.sources(), train_config.max_len)
    singleton_tail = train_config.loss == "mnr" and n % train_config.batch_size == 1
    steps_per_epoch = math.ceil(n / train_config.batch_size) - singleton_tail
    if steps_per_epoch < 1:
        raise ValidationError("corpus is too small to form a single usable batch")
    if singleton_tail:
        logger.warning(
            "final batch of each epoch has a single pair and no negatives; skipping it"
        )
    total_steps = train_config.epochs * steps_per_epoch

    params = init_params(enc_config)
    grads = params.zeros_like()
    state = OptimizerState.zeros(params)
    rng = np.random.default_rng(train_config.seed)

    log_path = train_config.log_path
    loss_value = float("nan")
    with open(log_path, "w", encoding="utf-8") if log_path else contextlib.nullcontext() as log_fh:
        for epoch in range(train_config.epochs):
            order = rng.permutation(n)
            for b in range(steps_per_epoch):
                idx = order[b * train_config.batch_size : (b + 1) * train_config.batch_size]
                batch, target_rows = [seqs[i] for i in idx], teacher.embeddings.vectors[idx]
                step = state.step_count
                loss_value = _step(params, grads, batch, target_rows, train_config, step).value
                lr = lr_at(step, total_steps, train_config.warmup_ratio, train_config.base_lr)
                adamw_step(params, grads, state, lr, train_config)
                if log_fh is not None:
                    log_fh.write(f"{step}\t{epoch}\t{lr:.8g}\t{loss_value:.10g}\n")

    meta = {"loss": train_config.loss, "steps": state.step_count, "final_loss": loss_value}
    return Checkpoint(vocab_hash=vocab.content_hash(), params=params, training_meta=meta)


# The weight returned by init_params is float32, so float32 on disk loses
# nothing: save -> load -> save reproduces the byte stream exactly.


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    if len(ckpt.vocab_hash) != _HASH_BYTES:
        raise ValidationError(
            f"vocab hash must be {_HASH_BYTES} bytes, got {len(ckpt.vocab_hash)}"
        )
    meta_json = json.dumps(
        {"config": asdict(ckpt.config), "training_meta": ckpt.training_meta},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    parts = [
        _HEADER.pack(_MAGIC, _VERSION, len(meta_json)),
        meta_json,
        ckpt.vocab_hash,
        ckpt.params.flat.astype("<f4", copy=False).tobytes(),
    ]
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> Checkpoint:
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"no such file: {p}")
    with open(p, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        (json_len,) = _read_header(fh, p, _HEADER, _MAGIC, _VERSION, "checkpoint")
        if _HEADER.size + json_len + _HASH_BYTES > file_size:
            raise FormatError(f"{p}: truncated checkpoint (metadata extends past end of file)")
        meta = fh.read(json_len + _HASH_BYTES)
        try:
            payload = json.loads(meta[:json_len].decode("utf-8"))
            config = EncoderConfig(**payload["config"])
            training_meta = payload["training_meta"]
            if not isinstance(training_meta, dict):
                raise TypeError(f"training_meta must be an object, got {training_meta!r}")
        except (ValueError, KeyError, TypeError, ValidationError) as exc:
            raise FormatError(f"{p}: invalid checkpoint metadata: {exc}") from exc
        vocab_hash = meta[json_len:]

        size = file_size - _HEADER.size - json_len - _HASH_BYTES
        expected = 4 * config.n_params
        if size != expected:
            problem = "truncated checkpoint" if size < expected else "trailing bytes after the last tensor"
            raise FormatError(f"{p}: {problem} ({size} parameter bytes, the config needs {expected})")
        flat = _read_f4(fh, (config.n_params,), p)
    return Checkpoint(vocab_hash, EncoderParams(config, flat), training_meta)
