"""Distillation training loop, AdamW optimizer, and checkpoint files.

The schedule is linear warmup to the base learning rate followed by linear
decay to zero. Optimizer math runs in double precision and results are cast
back to the parameter dtype, so runs are bit-reproducible for a fixed seed.

Checkpoints are little-endian binary: magic ``BEMB``, format version
(u32), a u32-length-prefixed UTF-8 JSON blob holding the encoder config
and training metadata, the 32-byte SHA-256 of the vocabulary file content,
then the flat parameter buffer as float32 (every tensor in the fixed
order of ``EncoderParams.tensors()``).
"""

from __future__ import annotations

import json
import logging
import math
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
    backward,
    forward,
    init_params,
)
from .errors import FormatError, ValidationError
from .losses import LossResult, mnr_loss, mse_loss
from .teacher import TeacherTable
from .tokenizer import Vocab, encode_batch

logger = logging.getLogger(__name__)

_MAGIC = b"BEMB"
_VERSION = 1
_HEADER = struct.Struct("<4sI")
_HASH_BYTES = 32


@dataclass
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
    shuffle: bool = True
    log_path: str | None = None

    def __post_init__(self) -> None:
        if self.loss not in ("mse", "mnr"):
            raise ValidationError(f"loss must be 'mse' or 'mnr', got {self.loss!r}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
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
        if self.max_len < 1:
            raise ValidationError(f"max_len must be >= 1, got {self.max_len}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OptimizerState:
    """First and second moment estimates, flat float64 arrays laid out like
    ``EncoderParams.flat``, two float64 work rows of the same length that
    ``adamw_step`` computes in, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls, params: EncoderParams) -> "OptimizerState":
        n = params.n_params
        return cls(
            m=np.zeros(n, dtype=np.float64),
            v=np.zeros(n, dtype=np.float64),
            work=np.empty((2, n), dtype=np.float64),
        )


@dataclass
class Checkpoint:
    """A trained encoder: config, vocab fingerprint, weights, run metadata."""

    config: EncoderConfig
    vocab_hash: bytes
    params: EncoderParams
    training_meta: dict[str, Any] = field(default_factory=dict)


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
    moment-driven update is subtracted. All arithmetic happens in float64
    over the whole flat buffer, in ``state``'s work rows; the result is cast
    back into ``params.flat``. ``params`` and ``state`` are updated in
    place. A non-finite gradient raises before anything is written.
    """
    if not np.isfinite(grads.flat).all():
        name = next(n for n, arr in grads.tensors() if not np.isfinite(arr).all())
        raise ValidationError(f"non-finite gradient in {name}; aborting the update")
    t = state.step_count + 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m, v = state.m, state.v
    a, b = state.work
    a[...] = grads.flat  # g, widened to float64 exactly
    # m = b1 * m + (1 - b1) * g
    np.multiply(m, b1, out=m)
    np.multiply(a, 1.0 - b1, out=b)
    np.add(m, b, out=m)
    # v = b2 * v + (1 - b2) * g**2
    np.square(a, out=a)
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
    a[...] = params.flat
    np.multiply(a, 1.0 - lr * config.weight_decay, out=a)
    np.subtract(a, b, out=a)
    params.flat[...] = a
    state.step_count = t


def _plan_epoch(n_pairs: int, config: TrainingConfig) -> int:
    """Number of optimizer steps per epoch, accounting for the tail batch."""
    batches = math.ceil(n_pairs / config.batch_size)
    if config.loss == "mnr" and n_pairs % config.batch_size == 1:
        batches -= 1
    return batches


def train(
    corpus: ParallelCorpus,
    teacher: TeacherTable,
    vocab: Vocab,
    enc_config: EncoderConfig,
    train_config: TrainingConfig,
) -> Checkpoint:
    """Distill the teacher table into a freshly initialized student encoder.

    Row i of the teacher must describe pair i of the corpus. Each step
    embeds a batch of source sentences, scores them against the matching
    teacher rows, and applies one AdamW update under the warmup/decay
    schedule. The teacher is never modified. Per-step records
    (step, epoch, lr, loss) go to train_config.log_path when set.
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
    if train_config.max_len > enc_config.max_len:
        raise ValidationError(
            f"training max_len {train_config.max_len} exceeds the encoder's "
            f"position table ({enc_config.max_len})"
        )
    steps_per_epoch = _plan_epoch(n, train_config)
    if steps_per_epoch < 1:
        raise ValidationError("corpus is too small to form a single usable batch")
    if train_config.loss == "mnr" and n % train_config.batch_size == 1:
        logger.warning(
            "final batch of each epoch has a single pair and no negatives; skipping it"
        )
    total_steps = train_config.epochs * steps_per_epoch

    params = init_params(enc_config)
    grads = params.zeros_like()
    state = OptimizerState.zeros(params)
    seqs = encode_batch(vocab, corpus.sources(), train_config.max_len)
    teacher_rows = np.asarray(teacher.embeddings.vectors)
    rng = np.random.default_rng(train_config.seed)

    log_fh = open(train_config.log_path, "w", encoding="utf-8") if train_config.log_path else None
    global_step = 0
    loss_value = float("nan")
    try:
        for epoch in range(train_config.epochs):
            order = rng.permutation(n) if train_config.shuffle else np.arange(n)
            for b in range(steps_per_epoch):
                idx = order[b * train_config.batch_size : (b + 1) * train_config.batch_size]
                student, cache = forward(params, [seqs[i] for i in idx])
                target = EmbeddingBatch(vectors=teacher_rows[idx])
                if train_config.loss == "mse":
                    result: LossResult = mse_loss(target, student)
                else:
                    result = mnr_loss(target, student, scale=train_config.scale)
                if not math.isfinite(result.value):
                    raise ValidationError(
                        f"loss became non-finite at step {global_step}; aborting"
                    )
                loss_value = result.value
                backward(params, cache, result.grad_student.astype(params.dtype), grads)
                lr = lr_at(global_step, total_steps, train_config.warmup_ratio, train_config.base_lr)
                adamw_step(params, grads, state, lr, train_config)
                if log_fh is not None:
                    log_fh.write(f"{global_step}\t{epoch}\t{lr:.8g}\t{loss_value:.10g}\n")
                global_step += 1
    finally:
        if log_fh is not None:
            log_fh.close()

    meta = {"loss": train_config.loss, "steps": global_step, "final_loss": loss_value}
    # Return the weights in a buffer allocated now, while the last step's
    # activations are still held, not in the working buffer allocated
    # before the first step. Living high on the heap, it keeps glibc malloc
    # from returning the activations' pages to the kernel when they are
    # freed, which the caller's next operations would fault back in (at dim
    # 128, batch 32, an `eval-sts` call after `train` took 4,400 more page
    # faults and ~15 ms longer).
    return Checkpoint(
        config=enc_config,
        vocab_hash=vocab.content_hash(),
        params=EncoderParams(enc_config, params.flat.copy()),
        training_meta=meta,
    )


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
        _HEADER.pack(_MAGIC, _VERSION),
        struct.pack("<I", len(meta_json)),
        meta_json,
        ckpt.vocab_hash,
        ckpt.params.flat.astype("<f4", copy=False).tobytes(),
    ]
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> Checkpoint:
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"no such file: {p}")
    blob = p.read_bytes()
    if len(blob) < _HEADER.size + 4:
        raise FormatError(f"{p}: too short to hold a checkpoint header")
    magic, version = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FormatError(f"{p}: bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise FormatError(f"{p}: unsupported format version {version}")
    (json_len,) = struct.unpack_from("<I", blob, _HEADER.size)
    offset = _HEADER.size + 4
    if offset + json_len + _HASH_BYTES > len(blob):
        raise FormatError(f"{p}: truncated checkpoint (metadata extends past end of file)")
    try:
        payload = json.loads(blob[offset : offset + json_len].decode("utf-8"))
        config = EncoderConfig(**payload["config"])
        training_meta = payload["training_meta"]
    except (ValueError, KeyError, TypeError, ValidationError) as exc:
        raise FormatError(f"{p}: invalid checkpoint metadata: {exc}") from exc
    offset += json_len
    vocab_hash = blob[offset : offset + _HASH_BYTES]
    offset += _HASH_BYTES

    size = len(blob) - offset
    expected = 4 * config.n_params
    if size != expected:
        problem = "truncated checkpoint" if size < expected else "trailing bytes after the last tensor"
        raise FormatError(f"{p}: {problem} ({size} parameter bytes, the config needs {expected})")
    flat = np.frombuffer(blob, dtype="<f4", offset=offset).astype(np.float32)
    params = EncoderParams(config, flat)
    return Checkpoint(
        config=config, vocab_hash=vocab_hash, params=params, training_meta=training_meta
    )
