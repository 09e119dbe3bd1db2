"""Distillation objectives: mean squared error and in-batch ranking loss.

Both losses compare a frozen teacher batch against aligned student
embeddings (row i of each side describes the same sentence pair). Values
and gradients are computed in double precision regardless of the dtype the
embeddings arrive in; gradients flow to the student only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EmbeddingBatch
from .errors import ValidationError, check_real


@dataclass
class LossResult:
    """Scalar objective value plus its gradient w.r.t. student rows."""

    value: float
    grad_student: np.ndarray


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two vectors, clamped into [-1, 1].

    The clamp only absorbs float round-off past the mathematical bounds; a
    zero-norm input is an error.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise ValidationError(f"vector shapes differ: {u.shape} vs {v.shape}")
    nu = np.sqrt(u @ u)
    nv = np.sqrt(v @ v)
    if nu == 0.0 or nv == 0.0:
        raise ValidationError("cosine similarity is undefined for a zero vector")
    return float(min(1.0, max(-1.0, (u @ v) / (nu * nv))))


def _aligned(teacher: EmbeddingBatch, student: EmbeddingBatch) -> tuple[np.ndarray, np.ndarray]:
    if teacher.count != student.count or teacher.dim != student.dim:
        raise ValidationError(
            f"teacher and student batches are misaligned: "
            f"({teacher.count}, {teacher.dim}) vs ({student.count}, {student.dim})"
        )
    t = np.asarray(teacher.vectors, dtype=np.float64)
    s = np.asarray(student.vectors, dtype=np.float64)
    return t, s


def mse_loss(teacher: EmbeddingBatch, student: EmbeddingBatch) -> LossResult:
    """Mean squared error over every element of the batch.

    The divisor is count * dim, so the value is invariant to how the same
    numbers are arranged into rows. Gradient w.r.t. the student is
    2 * (student - teacher) / (count * dim).
    """
    t, s = _aligned(teacher, student)
    diff = s - t
    n_elements = diff.size
    value = float((diff * diff).sum() / n_elements)
    return LossResult(value=value, grad_student=2.0 * diff / n_elements)


def _diagonal_softmax_loss(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over rows of -log softmax(row)[diagonal]; returns (value, d/dlogits).

    Decreasing any off-diagonal logit (a harder negative moved further
    away) can never increase this loss.
    """
    n = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    denom = e.sum(axis=1, keepdims=True)
    log_probs = (logits - m) - np.log(denom)
    value = float(-np.trace(log_probs) / n)
    d_logits = (e / denom - np.eye(n)) / n
    return value, d_logits


def mnr_loss(teacher: EmbeddingBatch, student: EmbeddingBatch, scale: float = 20.0) -> LossResult:
    """Multiple-negatives ranking loss over one aligned batch.

    Every pairing (teacher_i, student_j) gets a logit scale * cosine; row i
    treats student_i as the positive and the other count - 1 rows as
    negatives, scored with softmax cross-entropy. At scale 1 the value is
    the plain ranking objective; larger scales sharpen the softmax. A
    single-row batch has no negatives and scores exactly zero.
    """
    check_real("scale", scale)
    if scale <= 0.0:
        raise ValidationError(f"scale must be positive, got {scale}")
    t, s = _aligned(teacher, student)
    t_norms = np.sqrt((t * t).sum(axis=1))
    s_norms = np.sqrt((s * s).sum(axis=1))
    if (t_norms == 0.0).any() or (s_norms == 0.0).any():
        raise ValidationError("ranking loss is undefined for zero-norm rows")
    t_hat = t / t_norms[:, None]
    s_hat = s / s_norms[:, None]
    cosines = np.clip(t_hat @ s_hat.T, -1.0, 1.0)
    value, d_logits = _diagonal_softmax_loss(scale * cosines)
    d_cos = scale * d_logits
    # d cos_ij / d s_j = (t_hat_i - cos_ij * s_hat_j) / |s_j|
    col = (d_cos * cosines).sum(axis=0)
    grad_student = (d_cos.T @ t_hat - col[:, None] * s_hat) / s_norms[:, None]
    return LossResult(value=value, grad_student=grad_student)
