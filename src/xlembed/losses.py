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

# Smallest normal float64: a squared norm below it has lost bits, or is 0.
_TINY = np.finfo(np.float64).tiny


@dataclass
class LossResult:
    """Scalar objective value plus its gradient w.r.t. student rows."""

    value: float
    grad_student: np.ndarray


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two vectors, clamped into [-1, 1].

    The clamp only absorbs float round-off past the mathematical bounds; a
    zero-norm input or a non-finite entry is an error.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise ValidationError(f"vector shapes differ: {u.shape} vs {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValidationError("cosine similarity is undefined for a non-finite entry")
    return float(_row_cosines(u[None, :], v[None, :])[0])


def _row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row pair of two aligned, finite (n, d) arrays, in
    float64: ``a[i] @ b[i] / (sqrt(a[i] @ a[i]) * sqrt(b[i] @ b[i]))``,
    clamped into [-1, 1]. A zero row is an error.

    Each dot product has the bits of the 1-D ``u @ v`` of that pair's rows,
    taken C-contiguous so that the result does not depend on the inputs'
    memory layout (BLAS sums a strided dot product in another order). A
    pair whose squared norms overflow, or fall below float64's normal
    range, is computed again from its rows scaled by a power of two,
    exactly, so that each row's largest entry lies in [0.5, 1); a cosine
    does not change under that scaling.
    """
    a, b = (np.ascontiguousarray(x, dtype=np.float64) for x in (a, b))
    with np.errstate(over="ignore", under="ignore"):
        ab, aa, bb = _row_products(a, b)
        lost = ~(np.isfinite(aa) & np.isfinite(bb) & (aa >= _TINY) & (bb >= _TINY))
        if lost.any():
            a, b = (np.ldexp(x, -np.frexp(np.abs(x).max(axis=1))[1][:, None])
                    for x in (a[lost], b[lost]))
            ab[lost], aa[lost], bb[lost] = _row_products(a, b)
    if (aa == 0.0).any() or (bb == 0.0).any():
        raise ValidationError("cosine similarity is undefined for a zero vector")
    return np.clip(ab / (np.sqrt(aa) * np.sqrt(bb)), -1.0, 1.0)


def _row_products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """``a[i] @ b[i]``, ``a[i] @ a[i]`` and ``b[i] @ b[i]`` of each row pair.

    One (1, d) @ (d, 1) product per pair; einsum and (a * b).sum(axis=1)
    sum in another order and miss the bits of the 1-D product.
    """
    return tuple(np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]
                 for x, y in ((a, b), (a, a), (b, b)))


def _unit_rows(rows: np.ndarray, zero_row_message: str) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize float64 rows; returns (unit rows, norms). A zero row
    raises ValidationError with the caller's message."""
    norms = np.sqrt((rows * rows).sum(axis=1))
    if (norms == 0.0).any():
        raise ValidationError(zero_row_message)
    return rows / norms[:, None], norms


def _aligned(a: EmbeddingBatch, b: EmbeddingBatch,
             what: str = "teacher and student batches") -> tuple[np.ndarray, np.ndarray]:
    """The rows of two batches of one shape, in float64; ``what`` names the
    batches when their shapes differ."""
    if a.count != b.count or a.dim != b.dim:
        raise ValidationError(
            f"{what} are misaligned: ({a.count}, {a.dim}) vs ({b.count}, {b.dim})"
        )
    return np.asarray(a.vectors, dtype=np.float64), np.asarray(b.vectors, dtype=np.float64)


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
    t_hat, _ = _unit_rows(t, "ranking loss is undefined for zero-norm rows")
    s_hat, s_norms = _unit_rows(s, "ranking loss is undefined for zero-norm rows")
    cosines = np.clip(t_hat @ s_hat.T, -1.0, 1.0)
    value, d_logits = _diagonal_softmax_loss(scale * cosines)
    d_cos = scale * d_logits
    # d cos_ij / d s_j = (t_hat_i - cos_ij * s_hat_j) / |s_j|
    col = (d_cos * cosines).sum(axis=0)
    grad_student = (d_cos.T @ t_hat - col[:, None] * s_hat) / s_norms[:, None]
    return LossResult(value=value, grad_student=grad_student)
