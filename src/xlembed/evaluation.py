"""Evaluation protocols: similarity, paraphrase accuracy, correlations, timing.

All statistics are computed in double precision. Spearman uses fractional
(average) ranks, so ties are handled the standard way.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass

import numpy as np

from .encoder import EmbeddingBatch, EncoderParams, embed
from .errors import ValidationError, check_array, check_real
from .losses import _aligned, _row_cosines
from .tokenizer import Vocab

# A pair is predicted a paraphrase when its cosine reaches this.
_THRESHOLD = 0.8


@dataclass
class EvalReport:
    """Metrics from one evaluation run, serializable as a single JSON line."""

    task: str
    inference_seconds: float
    n_items: int
    mcs: float | None = None
    accuracy: float | None = None
    pearson_r: float | None = None
    spearman_rho: float | None = None

    def __post_init__(self) -> None:
        if self.task not in ("paraphrase", "sts"):
            raise ValidationError(f"task must be 'paraphrase' or 'sts', got {self.task!r}")
        if self.n_items < 1:
            raise ValidationError(f"n_items must be >= 1, got {self.n_items}")
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ValidationError(f"accuracy {self.accuracy} outside [0, 1]")

    def to_json(self) -> str:
        record = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        return json.dumps(record, sort_keys=True)


def _paired_cosines(a: EmbeddingBatch, b: EmbeddingBatch) -> np.ndarray:
    return _row_cosines(*_aligned(a, b, "batches"))


def mean_cosine_similarity(a: EmbeddingBatch, b: EmbeddingBatch) -> float:
    """Mean over aligned rows of their cosine similarity."""
    return float(_paired_cosines(a, b).mean())


def paraphrase_accuracy(
    a: EmbeddingBatch, b: EmbeddingBatch, labels: list[int], threshold: float = _THRESHOLD
) -> float:
    """Fraction of pairs whose thresholded cosine matches the 0/1 label.

    A pair is predicted positive exactly when cosine >= threshold; the
    boundary itself counts as positive. The threshold must be finite.
    """
    if len(labels) != a.count:
        raise ValidationError(f"{len(labels)} labels for {a.count} pairs")
    if any(l not in (0, 1) for l in labels):
        raise ValidationError("labels must be 0 or 1")
    return _accuracy(_paired_cosines(a, b), labels, threshold)


def _accuracy(cosines: np.ndarray, labels: list[int], threshold: float = _THRESHOLD) -> float:
    """``paraphrase_accuracy`` of pairs with these cosines and valid 0/1
    labels, one per pair; the threshold must be finite."""
    check_real("threshold", threshold)
    return float(((cosines >= threshold) == np.asarray(labels, dtype=bool)).mean())


def _clean_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float64 1-D arrays of one length, at least 2, all finite."""
    x, y = (check_array(name, arr, np.float64).reshape(-1) for name, arr in (("x", x), ("y", y)))
    for name, arr in (("x", x), ("y", y)):
        if arr.size < 2:
            raise ValidationError(f"{name} needs at least 2 values, got {arr.size}")
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    return x, y


def pearson(x, y) -> float:
    """Sample Pearson correlation; constant input is an error."""
    x, y = _clean_pair(x, y)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = dx @ dx
    syy = dy @ dy
    if sxx == 0.0 or syy == 0.0:
        raise ValidationError("correlation is undefined for a constant sequence")
    return float((dx @ dy) / np.sqrt(sxx * syy))


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions.

    A group of ``count`` equal values whose last sorted position is ``last``
    spans positions ``last - count + 1`` to ``last``; the average is an exact
    half-integer.
    """
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return ((2 * last - counts + 1) / 2.0)[inverse]


def spearman(x, y) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    x, y = _clean_pair(x, y)
    return pearson(_fractional_ranks(x), _fractional_ranks(y))


def time_inference(
    params: EncoderParams, vocab: Vocab, texts: list[str], max_len: int
) -> tuple[EmbeddingBatch, float]:
    """Embed all texts once; returns the embeddings and the wall-clock seconds.

    Callers compute their metrics from these embeddings, so the time is that
    of the pass that produced them. Texts are already in memory, so file I/O
    never enters the measurement.
    """
    start = time.perf_counter()
    batch = embed(params, vocab, texts, max_len)
    return batch, time.perf_counter() - start
