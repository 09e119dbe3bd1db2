"""Evaluation protocols: similarity, paraphrase accuracy, correlations, timing.

All statistics are computed in double precision. Spearman uses fractional
(average) ranks, so ties are handled the standard way.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .encoder import EmbeddingBatch, EncoderParams, embed
from .errors import ValidationError
from .losses import cosine
from .tokenizer import Vocab


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
        record: dict[str, object] = {"task": self.task}
        for key in ("mcs", "accuracy", "pearson_r", "spearman_rho"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        record["inference_seconds"] = self.inference_seconds
        record["n_items"] = self.n_items
        return json.dumps(record, sort_keys=True)


def _paired_cosines(a: EmbeddingBatch, b: EmbeddingBatch) -> np.ndarray:
    if a.count != b.count or a.dim != b.dim:
        raise ValidationError(
            f"batches are misaligned: ({a.count}, {a.dim}) vs ({b.count}, {b.dim})"
        )
    return np.asarray([cosine(u, v) for u, v in zip(a.vectors, b.vectors)], dtype=np.float64)


def mean_cosine_similarity(a: EmbeddingBatch, b: EmbeddingBatch) -> float:
    """Mean over aligned rows of their cosine similarity."""
    return float(_paired_cosines(a, b).mean())


def paraphrase_accuracy(
    a: EmbeddingBatch, b: EmbeddingBatch, labels: list[int], threshold: float = 0.8
) -> float:
    """Fraction of pairs whose thresholded cosine matches the 0/1 label.

    A pair is predicted positive exactly when cosine >= threshold; the
    boundary itself counts as positive.
    """
    if len(labels) != a.count:
        raise ValidationError(f"{len(labels)} labels for {a.count} pairs")
    if any(l not in (0, 1) for l in labels):
        raise ValidationError("labels must be 0 or 1")
    cosines = _paired_cosines(a, b)
    predictions = cosines >= threshold
    return float((predictions == np.asarray(labels, dtype=bool)).mean())


def _as_clean_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size < 2:
        raise ValidationError(f"{name} needs at least 2 values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def pearson(x, y) -> float:
    """Sample Pearson correlation; constant input is an error."""
    x = _as_clean_1d(x, "x")
    y = _as_clean_1d(y, "y")
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = dx @ dx
    syy = dy @ dy
    if sxx == 0.0 or syy == 0.0:
        raise ValidationError("correlation is undefined for a constant sequence")
    return float((dx @ dy) / np.sqrt(sxx * syy))


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    x = _as_clean_1d(x, "x")
    y = _as_clean_1d(y, "y")
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    return pearson(_fractional_ranks(x), _fractional_ranks(y))


def time_inference(
    params: EncoderParams, vocab: Vocab, texts: list[str], max_len: int
) -> tuple[EmbeddingBatch, float]:
    """Embed all texts once; returns the embeddings and the wall-clock seconds.

    Callers compute their metrics from these embeddings, so the time is that
    of the pass that produced them. Texts are already in memory, so file I/O
    never enters the measurement.
    """
    if not texts:
        raise ValidationError("no texts to time")
    start = time.perf_counter()
    batch = embed(params, vocab, texts, max_len)
    return batch, time.perf_counter() - start
