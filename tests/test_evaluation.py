"""Evaluation metrics against hand-worked values and definitional oracles."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlembed import (
    EmbeddingBatch,
    EvalReport,
    ValidationError,
    cosine,
    embed,
    init_params,
    mean_cosine_similarity,
    paraphrase_accuracy,
    pearson,
    spearman,
    time_inference,
)
from xlembed.evaluation import _paired_cosines


def batch(rows):
    return EmbeddingBatch(vectors=np.asarray(rows, dtype=np.float64))


def pearson_by_definition(x, y):
    """Direct transcription of the formula, accumulating with plain floats."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    return num / den


def ranks_by_definition(values):
    """Average-rank assignment computed the slow, obvious way."""
    return [
        1 + sum(1 for v in values if v < u) + (sum(1 for v in values if v == u) - 1) / 2
        for u in values
    ]


def cosine_by_pair(u, v):
    """One pair's cosine as a per-pair loop computes it: float64 1-D dot
    products of C-contiguous rows, clamped with min and max."""
    u = np.array(u, dtype=np.float64)
    v = np.array(v, dtype=np.float64)
    return float(min(1.0, max(-1.0, (u @ v) / (np.sqrt(u @ u) * np.sqrt(v @ v)))))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 300),
    dim=st.integers(1, 768),
    dtype=st.sampled_from([np.float32, np.float64]),
    log_scale=st.floats(-3.0, 3.0),
    pairing=st.sampled_from(["independent", "parallel", "opposite"]),
    layout=st.sampled_from(["C", "F", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=300, dim=768, dtype=np.float32, log_scale=3.0, pairing="independent", layout="C", seed=0)
@example(n=300, dim=768, dtype=np.float64, log_scale=-3.0, pairing="parallel", layout="F", seed=1)
def test_batched_cosines_have_the_bits_of_per_pair_ones(n, dim, dtype, log_scale, pairing, layout, seed):
    # Parallel and opposite rows put cosines at the clamp; every dot product
    # must keep the bits of the pair's own 1-D product whatever the layout.
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=(n, dim)) * 10.0**log_scale).astype(dtype)
    b = {"independent": (rng.normal(size=(n, dim)) * 10.0**log_scale).astype(dtype),
         "parallel": a * dtype(3.0), "opposite": a * dtype(-0.5)}[pairing]
    if layout == "F":
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    elif layout == "strided":
        a, b = np.repeat(a, 2, axis=1)[:, ::2], np.repeat(b, 2, axis=1)[:, ::2]
    expected = np.array([cosine_by_pair(u, v) for u, v in zip(a, b)])
    got = _paired_cosines(EmbeddingBatch(vectors=a), EmbeddingBatch(vectors=b))
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
    one_by_one = np.array([cosine(u, v) for u, v in zip(a, b)])
    assert one_by_one.tobytes() == expected.tobytes()


class TestMeanCosineSimilarity:
    def test_hand_case(self):
        a = batch([[1.0, 0.0], [4.0, 3.0]])
        b = batch([[1.0, 0.0], [1.0, 0.0]])
        # Row cosines are exactly 1.0 and 0.8.
        assert mean_cosine_similarity(a, b) == 0.9

    def test_misaligned_rejected(self):
        with pytest.raises(ValidationError, match="misaligned"):
            mean_cosine_similarity(batch([[1.0, 0.0]]), batch([[1.0, 0.0], [0.0, 1.0]]))


class TestParaphraseAccuracy:
    def test_boundary_counts_as_positive(self):
        # Cosines: exactly 0.8 (the 3-4-5 construction), 1.0, and 0.0.
        a = batch([[4.0, 3.0], [2.0, 0.0], [0.0, 1.0]])
        b = batch([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        assert paraphrase_accuracy(a, b, [1, 1, 0], threshold=0.8) == 1.0
        assert paraphrase_accuracy(a, b, [0, 1, 0], threshold=0.8) == pytest.approx(2 / 3)
        # Nudging the threshold above 0.8 flips only the boundary pair.
        assert paraphrase_accuracy(a, b, [1, 1, 0], threshold=0.81) == pytest.approx(2 / 3)
        assert paraphrase_accuracy(a, b, [1, 1, 0], threshold=0.79) == 1.0

    def test_label_validation(self):
        a = batch([[1.0, 0.0]])
        with pytest.raises(ValidationError, match="labels"):
            paraphrase_accuracy(a, a, [2])
        with pytest.raises(ValidationError, match="labels"):
            paraphrase_accuracy(a, a, [1, 0])
        for threshold in (float("nan"), "0.8"):
            with pytest.raises(ValidationError, match="threshold"):
                paraphrase_accuracy(a, a, [1], threshold=threshold)


class TestPearson:
    def test_tie_free_hand_case(self):
        # Classic anchor: r([1,2,3], [1,3,2]) = 0.5 exactly.
        assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == 0.5

    def test_perfect_and_inverted(self):
        assert pearson([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_matches_definition_on_random_data(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert abs(pearson(x, y) - pearson_by_definition(list(x), list(y))) <= 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert math.isclose(pearson(x, y), pearson(2.5 * x + 7, y), rel_tol=1e-12)
        assert math.isclose(pearson(x, y), -pearson(-x, y), rel_tol=1e-12)

    def test_errors(self):
        with pytest.raises(ValidationError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="length"):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="at least 2"):
            pearson([1.0], [2.0])
        with pytest.raises(ValidationError, match="non-finite"):
            pearson([1.0, np.nan], [1.0, 2.0])


class TestSpearman:
    def test_tie_free_hand_case(self):
        # One adjacent swap out of 3: rho = 1 - 6*2/(3*8) = 0.5; a rotation
        # like [3,1,2] gives rank distance 6 and rho = -0.5, both exact.
        assert spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == 0.5
        assert spearman([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == -0.5

    def test_monotone_transform_invariance(self):
        x = [0.1, 2.0, 3.5, 7.0]
        y = [5.0, 1.0, 4.0, 2.0]
        assert spearman(x, y) == spearman([math.exp(v) for v in x], y)

    def test_tied_values_share_average_rank(self):
        # values [10, 20, 20]: ranks 1, 2.5, 2.5
        from xlembed.evaluation import _fractional_ranks

        ranks = _fractional_ranks(np.array([10.0, 20.0, 20.0]))
        assert np.array_equal(ranks, np.array([1.0, 2.5, 2.5]))

    def test_ranks_match_definition_with_ties(self):
        from xlembed.evaluation import _fractional_ranks

        rng = np.random.default_rng(33)
        cases = [np.array([0.0, -1.0, -0.0, 2.0, 0.0])]  # -0.0 and 0.0 tie
        for _ in range(50):
            n = int(rng.integers(2, 30))
            cases.append(rng.integers(0, 5, size=n).astype(np.float64))
        for values in cases:
            # Average ranks are exact half-integers, so they compare exactly.
            assert np.array_equal(_fractional_ranks(values), ranks_by_definition(list(values)))

    def test_matches_rank_then_pearson_on_tied_data(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            n = int(rng.integers(3, 25))
            x = rng.integers(0, 4, size=n).astype(np.float64)
            y = rng.integers(0, 4, size=n).astype(np.float64)
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            expected = pearson_by_definition(ranks_by_definition(list(x)), ranks_by_definition(list(y)))
            assert abs(spearman(x, y) - expected) <= 1e-12


class TestTiming:
    def test_returns_the_timed_embeddings(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        texts = ["the cat", "a dog"]
        batch, seconds = time_inference(params, tiny_vocab, texts, max_len=4)
        assert np.array_equal(batch.vectors, embed(params, tiny_vocab, texts, max_len=4).vectors)
        assert seconds > 0.0

    def test_validation(self, tiny_config, tiny_vocab):
        params = init_params(tiny_config)
        with pytest.raises(ValidationError):
            time_inference(params, tiny_vocab, [], max_len=4)


class TestEvalReport:
    def test_json_round_trip_and_key_set(self):
        report = EvalReport(
            task="sts", inference_seconds=0.25, n_items=10, pearson_r=0.5, spearman_rho=0.4
        )
        line = report.to_json()
        assert json.loads(line) == {
            "task": "sts",
            "pearson_r": 0.5,
            "spearman_rho": 0.4,
            "inference_seconds": 0.25,
            "n_items": 10,
        }
        assert line == (
            '{"inference_seconds": 0.25, "n_items": 10, "pearson_r": 0.5, '
            '"spearman_rho": 0.4, "task": "sts"}'
        )

    def test_absent_metrics_are_omitted(self):
        report = EvalReport(task="paraphrase", inference_seconds=0.1, n_items=3, accuracy=1.0, mcs=0.9)
        record = json.loads(report.to_json())
        assert set(record) == {"task", "accuracy", "mcs", "inference_seconds", "n_items"}

    def test_validation(self):
        with pytest.raises(ValidationError):
            EvalReport(task="retrieval", inference_seconds=0.1, n_items=1)
        with pytest.raises(ValidationError):
            EvalReport(task="sts", inference_seconds=0.1, n_items=0)
        with pytest.raises(ValidationError):
            EvalReport(task="paraphrase", inference_seconds=0.1, n_items=1, accuracy=1.5)
