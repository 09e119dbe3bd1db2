"""Loss values checked against hand-worked cases and brute-force re-derivations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from xlembed import (
    EmbeddingBatch,
    ValidationError,
    cosine,
    mean_cosine_similarity,
    mnr_loss,
    mse_loss,
    paraphrase_accuracy,
)
from xlembed.losses import _unit_rows


def batch(rows):
    return EmbeddingBatch(vectors=np.asarray(rows, dtype=np.float64))


def mse_by_double_loop(t, s):
    """The definition, one squared difference at a time."""
    total = 0.0
    count = 0
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            total += (s[i, j] - t[i, j]) ** 2
            count += 1
    return total / count


def mnr_by_brute_force(t, s, scale):
    """The definition via explicit per-row softmax cross-entropy."""
    n = t.shape[0]
    logits = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            logits[i, j] = scale * cosine(t[i], s[j])
    total = 0.0
    for i in range(n):
        row = logits[i]
        log_z = math.log(np.exp(row - row.max()).sum()) + row.max()
        total += log_z - row[i]
    return total / n


class TestCosine:
    def test_three_four_five_triangle_is_exactly_point_eight(self):
        # dot([4,3],[1,0]) = 4, norms 5 and 1; 4/5 rounds to the same
        # double as the literal 0.8, so the comparison is exact.
        assert cosine([4.0, 3.0], [1.0, 0.0]) == 0.8

    def test_exact_anchor_values(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
        assert cosine([2.0, 0.0], [5.0, 0.0]) == 1.0
        assert cosine([3.0, 0.0], [-5.0, 0.0]) == -1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        assert math.isclose(cosine(u, v), cosine(3.0 * u, 0.25 * v), rel_tol=1e-12)

    def test_clamped_into_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            u = rng.normal(size=4)
            assert -1.0 <= cosine(u, rng.normal(size=4)) <= 1.0

    def test_errors(self):
        with pytest.raises(ValidationError):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValidationError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_rows_whose_squared_norm_leaves_float64_keep_their_cosine(self, scale):
        # Every entry is finite and no vector is zero, but u @ u overflows
        # at 1e200 and underflows to 0 at 1e-200.
        assert cosine([scale, scale], [scale, scale]) == 1.0
        assert cosine([4.0 * scale, 3.0 * scale], [scale, 0.0]) == pytest.approx(0.8, rel=1e-15)
        a = batch([[scale, scale], [1.0, 0.0]])
        b = batch([[scale, scale], [0.0, 1.0]])
        assert mean_cosine_similarity(a, b) == 0.5
        assert paraphrase_accuracy(a, b, [1, 0]) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_raises(self, bad):
        # Python's max(-1.0, nan) is -1.0, so an unchecked NaN cosine would
        # read as "opposite" instead of failing.
        with pytest.raises(ValidationError, match="non-finite"):
            cosine([bad, 1.0], [1.0, 1.0])
        with pytest.raises(ValidationError, match="non-finite"):
            cosine([1.0, 1.0], [1.0, bad])


class TestMseLoss:
    def test_hand_case(self):
        t = batch([[1.0, 2.0], [3.0, 4.0]])
        s = batch([[0.0, 0.0], [0.0, 0.0]])
        result = mse_loss(t, s)
        # Squared differences 1 + 4 + 9 + 16 = 30 over 4 elements.
        assert result.value == 7.5
        assert np.array_equal(result.grad_student, np.array([[-0.5, -1.0], [-1.5, -2.0]]))

    def test_zero_at_match(self):
        t = batch([[1.5, -2.0, 0.25]])
        result = mse_loss(t, t)
        assert result.value == 0.0
        assert np.array_equal(result.grad_student, np.zeros((1, 3)))

    def test_matches_double_loop_on_random_batches(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            t = rng.normal(size=(n, d))
            s = rng.normal(size=(n, d))
            got = mse_loss(batch(t), batch(s)).value
            assert abs(got - mse_by_double_loop(t, s)) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        t = rng.normal(size=(3, 4))
        s = rng.normal(size=(3, 4))
        grad = mse_loss(batch(t), batch(s)).grad_student
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                bump = np.zeros_like(s)
                bump[i, j] = eps
                fd = (
                    mse_loss(batch(t), batch(s + bump)).value
                    - mse_loss(batch(t), batch(s - bump)).value
                ) / (2 * eps)
                assert abs(fd - grad[i, j]) <= 1e-8

    def test_misaligned_batches_rejected(self):
        with pytest.raises(ValidationError, match="misaligned"):
            mse_loss(batch([[1.0, 2.0]]), batch([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValidationError, match="misaligned"):
            mse_loss(batch([[1.0, 2.0]]), batch([[1.0, 2.0, 3.0]]))


class TestMnrLoss:
    def test_uniform_logits_give_log_n(self):
        # All four pairings have cosine 1, so each row's softmax is uniform
        # over 4 candidates regardless of scale.
        rows = np.tile([3.0, 4.0], (4, 1))
        result = mnr_loss(batch(rows), batch(2.0 * rows), scale=20.0)
        assert abs(result.value - math.log(4.0)) <= 1e-12

    def test_identity_pairing_at_scale_one(self):
        eye = np.eye(2)
        result = mnr_loss(batch(eye), batch(eye), scale=1.0)
        # Each row: positive logit 1, negative logit 0 -> loss ln(1 + e^-1).
        assert abs(result.value - math.log1p(math.exp(-1.0))) <= 1e-12

    def test_scale_sharpens_identity_pairing(self):
        eye = np.eye(2)
        result = mnr_loss(batch(eye), batch(eye), scale=2.0)
        assert abs(result.value - math.log1p(math.exp(-2.0))) <= 1e-12
        loose = mnr_loss(batch(eye), batch(eye), scale=1.0).value
        assert result.value < loose

    def test_single_row_batch_scores_zero(self):
        result = mnr_loss(batch([[1.0, 2.0]]), batch([[3.0, 1.0]]), scale=20.0)
        assert result.value == 0.0
        assert np.array_equal(result.grad_student, np.zeros((1, 2)))

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            t = rng.normal(size=(n, d))
            s = rng.normal(size=(n, d))
            scale = float(rng.uniform(0.5, 25.0))
            got = mnr_loss(batch(t), batch(s), scale=scale).value
            assert abs(got - mnr_by_brute_force(t, s, scale)) <= 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        t = rng.normal(size=(4, 3))
        s = rng.normal(size=(4, 3))
        grad = mnr_loss(batch(t), batch(s), scale=7.0).grad_student
        eps = 1e-6
        worst = 0.0
        for i in range(4):
            for j in range(3):
                bump = np.zeros_like(s)
                bump[i, j] = eps
                fd = (
                    mnr_loss(batch(t), batch(s + bump), scale=7.0).value
                    - mnr_loss(batch(t), batch(s - bump), scale=7.0).value
                ) / (2 * eps)
                denom = max(abs(fd), abs(grad[i, j]), 1e-8)
                worst = max(worst, abs(fd - grad[i, j]) / denom)
        assert worst <= 1e-4

    def test_scaling_student_rows_leaves_value_unchanged(self):
        rng = np.random.default_rng(15)
        t = rng.normal(size=(3, 5))
        s = rng.normal(size=(3, 5))
        a = mnr_loss(batch(t), batch(s), scale=20.0).value
        b = mnr_loss(batch(t), batch(s * 4.0), scale=20.0).value
        assert math.isclose(a, b, rel_tol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_rows_whose_squared_norm_leaves_float64_keep_their_loss(self, scale):
        # Every entry is finite and no row is zero, but a row's squared norm
        # overflows at 1e200 and underflows to 0 at 1e-200.
        rows = np.array([[1.0, 1.0], [1.0, -1.0]])
        at_one = mnr_loss(batch(rows), batch(rows), scale=1.0)
        # Orthogonal rows at scale 1: each row's loss is ln(1 + e^-1).
        assert abs(at_one.value - math.log1p(math.exp(-1.0))) <= 1e-12
        teacher_scaled = mnr_loss(batch(scale * rows), batch(rows), scale=1.0)
        assert teacher_scaled.value == pytest.approx(at_one.value, rel=1e-15)
        assert np.allclose(teacher_scaled.grad_student, at_one.grad_student, rtol=1e-15, atol=0)
        # A student row's norm divides its gradient.
        student_scaled = mnr_loss(batch(rows), batch(scale * rows), scale=1.0)
        assert student_scaled.value == pytest.approx(at_one.value, rel=1e-15)
        assert np.allclose(student_scaled.grad_student * scale, at_one.grad_student,
                           rtol=1e-15, atol=0)

    def test_only_rows_that_leave_float64_are_rescaled(self):
        rows = np.array([[3.0, 4.0], [1e200, 1e200], [0.1, 0.7], [1e-200, 0.0]])
        unit, norms = _unit_rows(rows, "zero-norm rows")
        plain = [0, 2]
        expected = rows[plain] / np.sqrt((rows[plain] * rows[plain]).sum(axis=1))[:, None]
        assert unit[plain].tobytes() == expected.tobytes()
        half = math.sqrt(0.5)
        assert np.allclose(unit[[1, 3]], [[half, half], [1.0, 0.0]], rtol=1e-15, atol=0)
        assert np.allclose(norms[[1, 3]], [math.sqrt(2.0) * 1e200, 1e-200], rtol=1e-15, atol=0)

    def test_errors(self):
        t = batch([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="zero-norm"):
            mnr_loss(t, batch([[0.0, 0.0], [0.0, 1.0]]))
        for scale in (0.0, float("nan"), float("inf"), "20"):
            with pytest.raises(ValidationError, match="scale"):
                mnr_loss(t, t, scale=scale)
        with pytest.raises(ValidationError, match="misaligned"):
            mnr_loss(t, batch([[1.0, 0.0]]))
