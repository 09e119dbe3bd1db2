"""The vectorized t-SNE equals the one-row-at-a-time form byte for byte.

``reference_joint_probabilities`` runs each row's bandwidth search on its
own, summing the entropy over the row's positive entries;
``reference_run_tsne`` allocates every N x N temporary afresh in each
iteration. ``joint_probabilities`` searches all rows at once and
``run_tsne`` computes in two preallocated buffers; every float they
produce must be the same.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import TsneConfig, joint_probabilities, run_tsne


def squared_distances(x):
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def reference_joint_probabilities(x, perplexity):
    """Per-row binary search for each row's Gaussian bandwidth."""
    n = x.shape[0]
    target_bits = math.log2(perplexity)
    d2 = squared_distances(x)
    conditional = np.zeros((n, n), dtype=np.float64)
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        row_d2 = d2[i][others[i]]
        shifted = row_d2 - row_d2.min()
        beta, lo, hi = 1.0, 0.0, math.inf
        for _ in range(200):
            w = np.exp(-shifted * beta)
            p = w / w.sum()
            nonzero = p[p > 0.0]
            entropy_bits = float(-(nonzero * np.log2(nonzero)).sum())
            if abs(entropy_bits - target_bits) <= 1e-3:
                break
            if entropy_bits > target_bits:
                lo = beta
                beta = beta * 2.0 if hi == math.inf else (lo + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else (lo + hi) / 2.0
        conditional[i][others[i]] = p
    return (conditional + conditional.T) / (2.0 * n)


def reference_run_tsne(x, config, on_iteration):
    """The descent loop with fresh arrays for every N x N temporary."""
    n = x.shape[0]
    order = np.lexsort(tuple(x[:, j] for j in reversed(range(x.shape[1]))))
    p = reference_joint_probabilities(x[order], config.perplexity)
    ys = np.empty((n, 2), dtype=np.float64)
    for i in range(n):
        ys[i] = np.random.default_rng((config.seed, i)).normal(0.0, 1e-4, size=2)
    velocity = np.zeros_like(ys)
    for iteration in range(config.iterations):
        exaggerating = iteration < 250
        p_used = p * config.early_exaggeration if exaggerating else p
        momentum = 0.5 if exaggerating else 0.8
        w = 1.0 / (1.0 + squared_distances(ys))
        np.fill_diagonal(w, 0.0)
        q = w / w.sum()
        m = (p_used - q) * w
        grad = 4.0 * (m.sum(axis=1)[:, None] * ys - m @ ys)
        velocity = momentum * velocity - config.learning_rate * grad
        ys = ys + velocity
        unsorted = np.empty_like(ys)
        unsorted[order] = ys
        on_iteration(iteration, unsorted)
    return unsorted


def sample_points(rng, n, d, kind, scale):
    if kind == "gaussian":
        return rng.normal(size=(n, d)) * scale
    if kind == "clustered":
        # Tight clusters far apart: each row's far entries underflow to 0.
        centers = rng.normal(size=(3, d)) * 100.0 * scale
        return centers[rng.integers(0, 3, n)] + rng.normal(size=(n, d)) * 1e-3 * scale
    # Duplicate rows: zero distances inside each group of copies.
    base = rng.normal(size=(max(2, n // 3), d)) * scale
    return base[rng.integers(0, base.shape[0], n)]


def pick_perplexity(n, where, fraction):
    if where == "low":
        return 1.0 + 1e-2 * fraction + 1e-9
    if where == "high":
        return (n - 1) - 1e-2 * fraction
    return min(1.01 + fraction * (n - 2.01), n - 1.0)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 48),
    d=st.integers(1, 8),
    kind=st.sampled_from(["gaussian", "clustered", "duplicates"]),
    log_scale=st.floats(-3.0, 3.0),
    where=st.sampled_from(["low", "high", "anywhere"]),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_joint_probabilities_match_per_row_search(n, d, kind, log_scale, where, fraction, seed):
    x = sample_points(np.random.default_rng(seed), n, d, kind, 10.0**log_scale)
    perplexity = pick_perplexity(n, where, fraction)
    assert 1.0 < perplexity <= n - 1
    expected = reference_joint_probabilities(x, perplexity)
    assert joint_probabilities(x, perplexity).tobytes() == expected.tobytes()


def test_underflowing_rows_match_per_row_search():
    # Every row of two far-apart tight clusters holds entries that are 0.
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(size=(20, 3)) * 1e-2, 1e3 + rng.normal(size=(21, 3)) * 1e-2])
    p = joint_probabilities(x, 5.0)
    assert (p[:20, 20:] == 0.0).all()
    assert p.tobytes() == reference_joint_probabilities(x, 5.0).tobytes()


def test_run_tsne_matches_allocating_loop_across_exaggeration_boundary():
    rng = np.random.default_rng(11)
    gaussian = rng.normal(size=(40, 6))
    clustered = sample_points(rng, 36, 5, "clustered", 1.0)
    for x, perplexity in ((gaussian, 8.0), (clustered, 4.0)):
        config = TsneConfig(perplexity=perplexity, iterations=262, seed=3)
        expected, seen = [], []
        final = reference_run_tsne(x, config, lambda i, y: expected.append((i, y.tobytes())))
        layout = run_tsne(x, config, lambda i, y: seen.append((i, y.tobytes())))
        assert len(seen) == 262
        assert seen == expected
        assert layout.tobytes() == final.tobytes()
