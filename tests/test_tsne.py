"""Affinity construction, gradient descent behavior, and SVG rendering."""

from __future__ import annotations

import dataclasses
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    Layout2D,
    TsneConfig,
    ValidationError,
    joint_probabilities,
    kl_divergence,
    render_scatter,
    run_tsne,
)
from xlembed.tsne import PALETTE


def blob_data(rng, n_per=8, dim=6, spread=0.05, centers=3):
    points, labels = [], []
    for c in range(centers):
        center = np.zeros(dim)
        center[c] = 4.0
        points.append(center + spread * rng.normal(size=(n_per, dim)))
        labels.extend([c] * n_per)
    return np.concatenate(points), labels


class TestConfig:
    def test_rejections(self):
        bad = [
            dict(perplexity=1.0),
            dict(iterations=0),
            dict(learning_rate=0.0),
            dict(early_exaggeration=0.5),
            dict(seed=-1),
            dict(learning_rate=math.nan),
            dict(early_exaggeration=math.nan),
            dict(iterations=2.5),
            # bool is a subclass of int: True would pass as 1 and False as 0.
            dict(iterations=True),
            dict(seed=False),
            dict(perplexity="30"),
            dict(learning_rate=None),
        ]
        for kwargs in bad:
            with pytest.raises(ValidationError):
                TsneConfig(**kwargs)


class TestJointProbabilities:
    def test_equilateral_case_is_exact(self):
        # Three mutually equidistant points: every conditional row is
        # (1/2, 1/2), so each off-diagonal joint entry is exactly 1/6.
        p = joint_probabilities(np.eye(3), perplexity=2.0)
        assert p[0, 0] == 0.0 and p[1, 1] == 0.0 and p[2, 2] == 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert p[i, j] == 1 / 6

    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            n = int(rng.integers(8, 25))
            x = rng.normal(size=(n, 4))
            p = joint_probabilities(x, perplexity=float(rng.uniform(2.0, (n - 1) / 2)))
            assert np.array_equal(p, p.T)
            assert np.array_equal(np.diag(p), np.zeros(n))
            assert (p >= 0.0).all()
            assert abs(p.sum() - 1.0) <= 1e-9

    def test_matches_tighter_independent_search(self):
        # Re-derive P with a separately written bisection that drives the
        # row entropy to the same target with a much smaller tolerance; the
        # two routes must agree to well within the coarser stopping window.
        def reference_joint(x, perplexity):
            n = x.shape[0]
            sq = (x * x).sum(axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
            np.fill_diagonal(d2, 0.0)
            target = math.log2(perplexity)
            cond = np.zeros((n, n))
            for i in range(n):
                idx = [j for j in range(n) if j != i]
                row = d2[i, idx] - d2[i, idx].min()
                lo, hi = 0.0, None
                beta = 1.0
                for _ in range(500):
                    w = np.exp(-row * beta)
                    prob = w / w.sum()
                    ent = -(prob[prob > 0] * np.log2(prob[prob > 0])).sum()
                    if abs(ent - target) < 1e-7:
                        break
                    if ent > target:
                        lo = beta
                        beta = beta * 2 if hi is None else (lo + hi) / 2
                    else:
                        hi = beta
                        beta = beta / 2 if lo == 0.0 else (lo + hi) / 2
                cond[i, idx] = prob
            return (cond + cond.T) / (2 * n)

        rng = np.random.default_rng(42)
        x = rng.normal(size=(15, 5))
        ours = joint_probabilities(x, perplexity=5.0)
        theirs = reference_joint(x, perplexity=5.0)
        assert np.abs(ours - theirs).max() <= 5e-3
        assert np.abs(ours - theirs).max() / ours.max() <= 0.05

    @pytest.mark.parametrize("shift", [0.0, 100.0], ids=["gaussian", "clustered"])
    def test_peak_memory_stays_under_five_and_a_half_matrices(self, shift, traced_peak):
        # The search computes in two reused (N, N-1) buffers beside the
        # shifted distances and the result: about 4.3 such matrices at peak,
        # against 6.3 when each step allocated its products afresh. Two
        # far-apart clusters underflow every row's cross-cluster entries,
        # so the entropy sum gathers the positive terms: about 4.8, against
        # 5.8 when that gather allocated a fresh copy of the rows.
        n = 400
        x = np.random.default_rng(0).normal(size=(n, 32))
        x[: n // 2] += shift
        # A first call in the process also traces one-time import allocations.
        joint_probabilities(np.random.default_rng(1).normal(size=(8, 2)), perplexity=2.0)
        peak = traced_peak(lambda: joint_probabilities(x, perplexity=30.0))
        assert peak < 5.5 * n * (n - 1) * 8

    def test_infeasible_perplexity(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(ValidationError, match="perplexity"):
            joint_probabilities(x, perplexity=4.5)
        with pytest.raises(ValidationError, match="perplexity"):
            joint_probabilities(x, perplexity=1.0)

    def test_perplexity_must_be_a_real_number(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        for perplexity in ("2", None, True, float("nan")):
            with pytest.raises(ValidationError, match="perplexity"):
                joint_probabilities(x, perplexity)

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="at least 3"):
            joint_probabilities(np.ones((2, 2)), perplexity=1.5)
        with pytest.raises(ValidationError, match="2-D"):
            joint_probabilities(np.ones(5), perplexity=2.0)
        bad = np.ones((4, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            joint_probabilities(bad, perplexity=2.0)


class TestKlDivergence:
    def test_zero_when_layout_matches_affinities(self):
        # The identity-matrix triangle has P = 1/6 off-diagonal; a layout
        # with all pairwise squared distances exactly 1 has Q = 1/6 too.
        p = joint_probabilities(np.eye(3), perplexity=2.0)
        layout = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        assert abs(kl_divergence(p, layout)) <= 1e-12

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(10, 4))
        p = joint_probabilities(x, perplexity=3.0)
        for _ in range(10):
            assert kl_divergence(p, rng.normal(size=(10, 2))) >= -1e-12

    @pytest.mark.parametrize(
        "case", ["layout of 4 points", "1-D layout", "NaN in layout", "NaN in P", "negative P"]
    )
    def test_rejects_bad_inputs(self, case):
        rng = np.random.default_rng(44)
        p = joint_probabilities(rng.normal(size=(5, 3)), perplexity=2.0)
        layout = rng.normal(size=(5, 2))
        match = "finite, non-negative"
        if case == "layout of 4 points":
            layout, match = layout[:4], r"4 x 4 for 4 points, got shape \(5, 5\)"
        elif case == "1-D layout":
            layout, match = layout[:, 0], "2-D"
        elif case == "NaN in layout":
            layout[2, 1], match = np.nan, "non-finite"
        elif case == "NaN in P":
            p[1, 3], match = np.nan, "P must be finite, got non-finite"
        else:
            p[1, 3] = -p[1, 3]
        with pytest.raises(ValidationError, match=match):
            kl_divergence(p, layout)


class TestRunTsne:
    def test_shape_and_determinism(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(12, 5))
        config = TsneConfig(perplexity=3.0, iterations=40, seed=7)
        a = run_tsne(x, config)
        b = run_tsne(x, config)
        assert a.shape == (12, 2)
        assert np.isfinite(a).all()
        assert np.array_equal(a, b)
        c = run_tsne(x, TsneConfig(perplexity=3.0, iterations=40, seed=8))
        assert not np.array_equal(a, c)

    def test_row_permutation_equivariance_is_bit_exact(self):
        rng = np.random.default_rng(45)
        x = rng.normal(size=(14, 4))
        perm = rng.permutation(14)
        config = TsneConfig(perplexity=3.5, iterations=60, seed=3)
        base = run_tsne(x, config)
        shuffled = run_tsne(x[perm], config)
        assert np.array_equal(shuffled, base[perm])

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(8, 20),
        dim=st.integers(1, 6),
        perplexity_share=st.floats(0.0, 1.0),
        iterations=st.integers(10, 40),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_row_permutation_equivariance_at_random_shapes(
        self, n, dim, perplexity_share, iterations, seed, data
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        assert len({row.tobytes() for row in x}) == n
        # Feasible perplexities lie in (1, (n - 1) / 3); keep clear of both ends.
        perplexity = 1.1 + perplexity_share * ((n - 1) / 3.0 - 1.2)
        config = TsneConfig(perplexity=perplexity, iterations=iterations, seed=seed % 1000)
        perm = np.asarray(data.draw(st.permutations(range(n)), label="perm"))
        base = run_tsne(x, config)
        shuffled = run_tsne(x[perm], config)
        assert shuffled.tobytes() == base[perm].tobytes()

    def test_optimization_lowers_kl(self):
        # Small point sets need a gentler learning rate than the default,
        # which is tuned for hundreds of points.
        rng = np.random.default_rng(47)
        x, _ = blob_data(rng, n_per=6, centers=3)
        p = joint_probabilities(x, perplexity=4.0)
        config = TsneConfig(perplexity=4.0, iterations=500, learning_rate=20.0, seed=1)
        # The layout after the first update, as the 500-iteration run passes it.
        first = run_tsne(x, dataclasses.replace(config, iterations=1))
        start = kl_divergence(p, first)
        end = kl_divergence(p, run_tsne(x, config))
        assert end < 0.5 * start

    def test_separated_blobs_stay_separated(self):
        rng = np.random.default_rng(48)
        x, labels = blob_data(rng, n_per=8, centers=3)
        out = run_tsne(
            x, TsneConfig(perplexity=5.0, iterations=500, learning_rate=20.0, seed=2)
        )
        labels_arr = np.asarray(labels)
        d2 = ((out[:, None, :] - out[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        neighbor = labels_arr[np.argmin(d2, axis=1)]
        assert (neighbor == labels_arr).mean() >= 0.9

    def test_perplexity_guard(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValidationError, match="too large"):
            run_tsne(x, TsneConfig(perplexity=3.0, iterations=5))


class TestLayoutAndRendering:
    def test_layout_validation(self):
        with pytest.raises(ValidationError):
            Layout2D(points=np.zeros((3, 3)), labels=[0, 0, 0])
        with pytest.raises(ValidationError):
            Layout2D(points=np.zeros((3, 2)), labels=[0, 0])
        with pytest.raises(ValidationError):
            Layout2D(points=np.zeros((3, 2)), labels=[0, 0, -1])
        with pytest.raises(ValidationError):
            Layout2D(points=np.array([[np.nan, 0.0]]), labels=[0])

    def test_labels_accept_numpy_integers_and_refuse_bools(self):
        # np.unique(..., return_inverse=True) gives NumPy integers.
        _, ids = np.unique(["b", "a", "b"], return_inverse=True)
        layout = Layout2D(points=np.zeros((3, 2)), labels=list(ids))
        assert layout.labels == [1, 0, 1]
        assert all(type(l) is int for l in layout.labels)
        # bool is a subclass of int: True would pass as label 1.
        for labels in ([True, False], [np.bool_(True), np.bool_(False)], [0.0, 1.0]):
            with pytest.raises(ValidationError, match="non-negative integers"):
                Layout2D(points=np.zeros((2, 2)), labels=labels)

    def test_palette_is_twelve_hex_colors(self):
        assert len(PALETTE) == 12
        assert len(set(PALETTE)) == 12
        for color in PALETTE:
            assert re.fullmatch(r"#[0-9A-F]{6}", color)

    def test_svg_structure(self, tmp_path):
        layout = Layout2D(
            points=np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5], [3.0, -2.0]]),
            labels=[0, 1, 0, 2],
        )
        path = tmp_path / "plot.svg"
        render_scatter(layout, ["alpha", "beta <&> gamma", "delta"], path)
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        assert len(circles) == 4
        assert circles[0].get("fill") == PALETTE[0]
        assert circles[1].get("fill") == PALETTE[1]
        texts = [t.text for t in root.findall(f"{ns}text")]
        assert texts == ["alpha", "beta <&> gamma", "delta"]

    def test_degenerate_spans_render_centered(self, tmp_path):
        layout = Layout2D(points=np.array([[2.0, 5.0], [2.0, 5.0], [2.0, 5.0]]), labels=[0, 0, 0])
        path = tmp_path / "flat.svg"
        render_scatter(layout, ["only"], path)
        content = path.read_text(encoding="utf-8")
        assert "nan" not in content.lower()
        ET.fromstring(content)

    def test_render_validation(self, tmp_path):
        layout = Layout2D(points=np.zeros((2, 2)), labels=[0, 1])
        with pytest.raises(ValidationError, match="no name"):
            render_scatter(layout, ["only"], tmp_path / "x.svg")
        with pytest.raises(ValidationError, match="palette"):
            render_scatter(
                Layout2D(points=np.zeros((1, 2)), labels=[0]),
                [f"c{i}" for i in range(len(PALETTE) + 1)],
                tmp_path / "y.svg",
            )
        with pytest.raises(ValidationError, match="empty"):
            render_scatter(Layout2D(points=np.zeros((1, 2)), labels=[0]), [], tmp_path / "z.svg")
