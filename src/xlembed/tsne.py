"""Exact O(N^2) t-SNE for qualitative inspection of sentence embeddings.

Pairwise affinities use a per-point Gaussian bandwidth found by binary
search so every row of the conditional distribution hits the requested
perplexity; all rows search at once, each step one pass of NumPy calls
over the rows still searching, in two (N, N-1) buffers allocated once.
The symmetrized joint matrix P then drives plain momentum gradient descent
on KL(P || Q) against a Student-t Q, with early exaggeration for the first
250 iterations.

One kernel, _halved_distances, forms every pairwise squared distance, for
the search, the descent and kl_divergence. It computes them halved,
(|x_i|^2 + |x_j|^2) / 2 - x_i.x_j, clipped at 0, and takes each sum of
halved norms h_i + h_j from a rank-2 product with a column and a row of
ones: its two products are exact, so it rounds once, as the element-wise
add would, and writes each block in one pass. The search doubles the
halved distances once; the descent turns them into the weights
0.5 / (0.5 + d2 / 2), with no pass that doubles the dot products.

The descent does its N x N work in two buffers allocated once (the
Student-t weights, and scratch that ends as the gradient's (p - q) * w),
and updates the gradient, velocity and layout in place; an iteration
allocates only the squared norms and the finiteness mask. The kernel's
element-wise passes, and the descent's, run over blocks of rows of about
512 KiB, so at 1,000 points, where each N x N array is 8 MB, a block's
rows stay in cache from one pass to the next. No block size changes a
float: a block cuts only element-wise passes and per-row sums, while the
products x @ x.T and m @ ys and the sum of all weights run whole, since a
BLAS product of a block of rows need not round as the whole one.

These rewrites keep every float of the one-row-at-a-time, allocating
forms: the element-wise ufuncs and each row's pairwise sum give the same
bits on a 2-D array as on one row, scaling by 2 commutes with rounding,
and a row whose probabilities underflow to 0 sums its entropy over its
positive entries only, as a 1-D array.

Internally points are processed in a canonical order (rows sorted
lexicographically) and each point's initial coordinates are drawn from a
stream seeded by (seed, canonical index). Every float therefore gets
computed identically no matter how the caller ordered the input, which
makes the layout exactly equivariant to row permutation for distinct rows.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .errors import ValidationError, check_array, check_count, check_real

_PERPLEXITY_TOL_BITS = 1e-3
_MAX_SEARCH_STEPS = 200
_EXAGGERATION_STEPS = 250
_Q_FLOOR = 1e-12
# The descent's element-wise passes over N x N arrays run on blocks of
# rows this many bytes of float64 long (at least one row), so each pass's
# rows stay in cache; 96 and 200 points run as one block.
_BLOCK_BYTES = 512 * 1024

# Okabe-Ito palette first (colorblind-safe), then four extra hues.
PALETTE = (
    "#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7",
    "#56B4E9", "#F0E442", "#000000", "#6A3D9A", "#999999",
    "#B15928", "#66C2A5",
)


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("iterations", self.iterations, 1)
        check_count("seed", self.seed, 0)
        for name in ("perplexity", "learning_rate", "early_exaggeration"):
            check_real(name, getattr(self, name))
        if not self.perplexity > 1.0:
            raise ValidationError(f"perplexity must be > 1, got {self.perplexity}")
        if self.learning_rate <= 0.0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.early_exaggeration < 1.0:
            raise ValidationError(
                f"early_exaggeration must be >= 1, got {self.early_exaggeration}"
            )


@dataclass
class Layout2D:
    """A 2-D arrangement of points with integer class labels; ``points`` is
    admitted by ``check_array`` as float64 and must be N x 2."""

    points: np.ndarray
    labels: list[int]

    def __post_init__(self) -> None:
        self.points = check_array("points", self.points, np.float64, ndim=2)
        if self.points.shape[1] != 2:
            raise ValidationError(f"points must be N x 2, got shape {self.points.shape}")
        if len(self.labels) != self.points.shape[0]:
            raise ValidationError(
                f"{len(self.labels)} labels for {self.points.shape[0]} points"
            )
        # NumPy integers (as np.unique(..., return_inverse=True) gives) are
        # integers too; a bool is refused, as check_count refuses it.
        if any(
            isinstance(l, bool) or not isinstance(l, numbers.Integral) or l < 0
            for l in self.labels
        ):
            raise ValidationError("labels must be non-negative integers")
        self.labels = [int(l) for l in self.labels]


def _check_input(name: str, x, min_points: int = 3) -> np.ndarray:
    """x admitted by ``check_array`` as a float64 matrix of at least
    ``min_points`` rows."""
    x = check_array(name, x, np.float64, ndim=2)
    if x.shape[0] < min_points:
        raise ValidationError(f"need at least {min_points} points, got {x.shape[0]}")
    return x


def joint_probabilities(x, perplexity: float) -> np.ndarray:
    """Symmetrized t-SNE affinities P for the rows of x.

    Each row's Gaussian bandwidth comes from a binary search that stops
    when the realized perplexity is within 1e-3 of the target in the log2
    domain (or after 200 halvings). All rows search at once: each step
    computes the still-searching rows as one matrix, and a row whose
    entropy is within tolerance leaves. A row with an entry that underflows
    to 0 sums its entropy over its positive entries only. The conditional
    matrix is symmetrized as (P + P^T) / (2N), so the result is symmetric,
    non-negative, zero on the diagonal, and sums to one.
    """
    x = _check_input("x", x)
    n = x.shape[0]
    check_real("perplexity", perplexity)
    if not 1.0 < perplexity <= n - 1:
        raise ValidationError(
            f"perplexity {perplexity} is infeasible for {n} points "
            f"(must be in (1, {n - 1}])"
        )
    conditional = _conditional_probabilities(x, math.log2(perplexity))
    joint = np.zeros((n, n), dtype=np.float64)
    joint[~np.eye(n, dtype=bool)] = conditional.reshape(-1)
    return (joint + joint.T) / (2.0 * n)


def _conditional_probabilities(x: np.ndarray, target_bits: float) -> np.ndarray:
    """The (N, N-1) matrix of p(j | i) over j != i, from the bandwidth search.

    Its squared distances are _halved_distances' values, doubled once per
    block: exact, since scaling by 2 commutes with rounding, unless a
    halved norm is subnormal (coordinates below about 1e-154). Its own
    function, so its N x (N-1) work arrays are freed before
    joint_probabilities allocates the N x N ones.
    """
    n = x.shape[0]
    d2 = np.empty((n, n))
    for block in _halved_distances(x, d2, np.empty((n, n)), np.ones((3, n))):
        block *= 2.0
    neg = d2[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    del d2, block  # free d2 (block is a view of it) before the search allocates
    np.subtract(neg.min(axis=1, keepdims=True), neg, out=neg)  # -(d2 - row min), bit for bit
    rows = np.arange(n)  # the rows still searching
    beta, lo, hi = np.ones(n), np.zeros(n), np.full(n, math.inf)
    conditional = np.empty((n, n - 1), dtype=np.float64)
    # Each step computes the searching rows in the leading rows of these two
    # buffers. take's "clip" mode writes straight into out ("raise" would
    # buffer a copy); the indices are in range either way.
    p_buf, terms_buf = np.empty((n, n - 1)), np.empty((n, n - 1))
    for _ in range(_MAX_SEARCH_STEPS):
        p = np.take(neg, rows, axis=0, out=p_buf[: rows.size], mode="clip")
        p *= beta[:, None]
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        conditional[rows] = p  # a row that never converges keeps its last p
        positive = p > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log2(p, out=terms_buf[: rows.size])
            terms *= p
        entropy_bits = -terms.sum(axis=1)
        # A row with k positive entries sums exactly those k, as a 1-D sum
        # of length k would; rows of equal k stack into one (rows, k) sum.
        # p is not read again this step, so its buffer takes their rows.
        kept = positive.sum(axis=1)
        for k in np.unique(kept[kept < n - 1]):
            same = np.flatnonzero(kept == k)
            rows_k = np.take(terms, same, axis=0, out=p_buf[: same.size], mode="clip")
            entropy_bits[same] = -rows_k[positive[same]].reshape(same.size, k).sum(axis=1)
        searching = ~(np.abs(entropy_bits - target_bits) <= _PERPLEXITY_TOL_BITS)
        rows, beta, lo, hi = rows[searching], beta[searching], lo[searching], hi[searching]
        if rows.size == 0:
            break
        up = entropy_bits[searching] > target_bits
        lo = np.where(up, beta, lo)
        hi = np.where(up, hi, beta)
        mid = (lo + hi) / 2.0
        beta = np.where(
            up,
            np.where(hi == math.inf, beta * 2.0, mid),
            np.where(lo == 0.0, beta / 2.0, mid),
        )
    return conditional


def _block_rows(n: int) -> int:
    """Rows per block of an N x N float64 pass: _BLOCK_BYTES of them, at least 1."""
    return max(1, _BLOCK_BYTES // (8 * n))


def _halved_distances(
    x: np.ndarray, out: np.ndarray, scratch: np.ndarray, halves: np.ndarray
) -> Iterator[np.ndarray]:
    """Write max((|x_i|^2 + |x_j|^2) / 2 - x_i.x_j, 0), half the squared
    distance between rows i and j of x, into the N x N array out, one block
    of _block_rows(N) rows at a time, and yield each block (a view of out)
    once written, so the caller can finish it while it is in cache. The
    diagonal is left as it comes out (near 0, not exactly).

    The rows of scratch are work space. The (3, N) array halves holds ones
    in its middle row; its first and last rows are overwritten with the
    halved squared norms h.
    """
    n = x.shape[0]
    h = halves[0]
    sq = x * x
    if sq.shape[1] == 2:
        # Two terms round once whichever way they are added, so this is
        # sq.sum(axis=1) bit for bit, without a reduction's per-row cost.
        np.add(sq[:, 0], sq[:, 1], out=h)
    else:
        sq.sum(axis=1, out=h)
    h *= 0.5
    halves[2] = h
    np.matmul(x, x.T, out=out)  # whole, the symmetric product: BLAS syrk
    step = _block_rows(n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        ob, sb = out[rows], scratch[rows]
        # sb[i, j] = h_i * 1 + 1 * h_j, from the block's columns (h, 1) and
        # the rows (1, h): both products are exact, so the BLAS rounds
        # h_i + h_j once, as np.add would, in one pass over sb.
        np.matmul(halves[:2, rows].T, halves[1:], out=sb)
        np.subtract(sb, ob, out=ob)
        np.maximum(ob, 0.0, out=ob)
        yield ob


def _student_t_weights(
    ys: np.ndarray, w: np.ndarray, scratch: np.ndarray, halves: np.ndarray
) -> np.ndarray:
    """w[i, j] = 1 / (1 + |y_i - y_j|^2) off the diagonal and 0 on it,
    computed in the N x N array w from _halved_distances(ys, w, scratch,
    halves), each block plus 0.5, into 0.5 / it: the float of 1 / (1 + d2),
    and a halved value that underflows is absorbed by the + 0.5.
    """
    for wb in _halved_distances(ys, w, scratch, halves):
        wb += 0.5
        np.divide(0.5, wb, out=wb)
    w.reshape(-1)[:: ys.shape[0] + 1] = 0.0
    return w


def kl_divergence(p: np.ndarray, layout: np.ndarray) -> float:
    """KL(P || Q) in nats, where Q is the Student-t distribution of layout.

    Raises ValidationError unless layout is N x d with N >= 2 and finite
    values, and p is N x N with finite, non-negative values.
    """
    layout = _check_input("layout", layout, min_points=2)
    n = layout.shape[0]
    p = check_array("P", p, np.float64)
    if p.shape != (n, n):
        raise ValidationError(f"P must be {n} x {n} for {n} points, got shape {p.shape}")
    if (p < 0.0).any():
        raise ValidationError("P must hold finite, non-negative values")
    w = _student_t_weights(layout, np.empty((n, n)), np.empty((n, n)), np.ones((3, n)))
    q = np.maximum(w / w.sum(), _Q_FLOOR)
    mask = p > 0.0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def run_tsne(x, config: TsneConfig) -> np.ndarray:
    """Project rows of x to 2-D; returns an N x 2 layout in input order.

    Points start at seeded Gaussian noise (std 1e-4) and follow momentum
    gradient descent (0.5, then 0.8 after iteration 250) on KL(P || Q),
    with P multiplied by the early-exaggeration factor during the first
    250 iterations. The run of k iterations ends on the layout that a
    longer run passes through after its first k.

    Each iteration computes the weights w and m = (p - w / sum(w)) * w in
    two N x N buffers allocated once, with halved squared distances and in
    row blocks of _BLOCK_BYTES; the gradient, velocity and layout are
    updated in place. The layout's bytes do not depend on the block size
    (see the module docstring).
    """
    x = _check_input("x", x)
    n = x.shape[0]
    if not config.perplexity < (n - 1) / 3.0:
        raise ValidationError(
            f"perplexity {config.perplexity} too large for {n} points "
            f"(needs perplexity < (N - 1) / 3 = {(n - 1) / 3.0:.2f})"
        )

    # Canonical processing order: identical floats no matter the row order.
    order = np.lexsort(tuple(x[:, j] for j in reversed(range(x.shape[1]))))
    xs = x[order]
    p = joint_probabilities(xs, config.perplexity)

    ys = np.empty((n, 2), dtype=np.float64)
    for i in range(n):
        ys[i] = np.random.default_rng((config.seed, i)).normal(0.0, 1e-4, size=2)
    velocity = np.zeros_like(ys)
    p_exaggerated = p * config.early_exaggeration

    # Every iteration works in these arrays: two N x N, the rest N-long.
    w = np.empty((n, n), dtype=np.float64)
    m = np.empty((n, n), dtype=np.float64)
    row_sums = np.empty(n, dtype=np.float64)
    grad = np.empty_like(ys)
    m_ys = np.empty_like(ys)
    halves = np.ones((3, n))
    step = _block_rows(n)
    for iteration in range(config.iterations):
        exaggerating = iteration < _EXAGGERATION_STEPS
        p_used = p_exaggerated if exaggerating else p
        momentum = 0.5 if exaggerating else 0.8

        # The sum of all weights and m @ ys run whole: a sum of block sums
        # adds in another order, and a BLAS product of a block of rows need
        # not round as the whole product does.
        _student_t_weights(ys, w, m, halves)
        s = w.sum()
        for start in range(0, n, step):
            rows = slice(start, start + step)
            wb, mb = w[rows], m[rows]
            np.divide(wb, s, out=mb)  # q
            np.subtract(p_used[rows], mb, out=mb)
            mb *= wb
            mb.sum(axis=1, out=row_sums[rows])
        # grad = 4 (row_sums * ys - m @ ys)
        np.multiply(row_sums[:, None], ys, out=grad)
        grad -= np.matmul(m, ys, out=m_ys)
        grad *= 4.0
        if not np.isfinite(grad).all():
            raise ValidationError(
                f"non-finite t-SNE gradient at iteration {iteration}; "
                "try a smaller learning rate"
            )
        # velocity = momentum * velocity - learning_rate * grad
        velocity *= momentum
        grad *= config.learning_rate
        velocity -= grad
        ys += velocity

    out = np.empty_like(ys)
    out[order] = ys
    return out


def _scale_to_box(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    vmin, vmax = values.min(), values.max()
    span = vmax - vmin
    if span == 0.0:
        return np.full_like(values, (lo + hi) / 2.0)
    return lo + (values - vmin) / span * (hi - lo)


def check_scatter_labels(labels: list[int], label_names: list[str]) -> None:
    """Raise ValidationError unless the classes fit the palette and every
    label id has a name; cheap enough to run before t-SNE itself."""
    n_classes = len(label_names)
    if n_classes < 1:
        raise ValidationError("label_names must not be empty")
    if n_classes > len(PALETTE):
        raise ValidationError(
            f"{n_classes} classes exceed the {len(PALETTE)}-color palette"
        )
    bad = [l for l in labels if l >= n_classes]
    if bad:
        raise ValidationError(
            f"label id {bad[0]} has no name (only {n_classes} names given)"
        )


def render_scatter(layout: Layout2D, label_names: list[str], path: str | Path) -> None:
    """Write the layout as a standalone SVG scatter plot with a legend."""
    check_scatter_labels(layout.labels, label_names)

    width, height, margin, legend_w = 760, 600, 40.0, 170
    plot_right = width - legend_w - margin
    xs = _scale_to_box(layout.points[:, 0], margin, plot_right)
    # SVG y grows downward; flip so larger coordinates plot higher.
    ys = height - margin - _scale_to_box(layout.points[:, 1], 0.0, height - 2 * margin)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for (px, py), label in zip(zip(xs, ys), layout.labels):
        lines.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{PALETTE[label]}" '
            f'fill-opacity="0.8"/>'
        )
    legend_x = plot_right + 30
    for cls, name in enumerate(label_names):
        ly = margin + 24 * cls
        lines.append(
            f'<rect x="{legend_x}" y="{ly}" width="14" height="14" fill="{PALETTE[cls]}"/>'
        )
        lines.append(
            f'<text x="{legend_x + 20}" y="{ly + 12}" font-family="sans-serif" '
            f'font-size="14">{escape(name)}</text>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
