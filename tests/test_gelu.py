"""The tanh-form GELU and its derivative as properties over random arrays.

The encoder's feed-forward computes ``0.5·u·(1 + t)`` with
``t = tanh(√(2/π)·(u + 0.044715·u³))`` (Hendrycks & Gimpel 2016) in place,
and its backward pass the exact derivative of that, in float32 or float64.
The backward pass's in-place GELU and layer norm match the allocating forms
kept here as references, bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xlembed.encoder import (
    _GELU_ROWS,
    _gelu,
    _gelu_backward,
    _gelu_blocks,
    _gelu_grad,
    _gelu_tanh,
    _layer_norm_backward,
    _layer_norm_forward,
    _mean,
)

C = math.sqrt(2.0 / math.pi)
A = 0.044715
# Tolerances, relative to 1 + |value|: float64 is within a few ulp of the
# closed form; in float32 the derivative at |u| ≈ 5, where 1 - t is a few
# ulp of t, is off by up to 1.3e-6 on a dense grid.
TOL = {np.float64: 1e-12, np.float32: 1e-5}


def _closed_forms(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GELU and its derivative in float64, straight from the formulas."""
    u = u.astype(np.float64)
    t = np.tanh(C * (u + A * u**3))
    gelu = 0.5 * u * (1.0 + t)
    grad = 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * C * (1.0 + 3.0 * A * u * u)
    return gelu, grad


def _apply(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _gelu_tanh(u)
    grad = _gelu_grad(u, t)  # before _gelu, which overwrites t
    return _gelu(u, t), grad


def _inputs(dtype, bound: float):
    return arrays(
        dtype,
        st.integers(1, 64),
        elements=st.floats(-bound, bound, width=np.dtype(dtype).itemsize * 8),
    )


dtypes = st.sampled_from([np.float64, np.float32])


@given(dtypes.flatmap(lambda dtype: _inputs(dtype, 30.0)))
def test_matches_closed_forms(u):
    gelu, grad = _apply(u)
    assert gelu.dtype == grad.dtype == u.dtype
    ref_gelu, ref_grad = _closed_forms(u)
    tol = TOL[u.dtype.type]
    assert np.all(np.abs(gelu - ref_gelu) <= tol * (1.0 + np.abs(ref_gelu)))
    assert np.all(np.abs(grad - ref_grad) <= tol * (1.0 + np.abs(ref_grad)))


@given(_inputs(np.float64, 30.0))
def test_derivative_matches_central_difference(u):
    # The difference's error is about h²·|f'''| plus rounding of order
    # 1e-16·|u|/h: 1.1e-10 at most on a dense grid over [-30, 30].
    h = 1e-5
    diff = (_apply(u + h)[0] - _apply(u - h)[0]) / (2.0 * h)
    assert np.allclose(_apply(u)[1], diff, rtol=0.0, atol=1e-8)


@given(dtypes.flatmap(lambda dtype: _inputs(dtype, 1e4)))
@example(np.array([2.7, -2.7, 0.0, 1.0, -1.0]))
def test_stays_near_exact_erf_gelu(u):
    # The largest gap is 4.73e-4, at |u| ≈ 2.7.
    exact = np.array([0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0))) for x in u.tolist()])
    assert np.all(np.abs(_apply(u)[0] - exact) <= 5e-4)


@given(
    arrays(
        np.float32,
        st.integers(1, 64),
        elements=st.floats(10.0, 1e4, width=32),
    ),
    st.sampled_from([1.0, -1.0]),
)
def test_float32_saturates_without_warnings(magnitude, sign):
    u = np.float32(sign) * magnitude
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gelu, grad = _apply(u)
    if sign > 0:
        assert np.array_equal(gelu, u) and np.all(grad == 1.0)
    else:
        assert np.all(gelu == 0.0) and np.all(grad == 0.0)


def _gelu_backward_reference(u: np.ndarray, d_g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The allocating form: a fresh GELU and a fresh gradient, block by block."""
    g, d = np.empty_like(u), np.empty_like(d_g)
    for s in range(0, len(u), _GELU_ROWS):
        rows = slice(s, s + _GELU_ROWS)
        t = _gelu_tanh(u[rows])
        d[rows] = d_g[rows] * _gelu_grad(u[rows], t)
        g[rows] = _gelu(u[rows], t)
    return g, d


def _layer_norm_backward_reference(dy, gain, cache, dgain, dbias):
    """The allocating form, which leaves ``dy`` as it was."""
    xhat, inv = cache
    g = dy * gain
    w = g * xhat
    m1 = _mean(g)
    m2 = _mean(w)
    dgain += np.multiply(dy, xhat, out=w).sum(axis=0)
    dbias += dy.sum(axis=0)
    g -= m1
    g -= np.multiply(xhat, m2, out=w)
    g *= inv
    return g


@st.composite
def _block_edge_rows(draw):
    """Three (rows, width) arrays of one dtype, with rows at the GELU's block
    edges, as normal draws from a seed."""
    dtype = draw(dtypes)
    rows = draw(st.sampled_from([1, _GELU_ROWS - 1, _GELU_ROWS, _GELU_ROWS + 1, 300]))
    width = draw(st.integers(4, 512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 3.0, 30.0]))
    return [(scale * rng.normal(size=(rows, width))).astype(dtype) for _ in range(3)]


@settings(max_examples=40, deadline=None)
@given(_block_edge_rows())
def test_in_place_gelu_backward_has_the_reference_bytes(arrays3):
    u, d_g, _ = arrays3
    ref_g, ref_d = _gelu_backward_reference(u, d_g)
    forward_g = _gelu_blocks(u, np.empty_like(u))
    assert _gelu_backward(u, d_g) is u
    assert u.tobytes() == forward_g.tobytes() == ref_g.tobytes()
    assert d_g.tobytes() == ref_d.tobytes()


@settings(max_examples=40, deadline=None)
@given(_block_edge_rows())
def test_in_place_layer_norm_backward_has_the_reference_bytes(arrays3):
    x, dy, affine = arrays3
    gain, bias = affine[0], affine[-1]
    _, cache = _layer_norm_forward(x, gain, bias)
    grads = [np.full_like(gain, 0.25) for _ in range(4)]
    ref = _layer_norm_backward_reference(dy, gain, cache, grads[0], grads[1])
    dx = _layer_norm_backward(dy.copy(), gain, cache, grads[2], grads[3])
    assert dx.tobytes() == ref.tobytes()
    assert grads[2].tobytes() == grads[0].tobytes()
    assert grads[3].tobytes() == grads[1].tobytes()
