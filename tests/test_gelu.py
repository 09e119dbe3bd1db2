"""The tanh-form GELU and its derivative as properties over random arrays.

The encoder's feed-forward computes ``0.5·u·(1 + t)`` with
``t = tanh(√(2/π)·(u + 0.044715·u³))`` (Hendrycks & Gimpel 2016) in place,
and its backward pass the exact derivative of that, in float32 or float64.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xlembed.encoder import _gelu, _gelu_grad, _gelu_tanh

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
    return _gelu(u, t), _gelu_grad(u, t)


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
