"""One admission rule for numeric arrays: ``errors.check_array`` and the
public boundaries that admit their arrays through it."""

from __future__ import annotations

import re

import numpy as np
import pytest

from xlembed import (
    EmbeddingBatch,
    EncoderParams,
    Layout2D,
    TsneConfig,
    ValidationError,
    backward,
    cosine,
    encode_batch,
    forward,
    init_params,
    joint_probabilities,
    kl_divergence,
    pearson,
    run_tsne,
    spearman,
)
from xlembed.errors import check_array


class TestCheckArray:
    def test_an_array_that_needs_no_cast_comes_back_as_it_is(self):
        x = np.arange(6.0).reshape(2, 3)[:, ::2]
        assert check_array("x", x) is x
        assert check_array("x", x, np.float64, ndim=2) is x
        ints = np.arange(4, dtype=np.int32)
        assert check_array("x", ints) is ints

    def test_a_cast_keeps_the_bits_of_astype(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        cast = check_array("x", x, np.float32)
        assert cast.dtype == np.float32
        assert cast.tobytes() == x.astype(np.float32).tobytes()
        assert check_array("x", [[1, 2], [3, 4]], np.float64).tobytes() == (
            np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()
        )

    def test_a_cast_that_overflows_is_refused_without_a_warning(self):
        # The suite turns RuntimeWarning into an error, so a warning from
        # the cast would fail this test before the ValidationError.
        with pytest.raises(ValidationError, match="big must be finite, got non-finite"):
            check_array("big", np.array([1.0, 1e300]), np.float32)

    def test_rank(self):
        with pytest.raises(ValidationError, match=r"x must be 2-D, got shape \(3,\)"):
            check_array("x", [1.0, 2.0, 3.0], ndim=2)

    @pytest.mark.parametrize(
        "value",
        [["1.5", "2"], "3", [1 + 2j], [True, False], None, object(), {"a": 1},
         [[1.0, 2.0], [3.0]], [2**70], [1.0, np.nan], [-np.inf]],
        ids=["numeric strings", "string", "complex", "bool", "None", "object", "dict",
             "ragged", "int past int64", "NaN", "-inf"],
    )
    def test_refuses_whatever_is_not_finite_real_numbers(self, value):
        with pytest.raises(ValidationError, match=r"^arg "):
            check_array("arg", value)


def _bad(good: np.ndarray, kind: str):
    """A bad stand-in for ``good``: the same shape wherever the kind has one,
    so that only its kind can be what is refused."""
    if kind == "strings":
        return good.astype(str)  # numeric strings
    if kind == "ragged":
        nested = good.tolist()
        nested[0] = [nested[0], nested[0]]
        return nested
    if kind == "complex":
        return good + 1j
    if kind == "bool":
        return good > 0
    if kind == "None":
        return None
    bad = good.copy()
    bad.flat[1] = np.nan if kind == "NaN" else np.inf
    return bad


def _backward(tiny_config, tiny_vocab, grad_output):
    params = init_params(tiny_config)
    _, cache = forward(params, encode_batch(tiny_vocab, ["the cat", "a dog ran"], max_len=4))
    backward(params, cache, grad_output, params.zeros_like())


_RNG = np.random.default_rng(11)
_X = _RNG.normal(size=(12, 3))
_P = joint_probabilities(_X[:5], perplexity=2.0)
_LAYOUT = _RNG.normal(size=(5, 2))

# (argument name, a good value, call with the argument replaced), by boundary
BOUNDARIES = [
    pytest.param("embeddings", _RNG.normal(size=(3, 4)), lambda bad, **_: EmbeddingBatch(bad),
                 id="EmbeddingBatch"),
    pytest.param("grad_output", np.ones((2, 8)),
                 lambda bad, tiny_config, tiny_vocab: _backward(tiny_config, tiny_vocab, bad),
                 id="backward"),
    pytest.param("u", np.array([1.0, 2.0, 3.0]), lambda bad, **_: cosine(bad, [1.0, 1.0, 1.0]),
                 id="cosine u"),
    pytest.param("v", np.array([1.0, 2.0, 3.0]), lambda bad, **_: cosine([1.0, 1.0, 1.0], bad),
                 id="cosine v"),
    pytest.param("x", np.array([1.0, 2.0, 4.0]), lambda bad, **_: pearson(bad, [1.0, 3.0, 2.0]),
                 id="pearson x"),
    pytest.param("y", np.array([1.0, 2.0, 4.0]), lambda bad, **_: pearson([1.0, 3.0, 2.0], bad),
                 id="pearson y"),
    pytest.param("x", np.array([1.0, 2.0, 4.0]), lambda bad, **_: spearman(bad, [1.0, 3.0, 2.0]),
                 id="spearman x"),
    pytest.param("y", np.array([1.0, 2.0, 4.0]), lambda bad, **_: spearman([1.0, 3.0, 2.0], bad),
                 id="spearman y"),
    pytest.param("x", _X, lambda bad, **_: joint_probabilities(bad, perplexity=2.0),
                 id="joint_probabilities"),
    pytest.param("x", _X,
                 lambda bad, **_: run_tsne(bad, TsneConfig(perplexity=2.0, iterations=2, seed=0)),
                 id="run_tsne"),
    pytest.param("layout", _LAYOUT, lambda bad, **_: kl_divergence(_P, bad),
                 id="kl_divergence layout"),
    pytest.param("P", _P, lambda bad, **_: kl_divergence(bad, _LAYOUT), id="kl_divergence P"),
    pytest.param("points", _LAYOUT, lambda bad, **_: Layout2D(points=bad, labels=[0, 1, 0, 1, 0]),
                 id="Layout2D"),
]
KINDS = ["strings", "ragged", "complex", "bool", "None", "NaN", "inf"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, good, call", BOUNDARIES)
def test_every_boundary_refuses_every_bad_kind(name, good, call, kind, tiny_config, tiny_vocab):
    # The good value passes, so the bad one is refused for its kind alone;
    # a TypeError or ValueError escaping would fail the test too.
    call(good, tiny_config=tiny_config, tiny_vocab=tiny_vocab)
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} "):
        call(_bad(good, kind), tiny_config=tiny_config, tiny_vocab=tiny_vocab)


@pytest.mark.parametrize("shape", [(2, 0), (0, 3), (0, 0)])
def test_an_embedding_batch_needs_a_row_and_a_column(shape):
    with pytest.raises(ValidationError, match="a row and a column"):
        EmbeddingBatch(np.zeros(shape))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.complex64, np.bool_])
def test_parameters_are_floating_point(tiny_config, dtype):
    with pytest.raises(ValidationError, match="float"):
        init_params(tiny_config, dtype=dtype)
    with pytest.raises(ValidationError, match="float"):
        EncoderParams(tiny_config, np.zeros(tiny_config.n_params, dtype=dtype))
