"""A compact transformer sentence encoder in plain NumPy.

Forward pass: token + learned position embeddings, a stack of pre-norm
transformer blocks (multi-head self-attention, then a feed-forward with the
tanh-form GELU, each wrapped in residual connections), a final layer norm,
and mean pooling over each sentence's tokens. No dropout anywhere.

The backward pass is written by hand so gradients are exact, not
approximated. A batch is packed: the real tokens of all its sentences sit
back to back as the rows of one ``(rows, dim)`` matrix, and every layer
works on that matrix. The position-wise layers compute each row from that
row alone; attention and pooling run on each sentence's own rows, once per
run of consecutive sentences of one length, whose sentences share stacked
products and softmax passes. A run's attention scores are stored key-major,
so the softmax's max and normalizer reduce over the leading axis and the
normalizer sums each query's terms in key order. So no work is done for
padding, and a sentence's embedding does not depend on the other sentences
of its batch or run, bit for bit.

Each stage is a pair of module-level functions, a forward half and its
backward half: ``_embed_tokens``, ``_attention_forward`` and ``_ffn_forward``
(once per block), and ``_pool``, each with its ``*_backward``. ``forward``
and ``embed`` make the same forward calls, and ``backward`` makes the
backward calls in reverse. The cache is a tape: ``forward`` pushes the
tuple each forward half saves, and ``backward`` pops each one straight
into its backward half. On a large batch, ``backward`` runs each layer's
weight-gradient products on a helper thread beside the input-gradient
chain, with the bytes of running them inline (see ``_Jobs``).

All computation happens in the dtype of the parameter arrays; float32 is
the default, and tests run the same code in float64 for finite-difference
gradient checks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from concurrent import futures
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from . import _malloc
from .errors import ValidationError, check_array, check_count
from .tokenizer import PAD_ID, Vocab, encode_batch

_LN_EPS = 1e-5
_INIT_STD = 0.02
# Tanh-form GELU of Hendrycks & Gimpel 2016 (arXiv:1606.08415):
# 0.5·u·(1 + tanh(c·(u + a·u³))).
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# Fewest rows of a packed batch: OpenBLAS rounds a product of 15 rows or
# fewer with other kernels, so a smaller batch gets PAD_ID rows.
_MIN_ROWS = 16
# Rows per block of the GELU's chain of element-wise passes: at dim 128 a
# block of its (rows, 4·dim) input is 256 KB in float32, so a block stays in
# cache from one pass to the next.
_GELU_ROWS = 128
# Fewest packed rows × dim at which ``backward`` runs the weight-gradient
# products on a helper thread (see ``_Jobs``). Under one OpenBLAS thread on
# two cores, a 2-layer backward was slower threaded than inline at 512 rows
# of dim 32 (×1.27) and 256 of dim 128 (×1.09), and faster at 2,048 of dim
# 32 (×0.93) and 512 of dim 128 (×0.82): handing a job over and waiting for
# it costs tens of µs, which small products do not repay.
_OVERLAP_SIZE = 65536

# Each run of consecutive equal-length sentences in a packed batch, as
# (first row, number of sentences, length).
Runs = list[tuple[int, int, int]]


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters; dim must divide evenly across heads."""

    vocab_size: int
    dim: int
    n_layers: int
    n_heads: int
    ffn_mult: int = 4
    max_len: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("vocab_size", self.vocab_size, 3)  # two ids are reserved
        for name in ("dim", "n_layers", "n_heads", "ffn_mult", "max_len"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed, 0)
        if self.dim % self.n_heads != 0:
            raise ValidationError(
                f"dim ({self.dim}) must be divisible by n_heads ({self.n_heads})"
            )

    @property
    def n_params(self) -> int:
        """Number of scalars in the parameter buffer of this architecture."""
        return sum(math.prod(shape) for _, shape in _layout(self))


@dataclass
class LayerParams:
    """Weights of one transformer block, row-vector convention (x @ W + b)."""

    attn_qkv_w: np.ndarray
    attn_qkv_b: np.ndarray
    attn_out_w: np.ndarray
    attn_out_b: np.ndarray
    norm1_gain: np.ndarray
    norm1_bias: np.ndarray
    norm2_gain: np.ndarray
    norm2_bias: np.ndarray
    ffn_in_w: np.ndarray
    ffn_in_b: np.ndarray
    ffn_out_w: np.ndarray
    ffn_out_b: np.ndarray


def _layout(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter tensor, in serialization order.

    Token embedding, position embedding, then per layer the 12 tensors of
    ``LayerParams`` (the stacked Q/K/V projection and the output projection
    with their biases, the two layer norms, the feed-forward weights), and
    finally the closing layer-norm gain and bias. This is the only place
    that knows shapes and order.
    """
    d, f = config.dim, config.ffn_mult * config.dim
    block = [
        ("attn_qkv_w", (3, d, d)), ("attn_qkv_b", (3, d)),
        ("attn_out_w", (d, d)), ("attn_out_b", (d,)),
        ("norm1_gain", (d,)), ("norm1_bias", (d,)),
        ("norm2_gain", (d,)), ("norm2_bias", (d,)),
        ("ffn_in_w", (d, f)), ("ffn_in_b", (f,)),
        ("ffn_out_w", (f, d)), ("ffn_out_b", (d,)),
    ]
    return (
        [("token_embedding", (config.vocab_size, d)), ("position_embedding", (config.max_len, d))]
        + [(f"layers.{i}.{name}", shape) for i in range(config.n_layers) for name, shape in block]
        + [("final_gain", (d,)), ("final_bias", (d,))]
    )


class EncoderParams:
    """All encoder tensors, as views into one contiguous 1-D buffer ``flat``.

    ``flat`` holds the tensors back to back in serialization order (see
    ``_layout``); ``token_embedding``, ``position_embedding``, ``layers``,
    ``final_gain`` and ``final_bias`` are reshaped views into it, so writing
    to a view writes to ``flat``. Gradients and optimizer moments use the
    same layout. ``flat`` is floating point; its values are not checked,
    since ``init_params`` fills an uninitialized buffer after building it.
    """

    def __init__(self, config: EncoderConfig, flat: np.ndarray) -> None:
        if flat.shape != (config.n_params,) or flat.dtype.kind != "f":
            raise ValidationError(
                f"parameters must be a float ({config.n_params},) buffer, got {flat.dtype} {flat.shape}"
            )
        views: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in _layout(config):
            size = math.prod(shape)
            views[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        self.config = config
        self.flat = flat
        self._views = views
        self.token_embedding = views["token_embedding"]
        self.position_embedding = views["position_embedding"]
        self.layers = [
            LayerParams(
                **{f.name: views[f"layers.{i}.{f.name}"] for f in dataclasses.fields(LayerParams)}
            )
            for i in range(config.n_layers)
        ]
        self.final_gain = views["final_gain"]
        self.final_bias = views["final_bias"]

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every (name, view) pair in serialization order."""
        return iter(self._views.items())

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    @property
    def n_params(self) -> int:
        return self.flat.size

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(self.config, np.zeros_like(self.flat))


@dataclass
class EmbeddingBatch:
    """A (count, dim) matrix of sentence embeddings, one row per sentence.

    ``vectors`` is admitted by ``check_array`` (finite real numbers, 2-D)
    and needs at least one row and one column.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = check_array("embeddings", self.vectors, ndim=2)
        if 0 in self.vectors.shape:
            raise ValidationError(f"embeddings need a row and a column, got shape {self.vectors.shape}")

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


@dataclass
class Cache:
    """The activations forward saves for the backward pass.

    ``tape`` is a reverse-mode tape: ``forward`` pushes each stage's saved
    tuple in call order, for each block ``_attention_forward``'s ``(ln1,
    qkvc, probs)`` and then ``_ffn_forward``'s ``(ln2, u)``, and last the
    closing layer norm's ``(xhat, inv)``. ``ln1`` and ``ln2`` are the layer
    norms' ``(xhat, inv)``, ``qkvc`` the Q, K, V and attention context rows,
    ``probs`` each run's key-major attention probabilities and ``u`` the
    GELU's pre-activation. Only what backward cannot recompute bit for bit
    is kept: the layer norms' outputs, the GELU's ``t`` and the score scale
    are recomputed by the backward halves with the calls that first made
    them. At ``ffn_mult`` 4 that is about 10 ``(rows, dim)`` arrays per
    block besides the attention probabilities. ``ids`` holds the packed
    token id of each row, and ``runs`` the batch's runs of consecutive
    equal-length sentences as (first row, sentences, length). Rows past the
    last run are the padding of a batch of fewer than ``_MIN_ROWS`` tokens.

    ``backward`` pops the tape empty, handing each entry to its backward
    half, so that each activation is freed at its last read. Only ``ids``
    and ``runs`` remain beside the empty tape, and a second ``backward`` on
    it raises.
    """

    ids: np.ndarray
    runs: Runs
    tape: list[tuple]

    @property
    def mask(self) -> np.ndarray:
        """True on every real row, False on padding: a caller weighs the rows
        a batch cost (``ids.size``) against its real tokens (``mask.sum()``)."""
        start, count, length = self.runs[-1]
        return np.arange(self.ids.size) < start + count * length


def init_params(config: EncoderConfig, dtype: Any = np.float32) -> EncoderParams:
    """Draw fresh parameters from the config's seed.

    Weight matrices and embeddings come from N(0, 0.02^2) in serialization
    order, biases start at zero, and layer-norm gains at one, so identical
    (config, dtype) always produce bit-identical parameters. The dtype must
    be floating point, as ``EncoderParams`` requires.
    """
    rng = np.random.default_rng(config.seed)
    params = EncoderParams(config, np.empty(config.n_params, dtype=dtype))
    for name, arr in params.tensors():
        leaf = name.rsplit(".", 1)[-1]
        if leaf.endswith("_gain"):
            arr[...] = 1.0
        elif leaf.endswith(("_b", "_bias")):
            arr[...] = 0.0
        else:
            arr[...] = rng.normal(0.0, _INIT_STD, size=arr.shape)
    return params


def _mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``, bit for bit, without its dispatch.

    ``np.mean`` divides the sum by the count in float64 and rounds to
    ``x.dtype``; a division rounded twice that way equals one rounded once.
    """
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def _norm_output(
    xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """A layer norm's output from its normalized rows ``xhat``: forward
    computes it with this, and backward recomputes it, bit for bit."""
    y = np.multiply(xhat, gain, out=out)
    y += bias
    return y


def _layer_norm_forward(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, tuple]:
    mu = _mean(x)
    xhat = x - mu
    y = np.multiply(xhat, xhat)
    inv = _mean(y)
    inv += np.asarray(_LN_EPS, dtype=x.dtype)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return _norm_output(xhat, gain, bias, out=y), (xhat, inv)


def _layer_norm_backward(
    dy: np.ndarray, gain: np.ndarray, cache: tuple, dgain: np.ndarray, dbias: np.ndarray
) -> np.ndarray:
    """Input gradient, in ``dy``'s buffer; the gain and bias gradients are
    added to dgain and dbias first, while ``dy`` still holds them."""
    xhat, inv = cache
    w = np.multiply(dy, xhat)
    dgain += w.sum(axis=0)
    dbias += dy.sum(axis=0)
    g = np.multiply(dy, gain, out=dy)
    np.multiply(g, xhat, out=w)
    m1 = _mean(g)
    m2 = _mean(w)
    g -= m1
    g -= np.multiply(xhat, m2, out=w)
    g *= inv
    return g


def _gelu_tanh(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``tanh(c·(u + a·u³))``, the GELU term that backward reuses, in one buffer."""
    t = np.multiply(u, u, out=out)
    t *= _GELU_A
    t += 1.0
    t *= u
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu(u: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """GELU from its pre-activation ``u`` and ``t = _gelu_tanh(u)``, which it
    overwrites with ``1 + t``; ``out`` may be ``u`` itself."""
    t += 1.0
    g = np.multiply(t, u, out=out)
    g *= 0.5
    return g


def _gelu_grad(
    u: np.ndarray, t: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Exact derivative of the tanh-form GELU, in ``out`` and one work array.

    ``0.5·(1+t) + 0.5·u·(1−t²)·c·(1 + 3a·u²)``, computed as
    ``0.5·(1+t)·(1 + c·u·(1−t)·(1 + 3a·u²))``: the factor that vanishes as
    the GELU saturates, ``1−t`` or ``1+t``, is then exact, not ``1−t²``.
    """
    w = np.multiply(u, u, out=out)
    w *= 3.0 * _GELU_A
    w += 1.0
    w *= u
    w *= _GELU_C
    v = np.subtract(1.0, t, out=work)
    w *= v
    w += 1.0
    np.add(t, 1.0, out=v)
    w *= v
    w *= 0.5
    return w


def _gelu_blocks(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the GELU of ``u`` into ``out`` and return it, one block of rows
    at a time so that each block's passes stay in cache; ``t`` lives in one
    block of work rows. ``out`` may be ``u`` itself."""
    work = np.empty((min(len(u), _GELU_ROWS), u.shape[1]), dtype=u.dtype)
    for s in range(0, len(u), _GELU_ROWS):
        ub = u[s : s + _GELU_ROWS]
        _gelu(ub, _gelu_tanh(ub, out=work[: len(ub)]), out=out[s : s + _GELU_ROWS])
    return out


def _gelu_backward(u: np.ndarray, d_g: np.ndarray) -> np.ndarray:
    """Multiply the GELU's derivative into ``d_g`` and then write the GELU
    itself over ``u``, which it returns: nothing of ``(rows, 4·dim)`` is
    allocated. It runs one block of rows at a time like ``_gelu_blocks``;
    each block's ``t`` is recomputed, bit for bit, in a block of work rows,
    and read by the derivative before the GELU overwrites the block's ``u``."""
    work = np.empty((3, min(len(u), _GELU_ROWS), u.shape[1]), dtype=u.dtype)
    for s in range(0, len(u), _GELU_ROWS):
        rows = slice(s, s + _GELU_ROWS)
        ub, db = u[rows], d_g[rows]
        tb, w1, w2 = work[:, : len(ub)]
        db *= _gelu_grad(ub, _gelu_tanh(ub, out=tb), w1, w2)
        _gelu(ub, tb, out=ub)
    return u


def _add_weight_grad(
    dw: np.ndarray, x: np.ndarray, dy: np.ndarray, norm: tuple | None = None
) -> None:
    """``dw += x.T @ dy``, a weight gradient. With ``norm``, a layer norm's
    ``(gain, bias)``, ``x`` is its normalized rows, and its output is
    recomputed first."""
    if norm is not None:
        x = _norm_output(x, *norm)
    dw += x.T @ dy


def _call(job: list) -> None:
    """``job[0](*job[1:])``, with ``job`` emptied first: the executor's work
    item keeps its arguments until the worker's next loop, so the arrays must
    not be among them once the job's future resolves."""
    fn, *args = job
    job.clear()
    fn(*args)


class _Jobs:
    """The weight-gradient products of one ``backward`` call.

    With ``threaded``, each job runs on one helper thread, in submission
    order, while the calling thread goes on with the input gradients; a job
    only reads arrays that nothing writes until ``wait`` returns, and adds
    into a gradient that nothing else touches, so each product is the same
    BLAS call on the same operands and gives the same bytes. Without it,
    each job runs at its call site. The thread lives as long as the ``with``
    block, which waits for every job before it ends, even on an error.
    """

    def __init__(self, threaded: bool) -> None:
        self._pool = futures.ThreadPoolExecutor(1) if threaded else None
        self._pending: list[futures.Future] = []

    def __enter__(self) -> "_Jobs":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def submit(self, fn: Callable[..., None], *args: Any) -> None:
        if self._pool is None:
            fn(*args)
        else:
            self._pending.append(self._pool.submit(_call, [fn, *args]))

    def wait(self) -> None:
        """Return once every submitted job has finished and dropped its
        arguments; if any raised, raise the first one's exception."""
        pending, self._pending = self._pending, []
        futures.wait(pending)
        for future in pending:
            future.result()


def _run_views(buf: np.ndarray, runs: Runs, n_heads: int) -> list[np.ndarray]:
    """Each run's ``(4, heads, g, n, dh)`` view of a ``(4, rows, dim)`` buffer
    of Q, K, V and context rows, or of their gradients: each sentence of a
    run, head by head, is one matrix of a stacked product."""
    _, rows, d = buf.shape
    dh = d // n_heads
    heads = buf.reshape(4, rows, n_heads, dh).transpose(0, 2, 1, 3)
    return [heads[:, :, s : s + g * n].reshape(4, n_heads, g, n, dh) for s, g, n in runs]


def _embed_tokens(params: EncoderParams, ids: np.ndarray, runs: Runs) -> np.ndarray:
    """The packed rows' token embeddings plus each sentence's positions."""
    x = params.token_embedding[ids]
    for s, g, n in runs:
        run = x[s : s + g * n].reshape(g, n, x.shape[1])
        run += params.position_embedding[:n]
    return x


def _embed_tokens_backward(d_x: np.ndarray, cache: Cache, grads: EncoderParams) -> None:
    """Add the rows' gradients into the token and position tables."""
    np.add.at(grads.token_embedding, cache.ids, d_x)
    for s, g, n in cache.runs:
        for start in range(s, s + g * n, n):
            grads.position_embedding[:n] += d_x[start : start + n]


def _attention_forward(
    x: np.ndarray, layer: LayerParams, runs: Runs, n_heads: int, keep: bool
) -> tuple[np.ndarray, tuple | None]:
    """``x`` plus the attention of its layer-normed rows, and, with ``keep``,
    its tape entry ``(ln1, qkvc, probs)`` (see ``Cache``).

    Attention runs once per run of equal-length sentences. Without ``keep``
    one run's probabilities are held at a time.
    """
    rows, d = x.shape
    h, ln = _layer_norm_forward(x, layer.norm1_gain, layer.norm1_bias)
    # Q, K, V and the attention context, back to back in one buffer, so that
    # one view per run gives all four.
    qkvc = np.empty((4, rows, d), dtype=x.dtype)
    np.matmul(h, layer.attn_qkv_w, out=qkvc[:3])
    qkvc[:3] += layer.attn_qkv_b[:, None]
    qkvc[3].fill(0)
    del h
    if not keep:
        del ln
    alpha = np.asarray(1.0 / math.sqrt(d // n_heads), dtype=x.dtype)
    probs = []
    for run, (s, g, n) in zip(_run_views(qkvc, runs, n_heads), runs):
        # The scores key-major, (keys, heads, g, queries): the softmax's max
        # and normalizer reduce over the leading axis, in long passes, and
        # the normalizer sums in key order. A max is exact in any order.
        p = np.empty((n, n_heads, g, n), dtype=x.dtype)
        np.matmul(run[1], run[0].swapaxes(2, 3), out=p.transpose(1, 2, 0, 3))
        p *= alpha
        m = np.fmax.reduce(p, axis=0)
        p -= m
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=0, out=m)
        if keep:
            probs.append(p)
        np.matmul(p.transpose(1, 2, 3, 0), run[2], out=run[3])
    out = qkvc[3] @ layer.attn_out_w
    out += layer.attn_out_b
    out += x
    return out, ((ln, qkvc, probs) if keep else None)


def _attention_backward(
    d_out: np.ndarray, layer: LayerParams, saved: tuple, grads: LayerParams,
    runs: Runs, n_heads: int, jobs: _Jobs,
) -> np.ndarray:
    """The input gradient of ``_attention_forward`` from the ``(ln1, qkvc,
    probs)`` it saved; the gradients are added to ``grads``, the two weight
    matrices' by ``jobs``."""
    ln1, qkvc, probs = saved
    jobs.submit(_add_weight_grad, grads.attn_out_w, qkvc[3], d_out)
    grads.attn_out_b += d_out.sum(axis=0)
    # Gradients of Q, K, V and the context, laid out like qkvc.
    d_qkvc = np.zeros((4, *d_out.shape), dtype=d_out.dtype)
    np.matmul(d_out, layer.attn_out_w.T, out=d_qkvc[3])
    for p, run, d_run in zip(
        probs, _run_views(qkvc, runs, n_heads), _run_views(d_qkvc, runs, n_heads)
    ):
        p_kq = p.transpose(1, 2, 0, 3)
        np.matmul(p_kq, d_run[3], out=d_run[2])
        # The softmax's backward, key-major like p, in the buffer of d_probs.
        d_scores = np.empty_like(p)
        d_scores_kq = d_scores.transpose(1, 2, 0, 3)
        np.matmul(run[2], d_run[3].swapaxes(2, 3), out=d_scores_kq)
        d_scores -= np.add.reduce(d_scores * p, axis=0)
        d_scores *= p
        np.matmul(d_scores.transpose(1, 2, 3, 0), run[1], out=d_run[0])
        np.matmul(d_scores_kq, run[0], out=d_run[1])
    d_qkv = d_qkvc[:3]
    d_qkv[:2] *= np.asarray(1.0 / math.sqrt(d_out.shape[1] // n_heads), dtype=d_out.dtype)
    jobs.submit(
        _add_weight_grad, grads.attn_qkv_w, ln1[0], d_qkv, (layer.norm1_gain, layer.norm1_bias)
    )
    # d_q·Wqᵀ + d_k·Wkᵀ + d_v·Wvᵀ, added in that order: the bits of the
    # stacked product summed over its leading axis, without its (3, rows, dim).
    d_h = d_qkv[0] @ layer.attn_qkv_w[0].T
    d_h += d_qkv[1] @ layer.attn_qkv_w[1].T
    d_h += d_qkv[2] @ layer.attn_qkv_w[2].T
    grads.attn_qkv_b += d_qkv.sum(axis=1)
    d_x = _layer_norm_backward(d_h, layer.norm1_gain, ln1, grads.norm1_gain, grads.norm1_bias)
    d_x += d_out
    return d_x


def _ffn_forward(x: np.ndarray, layer: LayerParams, keep: bool) -> tuple[np.ndarray, tuple | None]:
    """``x`` plus the feed-forward of its layer-normed rows, and, with
    ``keep``, its tape entry ``(ln2, u)`` (see ``Cache``). Without ``keep``
    the GELU overwrites its input ``u``."""
    h, ln = _layer_norm_forward(x, layer.norm2_gain, layer.norm2_bias)
    u = h @ layer.ffn_in_w
    u += layer.ffn_in_b
    del h
    if not keep:
        del ln
    act = _gelu_blocks(u, np.empty_like(u) if keep else u)
    out = act @ layer.ffn_out_w
    out += layer.ffn_out_b
    out += x
    return out, ((ln, u) if keep else None)


def _ffn_backward(
    d_out: np.ndarray, layer: LayerParams, saved: tuple, grads: LayerParams, jobs: _Jobs
) -> np.ndarray:
    """The input gradient of ``_ffn_forward`` from the ``(ln2, u)`` it saved;
    the gradients are added to ``grads``, the two weight matrices' by
    ``jobs``. The GELU is written over ``u``, so the saved ``u`` is spent."""
    ln2, u = saved
    d_u = d_out @ layer.ffn_out_w.T
    act = _gelu_backward(u, d_u)
    # ffn_in_w's product first: it holds d_u, of (rows, 4·dim), until it ends.
    jobs.submit(
        _add_weight_grad, grads.ffn_in_w, ln2[0], d_u, (layer.norm2_gain, layer.norm2_bias)
    )
    jobs.submit(_add_weight_grad, grads.ffn_out_w, act, d_out)
    grads.ffn_out_b += d_out.sum(axis=0)
    grads.ffn_in_b += d_u.sum(axis=0)
    d_h = d_u @ layer.ffn_in_w.T
    del d_u
    d_x = _layer_norm_backward(d_h, layer.norm2_gain, ln2, grads.norm2_gain, grads.norm2_bias)
    d_x += d_out
    return d_x


def _pool(x: np.ndarray, runs: Runs, count: int) -> np.ndarray:
    """Each of the ``count`` sentences' mean row.

    A sum over the middle axis of a run adds the rows of each sentence in
    order, as a sum over one sentence's rows does.
    """
    embeddings = np.empty((count, x.shape[1]), dtype=x.dtype)
    i = 0
    for s, g, n in runs:
        pooled = embeddings[i : i + g]
        np.add.reduce(x[s : s + g * n].reshape(g, n, -1), axis=1, out=pooled)
        pooled /= n
        i += g
    return embeddings


def _pool_backward(d_embeddings: np.ndarray, cache: Cache) -> np.ndarray:
    """The gradient of ``_pool`` on every packed row; padding rows get 0."""
    d_x = np.zeros((cache.ids.size, d_embeddings.shape[1]), dtype=d_embeddings.dtype)
    i = 0
    for s, g, n in cache.runs:
        d_x[s : s + g * n].reshape(g, n, -1)[...] = d_embeddings[i : i + g, None] / n
        i += g
    return d_x


def _pack(batch: list[list[int]], config: EncoderConfig) -> tuple[np.ndarray, Runs]:
    """Concatenate the sentences' token ids; returns (int64 ids, runs).

    Each run is a stretch of consecutive sentences of one length, as
    (first row, number of sentences, length). A batch of fewer than
    ``_MIN_ROWS`` tokens is padded with ``PAD_ID`` rows up to that count, so
    that no product runs on fewer rows.
    """
    if not batch:
        raise ValidationError("cannot encode an empty batch")
    lengths = [len(seq) for seq in batch]
    if min(lengths) < 1:
        raise ValidationError(f"sequence {lengths.index(min(lengths))}: no real tokens")
    longest = max(lengths)
    if longest > config.max_len:
        raise ValidationError(
            f"sequence length {longest} exceeds the encoder's max_len {config.max_len}"
        )
    # One check on the whole batch; only a failure looks for the sequence to
    # name. (Valid signed and unsigned arrays concatenate to exact float64.)
    flat = np.concatenate(batch)
    if flat.dtype.kind not in "iu" or ((flat < 0) | (flat >= config.vocab_size)).any():
        for i, seq in enumerate(batch):
            seq = np.asarray(seq)
            if seq.dtype.kind not in "iu":
                raise ValidationError(f"sequence {i}: token ids must be integers, got {seq.dtype}")
            if ((seq < 0) | (seq >= config.vocab_size)).any():
                raise ValidationError(f"sequence {i}: token id outside [0, {config.vocab_size})")
    ids = np.full(max(flat.size, _MIN_ROWS), PAD_ID, dtype=np.int64)
    ids[: flat.size] = flat
    runs, start = [], 0
    for n, group in itertools.groupby(lengths):
        g = len(list(group))
        runs.append((start, g, n))
        start += g * n
    return ids, runs


def forward(params: EncoderParams, batch: list[list[int]]) -> tuple[EmbeddingBatch, Cache]:
    """Embed a batch of token-id sentences; returns embeddings plus a cache.

    The sentences' tokens are packed back to back as the rows of one
    matrix. The position-wise layers (projections, feed-forward, layer
    norms) run on the whole matrix; attention and mean pooling run on each
    sentence's own rows, once per run of consecutive equal-length sentences,
    so a row does not depend on the rest of its batch (the README's
    Determinism section has the BLAS caveat). Only a batch of fewer than
    ``_MIN_ROWS`` tokens in total gets padding rows (see ``_pack``). The
    pass is ``_embed_tokens``, then ``_attention_forward`` and
    ``_ffn_forward`` per layer, the final layer norm and ``_pool``, the same
    calls that ``embed`` makes. The cache's tape holds what ``backward``
    reads of every stage, less what it recomputes bit for bit: the layer
    norms' outputs and the GELU's tanh term (see ``Cache``). One
    ``backward`` consumes it.
    """
    embeddings, cache = _encode(params, batch, keep=True)
    return EmbeddingBatch(vectors=embeddings), cache


def _encode(
    params: EncoderParams, batch: list[list[int]], keep: bool
) -> tuple[np.ndarray, Cache | None]:
    """The pass of ``forward``: embeddings, and a cache only with ``keep``.

    ``embed`` runs it without ``keep``, so that no half's activations
    outlive the half.
    """
    config = params.config
    ids, runs = _pack(batch, config)
    x = _embed_tokens(params, ids, runs)
    tape = []
    for layer in params.layers:
        x, attention = _attention_forward(x, layer, runs, config.n_heads, keep)
        x, ffn = _ffn_forward(x, layer, keep)
        tape += [attention, ffn]
    xf, ln = _layer_norm_forward(x, params.final_gain, params.final_bias)
    tape.append(ln)
    embeddings = _pool(xf, runs, len(batch))
    return embeddings, (Cache(ids, runs, tape) if keep else None)


def backward(
    params: EncoderParams, cache: Cache, grad_output: np.ndarray, grads: EncoderParams
) -> EncoderParams:
    """Exact gradients of <grad_output, embeddings> w.r.t. every parameter.

    ``grads`` is the caller's gradient buffer, laid out like ``params``: it
    is zeroed, the gradients are accumulated into it, and it is returned.
    It makes ``forward``'s calls in reverse, each as its backward half:
    ``_pool_backward``, the final layer norm's, ``_ffn_backward`` and
    ``_attention_backward`` per layer from the last, and
    ``_embed_tokens_backward``.

    It consumes ``cache``: each half takes its entry straight off
    ``cache.tape`` with ``pop``, so the entry dies when the half returns.
    The closing layer norm's goes first, then per layer the FFN's and the
    attention's, so the step's peak is the last layer's FFN backward, and
    the FFN's GELU is written over the cached ``u``. A wrong
    ``grad_output`` (not ``check_array``'s finite real numbers, or of
    another shape) or ``grads`` raises ``ValidationError`` before anything
    is consumed, and so does a cache that an earlier ``backward`` consumed
    (an empty tape), before anything is written.

    From ``_OVERLAP_SIZE`` packed rows × dim, the halves hand their four
    weight-gradient products per layer (``X.T @ dY`` for ``attn_out_w``,
    ``attn_qkv_w``, ``ffn_out_w`` and ``ffn_in_w``, with the recomputed
    layer-norm output that feeds two of them) to one helper thread, which
    lives for this call only; the calling thread keeps everything that
    ``d_x`` depends on. Nothing later reads those products, and each stays
    one BLAS call on the same operands, adding into a zeroed gradient, so
    no byte moves. ``backward`` waits for a half's products as the next half
    is entered, so that each popped tape entry is freed by then, as it is
    with the products inline. A product that raises surfaces here, once the
    other products have finished. Smaller batches run each product at its
    call site, with no thread.
    """
    config = params.config
    grad_output = check_array("grad_output", grad_output, params.dtype)
    count = sum([g for _, g, _ in cache.runs])
    if grad_output.shape != (count, config.dim):
        raise ValidationError(
            f"grad_output has shape {grad_output.shape}, not (batch, dim) = ({count}, {config.dim})"
        )
    if grads.config != config or grads.dtype != params.dtype:
        raise ValidationError("grads must have the config and dtype of params")
    if not cache.tape:
        raise ValidationError(
            "cache was consumed by an earlier backward: run forward again for each backward"
        )
    grads.flat.fill(0)

    tape = cache.tape
    d_x = _pool_backward(grad_output, cache)
    d_x = _layer_norm_backward(
        d_x, params.final_gain, tape.pop(), grads.final_gain, grads.final_bias
    )
    with _Jobs(cache.ids.size * config.dim >= _OVERLAP_SIZE) as jobs:
        for layer, layer_grads in zip(reversed(params.layers), reversed(grads.layers)):
            d_x = _ffn_backward(d_x, layer, tape.pop(), layer_grads, jobs)
            jobs.wait()
            d_x = _attention_backward(
                d_x, layer, tape.pop(), layer_grads, cache.runs, config.n_heads, jobs
            )
            jobs.wait()
    _embed_tokens_backward(d_x, cache, grads)
    return grads


def _chunk_starts(lengths: list[int], chunks: int) -> list[int]:
    """Cut sentences of these lengths, in order, into ``chunks`` non-empty
    chunks of near-equal row counts; returns each chunk's first sentence and
    then the count of sentences.

    Chunk ``c`` ends at the first sentence whose end reaches ``(c+1)/chunks``
    of the rows, so no chunk has more than ``rows/chunks + max(lengths)``.
    """
    ends = np.cumsum(lengths)
    cuts = np.searchsorted(ends * chunks, ends[-1] * np.arange(1, chunks)) + 1
    starts = [0]
    for c, cut in enumerate(cuts.tolist(), 1):
        # Each chunk keeps at least one sentence and leaves one for each later chunk.
        starts.append(min(max(cut, starts[-1] + 1), len(lengths) - chunks + c))
    return starts + [len(lengths)]


def _encode_texts(
    config: EncoderConfig, vocab: Vocab, texts: list[str], max_len: int
) -> list[list[int]]:
    """Token ids of texts bound for an encoder of this config: the one way
    text enters ``train`` and ``embed``.

    ``max_len`` must fit the position table, and the vocabulary's ids the
    token table (a larger table is fine: its extra rows get no gradient).
    The first call in a process fixes glibc's heap thresholds, so that the
    next step, chunk and call reuse the freed pages (see ``_malloc``).
    """
    check_count("max_len", max_len, 1)
    if max_len > config.max_len:
        raise ValidationError(
            f"max_len {max_len} exceeds the encoder's position table ({config.max_len})"
        )
    if vocab.size > config.vocab_size:
        raise ValidationError(
            f"vocabulary has {vocab.size} entries but the encoder's token table "
            f"has {config.vocab_size} rows"
        )
    _malloc.fix_thresholds()
    return encode_batch(vocab, texts, max_len)


def embed(
    params: EncoderParams,
    vocab: Vocab,
    texts: list[str],
    max_len: int,
    batch_size: int = 32,
) -> EmbeddingBatch:
    """Encode and embed sentences, building no cache for backward.

    The texts are sorted by token count (stably) and cut into
    ``ceil(len(texts) / batch_size)`` chunks of near-equal row counts, so
    that equal-length sentences meet in runs; the rows come back in input
    order. Rows are independent of their chunk, run and order, so the result
    is bit-identical to one pass over all texts, and to ``forward``'s rows:
    both call ``_embed_tokens``, ``_attention_forward``, ``_ffn_forward`` and
    ``_pool``, but here the halves keep no cache, so each half's activations
    die when it returns and a chunk holds about one layer's working set.
    Text is admitted as ``train`` admits it (see ``_encode_texts``).
    """
    if not texts:
        raise ValidationError("no texts to embed")
    check_count("batch_size", batch_size, 1)
    seqs = _encode_texts(params.config, vocab, texts, max_len)
    lengths = [len(seq) for seq in seqs]
    order = sorted(range(len(seqs)), key=lengths.__getitem__)
    starts = _chunk_starts([lengths[i] for i in order], -(-len(seqs) // batch_size))
    vectors = np.empty((len(seqs), params.config.dim), dtype=params.dtype)
    for start, end in zip(starts, starts[1:]):
        chunk = order[start:end]
        vectors[chunk] = _encode(params, [seqs[i] for i in chunk], keep=False)[0]
    return EmbeddingBatch(vectors=vectors)
