"""A compact transformer sentence encoder in plain NumPy.

Forward pass: token + learned position embeddings, a stack of pre-norm
transformer blocks (multi-head self-attention, then a GELU feed-forward,
each wrapped in residual connections), a final layer norm, and mean
pooling over each sentence's tokens. No dropout anywhere.

The backward pass is written by hand so gradients are exact, not
approximated. A batch is packed: the real tokens of all its sentences sit
back to back as the rows of one ``(rows, dim)`` matrix, and every layer
works on that matrix. The position-wise layers compute each row from that
row alone; attention and pooling run on each sentence's own rows. So no
work is done for padding, and a sentence's embedding does not depend on
the other sentences of its batch, bit for bit.

All computation happens in the dtype of the parameter arrays; float32 is
the default, and tests run the same code in float64 for finite-difference
gradient checks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np
from scipy.special import erf

from .errors import ValidationError
from .tokenizer import PAD_ID, Vocab, encode_batch

_LN_EPS = 1e-5
_INIT_STD = 0.02
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

Bounds = list[tuple[int, int]]  # each sentence's (start, end) rows in a packed batch


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
        for name in ("vocab_size", "dim", "n_layers", "n_heads", "ffn_mult", "max_len"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")
        if self.vocab_size < 3:
            raise ValidationError(f"vocab_size must be >= 3 (two ids are reserved), got {self.vocab_size}")
        if self.dim % self.n_heads != 0:
            raise ValidationError(
                f"dim ({self.dim}) must be divisible by n_heads ({self.n_heads})"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def n_params(self) -> int:
        """Number of scalars in the parameter buffer of this architecture."""
        return sum(math.prod(shape) for _, shape in _layout(self))


@dataclass
class LayerParams:
    """Weights of one transformer block, row-vector convention (x @ W + b)."""

    attn_q_w: np.ndarray
    attn_q_b: np.ndarray
    attn_k_w: np.ndarray
    attn_k_b: np.ndarray
    attn_v_w: np.ndarray
    attn_v_b: np.ndarray
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

    Token embedding, position embedding, then per layer the 16 tensors of
    ``LayerParams`` (Q/K/V/O projections with biases, the two layer norms,
    the feed-forward weights), and finally the closing layer-norm gain and
    bias. This is the only place that knows shapes and order.
    """
    d, f = config.dim, config.ffn_mult * config.dim
    block = [
        ("attn_q_w", (d, d)), ("attn_q_b", (d,)),
        ("attn_k_w", (d, d)), ("attn_k_b", (d,)),
        ("attn_v_w", (d, d)), ("attn_v_b", (d,)),
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
    same layout.
    """

    def __init__(self, config: EncoderConfig, flat: np.ndarray) -> None:
        if flat.shape != (config.n_params,):
            raise ValidationError(
                f"parameter buffer has shape {flat.shape}, expected ({config.n_params},)"
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

    def map(self, fn: Callable[..., np.ndarray], *others: "EncoderParams") -> "EncoderParams":
        """Apply fn to the flat buffers of self (and others)."""
        return EncoderParams(self.config, fn(self.flat, *(o.flat for o in others)))

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(self.config, np.zeros_like(self.flat))


@dataclass
class EmbeddingBatch:
    """A (count, dim) matrix of sentence embeddings, one row per sentence."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors)
        if self.vectors.ndim != 2:
            raise ValidationError(f"embeddings must be 2-D, got shape {self.vectors.shape}")
        if self.vectors.shape[0] < 1:
            raise ValidationError("embedding batch must contain at least one row")
        if not np.isfinite(self.vectors).all():
            raise ValidationError("embeddings contain non-finite values")

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


@dataclass
class Cache:
    """Intermediate activations saved by forward for the backward pass.

    ``ids`` holds the packed token id of each row, and ``mask`` is 1 on
    every real row and 0 on the padding row of a one-token batch. Backward
    reads only ``ids`` of the two; both stay so a caller can weigh the rows
    a batch cost (``ids.size``) against its real tokens (``mask.sum()``).
    """

    ids: np.ndarray
    mask: np.ndarray
    bounds: Bounds
    layer_caches: list[tuple]
    final_norm_cache: tuple
    counts: np.ndarray


def empty_params(config: EncoderConfig, dtype: Any = np.float32) -> EncoderParams:
    """Allocate parameters with an uninitialized buffer."""
    return EncoderParams(config, np.empty(config.n_params, dtype=dtype))


def init_params(config: EncoderConfig, dtype: Any = np.float32) -> EncoderParams:
    """Draw fresh parameters from the config's seed.

    Weight matrices and embeddings come from N(0, 0.02^2) in serialization
    order, biases start at zero, and layer-norm gains at one, so identical
    (config, dtype) always produce bit-identical parameters.
    """
    rng = np.random.default_rng(config.seed)
    params = empty_params(config, dtype)
    for name, arr in params.tensors():
        leaf = name.rsplit(".", 1)[-1]
        if leaf.endswith("_gain"):
            arr[...] = 1.0
        elif leaf.endswith(("_b", "_bias")):
            arr[...] = 0.0
        else:
            arr[...] = rng.normal(0.0, _INIT_STD, size=arr.shape)
    return params


def _layer_norm_forward(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, tuple]:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(_LN_EPS, dtype=x.dtype))
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv)


def _layer_norm_backward(
    dy: np.ndarray, gain: np.ndarray, cache: tuple, dgain: np.ndarray, dbias: np.ndarray
) -> np.ndarray:
    """Input gradient; the gain and bias gradients are added to dgain and dbias."""
    xhat, inv = cache
    g = dy * gain
    m1 = g.mean(axis=-1, keepdims=True)
    m2 = (g * xhat).mean(axis=-1, keepdims=True)
    dgain += (dy * xhat).sum(axis=0)
    dbias += dy.sum(axis=0)
    return (g - m1 - xhat * m2) * inv


def _gelu(u: np.ndarray, erf_u: np.ndarray) -> np.ndarray:
    """GELU from its pre-activation and ``erf(u / sqrt(2))``, kept for backward."""
    return 0.5 * u * (1.0 + erf_u)


def _gelu_grad(u: np.ndarray, erf_u: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf_u) + u * np.exp(-0.5 * u * u) * _INV_SQRT_2PI


def _block_forward(
    x: np.ndarray, layer: LayerParams, bounds: Bounds, n_heads: int
) -> tuple[np.ndarray, tuple]:
    rows, d = x.shape
    heads = (rows, n_heads, d // n_heads)
    h1, ln1c = _layer_norm_forward(x, layer.norm1_gain, layer.norm1_bias)
    # (heads, rows, dh) views of the projections: a sentence is a slice.
    qh = (h1 @ layer.attn_q_w + layer.attn_q_b).reshape(heads).transpose(1, 0, 2)
    kh = (h1 @ layer.attn_k_w + layer.attn_k_b).reshape(heads).transpose(1, 0, 2)
    vh = (h1 @ layer.attn_v_w + layer.attn_v_b).reshape(heads).transpose(1, 0, 2)
    alpha = np.asarray(1.0 / math.sqrt(heads[2]), dtype=x.dtype)
    ctx = np.zeros(heads, dtype=x.dtype)
    ctxh = ctx.transpose(1, 0, 2)
    probs = []
    for s, e in bounds:
        scores = (qh[:, s:e] @ kh[:, s:e].transpose(0, 2, 1)) * alpha
        ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = ex / ex.sum(axis=-1, keepdims=True)
        probs.append(p)
        ctxh[:, s:e] = p @ vh[:, s:e]
    cat = ctx.reshape(rows, d)
    x1 = x + (cat @ layer.attn_out_w + layer.attn_out_b)
    h2, ln2c = _layer_norm_forward(x1, layer.norm2_gain, layer.norm2_bias)
    u = h2 @ layer.ffn_in_w + layer.ffn_in_b
    erf_u = erf(u * _INV_SQRT2)
    x2 = x1 + (_gelu(u, erf_u) @ layer.ffn_out_w + layer.ffn_out_b)
    cache = (h1, ln1c, qh, kh, vh, alpha, probs, cat, h2, ln2c, u, erf_u)
    return x2, cache


def _block_backward(
    d_out: np.ndarray, layer: LayerParams, cache: tuple, grads: LayerParams, bounds: Bounds
) -> np.ndarray:
    h1, ln1c, qh, kh, vh, alpha, probs, cat, h2, ln2c, u, erf_u = cache
    n_heads, rows, dh = qh.shape

    grads.ffn_out_w += _gelu(u, erf_u).T @ d_out
    grads.ffn_out_b += d_out.sum(axis=0)
    d_u = (d_out @ layer.ffn_out_w.T) * _gelu_grad(u, erf_u)
    grads.ffn_in_w += h2.T @ d_u
    grads.ffn_in_b += d_u.sum(axis=0)
    d_x1 = d_out + _layer_norm_backward(
        d_u @ layer.ffn_in_w.T, layer.norm2_gain, ln2c, grads.norm2_gain, grads.norm2_bias
    )

    grads.attn_out_w += cat.T @ d_x1
    grads.attn_out_b += d_x1.sum(axis=0)
    d_ctxh = (d_x1 @ layer.attn_out_w.T).reshape(rows, n_heads, dh).transpose(1, 0, 2)
    d_qkv = np.zeros((3, rows, n_heads, dh), dtype=h1.dtype)
    d_qh, d_kh, d_vh = d_qkv.transpose(0, 2, 1, 3)
    for p, (s, e) in zip(probs, bounds):
        d_probs = d_ctxh[:, s:e] @ vh[:, s:e].transpose(0, 2, 1)
        d_vh[:, s:e] = p.transpose(0, 2, 1) @ d_ctxh[:, s:e]
        d_scores = (d_probs - (d_probs * p).sum(axis=-1, keepdims=True)) * p
        d_qh[:, s:e] = d_scores @ kh[:, s:e]
        d_kh[:, s:e] = d_scores.transpose(0, 2, 1) @ qh[:, s:e]
    d_qkv[:2] *= alpha
    d_q, d_k, d_v = d_qkv.reshape(3, rows, -1)
    d_h1 = d_q @ layer.attn_q_w.T + d_k @ layer.attn_k_w.T + d_v @ layer.attn_v_w.T
    grads.attn_q_w += h1.T @ d_q
    grads.attn_q_b += d_q.sum(axis=0)
    grads.attn_k_w += h1.T @ d_k
    grads.attn_k_b += d_k.sum(axis=0)
    grads.attn_v_w += h1.T @ d_v
    grads.attn_v_b += d_v.sum(axis=0)
    return d_x1 + _layer_norm_backward(
        d_h1, layer.norm1_gain, ln1c, grads.norm1_gain, grads.norm1_bias
    )


def _pack(batch: list[list[int]], config: EncoderConfig) -> tuple[np.ndarray, list[int]]:
    """Concatenate the sentences' token ids; returns (int64 ids, lengths).

    A one-token batch gets a ``PAD_ID`` row (unless ``max_len`` is 1): a
    one-row product runs as a matrix-vector product and rounds differently.
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
    ids = flat.astype(np.int64)
    if ids.size < min(2, config.max_len):
        ids = np.append(ids, PAD_ID)
    return ids, lengths


def forward(params: EncoderParams, batch: list[list[int]]) -> tuple[EmbeddingBatch, Cache]:
    """Embed a batch of token-id sentences; returns embeddings plus a cache.

    The sentences' tokens are packed back to back as the rows of one
    matrix. The position-wise layers (projections, feed-forward, layer
    norms) run on the whole matrix; attention and mean pooling run on each
    sentence's own rows, so a row does not depend on the rest of its batch
    (the README's Determinism section has the BLAS caveat). Only a batch of
    one token in total gets a padding row (see ``_pack``).
    """
    config = params.config
    ids, lengths = _pack(batch, config)
    ends = list(itertools.accumulate(lengths))
    bounds = [(e - n, e) for n, e in zip(lengths, ends)]
    mask = (np.arange(ids.size) < ends[-1]).astype(params.dtype)

    x = params.token_embedding[ids]
    for s, e in bounds:
        x[s:e] += params.position_embedding[: e - s]
    layer_caches = []
    for layer in params.layers:
        x, cache = _block_forward(x, layer, bounds, config.n_heads)
        layer_caches.append(cache)
    xf, lnfc = _layer_norm_forward(x, params.final_gain, params.final_bias)

    counts = np.array(lengths, dtype=params.dtype)
    embeddings = np.stack([xf[s:e].sum(axis=0) for s, e in bounds])
    embeddings /= counts[:, None]

    return EmbeddingBatch(vectors=embeddings), Cache(ids, mask, bounds, layer_caches, lnfc, counts)


def backward(
    params: EncoderParams, cache: Cache, grad_output: np.ndarray, grads: EncoderParams
) -> EncoderParams:
    """Exact gradients of <grad_output, embeddings> w.r.t. every parameter.

    ``grads`` is the caller's gradient buffer, laid out like ``params``: it
    is zeroed, the gradients are accumulated into it, and it is returned.
    """
    config = params.config
    grad_output = np.asarray(grad_output, dtype=params.dtype)
    if grad_output.shape != (len(cache.bounds), config.dim):
        raise ValidationError(
            f"grad_output shape {grad_output.shape} does not match "
            f"(batch, dim) = ({len(cache.bounds)}, {config.dim})"
        )
    if grads.config != config or grads.dtype != params.dtype:
        raise ValidationError("grads must have the config and dtype of params")
    grads.flat.fill(0)

    d_pooled = grad_output / cache.counts[:, None]
    d_xf = np.zeros((cache.ids.size, config.dim), dtype=params.dtype)
    for row, (s, e) in zip(d_pooled, cache.bounds):
        d_xf[s:e] = row
    d_x = _layer_norm_backward(
        d_xf, params.final_gain, cache.final_norm_cache, grads.final_gain, grads.final_bias
    )

    for layer, layer_grads, layer_cache in zip(
        reversed(params.layers), reversed(grads.layers), reversed(cache.layer_caches)
    ):
        d_x = _block_backward(d_x, layer, layer_cache, layer_grads, cache.bounds)

    np.add.at(grads.token_embedding, cache.ids, d_x)
    for s, e in cache.bounds:
        grads.position_embedding[: e - s] += d_x[s:e]
    return grads


def embed(
    params: EncoderParams,
    vocab: Vocab,
    texts: list[str],
    max_len: int,
    batch_size: int = 32,
) -> EmbeddingBatch:
    """Encode and embed sentences; caches are discarded.

    Sentences are embedded in input order, in chunks of ``batch_size``.
    Rows are independent of their chunk, so the result is bit-identical to
    one pass over all texts.
    """
    if not texts:
        raise ValidationError("no texts to embed")
    if max_len > params.config.max_len:
        raise ValidationError(
            f"max_len {max_len} exceeds the encoder's position table ({params.config.max_len})"
        )
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    seqs = encode_batch(vocab, texts, max_len)
    chunks = [
        forward(params, seqs[start : start + batch_size])[0].vectors
        for start in range(0, len(seqs), batch_size)
    ]
    return EmbeddingBatch(vectors=np.concatenate(chunks))
