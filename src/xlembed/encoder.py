"""A compact transformer sentence encoder in plain NumPy.

Forward pass: token + learned position embeddings, a stack of pre-norm
transformer blocks (multi-head self-attention, then a GELU feed-forward,
each wrapped in residual connections), a final layer norm, and masked mean
pooling over real token positions. No dropout anywhere.

The backward pass is written by hand so gradients are exact, not
approximated. Three reductions run left-to-right over the sequence axis
(softmax denominator, attention-weighted value sum, mean pool) so that
appending pad tokens never changes an embedding, bit for bit: pad keys are
masked to -inf before the softmax, which makes their contributions exactly
zero, and adding a trailing zero leaves an IEEE float sum unchanged.

All computation happens in the dtype of the parameter arrays; float32 is
the default, and tests run the same code in float64 for finite-difference
gradient checks.
"""

from __future__ import annotations

import dataclasses
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
    """Intermediate activations saved by forward for the backward pass."""

    ids: np.ndarray
    mask: np.ndarray
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
    dy: np.ndarray, gain: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv = cache
    d = dy.shape[-1]
    g = dy * gain
    m1 = g.mean(axis=-1, keepdims=True)
    m2 = (g * xhat).mean(axis=-1, keepdims=True)
    dx = (g - m1 - xhat * m2) * inv
    dgain = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbias = dy.reshape(-1, d).sum(axis=0)
    return dx, dgain, dbias


def _gelu(u: np.ndarray, erf_u: np.ndarray) -> np.ndarray:
    """GELU from its pre-activation and ``erf(u / sqrt(2))``, kept for backward."""
    return 0.5 * u * (1.0 + erf_u)


def _gelu_grad(u: np.ndarray, erf_u: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf_u) + u * np.exp(-0.5 * u * u) * _INV_SQRT_2PI


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _ltr_sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right (pad-exact order)."""
    acc = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        acc += x[..., j]
    return acc


def _block_forward(
    x: np.ndarray, layer: LayerParams, key_valid: np.ndarray, n_heads: int
) -> tuple[np.ndarray, tuple]:
    h1, ln1c = _layer_norm_forward(x, layer.norm1_gain, layer.norm1_bias)
    q = h1 @ layer.attn_q_w + layer.attn_q_b
    k = h1 @ layer.attn_k_w + layer.attn_k_b
    v = h1 @ layer.attn_v_w + layer.attn_v_b
    qh, kh, vh = (_split_heads(a, n_heads) for a in (q, k, v))
    alpha = np.asarray(1.0 / math.sqrt(qh.shape[-1]), dtype=x.dtype)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * alpha
    neg_inf = np.asarray(-np.inf, dtype=x.dtype)
    scores = np.where(key_valid[:, None, None, :], scores, neg_inf)
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    den = _ltr_sum_last(e)
    probs = e / den[..., None]
    ctx = probs[..., 0][..., None] * vh[:, :, 0][:, :, None, :]
    for j in range(1, vh.shape[2]):
        ctx += probs[..., j][..., None] * vh[:, :, j][:, :, None, :]
    cat = _merge_heads(ctx)
    attn = cat @ layer.attn_out_w + layer.attn_out_b
    x1 = x + attn
    h2, ln2c = _layer_norm_forward(x1, layer.norm2_gain, layer.norm2_bias)
    u = h2 @ layer.ffn_in_w + layer.ffn_in_b
    erf_u = erf(u * _INV_SQRT2)
    x2 = x1 + (_gelu(u, erf_u) @ layer.ffn_out_w + layer.ffn_out_b)
    cache = (h1, ln1c, qh, kh, vh, alpha, probs, cat, h2, ln2c, u, erf_u)
    return x2, cache


def _block_backward(
    d_out: np.ndarray, layer: LayerParams, cache: tuple, grads: LayerParams
) -> np.ndarray:
    h1, ln1c, qh, kh, vh, alpha, probs, cat, h2, ln2c, u, erf_u = cache
    g = _gelu(u, erf_u)
    d = d_out.shape[-1]
    f = g.shape[-1]

    d_x1 = d_out.copy()
    d_g = d_out @ layer.ffn_out_w.T
    grads.ffn_out_w += g.reshape(-1, f).T @ d_out.reshape(-1, d)
    grads.ffn_out_b += d_out.reshape(-1, d).sum(axis=0)
    d_u = d_g * _gelu_grad(u, erf_u)
    d_h2 = d_u @ layer.ffn_in_w.T
    grads.ffn_in_w += h2.reshape(-1, d).T @ d_u.reshape(-1, f)
    grads.ffn_in_b += d_u.reshape(-1, f).sum(axis=0)
    dx, dgain, dbias = _layer_norm_backward(d_h2, layer.norm2_gain, ln2c)
    grads.norm2_gain += dgain
    grads.norm2_bias += dbias
    d_x1 += dx

    d_xin = d_x1.copy()
    d_cat = d_x1 @ layer.attn_out_w.T
    grads.attn_out_w += cat.reshape(-1, d).T @ d_x1.reshape(-1, d)
    grads.attn_out_b += d_x1.reshape(-1, d).sum(axis=0)
    d_ctx = _split_heads(d_cat, probs.shape[1])
    d_probs = d_ctx @ vh.transpose(0, 1, 3, 2)
    d_vh = probs.transpose(0, 1, 3, 2) @ d_ctx
    rowdot = (d_probs * probs).sum(axis=-1, keepdims=True)
    d_scores = (d_probs - rowdot) * probs
    d_qh = (d_scores @ kh) * alpha
    d_kh = (d_scores.transpose(0, 1, 3, 2) @ qh) * alpha
    d_q, d_k, d_v = (_merge_heads(a) for a in (d_qh, d_kh, d_vh))
    d_h1 = d_q @ layer.attn_q_w.T + d_k @ layer.attn_k_w.T + d_v @ layer.attn_v_w.T
    flat_h1 = h1.reshape(-1, d)
    grads.attn_q_w += flat_h1.T @ d_q.reshape(-1, d)
    grads.attn_q_b += d_q.reshape(-1, d).sum(axis=0)
    grads.attn_k_w += flat_h1.T @ d_k.reshape(-1, d)
    grads.attn_k_b += d_k.reshape(-1, d).sum(axis=0)
    grads.attn_v_w += flat_h1.T @ d_v.reshape(-1, d)
    grads.attn_v_b += d_v.reshape(-1, d).sum(axis=0)
    dx, dgain, dbias = _layer_norm_backward(d_h1, layer.norm1_gain, ln1c)
    grads.norm1_gain += dgain
    grads.norm1_bias += dbias
    d_xin += dx
    return d_xin


def _stack_batch(
    batch: list[list[int]], config: EncoderConfig, dtype: Any
) -> tuple[np.ndarray, np.ndarray]:
    """Pad the sentences to one width; returns (ids, mask in ``dtype``)."""
    if not batch:
        raise ValidationError("cannot encode an empty batch")
    lengths = np.array([len(seq) for seq in batch])
    if lengths.min() < 1:
        raise ValidationError(f"sequence {int(lengths.argmin())}: no real tokens")
    longest = int(lengths.max())
    if longest > config.max_len:
        raise ValidationError(
            f"sequence length {longest} exceeds the encoder's max_len {config.max_len}"
        )
    t = max(longest, min(2, config.max_len))
    ids = np.full((len(batch), t), PAD_ID, dtype=np.int64)
    for i, seq in enumerate(batch):
        ids[i, : len(seq)] = seq
    bad = ((ids < 0) | (ids >= config.vocab_size)).any(axis=1)
    if bad.any():
        raise ValidationError(
            f"sequence {int(bad.argmax())}: token id outside [0, {config.vocab_size})"
        )
    mask = (np.arange(t) < lengths[:, None]).astype(dtype)
    return ids, mask


def forward(params: EncoderParams, batch: list[list[int]]) -> tuple[EmbeddingBatch, Cache]:
    """Embed a batch of token-id sentences; returns embeddings plus a cache.

    The batch is padded to its longest sentence, but never narrower than 2
    positions: at width 1 NumPy runs each per-sentence matmul as a
    matrix-vector product, which rounds differently. Pad invariance makes
    the padding inert, so a row does not depend on the rest of its batch
    (the README's Determinism section has the BLAS caveat).
    """
    config = params.config
    dtype = params.dtype
    ids, mask = _stack_batch(batch, config, dtype)
    key_valid = mask > 0
    t = ids.shape[1]

    x = params.token_embedding[ids] + params.position_embedding[:t][None, :, :]
    layer_caches = []
    for layer in params.layers:
        x, cache = _block_forward(x, layer, key_valid, config.n_heads)
        layer_caches.append(cache)
    xf, lnfc = _layer_norm_forward(x, params.final_gain, params.final_bias)

    pooled = xf[:, 0, :] * mask[:, 0, None]
    for pos in range(1, t):
        pooled += xf[:, pos, :] * mask[:, pos, None]
    counts = mask.sum(axis=1)
    embeddings = pooled / counts[:, None]

    cache = Cache(
        ids=ids, mask=mask, layer_caches=layer_caches, final_norm_cache=lnfc, counts=counts
    )
    return EmbeddingBatch(vectors=embeddings), cache


def backward(
    params: EncoderParams, cache: Cache, grad_output: np.ndarray, grads: EncoderParams
) -> EncoderParams:
    """Exact gradients of <grad_output, embeddings> w.r.t. every parameter.

    ``grads`` is the caller's gradient buffer, laid out like ``params``: it
    is zeroed, the gradients are accumulated into it, and it is returned.
    """
    config = params.config
    grad_output = np.asarray(grad_output, dtype=params.dtype)
    if grad_output.shape != (cache.ids.shape[0], config.dim):
        raise ValidationError(
            f"grad_output shape {grad_output.shape} does not match "
            f"(batch, dim) = ({cache.ids.shape[0]}, {config.dim})"
        )
    if grads.config != config or grads.dtype != params.dtype:
        raise ValidationError("grads must have the config and dtype of params")
    grads.flat.fill(0)
    d = config.dim

    d_pooled = grad_output / cache.counts[:, None]
    d_xf = d_pooled[:, None, :] * cache.mask[:, :, None]
    d_x, dgain, dbias = _layer_norm_backward(d_xf, params.final_gain, cache.final_norm_cache)
    grads.final_gain += dgain
    grads.final_bias += dbias

    for layer, layer_grads, layer_cache in zip(
        reversed(params.layers), reversed(grads.layers), reversed(cache.layer_caches)
    ):
        d_x = _block_backward(d_x, layer, layer_cache, layer_grads)

    np.add.at(grads.token_embedding, cache.ids.reshape(-1), d_x.reshape(-1, d))
    grads.position_embedding[: cache.ids.shape[1]] += d_x.sum(axis=0)
    return grads


def embed(
    params: EncoderParams,
    vocab: Vocab,
    texts: list[str],
    max_len: int,
    batch_size: int = 256,
) -> EmbeddingBatch:
    """Encode and embed sentences; caches are discarded.

    Sentences are stable-sorted by length and embedded in chunks of
    ``batch_size``, so each chunk is padded only to its own longest
    sentence, and every row is written back to its input position. Rows
    are independent of their chunk and of padding, so the result is
    bit-identical to one pass over all texts.
    """
    if not texts:
        raise ValidationError("no texts to embed")
    if max_len > params.config.max_len:
        raise ValidationError(
            f"max_len {max_len} exceeds the encoder's position table ({params.config.max_len})"
        )
    seqs = encode_batch(vocab, texts, max_len)
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
    out = np.empty((len(seqs), params.config.dim), dtype=params.dtype)
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        emb, _ = forward(params, [seqs[i] for i in chunk])
        out[chunk] = emb.vectors
    return EmbeddingBatch(vectors=out)
