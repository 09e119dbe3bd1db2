"""``backward``'s weight-gradient products on a helper thread.

From ``encoder._OVERLAP_SIZE`` packed rows × dim, ``backward`` hands each
layer's four weight-gradient products to one thread that lives for the
call, and goes on with the input gradients; below it each product runs at
its call site. Either way each product is the same BLAS call on the same
operands, so the gradients must have the same bytes. The tests force the
thread on and off (the ``overlap`` fixture) rather than rely on the size.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    EmbeddingBatch,
    EncoderConfig,
    ParallelCorpus,
    TeacherTable,
    TrainingConfig,
    backward,
    build_vocab,
    encoder,
    forward,
    init_params,
    train,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def gradient_bytes(params, batch, weights, threaded):
    size = 0 if threaded else sys.maxsize
    with mock.patch.object(encoder, "_OVERLAP_SIZE", size):
        _, cache = forward(params, batch)
        return backward(params, cache, weights, params.zeros_like()).flat.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from([32, 128]),
    n_layers=st.integers(1, 3),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=12),
    seed=st.integers(0, 2**16),
)
def test_gradient_bytes_do_not_depend_on_the_thread(dim, n_layers, lengths, seed):
    # Mixed lengths make runs of one and of several sentences; a batch of
    # fewer than 16 tokens gets padding rows.
    config = EncoderConfig(
        vocab_size=50, dim=dim, n_layers=n_layers, n_heads=4, max_len=40, seed=seed
    )
    params = init_params(config)
    rng = np.random.default_rng(seed)
    params.flat[...] = rng.normal(0.0, 0.3, size=params.n_params)
    batch = [rng.integers(2, config.vocab_size, size=n).tolist() for n in lengths]
    weights = rng.normal(size=(len(batch), dim)).astype(np.float32)
    assert gradient_bytes(params, batch, weights, True) == gradient_bytes(
        params, batch, weights, False
    )


def test_gradient_bytes_do_not_depend_on_the_thread_under_two_blas_threads():
    # Under two OpenBLAS threads the weight-gradient products of a batch of
    # 1,000 rows or more sum in another order than under one; run beside the
    # input-gradient chain, each must still get the bytes it gets inline.
    script = textwrap.dedent(
        """
        import hashlib
        import sys
        from unittest import mock
        import numpy as np
        from xlembed import EncoderConfig, backward, encoder, forward, init_params

        config = EncoderConfig(vocab_size=500, dim=128, n_layers=2, n_heads=4, max_len=64)
        params = init_params(config)
        rng = np.random.default_rng(0)
        batch = [rng.integers(2, 500, size=n).tolist() for n in rng.integers(24, 65, size=32)]
        assert sum(map(len, batch)) >= 1000
        weights = rng.normal(size=(32, 128)).astype(np.float32)
        for size in (0, sys.maxsize):
            with mock.patch.object(encoder, "_OVERLAP_SIZE", size):
                _, cache = forward(params, batch)
                grads = backward(params, cache, weights, params.zeros_like())
            print(hashlib.sha256(grads.flat.tobytes()).hexdigest())
        """
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    threaded, inline = out.stdout.split()
    assert threaded == inline


@pytest.fixture
def step():
    """A dim-32 batch of 32 sentences of 8 tokens, its parameters and its
    output weights: forward then backward on it runs 8 jobs per layer pair."""
    config = EncoderConfig(vocab_size=50, dim=32, n_layers=2, n_heads=2, max_len=8)
    params = init_params(config)
    rng = np.random.default_rng(0)
    batch = [rng.integers(2, 50, size=8).tolist() for _ in range(32)]
    return params, batch, rng.normal(size=(32, 32)).astype(np.float32)


class Boom(Exception):
    pass


def test_a_failing_job_surfaces_after_every_other_job(step, overlap, monkeypatch):
    params, batch, weights = step
    expected = gradient_bytes(params, batch, weights, False)
    overlap("on")
    threads = set(threading.enumerate())
    started, finished = [], []
    real = encoder._add_weight_grad

    def job(*args):
        started.append(len(started))
        if len(started) == 1:
            raise Boom
        # The job after the failing one, of the same half, is still running
        # when the failure is found.
        time.sleep(0.05)
        real(*args)
        finished.append(len(finished))

    monkeypatch.setattr(encoder, "_add_weight_grad", job)
    _, cache = forward(params, batch)
    with pytest.raises(Boom):
        backward(params, cache, weights, params.zeros_like())
    # The first half's two jobs ran, and no later half started.
    assert len(started) == 2 and len(finished) == 1
    assert set(threading.enumerate()) == threads
    monkeypatch.setattr(encoder, "_add_weight_grad", real)
    _, cache = forward(params, batch)
    assert backward(params, cache, weights, params.zeros_like()).flat.tobytes() == expected


def test_no_thread_outlives_backward_or_train(step, overlap):
    params, batch, weights = step
    overlap("on")
    threads = set(threading.enumerate())
    seen = []
    real = encoder._add_weight_grad

    def job(*args):
        seen.append(threading.current_thread())
        real(*args)

    with mock.patch.object(encoder, "_add_weight_grad", job):
        _, cache = forward(params, batch)
        backward(params, cache, weights, params.zeros_like())
    # The products ran on one thread, not the caller's.
    assert len(seen) == 8 and len(set(seen)) == 1
    assert seen[0] is not threading.current_thread()
    assert set(threading.enumerate()) == threads
    words = [f"w{i}" for i in range(20)]
    corpus = ParallelCorpus(pairs=[(" ".join(words[i : i + 8]), "x") for i in range(12)])
    vocab = build_vocab(corpus, side="source")
    config = EncoderConfig(vocab_size=vocab.size, dim=32, n_layers=2, n_heads=2, max_len=8)
    teacher = TeacherTable(
        embeddings=EmbeddingBatch(vectors=np.ones((12, 32), dtype=np.float32))
    )
    train(corpus, teacher, vocab, config, TrainingConfig(epochs=1, batch_size=4, max_len=8))
    assert set(threading.enumerate()) == threads
