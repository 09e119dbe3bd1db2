"""Shared fixtures: tiny corpora, model configs and a traced-memory probe."""

from __future__ import annotations

import tracemalloc
from typing import Callable

import numpy as np
import pytest

from xlembed import EncoderConfig, ParallelCorpus, build_vocab


@pytest.fixture
def tiny_corpus() -> ParallelCorpus:
    pairs = [
        ("the cat sat", "le chat assis"),
        ("a dog ran fast", "un chien courait vite"),
        ("the cat ran", "le chat courait"),
        ("birds sing", "les oiseaux chantent"),
        ("a dog sat", "un chien assis"),
        ("the sun is warm", "le soleil est chaud"),
    ]
    return ParallelCorpus(pairs=pairs)


@pytest.fixture
def tiny_vocab(tiny_corpus):
    return build_vocab(tiny_corpus, side="source")


@pytest.fixture
def tiny_config(tiny_vocab) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=tiny_vocab.size, dim=8, n_layers=1, n_heads=2, ffn_mult=2, max_len=6, seed=3
    )


@pytest.fixture
def traced_peak() -> Callable[[Callable[[], object]], int]:
    """A function that calls ``fn()`` and returns the peak bytes that
    ``tracemalloc`` saw allocated during the call (NumPy buffers included)."""

    def peak(fn: Callable[[], object]) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


def random_sentences(rng: np.random.Generator, count: int, alphabet: int, lo: int, hi: int):
    """Unique whitespace sentences over a small synthetic word alphabet."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        n = int(rng.integers(lo, hi + 1))
        text = " ".join(f"w{t:02d}" for t in rng.integers(0, alphabet, size=n))
        if text in seen:
            continue
        seen.add(text)
        out.append(text)
    return out
