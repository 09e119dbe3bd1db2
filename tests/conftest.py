"""Shared fixtures: tiny corpora, model configs and a traced-memory probe."""

from __future__ import annotations

import sys
import tracemalloc
from typing import Callable

import numpy as np
import pytest

from xlembed import EncoderConfig, ParallelCorpus, build_vocab
from xlembed import encoder


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


RealJobs = encoder._Jobs


class StalledJobs(RealJobs):
    """``backward``'s helper thread as if it got no time until ``backward``
    waits for it: each job is held, with its arguments, until the wait
    point, and only then runs on the thread."""

    def __init__(self, threaded: bool) -> None:
        super().__init__(threaded)
        self._held: list[list] = []

    def submit(self, fn, *args) -> None:
        self._held.append([fn, *args])

    def wait(self) -> None:
        while self._held:
            super().submit(*self._held.pop(0))
        super().wait()


@pytest.fixture
def overlap(monkeypatch) -> Callable[[str], None]:
    """A function that forces ``backward``'s weight-gradient products
    ``"on"`` its helper thread whatever the batch size, ``"off"`` it (each
    runs at its call site), or ``"stalled"``: on, but each job held until its
    wait point (see ``StalledJobs``)."""

    def force(mode: str) -> None:
        monkeypatch.setattr(encoder, "_OVERLAP_SIZE", sys.maxsize if mode == "off" else 0)
        monkeypatch.setattr(encoder, "_Jobs", StalledJobs if mode == "stalled" else RealJobs)

    return force


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
