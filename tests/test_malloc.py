"""``train`` and ``embed`` fix glibc's heap thresholds once, so repeated calls
reuse the pages that earlier calls freed instead of faulting them in again."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from xlembed import (
    EmbeddingBatch,
    EncoderConfig,
    ParallelCorpus,
    TeacherTable,
    TrainingConfig,
    _malloc,
    build_vocab,
    embed,
    train,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Minor page faults of the first and of a late call in a fresh interpreter:
# dim 128, 96 texts of 24 to 64 tokens, and three 32-sentence steps to train.
SCRIPT = """
import json, resource, sys
import numpy as np
from xlembed import (EmbeddingBatch, EncoderConfig, ParallelCorpus, TeacherTable,
                     TrainingConfig, build_vocab, embed, init_params, train)

rng = np.random.default_rng(0)
words = [f"w{i}" for i in range(200)]
texts = [" ".join(rng.choice(words, size=int(rng.integers(24, 65)))) for _ in range(96)]
corpus = ParallelCorpus(pairs=[(text, "x") for text in texts])
vocab = build_vocab(corpus, side="source")
config = EncoderConfig(vocab_size=vocab.size, dim=128, n_layers=2, n_heads=4, max_len=64)
params = init_params(config)
teacher = TeacherTable(
    embeddings=EmbeddingBatch(vectors=rng.normal(size=(96, 128)).astype(np.float32))
)
train_config = TrainingConfig(loss="mnr", epochs=1, batch_size=32, max_len=64)
if sys.argv[1] == "embed":
    call = lambda: embed(params, vocab, texts, 64)
else:
    call = lambda: train(corpus, teacher, vocab, config, train_config)
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap thresholds")
@pytest.mark.parametrize("op", ["embed", "train"])
def test_repeated_calls_reuse_the_heap(op):
    # With glibc's sliding thresholds each such call faulted in thousands of
    # pages (about 4,200 an embed and 13,600 a train call); fixed, a late
    # call reuses what the first one faulted in.
    env = {k: v for k, v in os.environ.items() if k not in _malloc._USER_SETTINGS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, op], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    faults = json.loads(result.stdout)
    assert faults[0] > 100, faults
    assert faults[-1] < faults[0] / 20, faults


class FakeMallopt:
    """A C library's ``mallopt`` that records its calls."""

    def __init__(self) -> None:
        self.calls: list[tuple[int, int]] = []

    def __call__(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return 1


@pytest.fixture
def fresh(monkeypatch):
    """The helper as at the start of a process, with no user thresholds set."""
    for name in _malloc._USER_SETTINGS:
        monkeypatch.delenv(name, raising=False)
    _malloc.fix_thresholds.cache_clear()
    yield monkeypatch
    _malloc.fix_thresholds.cache_clear()


def test_fixes_glibc_thresholds_on_the_first_call(fresh):
    mallopt = FakeMallopt()
    fresh.setattr(_malloc, "_libc", lambda: SimpleNamespace(mallopt=mallopt))
    _malloc.fix_thresholds()
    _malloc.fix_thresholds()
    assert mallopt.calls == [(-3, _malloc.MMAP_THRESHOLD), (-1, _malloc.TRIM_THRESHOLD)]
    if ctypes.sizeof(ctypes.c_long) == 8:
        assert (_malloc.MMAP_THRESHOLD, _malloc.TRIM_THRESHOLD) == (32 << 20, 64 << 20)


@pytest.mark.parametrize("name", _malloc._USER_SETTINGS)
def test_user_thresholds_take_precedence(fresh, name):
    mallopt = FakeMallopt()
    fresh.setattr(_malloc, "_libc", lambda: SimpleNamespace(mallopt=mallopt))
    fresh.setenv(name, "1048576")
    _malloc.fix_thresholds()
    assert mallopt.calls == []


def test_no_op_without_mallopt_gives_the_same_bytes(fresh):
    rng = np.random.default_rng(3)
    texts = [" ".join(f"w{t}" for t in rng.integers(0, 40, size=rng.integers(2, 20)))
             for _ in range(24)]
    corpus = ParallelCorpus(pairs=[(text, "x") for text in texts])
    vocab = build_vocab(corpus, side="source")
    config = EncoderConfig(vocab_size=vocab.size, dim=16, n_layers=1, n_heads=2, max_len=20)
    teacher = TeacherTable(
        embeddings=EmbeddingBatch(vectors=rng.normal(size=(24, 16)).astype(np.float32))
    )
    train_config = TrainingConfig(epochs=2, batch_size=8, max_len=20, base_lr=1e-3)

    def run() -> tuple[bytes, bytes]:
        params = train(corpus, teacher, vocab, config, train_config).params
        return params.flat.tobytes(), embed(params, vocab, texts, 20, batch_size=5).vectors.tobytes()

    expected = run()
    for libc in (None, SimpleNamespace()):
        _malloc.fix_thresholds.cache_clear()
        fresh.setattr(_malloc, "_libc", lambda: libc)
        assert run() == expected
