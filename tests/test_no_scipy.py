"""The package imports and runs with SciPy unavailable."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# `sys.modules["scipy"] = None` makes every `import scipy...` raise.
SCRIPT = """
import sys
sys.modules["scipy"] = None

import numpy as np
import xlembed
from xlembed import EncoderConfig, backward, embed, forward, init_params

config = EncoderConfig(vocab_size=12, dim=8, n_layers=1, n_heads=2, ffn_mult=2, max_len=6)
params = init_params(config)
out, cache = forward(params, [[2, 3, 4], [5, 6]])
grads = backward(params, cache, np.ones_like(out.vectors), params.zeros_like())
assert np.isfinite(grads.flat).all()
vocab = xlembed.build_vocab(xlembed.ParallelCorpus(pairs=[("a b c", "x")]), side="source")
assert embed(params, vocab, ["a b", "c"], 6).vectors.shape == (2, 8)
"""


def test_package_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
