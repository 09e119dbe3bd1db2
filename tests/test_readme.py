"""The README's library example runs as written."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from xlembed.cli import dispatch

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(4)
    sources = [
        " ".join(f"w{t:02d}" for t in rng.integers(0, 30, size=rng.integers(3, 12)))
        for _ in range(40)
    ]
    corpus = "".join(f"{src}\tt {src}\n" for src in sources)
    (tmp_path / "corpus.tsv").write_text(corpus, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    # Step 2 of the quick start.
    assert dispatch([
        "toy-teacher", "--corpus", "corpus.tsv", "--dim", "32", "--max-len", "16",
        "--seed", "7", "--out", "teacher.xlte",
    ]) == 0
    capsys.readouterr()

    example = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(example.group(1), str(README), "exec"), {})
    mcs = float(capsys.readouterr().out)
    assert math.isfinite(mcs) and -1.0 <= mcs <= 1.0
