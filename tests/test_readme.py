"""The README's quick start and library example run as written."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from xlembed.cli import dispatch

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_commands() -> list[list[str]]:
    """The argument lists of the quick start's ``xlembed`` commands, in order."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n.*?```\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("xlembed ")]


def _sentences(rng: np.random.Generator, count: int) -> list[str]:
    return [
        " ".join(f"w{t:02d}" for t in rng.integers(0, 30, size=rng.integers(3, 12)))
        for _ in range(count)
    ]


def _write_inputs(root: Path) -> None:
    """Small versions of every file the quick start reads."""
    rng = np.random.default_rng(4)
    sources = _sentences(rng, 40)
    (root / "corpus.tsv").write_text("".join(f"{s}\tt {s}\n" for s in sources), encoding="utf-8")
    # t-SNE's default perplexity of 30 needs more than 91 points.
    texts = _sentences(rng, 96)
    (root / "sentences.txt").write_text("".join(f"{t}\n" for t in texts), encoding="utf-8")
    (root / "labeled.tsv").write_text(
        "".join(f"{t}\tclass{i % 3}\n" for i, t in enumerate(texts)), encoding="utf-8"
    )
    a, b = _sentences(rng, 8), _sentences(rng, 8)
    (root / "dev_pairs.tsv").write_text(
        "".join(f"{x}\t{y}\n" for x, y in zip(a, b)), encoding="utf-8"
    )
    (root / "dev_labels.txt").write_text("".join(f"{i % 2}\n" for i in range(8)), encoding="utf-8")
    (root / "sts.tsv").write_text(
        "".join(f"{x}\t{y}\t{i % 6}\n" for i, (x, y) in enumerate(zip(a, b))), encoding="utf-8"
    )


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """A directory in which every quick-start command ran, in order, on the
    inputs of ``_write_inputs``; returns it with each command's stdout."""
    root = tmp_path_factory.mktemp("quick_start")
    _write_inputs(root)
    printed: dict[str, str] = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in _quick_start_commands():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = dispatch(argv)
            assert code == 0, f"xlembed {shlex.join(argv)} exited with {code}"
            printed[argv[0]] = out.getvalue()
    return root, printed


def test_quick_start_runs_every_command(quick_start):
    root, printed = quick_start
    assert list(printed) == [
        "build-vocab", "toy-teacher", "train", "embed", "eval-paraphrase", "eval-sts", "tsne",
    ]
    for name in ("vocab.txt", "teacher.xlte", "student.bemb", "train_log.tsv",
                 "sentences.xlte", "scatter.svg"):
        assert (root / name).stat().st_size > 0, name
    paraphrase = json.loads(printed["eval-paraphrase"])
    assert paraphrase["task"] == "paraphrase" and paraphrase["n_items"] == 8
    sts = json.loads(printed["eval-sts"])
    assert sts["task"] == "sts" and -1.0 <= sts["spearman_rho"] <= 1.0


def test_library_example_runs(quick_start, monkeypatch, capsys):
    monkeypatch.chdir(quick_start[0])
    example = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(example.group(1), str(README), "exec"), {})
    mcs = float(capsys.readouterr().out)
    assert math.isfinite(mcs) and -1.0 <= mcs <= 1.0
