"""End-to-end CLI pipeline plus exit-code contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import xlembed
from xlembed import embed, load_checkpoint, load_vocab, read_teacher_file
from xlembed.cli import dispatch

SOURCES = [
    "the cat sat on the mat",
    "a dog ran in the park",
    "birds sing in the morning",
    "the sun is warm today",
    "rain fell all night",
    "children play near the river",
    "the old man reads books",
    "a train leaves at noon",
    "she cooks rice and beans",
    "the market opens early",
    "wind moves the tall grass",
    "stars shine over the hills",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the full pipeline once; later tests only inspect the outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus.tsv"
    lines = [f"{src}\ttgt {src}" for src in SOURCES]
    # The loader must drop the duplicate and the whitespace-only pair.
    lines.append(lines[0])
    lines.append(" \tnot empty")
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

    paths = {
        "corpus": corpus,
        "vocab": root / "vocab.txt",
        "teacher": root / "teacher.xlte",
        "ckpt": root / "student.bemb",
        "log": root / "train.log",
        "emb": root / "sources.xlte",
        "texts": root / "texts.txt",
    }
    paths["texts"].write_text("\n".join(SOURCES) + "\n", encoding="utf-8")

    assert dispatch([
        "build-vocab", "--corpus", str(corpus), "--out", str(paths["vocab"]),
    ]) == 0
    assert dispatch([
        "toy-teacher", "--corpus", str(corpus), "--out", str(paths["teacher"]),
        "--dim", "16", "--layers", "1", "--heads", "2", "--max-len", "8", "--seed", "5",
    ]) == 0
    assert dispatch([
        "train", "--corpus", str(corpus), "--teacher", str(paths["teacher"]),
        "--vocab", str(paths["vocab"]), "--out", str(paths["ckpt"]),
        "--loss", "mse", "--epochs", "2", "--batch-size", "4",
        "--layers", "1", "--heads", "2", "--ffn-mult", "2",
        "--max-len", "8", "--log", str(paths["log"]),
    ]) == 0
    assert dispatch([
        "embed", "--ckpt", str(paths["ckpt"]), "--vocab", str(paths["vocab"]),
        "--texts", str(paths["texts"]), "--out", str(paths["emb"]),
    ]) == 0
    return paths


class TestPipelineArtifacts:
    def test_vocabulary_file(self, workdir):
        vocab = load_vocab(workdir["vocab"])
        assert vocab.id_to_token[:2] == ["<pad>", "<unk>"]
        assert "the" in vocab.token_to_id

    def test_teacher_rows_match_cleaned_corpus(self, workdir):
        table = read_teacher_file(workdir["teacher"])
        assert table.count == len(SOURCES)  # duplicates and blanks dropped
        assert table.dim == 16
        norms = np.linalg.norm(table.embeddings.vectors, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-5

    def test_checkpoint_trained_against_that_vocab(self, workdir):
        ckpt = load_checkpoint(workdir["ckpt"])
        vocab = load_vocab(workdir["vocab"])
        assert ckpt.vocab_hash == vocab.content_hash()
        assert ckpt.config.dim == 16  # inherited from the teacher table
        assert ckpt.training_meta["steps"] == 2 * 3

    def test_training_log_written(self, workdir):
        lines = workdir["log"].read_text().splitlines()
        assert len(lines) == 6
        assert all(len(line.split("\t")) == 4 for line in lines)

    def test_embed_output_matches_library_call(self, workdir):
        ckpt = load_checkpoint(workdir["ckpt"])
        vocab = load_vocab(workdir["vocab"])
        expected = embed(ckpt.params, vocab, SOURCES, ckpt.config.max_len)
        table = read_teacher_file(workdir["emb"])
        assert np.array_equal(table.embeddings.vectors, expected.vectors)


class TestEvalCommands:
    def test_eval_paraphrase_json(self, workdir, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "the cat sat on the mat\tthe cat sat on the mat\n"
            "a dog ran in the park\tstars shine over the hills\n",
            encoding="utf-8",
        )
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n0\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = dispatch([
            "eval-paraphrase", "--ckpt", str(workdir["ckpt"]), "--vocab", str(workdir["vocab"]),
            "--pairs", str(pairs), "--labels", str(labels), "--report", str(report_path),
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["task"] == "paraphrase"
        assert record["n_items"] == 2
        assert 0.0 <= record["accuracy"] <= 1.0
        assert -1.0 <= record["mcs"] <= 1.0
        assert record["inference_seconds"] > 0
        # Identical sentences embed identically, so that pair scores 1.
        assert record["accuracy"] >= 0.5
        assert json.loads(report_path.read_text()) == record

    def test_eval_paraphrase_default_labels_are_all_positive(self, workdir, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("the sun is warm today\tthe sun is warm today\n", encoding="utf-8")
        code = dispatch([
            "eval-paraphrase", "--ckpt", str(workdir["ckpt"]), "--vocab", str(workdir["vocab"]),
            "--pairs", str(pairs),
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["accuracy"] == 1.0

    def test_eval_sts_json(self, workdir, tmp_path, capsys):
        pairs = tmp_path / "sts.tsv"
        pairs.write_text(
            "the cat sat on the mat\tthe cat sat on the mat\t5\n"
            "a dog ran in the park\ta dog ran in the park\t4.5\n"
            "birds sing in the morning\tthe market opens early\t1\n"
            "rain fell all night\tshe cooks rice and beans\t0.5\n",
            encoding="utf-8",
        )
        code = dispatch([
            "eval-sts", "--ckpt", str(workdir["ckpt"]), "--vocab", str(workdir["vocab"]),
            "--pairs", str(pairs),
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["task"] == "sts"
        assert record["n_items"] == 4
        assert -1.0 <= record["pearson_r"] <= 1.0
        assert -1.0 <= record["spearman_rho"] <= 1.0

    def test_wrong_label_count_fails_cleanly(self, workdir, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a\tb\nc\td\n", encoding="utf-8")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n", encoding="utf-8")
        code = dispatch([
            "eval-paraphrase", "--ckpt", str(workdir["ckpt"]), "--vocab", str(workdir["vocab"]),
            "--pairs", str(pairs), "--labels", str(labels),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTsneCommand:
    def test_writes_parseable_svg(self, workdir, tmp_path, capsys):
        labels = tmp_path / "labels.tsv"
        rows = [f"{src}\t{'nature' if i % 2 else 'town'}" for i, src in enumerate(SOURCES)]
        labels.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "plot.svg"
        code = dispatch([
            "tsne", "--embeddings", str(workdir["emb"]), "--labels", str(labels),
            "--out", str(out), "--perplexity", "2.5", "--iterations", "30",
        ])
        assert code == 0
        root = ET.fromstring(out.read_text(encoding="utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}circle")) == len(SOURCES)

    def test_row_count_mismatch(self, workdir, tmp_path, capsys):
        labels = tmp_path / "labels.tsv"
        labels.write_text("one\ta\ntwo\tb\n", encoding="utf-8")
        code = dispatch([
            "tsne", "--embeddings", str(workdir["emb"]), "--labels", str(labels),
            "--out", str(tmp_path / "plot.svg"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        capsys.readouterr()

    def test_usage_errors_exit_one(self, capsys):
        assert dispatch([]) == 1
        assert dispatch(["no-such-command"]) == 1
        assert dispatch(["build-vocab"]) == 1  # missing required flags
        capsys.readouterr()

    def test_missing_corpus_exits_two(self, tmp_path, capsys):
        code = dispatch([
            "build-vocab", "--corpus", str(tmp_path / "absent.tsv"),
            "--out", str(tmp_path / "v.txt"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_texts_exit_two(self, workdir, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_bytes(b"the cat\n\xff sat\n")
        code = dispatch([
            "embed", "--ckpt", str(workdir["ckpt"]), "--vocab", str(workdir["vocab"]),
            "--texts", str(texts), "--out", str(tmp_path / "e.xlte"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_corpus_exits_two(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(b"a b\tc d\n\xff e\tf g\n")
        code = dispatch(["build-vocab", "--corpus", str(corpus), "--out", str(tmp_path / "v.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_teacher_exits_two(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.xlte"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        code = dispatch([
            "train", "--corpus", str(workdir["corpus"]), "--teacher", str(bad),
            "--vocab", str(workdir["vocab"]), "--out", str(tmp_path / "m.bemb"),
            "--loss", "mse",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_vocab_hash_mismatch_exits_two(self, workdir, tmp_path, capsys):
        other_vocab = tmp_path / "other.txt"
        other_vocab.write_text("<pad>\n<unk>\nsomething\nelse\n", encoding="utf-8")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a\tb\n", encoding="utf-8")
        code = dispatch([
            "eval-paraphrase", "--ckpt", str(workdir["ckpt"]), "--vocab", str(other_vocab),
            "--pairs", str(pairs),
        ])
        assert code == 2
        assert "hash mismatch" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, workdir, tmp_path, capsys):
        code = dispatch([
            "toy-teacher", "--corpus", str(workdir["corpus"]), "--out", str(tmp_path / "t.xlte"),
            "--dim", "8", "--heads", "2", "--seed", "-1",
        ])
        assert code == 2
        code = dispatch([
            "train", "--corpus", str(workdir["corpus"]), "--teacher", str(workdir["teacher"]),
            "--vocab", str(workdir["vocab"]), "--out", str(tmp_path / "m.bemb"),
            "--loss", "mse", "--seed", "-1",
        ])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_incompatible_dims_exit_two(self, workdir, tmp_path, capsys):
        code = dispatch([
            "train", "--corpus", str(workdir["corpus"]), "--teacher", str(workdir["teacher"]),
            "--vocab", str(workdir["vocab"]), "--out", str(tmp_path / "m.bemb"),
            "--loss", "mse", "--dim", "15", "--heads", "2",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_module_entry_point_help():
    # The child must import the package under test, also when pytest put
    # the source tree on sys.path (``pythonpath`` in pyproject.toml) rather
    # than the environment.
    package_root = str(Path(xlembed.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "xlembed", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "build-vocab" in result.stdout
