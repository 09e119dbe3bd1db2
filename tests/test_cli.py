"""End-to-end CLI pipeline plus exit-code contract."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import xlembed
from xlembed import (
    EmbeddingBatch,
    EncoderConfig,
    TeacherTable,
    ToolkitError,
    TrainingConfig,
    TsneConfig,
    cosine,
    embed,
    load_checkpoint,
    load_vocab,
    pearson,
    read_teacher_file,
    spearman,
    write_teacher_file,
)
from xlembed.cli import build_parser, dispatch

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

    def test_one_timed_pass_embeds_both_sides(self, workdir, tmp_path, capsys, monkeypatch):
        # inference_seconds times every text behind the metrics; the rows of
        # the joint pass equal each side embedded on its own.
        rows = [
            ("the cat sat on the mat", "a dog ran in the park", 1.0),
            ("birds sing in the morning", "the sun is warm today", 3.0),
            ("rain fell all night", "she cooks rice and beans tonight", 2.5),
        ]
        pairs = tmp_path / "sts.tsv"
        pairs.write_text("".join(f"{a}\t{b}\t{s}\n" for a, b, s in rows), encoding="utf-8")
        timed = []
        time_inference = xlembed.cli.time_inference

        def recording(params, vocab, texts, max_len):
            timed.append(list(texts))
            return time_inference(params, vocab, texts, max_len)

        monkeypatch.setattr(xlembed.cli, "time_inference", recording)
        monkeypatch.setattr(xlembed.cli, "embed", None)  # an untimed embed would fail
        code = dispatch([
            "eval-sts", "--ckpt", str(workdir["ckpt"]), "--vocab", str(workdir["vocab"]),
            "--pairs", str(pairs),
        ])
        assert code == 0
        assert timed == [[a for a, _, _ in rows] + [b for _, b, _ in rows]]

        record = json.loads(capsys.readouterr().out.strip())
        ckpt = load_checkpoint(workdir["ckpt"])
        vocab = load_vocab(workdir["vocab"])
        a, b = (
            embed(ckpt.params, vocab, [row[side] for row in rows], ckpt.config.max_len).vectors
            for side in (0, 1)
        )
        cosines = [cosine(u, v) for u, v in zip(a, b)]
        scores = [s for _, _, s in rows]
        assert record["pearson_r"] == pearson(cosines, scores)
        assert record["spearman_rho"] == spearman(cosines, scores)

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

    def test_too_many_classes_fail_before_tsne(self, tmp_path, monkeypatch, capsys):
        emb = tmp_path / "emb.xlte"
        vectors = np.random.default_rng(0).normal(size=(13, 4))
        write_teacher_file(TeacherTable(embeddings=EmbeddingBatch(vectors)), emb)
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"text {i}\tclass{i}\n" for i in range(13)), encoding="utf-8")

        def fail(*args, **kwargs):
            raise AssertionError("run_tsne ran before the labels were checked")

        monkeypatch.setattr("xlembed.cli.run_tsne", fail)
        out = tmp_path / "plot.svg"
        code = dispatch([
            "tsne", "--embeddings", str(emb), "--labels", str(labels), "--out", str(out),
            "--perplexity", "2.5",
        ])
        assert code == 2
        assert "13 classes exceed the 12-color palette" in capsys.readouterr().err
        assert not out.exists()


class Captured(ToolkitError):
    """Raised by a patched library call once it has recorded its arguments."""


def _io(workdir, tmp_path) -> dict[str, str]:
    labels = tmp_path / "labels.tsv"
    labels.write_text(
        "".join(f"{src}\tclass{i % 2}\n" for i, src in enumerate(SOURCES)), encoding="utf-8"
    )
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("the cat sat on the mat\ta dog ran in the park\n", encoding="utf-8")
    return {**{k: str(v) for k, v in workdir.items()}, "labels": str(labels),
            "pairs": str(pairs), "out": str(tmp_path / "out"), "log_path": str(tmp_path / "log")}


TRAIN = ["train", "--corpus", "{corpus}", "--teacher", "{teacher}", "--vocab", "{vocab}",
         "--out", "{out}", "--loss", "mse"]
TOY_TEACHER = ["toy-teacher", "--corpus", "{corpus}", "--out", "{out}"]
EVAL_PARAPHRASE = ["eval-paraphrase", "--ckpt", "{ckpt}", "--vocab", "{vocab}", "--pairs", "{pairs}"]


@pytest.mark.parametrize("argv, patched, pick, expected", [
    # Flags left out: each call receives exactly the library's defaults.
    (TRAIN, "train", lambda a, kw: a[4], TrainingConfig(loss="mse")),
    (TRAIN, "train", lambda a, kw: dataclasses.replace(a[3], vocab_size=3),
     EncoderConfig(vocab_size=3, dim=16, n_layers=2, n_heads=4)),
    (["tsne", "--embeddings", "{emb}", "--labels", "{labels}", "--out", "{out}"],
     "run_tsne", lambda a, kw: a[1], TsneConfig()),
    (["build-vocab", "--corpus", "{corpus}", "--out", "{out}"], "build_vocab",
     lambda a, kw: kw, {}),
    (["build-vocab", "--corpus", "{corpus}", "--out", "{out}"], "preprocess",
     lambda a, kw: kw, {}),
    (TOY_TEACHER, "build_vocab", lambda a, kw: kw, {"side": "target"}),
    (EVAL_PARAPHRASE, "paraphrase_accuracy", lambda a, kw: kw, {}),
    # Flags whose name differs from the field they set.
    (TRAIN + ["--lr", "0.25", "--log", "{log_path}"], "train",
     lambda a, kw: (a[4].base_lr, Path(a[4].log_path).name), (0.25, "log")),
    (TRAIN + ["--layers", "1", "--heads", "2"], "train",
     lambda a, kw: (a[3].n_layers, a[3].n_heads), (1, 2)),
    (TOY_TEACHER + ["--vocab-max-size", "7", "--vocab-min-freq", "2"], "build_vocab",
     lambda a, kw: kw, {"side": "target", "max_size": 7, "min_freq": 2}),
    (EVAL_PARAPHRASE + ["--threshold", "0.5"], "paraphrase_accuracy",
     lambda a, kw: kw, {"threshold": 0.5}),
])
def test_flags_reach_the_library(workdir, tmp_path, monkeypatch, argv, patched, pick, expected):
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        raise Captured("captured")

    monkeypatch.setattr(f"xlembed.cli.{patched}", capture)
    paths = _io(workdir, tmp_path)
    assert dispatch([arg.format(**paths) for arg in argv]) == 2
    assert len(calls) == 1
    assert pick(*calls[0]) == expected


def test_each_flag_sets_one_config_field():
    # _given reads flags by field name, so a flag whose field is gone would
    # be dropped silently, and a field without a flag is out of the CLI's reach.
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def settings(command: str, *io: str) -> set[str]:
        return {a.dest for a in commands.choices[command]._actions} - {"help", *io}

    def names(config: type) -> set[str]:
        return {f.name for f in dataclasses.fields(config)}

    corpus_io = ("corpus", "format", "min_chars", "max_chars", "out")
    assert settings("train", *corpus_io, "teacher", "vocab") == (
        names(TrainingConfig) | names(EncoderConfig) - {"vocab_size", "dim"}
    )
    assert settings("toy-teacher", *corpus_io) == (
        names(EncoderConfig) - {"vocab_size"} | {"max_size", "min_freq"}
    )
    assert settings("tsne", "embeddings", "labels", "out") == names(TsneConfig)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        capsys.readouterr()

    def test_usage_errors_exit_one(self, workdir, tmp_path, capsys):
        assert dispatch([]) == 1
        assert dispatch(["no-such-command"]) == 1
        assert dispatch(["build-vocab"]) == 1  # missing required flags
        # train takes the teacher's width and shuffles every epoch;
        # build-vocab reads the source side. None of these is a setting.
        paths = _io(workdir, tmp_path)
        build_vocab = ["build-vocab", "--corpus", "{corpus}", "--out", "{out}"]
        for argv in (TRAIN + ["--dim", "16"], TRAIN + ["--shuffle"], TRAIN + ["--no-shuffle"],
                     build_vocab + ["--side", "source"]):
            assert dispatch([arg.format(**paths) for arg in argv]) == 1
        assert not Path(paths["out"]).exists()
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

    MODEL = ["--ckpt", "{ckpt}", "--vocab", "{vocab}"]

    @pytest.mark.parametrize(
        "argv, files, message",
        [
            (["build-vocab", "--corpus", "{corpus}", "--out", "{out}"],
             {"corpus": " \t \n\t\n"}, "no usable pairs after cleaning"),
            (["embed", *MODEL, "--texts", "{texts}", "--out", "{out}"],
             {"texts": ""}, "contains no text lines"),
            (["eval-paraphrase", *MODEL, "--pairs", "{pairs}", "--labels", "{labels}"],
             {"pairs": "a\tb\nc\td\n", "labels": "1\nyes\n"},
             "line 2: label must be 0 or 1, got 'yes'"),
            (["eval-paraphrase", *MODEL, "--pairs", "{pairs}"],
             {"pairs": ""}, "no pairs to evaluate"),
            (["eval-sts", *MODEL, "--pairs", "{pairs}"], {"pairs": ""}, "no pairs to evaluate"),
        ],
        ids=["cleaned-empty-corpus", "empty-texts", "bad-label", "empty-paraphrase-pairs",
             "empty-sts-pairs"],
    )
    def test_unusable_input_exits_two(self, workdir, tmp_path, capsys, argv, files, message):
        paths = {"ckpt": workdir["ckpt"], "vocab": workdir["vocab"], "out": tmp_path / "out"}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text, encoding="utf-8")
        assert dispatch([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not paths["out"].exists()

    def test_explicit_format_overrides_the_suffix(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("the cat\tle chat\na dog\tun chien\n", encoding="utf-8")
        argv = ["build-vocab", "--corpus", str(corpus), "--out", str(tmp_path / "v.txt")]
        assert dispatch(argv) == 2
        assert "line 1: invalid JSON" in capsys.readouterr().err
        assert dispatch(argv + ["--format", "tsv"]) == 0
        capsys.readouterr()
        assert "dog" in load_vocab(tmp_path / "v.txt").token_to_id

    def test_incompatible_dims_exit_two(self, workdir, tmp_path, capsys):
        code = dispatch([
            "train", "--corpus", str(workdir["corpus"]), "--teacher", str(workdir["teacher"]),
            "--vocab", str(workdir["vocab"]), "--out", str(tmp_path / "m.bemb"),
            "--loss", "mse", "--heads", "3",  # 16 % 3 != 0
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture
def cleared_parser_cache():
    """dispatch's per-process parser, dropped before and after the test."""
    xlembed.cli._parser.cache_clear()
    yield
    xlembed.cli._parser.cache_clear()


class TestParserReuse:
    @staticmethod
    def commands(workdir, tmp_path) -> list[list[str]]:
        build_vocab = ["build-vocab", "--corpus", str(workdir["corpus"]),
                       "--out", str(tmp_path / "v.txt")]
        return [
            build_vocab,
            ["build-vocab"],  # usage error
            ["--help"],
            ["no-such-command"],
            ["build-vocab", "--corpus", str(tmp_path / "absent.tsv"),
             "--out", str(tmp_path / "v.txt")],  # data error
            build_vocab,
        ]

    @staticmethod
    def run(argv, capsys) -> tuple[int, str, str]:
        code = dispatch(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_serves_every_dispatch(self, workdir, tmp_path, capsys, monkeypatch,
                                              cleared_parser_cache):
        built = []
        build_parser = xlembed.cli.build_parser

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(xlembed.cli, "build_parser", counting)
        codes = [self.run(argv, capsys)[0] for argv in self.commands(workdir, tmp_path)]
        assert codes == [0, 1, 0, 1, 2, 0]
        assert len(built) == 1

    def test_reused_parser_matches_a_fresh_one(self, workdir, tmp_path, capsys,
                                               cleared_parser_cache):
        commands = self.commands(workdir, tmp_path)
        reused = [self.run(argv, capsys) for argv in commands]
        fresh = []
        for argv in commands:
            xlembed.cli._parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        assert reused == fresh
        assert all(out or err for _, out, err in reused)

    def test_patch_after_first_dispatch_reaches_next_command(self, workdir, tmp_path, capsys,
                                                             monkeypatch, cleared_parser_cache):
        argv = self.commands(workdir, tmp_path)[0]
        assert dispatch(argv) == 0
        calls = []

        def capture(*args, **kwargs):
            calls.append(kwargs)
            raise Captured("captured")

        monkeypatch.setattr(xlembed.cli, "build_vocab", capture)
        assert dispatch(argv) == 2
        assert calls == [{}]
        capsys.readouterr()


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
