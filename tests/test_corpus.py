"""Corpus loading, cleaning, and splitting."""

from __future__ import annotations

import json

import numpy as np
import pytest

from xlembed import (
    FormatError,
    ParallelCorpus,
    ValidationError,
    load_labeled,
    load_parallel,
    load_scored_pairs,
    preprocess,
    split,
)
from xlembed.corpus import read_lines


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadParallel:
    def test_tsv_keeps_file_order_and_raw_text(self, tmp_path):
        p = write(tmp_path / "c.tsv", "hello world\tbonjour monde\n  padded \tx\n")
        corpus = load_parallel(p, "tsv")
        assert corpus.pairs == [("hello world", "bonjour monde"), ("  padded ", "x")]
        assert corpus.provenance == p

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        p = write(tmp_path / "c.tsv", "")
        assert load_parallel(p, "tsv").pairs == []

    def test_wrong_column_count_names_line(self, tmp_path):
        p = write(tmp_path / "c.tsv", "a\tb\nx\ty\tz\n")
        with pytest.raises(FormatError, match="line 2"):
            load_parallel(p, "tsv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            load_parallel(tmp_path / "absent.tsv", "tsv")

    def test_jsonl_matches_tsv(self, tmp_path):
        rows = [("one two", "uno dos"), ("tab\there", "ok")]
        tsv = write(tmp_path / "c.tsv", "one two\tuno dos\n")
        jsonl = write(
            tmp_path / "c.jsonl",
            "\n".join(json.dumps({"src": s, "tgt": t}) for s, t in rows) + "\n",
        )
        # JSONL can carry tabs inside text; the shared row loads identically.
        assert load_parallel(jsonl, "jsonl").pairs[0] == load_parallel(tsv, "tsv").pairs[0]
        assert load_parallel(jsonl, "jsonl").pairs == rows

    def test_jsonl_rejects_bad_rows(self, tmp_path):
        for content in ('{"src": "a"}', '{"src": "a", "tgt": 3}', "not json", '{"src": "a", "tgt": "b", "x": 1}'):
            p = write(tmp_path / "bad.jsonl", content + "\n")
            with pytest.raises(FormatError, match="line 1"):
                load_parallel(p, "jsonl")

    def test_unknown_format(self, tmp_path):
        p = write(tmp_path / "c.tsv", "a\tb\n")
        with pytest.raises(ValidationError):
            load_parallel(p, "csv")


# Characters that str.splitlines() breaks on but a text file keeps in a line.
NON_NEWLINE_BREAKS = ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("sep", NON_NEWLINE_BREAKS)
class TestOnlyNewlinesEndLines:
    def test_text_and_tsv(self, tmp_path, sep):
        p = write(tmp_path / "c.tsv", f"alpha\ta\ngamma{sep}delta\tg\r\nomega\to\n")
        assert read_lines(p) == ["alpha\ta", f"gamma{sep}delta\tg", "omega\to"]
        assert load_parallel(p, "tsv").pairs[1] == (f"gamma{sep}delta", "g")

    def test_jsonl(self, tmp_path, sep):
        # json.dumps escapes the control characters; U+0085, U+2028 and
        # U+2029 reach the file raw.
        rows = [("alpha", "a"), (f"gamma{sep}delta", "g"), ("omega", "o")]
        lines = (json.dumps({"src": s, "tgt": t}, ensure_ascii=False) for s, t in rows)
        p = write(tmp_path / "c.jsonl", "\n".join(lines) + "\n")
        assert load_parallel(p, "jsonl").pairs == rows


class TestPreprocess:
    def test_dedup_keeps_first_and_preserves_order(self):
        corpus = ParallelCorpus(pairs=[("a", "x"), ("b", "y"), ("a", "x"), ("c", "z")])
        assert preprocess(corpus).pairs == [("a", "x"), ("b", "y"), ("c", "z")]

    def test_whitespace_only_side_is_dropped(self):
        corpus = ParallelCorpus(pairs=[("good", "fine"), ("   ", "orphan"), ("also", "\t\n")])
        assert preprocess(corpus).pairs == [("good", "fine")]

    def test_nfc_normalization_merges_equivalent_spellings(self):
        composed = "café"           # é as one code point
        decomposed = "café"        # e + combining accent
        corpus = ParallelCorpus(pairs=[(composed, "x"), (decomposed, "x")])
        cleaned = preprocess(corpus)
        assert cleaned.pairs == [(composed, "x")]

    def test_length_filter_applies_to_both_sides(self):
        corpus = ParallelCorpus(pairs=[("ab", "xy"), ("a", "long enough"), ("fine", "q" * 40)])
        cleaned = preprocess(corpus, min_chars=2, max_chars=10)
        assert cleaned.pairs == [("ab", "xy")]

    def test_idempotent(self):
        corpus = ParallelCorpus(
            pairs=[("  spaced  ", "x"), ("spaced", "x"), ("keep", "y"), ("", "z")]
        )
        once = preprocess(corpus)
        twice = preprocess(once)
        assert once.pairs == twice.pairs == [("spaced", "x"), ("keep", "y")]

    def test_bad_bounds(self):
        corpus = ParallelCorpus(pairs=[("a", "b")])
        with pytest.raises(ValidationError):
            preprocess(corpus, min_chars=0)
        with pytest.raises(ValidationError):
            preprocess(corpus, min_chars=5, max_chars=4)


class TestSplit:
    def test_sizes_and_determinism(self):
        corpus = ParallelCorpus(pairs=[(f"s{i}", f"t{i}") for i in range(10)])
        train_a, val_a = split(corpus, 0.2, seed=7)
        train_b, val_b = split(corpus, 0.2, seed=7)
        assert len(train_a.pairs) == 8 and len(val_a.pairs) == 2
        assert train_a.pairs == train_b.pairs and val_a.pairs == val_b.pairs

    def test_two_pairs_split_one_and_one(self):
        corpus = ParallelCorpus(pairs=[("a", "x"), ("b", "y")])
        train, val = split(corpus, 0.5, seed=0)
        assert len(train.pairs) == 1 and len(val.pairs) == 1

    def test_single_pair_rejected(self):
        with pytest.raises(ValidationError):
            split(ParallelCorpus(pairs=[("a", "x")]), 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        corpus = ParallelCorpus(pairs=[("a", "x"), ("b", "y")])
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValidationError):
                split(corpus, frac, seed=0)

    def test_parts_partition_the_corpus(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            corpus = ParallelCorpus(pairs=[(f"s{i}", f"t{i}") for i in range(n)])
            train, val = split(corpus, float(rng.uniform(0.05, 0.95)), seed=int(rng.integers(1000)))
            assert sorted(train.pairs + val.pairs) == sorted(corpus.pairs)
            assert len(train.pairs) >= 1 and len(val.pairs) >= 1


class TestEvalLoaders:
    def test_scored_pairs(self, tmp_path):
        p = write(tmp_path / "sts.tsv", "a b\tc d\t4.5\nx\ty\t0\n")
        scored = load_scored_pairs(p)
        assert scored.pairs == [("a b", "c d"), ("x", "y")]
        assert scored.scores == [4.5, 0.0]

    def test_scored_pairs_range_and_shape_errors(self, tmp_path):
        with pytest.raises(FormatError, match="line 1"):
            load_scored_pairs(write(tmp_path / "a.tsv", "a\tb\t5.1\n"))
        with pytest.raises(FormatError, match="line 1"):
            load_scored_pairs(write(tmp_path / "b.tsv", "a\tb\n"))
        with pytest.raises(FormatError, match="line 2"):
            load_scored_pairs(write(tmp_path / "c.tsv", "a\tb\t1\na\tb\tnope\n"))

    def test_labeled_ids_by_first_appearance(self, tmp_path):
        p = write(tmp_path / "l.tsv", "s1\tpolitics\ns2\tsport\ns3\tpolitics\n")
        labeled = load_labeled(p)
        assert labeled.label_names == ["politics", "sport"]
        assert labeled.labels == [0, 1, 0]

    def test_labeled_needs_two_classes(self, tmp_path):
        p = write(tmp_path / "l.tsv", "s1\tonly\ns2\tonly\n")
        with pytest.raises(ValidationError, match="2 distinct classes"):
            load_labeled(p)


def test_non_utf8_files_are_format_errors_naming_them(tmp_path):
    loaders = {
        "parallel.tsv": lambda p: load_parallel(p, "tsv"),
        "parallel.jsonl": lambda p: load_parallel(p, "jsonl"),
        "scored.tsv": load_scored_pairs,
        "labeled.tsv": load_labeled,
    }
    for name, load in loaders.items():
        path = tmp_path / name
        path.write_bytes(b"a\tb\n\xff\tc\n")
        with pytest.raises(FormatError, match=f"{name}: not UTF-8"):
            load(path)
