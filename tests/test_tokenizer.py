"""Vocabulary construction and whitespace tokenization."""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    ParallelCorpus,
    ValidationError,
    FormatError,
    build_vocab,
    decode,
    encode,
    encode_batch,
    load_vocab,
    save_vocab,
)


def corpus_of(sources):
    return ParallelCorpus(pairs=[(s, "t") for s in sources])


class TestBuildVocab:
    def test_frequency_then_alphabetical_order(self):
        # Counts: b appears 3 times, a twice, c twice, d once.
        # Expected ids: pad=0, unk=1, then b=2, a=3, c=4, d=5
        # (a before c on the tie because of the lexical tiebreak).
        vocab = build_vocab(corpus_of(["b a c", "b c a", "b d"]))
        assert vocab.id_to_token == ["<pad>", "<unk>", "b", "a", "c", "d"]
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "b": 2, "a": 3, "c": 4, "d": 5}

    def test_max_size_caps_total_entries(self):
        vocab = build_vocab(corpus_of(["a a a b b c"]), max_size=4)
        assert vocab.size == 4
        assert vocab.id_to_token == ["<pad>", "<unk>", "a", "b"]

    def test_min_freq_drops_rare_tokens(self):
        vocab = build_vocab(corpus_of(["a a b"]), min_freq=2)
        assert "b" not in vocab.token_to_id
        assert "a" in vocab.token_to_id

    def test_reserved_literals_in_text_are_skipped(self):
        vocab = build_vocab(corpus_of(["<pad> <unk> real"]))
        assert vocab.size == 3
        assert vocab.token_to_id["real"] == 2

    def test_target_side(self):
        corpus = ParallelCorpus(pairs=[("src only", "tgt words"), ("more src", "tgt again")])
        vocab = build_vocab(corpus, side="target")
        assert "tgt" in vocab.token_to_id
        assert "src" not in vocab.token_to_id

    def test_empty_yield_rejected(self):
        with pytest.raises(ValidationError):
            build_vocab(corpus_of(["   ", ""]))
        with pytest.raises(ValidationError):
            build_vocab(corpus_of(["word"]), max_size=2)
        for kwargs in (dict(max_size=3.5), dict(max_size=True), dict(min_freq=1.0)):
            with pytest.raises(ValidationError):
                build_vocab(corpus_of(["word"]), **kwargs)


class TestEncode:
    def test_known_unknown_and_padding(self, tiny_vocab):
        ids = encode(tiny_vocab, "the qqqzzz", max_len=4)
        assert ids == [tiny_vocab.token_to_id["the"], UNK_ID]

    def test_truncation(self, tiny_vocab):
        ids = encode(tiny_vocab, "the the the the the", max_len=3)
        assert ids == [tiny_vocab.token_to_id["the"]] * 3

    def test_reserved_spellings_are_unknown_words(self, tiny_vocab):
        ids = encode(tiny_vocab, f"{PAD_TOKEN} the {UNK_TOKEN}", max_len=4)
        assert ids == [UNK_ID, tiny_vocab.token_to_id["the"], UNK_ID]
        assert PAD_ID not in encode(tiny_vocab, f"{PAD_TOKEN} a", max_len=4)

    def test_empty_text_rejected(self, tiny_vocab):
        with pytest.raises(ValidationError):
            encode(tiny_vocab, "   ", max_len=4)
        with pytest.raises(ValidationError):
            encode(tiny_vocab, "x", max_len=0)

    def test_max_len_must_be_an_integer(self, tiny_vocab):
        for max_len in (1.5, True, "2"):
            with pytest.raises(ValidationError, match="max_len"):
                encode(tiny_vocab, "a b", max_len)

    def test_batch_shares_layout_and_names_offender(self, tiny_vocab):
        seqs = encode_batch(tiny_vocab, ["the cat", "the"], max_len=4)
        assert seqs == [encode(tiny_vocab, "the cat", 4), encode(tiny_vocab, "the", 4)]
        assert [len(s) for s in seqs] == [2, 1]
        with pytest.raises(ValidationError, match="text 1"):
            encode_batch(tiny_vocab, ["fine", "  "], max_len=4)

    def test_decode_round_trip_drops_padding(self, tiny_vocab):
        seq = encode(tiny_vocab, "the cat", max_len=5)
        assert decode(tiny_vocab, seq) == "the cat"

    def test_decode_shows_unk_marker(self, tiny_vocab):
        seq = encode(tiny_vocab, "the zzzqqq", max_len=4)
        assert decode(tiny_vocab, seq) == f"the {UNK_TOKEN}"


class TestVocabFile:
    def test_round_trip(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, path)
        loaded = load_vocab(path)
        assert loaded.id_to_token == tiny_vocab.id_to_token
        assert loaded.token_to_id == tiny_vocab.token_to_id

    def test_file_layout_is_one_token_per_line_in_id_order(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == PAD_TOKEN and lines[1] == UNK_TOKEN
        assert lines == tiny_vocab.id_to_token

    def test_load_rejects_corrupted_files(self, tmp_path):
        cases = {
            "missing_reserved.txt": "a\nb\nc\n",
            "too_short.txt": "<pad>\n<unk>\n",
            "duplicate.txt": "<pad>\n<unk>\na\na\n",
        }
        for name, content in cases.items():
            path = tmp_path / name
            path.write_text(content, encoding="utf-8")
            with pytest.raises(FormatError):
                load_vocab(path)

    def test_non_utf8_file_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"<pad>\n<unk>\n\xff\n")
        with pytest.raises(FormatError, match="vocab.txt: not UTF-8"):
            load_vocab(path)

    def test_content_hash_matches_sha256_of_file_bytes(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, path)
        expected = hashlib.sha256(path.read_bytes()).digest()
        assert tiny_vocab.content_hash() == expected
        assert len(tiny_vocab.content_hash()) == 32

    def test_content_hash_distinguishes_vocabularies(self, tiny_vocab):
        other = build_vocab(corpus_of(["completely different words"]))
        assert tiny_vocab.content_hash() != other.content_hash()


# Tokens are whitespace-free words that stay one line: no control, space,
# line or paragraph separator characters (and no lone surrogates), and
# not spelled like a reserved entry, which build_vocab skips.
tokens = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=6
).filter(lambda w: w not in (PAD_TOKEN, UNK_TOKEN))


@settings(max_examples=60, deadline=None)
@given(words=st.lists(tokens, min_size=1, max_size=60))
def test_save_load_keeps_tokens_and_content_hash(words):
    vocab = build_vocab(corpus_of([" ".join(words)]))
    assert set(vocab.id_to_token[2:]) == set(words)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "vocab.txt")
        save_vocab(vocab, path)
        loaded = load_vocab(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.token_to_id == vocab.token_to_id
    assert loaded.content_hash() == vocab.content_hash()
