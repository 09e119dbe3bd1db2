"""Teacher embedding tables and the XLTE binary format."""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    EmbeddingBatch,
    EncoderConfig,
    FormatError,
    TeacherTable,
    build_vocab,
    read_teacher_file,
    toy_teacher,
    write_teacher_file,
)


def table(rows):
    return TeacherTable(embeddings=EmbeddingBatch(vectors=np.asarray(rows, dtype=np.float32)))


class TestFileFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        original = table(rng.normal(size=(5, 7)).astype(np.float32))
        path = tmp_path / "t.xlte"
        write_teacher_file(original, path)
        loaded = read_teacher_file(path)
        assert loaded.count == 5 and loaded.dim == 7
        assert np.array_equal(loaded.embeddings.vectors, original.embeddings.vectors)
        assert loaded.embeddings.vectors.dtype == np.float32

    def test_file_size_is_header_plus_rows(self, tmp_path):
        path = tmp_path / "t.xlte"
        write_teacher_file(table(np.zeros((3, 4), dtype=np.float32)), path)
        assert path.stat().st_size == 16 + 4 * 3 * 4

    def test_header_fields_little_endian(self, tmp_path):
        path = tmp_path / "t.xlte"
        write_teacher_file(table([[1.0, 2.0]]), path)
        blob = path.read_bytes()
        magic, version, count, dim = struct.unpack_from("<4sIII", blob)
        assert magic == b"XLTE" and version == 1 and count == 1 and dim == 2
        assert struct.unpack_from("<2f", blob, 16) == (1.0, 2.0)

    def test_rejects_corruption(self, tmp_path):
        good = tmp_path / "good.xlte"
        write_teacher_file(table(np.ones((2, 3), dtype=np.float32)), good)
        blob = good.read_bytes()

        cases = {
            "bad magic": b"NOPE" + blob[4:],
            "bad version": blob[:4] + struct.pack("<I", 2) + blob[8:],
            "truncated": blob[:-4],
            "trailing bytes": blob + b"\x00\x00\x00\x00",
            "short header": blob[:10],
            "zero count": blob[:8] + struct.pack("<I", 0) + blob[12:],
        }
        for label, corrupted in cases.items():
            bad = tmp_path / "bad.xlte"
            bad.write_bytes(corrupted)
            with pytest.raises(FormatError):
                read_teacher_file(bad)

    def test_short_payload_read_is_a_format_error(self, tmp_path, monkeypatch):
        # The file shrinks after its size was taken: the read comes up short.
        path = tmp_path / "t.xlte"
        write_teacher_file(table(np.ones((2, 3), dtype=np.float32)), path)
        full_size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-4])
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=full_size))
        with pytest.raises(FormatError, match="file ended after"):
            read_teacher_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            read_teacher_file(tmp_path / "absent.xlte")


class TestToyTeacher:
    def test_rows_align_with_corpus_and_are_unit_norm(self, tiny_corpus):
        vocab = build_vocab(tiny_corpus, side="target")
        config = EncoderConfig(vocab_size=vocab.size, dim=16, n_layers=1, n_heads=2, ffn_mult=2, max_len=8, seed=4)
        teacher = toy_teacher(config, vocab, tiny_corpus)
        assert teacher.count == len(tiny_corpus.pairs)
        assert teacher.dim == 16
        norms = np.linalg.norm(teacher.embeddings.vectors.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6

    def test_deterministic(self, tiny_corpus):
        vocab = build_vocab(tiny_corpus, side="target")
        config = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=1, n_heads=2, ffn_mult=2, max_len=8, seed=4)
        a = toy_teacher(config, vocab, tiny_corpus)
        b = toy_teacher(config, vocab, tiny_corpus)
        assert np.array_equal(a.embeddings.vectors, b.embeddings.vectors)

    def test_survives_round_trip(self, tiny_corpus, tmp_path):
        vocab = build_vocab(tiny_corpus, side="target")
        config = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=1, n_heads=2, ffn_mult=2, max_len=8, seed=4)
        teacher = toy_teacher(config, vocab, tiny_corpus)
        path = tmp_path / "toy.xlte"
        write_teacher_file(teacher, path)
        assert np.array_equal(read_teacher_file(path).embeddings.vectors, teacher.embeddings.vectors)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 40), dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_write_read_write_is_byte_identical(count, dim, seed):
    # Random float32 bit patterns with the all-ones exponent (inf, NaN)
    # cleared, so every finite value, subnormals included, can appear.
    bits = np.random.default_rng(seed).integers(0, 2**32, size=(count, dim), dtype=np.uint32)
    non_finite = (bits & 0x7F800000) == 0x7F800000
    bits[non_finite] &= ~np.uint32(0x00800000)
    original = table(bits.view(np.float32))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.xlte"), Path(tmp, "b.xlte")
        write_teacher_file(original, first)
        loaded = read_teacher_file(first)
        write_teacher_file(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    assert (loaded.count, loaded.dim) == (count, dim)
    rows = loaded.embeddings.vectors
    assert rows.tobytes() == bits.tobytes()
    # A fresh aligned array, not a view into the file's bytes.
    assert rows.dtype == np.float32
    assert rows.flags.aligned and rows.flags.c_contiguous
    assert rows.flags.writeable and rows.flags.owndata
