"""Precomputed teacher-embedding tables and their binary file format.

The file layout is little-endian: magic ``XLTE``, format version (u32),
row count (u32), dimension (u32), then count * dim float32 values in row
major order. The 16-byte header makes size checks exact: a table of N
d-dimensional rows occupies 16 + 4*N*d bytes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .corpus import ParallelCorpus
from .encoder import EmbeddingBatch, EncoderConfig, embed, init_params
from .errors import FormatError, ValidationError
from .losses import _unit_rows
from .tokenizer import Vocab

_MAGIC = b"XLTE"
_VERSION = 1
_HEADER = struct.Struct("<4sIII")


@dataclass
class TeacherTable:
    """Frozen target-language embeddings, one row per corpus pair."""

    embeddings: EmbeddingBatch

    @property
    def count(self) -> int:
        return self.embeddings.count

    @property
    def dim(self) -> int:
        return self.embeddings.dim


def write_teacher_file(table: TeacherTable, path: str | Path) -> None:
    """Serialize a teacher table; rows are stored as little-endian float32."""
    vectors = np.ascontiguousarray(table.embeddings.vectors, dtype="<f4")
    header = _HEADER.pack(_MAGIC, _VERSION, vectors.shape[0], vectors.shape[1])
    Path(path).write_bytes(header + vectors.tobytes())


def read_teacher_file(path: str | Path) -> TeacherTable:
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"no such file: {p}")
    with open(p, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        count, dim = _read_header(fh, p, _HEADER, _MAGIC, _VERSION, "teacher-table")
        if count < 1 or dim < 1:
            raise FormatError(f"{p}: invalid header counts (count={count}, dim={dim})")
        expected = _HEADER.size + 4 * count * dim
        if file_size != expected:
            raise FormatError(
                f"{p}: payload size mismatch: file has {file_size} bytes, header implies {expected}"
            )
        vectors = _read_f4(fh, (count, dim), p)
    return TeacherTable(embeddings=EmbeddingBatch(vectors=vectors))


def _read_header(
    fh: BinaryIO, p: Path, header: struct.Struct, magic: bytes, version: int, what: str
) -> list[int]:
    """Read a header that starts with magic and format version from fh's
    position and check both; returns the header's remaining fields."""
    raw = fh.read(header.size)
    if len(raw) < header.size:
        raise FormatError(f"{p}: too short to hold a {what} header")
    found_magic, found_version, *rest = header.unpack(raw)
    if found_magic != magic:
        raise FormatError(f"{p}: bad magic {found_magic!r}, expected {magic!r}")
    if found_version != version:
        raise FormatError(f"{p}: unsupported format version {found_version}")
    return rest


def _read_f4(fh: BinaryIO, shape: tuple[int, ...], p: Path) -> np.ndarray:
    """Read little-endian float32 values of this shape from fh's position
    straight into a new, aligned native float32 array.

    The caller has checked the payload size against the file size; a read
    that still comes up short (the file shrank since) raises FormatError.
    """
    out = np.empty(shape, dtype="<f4")
    got = fh.readinto(out)
    if got != out.nbytes:
        raise FormatError(f"{p}: file ended after {got} of {out.nbytes} payload bytes")
    return out.astype(np.float32, copy=False)


def toy_teacher(config: EncoderConfig, vocab: Vocab, corpus: ParallelCorpus) -> TeacherTable:
    """Embed the target side of a corpus with a frozen randomly-initialized
    encoder and L2-normalize each row.

    This stands in for a real pretrained teacher in closed-loop tests and
    demos: deterministic given (config, vocab, corpus), no training
    involved.
    """
    if len(corpus.pairs) < 1:
        raise ValidationError("toy teacher needs a non-empty corpus")
    params = init_params(config)
    raw = embed(params, vocab, corpus.targets(), config.max_len)
    unit, _ = _unit_rows(raw.vectors.astype(np.float64),
                         "toy teacher produced a zero embedding; cannot normalize")
    return TeacherTable(embeddings=EmbeddingBatch(vectors=unit.astype(np.float32)))
