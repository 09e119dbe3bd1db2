"""Parallel-corpus and evaluation-dataset loading, cleaning, and splitting.

Three on-disk formats are understood:

* parallel data as two-column TSV (``source<TAB>target``) or JSONL with
  string fields ``src`` and ``tgt``,
* scored pairs as three-column TSV (``text_a<TAB>text_b<TAB>score``) with
  scores on a 0..5 scale,
* labeled sentences as two-column TSV (``text<TAB>label_name``).

Text is kept byte-for-byte as found in the file; all cleaning happens
explicitly in :func:`preprocess`.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError, check_count


@dataclass
class ParallelCorpus:
    """Aligned (source, target) sentence pairs in file order.

    After :func:`preprocess` the pairs additionally satisfy: no side is
    empty or whitespace-only, and no two pairs are byte-identical.
    """

    pairs: list[tuple[str, str]]

    def __len__(self) -> int:
        return len(self.pairs)

    def sources(self) -> list[str]:
        return [src for src, _ in self.pairs]

    def targets(self) -> list[str]:
        return [tgt for _, tgt in self.pairs]


@dataclass
class ScoredPairs:
    """Sentence pairs with a human similarity score in [0, 5]."""

    pairs: list[tuple[str, str]]
    scores: list[float]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class LabeledSentences:
    """Sentences with integer class labels; ids index into label_names."""

    texts: list[str]
    labels: list[int]
    label_names: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.texts)


def read_lines(path: str | Path) -> list[str]:
    """Lines of a UTF-8 text file; a missing or non-UTF-8 file raises FormatError.

    Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line; the other breaks of
    ``str.splitlines`` (U+2028, ``\\x0c`` and so on) stay in the text.
    """
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"no such file: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{p}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return text.removesuffix("\n").split("\n") if text else []


def load_parallel(path: str | Path, format: str = "tsv") -> ParallelCorpus:
    """Load a parallel corpus from TSV or JSONL.

    TSV rows must have exactly two tab-separated fields; JSONL rows must be
    objects with exactly the string fields ``src`` and ``tgt``. Malformed
    rows raise FormatError naming the 1-based line number. An empty file
    yields an empty corpus (downstream operations reject it).
    """
    if format not in ("tsv", "jsonl"):
        raise ValidationError(f"unknown parallel format: {format!r} (expected 'tsv' or 'jsonl')")
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if format == "tsv":
            fields = line.split("\t")
            if len(fields) != 2:
                raise FormatError(
                    f"{path}: line {lineno}: expected 2 tab-separated fields, got {len(fields)}"
                )
            pairs.append((fields[0], fields[1]))
        else:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict) or set(record) != {"src", "tgt"}:
                raise FormatError(
                    f"{path}: line {lineno}: expected an object with exactly the keys 'src' and 'tgt'"
                )
            if not isinstance(record["src"], str) or not isinstance(record["tgt"], str):
                raise FormatError(f"{path}: line {lineno}: 'src' and 'tgt' must be strings")
            pairs.append((record["src"], record["tgt"]))
    return ParallelCorpus(pairs=pairs)


def load_scored_pairs(path: str | Path) -> ScoredPairs:
    """Load three-column TSV of (text_a, text_b, score), score in [0, 5]."""
    pairs: list[tuple[str, str]] = []
    scores: list[float] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(
                f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        try:
            score = float(fields[2])
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: score is not a number: {fields[2]!r}") from exc
        if not np.isfinite(score) or not 0.0 <= score <= 5.0:
            raise FormatError(f"{path}: line {lineno}: score {score} outside [0, 5]")
        pairs.append((fields[0], fields[1]))
        scores.append(score)
    return ScoredPairs(pairs=pairs, scores=scores)


def load_labeled(path: str | Path) -> LabeledSentences:
    """Load two-column TSV of (text, label_name).

    Label ids are assigned by first appearance of each label name. At least
    two distinct classes are required.
    """
    texts: list[str] = []
    labels: list[int] = []
    label_names: list[str] = []
    name_to_id: dict[str, int] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(
                f"{path}: line {lineno}: expected 2 tab-separated fields, got {len(fields)}"
            )
        text, name = fields
        if name not in name_to_id:
            name_to_id[name] = len(label_names)
            label_names.append(name)
        texts.append(text)
        labels.append(name_to_id[name])
    if len(label_names) < 2:
        raise ValidationError(
            f"{path}: labeled data needs at least 2 distinct classes, found {len(label_names)}"
        )
    return LabeledSentences(texts=texts, labels=labels, label_names=label_names)


def _clean(text: str) -> str:
    return unicodedata.normalize("NFC", text).strip()


def preprocess(corpus: ParallelCorpus, min_chars: int = 1, max_chars: int = 512) -> ParallelCorpus:
    """Clean a parallel corpus: NFC-normalize, trim, length-filter, dedup.

    Each side is Unicode NFC-normalized and stripped of surrounding
    whitespace. Pairs where either side falls outside [min_chars, max_chars]
    characters are dropped. Exact duplicates (same cleaned source and
    target) are dropped keeping the first occurrence. Order is preserved
    and the operation is idempotent.
    """
    check_count("min_chars", min_chars, 1)
    check_count("max_chars", max_chars, min_chars)
    kept: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for src, tgt in corpus.pairs:
        src, tgt = _clean(src), _clean(tgt)
        if not (min_chars <= len(src) <= max_chars and min_chars <= len(tgt) <= max_chars):
            continue
        if (src, tgt) in seen:
            continue
        seen.add((src, tgt))
        kept.append((src, tgt))
    return ParallelCorpus(pairs=kept)


def split(
    corpus: ParallelCorpus, val_fraction: float, seed: int
) -> tuple[ParallelCorpus, ParallelCorpus]:
    """Deterministically split a corpus into (train, validation) parts.

    The validation part gets round(val_fraction * N) pairs, clamped so both
    parts are non-empty. Pairs keep their relative corpus order within each
    part. Identical (corpus, seed) always produce the identical split.
    """
    n = len(corpus.pairs)
    if n < 2:
        raise ValidationError(f"need at least 2 pairs to split, got {n}")
    if not 0.0 < val_fraction < 1.0:
        raise ValidationError(f"val_fraction must be in (0, 1), got {val_fraction}")
    check_count("seed", seed, 0)
    n_val = int(round(val_fraction * n))
    n_val = max(1, min(n_val, n - 1))
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = set(perm[:n_val].tolist())
    train_pairs = [p for i, p in enumerate(corpus.pairs) if i not in val_idx]
    val_pairs = [p for i, p in enumerate(corpus.pairs) if i in val_idx]
    return ParallelCorpus(pairs=train_pairs), ParallelCorpus(pairs=val_pairs)
