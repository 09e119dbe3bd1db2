"""Whitespace word-level tokenizer with a frequency-ranked vocabulary.

Two ids are reserved: 0 for padding, 1 for unknown tokens. Real tokens are
ranked by descending corpus frequency, ties broken lexicographically, and
assigned ids from 2 upward. A sentence is encoded as the list of its real
token ids; it is never padded. The encoder packs a batch's real tokens
back to back, adding a padding row only to a batch of one token (a
one-row product rounds differently), and id 0 never stands for a word.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .corpus import ParallelCorpus, read_lines
from .errors import FormatError, ValidationError

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
_RESERVED = (PAD_TOKEN, UNK_TOKEN)


@dataclass
class Vocab:
    """Bijective token <-> id mapping with the two reserved entries."""

    token_to_id: dict[str, int]
    id_to_token: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def serialize(self) -> str:
        """One token per line, in id order, starting with the reserved pair."""
        return "\n".join(self.id_to_token) + "\n"

    def content_hash(self) -> bytes:
        """SHA-256 digest of the serialized vocabulary (32 bytes)."""
        return hashlib.sha256(self.serialize().encode("utf-8")).digest()


def _tokens_from_vocab_list(tokens: list[str]) -> Vocab:
    id_to_token = list(_RESERVED) + tokens
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    if len(token_to_id) != len(id_to_token):
        raise FormatError("vocabulary contains duplicate tokens")
    return Vocab(token_to_id=token_to_id, id_to_token=id_to_token)


def build_vocab(
    corpus: ParallelCorpus, side: str = "source", max_size: int = 8000, min_freq: int = 1
) -> Vocab:
    """Build a vocabulary from one side of a parallel corpus.

    Tokens are whitespace-separated words. Those with corpus frequency
    below min_freq are dropped; the survivors are ranked by (frequency
    descending, token ascending) and the top max_size - 2 kept. Tokens
    spelled exactly like a reserved entry are skipped.
    """
    if side not in ("source", "target"):
        raise ValidationError(f"side must be 'source' or 'target', got {side!r}")
    if max_size < 3:
        raise ValidationError(f"max_size must be >= 3, got {max_size}")
    if min_freq < 1:
        raise ValidationError(f"min_freq must be >= 1, got {min_freq}")
    texts = corpus.sources() if side == "source" else corpus.targets()
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(text.split())
    for reserved in _RESERVED:
        counts.pop(reserved, None)
    ranked = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    if not ranked:
        raise ValidationError(
            f"no tokens with frequency >= {min_freq} on the {side} side; cannot build a vocabulary"
        )
    return _tokens_from_vocab_list(ranked[: max_size - 2])


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    Path(path).write_text(vocab.serialize(), encoding="utf-8")


def load_vocab(path: str | Path) -> Vocab:
    p = Path(path)
    lines = read_lines(p)
    if len(lines) < 3:
        raise FormatError(f"{p}: vocabulary needs the 2 reserved entries plus at least 1 token")
    if lines[0] != PAD_TOKEN or lines[1] != UNK_TOKEN:
        raise FormatError(f"{p}: first two lines must be {PAD_TOKEN!r} and {UNK_TOKEN!r}")
    return _tokens_from_vocab_list(lines[2:])


def encode(vocab: Vocab, text: str, max_len: int) -> list[int]:
    """Encode one sentence: split on whitespace, map to ids, truncate.

    Returns the ids of the first ``max_len`` words, unpadded. Unknown words
    and words spelled like a reserved entry map to the unk id. Empty or
    whitespace-only text is rejected.
    """
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    words = text.split()
    if not words:
        raise ValidationError(f"cannot encode empty or whitespace-only text: {text!r}")
    # PAD_ID is 0, so `or` turns a literal "<pad>" word into unk, not padding.
    return [vocab.token_to_id.get(w, UNK_ID) or UNK_ID for w in words[:max_len]]


def encode_batch(vocab: Vocab, texts: list[str], max_len: int) -> list[list[int]]:
    """Encode many sentences; errors name the index."""
    out: list[list[int]] = []
    for i, text in enumerate(texts):
        try:
            out.append(encode(vocab, text, max_len))
        except ValidationError as exc:
            raise ValidationError(f"text {i}: {exc}") from exc
    return out


def decode(vocab: Vocab, ids: list[int]) -> str:
    """Inverse of encode up to truncation and unknown words."""
    return " ".join(vocab.id_to_token[i] for i in ids)
