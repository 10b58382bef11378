"""Vocabulary, tokenization, and rendering of samples into model inputs.

The tokenizer is a deterministic stand-in for a subword scheme: contiguous
runs of letters/digits become lowercased word tokens, each CJK character is
its own token, punctuation is dropped.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .assembler import MaskedSample, SampleKind
from .errors import ConfigError, QuestionTooLongError, RenderOverflowError

PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

# Scripts tokenized one character at a time: CJK ideographs, kana, hangul.
_CJK_RANGES = (
    (0x3040, 0x30FF),  # hiragana + katakana
    (0x3400, 0x4DBF),  # CJK ext A
    (0x4E00, 0x9FFF),  # CJK unified
    (0xAC00, 0xD7AF),  # hangul syllables
    (0xF900, 0xFAFF),  # CJK compatibility
    (0x20000, 0x2EBEF),  # CJK ext B..F
)


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def _is_word_char(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("L", "N")


def tokenize_with_offsets(text: str) -> list[tuple[str, int, int]]:
    """Tokens with (start, end) character offsets into the original string."""
    out: list[tuple[str, int, int]] = []
    run_start = None
    for i, ch in enumerate(text):
        if _is_word_char(ch) and not _is_cjk(ch):
            if run_start is None:
                run_start = i
            continue
        if run_start is not None:
            out.append((text[run_start:i].lower(), run_start, i))
            run_start = None
        if _is_cjk(ch):
            out.append((ch, i, i + 1))
    if run_start is not None:
        out.append((text[run_start:].lower(), run_start, len(text)))
    return out


def tokenize(text: str) -> list[str]:
    return [tok for tok, _, _ in tokenize_with_offsets(text)]


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if tuple(self.tokens[:5]) != SPECIAL_TOKENS:
            raise ConfigError("vocab must start with the five special tokens")
        if not self.index:
            object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})
        if len(self.index) != len(self.tokens):
            raise ConfigError("vocab tokens are not unique")

    def __len__(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.id(t) for t in tokens]


def build_vocab(texts: Iterable[str], max_size: int) -> Vocab:
    """Frequency vocab over tokenized texts; ties broken lexicographically."""
    if max_size < 5:
        raise ConfigError(f"max_size must be >= 5, got {max_size}")
    freq: Counter[str] = Counter()
    for text in texts:
        freq.update(tokenize(text))
    kept = sorted(freq, key=lambda t: (-freq[t], t))[: max_size - 5]
    return Vocab(tokens=SPECIAL_TOKENS + tuple(kept))


def save_vocab(vocab: Vocab, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok in vocab.tokens:
            fh.write(tok + "\n")


def load_vocab(path) -> Vocab:
    with open(path, encoding="utf-8") as fh:
        tokens = tuple(line.rstrip("\n") for line in fh)
    return Vocab(tokens=tokens)


@dataclass
class TokenizedSample:
    input_ids: list[int]
    mask_positions: list[int]
    target_ids: list[int]
    segment_ids: list[int]


def render(sample: MaskedSample, vocab: Vocab, max_len: int) -> TokenizedSample:
    """Turn a MaskedSample into token ids.

    Layout: [CLS] pieces... [SEP], with an extra [SEP] between the two
    language blocks of a K3 sample (segments 0 then 1). Each masked piece
    contributes as many [MASK] tokens as its target has tokens.
    """
    target_by_piece = dict(sample.targets)
    two_blocks = sample.kind is SampleKind.K3

    ids = [CLS_ID]
    segs = [0]
    mask_positions: list[int] = []
    target_ids: list[int] = []
    for idx, piece in enumerate(sample.pieces):
        seg = 1 if (two_blocks and idx >= 3) else 0
        if two_blocks and idx == 3:
            ids.append(SEP_ID)
            segs.append(0)
        if piece.masked:
            for tok in tokenize(target_by_piece[idx]):
                mask_positions.append(len(ids))
                target_ids.append(vocab.id(tok))
                ids.append(MASK_ID)
                segs.append(seg)
        else:
            for tok in tokenize(piece.text):
                ids.append(vocab.id(tok))
                segs.append(seg)
    ids.append(SEP_ID)
    segs.append(1 if two_blocks else 0)

    if len(ids) > max_len:
        raise RenderOverflowError(f"rendered length {len(ids)} exceeds max_len {max_len}")
    return TokenizedSample(input_ids=ids, mask_positions=mask_positions, target_ids=target_ids, segment_ids=segs)


@dataclass
class QAInput:
    input_ids: list[int]
    segment_ids: list[int]
    # input position of each context token -> (char start, char end) in the context string
    context_token_offsets: dict[int, tuple[int, int]]

    @property
    def context_positions(self) -> list[int]:
        return sorted(self.context_token_offsets)


def pack_qa(question: str, context: str, vocab: Vocab, max_len: int) -> QAInput:
    """Concatenate question and context: [CLS] q [SEP] c [SEP], unpadded.

    Segment ids are 0 over the question block (incl. CLS and first SEP) and 1
    over the context block (incl. trailing SEP). The context is truncated so
    the whole input fits in max_len tokens; offsets map surviving context
    tokens back to character spans. Batching pads with ``pad_batch``.
    """
    q_tokens = tokenize(question)
    if len(q_tokens) + 3 >= max_len:
        raise QuestionTooLongError(
            f"question has {len(q_tokens)} tokens; needs {len(q_tokens) + 3} <= {max_len - 1} slots"
        )
    budget = max_len - len(q_tokens) - 3
    c_tokens = tokenize_with_offsets(context)[:budget]

    ids = [CLS_ID] + vocab.encode(q_tokens) + [SEP_ID]
    segs = [0] * len(ids)
    offsets: dict[int, tuple[int, int]] = {}
    for tok, start, end in c_tokens:
        offsets[len(ids)] = (start, end)
        ids.append(vocab.id(tok))
        segs.append(1)
    ids.append(SEP_ID)
    segs.append(1)
    return QAInput(input_ids=ids, segment_ids=segs, context_token_offsets=offsets)


def pad_batch(rows: Sequence[tuple[Sequence[int], Sequence[int]]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-pad (input_ids, segment_ids) pairs to the longest row.

    Returns int64 ids padded with PAD_ID, int64 segment ids padded with 0, and
    a float64 attention mask that is 1.0 over real tokens and 0.0 over PAD.
    """
    width = max(len(row_ids) for row_ids, _ in rows)
    ids = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    segs = np.zeros((len(rows), width), dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=np.float64)
    for b, (row_ids, row_segs) in enumerate(rows):
        n = len(row_ids)
        ids[b, :n] = row_ids
        segs[b, :n] = row_segs
        mask[b, :n] = 1.0
    return ids, segs, mask
