"""Vocabulary, tokenization, and rendering of samples into model inputs.

The tokenizer is a deterministic stand-in for a subword scheme. Each
character in the CJK ranges below (ideographs, kana, hangul) is its own
token. Every maximal run of other letters and digits (Unicode categories L*
and N*) is one lowercased word token. Everything else -- whitespace,
punctuation, symbols, combining marks and ``_`` -- separates tokens and is
dropped.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .assembler import MaskedSample, SampleKind
from .errors import ArtifactMismatchError, ConfigError, QuestionTooLongError, RenderOverflowError
from .fileio import atomic_write, read_utf8

PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

# Scripts tokenized one character at a time: CJK ideographs, kana, hangul.
_CJK = (
    "\u3040-\u30ff"  # hiragana + katakana
    "\u3400-\u4dbf"  # CJK ext A
    "\u4e00-\u9fff"  # CJK unified
    "\uac00-\ud7af"  # hangul syllables
    "\uf900-\ufaff"  # CJK compatibility
    "\U00020000-\U0002ebef"  # CJK ext B..F
)
# ``[^\W_]`` matches exactly the code points of Unicode categories L* and N*.
_TOKEN_RE = re.compile(f"[{_CJK}]|[^\\W_{_CJK}]+")


def tokenize_with_offsets(text: str) -> list[tuple[str, int, int]]:
    """Tokens with (start, end) character offsets into the original string."""
    return [(m.group().lower(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


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
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for tok in vocab.tokens:
            fh.write(tok + "\n")


def load_vocab(path) -> Vocab:
    """The vocab saved at ``path``; ArtifactMismatchError, naming the path, if
    the file is not UTF-8 or not a valid vocab."""
    with read_utf8(path, ArtifactMismatchError) as fh:
        tokens = tuple(line.rstrip("\n") for line in fh)
    try:
        return Vocab(tokens=tokens)
    except ConfigError as exc:
        raise ArtifactMismatchError(f"{path}: {exc}") from exc


@dataclass
class TokenizedSample:
    input_ids: list[int]
    mask_positions: list[int]
    target_ids: list[int]
    segment_ids: list[int]


def render(sample: MaskedSample, vocab: Vocab, max_len: int) -> TokenizedSample:
    """Turn a MaskedSample into token ids.

    Layout: [CLS] pieces... [SEP], with an extra [SEP] between the two
    language blocks of a K3 sample (segments 0 then 1). A masked piece's
    text is its target: each of its tokens becomes a [MASK] whose target id
    is that token's id.
    """
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
        for tok in tokenize(piece.text):
            tok_id = vocab.id(tok)
            if piece.masked:
                mask_positions.append(len(ids))
                target_ids.append(tok_id)
                tok_id = MASK_ID
            ids.append(tok_id)
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
    context_start: int  # input position of the first context token
    context_offsets: list[tuple[int, int]]  # (char start, char end) of each context token, in order


def pack_qa(question: str, context: str, vocab: Vocab, max_len: int) -> QAInput:
    """Concatenate question and context: [CLS] q [SEP] c [SEP], unpadded.

    The context window is the contiguous run of input positions
    ``context_start .. context_start + len(context_offsets) - 1``; its i-th
    token spans ``context[context_offsets[i][0]:context_offsets[i][1]]``.
    Segment ids are 0 over the question block (incl. CLS and first SEP) and 1
    over the context block (incl. trailing SEP). The context is truncated so
    the whole input fits in max_len tokens. Batching pads with ``pad_batch``.
    """
    q_tokens = tokenize(question)
    if len(q_tokens) + 3 >= max_len:
        raise QuestionTooLongError(
            f"question has {len(q_tokens)} tokens; needs {len(q_tokens) + 3} <= {max_len - 1} slots"
        )
    budget = max_len - len(q_tokens) - 3
    c_tokens = tokenize_with_offsets(context)[:budget]

    ids = [CLS_ID] + vocab.encode(q_tokens) + [SEP_ID]
    context_start = len(ids)
    ids += [vocab.id(tok) for tok, _, _ in c_tokens] + [SEP_ID]
    segs = [0] * context_start + [1] * (len(c_tokens) + 1)
    return QAInput(ids, segs, context_start, [(start, end) for _, start, end in c_tokens])


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
