"""Span decoding, answer normalization, EM / mean-token-F1 scoring,
per-language-pair reporting, and token-coverage analysis.

Datasets follow the SQuAD-style JSON layout with optional per-question
``context_lang`` / ``question_lang`` keys.
"""

from __future__ import annotations

import json
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .encoder import EncoderParams, forward, qa_logits
from .errors import KBParseError
from .textmodel import Vocab, pack_qa, pad_batch, tokenize

_EN_ARTICLES = frozenset({"a", "an", "the"})
_CJK_LANG_ROOTS = frozenset({"zh", "ja", "ko"})


def _is_cjk_lang(lang: str) -> bool:
    return lang.split("-")[0].split("_")[0] in _CJK_LANG_ROOTS


def normalize_answer(text: str, lang: str) -> str:
    """Lowercase, strip all Unicode punctuation, collapse whitespace; drop
    standalone English articles; remove whitespace entirely for CJK."""
    lowered = text.lower()
    stripped = "".join(ch for ch in lowered if not unicodedata.category(ch).startswith("P"))
    words = stripped.split()
    if lang.split("-")[0].split("_")[0] == "en":
        words = [w for w in words if w not in _EN_ARTICLES]
    joined = " ".join(words)
    if _is_cjk_lang(lang):
        joined = "".join(joined.split())
    return joined


def exact_match(pred: str, gold: str, lang: str) -> int:
    return int(normalize_answer(pred, lang) == normalize_answer(gold, lang))


def token_f1(pred: str, gold: str, lang: str) -> float:
    """Token-level F1 with multiset overlap over normalized strings."""
    pred_tokens = tokenize(normalize_answer(pred, lang))
    gold_tokens = tokenize(normalize_answer(gold, lang))
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def decode_span(start_logits, end_logits, context_positions: Sequence[int], max_answer_len: int):
    """Best (start, end) by summed logits subject to start <= end, length cap,
    and both ends inside the context; ties prefer the earlier start then end."""
    start_logits = np.asarray(start_logits, dtype=np.float64)
    end_logits = np.asarray(end_logits, dtype=np.float64)
    positions = sorted(context_positions)
    if not positions:
        raise ValueError("context segment is empty")
    pos_set = set(positions)
    best = None
    best_score = -np.inf
    for s in positions:
        for e in range(s, min(s + max_answer_len, start_logits.shape[0])):
            if e not in pos_set:
                continue
            score = start_logits[s] + end_logits[e]
            if score > best_score:
                best_score = score
                best = (s, e)
    return best


# ------------------------------------------------------------------- dataset


@dataclass(frozen=True)
class QAExample:
    qa_id: str
    question: str
    context: str
    answers: tuple[tuple[str, int], ...]  # (text, answer_start)
    context_lang: str
    question_lang: str


def load_qa_dataset(path, default_context_lang: str = "", default_question_lang: str = "") -> list[QAExample]:
    """Parse a SQuAD-style JSON file into QAExamples."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise KBParseError(f"{path}: malformed JSON ({exc.msg})") from exc
    examples: list[QAExample] = []
    try:
        for article in doc["data"]:
            for para in article["paragraphs"]:
                context = para["context"]
                for qa in para["qas"]:
                    answers = tuple((a["text"], int(a["answer_start"])) for a in qa["answers"])
                    if not answers:
                        raise KBParseError(f"{path}: question {qa.get('id')!r} has no gold answers")
                    examples.append(
                        QAExample(
                            qa_id=str(qa["id"]),
                            question=qa["question"],
                            context=context,
                            answers=answers,
                            context_lang=qa.get("context_lang", default_context_lang),
                            question_lang=qa.get("question_lang", default_question_lang),
                        )
                    )
    except (KeyError, TypeError) as exc:
        raise KBParseError(f"{path}: not a valid QA dataset ({exc!r})") from exc
    return examples


# --------------------------------------------------------------- evaluation


@dataclass
class EvalCell:
    f1: float
    em: float
    count: int


@dataclass
class EvalReport:
    cells: dict[tuple[str, str], EvalCell] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(c.count for c in self.cells.values())

    @property
    def overall_f1(self) -> float:
        n = self.total
        return sum(c.f1 * c.count for c in self.cells.values()) / n if n else 0.0

    @property
    def overall_em(self) -> float:
        n = self.total
        return sum(c.em * c.count for c in self.cells.values()) / n if n else 0.0

    def cross_pair_f1(self) -> float:
        """Count-weighted F1 over cells whose question language differs from
        the context language."""
        cross = [(k, c) for k, c in self.cells.items() if k[0] != k[1]]
        n = sum(c.count for _, c in cross)
        return sum(c.f1 * c.count for _, c in cross) / n if n else 0.0

    def to_dict(self) -> dict:
        return {
            "cells": [
                {"context_lang": c, "question_lang": q, "f1": cell.f1, "em": cell.em, "count": cell.count}
                for (c, q), cell in sorted(self.cells.items())
            ],
            "overall": {"f1": self.overall_f1, "em": self.overall_em, "count": self.total},
        }


def format_report(report: EvalReport) -> str:
    width = max([13] + [len(f"{c}/{q}") for c, q in report.cells])
    lines = [f"{'Settings(c/q)':<{width}} | F1     | Exact Match | Count"]
    for (c, q), cell in sorted(report.cells.items()):
        lines.append(f"{f'{c}/{q}':<{width}} | {cell.f1:6.2f} | {cell.em:11.2f} | {cell.count}")
    lines.append(f"{'overall':<{width}} | {report.overall_f1:6.2f} | {report.overall_em:11.2f} | {report.total}")
    return "\n".join(lines)


def predict_spans(
    params: EncoderParams,
    vocab: Vocab,
    examples: Sequence[QAExample],
    max_answer_len: int = 30,
    batch_size: int = 64,
) -> list[str]:
    """Extract an answer string for each example (verbatim context substring)."""
    packed = [pack_qa(ex.question, ex.context, vocab, params.config.max_len) for ex in examples]
    predictions: list[str] = []
    for lo in range(0, len(packed), batch_size):
        chunk = packed[lo : lo + batch_size]
        ids, segs, mask = pad_batch([(p.input_ids, p.segment_ids) for p in chunk])
        hidden = forward(params, ids, segs, mask)
        start_logits, end_logits = qa_logits(params, hidden)
        for b, p in enumerate(chunk):
            ex = examples[lo + b]
            if not p.context_token_offsets:
                predictions.append("")
                continue
            s, e = decode_span(start_logits[b], end_logits[b], p.context_positions, max_answer_len)
            char_start = p.context_token_offsets[s][0]
            char_end = p.context_token_offsets[e][1]
            predictions.append(ex.context[char_start:char_end])
    return predictions


def score_examples(examples: Sequence[QAExample], predictions: Sequence[str]) -> EvalReport:
    """Aggregate max-over-golds EM and F1 into per-(context, question) cells, x100."""
    sums: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0.0, 0])
    for ex, pred in zip(examples, predictions):
        f1 = max(token_f1(pred, gold, ex.context_lang) for gold, _ in ex.answers)
        em = max(exact_match(pred, gold, ex.context_lang) for gold, _ in ex.answers)
        cell = sums[(ex.context_lang, ex.question_lang)]
        cell[0] += f1
        cell[1] += em
        cell[2] += 1
    report = EvalReport()
    for key, (f1_sum, em_sum, count) in sums.items():
        report.cells[key] = EvalCell(f1=100.0 * f1_sum / count, em=100.0 * em_sum / count, count=count)
    return report


def evaluate(
    params: EncoderParams,
    vocab: Vocab,
    examples: Sequence[QAExample],
    max_answer_len: int = 30,
    batch_size: int = 64,
) -> EvalReport:
    predictions = predict_spans(params, vocab, examples, max_answer_len, batch_size)
    return score_examples(examples, predictions)


# ------------------------------------------------------------ token coverage


@dataclass
class CoverageReport:
    per_lang: dict[str, float] = field(default_factory=dict)


def token_coverage(
    questions: Iterable[tuple[str, str]],
    triple_texts: Iterable[tuple[str, str]],
) -> CoverageReport:
    """Per language: fraction of unique question tokens that also occur in
    the tokenized triple renderings of that language."""
    q_tokens: dict[str, set[str]] = defaultdict(set)
    for text, lang in questions:
        q_tokens[lang].update(tokenize(text))
    t_tokens: dict[str, set[str]] = defaultdict(set)
    for text, lang in triple_texts:
        t_tokens[lang].update(tokenize(text))
    report = CoverageReport()
    for lang, toks in sorted(q_tokens.items()):
        if not toks:
            continue
        report.per_lang[lang] = len(toks & t_tokens.get(lang, set())) / len(toks)
    return report
