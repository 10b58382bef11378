"""Span decoding, answer normalization, EM / mean-token-F1 scoring,
and per-language-pair reporting. ``evaluate`` is the one evaluation path:
``kiqa evaluate``, ``kiqa pipeline`` and the ``eval`` benchmark all run it.

``predict_spans`` plans its batches first: examples in order of packed
length, each batch capped by ``batch_size`` rows and ``_BATCH_TOKENS``
padded tokens. A pool of threads, by default one per CPU the process may
use (``usable_cpus``) and never more than there are batches, runs the
encoder on the planned batches side by side, longest first, each thread in
its own ``encoder.Workspace``; numpy and BLAS release the interpreter lock
inside their loops. The calling thread takes the logits in that order and
decodes them. A batch's logits depend on its rows alone, so every worker count
gives bitwise the same predictions and reports.

Datasets follow the SQuAD-style JSON layout with optional per-question
``context_lang`` / ``question_lang`` keys.
"""

from __future__ import annotations

import json
import os
import threading
import unicodedata
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoder import EncoderParams, Workspace, forward, qa_logits
from .errors import ConfigError, KBParseError, NonFiniteError
from .fileio import read_utf8
from .textmodel import Vocab, pack_qa, pad_batch, tokenize

_EN_ARTICLES = frozenset({"a", "an", "the"})
_CJK_LANG_ROOTS = frozenset({"zh", "ja", "ko"})


def normalize_answer(text: str, lang: str) -> str:
    """Lowercase, strip all Unicode punctuation, collapse whitespace; drop
    standalone English articles; remove whitespace entirely for CJK."""
    root = lang.split("-")[0].split("_")[0]
    lowered = text.lower()
    stripped = "".join(ch for ch in lowered if not unicodedata.category(ch).startswith("P"))
    words = stripped.split()
    if root == "en":
        words = [w for w in words if w not in _EN_ARTICLES]
    joined = " ".join(words)
    if root in _CJK_LANG_ROOTS:
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


def decode_span(start_logits: np.ndarray, end_logits: np.ndarray, max_answer_len: int) -> tuple[int, int]:
    """Best (start, end) over one context's own span logits, by summed score,
    subject to start <= end < start + max_answer_len; ties prefer the earlier
    start, then the earlier end. The logits must be finite and non-empty."""
    n = len(start_logits)
    gap = np.arange(n)[None, :] - np.arange(n)[:, None]
    scores = np.where((gap >= 0) & (gap < max_answer_len), start_logits[:, None] + end_logits[None, :], -np.inf)
    return divmod(int(np.argmax(scores)), n)  # row-major: earlier start, then earlier end


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
    with read_utf8(path, KBParseError) as fh:
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
                    answers = tuple((a["text"], a["answer_start"]) for a in qa["answers"])
                    if not answers:
                        raise KBParseError(f"{path}: question {qa.get('id')!r} has no gold answers")
                    context_lang = qa.get("context_lang", default_context_lang)
                    question_lang = qa.get("question_lang", default_question_lang)
                    texts = [context, qa["question"], context_lang, question_lang] + [text for text, _ in answers]
                    if not all(isinstance(t, str) for t in texts) or any(type(s) is not int for _, s in answers):
                        raise KBParseError(f"{path}: question {qa.get('id')!r}: texts and languages must be "
                                           "strings, answer_start an integer")
                    examples.append(
                        QAExample(
                            qa_id=str(qa["id"]),
                            question=qa["question"],
                            context=context,
                            answers=answers,
                            context_lang=context_lang,
                            question_lang=question_lang,
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


def _mean(cells: Sequence[EvalCell], metric: str) -> float:
    """Count-weighted mean of ``metric`` ("f1" or "em"); 0.0 over no example."""
    n = sum(c.count for c in cells)
    return sum(getattr(c, metric) * c.count for c in cells) / n if n else 0.0


@dataclass
class EvalReport:
    """Per-(context, question) cells, and ``predictions``: one record per
    example in input order, keyed ``id``, ``context_lang``, ``question_lang``,
    ``prediction``, ``f1``, ``em`` (x100). ``to_dict`` holds no record."""

    cells: dict[tuple[str, str], EvalCell] = field(default_factory=dict)
    predictions: list[dict] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(c.count for c in self.cells.values())

    @property
    def overall_f1(self) -> float:
        return _mean(list(self.cells.values()), "f1")

    @property
    def overall_em(self) -> float:
        return _mean(list(self.cells.values()), "em")

    def cross_pair_f1(self) -> float:
        """Count-weighted F1 over cells whose question language differs from
        the context language."""
        return _mean([c for (ctx, q), c in self.cells.items() if ctx != q], "f1")

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


# Tokens per inference batch: its rows times its pad width L. At d_ff = 256 and
# 4 heads a batch holds a 0.5 MB FFN intermediate and an (8 KB * L) score
# tensor, 1 MB at L = 128; a row longer than the budget goes alone (4.7 MB of
# scores at L = 384). On the eval benchmark's inputs (1 BLAS thread, 2 CPUs)
# with two worker threads, each with its own workspace, a process peaked at
# 81 MB with this cap, 95 MB at 512 tokens and 350 MB uncapped (74, 82 and
# 224 MB with one worker). A capped pass took 0.5k-2.4k minor page faults,
# against 4k-17k uncapped, and 0.85x the time of an uncapped pass.
_BATCH_TOKENS = 256


def check_eval_values(max_answer_len: int, batch_size: int) -> None:
    """Refuse an answer-length cap or batch size below 1."""
    if max_answer_len < 1 or batch_size < 1:
        raise ConfigError(f"max_answer_len and batch_size must be >= 1, got {max_answer_len} and {batch_size}")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def predict_spans(
    params: EncoderParams,
    vocab: Vocab,
    examples: Sequence[QAExample],
    max_answer_len: int = 30,
    batch_size: int = 64,
    *,
    workers: int | None = None,
) -> list[str]:
    """Extract an answer string for each example (verbatim context substring),
    in input order.

    Each packed row's context window is ``[context_start, context_start + n)``
    for its n context tokens (see ``pack_qa``). ``decode_span`` scores that
    slice of the row's span logits, and the chosen (start, end) indices map
    through ``context_offsets`` to characters. An empty context predicts "".

    The batches are planned first. Examples are taken in stable order of
    packed length, so each batch pads to its longest row, the last; each
    prediction is written back to its example's input index. A batch grows
    while it has fewer than ``batch_size`` rows and its rows times the next
    row's length stay within ``_BATCH_TOKENS``; a longer row goes alone. So a
    forward's intermediates stay a few MB whatever ``batch_size`` is. The pad
    width of a row's batch changes the reduction order inside numpy/BLAS, so
    a row's span logits may differ by a few ulps from those of another
    batching of the same examples.

    Up to ``workers`` threads (default ``usable_cpus()``, capped at the number
    of batches) run ``forward`` and ``qa_logits`` on the planned batches, in
    reverse plan order, so longest first; one worker runs them in the calling
    thread. Each of those threads gives ``forward`` its own ``Workspace`` for
    this call, and so takes its largest arrays at its first batch rather than
    regrowing them batch by batch; the long batches also start first, which
    evens out the threads' last batches. ``qa_logits`` returns new arrays,
    which a thread's next batch does not overwrite. A pool is shut down
    before the call returns or raises. The calling thread takes the logits in
    that run order, checks them and decodes, so the first batch run whose
    span logits are not all finite raises NonFiniteError. A batch's logits
    depend on its rows alone, so predictions are bitwise the same for every
    worker count and run order.
    """
    check_eval_values(max_answer_len, batch_size)
    packed = [pack_qa(ex.question, ex.context, vocab, params.config.max_len) for ex in examples]
    order = sorted(range(len(packed)), key=lambda i: len(packed[i].input_ids))
    widths = [len(packed[i].input_ids) for i in order]
    plan = []
    lo = 0
    while lo < len(order):
        hi = lo + 1
        while hi < len(order) and hi - lo < batch_size and (hi - lo + 1) * widths[hi] <= _BATCH_TOKENS:
            hi += 1
        plan.append(order[lo:hi])
        lo = hi
    predictions = [""] * len(packed)
    local = threading.local()  # each thread's Workspace, for this call only

    def span_logits(chunk: list[int]) -> tuple[np.ndarray, np.ndarray]:
        if not hasattr(local, "workspace"):
            local.workspace = Workspace()
        ids, segs, mask = pad_batch([(packed[i].input_ids, packed[i].segment_ids) for i in chunk])
        return qa_logits(params, forward(params, ids, segs, mask, workspace=local.workspace))

    threads = min(usable_cpus() if workers is None else workers, len(plan))
    # One thread runs in the caller: no hand-off per batch, and no second malloc arena.
    pool = ThreadPoolExecutor(threads) if threads > 1 else None
    runs = plan[::-1]  # longest first
    try:
        batches = pool.map(span_logits, runs) if pool else map(span_logits, runs)
        for chunk, (start_logits, end_logits) in zip(runs, batches):
            if not (np.isfinite(start_logits).all() and np.isfinite(end_logits).all()):
                raise NonFiniteError("span logits are not finite; the checkpoint may hold NaN or inf weights")
            for b, i in enumerate(chunk):
                p = packed[i]
                if not p.context_offsets:
                    continue
                window = slice(p.context_start, p.context_start + len(p.context_offsets))
                s, e = decode_span(start_logits[b, window], end_logits[b, window], max_answer_len)
                predictions[i] = examples[i].context[p.context_offsets[s][0] : p.context_offsets[e][1]]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return predictions


def score_examples(examples: Sequence[QAExample], predictions: Sequence[str]) -> EvalReport:
    """Score each example once by max-over-golds token F1 and exact match.
    Its record goes to ``EvalReport.predictions``, in input order, and its
    F1/EM to its (context, question) cell, whose means are reported x100."""
    report = EvalReport()
    sums: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0.0, 0])
    for ex, prediction in zip(examples, predictions):
        f1 = max(token_f1(prediction, gold, ex.context_lang) for gold, _ in ex.answers)
        em = max(exact_match(prediction, gold, ex.context_lang) for gold, _ in ex.answers)
        report.predictions.append({"id": ex.qa_id, "context_lang": ex.context_lang, "question_lang": ex.question_lang,
                                   "prediction": prediction, "f1": 100.0 * f1, "em": 100.0 * em})
        cell = sums[(ex.context_lang, ex.question_lang)]
        cell[0] += f1
        cell[1] += em
        cell[2] += 1
    for key, (f1_sum, em_sum, count) in sums.items():
        report.cells[key] = EvalCell(f1=100.0 * f1_sum / count, em=100.0 * em_sum / count, count=count)
    return report


def evaluate(
    params: EncoderParams,
    vocab: Vocab,
    examples: Sequence[QAExample],
    max_answer_len: int = 30,
    batch_size: int = 64,
    *,
    workers: int | None = None,
) -> EvalReport:
    """``score_examples`` over ``predict_spans``; ``workers`` as there."""
    return score_examples(examples, predict_spans(params, vocab, examples, max_answer_len, batch_size,
                                                  workers=workers))
