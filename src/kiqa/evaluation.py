"""Span decoding, answer normalization, EM / mean-token-F1 scoring,
and per-language-pair reporting. ``evaluate`` is the one evaluation path:
``kiqa evaluate``, ``kiqa pipeline`` and the ``eval`` benchmark all run it.

``predict_spans`` and ``evaluate`` share one runner. The calling process
only counts each example's packed width (``textmodel.packed_width``) and
plans the batches: examples in order of packed width, each batch capped by
``batch_size`` rows and ``_BATCH_TOKENS`` padded tokens. The batches, longest
first, are dealt round-robin to as many processes as the process may use
CPUs (``usable_cpus``), never more than there are batches: the calling
process and children it forks for the call, which do not share an
interpreter lock. Each packs the batches of its share, runs the encoder on
them in its own ``encoder.Workspace``, decodes the logits and scores each
example; a child sends its results back through a pipe. A batch's logits
depend on its rows alone, and the caller puts the results back in input
order and sums each cell in input order, so every worker count gives bitwise
the same predictions and reports.

Datasets follow the SQuAD-style JSON layout with optional per-question
``context_lang`` / ``question_lang`` keys.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoder import EncoderParams, Workspace, forward, qa_logits
from .errors import ConfigError, KBParseError, NonFiniteError
from .fileio import read_utf8
from .textmodel import Vocab, pack_qa, packed_width, pad_batch, tokenize

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


def _overlap_f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    """Token-level F1 with multiset overlap of two normalized answers' tokens."""
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
    start, then the earlier end. The logits must be finite and non-empty.

    Row s of the scored (n, w) band holds start s with ends s .. s + w - 1,
    w = min(max_answer_len, n): one strided view, each row a step further
    along a copy of the end logits followed by w - 1 -inf, which the ends
    past the context read."""
    n = len(start_logits)
    if n == 0:
        raise ValueError("decode_span needs a context of at least one position")
    w = min(max_answer_len, n)
    padded = np.empty(n + w - 1)
    padded[:n] = end_logits
    padded[n:] = -np.inf
    ends = np.ndarray((n, w), buffer=padded, strides=(padded.itemsize, padded.itemsize))
    s, k = divmod(int(np.argmax(start_logits[:, None] + ends)), w)  # row-major: earlier start, then earlier end
    return s, s + k


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
# scores at L = 384). On the eval benchmark's inputs (1 BLAS thread), one
# worker process peaked at 74 MB with this cap, 82 MB at 512 tokens and
# 224 MB uncapped. A capped pass took 0.5k-2.4k minor page faults, against
# 4k-17k uncapped, and 0.85x the time of an uncapped pass.
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


def _fork(fn, *args) -> tuple[int, int]:
    """Runs fn(*args) in a forked child; returns its pid and the read end of a
    pipe that carries the pickled (True, result) or (False, exception), an
    exception that does not pickle going as a RuntimeError of its repr. The
    child leaves only through ``os._exit``, whatever fn raises, so it never
    returns into its caller's frames. A failed fork leaves no pipe open."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                outcome = True, fn(*args)
            except BaseException as exc:  # sent to the parent, which raises it
                outcome = False, exc
            try:
                data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # an exception that does not pickle is sent as its repr
                data = pickle.dumps((False, RuntimeError(f"{outcome[1]!r}, which could not be sent ({exc!r})")))
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)  # before the next fork, so that only this child holds it
    return pid, read_end


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _score(ex: QAExample, prediction: str) -> tuple[float, int]:
    """One prediction's max-over-golds token F1 and exact match, SQuAD's
    metrics over ``normalize_answer``'s forms, each string normalized once."""
    pred = normalize_answer(prediction, ex.context_lang)
    golds = [normalize_answer(gold, ex.context_lang) for gold, _ in ex.answers]
    pred_tokens = tokenize(pred)
    return max(_overlap_f1(pred_tokens, tokenize(gold)) for gold in golds), max(int(pred == gold) for gold in golds)


def _predict(params: EncoderParams, vocab: Vocab, examples: Sequence[QAExample], max_answer_len: int,
             batch_size: int, workers: int | None) -> tuple[list[str], list[tuple[float, int]]]:
    """``predict_spans``'s predictions and each example's ``_score``, both in
    input order."""
    check_eval_values(max_answer_len, batch_size)
    max_len = params.config.max_len
    widths = [packed_width(ex.question, ex.context, max_len) for ex in examples]
    order = sorted(range(len(examples)), key=widths.__getitem__)
    plan = []
    lo = 0
    while lo < len(order):
        hi = lo + 1
        while hi < len(order) and hi - lo < batch_size and (hi - lo + 1) * widths[order[hi]] <= _BATCH_TOKENS:
            hi += 1
        plan.append(order[lo:hi])
        lo = hi

    def run(share: list[list[int]]) -> list[tuple[int, str, tuple[float, int]]]:
        workspace = Workspace()
        done = []
        for chunk in share:
            packed = [(i, pack_qa(examples[i].question, examples[i].context, vocab, max_len)) for i in chunk]
            ids, segs, mask = pad_batch([(p.input_ids, p.segment_ids) for _, p in packed])
            start_logits, end_logits = qa_logits(params, forward(params, ids, segs, mask, workspace=workspace))
            if not (np.isfinite(start_logits).all() and np.isfinite(end_logits).all()):
                raise NonFiniteError("span logits are not finite; the checkpoint may hold NaN or inf weights")
            for b, (i, p) in enumerate(packed):
                ex, prediction = examples[i], ""
                if p.context_offsets:
                    window = slice(p.context_start, p.context_start + len(p.context_offsets))
                    s, e = decode_span(start_logits[b, window], end_logits[b, window], max_answer_len)
                    prediction = ex.context[p.context_offsets[s][0] : p.context_offsets[e][1]]
                done.append((i, prediction, _score(ex, prediction)))
        return done

    procs = usable_cpus() if workers is None else workers
    if not hasattr(os, "fork"):
        procs = 1
    procs = max(1, min(procs, len(plan)))
    shares = [plan[::-1][k::procs] for k in range(procs)]  # each longest first
    children: list[tuple[int, int]] = []  # (pid, read end of its result pipe)
    ended = False
    try:
        for share in shares[1:]:
            children.append(_fork(run, share))
        done = run(shares[0])
        sent = [_read_all(fd) for _, fd in children]  # each child's write end closes when it exits
        ended = True
    finally:
        statuses = []
        for pid, fd in children:
            os.close(fd)
            if not ended:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), status, data in zip(children, statuses, sent):
        try:
            ok, value = pickle.loads(data)  # bytes this function's own child wrote
        except Exception as exc:  # a child that died mid-send, or an exception that does not unpickle
            code = os.waitstatus_to_exitcode(status)
            reason = f"ended without a result (exit code {code})" if code else "sent a result that does not unpickle"
            raise ChildProcessError(f"eval worker process {pid} {reason}: {exc!r}") from exc
        if not ok:
            raise value
        done += value
    done.sort(key=lambda record: record[0])  # input order
    return [prediction for _, prediction, _ in done], [scored for _, _, scored in done]


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

    The batches are planned first, from each example's ``packed_width``, so
    a QuestionTooLongError is raised before any fork. Examples are taken in
    stable order of packed length, so each batch pads to its longest row, the
    last; each prediction is written back to its example's input index. A
    batch grows while it has fewer than ``batch_size`` rows and its rows
    times the next row's length stay within ``_BATCH_TOKENS``; a longer row
    goes alone. So a forward's intermediates stay a few MB whatever
    ``batch_size`` is. The pad width of a row's batch changes the reduction
    order inside numpy/BLAS, so a row's span logits may differ by a few ulps
    from those of another batching of the same examples.

    The plan runs in reverse, longest batch first, dealt round-robin to
    up to ``workers`` processes (default ``usable_cpus()``, capped at the
    number of batches; one where ``os.fork`` does not exist). The calling
    process runs the first share; each other share runs in a child forked
    for this call, which sends its results back through a pipe. Every share
    packs its batches with ``pack_qa`` and runs ``forward`` and
    ``qa_logits`` batch by batch in its own ``Workspace``, and so takes its
    largest arrays at its first batch rather than regrowing them; it checks
    each batch's span logits, decodes them and scores each example as
    ``evaluate`` reports it (this function returns only the predictions,
    one scoring path serving both). The first batch of a share whose span
    logits are not all finite raises NonFiniteError, and a child's exception
    is raised here with its type and message: the calling process's own
    first, then the children's in share order. A child that ends without a
    result, or sends one that does not unpickle, raises ChildProcessError.
    If the calling process's share raises, the children are killed. Every
    child has been reaped, and every pipe closed, when the call returns or
    raises. The children are forked from the calling thread alone, so no
    other thread of the process should hold a lock they need; kiqa runs none
    during evaluation. A batch's logits depend on its rows alone, so
    predictions are bitwise the same for every worker count.
    """
    return _predict(params, vocab, examples, max_answer_len, batch_size, workers)[0]


def _report(examples: Sequence[QAExample], predictions: Sequence[str], scores) -> EvalReport:
    """Each example's record, in input order, and its (F1, EM) summed into its
    (context, question) cell in input order; means reported x100."""
    report = EvalReport()
    sums: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0.0, 0])
    for ex, prediction, (f1, em) in zip(examples, predictions, scores):
        report.predictions.append({"id": ex.qa_id, "context_lang": ex.context_lang, "question_lang": ex.question_lang,
                                   "prediction": prediction, "f1": 100.0 * f1, "em": 100.0 * em})
        cell = sums[(ex.context_lang, ex.question_lang)]
        cell[0] += f1
        cell[1] += em
        cell[2] += 1
    for key, (f1_sum, em_sum, count) in sums.items():
        report.cells[key] = EvalCell(f1=100.0 * f1_sum / count, em=100.0 * em_sum / count, count=count)
    return report


def score_examples(examples: Sequence[QAExample], predictions: Sequence[str]) -> EvalReport:
    """Score each example once by max-over-golds token F1 and exact match
    (``_score``). Its record goes to ``EvalReport.predictions``, in input
    order, and its F1/EM to its (context, question) cell, whose means are
    reported x100."""
    return _report(examples, predictions, [_score(ex, prediction) for ex, prediction in zip(examples, predictions)])


def evaluate(
    params: EncoderParams,
    vocab: Vocab,
    examples: Sequence[QAExample],
    max_answer_len: int = 30,
    batch_size: int = 64,
    *,
    workers: int | None = None,
) -> EvalReport:
    """``score_examples`` over ``predict_spans``, bit for bit, in one pass:
    the process that decodes a batch also scores its examples. ``workers``
    as in ``predict_spans``."""
    return _report(examples, *_predict(params, vocab, examples, max_answer_len, batch_size, workers))
