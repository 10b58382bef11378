"""Two training phases over the compact encoder: entity-completion injection
and extractive-QA finetuning, with AdamW and linear warmup.

Losses reduce by MEAN (over masked positions for entity completion, over
examples for spans) so the learning rate is insensitive to batch size. The
schedule warms up linearly and stays constant afterwards.

Batches are bucketed by length, as in fairseq (Ott et al., arXiv 1904.01038):
each epoch shuffles the items, stable-sorts them by unpadded length (so ties
keep the shuffled order), cuts that order into ``batch_size`` chunks and
shuffles the chunks. An epoch is still ``ceil(n / batch_size)`` steps, and
the batch sequence is a pure function of (seed, epoch).

A training run works on persistent memory. The parameters are views into
one float64 buffer (``EncoderParams.flat``, sorted-name order, the bytes of
a checkpoint body). ``_train_loop`` keeps, for the whole run, a gradient
buffer of that layout, which it zeroes in place each step; the AdamW
moments and scratch (``AdamWState``); and one ``encoder.Workspace``, from
which the step's forward, backward and loss head take every array whose
size grows with the batch. The global gradient norm is one dot product over
the gradient buffer, optional clipping scales that buffer in place, and
``adamw_step`` is one chunked pass over the flat buffers. Every forward
takes a workspace: one per training run, one per inference process and
``evaluation.predict_spans`` call. Its keys name a layer only when the
forward keeps a cache for a backward, as a training step's does.

Thread rule: with ``workers`` (default ``evaluation.usable_cpus()``) of 2 or
more, ``_train_loop`` keeps one ``encoder.Helper`` thread for the run, never
more, and stops it before it returns or raises. The workspace and the AdamW
state carry it. A step of at least two examples and a measured number of
padded tokens (see ``encoder``) runs its per-example segments (embedding,
layers below the last, the last layer's attention) as two batch halves,
one per thread, and shares its parameter-gradient tasks with the helper.
Batch reductions and the last layer's gathered rows never split, because
a 2-D product whose rows are cut changes bits. Any other step runs whole on
the calling thread. In every step the helper forms the upper half of the
AdamW update. Only the calling thread takes from the workspace, and the
helper calls no public kiqa function. Every result is bitwise that of one
thread.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .assembler import MaskedSample
from .encoder import (
    EncoderParams,
    Helper,
    MLMBatch,
    ModelConfig,
    QABatch,
    Workspace,
    init_params,
    loss_and_grad,
    param_layout,
    param_views,
)
from .errors import ConfigError, NonFiniteError, RenderOverflowError
from .evaluation import usable_cpus
from .textmodel import QAInput, TokenizedSample, Vocab, pack_qa, pad_batch, render

PHASES = ("inject", "finetune")


@dataclass(frozen=True)
class TrainConfig:
    phase: str
    learning_rate: float
    batch_size: int
    epochs: int
    warmup_fraction: float = 0.06
    weight_decay: float = 0.01
    seed: int = 0
    max_grad_norm: float | None = None

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ConfigError(f"phase must be one of {PHASES}, got {self.phase!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.max_grad_norm is not None and not self.max_grad_norm > 0.0:
            raise ConfigError(f"max_grad_norm must be positive or none, got {self.max_grad_norm}")


def lr_at(step: int, total_steps: int, peak_lr: float, warmup_fraction: float) -> float:
    """Linear warmup to peak_lr over the first warmup fraction of steps,
    constant afterwards."""
    if not 0 <= step <= total_steps or total_steps < 1:
        raise ValueError(f"need 0 <= step <= total_steps, got {step}/{total_steps}")
    warm = max(1, round(warmup_fraction * total_steps))
    if step < warm:
        return peak_lr * step / warm
    return peak_lr


# --------------------------------------------------------------------- AdamW

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per AdamW chunk: a chunk of each of the six arrays an update reads
# or writes stays in cache between its ufuncs.
_ADAM_CHUNK = 1 << 14


@dataclass
class AdamWState:
    """The step count and both moments, each moment one buffer laid out as
    ``EncoderParams.flat``; the scratch an update reuses: two chunk-sized rows
    per thread that updates, and one finiteness flag per parameter; and the
    run's ``Helper``, if it has one, which updates the buffers' upper half."""

    step: int
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    finite: np.ndarray
    helper: Helper | None = None

    @classmethod
    def zeros_like(cls, params: EncoderParams, helper: Helper | None = None) -> "AdamWState":
        n = params.flat.size
        threads = 1 if helper is None else 2
        return cls(
            step=0, m=np.zeros(n), v=np.zeros(n),
            scratch=np.empty((threads, 2, min(n, _ADAM_CHUNK))), finite=np.empty(n, dtype=bool), helper=helper,
        )


def adamw_step(
    params: EncoderParams,
    grad: np.ndarray,
    state: AdamWState,
    lr: float,
    weight_decay: float = 0.01,
) -> None:
    """One decoupled-weight-decay Adam update of ``params.flat``, in place.

    ``grad`` is the gradient buffer, laid out as ``params.flat``. Per element,
    ``p -= lr * (mhat / (sqrt(vhat) + eps) + weight_decay * p)``, with every
    term formed in the state's scratch, one chunk of the buffers at a time;
    ``grad`` is only read. Elementwise, so the result is bitwise that of the
    same formula per tensor, and the state's helper, if any, updates the upper
    half of the buffers, in its own scratch rows, while this thread updates
    the lower half. One ``isfinite`` over ``grad`` runs before anything is
    written: a non-finite gradient raises NonFiniteError, naming its tensor,
    with the parameters and the state unchanged.
    """
    if grad.shape != params.flat.shape:
        raise ValueError(f"gradient buffer shape {grad.shape} does not match the parameters' {params.flat.shape}")
    if not np.isfinite(grad, out=state.finite).all():
        bad = int(np.argmin(state.finite))
        name = next(name for name, _, start, stop in param_layout(params.config) if start <= bad < stop)
        raise NonFiniteError(f"non-finite gradient for {name!r}")
    state.step += 1
    t = state.step
    coef = (lr, weight_decay, 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t)
    buffers = (params.flat, grad, state.m, state.v)
    if state.helper is None:
        _adamw_chunks(*buffers, state.scratch[0], *coef)
        return
    mid = grad.size // 2
    state.helper.submit(_adamw_chunks, *(b[mid:] for b in buffers), state.scratch[1], *coef)
    _adamw_chunks(*(b[:mid] for b in buffers), state.scratch[0], *coef)
    state.helper.wait()


def _adamw_chunks(flat, grad, m_buf, v_buf, scratch, lr, weight_decay, bc1, bc2):
    """The AdamW update of ``adamw_step`` over one stretch of the flat
    buffers, one chunk at a time in scratch's two rows."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for lo in range(0, grad.size, _ADAM_CHUNK):
        hi = lo + _ADAM_CHUNK
        p, g, m, v = flat[lo:hi], grad[lo:hi], m_buf[lo:hi], v_buf[lo:hi]
        tmp, step = scratch[0, : p.size], scratch[1, : p.size]
        m *= b1
        m += np.multiply(1.0 - b1, g, out=tmp)
        v *= b2
        np.multiply(1.0 - b2, g, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, bc1, out=step)
        step /= tmp
        step += np.multiply(weight_decay, p, out=tmp)
        step *= lr
        p -= step


# ------------------------------------------------------------------ batching


def collate_mlm(samples: Sequence[TokenizedSample]) -> MLMBatch:
    ids, segs, mask = pad_batch([(s.input_ids, s.segment_ids) for s in samples])
    rows, cols, targets = [], [], []
    for b, s in enumerate(samples):
        rows.extend([b] * len(s.mask_positions))
        cols.extend(s.mask_positions)
        targets.extend(s.target_ids)
    return MLMBatch(
        input_ids=ids,
        segment_ids=segs,
        attention_mask=mask,
        mask_rows=np.asarray(rows, dtype=np.int64),
        mask_cols=np.asarray(cols, dtype=np.int64),
        target_ids=np.asarray(targets, dtype=np.int64),
    )


@dataclass
class QATrainExample:
    qa_input: QAInput
    gold_start: int  # context-relative token position
    gold_end: int


def locate_answer_span(qa_input: QAInput, context: str, answer_text: str, answer_start: int):
    """Map a character-level answer to context-relative token positions.

    Returns (start, end) or None when the answer does not match the context
    at the stated offset or its tokens fell outside the packed window.
    """
    end_char = answer_start + len(answer_text)
    if context[answer_start:end_char] != answer_text:
        return None
    start_tok = end_tok = None
    for rel, (s, e) in enumerate(qa_input.context_offsets):
        if start_tok is None and s <= answer_start < e:
            start_tok = rel
        if s <= end_char - 1 < e:
            end_tok = rel
    if start_tok is None or end_tok is None or end_tok < start_tok:
        return None
    return start_tok, end_tok


def prepare_qa_examples(examples, vocab: Vocab, max_len: int) -> tuple[list[QATrainExample], int]:
    """Pack QA examples and map the first gold answer to token spans; examples
    whose answer cannot be located are dropped and counted."""
    out: list[QATrainExample] = []
    dropped = 0
    for ex in examples:
        qa_input = pack_qa(ex.question, ex.context, vocab, max_len)
        span = None
        for answer_text, answer_start in ex.answers:
            span = locate_answer_span(qa_input, ex.context, answer_text, answer_start)
            if span is not None:
                break
        if span is None:
            dropped += 1
            continue
        out.append(QATrainExample(qa_input=qa_input, gold_start=span[0], gold_end=span[1]))
    return out, dropped


def collate_qa(items: Sequence[QATrainExample]) -> QABatch:
    ids, segs, mask = pad_batch([(it.qa_input.input_ids, it.qa_input.segment_ids) for it in items])
    B = len(items)
    valid = np.zeros(ids.shape, dtype=bool)
    gold_s = np.zeros(B, dtype=np.int64)
    gold_e = np.zeros(B, dtype=np.int64)
    for b, it in enumerate(items):
        c0 = it.qa_input.context_start
        valid[b, c0 : c0 + len(it.qa_input.context_offsets)] = True
        gold_s[b] = c0 + it.gold_start
        gold_e[b] = c0 + it.gold_end
    return QABatch(
        input_ids=ids, segment_ids=segs, attention_mask=mask,
        start_gold=gold_s, end_gold=gold_e, valid_mask=valid,
    )


# ------------------------------------------------------------ training loops


@dataclass
class TrainResult:
    params: EncoderParams
    history: list[dict] = field(default_factory=list)
    dropped: int = 0


def _train_loop(
    params: EncoderParams,
    items: Sequence,
    lengths: Sequence[int],
    collate: Callable[[Sequence], MLMBatch | QABatch],
    config: TrainConfig,
    loss_kind: str,
    workers: int | None = None,
) -> TrainResult:
    """AdamW over ``items``, whose unpadded lengths are ``lengths``.

    Each epoch's RNG, seeded by (seed, epoch), shuffles the item indices; a
    stable sort by length makes each ``batch_size`` chunk a run of similar
    lengths, so little of a batch is padding; the same RNG then shuffles the
    chunks. An epoch stays ``ceil(n / batch_size)`` steps, so the LR schedule
    is that of unbucketed batches. Each step record holds ``tokens``, the
    B x L padded positions it computed, and ``grad_norm``, the global L2 norm
    of the gradient before any clipping.

    The loop owns, for the whole run, one gradient buffer laid out as
    ``params.flat`` (zeroed in place each step), the AdamW moments and one
    ``encoder.Workspace`` for the step's batch-sized arrays, so a step after
    the first few maps no new memory. With ``workers`` (default
    ``usable_cpus()``) of 2 or more, the run also keeps one ``Helper`` thread,
    which both the workspace and the AdamW state carry: it runs half of each
    step that splits into batch halves and half of every AdamW update. It is
    stopped before the loop returns or raises, and the results are bitwise
    those of one thread.
    """
    threads = usable_cpus() if workers is None else workers
    with Helper() if threads >= 2 else contextlib.nullcontext() as helper:
        state = AdamWState.zeros_like(params, helper)
        grad = np.zeros_like(params.flat)
        grads = param_views(params.config, grad)
        workspace = Workspace(helper)
        total_steps = config.epochs * math.ceil(len(items) / config.batch_size)
        history = []
        step = 0
        use_dropout = params.config.dropout > 0.0
        for epoch in range(config.epochs):
            epoch_rng = random.Random(f"{config.seed}|epoch|{epoch}")
            order = list(range(len(items)))
            epoch_rng.shuffle(order)
            order.sort(key=lengths.__getitem__)
            chunks = [order[lo : lo + config.batch_size] for lo in range(0, len(order), config.batch_size)]
            epoch_rng.shuffle(chunks)
            for chunk in chunks:
                batch = collate([items[j] for j in chunk])
                step += 1
                lr = lr_at(step, total_steps, config.learning_rate, config.warmup_fraction)
                rng = np.random.default_rng([config.seed, step]) if use_dropout else None
                grad.fill(0.0)
                value, _ = loss_and_grad(params, batch, loss_kind, dropout_rng=rng, grads=grads, workspace=workspace)
                if not math.isfinite(value):
                    raise NonFiniteError(f"loss diverged at step {step}")
                grad_norm = math.sqrt(np.dot(grad, grad))
                if config.max_grad_norm is not None and grad_norm > config.max_grad_norm:
                    grad *= config.max_grad_norm / grad_norm
                adamw_step(params, grad, state, lr, weight_decay=config.weight_decay)
                history.append(
                    {"step": step, "lr": lr, "loss": value, "tokens": batch.input_ids.size, "grad_norm": grad_norm}
                )
    return TrainResult(params=params, history=history)


def run_injection(
    corpus: Sequence[MaskedSample],
    vocab: Vocab,
    config: TrainConfig,
    model_config: ModelConfig,
    render_max_len: int = 128,
    *,
    workers: int | None = None,
) -> TrainResult:
    """Train entity completion over the assembled corpus from a fresh
    initialization seeded by ``config.seed``, on one thread or, with
    ``workers`` (default ``usable_cpus()``) of 2 or more, with one helper
    thread beside it (see ``_train_loop``); the result is the same."""
    if not corpus:
        raise ConfigError("injection corpus is empty")
    rendered: list[TokenizedSample] = []
    overflowed = 0
    cap = min(render_max_len, model_config.max_len)
    for sample in corpus:
        try:
            rendered.append(render(sample, vocab, cap))
        except RenderOverflowError:
            overflowed += 1
    if not rendered:
        raise ConfigError("every corpus sample overflowed the render window")

    params = init_params(model_config, config.seed)
    lengths = [len(s.input_ids) for s in rendered]
    result = _train_loop(params, rendered, lengths, collate_mlm, config, "mlm", workers)
    result.dropped = overflowed
    return result


def run_finetune(
    params: EncoderParams,
    qa_dataset,
    vocab: Vocab,
    config: TrainConfig,
    *,
    workers: int | None = None,
) -> TrainResult:
    """Finetune span extraction starting from the given parameters; answer
    character offsets are mapped to token spans via the packing offsets.
    ``workers`` as for ``run_injection``."""
    prepared, dropped = prepare_qa_examples(qa_dataset, vocab, params.config.max_len)
    if not prepared:
        raise ConfigError("no trainable QA examples (all dropped or dataset empty)")
    lengths = [len(ex.qa_input.input_ids) for ex in prepared]
    result = _train_loop(params.copy(), prepared, lengths, collate_qa, config, "span", workers)
    result.dropped = dropped
    return result
