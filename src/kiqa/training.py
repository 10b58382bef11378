"""Two training phases over the compact encoder: entity-completion injection
and extractive-QA finetuning, with AdamW and linear warmup.

Losses reduce by MEAN (over masked positions for entity completion, over
examples for spans) so the learning rate is insensitive to batch size. The
schedule warms up linearly and stays constant afterwards.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .assembler import MaskedSample
from .encoder import (
    EncoderParams,
    MLMBatch,
    ModelConfig,
    QABatch,
    init_params,
    loss_and_grad,
)
from .errors import ConfigError, NonFiniteError, RenderOverflowError
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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


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


@dataclass
class AdamWState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "AdamWState":
        return cls(
            step=0,
            m={k: np.zeros_like(t) for k, t in params.tensors.items()},
            v={k: np.zeros_like(t) for k, t in params.tensors.items()},
        )


def adamw_step(
    params: EncoderParams,
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> tuple[EncoderParams, AdamWState]:
    """One decoupled-weight-decay Adam update, in place."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params.tensors.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p -= lr * (mhat / (np.sqrt(vhat) + eps) + weight_decay * p)
    return params, state


def clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


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
    positions = qa_input.context_positions
    start_tok = end_tok = None
    for rel, pos in enumerate(positions):
        s, e = qa_input.context_token_offsets[pos]
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
        positions = it.qa_input.context_positions
        valid[b, positions] = True
        gold_s[b] = positions[it.gold_start]
        gold_e[b] = positions[it.gold_end]
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
    batches_per_epoch: Callable[[int], list],
    n_batches: int,
    config: TrainConfig,
    loss_kind: str,
    on_step: Callable[[dict], None] | None,
) -> TrainResult:
    state = AdamWState.zeros_like(params)
    total_steps = config.epochs * n_batches
    history = []
    step = 0
    use_dropout = params.config.dropout > 0.0
    for epoch in range(config.epochs):
        for batch in batches_per_epoch(epoch):
            step += 1
            lr = lr_at(step, total_steps, config.learning_rate, config.warmup_fraction)
            rng = np.random.default_rng([config.seed, step]) if use_dropout else None
            value, grads = loss_and_grad(params, batch, loss_kind, dropout_rng=rng)
            if not math.isfinite(value):
                raise NonFiniteError(f"loss diverged at step {step}")
            if config.max_grad_norm is not None:
                clip_grads(grads, config.max_grad_norm)
            adamw_step(params, grads, state, lr, weight_decay=config.weight_decay)
            rec = {"step": step, "lr": lr, "loss": value}
            history.append(rec)
            if on_step is not None:
                on_step(rec)
    return TrainResult(params=params, history=history)


def run_injection(
    corpus: Sequence[MaskedSample],
    vocab: Vocab,
    config: TrainConfig,
    model_config: ModelConfig,
    render_max_len: int = 128,
    init: EncoderParams | None = None,
    on_step: Callable[[dict], None] | None = None,
) -> TrainResult:
    """Train entity completion over the assembled corpus from fresh
    (seeded) initialization unless a checkpoint is supplied."""
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

    params = init.copy() if init is not None else init_params(model_config, config.seed)
    n_batches = math.ceil(len(rendered) / config.batch_size)

    def batches(epoch: int):
        order = list(range(len(rendered)))
        random.Random(f"{config.seed}|epoch|{epoch}").shuffle(order)
        for i in range(n_batches):
            chunk = order[i * config.batch_size : (i + 1) * config.batch_size]
            yield collate_mlm([rendered[j] for j in chunk])

    result = _train_loop(params, batches, n_batches, config, "mlm", on_step)
    result.dropped = overflowed
    return result


def run_finetune(
    params: EncoderParams,
    qa_dataset,
    vocab: Vocab,
    config: TrainConfig,
    on_step: Callable[[dict], None] | None = None,
) -> TrainResult:
    """Finetune span extraction starting from the given parameters; answer
    character offsets are mapped to token spans via the packing offsets."""
    prepared, dropped = prepare_qa_examples(qa_dataset, vocab, params.config.max_len)
    if not prepared:
        raise ConfigError("no trainable QA examples (all dropped or dataset empty)")
    params = params.copy()
    n_batches = math.ceil(len(prepared) / config.batch_size)

    def batches(epoch: int):
        order = list(range(len(prepared)))
        random.Random(f"{config.seed}|epoch|{epoch}").shuffle(order)
        for i in range(n_batches):
            chunk = order[i * config.batch_size : (i + 1) * config.batch_size]
            yield collate_qa([prepared[j] for j in chunk])

    result = _train_loop(params, batches, n_batches, config, "span", on_step)
    result.dropped = dropped
    return result
