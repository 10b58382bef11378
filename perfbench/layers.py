"""Per-layer metrics computed from the spans of a traced run.

Each value is per run of the workload: the set-up's share (generation and
input I/O on ``train`` and ``eval``) plus the median over traced passes of
one pass's share. A pass is one ``kiqa pipeline`` run, one inject+finetune
training run, or one ``evaluate`` call. Ratios and step percentiles pool
every traced pass. A layer that a workload never calls reads 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import ATTRS, END, NAME, OP, PARENT, START, TOKENIZER_SPANS, duration_s, self_times

# name -> (unit, better); the order is the order of the printed report.
PER_LAYER: dict[str, tuple[str, str]] = {
    "synthlang.gen_s": ("s", "lower"),
    "kb.io_s": ("s", "lower"),
    "assembler.build_corpus_s": ("s", "lower"),
    "assembler.corpus_io_s": ("s", "lower"),
    "assembler.samples": ("count", "higher"),
    "textmodel.tokenize_s": ("s", "lower"),
    "textmodel.tokenize_calls": ("count", "lower"),
    "textmodel.chars": ("count", "lower"),
    "textmodel.pack_qa_s": ("s", "lower"),
    "textmodel.render_s": ("s", "lower"),
    "encoder.forward_s": ("s", "lower"),
    "encoder.forward_calls": ("count", "lower"),
    "encoder.tokens": ("count", "lower"),
    "encoder.pad_frac": ("fraction", "lower"),
    "encoder.loss_and_grad_self_s": ("s", "lower"),
    "encoder.matmul_gflop": ("GFLOP-computed", "lower"),
    "encoder.gflop_per_s": ("GFLOP/s", "higher"),
    "encoder.checkpoint_io_s": ("s", "lower"),
    "encoder.checkpoint_bytes": ("bytes", "lower"),
    "training.adamw_step_s": ("s", "lower"),
    "training.steps": ("count", "lower"),
    "training.collate_s": ("s", "lower"),
    "training.prepare_qa_s": ("s", "lower"),
    "training.loop_self_s": ("s", "lower"),
    "training.inject_step_ms_p50": ("ms", "lower"),
    "training.inject_step_ms_p99": ("ms", "lower"),
    "training.inject_step_n": ("count", "higher"),
    "training.finetune_step_ms_p50": ("ms", "lower"),
    "training.finetune_step_ms_p99": ("ms", "lower"),
    "training.finetune_step_n": ("count", "higher"),
    "training.inject_loss": ("nats", "lower"),
    "training.finetune_loss": ("nats", "lower"),
    "evaluation.predict_self_s": ("s", "lower"),
    "evaluation.decode_span_s": ("s", "lower"),
    "evaluation.decode_calls": ("count", "lower"),
    "evaluation.score_s": ("s", "lower"),
    "evaluation.load_qa_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

# span name -> additive total it feeds, by inclusive duration
_INCLUSIVE = {
    "synthlang.gen_kb": "synthlang.gen_s",
    "synthlang.gen_qa": "synthlang.gen_s",
    "kb.load_kb": "kb.io_s",
    "kb.save_kb": "kb.io_s",
    "assembler.build_corpus": "assembler.build_corpus_s",
    "assembler.save_corpus": "assembler.corpus_io_s",
    "assembler.load_corpus": "assembler.corpus_io_s",
    "textmodel.render": "textmodel.render_s",
    "encoder.forward": "encoder.forward_s",
    "encoder.save_checkpoint": "encoder.checkpoint_io_s",
    "encoder.load_checkpoint": "encoder.checkpoint_io_s",
    "training.adamw_step": "training.adamw_step_s",
    "training.collate": "training.collate_s",
    "training.prepare_qa_examples": "training.prepare_qa_s",
    "evaluation.decode_span": "evaluation.decode_span_s",
    "evaluation.score_examples": "evaluation.score_s",
    "evaluation.load_qa_dataset": "evaluation.load_qa_s",
}

# span name -> additive total it feeds, by self time
_SELF = {
    "textmodel.pack_qa": "textmodel.pack_qa_s",
    "encoder.loss_and_grad": "encoder.loss_and_grad_self_s",
    "training.run_injection": "training.loop_self_s",
    "training.run_finetune": "training.loop_self_s",
    "evaluation.predict_spans": "evaluation.predict_self_s",
    "cli.main": "cli.self_s",
}

# span name -> additive count, one per call
_CALLS = {
    "encoder.forward": "encoder.forward_calls",
    "training.adamw_step": "training.steps",
    "evaluation.decode_span": "evaluation.decode_calls",
}


def forward_flop(B: int, L: int, d: int, ff: int, layers: int) -> float:
    """Matmul flops of one encoder forward pass: Q/K/V/O projections, scores,
    probs @ V and the two feed-forward layers, 2 flops per multiply-add."""
    return 2.0 * B * L * layers * (4 * d * d + 2 * L * d + 2 * d * ff)


def loss_head_and_backward_flop(a: dict) -> float:
    """Backward through the encoder (twice the forward: input and weight
    gradients) plus the loss head forward and backward."""
    backward = 2.0 * forward_flop(a["B"], a["L"], a["d"], a["ff"], a["layers"])
    if a["loss"] == "mlm":
        head = 3 * 2.0 * a["M"] * a["d"] * a["V"]
    else:
        head = 3 * 2.0 * 2 * a["B"] * a["L"] * a["d"]
    return backward + head


def _final_epoch_mean(losses: list[float], epochs: int) -> float:
    per_epoch = len(losses) // epochs
    return statistics.fmean(losses[-per_epoch:])


def totals(spans, op_kinds) -> dict:
    """Additive per-layer totals of one set-up or one pass, plus the pooled
    material (step times, token counts, flops) that ratios need."""
    out: dict = defaultdict(float)
    out["step_ms"] = {"inject-step": [], "finetune-step": []}
    step_bounds: dict[int, list] = {}
    for span, self_s in zip(spans, self_times(spans)):
        name, attrs = span[NAME], span[ATTRS]
        if name in _INCLUSIVE:
            out[_INCLUSIVE[name]] += duration_s(span)
        if name in _SELF:
            out[_SELF[name]] += self_s
        if name in _CALLS:
            out[_CALLS[name]] += 1
        parent = spans[span[PARENT]][NAME] if span[PARENT] is not None else None
        if name in TOKENIZER_SPANS and parent not in TOKENIZER_SPANS:
            out["textmodel.tokenize_s"] += duration_s(span)
            out["textmodel.tokenize_calls"] += 1
            out["textmodel.chars"] += attrs["chars"]
        elif name == "assembler.build_corpus":
            out["assembler.samples"] += attrs["n"]
        elif name == "encoder.forward":
            out["encoder.tokens"] += attrs["B"] * attrs["L"]
            out["real_tokens"] += attrs["real"]
            out["flop"] += forward_flop(attrs["B"], attrs["L"], attrs["d"], attrs["ff"], attrs["layers"])
        elif name == "encoder.loss_and_grad":
            out["flop"] += loss_head_and_backward_flop(attrs)
        elif name in ("encoder.save_checkpoint", "encoder.load_checkpoint"):
            out["encoder.checkpoint_bytes"] += attrs["bytes"]
        elif name == "training.run_injection":
            out["training.inject_loss"] = _final_epoch_mean(attrs["losses"], attrs["epochs"])
        elif name == "training.run_finetune":
            out["training.finetune_loss"] = _final_epoch_mean(attrs["losses"], attrs["epochs"])
        # A step runs from its batch's collate to the end of its AdamW update.
        if op_kinds[span[OP]] in out["step_ms"]:
            if name == "training.collate":
                step_bounds[span[OP]] = [span[START], None]
            elif name == "training.adamw_step" and span[OP] in step_bounds:
                step_bounds[span[OP]][1] = span[END]
    for op, (start, end) in step_bounds.items():
        if end is not None:
            out["step_ms"][op_kinds[op]].append((end - start) / 1e6)
    return out


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def per_layer(setup: dict, passes: list[dict], overhead_frac: float, bytes_written: float) -> dict[str, float]:
    """Combine the set-up totals and each traced pass's totals into the
    ``PER_LAYER`` values."""
    if not passes:
        raise ValueError("no traced pass")
    values: dict[str, float] = {}
    for name in PER_LAYER:
        values[name] = setup.get(name, 0.0) + statistics.median(p.get(name, 0.0) for p in passes)
    pooled = [setup, *passes]
    tokens = sum(p["encoder.tokens"] for p in pooled)
    real = sum(p["real_tokens"] for p in pooled)
    values["encoder.pad_frac"] = 1.0 - real / tokens if tokens else 0.0
    busy = sum(p["encoder.forward_s"] + p["encoder.loss_and_grad_self_s"] for p in passes)
    flop = sum(p["flop"] for p in passes)
    values["encoder.matmul_gflop"] = statistics.median(p["flop"] for p in passes) / 1e9
    values["encoder.gflop_per_s"] = flop / 1e9 / busy if busy else 0.0
    for phase in ("inject", "finetune"):
        steps = [ms for p in passes for ms in p["step_ms"][f"{phase}-step"]]
        values[f"training.{phase}_step_ms_p50"] = _pct(steps, 50)
        values[f"training.{phase}_step_ms_p99"] = _pct(steps, 99)
        values[f"training.{phase}_step_n"] = float(len(steps))
    values["cli.bytes_written"] = bytes_written
    values["trace.overhead_frac"] = overhead_frac
    return values
