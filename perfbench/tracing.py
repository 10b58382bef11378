"""In-memory spans around the public functions of each ``kiqa`` module.

A ``Tracer`` replaces module attributes with timing wrappers and puts the
originals back on ``uninstall``. Each wrapper is installed in the namespace
where its caller looks the name up: ``evaluation`` and ``training`` import
``forward``, ``tokenize``, ``loss_and_grad``, ``pack_qa`` and ``render`` by
name, so those bindings are wrapped there as well as in the defining module.

A span is ``[name, start_ns, end_ns, parent_index, op_id, attrs]``. The op id
names the unit of work the span belongs to: one pipeline run, one optimizer
step or one eval batch (plus the prologue of each training phase or eval
pass). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter_ns

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self, first_op: str = "pass"):
        self.spans: list[list] = []
        self.op_kinds: list[str] = [first_op]  # op id -> kind
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def begin_op(self, kind: str) -> None:
        self.op_kinds.append(kind)

    def wrap(self, name: str, fn, attrs=None, op_kind: str | None = None):
        """``fn`` timed as span ``name``; ``attrs(args, kwargs, result)`` adds
        counts, and ``op_kind`` starts a new op before the span opens."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if op_kind is not None:
                self.begin_op(op_kind)
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else None, len(self.op_kinds) - 1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every ``TRACE_POINTS`` entry."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, attrs, op_kind in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, attrs, op_kind))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


# ------------------------------------------------------------ span arithmetic


def duration_s(span) -> float:
    return (span[END] - span[START]) / 1e9


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover, in seconds. Children are clipped to the parent's interval and
    overlapping children are counted once."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append((span[END] - span[START] - covered) / 1e9)
    return out


# ---------------------------------------------------------------- trace points


def _text_len(args, kwargs, result):
    return {"chars": len(args[0] if args else kwargs["text"])}


def _len_result(args, kwargs, result):
    return {"n": len(result)}


def _forward_attrs(args, kwargs, result):
    params, ids, _, mask = args[:4]
    cfg = params.config
    B, L = ids.shape
    return {"B": B, "L": L, "real": float(mask.sum()), "d": cfg.d_model, "ff": cfg.d_ff, "layers": cfg.n_layers}


def _loss_attrs(args, kwargs, result):
    params, batch, loss = args[:3]
    B, L = batch.input_ids.shape
    masked = len(batch.target_ids) if loss == "mlm" else 0
    cfg = params.config
    return {"B": B, "L": L, "loss": loss, "M": masked, "V": cfg.vocab_size, "d": cfg.d_model, "ff": cfg.d_ff,
            "layers": cfg.n_layers}


def _ckpt_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _phase_attrs(config_pos: int):
    def attrs(args, kwargs, result):
        config = args[config_pos] if len(args) > config_pos else kwargs["config"]
        return {"losses": [rec["loss"] for rec in result.history], "epochs": config.epochs}

    return attrs


TOKENIZER_SPANS = ("textmodel.tokenize", "textmodel.tokenize_with_offsets")

# (module where the name is looked up, attribute, span name, attrs, op kind)
TRACE_POINTS = (
    ("kiqa.synthlang", "gen_kb", "synthlang.gen_kb", None, None),
    ("kiqa.synthlang", "gen_qa", "synthlang.gen_qa", None, None),
    ("kiqa.kb", "load_kb", "kb.load_kb", None, None),
    ("kiqa.kb", "save_kb", "kb.save_kb", None, None),
    ("kiqa.assembler", "build_corpus", "assembler.build_corpus", _len_result, None),
    ("kiqa.assembler", "save_corpus", "assembler.save_corpus", None, None),
    ("kiqa.assembler", "load_corpus", "assembler.load_corpus", None, None),
    ("kiqa.textmodel", "tokenize_with_offsets", "textmodel.tokenize_with_offsets", _text_len, None),
    ("kiqa.textmodel", "tokenize", "textmodel.tokenize", _text_len, None),
    ("kiqa.evaluation", "tokenize", "textmodel.tokenize", _text_len, None),
    ("kiqa.training", "render", "textmodel.render", None, None),
    ("kiqa.training", "pack_qa", "textmodel.pack_qa", None, None),
    ("kiqa.evaluation", "pack_qa", "textmodel.pack_qa", None, None),
    ("kiqa.encoder", "forward", "encoder.forward", _forward_attrs, None),
    ("kiqa.evaluation", "forward", "encoder.forward", _forward_attrs, "eval-batch"),
    ("kiqa.training", "loss_and_grad", "encoder.loss_and_grad", _loss_attrs, None),
    ("kiqa.training", "init_params", "encoder.init_params", None, None),
    ("kiqa.encoder", "save_checkpoint", "encoder.save_checkpoint", _ckpt_bytes, None),
    ("kiqa.encoder", "load_checkpoint", "encoder.load_checkpoint", _ckpt_bytes, None),
    ("kiqa.cli", "save_checkpoint", "encoder.save_checkpoint", _ckpt_bytes, None),
    ("kiqa.cli", "load_checkpoint", "encoder.load_checkpoint", _ckpt_bytes, None),
    ("kiqa.training", "run_injection", "training.run_injection", _phase_attrs(2), "inject-prologue"),
    ("kiqa.training", "run_finetune", "training.run_finetune", _phase_attrs(3), "finetune-prologue"),
    ("kiqa.training", "prepare_qa_examples", "training.prepare_qa_examples", None, None),
    ("kiqa.training", "collate_mlm", "training.collate", None, "inject-step"),
    ("kiqa.training", "collate_qa", "training.collate", None, "finetune-step"),
    ("kiqa.training", "adamw_step", "training.adamw_step", None, None),
    ("kiqa.evaluation", "predict_spans", "evaluation.predict_spans", None, "eval-prologue"),
    ("kiqa.evaluation", "decode_span", "evaluation.decode_span", None, None),
    ("kiqa.evaluation", "score_examples", "evaluation.score_examples", None, None),
    ("kiqa.evaluation", "load_qa_dataset", "evaluation.load_qa_dataset", None, None),
    ("kiqa.cli", "main", "cli.main", None, "pipeline"),
)
