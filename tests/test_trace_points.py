"""The benchmark's tracer wraps kiqa functions by module and attribute name;
a rename or move that breaks one of those bindings should fail here, fast."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from kiqa import encoder, evaluation, textmodel, training

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_points_resolve_to_callables():
    tracing = _load_tracing()
    assert tracing.TRACE_POINTS
    for module_name, attr, *_ in tracing.TRACE_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_step_kernels_are_looked_up_by_module_name(monkeypatch):
    """Each layer rule of a training step stays a module-level function that
    its callers look up by name, so a tracer can wrap it like a TRACE_POINTS
    entry: replacing the module attribute must reach every call."""
    names = {
        encoder: ("_gelu", "_gelu_grad", "_layer_norm", "_layer_norm_backward", "_linear_backward",
                  "_softmax_last", "cross_entropy"),
        training: ("adamw_step",),
    }
    called = set()
    for module, attrs in names.items():
        for attr in attrs:
            original = getattr(module, attr)
            assert callable(original), f"{module.__name__}.{attr}"

            def counted(*args, _attr=attr, _original=original, **kwargs):
                called.add(_attr)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)

    cfg = encoder.ModelConfig(vocab_size=12, n_layers=1, n_heads=2, d_model=8, d_ff=8, max_len=8, dropout=0.0)
    batch = encoder.MLMBatch(
        input_ids=np.array([[5, 6, 7]]), segment_ids=np.zeros((1, 3), dtype=np.int64), attention_mask=np.ones((1, 3)),
        mask_rows=np.array([0]), mask_cols=np.array([1]), target_ids=np.array([6]),
    )
    config = training.TrainConfig(phase="inject", learning_rate=1e-3, batch_size=1, epochs=1)
    training._train_loop(encoder.init_params(cfg, 0), [batch], [3], lambda items: items[0], config, "mlm")
    assert called == {attr for attrs in names.values() for attr in attrs}


def test_blocked_eval_forward_records_one_call_per_batch(monkeypatch):
    """The benchmark counts ``encoder.forward`` spans, in ``kiqa.encoder`` and
    in ``kiqa.evaluation``, as eval batches and tokens: one span per batch,
    with at most ``batch_size`` rows and, unless it is one row, at most
    ``evaluation._BATCH_TOKENS`` padded tokens. A tracer records only its own
    process's spans: with one worker every batch, longest first; with two,
    the calling process's share, a longest-first part of the plan, while a
    forked child runs the rest."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    for module_name, attr, name, attrs, op_kind in tracing.TRACE_POINTS:
        if attr == "forward":
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs, op_kind))

    words = "alpha beta gamma delta epsilon zeta question"
    vocab = textmodel.build_vocab([words], max_size=32)
    cfg = encoder.ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=8, d_ff=8, max_len=300, dropout=0.0)
    # Packed rows of 10, 70 and 280 tokens: the row cap, the token budget and a row over the budget.
    contexts = [" ".join(words.split()[:6] * (n // 6)) for n in [6] * 5 + [66] * 4 + [276] * 2]
    examples = [evaluation.QAExample(str(i), "question", context, (("alpha", 0),), "en", "en")
                for i, context in enumerate(contexts)]
    params = encoder.init_params(cfg, 0)
    plan = [(4, 10), (3, 70), (2, 70), (1, 280), (1, 280)]
    for workers in (1, 2):
        tracer.spans.clear()
        evaluation.predict_spans(params, vocab, examples, max_answer_len=3, batch_size=4, workers=workers)
        forwards = [span[tracing.ATTRS] for span in tracer.spans if span[tracing.NAME] == "encoder.forward"]
        shapes = [(span["B"], span["L"]) for span in forwards]
        if workers == 1:
            assert shapes == plan[::-1]
        else:
            rest = iter(plan[::-1])
            assert all(shape in rest for shape in shapes)  # in run order, longest first
            assert 0 < len(shapes) < len(plan)
        for span in forwards:
            assert span["B"] <= 4
            assert span["B"] * span["L"] <= evaluation._BATCH_TOKENS or span["B"] == 1


def test_training_step_records_one_forward_span(monkeypatch):
    """The benchmark counts a training step's ``encoder.forward`` span from
    ``kiqa.encoder.forward``: ``loss_and_grad`` looks the training forward up
    there, once per step, with the batch's ids first."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    for module_name, attr, name, attrs, op_kind in tracing.TRACE_POINTS:
        if (module_name, attr) == ("kiqa.encoder", "forward"):
            monkeypatch.setattr(encoder, attr, tracer.wrap(name, getattr(encoder, attr), attrs, op_kind))

    cfg = encoder.ModelConfig(vocab_size=12, n_layers=2, n_heads=2, d_model=8, d_ff=8, max_len=8, dropout=0.1)
    batch = encoder.MLMBatch(
        input_ids=np.array([[5, 6, 7, 0], [8, 9, 10, 11]]), segment_ids=np.zeros((2, 4), dtype=np.int64),
        attention_mask=np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]]),
        mask_rows=np.array([0, 1]), mask_cols=np.array([1, 3]), target_ids=np.array([6, 11]),
    )
    config = training.TrainConfig(phase="inject", learning_rate=1e-3, batch_size=1, epochs=1)
    training._train_loop(encoder.init_params(cfg, 0), [batch], [4], lambda items: items[0], config, "mlm")
    forwards = [span for span in tracer.spans if span[tracing.NAME] == "encoder.forward"]
    assert len(forwards) == 1
    assert (forwards[0][tracing.ATTRS]["B"], forwards[0][tracing.ATTRS]["L"]) == (2, 4)
    assert forwards[0][tracing.ATTRS]["real"] == 7.0
