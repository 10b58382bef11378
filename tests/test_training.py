import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa import encoder, training
from kiqa.assembler import build_corpus
from kiqa.encoder import EncoderParams, Helper, ModelConfig, Workspace, cross_entropy, init_params, param_views
from kiqa.errors import ConfigError, NonFiniteError
from kiqa.evaluation import QAExample
from kiqa.synthlang import SynthSpec, gen_kb
from kiqa.textmodel import build_vocab, pack_qa, render
from kiqa.training import (
    AdamWState,
    TrainConfig,
    adamw_step,
    collate_mlm,
    collate_qa,
    locate_answer_span,
    lr_at,
    prepare_qa_examples,
    run_finetune,
    run_injection,
)

from conftest import ce_oracle, zeroed_grads


# ---------------------------------------------------------------- the losses
# Both phases train on encoder.cross_entropy; loss_and_grad's reductions are
# pinned in tests/test_encoder.py.


def test_mlm_loss_uniform():
    nll, _ = cross_entropy(np.zeros((1, 4)), [2], Workspace(), "ce")
    assert nll[0] == pytest.approx(math.log(4), abs=1e-12)


def test_mlm_loss_hand_value():
    logits = np.array([[2.0, 0.0, 0.0, 0.0]])
    want = math.log(1 + 3 * math.exp(-2))  # = 0.34075...
    nll, _ = cross_entropy(logits, [0], Workspace(), "ce")
    assert nll[0] == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(0.3408, abs=1e-4)


def test_loss_oracle_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = rng.integers(1, 6)
        v = rng.integers(2, 12)
        logits = rng.normal(scale=3.0, size=(n, v))
        targets = rng.integers(0, v, size=n)
        nll, grad = cross_entropy(logits, targets, Workspace(), "ce")
        for i in range(n):
            assert abs(nll[i] - ce_oracle(logits[i], targets[i])) <= 1e-10
        assert np.abs(grad.sum(-1)).max() <= 1e-12  # softmax minus one-hot


def test_span_loss_uniform():
    logits = np.full((2, 8), -np.inf)
    logits[:, 2:7] = 0.0  # 5 valid positions
    nll, grad = cross_entropy(logits, [3, 4], Workspace(), "ce")
    np.testing.assert_allclose(nll, math.log(5), atol=1e-12)
    assert (grad[:, :2] == 0.0).all() and (grad[:, 7:] == 0.0).all()


def test_span_loss_restricted_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        L = rng.integers(3, 12)
        valid = np.zeros(L, dtype=bool)
        ctx = sorted(rng.choice(L, size=rng.integers(2, L + 1), replace=False))
        valid[ctx] = True
        start = rng.normal(scale=2.0, size=L)
        end = rng.normal(scale=2.0, size=L)
        gs, ge = rng.choice(ctx), rng.choice(ctx)
        nll, grad = cross_entropy(np.where(valid, np.stack([start, end]), -np.inf), [gs, ge], Workspace(), "ce")
        assert abs(nll[0] - ce_oracle([start[p] for p in ctx], ctx.index(gs))) <= 1e-10
        assert abs(nll[1] - ce_oracle([end[p] for p in ctx], ctx.index(ge))) <= 1e-10
        assert (grad[:, ~valid] == 0.0).all()


# ------------------------------------------------------------------ schedule


def test_lr_at_hand_values():
    assert lr_at(3, 100, 2e-5, 0.06) == pytest.approx(1e-5, abs=1e-18)
    assert lr_at(6, 100, 2e-5, 0.06) == pytest.approx(2e-5, abs=1e-18)
    assert lr_at(100, 100, 2e-5, 0.06) == pytest.approx(2e-5, abs=1e-18)


def test_lr_at_zero_step():
    assert lr_at(0, 100, 2e-5, 0.06) == 0.0


def test_lr_at_tiny_warmup_floor():
    # warmup window never rounds below one step
    assert lr_at(1, 10, 1e-3, 0.001) == 1e-3


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=1e-6, max_value=1.0),
)
def test_lr_at_monotone_and_continuous(total, frac, peak):
    values = [lr_at(s, total, peak, frac) for s in range(total + 1)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == peak
    warm = max(1, round(frac * total))
    if warm <= total:
        assert lr_at(warm, total, peak, frac) == peak  # continuous at the boundary


# --------------------------------------------------------------------- AdamW


def _scalar_params(value=0.0):
    cfg = ModelConfig(vocab_size=16, n_layers=1, n_heads=1, d_model=1, d_ff=1, max_len=2, dropout=0.0)
    params = init_params(cfg, seed=0)
    for t in params.tensors.values():
        t[...] = value
    return params


def _grad_buffer(params, fill=0.0):
    """A gradient buffer laid out as params.flat, and its views by name."""
    grad = np.full_like(params.flat, fill)
    return grad, param_views(params.config, grad)


def test_adamw_first_step_hand_value():
    params = _scalar_params(0.0)
    grad, grads = _grad_buffer(params)
    grads["qa_bs"][...] = 1.0
    state = AdamWState.zeros_like(params)
    adamw_step(params, grad, state, lr=0.1, weight_decay=0.0)
    # t=1: m_hat = g, v_hat = g^2, step = -lr * g / (|g| + eps)
    want = -0.1 * (1.0 / (1.0 + 1e-8))
    assert float(params.tensors["qa_bs"]) == pytest.approx(want, abs=1e-12)
    assert float(params.tensors["qa_be"]) == 0.0


def test_adamw_decay_only():
    params = _scalar_params(1.0)
    grad, _ = _grad_buffer(params)
    state = AdamWState.zeros_like(params)
    adamw_step(params, grad, state, lr=0.1, weight_decay=0.01)
    for name, tensor in params.tensors.items():
        np.testing.assert_allclose(tensor, 1.0 - 0.001, rtol=0, atol=1e-12)


def test_adamw_zero_lr_is_identity():
    params = _scalar_params(0.5)
    grad, _ = _grad_buffer(params, 0.3)
    state = AdamWState.zeros_like(params)
    adamw_step(params, grad, state, lr=0.0, weight_decay=0.01)
    for tensor in params.tensors.values():
        np.testing.assert_array_equal(tensor, 0.5)
    # moments still accumulate
    assert float(param_views(params.config, state.m)["qa_bs"]) == pytest.approx(0.03)


def test_adamw_zero_grad_moments_decay():
    params = _scalar_params(0.0)
    grad, _ = _grad_buffer(params)
    state = AdamWState.zeros_like(params)
    m = param_views(params.config, state.m)
    m["qa_bs"][...] = 1.0
    adamw_step(params, grad, state, lr=0.1, weight_decay=0.0)
    assert float(m["qa_bs"]) == pytest.approx(0.9)
    adamw_step(params, grad, state, lr=0.1, weight_decay=0.0)
    assert float(m["qa_bs"]) == pytest.approx(0.81)


def adamw_oracle(p, g, m, v, t, lr, b1, b2, eps, weight_decay):
    """The plain AdamW expressions that adamw_step forms in place."""
    m = m * b1
    m = m + (1.0 - b1) * g
    v = v * b2
    v = v + (1.0 - b2) * g * g
    mhat = m / (1.0 - b1**t)
    vhat = v / (1.0 - b2**t)
    return p - lr * (mhat / (np.sqrt(vhat) + eps) + weight_decay * p), m, v


def test_adamw_matches_plain_expressions_bitwise():
    """Every tensor, the 0-d span-head biases included, over several steps with
    gradients of |g| >= 40 and signed zeros; grads is left as it was."""
    cfg = ModelConfig(vocab_size=16, n_layers=1, n_heads=2, d_model=8, d_ff=16, max_len=8, dropout=0.0)
    params = init_params(cfg, seed=0)
    assert params.tensors["qa_bs"].ndim == 0 and params.tensors["qa_be"].ndim == 0
    rng = np.random.default_rng(4)
    for tensor in params.tensors.values():
        tensor[...] = rng.normal(size=tensor.shape)
    params.tensors["l0.b1"][:3] = -0.0
    state = AdamWState.zeros_like(params)
    moments = param_views(cfg, state.m), param_views(cfg, state.v)
    want = {k: (p.copy(), moments[0][k].copy(), moments[1][k].copy()) for k, p in params.tensors.items()}
    for t, (lr, wd) in enumerate([(1e-2, 0.01), (3e-3, 0.0), (0.0, 0.1), (1e-3, 0.01)], start=1):
        grad, grads = _grad_buffer(params)
        for name, g in grads.items():
            g[...] = rng.normal(scale=5.0, size=g.shape)
        grads["tok_emb"][0, :4] = [40.0, -55.0, -0.0, 0.0]
        grads["l0.w1"][:] = -0.0
        grads["qa_be"][...] = -60.0
        before = {k: g.copy() for k, g in grads.items()}
        adamw_step(params, grad, state, lr, weight_decay=wd)
        for name, g in grads.items():
            p0, m0, v0 = want[name]
            want[name] = adamw_oracle(p0, g, m0, v0, t, lr, 0.9, 0.999, 1e-8, wd)
            for got, expected in zip((params.tensors[name], moments[0][name], moments[1][name]), want[name]):
                assert np.array_equal(got, expected), name
                assert np.array_equal(np.signbit(got), np.signbit(expected)), name
            assert np.array_equal(g, before[name]) and np.array_equal(np.signbit(g), np.signbit(before[name]))


def test_adamw_non_finite_grad():
    params = _scalar_params(0.0)
    grad, grads = _grad_buffer(params)
    grads["qa_bs"][...] = float("nan")
    with pytest.raises(NonFiniteError):
        adamw_step(params, grad, AdamWState.zeros_like(params), lr=0.1)


def test_adamw_non_finite_last_grad_writes_nothing():
    """A NaN in the last tensor raises before any tensor or moment changes,
    on one thread and with the helper that updates the upper half."""
    cfg = ModelConfig(vocab_size=16, n_layers=1, n_heads=2, d_model=8, d_ff=16, max_len=8, dropout=0.0)
    with Helper() as helper:
        for state_helper in (None, helper):
            params = init_params(cfg, seed=0)
            rng = np.random.default_rng(3)
            state = AdamWState.zeros_like(params, state_helper)
            adamw_step(params, rng.normal(size=params.flat.shape), state, lr=1e-2)
            before = params.copy().tensors, param_views(cfg, state.m.copy()), param_views(cfg, state.v.copy())
            grad, grads = _grad_buffer(params)
            grad[...] = rng.normal(size=grad.shape)
            last = list(params.tensors)[-1]
            grads[last][...] = float("nan")
            with pytest.raises(NonFiniteError, match=last):
                adamw_step(params, grad, state, lr=1e-2)
            assert state.step == 1
            for got, want in zip((params.tensors, param_views(cfg, state.m), param_views(cfg, state.v)), before):
                for name in want:
                    assert np.array_equal(got[name], want[name]), name


# -------------------------------------------------------------- train config


def test_train_config_validation():
    TrainConfig(phase="inject", learning_rate=1e-3, batch_size=2, epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig(phase="pretrain", learning_rate=1e-3, batch_size=2, epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig(phase="inject", learning_rate=0.0, batch_size=2, epochs=1)
    for bad_lr in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            TrainConfig(phase="inject", learning_rate=bad_lr, batch_size=2, epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig(phase="inject", learning_rate=1e-3, batch_size=0, epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig(phase="inject", learning_rate=1e-3, batch_size=1, epochs=1, warmup_fraction=1.0)
    TrainConfig(phase="inject", learning_rate=1e-3, batch_size=1, epochs=1, weight_decay=0.0, max_grad_norm=0.5)
    # A negative clip norm would flip every update's sign; a negative decay grows the weights.
    for bad in ({"max_grad_norm": -1.0}, {"max_grad_norm": 0.0}, {"max_grad_norm": float("nan")},
                {"weight_decay": -0.1}, {"weight_decay": float("nan")}, {"weight_decay": float("inf")}):
        with pytest.raises(ConfigError):
            TrainConfig(phase="inject", learning_rate=1e-3, batch_size=1, epochs=1, **bad)


# -------------------------------------------------------------- span mapping


def _mini_vocab():
    return build_vocab(["who kevin durant plays basketball"], max_size=32)


def test_locate_answer_span_hand_case():
    vocab = _mini_vocab()
    context = "kevin durant plays"
    qa_input = pack_qa("who", context, vocab, max_len=16)
    span = locate_answer_span(qa_input, context, "durant", context.index("durant"))
    assert span == (1, 1)


def test_locate_answer_span_multi_token():
    vocab = _mini_vocab()
    context = "kevin durant plays basketball"
    qa_input = pack_qa("who", context, vocab, max_len=16)
    span = locate_answer_span(qa_input, context, "durant plays", context.index("durant"))
    assert span == (1, 2)


def test_locate_answer_span_mismatch_returns_none():
    vocab = _mini_vocab()
    context = "kevin durant plays"
    qa_input = pack_qa("who", context, vocab, max_len=16)
    assert locate_answer_span(qa_input, context, "basketball", 0) is None


def test_locate_answer_span_truncated_returns_none():
    vocab = _mini_vocab()
    context = "kevin durant plays basketball"
    qa_input = pack_qa("who", context, vocab, max_len=7)  # room for 3 context tokens
    assert locate_answer_span(qa_input, context, "basketball", context.index("basketball")) is None


def test_prepare_qa_examples_drops_and_counts():
    vocab = _mini_vocab()
    good = QAExample("a", "who", "kevin durant plays", (("durant", 6),), "en", "en")
    bad = QAExample("b", "who", "kevin durant plays", (("nomatch", 0),), "en", "en")
    prepared, dropped = prepare_qa_examples([good, bad], vocab, max_len=16)
    assert len(prepared) == 1 and dropped == 1
    assert (prepared[0].gold_start, prepared[0].gold_end) == (1, 1)


def test_collate_qa_marks_the_context_window_and_gold_positions():
    """Rows with questions of different lengths: each row's valid positions are
    exactly its context tokens, and its gold positions hold the answer's tokens."""
    vocab = _mini_vocab()
    examples = [
        QAExample("a", "who", "kevin durant plays basketball", (("plays basketball", 13),), "en", "en"),
        QAExample("b", "who who plays", "durant plays", (("durant", 0),), "en", "en"),
    ]
    prepared, dropped = prepare_qa_examples(examples, vocab, max_len=16)
    assert dropped == 0
    batch = collate_qa(prepared)
    assert batch.valid_mask.tolist() == [
        [False, False, False, True, True, True, True, False],
        [False, False, False, False, False, True, True, False],
    ]
    ids = batch.input_ids
    assert [ids[0, batch.start_gold[0]], ids[0, batch.end_gold[0]]] == [vocab.id("plays"), vocab.id("basketball")]
    assert ids[1, batch.start_gold[1]] == ids[1, batch.end_gold[1]] == vocab.id("durant")


# ------------------------------------------------------------- training runs


def _tiny_world():
    spec = SynthSpec(
        n_entities=12, n_relations=3, n_triples=25, languages=("syn0", "syn1"),
        n_qa_per_lang_pair=4, n_qa_train=16, seed=3,
    )
    kb = gen_kb(spec)
    texts = [f for e in kb.entities.values() for f in e.forms.values()]
    texts += [f for r in kb.relations.values() for f in r.forms.values()]
    vocab = build_vocab(texts, max_size=256)
    return spec, kb, vocab


def _memorization_kb():
    """25 triples with unique (head, rel) and (rel, tail) pairs, so the
    completion task has zero irreducible entropy."""
    from kiqa.kb import Entity, Relation, Triple, build_kb

    names = ["ta", "bo", "ki", "ru", "me", "sa", "lo", "vi", "pa", "ne", "du", "fo",
             "ga", "hi", "ju", "ka", "li", "mo", "nu", "pe", "qa", "ri", "su", "ti", "wa"]
    entities = {f"E{i}": Entity(f"E{i}", {"syn0": names[i]}) for i in range(25)}
    relations = {f"R{i}": Relation(f"R{i}", {"syn0": f"rel{i}"}) for i in range(3)}
    triples = [Triple(f"E{i}", f"R{i % 3}", f"E{(i + 7) % 25}") for i in range(25)]
    kb = build_kb(entities, relations, triples)
    vocab = build_vocab(names + [f"rel{i}" for i in range(3)], 64)
    return kb, vocab


def test_injection_memorizes_small_corpus():
    """Capacity smoke test: the default-size model drives entity-completion
    loss below 0.1 on a 50-sample corpus within 500 steps."""
    kb, vocab = _memorization_kb()
    corpus = build_corpus(kb, {"syn0"}, 25, (1, 0, 0), seed=1)  # 50 samples
    config = TrainConfig(phase="inject", learning_rate=3e-3, batch_size=50, epochs=500, seed=0)
    model_config = ModelConfig(vocab_size=len(vocab), max_len=16, dropout=0.0)
    result = run_injection(corpus, vocab, config, model_config, render_max_len=16)
    assert result.history[-1]["loss"] < 0.1
    assert len(result.history) == 500


def test_injection_deterministic():
    spec, kb, vocab = _tiny_world()
    corpus = build_corpus(kb, {"syn0", "syn1"}, 10, (1, 1, 1), seed=2)
    config = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=8, epochs=2, seed=5)
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=16, d_ff=32, max_len=32, dropout=0.1)
    a = run_injection(corpus, vocab, config, model_config, render_max_len=32)
    b = run_injection(corpus, vocab, config, model_config, render_max_len=32)
    for name in a.params.tensors:
        np.testing.assert_array_equal(a.params.tensors[name], b.params.tensors[name])
    assert a.history == b.history


def _record_injection_batches(monkeypatch, corpus, vocab, config, model_config):
    """Run injection with collate_mlm wrapped; return the result and, per
    step, the samples and the collated batch's (B, L)."""
    steps = []

    def recording(samples):
        batch = collate_mlm(samples)
        steps.append((list(samples), batch.input_ids.shape))
        return batch

    monkeypatch.setattr(training, "collate_mlm", recording)
    return run_injection(corpus, vocab, config, model_config, render_max_len=32), steps


def test_injection_batches_are_length_buckets_in_seeded_order(monkeypatch):
    """Each epoch cuts a length-sorted order into batch_size chunks and
    visits them in a seeded shuffled order: every item once per epoch,
    ceil(n/B) steps per epoch, disjoint length ranges visited out of length
    order, the same sequence on a rerun, a different one in the next epoch."""
    _, kb, vocab = _tiny_world()
    corpus = build_corpus(kb, {"syn0", "syn1"}, 20, (1, 1, 1), seed=2)
    assert {s.kind.value for s in corpus} == {"K1", "K2_HEAD_SWAP", "K2_TAIL_SWAP", "K3"}
    config = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=5, epochs=2, seed=5)
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=16, d_ff=32, max_len=32, dropout=0.0)
    result, steps = _record_injection_batches(monkeypatch, corpus, vocab, config, model_config)
    n = len(corpus) - result.dropped
    per_epoch = math.ceil(n / config.batch_size)
    assert len(steps) == len(result.history) == config.epochs * per_epoch

    epochs = [steps[e * per_epoch:(e + 1) * per_epoch] for e in range(config.epochs)]
    first_items = {id(s) for samples, _ in epochs[0] for s in samples}
    assert len({len(s.input_ids) for samples, _ in epochs[0] for s in samples}) >= 3  # lengths to bucket
    mins = []
    for epoch in epochs:
        ids = [id(s) for samples, _ in epoch for s in samples]
        assert len(ids) == len(set(ids)) == n and set(ids) == first_items
        sizes = sorted(len(samples) for samples, _ in epoch)
        assert sizes[0] == n - config.batch_size * (per_epoch - 1) and sizes[1:] == [config.batch_size] * (per_epoch - 1)
        spans = [(min(len(s.input_ids) for s in samples), max(len(s.input_ids) for s in samples))
                 for samples, _ in epoch]
        ranges = sorted(spans)
        assert all(hi <= lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))  # touch at most at an endpoint
        assert [shape for _, shape in epoch] == [(len(samples), hi) for (samples, _), (_, hi) in zip(epoch, spans)]
        mins.append([lo for lo, _ in spans])
    assert any(m != sorted(m) for m in mins)  # the chunk order is shuffled, not ascending

    def sequence(recorded):
        return [[(tuple(s.input_ids), tuple(s.target_ids)) for s in samples] for samples, _ in recorded]

    _, again = _record_injection_batches(monkeypatch, corpus, vocab, config, model_config)
    assert sequence(again) == sequence(steps)
    assert sequence(epochs[0]) != sequence(epochs[1])

    # Each step logs the B x L positions its collated batch holds.
    for e, epoch in enumerate(epochs):
        records = result.history[e * per_epoch:(e + 1) * per_epoch]
        assert [rec["tokens"] for rec in records] == [B * L for _, (B, L) in epoch]
        assert sum(rec["tokens"] for rec in records) == sum(B * L for _, (B, L) in epoch)


def test_injection_empty_corpus():
    _, _, vocab = _tiny_world()
    config = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=4, epochs=1)
    with pytest.raises(ConfigError):
        run_injection([], vocab, config, ModelConfig(vocab_size=len(vocab)))


def test_injection_counts_overflow_skips():
    spec, kb, vocab = _tiny_world()
    corpus = build_corpus(kb, {"syn0"}, 10, (1, 0, 0), seed=4)
    # Cap one token below the longest sample, so at least that sample overflows.
    lengths = [len(render(s, vocab, max_len=10**6).input_ids) for s in corpus]
    cap = max(lengths) - 1
    config = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=4, epochs=1, seed=1)
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=16, d_ff=32, max_len=16, dropout=0.0)
    assert cap < model_config.max_len  # run_injection caps at the smaller of the two
    result = run_injection(corpus, vocab, config, model_config, render_max_len=cap)
    assert result.dropped == sum(n > cap for n in lengths)
    assert result.dropped > 0


def test_finetune_beats_uniform_floor():
    """Training on synthetic QA drives span loss below the uniform-logits
    ln(context length) baseline."""
    from kiqa.evaluation import load_qa_dataset
    from kiqa.synthlang import gen_qa
    import json

    spec, kb, vocab = _tiny_world()
    train, _ = gen_qa(spec, kb)
    examples = []
    for article in train["data"]:
        for para in article["paragraphs"]:
            for qa in para["qas"]:
                examples.append(
                    QAExample(qa["id"], qa["question"], para["context"],
                              tuple((a["text"], a["answer_start"]) for a in qa["answers"]),
                              qa["context_lang"], qa["question_lang"])
                )
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=32, d_ff=64, max_len=64, dropout=0.0)
    params = init_params(model_config, seed=0)
    config = TrainConfig(phase="finetune", learning_rate=3e-3, batch_size=16, epochs=30, seed=1)
    result = run_finetune(params, examples, vocab, config)
    n_ctx_tokens = len(pack_qa(examples[0].question, examples[0].context, vocab, 64).context_offsets)
    assert result.history[-1]["loss"] < math.log(n_ctx_tokens)
    assert result.dropped == 0


# ------------------------------------------------------- persistent memory


def test_adamw_chunks_match_one_pass_bitwise(monkeypatch):
    """Chunk boundaries inside tensors change nothing: AdamW is elementwise."""
    cfg = ModelConfig(vocab_size=16, n_layers=1, n_heads=2, d_model=8, d_ff=16, max_len=8, dropout=0.0)
    rng = np.random.default_rng(8)
    grads = [rng.normal(scale=3.0, size=init_params(cfg, 0).flat.shape) for _ in range(3)]
    results = []
    for chunk in (7, training._ADAM_CHUNK):
        monkeypatch.setattr(training, "_ADAM_CHUNK", chunk)
        params = init_params(cfg, seed=1)
        state = AdamWState.zeros_like(params)
        for grad in grads:
            adamw_step(params, grad, state, lr=1e-2, weight_decay=0.01)
        results.append((params.flat, state.m, state.v))
    for got, want in zip(*results):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("chunk", [7, training._ADAM_CHUNK])
def test_adamw_split_with_a_helper_matches_one_thread_bitwise(monkeypatch, chunk):
    """The helper's upper half, in its own scratch rows, and this thread's
    lower half give the parameters and moments of one thread, sign of zero
    included; with 7-element chunks each half ends in a partial chunk."""
    monkeypatch.setattr(training, "_ADAM_CHUNK", chunk)
    cfg = ModelConfig(vocab_size=16, n_layers=1, n_heads=2, d_model=8, d_ff=16, max_len=8, dropout=0.0)
    rng = np.random.default_rng(8)
    grads = [rng.normal(scale=3.0, size=init_params(cfg, 0).flat.shape) for _ in range(3)]
    grads[1][::5] = -0.0
    results = []
    with Helper() as helper:
        for state_helper in (None, helper):
            params = init_params(cfg, seed=1)
            state = AdamWState.zeros_like(params, state_helper)
            assert state.scratch.shape[0] == (1 if state_helper is None else 2)
            for grad in grads:
                adamw_step(params, grad, state, lr=1e-2, weight_decay=0.01)
            results.append((params.flat, state.m, state.v))
    for got, want in zip(*results):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _tiny_qa_examples(spec, kb):
    from kiqa.synthlang import gen_qa

    train, _ = gen_qa(spec, kb)
    return [
        QAExample(qa["id"], qa["question"], para["context"],
                  tuple((a["text"], a["answer_start"]) for a in qa["answers"]), qa["context_lang"], qa["question_lang"])
        for article in train["data"] for para in article["paragraphs"] for qa in para["qas"]
    ]


def _record_steps(monkeypatch):
    """Wrap adamw_step; each call appends a copy of the gradient it is given
    and the live objects of that step: (grad copy, params, grad, state)."""
    calls = []

    def recording(params, grad, state, lr, weight_decay=0.01):
        calls.append((grad.copy(), params, grad, state))
        return adamw_step(params, grad, state, lr, weight_decay=weight_decay)

    monkeypatch.setattr(training, "adamw_step", recording)
    return calls


def _per_tensor_norm(params, grad):
    return math.sqrt(sum(float((g * g).sum()) for g in param_views(params.config, grad).values()))


@pytest.mark.parametrize("max_grad_norm", [None, 2.2])  # norms here run 2.05-2.87
def test_step_records_carry_the_global_grad_norm(monkeypatch, max_grad_norm):
    """Each step's gradient buffer holds exactly the gradient that a fresh
    loss_and_grad gives for that batch and dropout draw (so it was zeroed,
    and no workspace array leaked between steps), and the record's grad_norm
    is its L2 norm before clipping. With clipping, AdamW gets a gradient of
    norm at most max_grad_norm; an unclipped step's gradient is untouched."""
    import copy

    spec, kb, vocab = _tiny_world()
    corpus = build_corpus(kb, {"syn0", "syn1"}, 10, (1, 1, 1), seed=2)
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=16, d_ff=32, max_len=32, dropout=0.1)
    config = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=8, epochs=2, seed=5, max_grad_norm=max_grad_norm)
    fresh = []
    original = training.loss_and_grad

    def recording(params, batch, loss, dropout_rng=None, *, grads, workspace):
        _, want = original(params, batch, loss, dropout_rng=copy.deepcopy(dropout_rng), grads=zeroed_grads(params),
                           workspace=Workspace())
        fresh.append(np.concatenate([want[name].ravel() for name in params.tensors]))  # layout order
        return original(params, batch, loss, dropout_rng=dropout_rng, grads=grads, workspace=workspace)

    monkeypatch.setattr(training, "loss_and_grad", recording)
    calls = _record_steps(monkeypatch)
    result = run_injection(corpus, vocab, config, model_config, render_max_len=32)
    assert len(calls) == len(fresh) == len(result.history) > 1
    clipped = 0
    for rec, want, (grad, params, *_) in zip(result.history, fresh, calls):
        assert rec["grad_norm"] == pytest.approx(_per_tensor_norm(params, want), rel=1e-12, abs=0.0)
        if max_grad_norm is None or rec["grad_norm"] <= max_grad_norm:
            assert np.array_equal(grad, want)
        else:
            clipped += 1
            got = _per_tensor_norm(params, grad)
            assert got <= max_grad_norm * (1.0 + 1e-12)
            assert got == pytest.approx(max_grad_norm, rel=1e-12, abs=0.0)
    assert clipped == 0 if max_grad_norm is None else 0 < clipped < len(calls)


def test_training_keeps_every_tensor_a_view_of_its_buffer(monkeypatch, tmp_path):
    """After several steps of both losses, with dropout, every parameter and
    gradient (the 0-d span-head biases included) still views its flat buffer,
    the gradient and moment buffers are the ones the run started with, and a
    checkpoint body is the parameter buffer's bytes."""
    from kiqa.encoder import save_checkpoint

    spec, kb, vocab = _tiny_world()
    corpus = build_corpus(kb, {"syn0", "syn1"}, 10, (1, 1, 1), seed=2)
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=16, d_ff=32, max_len=64, dropout=0.1)
    inject = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=8, epochs=2, seed=5)
    finetune = TrainConfig(phase="finetune", learning_rate=1e-3, batch_size=4, epochs=1, seed=6)
    grads_seen = []
    original = training.loss_and_grad

    def recording(params, batch, loss, dropout_rng=None, *, grads, workspace):
        grads_seen.append(grads)
        return original(params, batch, loss, dropout_rng=dropout_rng, grads=grads, workspace=workspace)

    monkeypatch.setattr(training, "loss_and_grad", recording)
    calls = _record_steps(monkeypatch)
    injected = run_injection(corpus, vocab, inject, model_config, render_max_len=32)
    n_inject = len(injected.history)
    tuned = run_finetune(injected.params, _tiny_qa_examples(spec, kb), vocab, finetune)
    assert n_inject > 2 and len(tuned.history) > 2
    for run, result in ((slice(0, n_inject), injected), (slice(n_inject, None), tuned)):
        steps = list(zip(grads_seen[run], calls[run]))
        _, params, grad0, state0 = steps[0][1]
        assert params is result.params
        for grads, (_, p, grad, state) in steps:
            assert p is params and grad is grad0 and state is state0
            assert grads is grads_seen[run][0] and grads.keys() == params.tensors.keys()
            assert state.m.shape == state.v.shape == params.flat.shape
        assert not np.shares_memory(grad0, params.flat) and not np.shares_memory(state0.m, state0.v)
        for name, tensor in params.tensors.items():
            assert np.shares_memory(tensor, params.flat), name
            assert np.shares_memory(grads_seen[run][0][name], grad0), name
        assert params.tensors["qa_bs"].ndim == params.tensors["qa_be"].ndim == 0
        path = tmp_path / "model.bin"
        save_checkpoint(path, params)
        magic, header, body = path.read_bytes().split(b"\n", 2)
        assert body == params.flat.astype("<f8").tobytes()


def test_training_steps_after_the_first_allocate_no_per_token_arrays(monkeypatch):
    """With every batch of one shape, the first step fills the run's
    workspace and later steps reuse it. Numpy reports its data buffers to
    tracemalloc, on every thread, so the memory a step adds at its peak
    counts any array it makes. On one thread that peak stays far below one
    (B * L, d_ff) FFN array, of which a step without a workspace makes
    several per layer. With a helper, under a split gate of one token, the
    raw peak also holds numpy's iterator buffers: every ufunc call that
    broadcasts an operand takes one of min(n, 8192) elements, up to 64 kB,
    and both batch halves may hold one at once. Those do not grow with the
    batch, while a per-token array does: so at both thread counts, a later
    step at twice the batch width adds less than an eighth of an FFN array
    to the peak of one at the single width."""
    import tracemalloc

    kb, vocab = _memorization_kb()
    corpus = build_corpus(kb, {"syn0"}, 25, (1, 0, 0), seed=1)  # 50 samples
    lengths = {len(render(s, vocab, 16).input_ids) for s in corpus}
    assert len(lengths) == 1
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=32, d_ff=1024, max_len=16,
                               dropout=0.1)
    width = 25
    one_ffn = width * lengths.pop() * model_config.d_ff * 8
    monkeypatch.setattr(encoder, "_SPLIT_TOKENS", 1)
    for workers in (1, 2):
        peaks = {}
        for batch_size in (width, 2 * width):
            growth, window = [], {}

            def collate(samples):  # a step starts here
                if "start" in window:
                    growth.append(tracemalloc.get_traced_memory()[1] - window["start"])
                batch = collate_mlm(samples)
                tracemalloc.reset_peak()
                window["start"] = tracemalloc.get_traced_memory()[0]
                return batch

            monkeypatch.setattr(training, "collate_mlm", collate)
            config = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=batch_size,
                                 epochs=3 * batch_size // width, seed=0)  # 6 steps at each width
            tracemalloc.start()
            try:
                result = run_injection(corpus, vocab, config, model_config, render_max_len=16, workers=workers)
            finally:
                tracemalloc.stop()
            assert len(growth) == len(result.history) - 1 == 5  # steps 1..5; growth[0] is the first step's
            assert growth[0] > one_ffn * batch_size // width  # the first step fills the workspace
            peaks[batch_size] = max(growth[1:])
        if workers == 1:
            assert peaks[width] < one_ffn / 8, peaks
        assert peaks[2 * width] - peaks[width] < one_ffn / 8, (workers, peaks, one_ffn)


def test_training_steps_with_a_gelu_tail_allocate_no_per_token_arrays(monkeypatch):
    """As above on one thread, with the FFN input weights scaled up so that
    about a third of the GELU inputs lie beyond |x / sqrt 2| = 1, where
    _gelu calls scipy's erf: its tail path marks them in a workspace array
    and gathers them block by block, so a later step still adds less than an
    eighth of an FFN array to the peak of the first."""
    import tracemalloc

    kb, vocab = _memorization_kb()
    corpus = build_corpus(kb, {"syn0"}, 25, (1, 0, 0), seed=1)  # 50 samples
    lengths = {len(render(s, vocab, 16).input_ids) for s in corpus}
    assert len(lengths) == 1
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=32, d_ff=1024, max_len=16,
                               dropout=0.1)
    width = 25
    one_ffn = width * lengths.pop() * model_config.d_ff * 8

    def init_with_a_tail(config, seed):
        params = init_params(config, seed)
        for name, tensor in params.tensors.items():
            if name.endswith("w1"):
                tensor *= 12.0
        return params

    tails, gelu = [], encoder._gelu

    def counting_gelu(x, phi, y, tmp, mask):
        u = np.divide(x, math.sqrt(2.0), out=tmp)  # in the scratch arrays, which _gelu overwrites
        tails.append(np.count_nonzero(np.greater(np.abs(u, out=u), 1.0, out=mask)) / mask.size)
        return gelu(x, phi, y, tmp, mask)

    growth, window = [], {}

    def collate(samples):  # a step starts here
        if "start" in window:
            growth.append(tracemalloc.get_traced_memory()[1] - window["start"])
        batch = collate_mlm(samples)
        tracemalloc.reset_peak()
        window["start"] = tracemalloc.get_traced_memory()[0]
        return batch

    monkeypatch.setattr(training, "init_params", init_with_a_tail)
    monkeypatch.setattr(encoder, "_gelu", counting_gelu)
    monkeypatch.setattr(training, "collate_mlm", collate)
    config = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=width, epochs=3, seed=0)  # 6 steps
    tracemalloc.start()
    try:
        result = run_injection(corpus, vocab, config, model_config, render_max_len=16, workers=1)
    finally:
        tracemalloc.stop()
    assert len(growth) == len(result.history) - 1 == 5
    assert len(tails) == 2 * 6 and min(tails) > 0.2, tails
    assert growth[0] > one_ffn  # the first step fills the workspace
    assert max(growth[1:]) < one_ffn / 8, (growth, one_ffn)


# ------------------------------------------------------------ the helper thread


def _train_both_phases(workers, max_grad_norm, tmp_path):
    """run_injection with dropout, then run_finetune, on ``workers``; each
    phase's history and checkpoint bytes. Injection takes its 20 samples,
    4 of them K3 samples with segment-1 tokens, in batches of 7, 7 and 6;
    finetuning its 16 examples in batches of 5, 5, 5 and 1."""
    from kiqa.encoder import save_checkpoint

    spec, kb, vocab = _tiny_world()
    corpus = build_corpus(kb, {"syn0", "syn1"}, 10, (1, 1, 1), seed=2)
    assert len(corpus) == 20 and sum(1 in render(s, vocab, 32).segment_ids for s in corpus) == 4
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=16, d_ff=32, max_len=64, dropout=0.1)
    inject = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=7, epochs=2, seed=5, max_grad_norm=max_grad_norm)
    finetune = TrainConfig(phase="finetune", learning_rate=1e-3, batch_size=5, epochs=1, seed=6,
                           max_grad_norm=max_grad_norm)
    injected = run_injection(corpus, vocab, inject, model_config, render_max_len=32, workers=workers)
    tuned = run_finetune(injected.params, _tiny_qa_examples(spec, kb), vocab, finetune, workers=workers)
    out = []
    for phase, result in (("inject", injected), ("finetune", tuned)):
        path = tmp_path / f"{phase}-{workers}.bin"
        save_checkpoint(path, result.params)
        out.append((result.history, path.read_bytes()))
    return out


@pytest.mark.parametrize("max_grad_norm", [None, 2.05])  # unclipped norms run 1.47-3.56
def test_training_is_bitwise_the_same_on_one_and_two_threads(tmp_path, monkeypatch, max_grad_norm):
    """Injection with dropout 0.1, then finetuning: with a helper thread
    (workers=2) every step record (loss, grad_norm, tokens, lr) and both
    checkpoints equal those of one thread, byte for byte, with and without
    clipping. Under a split gate of one token every step of two or more
    examples runs its per-example work as two batch halves: both losses, odd
    batch sizes and a final one-example batch. That batch runs whole, and
    its step hands the helper only the upper half of the AdamW update."""
    splits, halves = [], encoder._halves
    log, submit, step = [], Helper.submit, training.loss_and_grad

    def recording_halves(helper, B, *args, **kwargs):
        splits.append((helper is not None, B))
        return halves(helper, B, *args, **kwargs)

    def recording_submit(self, fn, *args):
        log.append(fn)
        submit(self, fn, *args)

    def recording_step(params, batch, *args, **kwargs):
        log.append(("step", len(batch.input_ids)))
        out = step(params, batch, *args, **kwargs)
        log.append("returned")
        return out

    monkeypatch.setattr(encoder, "_halves", recording_halves)
    monkeypatch.setattr(Helper, "submit", recording_submit)
    monkeypatch.setattr(training, "loss_and_grad", recording_step)
    one = _train_both_phases(1, max_grad_norm, tmp_path)
    assert not any(split for split, _ in splits)
    monkeypatch.setattr(encoder, "_SPLIT_TOKENS", 1)
    splits.clear(), log.clear()
    two = _train_both_phases(2, max_grad_norm, tmp_path)
    for (history_1, ckpt_1), (history_2, ckpt_2) in zip(one, two):
        assert len(history_1) > 2 and history_1 == history_2
        assert ckpt_1 == ckpt_2
    assert set(splits) == {(True, 7), (True, 6), (True, 5), (False, 1)}
    starts = [i for i, entry in enumerate(log) if isinstance(entry, tuple)] + [len(log)]
    whole = [log[i + 1 : j] for i, j in zip(starts, starts[1:]) if log[i] == ("step", 1)]
    assert whole == [["returned", training._adamw_chunks]]
    norms = [rec["grad_norm"] for history, _ in one for rec in history]
    if max_grad_norm is not None:  # some steps are clipped, some not
        assert min(norms) <= max_grad_norm < max(norms)


def test_a_failing_helper_task_raises_its_own_exception_from_the_run(monkeypatch):
    """Under a split gate of one token, a weight-gradient product that
    raises on the helper thread surfaces, as the same exception object, from
    run_injection on the calling thread, and the helper has ended when it
    does."""

    class ProductFailed(Exception):
        pass

    failure = ProductFailed("weight-gradient product failed")
    threads = []

    def failing(*args):
        threads.append(threading.current_thread())
        raise failure

    monkeypatch.setattr(encoder, "_SPLIT_TOKENS", 1)
    monkeypatch.setattr(encoder, "_linear_param_grads", failing)
    spec, kb, vocab = _tiny_world()
    corpus = build_corpus(kb, {"syn0", "syn1"}, 10, (1, 1, 1), seed=2)
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=16, d_ff=32, max_len=32, dropout=0.1)
    config = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=8, epochs=1, seed=5)
    with pytest.raises(ProductFailed) as raised:
        run_injection(corpus, vocab, config, model_config, render_max_len=32, workers=2)
    assert raised.value is failure
    assert threads and threading.current_thread() not in threads
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("where", ["helper", "caller"])
@pytest.mark.parametrize("segment", ["_attention", "_attention_backward"])  # a forward half, a backward half
def test_a_failing_batch_half_raises_its_own_exception_from_the_run(monkeypatch, segment, where):
    """Under a split gate of one token, a batch half that raises, on the
    helper or on this thread, in the forward or in the backward, surfaces as
    the same exception object from run_injection, and no thread is left
    alive when it does."""

    class HalfFailed(Exception):
        pass

    failure = HalfFailed("batch half failed")
    caller, original, ran = threading.current_thread(), getattr(encoder, segment), []

    def fail_here():
        thread = threading.current_thread()
        ran.append(thread)
        if (thread is caller) == (where == "caller"):
            raise failure

    def failing(*args):
        fail_here()
        return original(*args)

    def failing_chain(*args):  # a backward chain is a generator: it runs where it is iterated
        fail_here()
        yield from original(*args)

    monkeypatch.setattr(encoder, "_SPLIT_TOKENS", 1)
    monkeypatch.setattr(encoder, segment, failing_chain if segment == "_attention_backward" else failing)
    spec, kb, vocab = _tiny_world()
    corpus = build_corpus(kb, {"syn0", "syn1"}, 10, (1, 1, 1), seed=2)
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=16, d_ff=32, max_len=32, dropout=0.1)
    config = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=8, epochs=1, seed=5)
    with pytest.raises(HalfFailed) as raised:
        run_injection(corpus, vocab, config, model_config, render_max_len=32, workers=2)
    assert raised.value is failure
    helpers = set(ran) - {caller}
    assert caller in ran and len(helpers) == 1 and not any(thread.is_alive() for thread in helpers)


def test_only_the_thread_that_made_the_workspace_takes_from_it(monkeypatch):
    """With a helper, under a split gate of one token, both phases hand it
    batch halves and a share of the weight-gradient products, yet every
    Workspace.take comes from the thread that made the workspace."""
    made, takers, handed = [], set(), set()

    class Recording(Workspace):
        def __init__(self, helper=None):
            super().__init__(helper)
            made.append(threading.current_thread())

        def take(self, key, shape, *args):
            takers.add(threading.current_thread())
            return super().take(key, shape, *args)

    product = encoder._linear_param_grads

    def recording_product(*args):
        handed.add(threading.current_thread())
        product(*args)

    halves = set()
    segments = encoder._run_segments

    def recording_segments(*args):
        halves.add(threading.current_thread())
        segments(*args)

    monkeypatch.setattr(training, "Workspace", Recording)
    monkeypatch.setattr(encoder, "_linear_param_grads", recording_product)
    monkeypatch.setattr(encoder, "_run_segments", recording_segments)
    monkeypatch.setattr(encoder, "_SPLIT_TOKENS", 1)
    spec, kb, vocab = _tiny_world()
    corpus = build_corpus(kb, {"syn0", "syn1"}, 10, (1, 1, 1), seed=2)
    model_config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=16, d_ff=32, max_len=64, dropout=0.1)
    inject = TrainConfig(phase="inject", learning_rate=1e-3, batch_size=8, epochs=1, seed=5)
    finetune = TrainConfig(phase="finetune", learning_rate=1e-3, batch_size=4, epochs=1, seed=6)
    caller = threading.current_thread()
    injected = run_injection(corpus, vocab, inject, model_config, render_max_len=32, workers=2)
    run_finetune(injected.params, _tiny_qa_examples(spec, kb), vocab, finetune, workers=2)
    assert made == [caller, caller] and takers == {caller}
    assert handed - {caller}
    assert caller in halves and halves - {caller}  # one helper per phase
