import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa.assembler import build_corpus
from kiqa.encoder import EncoderParams, ModelConfig, cross_entropy, init_params
from kiqa.errors import ConfigError, NonFiniteError
from kiqa.evaluation import QAExample
from kiqa.synthlang import SynthSpec, gen_kb
from kiqa.textmodel import build_vocab, pack_qa, render
from kiqa.training import (
    AdamWState,
    TrainConfig,
    adamw_step,
    collate_mlm,
    locate_answer_span,
    lr_at,
    prepare_qa_examples,
    run_finetune,
    run_injection,
)

from conftest import ce_oracle


# ---------------------------------------------------------------- the losses
# Both phases train on encoder.cross_entropy; loss_and_grad's reductions are
# pinned in tests/test_encoder.py.


def test_mlm_loss_uniform():
    nll, _ = cross_entropy(np.zeros((1, 4)), [2])
    assert nll[0] == pytest.approx(math.log(4), abs=1e-12)


def test_mlm_loss_hand_value():
    logits = np.array([[2.0, 0.0, 0.0, 0.0]])
    want = math.log(1 + 3 * math.exp(-2))  # = 0.34075...
    nll, _ = cross_entropy(logits, [0])
    assert nll[0] == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(0.3408, abs=1e-4)


def test_loss_oracle_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = rng.integers(1, 6)
        v = rng.integers(2, 12)
        logits = rng.normal(scale=3.0, size=(n, v))
        targets = rng.integers(0, v, size=n)
        nll, grad = cross_entropy(logits, targets)
        for i in range(n):
            assert abs(nll[i] - ce_oracle(logits[i], targets[i])) <= 1e-10
        assert np.abs(grad.sum(-1)).max() <= 1e-12  # softmax minus one-hot


def test_span_loss_uniform():
    logits = np.full((2, 8), -np.inf)
    logits[:, 2:7] = 0.0  # 5 valid positions
    nll, grad = cross_entropy(logits, [3, 4])
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
        nll, grad = cross_entropy(np.where(valid, np.stack([start, end]), -np.inf), [gs, ge])
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


def test_adamw_first_step_hand_value():
    params = _scalar_params(0.0)
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    grads["qa_bs"] = np.asarray(1.0)
    state = AdamWState.zeros_like(params)
    adamw_step(params, grads, state, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    # t=1: m_hat = g, v_hat = g^2, step = -lr * g / (|g| + eps)
    want = -0.1 * (1.0 / (1.0 + 1e-8))
    assert float(params.tensors["qa_bs"]) == pytest.approx(want, abs=1e-12)
    assert float(params.tensors["qa_be"]) == 0.0


def test_adamw_decay_only():
    params = _scalar_params(1.0)
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    state = AdamWState.zeros_like(params)
    adamw_step(params, grads, state, lr=0.1, weight_decay=0.01)
    for name, tensor in params.tensors.items():
        np.testing.assert_allclose(tensor, 1.0 - 0.001, rtol=0, atol=1e-12)


def test_adamw_zero_lr_is_identity():
    params = _scalar_params(0.5)
    grads = {k: np.full_like(v, 0.3) for k, v in params.tensors.items()}
    state = AdamWState.zeros_like(params)
    adamw_step(params, grads, state, lr=0.0, weight_decay=0.01)
    for tensor in params.tensors.values():
        np.testing.assert_array_equal(tensor, 0.5)
    # moments still accumulate
    assert float(state.m["qa_bs"]) == pytest.approx(0.03)


def test_adamw_zero_grad_moments_decay():
    params = _scalar_params(0.0)
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    state = AdamWState.zeros_like(params)
    state.m["qa_bs"] = np.asarray(1.0)
    adamw_step(params, grads, state, lr=0.1, weight_decay=0.0)
    assert float(state.m["qa_bs"]) == pytest.approx(0.9)
    adamw_step(params, grads, state, lr=0.1, weight_decay=0.0)
    assert float(state.m["qa_bs"]) == pytest.approx(0.81)


def test_adamw_non_finite_grad():
    params = _scalar_params(0.0)
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    grads["qa_bs"] = np.asarray(float("nan"))
    with pytest.raises(NonFiniteError):
        adamw_step(params, grads, AdamWState.zeros_like(params), lr=0.1)


# -------------------------------------------------------------- train config


def test_train_config_validation():
    TrainConfig(phase="inject", learning_rate=1e-3, batch_size=2, epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig(phase="pretrain", learning_rate=1e-3, batch_size=2, epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig(phase="inject", learning_rate=0.0, batch_size=2, epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig(phase="inject", learning_rate=1e-3, batch_size=0, epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig(phase="inject", learning_rate=1e-3, batch_size=1, epochs=1, warmup_fraction=1.0)


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
    n_ctx_tokens = len(pack_qa(examples[0].question, examples[0].context, vocab, 64).context_positions)
    assert result.history[-1]["loss"] < math.log(n_ctx_tokens)
    assert result.dropped == 0
