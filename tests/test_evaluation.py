import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa import evaluation
from kiqa.encoder import ModelConfig, init_params
from kiqa.errors import KBParseError
from kiqa.evaluation import (
    EvalCell,
    EvalReport,
    QAExample,
    decode_span,
    evaluate,
    exact_match,
    format_report,
    load_qa_dataset,
    normalize_answer,
    predict_spans,
    score_examples,
    token_f1,
)
from kiqa.textmodel import build_vocab, pack_qa


# ------------------------------------------------------------- decode_span


def brute_force_decode(start_logits, end_logits, max_answer_len):
    best, best_score = None, -np.inf
    for s in range(len(start_logits)):
        for e in range(s, min(s + max_answer_len, len(end_logits))):
            score = start_logits[s] + end_logits[e]
            if score > best_score:
                best, best_score = (s, e), score
    return best


def test_decode_span_peaks():
    start = np.zeros(8)
    end = np.zeros(8)
    start[2] = 4.0
    end[4] = 3.0
    assert decode_span(start, end, 30) == (2, 4)


def test_decode_span_end_before_start_falls_back():
    start = np.zeros(6)
    end = np.zeros(6)
    start[4] = 5.0  # best start late
    end[1] = 5.0    # best end early: (4,1) invalid
    got = decode_span(start, end, 6)
    assert got == brute_force_decode(start, end, 6)
    s, e = got
    assert s <= e


def test_decode_span_respects_max_len():
    start = np.zeros(10)
    end = np.zeros(10)
    start[0] = 10.0
    end[9] = 10.0
    s, e = decode_span(start, end, 3)
    assert e - s + 1 <= 3


def test_decode_span_tie_break_earlier():
    start = np.zeros(8)
    end = np.zeros(8)
    got = decode_span(start, end, 4)
    assert got == (0, 0)


def test_decode_span_empty_context():
    with pytest.raises(ValueError):
        decode_span(np.zeros(0), np.zeros(0), 4)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_span_matches_brute_force(data):
    L = data.draw(st.integers(min_value=1, max_value=64))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans()):
        start = rng.normal(size=L)
        end = rng.normal(size=L)
    else:  # small integers, so that many spans tie
        start = rng.integers(-2, 3, size=L).astype(np.float64)
        end = rng.integers(-2, 3, size=L).astype(np.float64)
    max_len = data.draw(st.integers(min_value=1, max_value=70))
    assert decode_span(start, end, max_len) == brute_force_decode(start, end, max_len)


# -------------------------------------------------------------- normalization


def test_normalize_answer_en_article_and_punct():
    assert normalize_answer("The Pedigree!", "en") == "pedigree"


def test_normalize_answer_cjk_fullwidth_punct():
    assert normalize_answer("篮球运动员。", "zh") == "篮球运动员"


def test_normalize_answer_empty():
    assert normalize_answer("", "en") == ""


def test_normalize_answer_whitespace_collapse():
    assert normalize_answer("  a   big   Dog  ", "en") == "big dog"


def test_normalize_answer_cjk_removes_whitespace():
    assert normalize_answer("篮球 运动员", "zh") == "篮球运动员"


def test_normalize_answer_non_en_keeps_articles():
    assert normalize_answer("the haus", "de") == "the haus"


def test_exact_match_cases():
    assert exact_match("the Pedigree", "Pedigree", "en") == 1
    assert exact_match("same", "same", "en") == 1
    assert exact_match("coach", "player", "en") == 0


def test_token_f1_cases():
    assert token_f1("basketball player", "basketball player", "en") == 1.0
    assert token_f1("player", "basketball player", "en") == pytest.approx(2 / 3)
    assert token_f1("coach", "basketball player", "en") == 0.0
    assert token_f1("", "", "en") == 1.0
    assert token_f1("", "x", "en") == 0.0
    assert token_f1("x", "", "en") == 0.0


def test_token_f1_multiset_overlap():
    # repeated token counts once per occurrence in the intersection
    assert token_f1("a a b", "a b b", "en") == pytest.approx(2 * (2 / 3) * (2 / 3) / (4 / 3))


def test_token_f1_cjk():
    assert token_f1("篮球", "篮球运动员", "zh") == pytest.approx(2 * 1.0 * (2 / 5) / 1.4)


_texts = st.text(alphabet="ab 篮球the.!，", max_size=12)


@settings(max_examples=300)
@given(_texts, _texts, st.sampled_from(["en", "zh", "syn0"]))
def test_f1_bounds_symmetry_and_em_implies_f1(pred, gold, lang):
    f1 = token_f1(pred, gold, lang)
    assert 0.0 <= f1 <= 1.0
    assert f1 == pytest.approx(token_f1(gold, pred, lang))
    if exact_match(pred, gold, lang):
        assert f1 == 1.0


# ------------------------------------------------------------------- dataset


def _dataset_dict():
    return {
        "data": [
            {
                "paragraphs": [
                    {
                        "context": "kevin durant plays basketball",
                        "qas": [
                            {
                                "id": "q1",
                                "question": "who plays",
                                "answers": [{"text": "kevin durant", "answer_start": 0}],
                                "context_lang": "en",
                                "question_lang": "zh",
                            },
                            {
                                "id": "q2",
                                "question": "what game",
                                "answers": [
                                    {"text": "basketball", "answer_start": 19},
                                    {"text": "durant plays", "answer_start": 6},
                                ],
                            },
                        ],
                    }
                ]
            }
        ]
    }


def test_load_qa_dataset(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(_dataset_dict()), encoding="utf-8")
    examples = load_qa_dataset(path, default_context_lang="de", default_question_lang="es")
    assert len(examples) == 2
    assert examples[0].context_lang == "en"
    assert examples[0].question_lang == "zh"
    assert examples[1].context_lang == "de"  # falls back to the default
    assert examples[1].question_lang == "es"
    assert examples[1].answers == (("basketball", 19), ("durant plays", 6))


def test_load_qa_dataset_rejects_no_answers(tmp_path):
    doc = _dataset_dict()
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(KBParseError):
        load_qa_dataset(path)


def test_load_qa_dataset_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(KBParseError):
        load_qa_dataset(path)
    path2 = tmp_path / "wrong_shape.json"
    path2.write_text(json.dumps({"data": [{"wrong": []}]}), encoding="utf-8")
    with pytest.raises(KBParseError):
        load_qa_dataset(path2)
    # wrongly typed fields; answer_start must be a JSON integer, not a float or a bool
    for where, key, value in (("answer", "answer_start", "x"), ("answer", "answer_start", 19.0),
                              ("answer", "answer_start", True), ("qa", "question", 5),
                              ("para", "context", 5), ("answer", "text", 7), ("qa", "context_lang", 5),
                              ("qa", "question_lang", None)):
        doc = _dataset_dict()
        para = doc["data"][0]["paragraphs"][0]
        {"para": para, "qa": para["qas"][0], "answer": para["qas"][0]["answers"][0]}[where][key] = value
        path2.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(KBParseError, match="must be strings"):
            load_qa_dataset(path2)


# ----------------------------------------------------------------- reporting


def test_score_examples_cells_and_overall():
    examples = [
        QAExample("1", "q", "kevin durant plays", (("kevin durant", 0),), "en", "en"),
        QAExample("2", "q", "kevin durant plays", (("kevin durant", 0),), "en", "zh"),
        QAExample("3", "q", "kevin durant plays", (("kevin durant", 0),), "en", "zh"),
    ]
    predictions = ["kevin durant", "durant", "nothing here"]
    report = score_examples(examples, predictions)
    assert report.cells[("en", "en")].em == 100.0
    assert report.cells[("en", "en")].f1 == 100.0
    cell = report.cells[("en", "zh")]
    assert cell.count == 2
    assert cell.em == 0.0
    assert cell.f1 == pytest.approx(100.0 * (2 / 3) / 2)
    # count-weighted overall means
    assert report.overall_f1 == pytest.approx((1.0 + 2 / 3 + 0.0) / 3 * 100)
    assert report.overall_em == pytest.approx(100.0 / 3)
    assert report.total == 3


def test_score_examples_max_over_golds():
    ex = QAExample("1", "q", "kevin durant plays", (("wrong", 0), ("durant", 6)), "en", "en")
    report = score_examples([ex], ["durant"])
    assert report.cells[("en", "en")].em == 100.0


def test_two_example_mean_f1():
    examples = [
        QAExample("1", "q", "kevin durant plays", (("kevin durant", 0),), "en", "en"),
        QAExample("2", "q", "kevin durant plays", (("kevin durant", 0),), "en", "en"),
    ]
    report = score_examples(examples, ["kevin durant", "durant"])
    assert report.cells[("en", "en")].f1 == pytest.approx(75.0 + 25.0 / 3)  # mean of 1.0 and 2/3, x100


def test_cross_pair_f1():
    report = EvalReport(cells={
        ("a", "a"): EvalCell(f1=90.0, em=80.0, count=10),
        ("a", "b"): EvalCell(f1=50.0, em=40.0, count=10),
        ("b", "a"): EvalCell(f1=30.0, em=20.0, count=30),
    })
    assert report.cross_pair_f1() == pytest.approx((50.0 * 10 + 30.0 * 30) / 40)


def test_format_report_layout():
    report = EvalReport(cells={("en", "zh"): EvalCell(f1=31.36, em=20.89, count=200)})
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0].startswith("Settings(c/q)")
    assert "en/zh" in lines[1]
    assert "31.36" in lines[1] and "20.89" in lines[1]
    assert lines[-1].startswith("overall")


def test_report_to_dict_round_trips_through_json():
    report = EvalReport(cells={("en", "zh"): EvalCell(f1=50.0, em=25.0, count=4)})
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["cells"][0]["context_lang"] == "en"
    assert payload["overall"]["count"] == 4


# --------------------------------------------------------- end-to-end predict


def test_predictions_are_context_substrings():
    vocab = build_vocab(["alpha beta gamma delta question"], max_size=32)
    config = ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=16, d_ff=32, max_len=32, dropout=0.0)
    params = init_params(config, seed=0)
    examples = [
        QAExample("1", "question", "alpha beta gamma delta", (("beta", 6),), "en", "en"),
        QAExample("2", "question", "Gamma delta ALPHA beta", (("delta", 6),), "en", "en"),
    ]
    preds = predict_spans(params, vocab, examples, max_answer_len=3)
    for ex, pred in zip(examples, preds):
        assert pred in ex.context
    report = evaluate(params, vocab, examples)
    assert report.total == 2


def test_predict_spans_never_leaves_context(monkeypatch):
    """The top span scores sit on the question, the [SEP]s and, for a cap of
    4, on spans that cross the window's end; every prediction is still the
    context text at the window positions the logits favour."""
    vocab = build_vocab(["who alpha beta gamma delta"], max_size=32)
    config = ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=16, d_ff=32, max_len=32, dropout=0.0)
    params = init_params(config, seed=0)

    def fake_qa_logits(params, hidden):
        B, L, _ = hidden.shape  # one unpadded row per batch: its context window is [3, L - 1)
        start, end = np.full((B, L), 100.0), np.full((B, L), 100.0)
        start[:, 3 : L - 1] = end[:, 3 : L - 1] = 0.0
        start[:, 4] = end[:, 5] = 50.0  # context tokens 1 and 2
        return start, end

    monkeypatch.setattr(evaluation, "qa_logits", fake_qa_logits)
    examples = [
        QAExample("1", "who", "alpha beta gamma delta", (("beta", 6),), "en", "en"),
        QAExample("2", "who", "Gamma, delta: ALPHA beta!", (("delta", 7),), "en", "en"),
    ]
    assert predict_spans(params, vocab, examples, max_answer_len=4, batch_size=1) == ["beta gamma", "delta: ALPHA"]


def test_evaluate_exact_answer_scores_100():
    vocab = build_vocab(["alpha beta gamma question"], max_size=32)
    config = ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=16, d_ff=32, max_len=16, dropout=0.0)
    params = init_params(config, seed=1)
    ex = QAExample("1", "question", "alpha beta gamma", (("beta", 6),), "en", "en")
    packed_pred = predict_spans(params, vocab, [ex])[0]
    report = score_examples([ex], [ex.answers[0][0]])
    assert report.cells[("en", "en")] == EvalCell(f1=100.0, em=100.0, count=1)
    assert isinstance(packed_pred, str)


def test_length_sorted_batches_predict_in_input_order(monkeypatch):
    """Batches are cut from the examples in order of packed length, and every
    prediction lands at its example's input index: any batch size gives the
    strings that one example at a time gives, "" for an empty context."""
    words = "alpha beta gamma delta epsilon zeta eta theta question"
    vocab = build_vocab([words, "北京上海广州深圳"], max_size=64)
    config = ModelConfig(vocab_size=len(vocab), n_layers=1, n_heads=2, d_model=16, d_ff=32, max_len=64, dropout=0.0)
    params = init_params(config, seed=3)
    for tensor in params.tensors.values():
        tensor *= 10.0  # spread the span logits well apart
    contexts = [
        " ".join(words.split()[:8] * 5),
        "beta gamma",
        "北京上海广州深圳北京上海广州深圳",
        "",
        "delta",
        "zeta eta theta alpha beta gamma delta epsilon zeta eta theta",
        "深圳 alpha",
        "gamma delta epsilon zeta",
    ]
    examples = [
        QAExample(str(i), "question " * (1 + i % 3), ctx, (("x", 0),), "zh" if "北" in ctx else "en", "en")
        for i, ctx in enumerate(contexts)
    ]
    one_at_a_time = [predict_spans(params, vocab, [ex], max_answer_len=4, batch_size=1)[0] for ex in examples]
    assert one_at_a_time[3] == ""
    assert all(pred and pred in ex.context for pred, ex in zip(one_at_a_time, examples) if ex.context)

    widths, forward = [], evaluation.forward

    def recording_forward(params, ids, segs, mask):
        widths.append(ids.shape[1])
        return forward(params, ids, segs, mask)

    monkeypatch.setattr(evaluation, "forward", recording_forward)
    lengths = sorted(len(pack_qa(ex.question, ex.context, vocab, config.max_len).input_ids) for ex in examples)
    for batch_size in (2, 3):
        widths.clear()
        assert predict_spans(params, vocab, examples, max_answer_len=4, batch_size=batch_size) == one_at_a_time
        assert widths == [lengths[min(lo + batch_size, len(lengths)) - 1] for lo in range(0, len(lengths), batch_size)]


def test_evaluate_is_unchanged_by_the_forward_block_size(monkeypatch):
    """Padded batches of several widths give the same report at the default
    token budget and at a budget of 1, which sends each row alone to forward."""
    words = "alpha beta gamma delta epsilon zeta eta theta question"
    vocab = build_vocab([words], max_size=64)
    config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=16, d_ff=32, max_len=64, dropout=0.0)
    params = init_params(config, seed=4)
    for tensor in params.tensors.values():
        tensor *= 10.0
    tokens = words.split()[:8]
    examples = [
        QAExample(str(i), "question " * (1 + i % 3), " ".join(tokens[i % 8:] + tokens[: i % 5]),
                  ((tokens[i % 8], 0),), "en", "xx" if i % 2 else "en")
        for i in range(11)
    ]
    reports = []
    for budget in (evaluation._BATCH_TOKENS, 1):
        monkeypatch.setattr(evaluation, "_BATCH_TOKENS", budget)
        reports.append(evaluate(params, vocab, examples, max_answer_len=4, batch_size=4).to_dict())
    assert reports[0] == reports[1]
    assert reports[0]["overall"]["count"] == 11


def test_predict_spans_peak_memory_is_bounded_by_the_token_budget():
    """Many long contexts in one ``batch_size`` group never meet in one
    whole-batch (B, heads, L, L) score tensor: predict_spans peaks well below
    that tensor's size."""
    words = [f"w{i}" for i in range(40)]
    vocab = build_vocab([" ".join(words) + " question"], max_size=64)
    config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=4, d_model=64, d_ff=256, max_len=200,
                         dropout=0.0)
    params = init_params(config, seed=0)
    examples = [
        QAExample(str(i), "question", " ".join(words[(i + j) % 40] for j in range(150 + i)), (("w0", 0),), "en", "en")
        for i in range(32)
    ]
    longest = max(len(pack_qa(ex.question, ex.context, vocab, config.max_len).input_ids) for ex in examples)
    whole_batch_scores = len(examples) * config.n_heads * longest * longest * 8  # 38 MB
    tracemalloc.start()
    try:
        predictions = predict_spans(params, vocab, examples, max_answer_len=30, batch_size=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(pred in ex.context for pred, ex in zip(predictions, examples))
    assert peak < whole_batch_scores / 2, f"peak {peak / 1e6:.1f} MB"
