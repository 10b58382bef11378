import errno
import hashlib
import json
import os
import signal
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa import evaluation
from kiqa.encoder import ModelConfig, init_params
from kiqa.errors import KBParseError, NonFiniteError
from kiqa.evaluation import (
    EvalCell,
    EvalReport,
    QAExample,
    decode_span,
    evaluate,
    format_report,
    load_qa_dataset,
    normalize_answer,
    predict_spans,
    score_examples,
)
from kiqa.textmodel import build_vocab, pack_qa, tokenize

from conftest import ProcessLog, assert_no_child_process


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


@pytest.mark.parametrize("start, end, max_answer_len, want", [
    ([0.0], [0.0], 30, (0, 0)),  # n = 1, far below the cap
    ([-3.0], [2.0], 1, (0, 0)),  # n = 1 at the cap
    ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 5, (0, 0)),  # every span ties: earliest start, then earliest end
    ([0.0, 1.0, 1.0], [1.0, 0.0, 1.0], 5, (1, 2)),  # (1, 2) and (2, 2) tie
    ([1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 1.0, 0.0], 10, (0, 1)),  # (0, 1), (0, 2) and (3, 3) tie
    ([0.0, 0.0], [0.0, 5.0], 3, (0, 1)),  # (0, 1) and (1, 1) tie at the last end
])
def test_decode_span_ties_below_the_answer_cap(start, end, max_answer_len, want):
    start, end = np.array(start), np.array(end)
    assert decode_span(start, end, max_answer_len) == brute_force_decode(start, end, max_answer_len) == want


def test_decode_span_empty_context():
    with pytest.raises(ValueError, match="at least one position"):
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


# SQuAD's per-answer metrics, written out plainly: each normalizes both of
# its strings. score_examples computes the same values, normalizing each
# string once; the tests below check its records against these.


def exact_match(pred, gold, lang):
    return int(normalize_answer(pred, lang) == normalize_answer(gold, lang))


def token_f1(pred, gold, lang):
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


def scored(pred, golds, lang):
    """The F1 and EM (x100) of score_examples' record for one prediction
    against its gold answers."""
    (record,) = score_examples([QAExample("1", "q", "context", tuple((g, 0) for g in golds), lang, "en")],
                               [pred]).predictions
    return record["f1"], record["em"]


def test_exact_match_cases():
    for pred, gold, want in (("the Pedigree", "Pedigree", 1), ("same", "same", 1), ("coach", "player", 0)):
        assert exact_match(pred, gold, "en") == want
        assert scored(pred, [gold], "en")[1] == 100.0 * want


def test_token_f1_cases():
    for pred, gold, want in (("basketball player", "basketball player", 1.0), ("player", "basketball player", 2 / 3),
                             ("coach", "basketball player", 0.0), ("", "", 1.0), ("", "x", 0.0), ("x", "", 0.0)):
        assert token_f1(pred, gold, "en") == pytest.approx(want)
        assert scored(pred, [gold], "en")[0] == pytest.approx(100.0 * want)


def test_token_f1_multiset_overlap():
    # repeated token counts once per occurrence in the intersection
    want = 2 * (2 / 3) * (2 / 3) / (4 / 3)
    assert token_f1("a a b", "a b b", "en") == pytest.approx(want)
    assert scored("a a b", ["a b b"], "en")[0] == pytest.approx(100.0 * want)


def test_token_f1_cjk():
    want = 2 * 1.0 * (2 / 5) / 1.4
    assert token_f1("篮球", "篮球运动员", "zh") == pytest.approx(want)
    assert scored("篮球", ["篮球运动员"], "zh")[0] == pytest.approx(100.0 * want)


_texts = st.text(alphabet="ab 篮球the.!，", max_size=12)


@settings(max_examples=300)
@given(_texts, st.lists(_texts, min_size=1, max_size=3), st.sampled_from(["en", "zh", "syn0"]))
def test_f1_bounds_symmetry_and_em_implies_f1(pred, golds, lang):
    """score_examples' record is 100 times the max over golds of the
    reference metrics, bit for bit; against one gold its F1 is bounded,
    symmetric, and 100 wherever EM is."""
    f1, em = scored(pred, golds, lang)
    assert f1 == 100.0 * max(token_f1(pred, gold, lang) for gold in golds)
    assert em == 100.0 * max(exact_match(pred, gold, lang) for gold in golds)
    f1, em = scored(pred, golds[:1], lang)
    assert 0.0 <= f1 <= 100.0
    assert f1 == pytest.approx(scored(golds[0], [pred], lang)[0])
    if em:
        assert f1 == 100.0


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
    # one scored record per example, in input order, with the predictions file's keys in its order
    assert [list(r) for r in report.predictions] == [["id", "context_lang", "question_lang", "prediction", "f1", "em"]] * 3
    assert [(r["id"], r["context_lang"], r["question_lang"], r["prediction"]) for r in report.predictions] == [
        (ex.qa_id, ex.context_lang, ex.question_lang, pred) for ex, pred in zip(examples, predictions)
    ]
    assert [r["f1"] for r in report.predictions] == pytest.approx([100.0, 100.0 * 2 / 3, 0.0])
    assert [r["em"] for r in report.predictions] == [100.0, 0.0, 0.0]
    assert set(report.to_dict()) == {"cells", "overall"}
    assert set(report.to_dict()["cells"][0]) == {"context_lang", "question_lang", "f1", "em", "count"}


@pytest.mark.parametrize("lang, prediction, golds", [
    ("en", "The Pedigree!", ("pedigree", "a pedigree dog", "the the")),
    ("en", "a big  Dog", ("An old dog", "big dog.", "dog big dog")),
    ("en", "the", ("", "A", "an the")),
    ("en", "", ("the", "x")),
    ("zh", "篮球 运动员。", ("篮球运动员", "运动员", "篮 球")),
    ("zh", "凯文杜兰特", ("凯文·杜兰特", "杜兰特", "the 杜兰特")),
    ("zh", "", ("。", "篮球")),
])
def test_score_examples_records_are_the_per_answer_metrics_bit_for_bit(lang, prediction, golds):
    """Each record's F1 and EM are 100 times the max over golds of
    token_f1 and exact_match, bit for bit, with English articles and CJK
    whitespace and punctuation dropped as normalize_answer drops them."""
    ex = QAExample("1", "q", "context", tuple((gold, 0) for gold in golds), lang, "en")
    (record,) = score_examples([ex], [prediction]).predictions
    f1 = max(token_f1(prediction, gold, lang) for gold in golds)
    em = max(exact_match(prediction, gold, lang) for gold in golds)
    assert json.dumps(record) == json.dumps({"id": "1", "context_lang": lang, "question_lang": "en",
                                            "prediction": prediction, "f1": 100.0 * f1, "em": 100.0 * em})


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


def test_length_sorted_batches_predict_in_input_order(monkeypatch, tmp_path):
    """Batches are cut from the examples in order of packed length, and every
    prediction lands at its example's input index: any batch size gives the
    strings that one example at a time gives, "" for an empty context. Each
    worker process runs a share of the planned batches, longest first, and
    the shares together run every planned batch once."""
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

    log, forward = ProcessLog(tmp_path / "widths"), evaluation.forward

    def recording_forward(params, ids, segs, mask, *, workspace):
        log.add(ids.shape[1])
        return forward(params, ids, segs, mask, workspace=workspace)

    monkeypatch.setattr(evaluation, "forward", recording_forward)
    lengths = sorted(len(pack_qa(ex.question, ex.context, vocab, config.max_len).input_ids) for ex in examples)
    for batch_size in (2, 3):
        planned = [lengths[min(lo + batch_size, len(lengths)) - 1] for lo in range(0, len(lengths), batch_size)]
        for workers in (1, 2):
            log.clear()
            assert predict_spans(params, vocab, examples, max_answer_len=4, batch_size=batch_size,
                                 workers=workers) == one_at_a_time
            shares = {pid: [int(width) for (width,) in lines] for pid, lines in log.by_process().items()}
            assert len(shares) == workers and os.getpid() in shares
            assert sorted(width for share in shares.values() for width in share) == planned  # the plan, once
            assert all(share == sorted(share, reverse=True) for share in shares.values())  # longest first


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


def _batched_inputs():
    """Examples that plan into several batches capped by the token budget, and
    one row longer than the budget, which goes alone."""
    words = "alpha beta gamma delta epsilon zeta eta theta question"
    vocab = build_vocab([words], max_size=64)
    config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=16, d_ff=32, max_len=300, dropout=0.0)
    params = init_params(config, seed=5)
    for tensor in params.tensors.values():
        tensor *= 10.0
    tokens = words.split()[:8]
    examples = [
        QAExample(str(i), "question " * (1 + i % 3), " ".join((tokens * 40)[i % 8 : i % 8 + 3 + 5 * (i % 7)]),
                  ((tokens[i % 8], 0),), "en", "xx" if i % 2 else "en")
        for i in range(23)
    ]
    examples.append(QAExample("long", "question", " ".join(tokens * 35), ((tokens[0], 0),), "en", "en"))
    assert len(pack_qa("question", examples[-1].context, vocab, config.max_len).input_ids) > evaluation._BATCH_TOKENS
    return params, vocab, examples


def test_evaluate_is_bitwise_the_same_for_every_worker_count():
    params, vocab, examples = _batched_inputs()
    reports = [evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=workers)
               for workers in (1, 2, 5)]
    for report in reports[1:]:
        assert json.dumps(report.to_dict()) == json.dumps(reports[0].to_dict())
        assert json.dumps(report.predictions) == json.dumps(reports[0].predictions)
    assert reports[0].total == len(examples)


def test_non_finite_checkpoint_raises_under_several_workers_and_leaves_no_thread(monkeypatch, tmp_path):
    """The calling process and two forked children run the batches. A
    checkpoint with a NaN weight raises NonFiniteError in every share; the
    caller raises its own. Whether evaluate returns or raises, it leaves no
    thread and no child process behind."""
    params, vocab, examples = _batched_inputs()
    log, forward = ProcessLog(tmp_path / "batches"), evaluation.forward

    def recording_forward(params, ids, segs, mask, *, workspace):
        log.add(ids.shape[1])
        return forward(params, ids, segs, mask, workspace=workspace)

    monkeypatch.setattr(evaluation, "forward", recording_forward)
    count = threading.active_count()
    evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=3)
    assert len(log.by_process()) == 3 and os.getpid() in log.by_process()
    assert threading.active_count() == count
    assert_no_child_process()
    log.clear()
    params.tensors["qa_ws"][0] = np.nan
    with pytest.raises(NonFiniteError, match="span logits are not finite"):
        evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=3)
    assert os.getpid() in log.by_process()
    assert threading.active_count() == count


def test_a_childs_error_is_raised_in_the_caller_with_its_type_and_message(monkeypatch, tmp_path):
    """Span logits that are not finite in a child's share only raise
    NonFiniteError in the child; evaluate raises it in the caller, with its
    message, and reaps the child."""
    params, vocab, examples = _batched_inputs()
    caller, qa_logits, log = os.getpid(), evaluation.qa_logits, ProcessLog(tmp_path / "batches")

    def child_nan_logits(params, hidden):
        log.add(hidden.shape[1])
        start_logits, end_logits = qa_logits(params, hidden)
        if os.getpid() != caller:
            start_logits[0, 0] = np.nan
        return start_logits, end_logits

    monkeypatch.setattr(evaluation, "qa_logits", child_nan_logits)
    with pytest.raises(NonFiniteError, match="span logits are not finite"):
        evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=2)
    assert len(log.by_process()) == 2


@pytest.mark.parametrize("raised", [SystemExit(7), KeyboardInterrupt("stop")], ids=["exit", "interrupt"])
def test_a_child_leaves_only_through_os_exit_whatever_it_raises(monkeypatch, tmp_path, raised):
    """A BaseException in a child's share comes back to the caller, which
    raises it. The child itself never returns into the test's frames: if it
    did, it would go on to run the test's lines after the call."""
    params, vocab, examples = _batched_inputs()
    caller, forward, log = os.getpid(), evaluation.forward, ProcessLog(tmp_path / "events")

    def raising_forward(params, ids, segs, mask, *, workspace):
        log.add("forward")
        if os.getpid() != caller:
            raise raised
        return forward(params, ids, segs, mask, workspace=workspace)

    monkeypatch.setattr(evaluation, "forward", raising_forward)
    with pytest.raises(type(raised)) as info:
        predict_spans(params, vocab, examples, max_answer_len=4, batch_size=16, workers=2)
    log.add("after")
    assert info.value.args == raised.args
    processes = log.by_process()
    assert len(processes) == 2
    assert [pid for pid, lines in processes.items() if ["after"] in lines] == [caller]


@pytest.mark.parametrize("how, code", [("exit", 3), ("kill", -signal.SIGKILL)])
def test_a_child_that_ends_without_a_result_raises_child_process_error(monkeypatch, how, code):
    """A child that exits, or is killed, before it sends its predictions
    raises ChildProcessError, an OSError, naming its exit code."""
    params, vocab, examples = _batched_inputs()
    caller, forward = os.getpid(), evaluation.forward

    def ending_forward(params, ids, segs, mask, *, workspace):
        if os.getpid() != caller and how == "exit":
            os._exit(3)
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(params, ids, segs, mask, workspace=workspace)

    monkeypatch.setattr(evaluation, "forward", ending_forward)
    with pytest.raises(ChildProcessError, match=rf"ended without a result \(exit code {code}\)"):
        evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=2)


def test_a_failing_caller_share_kills_and_reaps_the_children(monkeypatch):
    """When the calling process's own share raises, evaluate kills the
    children instead of waiting for their shares, reaps them and raises the
    caller's error."""
    params, vocab, examples = _batched_inputs()
    caller, forward = os.getpid(), evaluation.forward

    def forward_failing_here(params, ids, segs, mask, *, workspace):
        if os.getpid() == caller:
            raise ValueError("the caller's share failed")
        time.sleep(300)  # a child's share: it ends only when killed
        return forward(params, ids, segs, mask, workspace=workspace)

    monkeypatch.setattr(evaluation, "forward", forward_failing_here)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller's share failed"):
        evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=3)
    assert time.monotonic() - start < 60


class _TwoArgumentError(Exception):
    """Pickles, as its class and its one arg, but does not unpickle, since
    __init__ needs two."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def test_a_childs_error_that_does_not_pickle_or_unpickle_still_reaches_the_caller(monkeypatch):
    """A child's exception that does not pickle is raised in the caller as a
    RuntimeError holding its repr; one that pickles but does not unpickle
    raises ChildProcessError naming the unpickling error. Neither is lost
    behind a bare exit code."""
    params, vocab, examples = _batched_inputs()
    caller, forward, raised = os.getpid(), evaluation.forward, []

    def raising_forward(params, ids, segs, mask, *, workspace):
        if os.getpid() != caller:
            raise raised[0]
        return forward(params, ids, segs, mask, workspace=workspace)

    monkeypatch.setattr(evaluation, "forward", raising_forward)
    raised[:] = [ValueError("unsendable", lambda: None)]
    with pytest.raises(RuntimeError, match=r"^ValueError\('unsendable', <function .*could not be sent"):
        evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=2)
    raised[:] = [_TwoArgumentError("first", "second")]
    with pytest.raises(ChildProcessError, match=r"sent a result that does not unpickle: TypeError"):
        evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=2)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors through /proc")
def test_a_failed_fork_closes_its_pipe_and_kills_and_reaps_the_children_before_it(monkeypatch):
    """When the second of two forks fails, evaluate raises its error, closes
    both ends of the pipe made for it, and kills and reaps the first child."""
    params, vocab, examples = _batched_inputs()
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "no process left")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="no process left"):
        evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=3)
    assert len(forks) == 2
    assert sorted(os.listdir("/proc/self/fd")) == open_fds


def test_one_worker_or_no_fork_runs_every_batch_in_the_calling_process(monkeypatch, tmp_path):
    """One worker forks no child, and neither does any worker count where
    ``os.fork`` does not exist; the predictions are those of two workers."""
    params, vocab, examples = _batched_inputs()
    want = predict_spans(params, vocab, examples, max_answer_len=4, batch_size=16, workers=2)
    forward, log = evaluation.forward, ProcessLog(tmp_path / "batches")

    def recording_forward(params, ids, segs, mask, *, workspace):
        log.add(ids.shape[1])
        return forward(params, ids, segs, mask, workspace=workspace)

    monkeypatch.setattr(evaluation, "forward", recording_forward)
    assert predict_spans(params, vocab, examples, max_answer_len=4, batch_size=16, workers=1) == want
    monkeypatch.delattr(os, "fork")
    assert predict_spans(params, vocab, examples, max_answer_len=4, batch_size=16, workers=2) == want
    assert list(log.by_process()) == [os.getpid()]


@pytest.mark.parametrize("workers", [1, 3])
def test_each_process_packs_and_scores_the_examples_of_its_own_share(monkeypatch, tmp_path, workers):
    """The calling process only counts packed widths. Each process packs the
    rows of its own share's batches, and ``evaluate`` scores each example in
    the process that decoded it: every example is packed and scored once.
    The report is ``score_examples`` over ``predict_spans``, bit for bit."""
    params, vocab, examples = _batched_inputs()
    want = score_examples(examples, predict_spans(params, vocab, examples, max_answer_len=4, batch_size=16, workers=1))
    log, ids_of = ProcessLog(tmp_path / "events"), {ex.context: ex.qa_id for ex in examples}
    pack_qa, forward, score = evaluation.pack_qa, evaluation.forward, evaluation._score

    def recording_pack_qa(question, context, vocab, max_len):
        log.add("pack", ids_of[context])
        return pack_qa(question, context, vocab, max_len)

    def recording_forward(params, ids, segs, mask, *, workspace):
        log.add("forward", len(ids))
        return forward(params, ids, segs, mask, workspace=workspace)

    def recording_score(ex, prediction):
        log.add("score", ex.qa_id)
        return score(ex, prediction)

    monkeypatch.setattr(evaluation, "pack_qa", recording_pack_qa)
    monkeypatch.setattr(evaluation, "forward", recording_forward)
    monkeypatch.setattr(evaluation, "_score", recording_score)
    report = evaluate(params, vocab, examples, max_answer_len=4, batch_size=16, workers=workers)
    assert json.dumps(report.to_dict()) == json.dumps(want.to_dict())
    assert json.dumps(report.predictions) == json.dumps(want.predictions)
    processes = log.by_process()
    assert len(processes) == workers and os.getpid() in processes
    packed = []
    for lines in processes.values():
        own = [qa_id for event, qa_id in lines if event == "pack"]
        assert sorted(own) == sorted(qa_id for event, qa_id in lines if event == "score")
        assert len(own) == sum(int(rows) for event, rows in lines if event == "forward")
        packed += own
    assert sorted(packed) == sorted(ex.qa_id for ex in examples)


@pytest.mark.parametrize("workers", [1, 2])
def test_each_batch_thread_keeps_its_own_workspace_and_decodes_new_logits(monkeypatch, tmp_path, workers):
    """Each process that runs batches, the caller and every forked child,
    runs them on one thread and passes ``forward`` one workspace on every
    batch, which that process made for this call; and the logits it decodes
    share no memory with any array a workspace handed out, so no batch can
    overwrite another's logits."""
    params, vocab, examples = _batched_inputs()
    log, taken = ProcessLog(tmp_path / "events"), []
    forward, decode_span = evaluation.forward, evaluation.decode_span

    class RecordingWorkspace(evaluation.Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            log.add("made", id(self))

        def take(self, key, shape, *args):
            array = super().take(key, shape, *args)
            taken.append(array)
            return array

    def recording_forward(params, ids, segs, mask, *, workspace):
        log.add("forward", id(workspace), type(workspace).__name__, threading.get_ident())
        return forward(params, ids, segs, mask, workspace=workspace)

    def recording_decode(start_logits, end_logits, max_answer_len):
        log.add("decode", any(np.shares_memory(logits, array) for logits in (start_logits, end_logits)
                              for array in taken))
        return decode_span(start_logits, end_logits, max_answer_len)

    monkeypatch.setattr(evaluation, "Workspace", RecordingWorkspace)
    monkeypatch.setattr(evaluation, "forward", recording_forward)
    monkeypatch.setattr(evaluation, "decode_span", recording_decode)
    predict_spans(params, vocab, examples, max_answer_len=4, batch_size=16, workers=workers)
    processes = log.by_process()
    assert len(processes) == workers and os.getpid() in processes
    forwards = 0
    for lines in processes.values():
        made = [ws for event, ws, *_ in lines if event == "made"]
        runs = [rest for event, *rest in lines if event == "forward"]
        decoded = [shared for event, shared in (line[:2] for line in lines) if event == "decode"]
        assert len(made) == 1 and runs and decoded
        assert {(ws, kind) for ws, kind, _ in runs} == {(made[0], "RecordingWorkspace")}
        assert len({thread for *_, thread in runs}) == 1
        assert set(decoded) == {"False"}
        forwards += len(runs)
    assert forwards > workers


@pytest.mark.parametrize("workers", [1, 2])
def test_batches_run_longest_first_and_each_workspace_key_grows_once(monkeypatch, tmp_path, workers):
    """predict_spans runs its planned batches longest first within each
    process's share. Every batch's hidden states, and so every prediction,
    are bitwise those of running the planned batches one by one in plan
    order. Here every batch has ``batch_size`` rows, so the first batch a
    share runs is its largest in every array, and the share's one workspace
    allocates each key once."""
    words = "alpha beta gamma delta epsilon zeta eta theta question"
    vocab = build_vocab([words], max_size=64)
    config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=16, d_ff=32, max_len=64, dropout=0.0)
    params = init_params(config, seed=6)
    for tensor in params.tensors.values():
        tensor *= 10.0
    tokens = words.split()[:8]
    examples = [QAExample(str(i), "question", " ".join((tokens * 4)[i % 8 : i % 8 + 2 + i % 9]),
                          ((tokens[i % 8], 0),), "en", "en") for i in range(36)]
    batch_size = 4
    lengths = [len(pack_qa(ex.question, ex.context, vocab, config.max_len).input_ids) for ex in examples]
    assert batch_size * max(lengths) <= evaluation._BATCH_TOKENS  # every batch has batch_size rows
    order = sorted(range(len(examples)), key=lengths.__getitem__)
    plan = [order[lo : lo + batch_size] for lo in range(0, len(order), batch_size)]
    planned = [lengths[chunk[-1]] for chunk in plan]
    assert len(set(planned)) > 3
    log, forward = ProcessLog(tmp_path / "events"), evaluation.forward

    class CountingWorkspace(evaluation.Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            self.addresses = {}

        def take(self, key, shape, *args):
            array = super().take(key, shape, *args)
            address = array.__array_interface__["data"][0]
            if self.addresses.get(key) != address:  # a new buffer, made while the old one is still held
                self.addresses[key] = address
                log.add("new", id(self), key)
            return array

    def recording_forward(params, ids, segs, mask, *, workspace):
        h = forward(params, ids, segs, mask, workspace=workspace)
        log.add("forward", ids.shape[1], hashlib.sha256(ids.tobytes()).hexdigest(),
                hashlib.sha256(h.tobytes()).hexdigest())
        return h

    monkeypatch.setattr(evaluation, "Workspace", CountingWorkspace)
    monkeypatch.setattr(evaluation, "forward", recording_forward)
    one_by_one = {}
    for chunk in plan:  # each planned batch alone, in plan order: the same rows and pad width
        one_by_one.update(zip(chunk, predict_spans(params, vocab, [examples[i] for i in chunk], max_answer_len=4,
                                                   batch_size=batch_size, workers=1)))
    alone = {line[2]: line[3] for line in log.by_process()[os.getpid()] if line[0] == "forward"}  # ids -> hidden
    assert len(alone) == len(plan)
    log.clear()
    predictions = predict_spans(params, vocab, examples, max_answer_len=4, batch_size=batch_size, workers=workers)
    assert predictions == [one_by_one[i] for i in range(len(examples))]
    processes = log.by_process()
    assert len(processes) == workers and os.getpid() in processes
    widths = []
    for lines in processes.values():
        runs = [rest for event, *rest in lines if event == "forward"]
        assert all(alone[ids] == h for _, ids, h in runs)
        share = [int(width) for width, _, _ in runs]
        assert share == sorted(share, reverse=True)
        widths += share
        allocations = Counter((ws, key) for event, ws, key in (line[:3] for line in lines) if event == "new")
        assert len({ws for ws, _ in allocations}) == 1 and set(allocations.values()) == {1}
    assert sorted(widths) == sorted(planned)


def test_predict_spans_batches_after_the_first_allocate_no_per_token_arrays(monkeypatch):
    """With every batch of one shape and one worker, the first batch fills
    the thread's workspace and later batches reuse it: the memory a batch
    adds at its peak (numpy reports its data buffers to tracemalloc) stays
    far below one (B * L, d_ff) FFN array, of which a forward that allocates
    per call makes several per layer."""
    words = "alpha beta gamma delta epsilon zeta eta theta question"
    vocab = build_vocab([words], max_size=64)
    config = ModelConfig(vocab_size=len(vocab), n_layers=2, n_heads=2, d_model=32, d_ff=1024, max_len=64,
                         dropout=0.0)
    params = init_params(config, seed=0)
    context = " ".join(words.split()[:8] * 2)
    examples = [QAExample(str(i), "question", context, (("alpha", 0),), "en", "en") for i in range(40)]
    (width,) = {len(pack_qa(ex.question, ex.context, vocab, config.max_len).input_ids) for ex in examples}
    batch_size = 8
    assert batch_size * width <= evaluation._BATCH_TOKENS  # every batch has batch_size rows
    growth, window, forward = [], {}, evaluation.forward

    def measured_forward(*args, **kwargs):  # a batch starts here
        if "start" in window:
            growth.append(tracemalloc.get_traced_memory()[1] - window["start"])
        tracemalloc.reset_peak()
        window["start"] = tracemalloc.get_traced_memory()[0]
        return forward(*args, **kwargs)

    monkeypatch.setattr(evaluation, "forward", measured_forward)
    tracemalloc.start()
    try:
        predictions = predict_spans(params, vocab, examples, max_answer_len=4, batch_size=batch_size, workers=1)
        growth.append(tracemalloc.get_traced_memory()[1] - window["start"])
    finally:
        tracemalloc.stop()
    assert all(pred in context for pred in predictions)
    assert len(growth) == len(examples) // batch_size == 5
    one_ffn = batch_size * width * config.d_ff * 8
    assert growth[0] > one_ffn  # the first batch fills the workspace
    assert max(growth[1:]) < one_ffn / 8, (growth, one_ffn)


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
        # One worker: tracemalloc sees only this process, so every batch runs here.
        predictions = predict_spans(params, vocab, examples, max_answer_len=30, batch_size=32, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(pred in ex.context for pred, ex in zip(predictions, examples))
    assert peak < whole_batch_scores / 2, f"peak {peak / 1e6:.1f} MB"
