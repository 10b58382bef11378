import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa.assembler import assemble_k1, assemble_k2, assemble_k3
from kiqa.errors import ConfigError, QuestionTooLongError, RenderOverflowError
from kiqa.textmodel import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocab,
    build_vocab,
    load_vocab,
    pack_qa,
    pad_batch,
    render,
    save_vocab,
    tokenize,
    tokenize_with_offsets,
)


# ------------------------------------------------------------------ tokenize


def test_tokenize_whitespace_lowercase():
    assert tokenize("Kevin Durant") == ["kevin", "durant"]


def test_tokenize_cjk_per_character():
    assert tokenize("篮球运动员") == ["篮", "球", "运", "动", "员"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_drops_punctuation():
    assert tokenize("The Pedigree!") == ["the", "pedigree"]
    assert tokenize("篮球运动员。") == ["篮", "球", "运", "动", "员"]


def test_tokenize_mixed_scripts():
    assert tokenize("凯文杜兰特 is a player") == ["凯", "文", "杜", "兰", "特", "is", "a", "player"]


def test_tokenize_digits_in_words():
    assert tokenize("xlm-r 100 languages") == ["xlm", "r", "100", "languages"]


@settings(max_examples=200)
@given(st.text(max_size=40))
def test_offsets_reproduce_substrings(text):
    for tok, start, end in tokenize_with_offsets(text):
        assert 0 <= start < end <= len(text)
        assert text[start:end].lower() == tok


@settings(max_examples=100)
@given(st.text(max_size=40))
def test_offsets_monotone(text):
    spans = [(s, e) for _, s, e in tokenize_with_offsets(text)]
    assert spans == sorted(spans)
    for (_, e1), (s2, _) in zip(spans, spans[1:]):
        assert e1 <= s2


# --------------------------------------------------------------------- vocab


def test_build_vocab_frequency_and_ties():
    vocab = build_vocab(["a b", "b c"], max_size=8)
    assert vocab.tokens == SPECIAL_TOKENS + ("b", "a", "c")


def test_build_vocab_empty_stream():
    assert build_vocab([], max_size=32).tokens == SPECIAL_TOKENS


def test_build_vocab_specials_only():
    vocab = build_vocab(["some words here"], max_size=5)
    assert vocab.tokens == SPECIAL_TOKENS
    assert vocab.id("some") == UNK_ID


def test_build_vocab_max_size_too_small():
    with pytest.raises(ConfigError):
        build_vocab(["x"], max_size=4)


def test_vocab_bijection():
    vocab = build_vocab(["one two three two"], max_size=10)
    for i, tok in enumerate(vocab.tokens):
        assert vocab.id(tok) == i


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab(["alpha beta gamma beta"], max_size=12)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    assert load_vocab(path) == vocab


def test_vocab_rejects_bad_specials():
    with pytest.raises(ConfigError):
        Vocab(tokens=("[PAD]", "[UNK]", "x", "[SEP]", "[MASK]"))


# -------------------------------------------------------------------- render


@pytest.fixture
def en_vocab(tiny_kb):
    texts = [form for e in tiny_kb.entities.values() for form in e.forms.values()]
    texts += [form for r in tiny_kb.relations.values() for form in r.forms.values()]
    return build_vocab(texts, max_size=64)


def test_render_k1_multi_token_target(tiny_kb, en_vocab):
    tail_masked, head_masked = assemble_k1(tiny_kb, tiny_kb.triples[0], "en")
    out = render(tail_masked, en_vocab, max_len=32)
    kevin, durant = en_vocab.id("kevin"), en_vocab.id("durant")
    is_, a = en_vocab.id("is"), en_vocab.id("a")
    basketball, player = en_vocab.id("basketball"), en_vocab.id("player")
    assert out.input_ids == [CLS_ID, kevin, durant, is_, a, MASK_ID, MASK_ID, SEP_ID]
    assert out.mask_positions == [5, 6]
    assert out.target_ids == [basketball, player]
    assert out.segment_ids == [0] * 8

    out_head = render(head_masked, en_vocab, max_len=32)
    assert out_head.input_ids == [CLS_ID, MASK_ID, MASK_ID, is_, a, basketball, player, SEP_ID]
    assert out_head.target_ids == [kevin, durant]


def test_render_single_token_target(tiny_kb, en_vocab):
    tail_masked, _ = assemble_k1(tiny_kb, tiny_kb.triples[2], "en")  # tail "Texas"
    out = render(tail_masked, en_vocab, max_len=32)
    assert out.input_ids.count(MASK_ID) == 1
    assert len(out.mask_positions) == 1


def test_render_k3_blocks_and_segments(tiny_kb, en_vocab):
    head_masked, tail_masked = assemble_k3(tiny_kb, tiny_kb.triples[0], "en", "zh")
    out = render(tail_masked, en_vocab, max_len=48)
    # [CLS] kevin durant is a [M][M] [SEP] 凯文杜兰特 是 [M]*5 [SEP]
    seps = [i for i, t in enumerate(out.input_ids) if t == SEP_ID]
    assert len(seps) == 2 and seps[1] == len(out.input_ids) - 1
    assert all(s == 0 for s in out.segment_ids[: seps[0] + 1])
    assert all(s == 1 for s in out.segment_ids[seps[0] + 1 :])
    assert len(out.mask_positions) == 2 + 5  # "basketball player" + 篮球运动员
    assert out.input_ids[0] == CLS_ID


def test_render_k2_segments_all_zero(tiny_kb, en_vocab):
    head_swap, tail_swap = assemble_k2(tiny_kb, tiny_kb.triples[0], "zh", "en")
    out = render(tail_swap, en_vocab, max_len=32)
    assert set(out.segment_ids) == {0}
    assert out.target_ids == [en_vocab.id("basketball"), en_vocab.id("player")]


def test_render_mask_positions_hold_mask_id(tiny_kb, en_vocab):
    for sample in assemble_k3(tiny_kb, tiny_kb.triples[0], "en", "zh"):
        out = render(sample, en_vocab, max_len=48)
        for pos in out.mask_positions:
            assert out.input_ids[pos] == MASK_ID
        assert len(out.mask_positions) == len(out.target_ids)


def test_render_overflow(tiny_kb, en_vocab):
    sample = assemble_k1(tiny_kb, tiny_kb.triples[0], "en")[0]
    with pytest.raises(RenderOverflowError):
        render(sample, en_vocab, max_len=4)
    # The bound is inclusive: a sample fits a window of exactly its own length.
    n = len(render(sample, en_vocab, max_len=10**6).input_ids)
    assert len(render(sample, en_vocab, max_len=n).input_ids) == n
    with pytest.raises(RenderOverflowError):
        render(sample, en_vocab, max_len=n - 1)


# ------------------------------------------------------------------- pack_qa


def test_pack_qa_layout():
    vocab = build_vocab(["who kevin durant plays"], max_size=16)
    out = pack_qa("who", "kevin durant plays", vocab, max_len=16)
    ids = out.input_ids
    assert len(ids) == 7
    assert ids[0] == CLS_ID
    assert ids[1] == vocab.id("who")
    assert ids[2] == SEP_ID
    assert ids[3:6] == [vocab.id("kevin"), vocab.id("durant"), vocab.id("plays")]
    assert ids[6] == SEP_ID
    assert out.segment_ids == [0, 0, 0, 1, 1, 1, 1]
    assert out.context_positions == [3, 4, 5]


def test_pack_qa_offsets_point_into_context():
    vocab = build_vocab(["who kevin durant plays"], max_size=16)
    context = "Kevin Durant plays."
    out = pack_qa("who", context, vocab, max_len=16)
    texts = [context[s:e] for s, e in (out.context_token_offsets[p] for p in out.context_positions)]
    assert texts == ["Kevin", "Durant", "plays"]


def test_pack_qa_truncates_context_keeps_sep():
    vocab = build_vocab(["w a b c d e f g"], max_size=16)
    out = pack_qa("w", "a b c d e f g", vocab, max_len=8)
    # budget = 8 - 1 - 3 = 4 context tokens
    assert len(out.context_positions) == 4
    assert len(out.input_ids) == 8
    assert out.input_ids[-1] == SEP_ID


def test_pack_qa_question_too_long():
    vocab = build_vocab(["a b c d e"], max_size=16)
    with pytest.raises(QuestionTooLongError):
        pack_qa("a b c d e", "ctx", vocab, max_len=8)


def test_pack_qa_empty_context():
    vocab = build_vocab(["who"], max_size=8)
    out = pack_qa("who", "", vocab, max_len=8)
    assert out.context_positions == []
    assert out.input_ids[:4] == [CLS_ID, vocab.id("who"), SEP_ID, SEP_ID]


@settings(max_examples=100)
@given(st.text(max_size=20), st.text(max_size=60))
def test_pack_qa_segment_invariants(question, context):
    vocab = build_vocab([question, context], max_size=64)
    try:
        out = pack_qa(question, context, vocab, max_len=32)
    except QuestionTooLongError:
        return
    assert len(out.input_ids) == len(tokenize(question)) + len(out.context_positions) + 3 <= 32
    assert len(out.segment_ids) == len(out.input_ids)
    assert set(out.segment_ids) <= {0, 1}
    assert PAD_ID not in out.input_ids


def test_pad_batch_layout():
    ids, segs, mask = pad_batch([([CLS_ID, 7, SEP_ID], [0, 1, 1]), ([CLS_ID], [0])])
    assert ids.dtype == np.int64 and segs.dtype == np.int64 and mask.dtype == np.float64
    assert ids.tolist() == [[CLS_ID, 7, SEP_ID], [CLS_ID, PAD_ID, PAD_ID]]
    assert segs.tolist() == [[0, 1, 1], [0, 0, 0]]
    assert mask.tolist() == [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]
