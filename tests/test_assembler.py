import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa.assembler import (
    MaskedSample,
    SampleKind,
    assemble_k1,
    assemble_k2,
    assemble_k3,
    build_corpus,
    load_corpus,
    save_corpus,
)
from kiqa.errors import (
    ConfigError,
    InsufficientTriplesError,
    KBParseError,
    MissingFormError,
    SameLanguageError,
    ZeroWeightsError,
)
from kiqa.kb import Entity, Relation, Triple, build_kb


def validate_sample(s: MaskedSample) -> None:
    """The per-kind structure of a sample's pieces: which slot is masked,
    and in which language each piece is."""
    n_blocks = 2 if s.kind is SampleKind.K3 else 1
    assert len(s.pieces) == 3 * n_blocks
    head = s.pieces[0].masked
    assert [p.masked for p in s.pieces] == [head, False, not head] * n_blocks, "head or tail, same slot per block"
    langs = [p.lang for p in s.pieces]
    if s.kind is SampleKind.K1:
        assert len(set(langs)) == 1
    elif s.kind is SampleKind.K3:
        assert len(set(langs[:3])) == 1 and len(set(langs[3:])) == 1 and langs[0] != langs[3]
    else:  # K2: the masked piece alone is in language j
        assert head == (s.kind is SampleKind.K2_HEAD_SWAP)
        visible = {p.lang for p in s.pieces if not p.masked}
        masked = {p.lang for p in s.pieces if p.masked}
        assert len(visible) == 1 and len(masked) == 1 and visible != masked


def masked_texts(s: MaskedSample) -> list[str]:
    return [p.text for p in s.pieces if p.masked]


def test_k1_samples(tiny_kb):
    t = tiny_kb.triples[0]
    tail_masked, head_masked = assemble_k1(tiny_kb, t, "en")
    for s in (tail_masked, head_masked):
        assert [p.text for p in s.pieces] == ["Kevin Durant", "is a", "Basketball Player"]
    assert [p.masked for p in tail_masked.pieces] == [False, False, True]
    assert [p.masked for p in head_masked.pieces] == [True, False, False]
    for s in (tail_masked, head_masked):
        validate_sample(s)
        assert s.kind is SampleKind.K1
        assert all(p.lang == "en" for p in s.pieces)


def test_k1_zh(tiny_kb):
    tail_masked, head_masked = assemble_k1(tiny_kb, tiny_kb.triples[0], "zh")
    assert [p.text for p in tail_masked.pieces] == ["凯文杜兰特", "是", "篮球运动员"]
    assert masked_texts(tail_masked) == ["篮球运动员"]
    assert masked_texts(head_masked) == ["凯文杜兰特"]


def test_k1_self_loop():
    kb = build_kb(
        {"E": Entity("E", {"en": "thing"})},
        {"R": Relation("R", {"en": "relates to"})},
        [Triple("E", "R", "E")],
    )
    tail_masked, head_masked = assemble_k1(kb, kb.triples[0], "en")
    assert [p.masked for p in tail_masked.pieces] == [False, False, True]
    assert [p.masked for p in head_masked.pieces] == [True, False, False]
    assert masked_texts(tail_masked) == masked_texts(head_masked) == ["thing"]


def test_k1_missing_form(tiny_kb):
    with pytest.raises(MissingFormError):
        assemble_k1(tiny_kb, tiny_kb.triples[2], "zh")  # Q4 has no zh form


def test_k2_samples(tiny_kb):
    t = tiny_kb.triples[0]
    head_swap, tail_swap = assemble_k2(tiny_kb, t, "zh", "en")
    assert head_swap.kind is SampleKind.K2_HEAD_SWAP
    assert [p.masked for p in head_swap.pieces] == [True, False, False]
    assert [p.text for p in tail_swap.pieces] == ["凯文杜兰特", "是", "Basketball Player"]
    assert [p.masked for p in tail_swap.pieces] == [False, False, True]
    assert tail_swap.kind is SampleKind.K2_TAIL_SWAP
    # visible pieces in lang i, masked slot carrying the lang j target
    assert masked_texts(head_swap) == ["Kevin Durant"]
    assert [p.lang for p in head_swap.pieces] == ["en", "zh", "zh"]
    for s in (head_swap, tail_swap):
        validate_sample(s)


def test_k2_reverse_direction(tiny_kb):
    head_swap, _ = assemble_k2(tiny_kb, tiny_kb.triples[0], "en", "zh")
    assert masked_texts(head_swap) == ["凯文杜兰特"]
    assert [p.text for p in head_swap.pieces] == ["凯文杜兰特", "is a", "Basketball Player"]


def test_k2_same_language_error(tiny_kb):
    with pytest.raises(SameLanguageError):
        assemble_k2(tiny_kb, tiny_kb.triples[0], "en", "en")


def test_k3_samples(tiny_kb):
    head_masked, tail_masked = assemble_k3(tiny_kb, tiny_kb.triples[0], "en", "zh")
    texts = ["Kevin Durant", "is a", "Basketball Player", "凯文杜兰特", "是", "篮球运动员"]
    for s in (head_masked, tail_masked):
        assert [p.text for p in s.pieces] == texts
        assert [p.lang for p in s.pieces] == ["en", "en", "en", "zh", "zh", "zh"]
    assert [p.masked for p in tail_masked.pieces] == [False, False, True] * 2
    assert [p.masked for p in head_masked.pieces] == [True, False, False] * 2
    for s in (head_masked, tail_masked):
        validate_sample(s)
        assert len(s.pieces) == 6


def test_k3_same_language_error(tiny_kb):
    with pytest.raises(SameLanguageError):
        assemble_k3(tiny_kb, tiny_kb.triples[0], "zh", "zh")


def test_k2_k3_targets_co_refer(tiny_kb):
    """All targets of one sample are surface forms of the same entity."""
    t = tiny_kb.triples[0]
    for sample in assemble_k2(tiny_kb, t, "en", "zh") + assemble_k3(tiny_kb, t, "en", "zh"):
        ent_id = t.head if sample.pieces[0].masked else t.tail
        forms = tiny_kb.entities[ent_id].forms
        for target in masked_texts(sample):
            assert target in forms.values()


def test_k1_unmask_round_trip(tiny_kb):
    for t in tiny_kb.triples[:2]:
        for lang in ("en", "zh"):
            for sample in assemble_k1(tiny_kb, t, lang):
                assert [p.text for p in sample.pieces] == [
                    tiny_kb.entities[t.head].forms[lang],
                    tiny_kb.relations[t.rel].forms[lang],
                    tiny_kb.entities[t.tail].forms[lang],
                ]


# -------------------------------------------------------------- build_corpus


def test_corpus_k1_only(tiny_kb):
    corpus = build_corpus(tiny_kb, {"en"}, 3, (1, 0, 0), seed=5)
    assert len(corpus) == 6
    assert all(s.kind is SampleKind.K1 for s in corpus)
    assert all(p.lang == "en" for s in corpus for p in s.pieces)


def test_corpus_deterministic(tiny_kb):
    a = build_corpus(tiny_kb, {"en", "zh"}, 2, (1, 1, 1), seed=9)
    b = build_corpus(tiny_kb, {"en", "zh"}, 2, (1, 1, 1), seed=9)
    assert a == b
    c = build_corpus(tiny_kb, {"en", "zh"}, 2, (1, 1, 1), seed=10)
    assert a != c  # overwhelmingly likely under any draw


def test_corpus_both_variants_of_each_triple(tiny_kb):
    corpus = build_corpus(tiny_kb, {"en"}, 3, (1, 0, 0), seed=5)
    head_masked = Counter((s.source_triple.tail, s.pieces[0].masked) for s in corpus)
    for t in tiny_kb.triples:
        assert head_masked[(t.tail, True)] == 1
        assert head_masked[(t.tail, False)] == 1


def test_corpus_insufficient_triples(tiny_kb):
    with pytest.raises(InsufficientTriplesError):
        build_corpus(tiny_kb, {"en", "zh"}, 3, (1, 1, 1), seed=1)  # only 2 renderable in both


def test_corpus_zero_weights(tiny_kb):
    with pytest.raises(ZeroWeightsError):
        build_corpus(tiny_kb, {"en"}, 1, (0, 0, 0), seed=1)


def test_corpus_negative_weight(tiny_kb):
    with pytest.raises(ConfigError):
        build_corpus(tiny_kb, {"en"}, 1, (1, -1, 1), seed=1)


def test_corpus_k2_needs_two_languages(tiny_kb):
    with pytest.raises(ConfigError):
        build_corpus(tiny_kb, {"en"}, 1, (1, 1, 0), seed=1)


def test_corpus_k2_language_bookkeeping(tiny_kb):
    """With weights (0,1,0) visible pieces are monolingual and the target
    lang differs from the visible lang."""
    corpus = build_corpus(tiny_kb, {"en", "zh"}, 2, (0, 1, 0), seed=3)
    for s in corpus:
        visible_langs = {p.lang for p in s.pieces if not p.masked}
        masked_langs = {p.lang for p in s.pieces if p.masked}
        assert len(visible_langs) == 1
        assert len(masked_langs) == 1
        assert visible_langs != masked_langs


def test_corpus_save_load_round_trip(tiny_kb, tmp_path):
    corpus = build_corpus(tiny_kb, {"en", "zh"}, 2, (1, 1, 1), seed=4)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus
    # a second save is byte-identical
    path2 = tmp_path / "corpus2.jsonl"
    save_corpus(load_corpus(path), path2)
    assert path.read_bytes() == path2.read_bytes()


# A K3 line as corpus files written before samples dropped their derived fields
# hold it: ``targets``, ``mask_side``, ``langs`` and a per-piece ``role``.
OLD_FORMAT_K3_LINE = (
    '{"kind": "K3", "langs": ["en", "zh"], "mask_side": "TAIL", "pieces": ['
    '{"lang": "en", "masked": false, "role": "HEAD", "text": "Kevin Durant"}, '
    '{"lang": "en", "masked": false, "role": "REL", "text": "is a"}, '
    '{"lang": "en", "masked": true, "role": "TAIL", "text": "Basketball Player"}, '
    '{"lang": "zh", "masked": false, "role": "HEAD2", "text": "凯文杜兰特"}, '
    '{"lang": "zh", "masked": false, "role": "REL2", "text": "是"}, '
    '{"lang": "zh", "masked": true, "role": "TAIL2", "text": "篮球运动员"}], '
    '"targets": [[2, "Basketball Player"], [5, "篮球运动员"]], "triple": {"h": "Q1", "r": "P1", "t": "Q2"}}'
)


def test_corpus_load_ignores_old_format_keys(tiny_kb, tmp_path):
    old = tmp_path / "old.jsonl"
    old.write_text(OLD_FORMAT_K3_LINE + "\n", encoding="utf-8")
    _, tail_masked = assemble_k3(tiny_kb, tiny_kb.triples[0], "en", "zh")
    assert load_corpus(old) == [tail_masked]
    resaved = tmp_path / "resaved.jsonl"
    save_corpus(load_corpus(old), resaved)
    rec = json.loads(resaved.read_text(encoding="utf-8"))
    assert set(rec) == {"kind", "pieces", "triple"}
    assert all(set(p) == {"lang", "masked", "text"} for p in rec["pieces"])
    new = tmp_path / "new.jsonl"
    save_corpus([tail_masked], new)
    assert resaved.read_bytes() == new.read_bytes()


def test_corpus_load_rejects_bad_records(tiny_kb, tmp_path):
    corpus = build_corpus(tiny_kb, {"en", "zh"}, 2, (1, 0, 0), seed=4)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus[:1], path)
    good = json.loads(path.read_text(encoding="utf-8"))
    no_pieces = {k: v for k, v in good.items() if k != "pieces"}
    unflagged_piece = {**good, "pieces": [{"lang": "en", "text": "x"}, *good["pieces"][1:]]}
    int_text = {**good, "pieces": [{**good["pieces"][0], "text": 5}, *good["pieces"][1:]]}
    str_masked = {**good, "pieces": [{**good["pieces"][0], "masked": "no"}, *good["pieces"][1:]]}
    for bad in ("{not json", json.dumps(no_pieces), json.dumps(unflagged_piece), json.dumps({**good, "kind": "K9"}),
                json.dumps(int_text), json.dumps(str_masked)):
        path.write_text(json.dumps(good) + "\n\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(KBParseError, match=r"corpus\.jsonl:3"):
            load_corpus(path)


# ----------------------------------------------------------------- fuzzing


def _random_kb(rng: random.Random, n_langs: int = 3):
    langs = [f"l{i}" for i in range(n_langs)]
    entities = {}
    for i in range(rng.randint(2, 8)):
        forms = {
            lang: " ".join(rng.choice("abcdefg") + str(rng.randint(0, 9)) for _ in range(rng.randint(1, 2)))
            for lang in langs
        }
        entities[f"E{i}"] = Entity(f"E{i}", forms)
    relations = {
        f"R{i}": Relation(f"R{i}", {lang: f"r{i}{lang}" for lang in langs})
        for i in range(rng.randint(1, 3))
    }
    seen = set()
    triples = []
    for _ in range(rng.randint(1, 12)):
        key = (
            f"E{rng.randrange(len(entities))}",
            f"R{rng.randrange(len(relations))}",
            f"E{rng.randrange(len(entities))}",
        )
        if key not in seen:
            seen.add(key)
            triples.append(Triple(*key))
    return build_kb(entities, relations, triples)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=99))
def test_fuzzed_samples_satisfy_invariants(kb_seed, corpus_seed):
    rng = random.Random(kb_seed)
    kb = _random_kb(rng)
    n = min(len(kb.triples), 4)
    corpus = build_corpus(kb, {"l0", "l1", "l2"}, n, (1, 1, 1), seed=corpus_seed)
    assert len(corpus) == 2 * n
    for s in corpus:
        validate_sample(s)
