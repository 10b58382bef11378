import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa.assembler import (
    MaskSide,
    SampleKind,
    assemble_k1,
    assemble_k2,
    assemble_k3,
    build_corpus,
    load_corpus,
    save_corpus,
    unmasked_piece_texts,
    validate_sample,
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


def test_k1_samples(tiny_kb):
    t = tiny_kb.triples[0]
    tail_masked, head_masked = assemble_k1(tiny_kb, t, "en")
    assert tail_masked.mask_side is MaskSide.TAIL
    assert [p.text for p in tail_masked.pieces] == ["Kevin Durant", "is a", "Basketball Player"]
    assert [p.masked for p in tail_masked.pieces] == [False, False, True]
    assert tail_masked.targets == ((2, "Basketball Player"),)
    assert head_masked.mask_side is MaskSide.HEAD
    assert head_masked.targets == ((0, "Kevin Durant"),)
    for s in (tail_masked, head_masked):
        validate_sample(s)
        assert s.kind is SampleKind.K1
        assert all(p.lang == "en" for p in s.pieces)


def test_k1_zh(tiny_kb):
    tail_masked, head_masked = assemble_k1(tiny_kb, tiny_kb.triples[0], "zh")
    assert [p.text for p in tail_masked.pieces] == ["凯文杜兰特", "是", "篮球运动员"]
    assert tail_masked.targets == ((2, "篮球运动员"),)
    assert head_masked.targets == ((0, "凯文杜兰特"),)


def test_k1_self_loop():
    kb = build_kb(
        {"E": Entity("E", {"en": "thing"})},
        {"R": Relation("R", {"en": "relates to"})},
        [Triple("E", "R", "E")],
    )
    tail_masked, head_masked = assemble_k1(kb, kb.triples[0], "en")
    assert tail_masked.targets == ((2, "thing"),)
    assert head_masked.targets == ((0, "thing"),)


def test_k1_missing_form(tiny_kb):
    with pytest.raises(MissingFormError):
        assemble_k1(tiny_kb, tiny_kb.triples[2], "zh")  # Q4 has no zh form


def test_k2_samples(tiny_kb):
    t = tiny_kb.triples[0]
    head_swap, tail_swap = assemble_k2(tiny_kb, t, "zh", "en")
    assert head_swap.kind is SampleKind.K2_HEAD_SWAP
    assert head_swap.mask_side is MaskSide.HEAD
    assert [p.text for p in tail_swap.pieces] == ["凯文杜兰特", "是", "Basketball Player"]
    assert tail_swap.targets == ((2, "Basketball Player"),)
    assert tail_swap.kind is SampleKind.K2_TAIL_SWAP
    # visible pieces in lang i, masked slot carrying the lang j target
    assert head_swap.targets == ((0, "Kevin Durant"),)
    assert [p.lang for p in head_swap.pieces] == ["en", "zh", "zh"]
    for s in (head_swap, tail_swap):
        validate_sample(s)


def test_k2_reverse_direction(tiny_kb):
    head_swap, _ = assemble_k2(tiny_kb, tiny_kb.triples[0], "en", "zh")
    assert head_swap.targets == ((0, "凯文杜兰特"),)
    assert [p.text for p in head_swap.pieces] == ["凯文杜兰特", "is a", "Basketball Player"]


def test_k2_same_language_error(tiny_kb):
    with pytest.raises(SameLanguageError):
        assemble_k2(tiny_kb, tiny_kb.triples[0], "en", "en")


def test_k3_samples(tiny_kb):
    head_masked, tail_masked = assemble_k3(tiny_kb, tiny_kb.triples[0], "en", "zh")
    assert tail_masked.targets == ((2, "Basketball Player"), (5, "篮球运动员"))
    assert head_masked.targets == ((0, "Kevin Durant"), (3, "凯文杜兰特"))
    assert [p.lang for p in tail_masked.pieces] == ["en", "en", "en", "zh", "zh", "zh"]
    assert [p.role for p in tail_masked.pieces] == ["HEAD", "REL", "TAIL", "HEAD2", "REL2", "TAIL2"]
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
        ent_id = t.head if sample.mask_side is MaskSide.HEAD else t.tail
        forms = tiny_kb.entities[ent_id].forms
        for _, target in sample.targets:
            assert target in forms.values()


def test_k1_unmask_round_trip(tiny_kb):
    for t in tiny_kb.triples[:2]:
        for lang in ("en", "zh"):
            for sample in assemble_k1(tiny_kb, t, lang):
                texts = unmasked_piece_texts(sample)
                assert texts == [
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
    sides = Counter((s.source_triple.tail, s.mask_side) for s in corpus)
    for t in tiny_kb.triples:
        assert sides[(t.tail, MaskSide.HEAD)] == 1
        assert sides[(t.tail, MaskSide.TAIL)] == 1


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


def test_corpus_load_rejects_bad_records(tiny_kb, tmp_path):
    corpus = build_corpus(tiny_kb, {"en", "zh"}, 2, (1, 0, 0), seed=4)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus[:1], path)
    good = json.loads(path.read_text(encoding="utf-8"))
    no_side = {k: v for k, v in good.items() if k != "mask_side"}
    for bad_line in ("{not json", json.dumps(no_side), json.dumps({**good, "kind": "K9"})):
        path.write_text(json.dumps(good) + "\n\n" + bad_line + "\n", encoding="utf-8")
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
