import pytest

from kiqa.errors import ConfigError, InfeasibleCountError
from kiqa.kb import surface, triples_renderable
from kiqa.synthlang import Lexicon, SynthSpec, gen_kb, gen_language, gen_qa
from kiqa.textmodel import tokenize


BASE = ["tavon", "brik", "selu", "mopa", "zen", "kuri", "vasta", "nilo", "pechu", "gor"]


def spec(**kwargs):
    defaults = dict(
        n_entities=40, n_relations=6, n_triples=120, languages=("syn0", "syn1"),
        n_qa_per_lang_pair=6, n_qa_train=10, seed=11,
    )
    defaults.update(kwargs)
    return SynthSpec(**defaults)


# ------------------------------------------------------------------ lexicons


def test_pivot_is_identity():
    lex = gen_language(3, "syn0", BASE, pivot=True)
    assert lex.mapping == {t: t for t in BASE}


def test_lexicon_deterministic():
    a = gen_language(3, "syn1", BASE)
    b = gen_language(3, "syn1", BASE)
    assert a == b


def test_lexicons_differ_across_languages():
    base = [f"w{i}tok{i % 7}ab" for i in range(100)]
    a = gen_language(5, "syn1", base)
    b = gen_language(5, "syn2", base)
    differing = sum(a.mapping[t] != b.mapping[t] for t in base)
    assert differing >= 90


def test_lexicon_is_bijection():
    lex = gen_language(9, "syn1", BASE)
    surfaces = list(lex.mapping.values())
    assert len(set(surfaces)) == len(surfaces)


def test_lexicon_respects_forbidden():
    lex = gen_language(9, "syn1", BASE, forbidden=set(BASE))
    assert not set(lex.mapping.values()) & set(BASE)


def test_lexicon_collision_rejected():
    with pytest.raises(Exception):
        Lexicon(lang="x", mapping={"a": "z", "b": "z"})


def test_base_tokens_must_be_unique():
    with pytest.raises(ConfigError):
        gen_language(1, "syn1", ["dup", "dup"])


# ------------------------------------------------------------------- gen_kb


def test_gen_kb_valid_and_fully_renderable():
    s = spec()
    kb = gen_kb(s)
    assert len(kb.entities) == 40
    assert len(kb.relations) == 6
    assert len(kb.triples) == 120
    assert kb.languages == set(s.languages)
    assert len(triples_renderable(kb, s.languages)) == 120


def test_gen_kb_deterministic():
    assert gen_kb(spec()) == gen_kb(spec())
    assert gen_kb(spec()) != gen_kb(spec(seed=12))


def test_gen_kb_infeasible_count():
    with pytest.raises(InfeasibleCountError):
        gen_kb(spec(n_entities=2, n_relations=1, n_triples=5))


def test_gen_kb_entity_name_lengths():
    kb = gen_kb(spec())
    for e in kb.entities.values():
        assert 1 <= len(e.forms["syn0"].split()) <= 2
    for r in kb.relations.values():
        assert len(r.forms["syn0"].split()) == 1


def test_gen_kb_languages_disjoint_token_sets():
    kb = gen_kb(spec())
    toks = {lang: set() for lang in ("syn0", "syn1")}
    for coll in (kb.entities, kb.relations):
        for item in coll.values():
            for lang in toks:
                toks[lang].update(item.forms[lang].split())
    assert not toks["syn0"] & toks["syn1"]


def test_spec_validation():
    with pytest.raises(ConfigError):
        spec(languages=("only",))
    with pytest.raises(ConfigError):
        spec(languages=("a", "a"))
    with pytest.raises(ConfigError):
        spec(n_triples=0)
    with pytest.raises(ConfigError, match="invalid language tag 'EN'"):  # a tag the KB loader refuses
        spec(languages=("EN", "ZH"))


# -------------------------------------------------------------------- gen_qa


def test_gen_qa_refuses_a_kb_with_fewer_head_relation_pairs_than_a_context_holds():
    """A context states N_DISTRACTORS + 1 = 5 facts of distinct (head,
    relation) pairs; 2 entities and 1 relation give only 2 such pairs."""
    s = spec(n_entities=2, n_relations=1, n_triples=4)
    kb = gen_kb(s)
    assert len({(t.head, t.rel) for t in kb.triples}) == 2
    with pytest.raises(InfeasibleCountError, match="need 5 distinct .* the KB has 2"):
        gen_qa(s, kb)


def test_gen_qa_shapes_and_ids():
    s = spec()
    kb = gen_kb(s)
    train, test = gen_qa(s, kb)
    train_qas = [qa for p in train["data"][0]["paragraphs"] for qa in p["qas"]]
    assert len(train_qas) == 10
    assert all(qa["context_lang"] == "syn0" and qa["question_lang"] == "syn0" for qa in train_qas)
    assert set(test) == {(c, q) for c in s.languages for q in s.languages}
    for (c, q), payload in test.items():
        qas = [qa for p in payload["data"][0]["paragraphs"] for qa in p["qas"]]
        assert len(qas) == 6
        assert all(qa["context_lang"] == c and qa["question_lang"] == q for qa in qas)


def test_gen_qa_answers_point_at_context():
    s = spec()
    kb = gen_kb(s)
    train, test = gen_qa(s, kb)
    for payload in [train] + list(test.values()):
        for para in payload["data"][0]["paragraphs"]:
            for qa in para["qas"]:
                for ans in qa["answers"]:
                    text, start = ans["text"], ans["answer_start"]
                    assert para["context"][start : start + len(text)] == text


def test_gen_qa_target_pair_unique_in_context():
    """The questioned (head, rel) surface sequence occurs exactly once."""
    s = spec()
    kb = gen_kb(s)
    _, test = gen_qa(s, kb)
    payload = test[("syn0", "syn0")]
    for para in payload["data"][0]["paragraphs"]:
        question = para["qas"][0]["question"]
        pair_text = question.rstrip(" ?")
        context_tokens = tokenize(para["context"])
        pair_tokens = tokenize(pair_text)
        n = len(pair_tokens)
        hits = sum(
            context_tokens[i : i + n] == pair_tokens
            for i in range(len(context_tokens) - n + 1)
        )
        assert hits == 1


def test_gen_qa_cross_pair_token_disjointness():
    """Questions in the other language share no tokens with the context."""
    s = spec()
    kb = gen_kb(s)
    _, test = gen_qa(s, kb)
    payload = test[("syn1", "syn0")]
    for para in payload["data"][0]["paragraphs"]:
        q_tokens = set(tokenize(para["qas"][0]["question"]))
        c_tokens = set(tokenize(para["context"]))
        assert not q_tokens & c_tokens


def test_gen_qa_answer_in_context_language():
    s = spec()
    kb = gen_kb(s)
    _, test = gen_qa(s, kb)
    payload = test[("syn1", "syn0")]
    for para in payload["data"][0]["paragraphs"]:
        answer = para["qas"][0]["answers"][0]["text"]
        entity_forms = {e.forms["syn1"] for e in kb.entities.values()}
        assert answer in entity_forms


def test_gen_qa_deterministic():
    s = spec()
    kb = gen_kb(s)
    assert gen_qa(s, kb) == gen_qa(s, kb)


def test_gen_qa_contexts_have_five_facts():
    s = spec()
    kb = gen_kb(s)
    train, _ = gen_qa(s, kb)
    for para in train["data"][0]["paragraphs"]:
        assert para["context"].count(".") == 5
