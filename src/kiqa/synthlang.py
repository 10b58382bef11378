"""Deterministic synthetic parallel languages, KB, and template QA data.

Each synthetic language is a token-level cipher of a shared base lexicon
(seeded consonant/vowel/digit permutations), so cross-lingual alignment is a
real learnable mapping while the ground truth stays checkable. The first
language in a spec is the pivot and keeps the identity mapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError, InfeasibleCountError, LexiconCollisionError
from .kb import Entity, KnowledgeBase, Relation, Triple, build_kb, is_valid_lang, surface

_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiou"
_DIGITS = "0123456789"

# Fraction of entities with two-token names (the rest are single-token).
TWO_TOKEN_ENTITY_FRAC = 0.1
# Fraction of triples that are reflexive naming facts (head == tail); they
# anchor span supervision on the easy direct-match case.
SELF_LOOP_FRAC = 0.2
# Facts besides the target in each QA context.
N_DISTRACTORS = 4


@dataclass(frozen=True)
class Lexicon:
    lang: str
    mapping: dict[str, str]  # base token -> surface token

    def __post_init__(self):
        if len(set(self.mapping.values())) != len(self.mapping):
            raise LexiconCollisionError(f"lexicon for {self.lang!r} is not a bijection")


@dataclass(frozen=True)
class SynthSpec:
    n_entities: int
    n_relations: int
    n_triples: int
    languages: tuple[str, ...]
    n_qa_per_lang_pair: int
    n_qa_train: int
    seed: int

    def __post_init__(self):
        if min(self.n_entities, self.n_relations, self.n_triples, self.n_qa_per_lang_pair, self.n_qa_train) < 1:
            raise ConfigError("all synthetic counts must be positive")
        if len(self.languages) < 2:
            raise ConfigError("need at least two languages")
        if len(set(self.languages)) != len(self.languages):
            raise ConfigError("languages must be distinct")
        for lang in self.languages:
            if not is_valid_lang(lang):
                raise ConfigError(f"invalid language tag {lang!r}")
        if self.n_triples > self.n_entities * self.n_entities * self.n_relations:
            raise InfeasibleCountError(
                f"{self.n_triples} triples infeasible for {self.n_entities} entities x {self.n_relations} relations"
            )

    @property
    def pivot(self) -> str:
        return self.languages[0]


def _cipher_token(token: str, cmap: dict[str, str]) -> str:
    return "".join(cmap.get(ch, ch) for ch in token)


def gen_language(
    seed: int,
    lang: str,
    base_lexicon: Sequence[str],
    pivot: bool = False,
    forbidden: Iterable[str] = (),
) -> Lexicon:
    """Seeded re-spelling of every base token; identity for the pivot.

    Surfaces colliding with each other or with ``forbidden`` trigger a
    deterministic regeneration with a bumped salt.
    """
    if len(set(base_lexicon)) != len(base_lexicon):
        raise ConfigError("base lexicon tokens must be unique")
    if pivot:
        return Lexicon(lang=lang, mapping={t: t for t in base_lexicon})
    forbidden = set(forbidden)
    for salt in range(64):
        rng = random.Random(f"{seed}|lex|{lang}|{salt}")
        cmap: dict[str, str] = {}
        for alphabet in (_CONSONANTS, _VOWELS, _DIGITS):
            shuffled = list(alphabet)
            rng.shuffle(shuffled)
            cmap.update(zip(alphabet, shuffled))
        surfaces = [_cipher_token(t, cmap) for t in base_lexicon]
        if len(set(surfaces)) == len(surfaces) and not forbidden.intersection(surfaces):
            return Lexicon(lang=lang, mapping=dict(zip(base_lexicon, surfaces)))
    raise LexiconCollisionError(f"could not generate a collision-free lexicon for {lang!r}")


def _gen_base_token(rng: random.Random, used: set[str]) -> str:
    while True:
        n_syll = rng.randint(2, 3)
        tok = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n_syll))
        if rng.random() < 0.5:
            tok += rng.choice(_CONSONANTS)
        if tok not in used:
            used.add(tok)
            return tok


def gen_kb(spec: SynthSpec) -> KnowledgeBase:
    """Entities with 1-2-token base names, 1-token relations, duplicate-free
    triples, and surface forms in every spec language via the lexicons."""
    rng = random.Random(f"{spec.seed}|kb")
    used: set[str] = set()
    entity_names = []
    for _ in range(spec.n_entities):
        n_tokens = 2 if rng.random() < TWO_TOKEN_ENTITY_FRAC else 1
        entity_names.append(" ".join(_gen_base_token(rng, used) for _ in range(n_tokens)))
    relation_names = [_gen_base_token(rng, used) for _ in range(spec.n_relations)]

    base_tokens = sorted(used)
    lexicons: dict[str, Lexicon] = {}
    assigned: set[str] = set(base_tokens)
    for idx, lang in enumerate(spec.languages):
        lex = gen_language(spec.seed, lang, base_tokens, pivot=(idx == 0), forbidden=assigned if idx else ())
        lexicons[lang] = lex
        assigned.update(lex.mapping.values())

    def forms_for(name: str) -> dict[str, str]:
        toks = name.split()
        return {
            lang: " ".join(lexicons[lang].mapping[t] for t in toks)
            for lang in spec.languages
        }

    entities = {f"E{i}": Entity(id=f"E{i}", forms=forms_for(name)) for i, name in enumerate(entity_names)}
    relations = {f"R{i}": Relation(id=f"R{i}", forms=forms_for(name)) for i, name in enumerate(relation_names)}

    triple_rng = random.Random(f"{spec.seed}|triples")
    seen: set[tuple[str, str, str]] = set()
    triples: list[Triple] = []
    while len(triples) < spec.n_triples:
        head = f"E{triple_rng.randrange(spec.n_entities)}"
        rel = f"R{triple_rng.randrange(spec.n_relations)}"
        if triple_rng.random() < SELF_LOOP_FRAC:
            tail = head
        else:
            tail = f"E{triple_rng.randrange(spec.n_entities)}"
        key = (head, rel, tail)
        if key in seen:
            continue
        seen.add(key)
        triples.append(Triple(*key))
    return build_kb(entities, relations, triples)


def _make_example(rng: random.Random, kb: KnowledgeBase, clang: str, qlang: str, qa_id: str) -> dict:
    triples = kb.triples
    target = triples[rng.randrange(len(triples))]
    distractors: list[Triple] = []
    picked = {(target.head, target.rel)}
    seen_triples = {(target.head, target.rel, target.tail)}
    while len(distractors) < N_DISTRACTORS:
        cand = triples[rng.randrange(len(triples))]
        if (cand.head, cand.rel) in picked or (cand.head, cand.rel, cand.tail) in seen_triples:
            continue
        picked.add((cand.head, cand.rel))
        seen_triples.add((cand.head, cand.rel, cand.tail))
        distractors.append(cand)

    facts = [target] + distractors
    rng.shuffle(facts)
    sentences = []
    answer_start = None
    answer_text = surface(kb, "entity", target.tail, clang)
    offset = 0
    for fact in facts:
        h = surface(kb, "entity", fact.head, clang)
        r = surface(kb, "relation", fact.rel, clang)
        t = surface(kb, "entity", fact.tail, clang)
        sentence = f"{h} {r} {t}"
        if fact is target:
            answer_start = offset + len(h) + 1 + len(r) + 1
        sentences.append(sentence)
        offset += len(sentence) + 2  # ". " joiner
    context = ". ".join(sentences) + "."
    assert answer_start is not None
    assert context[answer_start : answer_start + len(answer_text)] == answer_text

    question = f"{surface(kb, 'entity', target.head, qlang)} {surface(kb, 'relation', target.rel, qlang)} ?"
    return {
        "id": qa_id,
        "question": question,
        "answers": [{"text": answer_text, "answer_start": answer_start}],
        "context": context,
        "context_lang": clang,
        "question_lang": qlang,
    }


def _to_mlqa_json(examples: list[dict]) -> dict:
    paragraphs = []
    for ex in examples:
        qa = {k: ex[k] for k in ("id", "question", "answers", "context_lang", "question_lang")}
        paragraphs.append({"context": ex["context"], "qas": [qa]})
    return {"data": [{"paragraphs": paragraphs}]}


def gen_qa(spec: SynthSpec, kb: KnowledgeBase) -> tuple[dict, dict[tuple[str, str], dict]]:
    """Template QA datasets: a pivot-only train split and one test split per
    ordered (context_lang, question_lang) pair. Each context states facts of
    ``N_DISTRACTORS + 1`` distinct (head, relation) pairs, so a KB with fewer
    raises InfeasibleCountError before any draw."""
    pairs = len({(t.head, t.rel) for t in kb.triples})
    if pairs < N_DISTRACTORS + 1:
        raise InfeasibleCountError(
            f"QA contexts need {N_DISTRACTORS + 1} distinct (head, relation) pairs, the KB has {pairs}"
        )
    pivot = spec.pivot
    rng = random.Random(f"{spec.seed}|qa|train|{pivot}|{pivot}")
    train = _to_mlqa_json(
        [_make_example(rng, kb, pivot, pivot, f"train-{i}") for i in range(spec.n_qa_train)]
    )
    test: dict[tuple[str, str], dict] = {}
    for clang in spec.languages:
        for qlang in spec.languages:
            rng = random.Random(f"{spec.seed}|qa|test|{clang}|{qlang}")
            test[(clang, qlang)] = _to_mlqa_json(
                [
                    _make_example(rng, kb, clang, qlang, f"test-{clang}-{qlang}-{i}")
                    for i in range(spec.n_qa_per_lang_pair)
                ]
            )
    return train, test
