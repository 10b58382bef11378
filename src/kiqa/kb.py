"""Multilingual knowledge base: entities/relations with per-language surface
forms plus language-free (head, relation, tail) triples.

On-disk format is line-delimited JSON, UTF-8, one record per line:
    entities/relations: {"id": "...", "forms": {"en": "...", "zh": "...", ...}}
    triples:            {"h": "<entity id>", "r": "<relation id>", "t": "<entity id>"}

Surface forms are stored raw; normalization happens at evaluation time only.
A loaded KnowledgeBase is immutable and safe to share across workers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ConfigError,
    DanglingIdError,
    DuplicateIdError,
    DuplicateTripleError,
    KBParseError,
    MissingFormError,
)
from .fileio import atomic_write, read_jsonl

LANG_TAG_RE = re.compile(r"^[a-z0-9_-]{1,16}$")


def is_valid_lang(code: str) -> bool:
    return bool(LANG_TAG_RE.match(code))


@dataclass(frozen=True)
class Entity:
    id: str
    forms: dict[str, str]


@dataclass(frozen=True)
class Relation:
    id: str
    forms: dict[str, str]


@dataclass(frozen=True)
class Triple:
    head: str
    rel: str
    tail: str


@dataclass(frozen=True)
class KnowledgeBase:
    entities: dict[str, Entity]
    relations: dict[str, Relation]
    triples: tuple[Triple, ...]
    languages: frozenset[str]


def _check_forms(forms: dict, where: str) -> dict[str, str]:
    if not isinstance(forms, dict):
        raise KBParseError(f"{where}: 'forms' must be an object")
    out: dict[str, str] = {}
    for lang, text in forms.items():
        if not isinstance(lang, str) or not is_valid_lang(lang):
            raise KBParseError(f"{where}: invalid language tag {lang!r}")
        if not isinstance(text, str) or not text.strip():
            raise KBParseError(f"{where}: empty surface form for language {lang!r}")
        out[lang] = text
    return out


def _load_form_file(path, cls):
    items: dict[str, object] = {}
    for lineno, rec in read_jsonl(path, KBParseError):
        where = f"{path}:{lineno}"
        ident = rec.get("id")
        if not isinstance(ident, str) or not ident:
            raise KBParseError(f"{where}: missing or invalid 'id'")
        if ident in items:
            raise DuplicateIdError(f"{where}: duplicate id {ident!r}")
        items[ident] = cls(id=ident, forms=_check_forms(rec.get("forms", {}), where))
    return items


def build_kb(
    entities: dict[str, Entity],
    relations: dict[str, Relation],
    triples: Iterable[Triple],
    labels: Sequence[str] | None = None,
) -> KnowledgeBase:
    """Assemble a KnowledgeBase from in-memory parts, enforcing all invariants.

    Errors name the i-th triple by ``labels[i]`` if given, else ``triple i``.
    """
    triples = tuple(triples)
    seen: set[tuple[str, str, str]] = set()
    for i, t in enumerate(triples):
        where = labels[i] if labels is not None else f"triple {i}"
        key = (t.head, t.rel, t.tail)
        if key in seen:
            raise DuplicateTripleError(f"{where}: duplicate {key}")
        seen.add(key)
        for ident, pool, what in ((t.head, entities, "entity"), (t.rel, relations, "relation"), (t.tail, entities, "entity")):
            if ident not in pool:
                raise DanglingIdError(f"{where}: unknown {what} id {ident!r}")
    languages = frozenset(
        lang
        for coll in (entities, relations)
        for item in coll.values()
        for lang in item.forms
    )
    return KnowledgeBase(entities=entities, relations=relations, triples=triples, languages=languages)


def load_kb(entities_path, relations_path, triples_path) -> KnowledgeBase:
    """Load and validate a knowledge base from three line-delimited JSON files."""
    entities = _load_form_file(entities_path, Entity)
    relations = _load_form_file(relations_path, Relation)

    triples: list[Triple] = []
    labels: list[str] = []
    for lineno, rec in read_jsonl(triples_path, KBParseError):
        where = f"{triples_path}:{lineno}"
        try:
            h, r, t = rec["h"], rec["r"], rec["t"]
        except KeyError as exc:
            raise KBParseError(f"{where}: missing key {exc.args[0]!r}") from exc
        if not all(isinstance(x, str) for x in (h, r, t)):
            raise KBParseError(f"{where}: h/r/t must be strings")
        triples.append(Triple(head=h, rel=r, tail=t))
        labels.append(where)

    return build_kb(entities, relations, triples, labels)


def save_kb(kb: KnowledgeBase, entities_path, relations_path, triples_path) -> None:
    """Write a KB in canonical form: sorted ids, sorted form keys, file-order triples."""
    for path, coll in ((entities_path, kb.entities), (relations_path, kb.relations)):
        with atomic_write(path, "w", encoding="utf-8") as fh:
            for ident in sorted(coll):
                rec = {"id": ident, "forms": dict(sorted(coll[ident].forms.items()))}
                fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")
    with atomic_write(triples_path, "w", encoding="utf-8") as fh:
        for t in kb.triples:
            fh.write(json.dumps({"h": t.head, "r": t.rel, "t": t.tail}, sort_keys=True) + "\n")


def surface(kb: KnowledgeBase, kind: str, ident: str, lang: str) -> str:
    """Surface form of an entity or relation in one language."""
    if kind == "entity":
        pool = kb.entities
    elif kind == "relation":
        pool = kb.relations
    else:
        raise ValueError(f"kind must be 'entity' or 'relation', got {kind!r}")
    if ident not in pool:
        raise DanglingIdError(f"unknown {kind} id {ident!r}")
    forms = pool[ident].forms
    if lang not in forms:
        raise MissingFormError(f"{kind} {ident!r} has no form in language {lang!r}")
    return forms[lang]


def triple_renderable(kb: KnowledgeBase, t: Triple, langs: Iterable[str]) -> bool:
    langs = tuple(langs)
    return all(
        lang in kb.entities[t.head].forms
        and lang in kb.relations[t.rel].forms
        and lang in kb.entities[t.tail].forms
        for lang in langs
    )


def triples_renderable(kb: KnowledgeBase, langs: Iterable[str]) -> list[Triple]:
    """Triples whose head, relation and tail all have forms in every given language.

    Order follows the triple file; an empty language set keeps every triple.
    """
    langs = frozenset(langs)
    unknown = langs - kb.languages
    if unknown:
        raise ConfigError(f"languages not present in KB: {sorted(unknown)}")
    return [t for t in kb.triples if triple_renderable(kb, t, langs)]
