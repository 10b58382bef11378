import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kiqa.errors import (
    DanglingIdError,
    DuplicateIdError,
    DuplicateTripleError,
    KBParseError,
    MissingFormError,
)
from kiqa.kb import (
    Triple,
    build_kb,
    load_kb,
    save_kb,
    surface,
    triples_renderable,
)

from conftest import TRIPLES, write_jsonl


def test_load_counts(tiny_kb):
    assert len(tiny_kb.entities) == 4
    assert len(tiny_kb.relations) == 2
    assert len(tiny_kb.triples) == 3
    assert tiny_kb.languages == {"en", "zh"}


def test_triple_order_preserved(tiny_kb):
    assert [t.tail for t in tiny_kb.triples] == ["Q2", "Q3", "Q4"]


def test_surface(tiny_kb):
    assert surface(tiny_kb, "entity", "Q2", "en") == "Basketball Player"
    assert surface(tiny_kb, "entity", "Q2", "zh") == "篮球运动员"
    assert surface(tiny_kb, "relation", "P1", "zh") == "是"


def test_surface_missing_form(tiny_kb):
    with pytest.raises(MissingFormError):
        surface(tiny_kb, "entity", "Q2", "de")


def test_surface_unknown_id(tiny_kb):
    with pytest.raises(DanglingIdError):
        surface(tiny_kb, "entity", "Q99", "en")


def test_triples_renderable(tiny_kb):
    both = triples_renderable(tiny_kb, {"en", "zh"})
    assert [t.tail for t in both] == ["Q2", "Q3"]  # Q4 lacks a zh form
    assert len(triples_renderable(tiny_kb, {"en"})) == 3
    assert triples_renderable(tiny_kb, set()) == list(tiny_kb.triples)


def test_triples_renderable_unknown_lang(tiny_kb):
    with pytest.raises(ValueError):
        triples_renderable(tiny_kb, {"xx"})


def test_empty_triples_file(kb_files, tmp_path):
    empty = tmp_path / "no_triples.jsonl"
    empty.write_text("")
    kb = load_kb(kb_files[0], kb_files[1], empty)
    assert kb.triples == ()
    assert len(kb.entities) == 4


def test_dangling_id_error(kb_files, tmp_path):
    bad = tmp_path / "bad_triples.jsonl"
    write_jsonl(bad, TRIPLES + [{"h": "Q99", "r": "P1", "t": "Q2"}])
    with pytest.raises(DanglingIdError, match=r"bad_triples\.jsonl:4: unknown entity id 'Q99'"):
        load_kb(kb_files[0], kb_files[1], bad)


def test_duplicate_triple_error(kb_files, tmp_path):
    bad = tmp_path / "dup_triples.jsonl"
    write_jsonl(bad, TRIPLES + [TRIPLES[0]])
    with pytest.raises(DuplicateTripleError, match=r"dup_triples\.jsonl:4: duplicate"):
        load_kb(kb_files[0], kb_files[1], bad)
    kb = load_kb(*kb_files)
    with pytest.raises(DuplicateTripleError, match=r"^triple 3: duplicate"):  # callers without labels
        build_kb(kb.entities, kb.relations, kb.triples + kb.triples[:1])


def test_duplicate_entity_id_error(kb_files, tmp_path):
    bad = tmp_path / "dup_entities.jsonl"
    write_jsonl(bad, [{"id": "Q1", "forms": {"en": "a"}}, {"id": "Q1", "forms": {"en": "b"}}])
    with pytest.raises(DuplicateIdError, match="Q1"):
        load_kb(bad, kb_files[1], kb_files[2])


def test_parse_error_reports_line(kb_files, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "Q1", "forms": {"en": "x"}}\nnot json\n', encoding="utf-8")
    with pytest.raises(KBParseError, match=":2"):
        load_kb(bad, kb_files[1], kb_files[2])


def test_empty_form_rejected(kb_files, tmp_path):
    bad = tmp_path / "empty_form.jsonl"
    write_jsonl(bad, [{"id": "Q1", "forms": {"en": "   "}}])
    with pytest.raises(KBParseError, match="empty surface"):
        load_kb(bad, kb_files[1], kb_files[2])


def test_invalid_lang_tag_rejected(kb_files, tmp_path):
    bad = tmp_path / "bad_lang.jsonl"
    write_jsonl(bad, [{"id": "Q1", "forms": {"EN!": "x"}}])
    with pytest.raises(KBParseError, match="language tag"):
        load_kb(bad, kb_files[1], kb_files[2])


def test_save_load_round_trip(tiny_kb, tmp_path):
    paths = (tmp_path / "e.jsonl", tmp_path / "r.jsonl", tmp_path / "t.jsonl")
    save_kb(tiny_kb, *paths)
    again = load_kb(*paths)
    assert again == tiny_kb
    # re-saving the reloaded KB is byte-identical
    paths2 = (tmp_path / "e2.jsonl", tmp_path / "r2.jsonl", tmp_path / "t2.jsonl")
    save_kb(again, *paths2)
    for a, b in zip(paths, paths2):
        assert a.read_bytes() == b.read_bytes()


def test_load_order_insensitive_for_entities(kb_files, tmp_path):
    shuffled = tmp_path / "entities_shuffled.jsonl"
    lines = kb_files[0].read_text(encoding="utf-8").strip().split("\n")
    shuffled.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    kb1 = load_kb(kb_files[0], kb_files[1], kb_files[2])
    kb2 = load_kb(shuffled, kb_files[1], kb_files[2])
    assert kb1 == kb2


# the KB is immutable, so sharing it across generated inputs is safe
@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_renderable_triples_always_have_surfaces(tiny_kb, data):
    langs = data.draw(st.sets(st.sampled_from(sorted(tiny_kb.languages))))
    for t in triples_renderable(tiny_kb, langs):
        for lang in langs:
            surface(tiny_kb, "entity", t.head, lang)
            surface(tiny_kb, "relation", t.rel, lang)
            surface(tiny_kb, "entity", t.tail, lang)


def test_triple_dataclass_fields():
    t = Triple(head="a", rel="b", tail="c")
    assert (t.head, t.rel, t.tail) == ("a", "b", "c")
