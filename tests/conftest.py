import json
import math

import pytest

from kiqa.kb import load_kb


def ce_oracle(logits, target):
    """Straight-line softmax cross-entropy for one row."""
    mx = max(logits)
    denom = sum(math.exp(x - mx) for x in logits)
    return -(logits[target] - mx - math.log(denom))


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


ENTITIES = [
    {"id": "Q1", "forms": {"en": "Kevin Durant", "zh": "凯文杜兰特"}},
    {"id": "Q2", "forms": {"en": "Basketball Player", "zh": "篮球运动员"}},
    {"id": "Q3", "forms": {"en": "Golden State", "zh": "金州勇士"}},
    {"id": "Q4", "forms": {"en": "Texas"}},
]

RELATIONS = [
    {"id": "P1", "forms": {"en": "is a", "zh": "是"}},
    {"id": "P2", "forms": {"en": "played for", "zh": "效力于"}},
]

TRIPLES = [
    {"h": "Q1", "r": "P1", "t": "Q2"},
    {"h": "Q1", "r": "P2", "t": "Q3"},
    {"h": "Q1", "r": "P2", "t": "Q4"},
]


@pytest.fixture
def kb_files(tmp_path):
    paths = (tmp_path / "entities.jsonl", tmp_path / "relations.jsonl", tmp_path / "triples.jsonl")
    write_jsonl(paths[0], ENTITIES)
    write_jsonl(paths[1], RELATIONS)
    write_jsonl(paths[2], TRIPLES)
    return paths


@pytest.fixture
def tiny_kb(kb_files):
    return load_kb(*kb_files)
