"""Build the knowledge-injection corpus: render triples into three sample
kinds and apply the per-kind masking rules.

Kinds:
    K1  monolingual triple, head or tail masked, target in the same language.
    K2  visible pieces in language i, masked entity's target in language j.
    K3  full renderings in languages i and j concatenated; the same slot is
        masked in both blocks so the two surface forms of one entity are
        predicted together.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    ConfigError,
    InsufficientTriplesError,
    KBParseError,
    SameLanguageError,
    ZeroWeightsError,
)
from .fileio import atomic_write
from .kb import KnowledgeBase, Triple, _read_records, surface, triples_renderable


class SampleKind(str, Enum):
    K1 = "K1"
    K2_HEAD_SWAP = "K2_HEAD_SWAP"
    K2_TAIL_SWAP = "K2_TAIL_SWAP"
    K3 = "K3"


class MaskSide(str, Enum):
    HEAD = "HEAD"
    TAIL = "TAIL"


HEAD_ROLES = frozenset({"HEAD", "HEAD2"})
TAIL_ROLES = frozenset({"TAIL", "TAIL2"})
ALL_ROLES = ("HEAD", "REL", "TAIL", "HEAD2", "REL2", "TAIL2")


@dataclass(frozen=True)
class Piece:
    role: str
    lang: str
    text: str
    masked: bool


@dataclass(frozen=True)
class MaskedSample:
    kind: SampleKind
    mask_side: MaskSide
    pieces: tuple[Piece, ...]
    targets: tuple[tuple[int, str], ...]  # (piece index, target text), in piece order
    source_triple: Triple | None
    langs: tuple[str, str | None]


def validate_sample(s: MaskedSample) -> None:
    """Assert the structural invariants every MaskedSample must satisfy."""
    masked_roles = HEAD_ROLES if s.mask_side is MaskSide.HEAD else TAIL_ROLES
    for p in s.pieces:
        assert p.role in ALL_ROLES, f"unknown role {p.role}"
        assert p.masked == (p.role in masked_roles), f"mask flag wrong on {p.role}"
    masked_idx = [i for i, p in enumerate(s.pieces) if p.masked]
    assert [i for i, _ in s.targets] == masked_idx, "targets must align with masked pieces"

    lang_i, lang_j = s.langs
    if s.kind is SampleKind.K1:
        assert len(s.pieces) == 3 and lang_j is None
        assert all(p.lang == lang_i for p in s.pieces)
    elif s.kind in (SampleKind.K2_HEAD_SWAP, SampleKind.K2_TAIL_SWAP):
        assert len(s.pieces) == 3 and lang_j is not None and lang_i != lang_j
        assert sum(p.lang == lang_j for p in s.pieces) == 1
        assert all(p.lang in (lang_i, lang_j) for p in s.pieces)
    elif s.kind is SampleKind.K3:
        assert len(s.pieces) == 6 and lang_j is not None and lang_i != lang_j
        assert all(p.lang == lang_i for p in s.pieces[:3])
        assert all(p.lang == lang_j for p in s.pieces[3:])


def unmasked_piece_texts(s: MaskedSample) -> list[str]:
    """Piece texts with every masked slot replaced by its target."""
    by_idx = dict(s.targets)
    return [by_idx[i] if p.masked else p.text for i, p in enumerate(s.pieces)]


def assemble_k1(kb: KnowledgeBase, t: Triple, lang_i: str) -> list[MaskedSample]:
    """Two monolingual samples: (h, r, ?) with target t, and (?, r, t) with target h."""
    h = surface(kb, "entity", t.head, lang_i)
    r = surface(kb, "relation", t.rel, lang_i)
    tl = surface(kb, "entity", t.tail, lang_i)
    tail_masked = MaskedSample(
        kind=SampleKind.K1,
        mask_side=MaskSide.TAIL,
        pieces=(
            Piece("HEAD", lang_i, h, False),
            Piece("REL", lang_i, r, False),
            Piece("TAIL", lang_i, tl, True),
        ),
        targets=((2, tl),),
        source_triple=t,
        langs=(lang_i, None),
    )
    head_masked = MaskedSample(
        kind=SampleKind.K1,
        mask_side=MaskSide.HEAD,
        pieces=(
            Piece("HEAD", lang_i, h, True),
            Piece("REL", lang_i, r, False),
            Piece("TAIL", lang_i, tl, False),
        ),
        targets=((0, h),),
        source_triple=t,
        langs=(lang_i, None),
    )
    return [tail_masked, head_masked]


def assemble_k2(kb: KnowledgeBase, t: Triple, lang_i: str, lang_j: str) -> list[MaskedSample]:
    """Two mixed samples: the visible pieces stay in language i while the
    masked entity's target is its language-j surface form."""
    if lang_i == lang_j:
        raise SameLanguageError(f"K2 needs two distinct languages, got {lang_i!r} twice")
    h_i = surface(kb, "entity", t.head, lang_i)
    r_i = surface(kb, "relation", t.rel, lang_i)
    t_i = surface(kb, "entity", t.tail, lang_i)
    h_j = surface(kb, "entity", t.head, lang_j)
    t_j = surface(kb, "entity", t.tail, lang_j)
    head_swap = MaskedSample(
        kind=SampleKind.K2_HEAD_SWAP,
        mask_side=MaskSide.HEAD,
        pieces=(
            Piece("HEAD", lang_j, h_j, True),
            Piece("REL", lang_i, r_i, False),
            Piece("TAIL", lang_i, t_i, False),
        ),
        targets=((0, h_j),),
        source_triple=t,
        langs=(lang_i, lang_j),
    )
    tail_swap = MaskedSample(
        kind=SampleKind.K2_TAIL_SWAP,
        mask_side=MaskSide.TAIL,
        pieces=(
            Piece("HEAD", lang_i, h_i, False),
            Piece("REL", lang_i, r_i, False),
            Piece("TAIL", lang_j, t_j, True),
        ),
        targets=((2, t_j),),
        source_triple=t,
        langs=(lang_i, lang_j),
    )
    return [head_swap, tail_swap]


def assemble_k3(kb: KnowledgeBase, t: Triple, lang_i: str, lang_j: str) -> list[MaskedSample]:
    """Two samples over the concatenated i/j renderings with the same slot
    masked in both blocks, so both surface forms of one entity are targets."""
    if lang_i == lang_j:
        raise SameLanguageError(f"K3 needs two distinct languages, got {lang_i!r} twice")
    forms = {}
    for lang in (lang_i, lang_j):
        forms[lang] = (
            surface(kb, "entity", t.head, lang),
            surface(kb, "relation", t.rel, lang),
            surface(kb, "entity", t.tail, lang),
        )
    h_i, r_i, t_i = forms[lang_i]
    h_j, r_j, t_j = forms[lang_j]

    def pieces(mask_head: bool) -> tuple[Piece, ...]:
        return (
            Piece("HEAD", lang_i, h_i, mask_head),
            Piece("REL", lang_i, r_i, False),
            Piece("TAIL", lang_i, t_i, not mask_head),
            Piece("HEAD2", lang_j, h_j, mask_head),
            Piece("REL2", lang_j, r_j, False),
            Piece("TAIL2", lang_j, t_j, not mask_head),
        )

    head_masked = MaskedSample(
        kind=SampleKind.K3,
        mask_side=MaskSide.HEAD,
        pieces=pieces(mask_head=True),
        targets=((0, h_i), (3, h_j)),
        source_triple=t,
        langs=(lang_i, lang_j),
    )
    tail_masked = MaskedSample(
        kind=SampleKind.K3,
        mask_side=MaskSide.TAIL,
        pieces=pieces(mask_head=False),
        targets=((2, t_i), (5, t_j)),
        source_triple=t,
        langs=(lang_i, lang_j),
    )
    return [head_masked, tail_masked]


def build_corpus(
    kb: KnowledgeBase,
    langs: Iterable[str],
    n_triples: int,
    kind_weights: Sequence[float],
    seed: int,
) -> list[MaskedSample]:
    """Sample triples without replacement, draw a kind per triple by the
    normalized weights, emit both masked variants, and shuffle by seed.

    Per-triple draws use RNG streams derived from (seed, index) so the output
    is independent of evaluation order.
    """
    w1, w2, w3 = kind_weights
    if min(w1, w2, w3) < 0:
        raise ConfigError("kind weights must be non-negative")
    if w1 + w2 + w3 <= 0:
        raise ZeroWeightsError("kind weights sum to zero")
    langs_sorted = sorted(set(langs))
    if len(langs_sorted) < 2 and (w2 > 0 or w3 > 0):
        raise ConfigError("K2/K3 weights require at least two languages")
    pairs = [(a, b) for a in langs_sorted for b in langs_sorted if a != b]

    pool = triples_renderable(kb, langs_sorted)
    if n_triples < 0:
        raise ConfigError(f"n_triples must be >= 0, got {n_triples}")
    if n_triples > len(pool):
        raise InsufficientTriplesError(
            f"requested {n_triples} triples but only {len(pool)} renderable in {langs_sorted}"
        )
    chosen = random.Random(f"{seed}|select").sample(range(len(pool)), n_triples)

    samples: list[MaskedSample] = []
    for j, idx in enumerate(chosen):
        rng = random.Random(f"{seed}|triple|{j}")
        t = pool[idx]
        kind = rng.choices(("K1", "K2", "K3"), weights=(w1, w2, w3))[0]
        if kind == "K1":
            samples.extend(assemble_k1(kb, t, rng.choice(langs_sorted)))
        elif kind == "K2":
            samples.extend(assemble_k2(kb, t, *rng.choice(pairs)))
        else:
            samples.extend(assemble_k3(kb, t, *rng.choice(pairs)))
    random.Random(f"{seed}|shuffle").shuffle(samples)
    return samples


def save_corpus(samples: Iterable[MaskedSample], path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for s in samples:
            rec = {
                "kind": s.kind.value,
                "mask_side": s.mask_side.value,
                "pieces": [
                    {"role": p.role, "lang": p.lang, "text": p.text, "masked": p.masked}
                    for p in s.pieces
                ],
                "targets": [[i, text] for i, text in s.targets],
                "langs": list(s.langs),
            }
            if s.source_triple is not None:
                rec["triple"] = {"h": s.source_triple.head, "r": s.source_triple.rel, "t": s.source_triple.tail}
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def load_corpus(path) -> list[MaskedSample]:
    samples = []
    for lineno, rec in _read_records(Path(path)):
        try:
            triple = None
            if "triple" in rec:
                triple = Triple(head=rec["triple"]["h"], rel=rec["triple"]["r"], tail=rec["triple"]["t"])
            samples.append(
                MaskedSample(
                    kind=SampleKind(rec["kind"]),
                    mask_side=MaskSide(rec["mask_side"]),
                    pieces=tuple(Piece(p["role"], p["lang"], p["text"], p["masked"]) for p in rec["pieces"]),
                    targets=tuple((int(i), text) for i, text in rec["targets"]),
                    source_triple=triple,
                    langs=(rec["langs"][0], rec["langs"][1]),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise KBParseError(f"{path}:{lineno}: invalid corpus record ({exc!r})") from exc
    return samples


__all__ = [
    "SampleKind",
    "MaskSide",
    "Piece",
    "MaskedSample",
    "validate_sample",
    "unmasked_piece_texts",
    "assemble_k1",
    "assemble_k2",
    "assemble_k3",
    "build_corpus",
    "save_corpus",
    "load_corpus",
]
