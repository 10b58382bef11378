"""Build the knowledge-injection corpus: render triples into three sample
kinds and apply the per-kind masking rules.

Kinds:
    K1  monolingual triple, head or tail masked, target in the same language.
    K2  visible pieces in language i, masked entity's target in language j.
    K3  full renderings in languages i and j concatenated; the same slot is
        masked in both blocks so the two surface forms of one entity are
        predicted together.

A sample states each fact once, in its pieces:
    * a masked piece's own text is its target (``textmodel.render`` turns
      each of its tokens into a [MASK] to predict);
    * a piece's position gives its role: h, r, t, then for K3 h, r, t of
      language j; so ``pieces[0].masked`` says whether the head or the tail
      is masked;
    * a piece's language is stated on the piece; for K2 the masked piece's
      differs from the visible pieces'.

Corpus file: one JSON object per line, keys sorted, UTF-8, e.g.
    {"kind": "K2_TAIL_SWAP",
     "pieces": [{"lang": "en", "masked": false, "text": "Kevin Durant"},
                {"lang": "en", "masked": false, "text": "is a"},
                {"lang": "zh", "masked": true, "text": "篮球运动员"}],
     "triple": {"h": "Q1", "r": "P1", "t": "Q2"}}
``triple`` names the KB triple the sample was rendered from and is omitted
when there is none.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    ConfigError,
    InsufficientTriplesError,
    KBParseError,
    SameLanguageError,
    ZeroWeightsError,
)
from .fileio import atomic_write, read_jsonl
from .kb import KnowledgeBase, Triple, surface, triples_renderable


class SampleKind(str, Enum):
    K1 = "K1"
    K2_HEAD_SWAP = "K2_HEAD_SWAP"
    K2_TAIL_SWAP = "K2_TAIL_SWAP"
    K3 = "K3"


@dataclass(frozen=True)
class Piece:
    lang: str
    text: str
    masked: bool


@dataclass(frozen=True)
class MaskedSample:
    kind: SampleKind
    pieces: tuple[Piece, ...]
    source_triple: Triple | None


def _block(kb: KnowledgeBase, t: Triple, lang: str, mask_head: bool) -> tuple[Piece, ...]:
    """(h, r, t) rendered in ``lang`` with the head or the tail masked."""
    return (
        Piece(lang, surface(kb, "entity", t.head, lang), mask_head),
        Piece(lang, surface(kb, "relation", t.rel, lang), False),
        Piece(lang, surface(kb, "entity", t.tail, lang), not mask_head),
    )


def assemble_k1(kb: KnowledgeBase, t: Triple, lang_i: str) -> list[MaskedSample]:
    """Two monolingual samples: (h, r, ?) with target t, and (?, r, t) with target h."""
    return [MaskedSample(SampleKind.K1, _block(kb, t, lang_i, mask_head), t) for mask_head in (False, True)]


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
        SampleKind.K2_HEAD_SWAP,
        (Piece(lang_j, h_j, True), Piece(lang_i, r_i, False), Piece(lang_i, t_i, False)),
        t,
    )
    tail_swap = MaskedSample(
        SampleKind.K2_TAIL_SWAP,
        (Piece(lang_i, h_i, False), Piece(lang_i, r_i, False), Piece(lang_j, t_j, True)),
        t,
    )
    return [head_swap, tail_swap]


def assemble_k3(kb: KnowledgeBase, t: Triple, lang_i: str, lang_j: str) -> list[MaskedSample]:
    """Two samples over the concatenated i/j renderings with the same slot
    masked in both blocks, so both surface forms of one entity are targets."""
    if lang_i == lang_j:
        raise SameLanguageError(f"K3 needs two distinct languages, got {lang_i!r} twice")
    return [
        MaskedSample(SampleKind.K3, _block(kb, t, lang_i, mask_head) + _block(kb, t, lang_j, mask_head), t)
        for mask_head in (True, False)
    ]


def check_kind_weights(kind_weights: Sequence[float], langs: Iterable[str]) -> None:
    """Refuse a negative or non-finite K1/K2/K3 weight, weights that sum to
    zero, and a K2 or K3 weight with fewer than two distinct languages."""
    if not all(0 <= w < math.inf for w in kind_weights):
        raise ConfigError(f"kind weights must be finite and non-negative, got {tuple(kind_weights)}")
    if sum(kind_weights) <= 0:
        raise ZeroWeightsError("kind weights sum to zero")
    if len(set(langs)) < 2 and (kind_weights[1] > 0 or kind_weights[2] > 0):
        raise ConfigError("K2/K3 weights require at least two languages")


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
    langs_sorted = sorted(set(langs))
    check_kind_weights(kind_weights, langs_sorted)
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
        kind = rng.choices(("K1", "K2", "K3"), weights=kind_weights)[0]
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
                "pieces": [{"lang": p.lang, "masked": p.masked, "text": p.text} for p in s.pieces],
            }
            if s.source_triple is not None:
                rec["triple"] = {"h": s.source_triple.head, "r": s.source_triple.rel, "t": s.source_triple.tail}
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def load_corpus(path) -> list[MaskedSample]:
    """Read a corpus file. Keys other than those ``save_corpus`` writes are
    ignored, so files that still carry ``targets``, ``mask_side``, ``langs``
    and a per-piece ``role`` load to the same samples."""
    samples = []
    for lineno, rec in read_jsonl(path, KBParseError):
        try:
            triple = None
            if "triple" in rec:
                triple = Triple(head=rec["triple"]["h"], rel=rec["triple"]["r"], tail=rec["triple"]["t"])
            pieces = tuple(Piece(p["lang"], p["text"], p["masked"]) for p in rec["pieces"])
            if not all(isinstance(p.lang, str) and isinstance(p.text, str) and isinstance(p.masked, bool)
                       for p in pieces):
                raise KBParseError(f"{path}:{lineno}: a piece's lang and text must be strings, its masked a bool")
            samples.append(MaskedSample(SampleKind(rec["kind"]), pieces, triple))
        except (KeyError, ValueError, TypeError) as exc:
            raise KBParseError(f"{path}:{lineno}: invalid corpus record ({exc!r})") from exc
    return samples

