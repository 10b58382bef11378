"""Workload inputs, passes and output checks.

Every workload draws its inputs from the workload seed, writes them to a
work directory and reads them back through ``kiqa``'s own loaders, so the
program receives only generated files. The seed feeds ``synth.seed``,
``assembler.seed``, ``inject.seed`` and ``finetune.seed``.

A pass is the unit the closed loop repeats: one ``kiqa pipeline`` run, one
injection+finetune training run, or one ``evaluate`` call. ``run`` returns
the pass's output; ``check`` returns the names of the checks it failed, and
``fingerprint`` returns ``(input set, digest)``: every pass on the same
input set must give the same digest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from kiqa import assembler, cli, encoder, evaluation, kb as kbmod, synthlang, textmodel, training


def seeds(seed: int) -> dict[str, int]:
    return {"synth": seed, "assembler": seed + 1, "inject": seed + 2, "finetune": seed + 3}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_kb_and_qa(kb, spec, work: Path):
    """Round-trip the KB and QA splits through the files the CLI writes."""
    paths = (work / "entities.jsonl", work / "relations.jsonl", work / "triples.jsonl")
    kbmod.save_kb(kb, *paths)
    kb = kbmod.load_kb(*paths)
    train, test = synthlang.gen_qa(spec, kb)
    files = {"train": work / "qa_train.json"}
    files.update({cell: work / f"qa_test_{cell[0]}_{cell[1]}.json" for cell in test})
    for key, path in files.items():
        path.write_text(json.dumps(train if key == "train" else test[key], ensure_ascii=False), encoding="utf-8")
    qa = {key: evaluation.load_qa_dataset(path) for key, path in files.items()}
    return kb, qa


def _vocab(kb, work: Path) -> textmodel.Vocab:
    texts = [form for coll in (kb.entities, kb.relations) for ident in sorted(coll)
             for _, form in sorted(coll[ident].forms.items())]
    path = work / "vocab.txt"
    textmodel.save_vocab(textmodel.build_vocab(texts, 4096), path)
    return textmodel.load_vocab(path)


# One KB's padded batch lengths (K3 samples, two-token entities, the longest
# context in an eval batch) vary with the seed, so one KB's pass cost varies
# by 10-20% from seed to seed. ``train`` and ``eval`` draw this many KBs per
# workload seed ``n``, from seeds ``n * INPUT_SETS + j``, and cycle through
# them.
INPUT_SETS = 4


class Workload:
    """Defaults for workloads whose passes write no run directory."""

    inputs: list = []
    n = 0

    def next_slot(self) -> int:
        """Each input set runs twice in a row, so a traced run pairs every
        traced pass with an untraced pass on the same inputs."""
        slot = (self.n // 2) % len(self.inputs)
        self.n += 1
        return slot

    def bytes_written(self, out) -> float:
        return 0.0

    def discard(self, out) -> None:
        pass


# ------------------------------------------------------------------ pipeline


class Pipeline(Workload):
    """``kiqa pipeline`` through ``cli.main`` at the shipped defaults, with
    the seed overrides placed before ``--run-dir``."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        s = seeds(seed)
        self.overrides = list(TINY_PIPELINE if tiny else ()) + [
            f"synth.seed={s['synth']}", f"assembler.seed={s['assembler']}",
            f"inject.seed={s['inject']}", f"finetune.seed={s['finetune']}",
        ]
        config = cli.load_config(None, self.overrides)
        self.cells = len(config["synth.languages"]) ** 2
        self.per_cell = config["synth.n_qa_per_lang_pair"]
        self.work = work
        self.n = 0

    def run(self):
        self.n += 1
        run_dir = self.work / f"pipeline-{self.n}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["pipeline", *self.overrides, "--run-dir", str(run_dir)])
        return rc, run_dir

    def check(self, out) -> list[str]:
        rc, run_dir = out
        if rc != 0:
            return ["pipeline exit code"]
        failed = []
        for arm in ("injected", "baseline"):
            report = json.loads((run_dir / "reports" / f"report_{arm}.json").read_text(encoding="utf-8"))
            counts = [cell["count"] for cell in report["cells"]]
            if counts != [self.per_cell] * self.cells:
                failed.append(f"{arm} report cells {counts}")
        return failed

    def fingerprint(self, out) -> tuple[int, str]:
        return 0, sha256_file(out[1] / "ckpt-final.bin")

    def named(self, pass_s: list[float]) -> dict[str, tuple[float, str, int]]:
        return {"pipeline_s": (statistics.median(pass_s), "s", len(pass_s))}

    def bytes_written(self, out) -> float:
        return float(sum(p.stat().st_size for p in out[1].rglob("*") if p.is_file()))

    def discard(self, out) -> None:
        shutil.rmtree(out[1])


# The FAST settings of the CLI tests, for the benchmark's own tests.
TINY_PIPELINE = (
    "synth.n_entities=30", "synth.n_relations=5", "synth.n_triples=60",
    "synth.n_qa_per_lang_pair=5", "synth.n_qa_train=12",
    "assembler.n_triples=40", "assembler.render_max_len=32",
    "model.n_layers=1", "model.n_heads=2", "model.d_model=16", "model.d_ff=32", "model.max_len=48",
    "model.dropout=0.0", "inject.epochs=1", "inject.learning_rate=1e-3",
    "finetune.epochs=1", "finetune.learning_rate=1e-3", "eval.max_answer_len=4",
)


# --------------------------------------------------------------------- train


@dataclasses.dataclass(frozen=True)
class TrainSize:
    n_entities: int
    n_relations: int
    n_triples: int
    corpus_triples: int
    n_qa_train: int
    epochs: int
    model: dict


TRAIN_SIZE = TrainSize(200, 20, 1000, 300, 160, 3, {})
TINY_TRAIN = TrainSize(30, 5, 60, 40, 24, 3,
                       {"n_layers": 1, "n_heads": 2, "d_model": 16, "d_ff": 32, "max_len": 48})


@dataclasses.dataclass
class TrainInputs:
    corpus: list
    vocab: textmodel.Vocab
    qa_train: list
    model: encoder.ModelConfig
    inject: training.TrainConfig
    finetune: training.TrainConfig


def _train_inputs(seed: int, size: TrainSize, work: Path) -> TrainInputs:
    s = seeds(seed)
    spec = synthlang.SynthSpec(
        n_entities=size.n_entities, n_relations=size.n_relations, n_triples=size.n_triples,
        languages=("syn0", "syn1"), n_qa_per_lang_pair=1, n_qa_train=size.n_qa_train, seed=s["synth"],
    )
    work.mkdir()
    kb, qa = _write_kb_and_qa(synthlang.gen_kb(spec), spec, work)
    corpus = assembler.build_corpus(kb, spec.languages, size.corpus_triples, (1.0, 1.0, 1.0), s["assembler"])
    assembler.save_corpus(corpus, work / "corpus.jsonl")
    vocab = _vocab(kb, work)
    return TrainInputs(
        corpus=assembler.load_corpus(work / "corpus.jsonl"),
        vocab=vocab,
        qa_train=qa["train"],
        model=encoder.ModelConfig(vocab_size=len(vocab), **size.model),
        inject=training.TrainConfig(phase="inject", learning_rate=1e-3, batch_size=24,
                                    epochs=size.epochs, seed=s["inject"]),
        finetune=training.TrainConfig(phase="finetune", learning_rate=1e-3, batch_size=16,
                                      epochs=size.epochs, seed=s["finetune"]),
    )


def epoch_means(result, config) -> list[float]:
    losses = [rec["loss"] for rec in result.history]
    per_epoch = len(losses) // config.epochs
    return [float(np.mean(losses[i * per_epoch:(i + 1) * per_epoch])) for i in range(config.epochs)]


class Train(Workload):
    """``run_injection`` then ``run_finetune`` at the default model shape
    with dropout 0.1, B=24/16 and lr 1e-3, for several epochs."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        size = TINY_TRAIN if tiny else TRAIN_SIZE
        self.inputs = [_train_inputs(seed * INPUT_SETS + j, size, work / f"kb{j}") for j in range(INPUT_SETS)]
        self.work = work
        self.rates: dict[str, list[float]] = {"inject": [], "finetune": []}
        self.final_losses: dict[int, tuple[float, float]] = {}

    def run(self):
        slot = self.next_slot()
        x = self.inputs[slot]
        t0 = perf_counter()
        inj = training.run_injection(x.corpus, x.vocab, x.inject, x.model)
        t1 = perf_counter()
        ft = training.run_finetune(inj.params, x.qa_train, x.vocab, x.finetune)
        t2 = perf_counter()
        # Items trained on: rendered samples and located QA examples, per epoch.
        self.rates["inject"].append((len(x.corpus) - inj.dropped) * x.inject.epochs / (t1 - t0))
        self.rates["finetune"].append((len(x.qa_train) - ft.dropped) * x.finetune.epochs / (t2 - t1))
        return slot, inj, ft

    def check(self, out) -> list[str]:
        slot, inj, ft = out
        x = self.inputs[slot]
        failed = []
        for phase, result, config in (("inject", inj, x.inject), ("finetune", ft, x.finetune)):
            means = epoch_means(result, config)
            if not all(math.isfinite(m) for m in means):
                failed.append(f"{phase} loss not finite")
            elif not means[-1] < means[0]:
                failed.append(f"{phase} final-epoch loss {means[-1]:.4f} not below first {means[0]:.4f}")
        self.final_losses[slot] = epoch_means(inj, x.inject)[-1], epoch_means(ft, x.finetune)[-1]
        path = self.work / f"ckpt-final-{slot}.bin"
        encoder.save_checkpoint(path, ft.params)
        loaded, _ = encoder.load_checkpoint(path)
        tensors = ft.params.tensors
        if loaded.tensors.keys() != tensors.keys() or not all(
            np.array_equal(loaded.tensors[k], tensors[k]) for k in tensors
        ):
            failed.append("checkpoint round trip")
        return failed

    def fingerprint(self, out) -> tuple[int, str]:
        return out[0], sha256_file(self.work / f"ckpt-final-{out[0]}.bin")

    def named(self, pass_s: list[float]) -> dict[str, tuple[float, str, int]]:
        inject_loss, finetune_loss = (statistics.fmean(v) for v in zip(*self.final_losses.values()))
        n_kbs = len(self.final_losses)
        return {
            "inject_samples_per_s": (statistics.median(self.rates["inject"]), "1/s", len(self.rates["inject"])),
            "finetune_examples_per_s": (statistics.median(self.rates["finetune"]), "1/s", len(self.rates["finetune"])),
            "inject_loss": (inject_loss, "nats", n_kbs),
            "finetune_loss": (finetune_loss, "nats", n_kbs),
        }


# ---------------------------------------------------------------------- eval

# syn1 is rewritten in CJK script, one ideograph per letter or digit, so the
# tokenizer's per-character path, long sequences and normalize_answer's CJK
# branch carry load.
_IDEOGRAPHS = {ch: chr(0x4E00 + 0x100 * i) for i, ch in enumerate("abcdefghijklmnopqrstuvwxyz0123456789")}


def to_cjk(text: str) -> str:
    return "".join(_IDEOGRAPHS.get(ch, ch) for ch in text)


def cjk_kb(kb, source: str, target: str):
    """The same KB with language ``source`` rewritten by ``to_cjk`` and
    relabelled ``target``."""
    def forms(item):
        return {(target if lang == source else lang): (to_cjk(text) if lang == source else text)
                for lang, text in item.forms.items()}

    entities = {i: kbmod.Entity(id=i, forms=forms(e)) for i, e in kb.entities.items()}
    relations = {i: kbmod.Relation(id=i, forms=forms(r)) for i, r in kb.relations.items()}
    return kbmod.build_kb(entities, relations, kb.triples)


@dataclasses.dataclass(frozen=True)
class EvalSize:
    n_entities: int
    n_relations: int
    n_triples: int
    n_qa_per_lang_pair: int
    model: dict


EVAL_SIZE = EvalSize(200, 20, 1000, 120, {})
TINY_EVAL = EvalSize(30, 5, 60, 5, {"n_layers": 1, "n_heads": 2, "d_model": 16, "d_ff": 32})


@dataclasses.dataclass
class EvalInputs:
    vocab: textmodel.Vocab
    params: encoder.EncoderParams
    examples: list
    cells: dict


def _eval_inputs(seed: int, size: EvalSize, work: Path) -> EvalInputs:
    s = seeds(seed)
    spec = synthlang.SynthSpec(
        n_entities=size.n_entities, n_relations=size.n_relations, n_triples=size.n_triples,
        languages=("syn0", "syn1"), n_qa_per_lang_pair=size.n_qa_per_lang_pair, n_qa_train=1,
        seed=s["synth"],
    )
    kb = cjk_kb(synthlang.gen_kb(spec), "syn1", "zh")
    spec = dataclasses.replace(spec, languages=("syn0", "zh"))
    work.mkdir()
    kb, qa = _write_kb_and_qa(kb, spec, work)
    vocab = _vocab(kb, work)
    model = encoder.ModelConfig(vocab_size=len(vocab), **size.model)
    path = work / "ckpt-init.bin"
    encoder.save_checkpoint(path, encoder.init_params(model, s["inject"]))
    return EvalInputs(
        vocab=vocab,
        params=encoder.load_checkpoint(path)[0],
        # Cell by cell, in the order `kiqa evaluate` reads the test files.
        examples=[ex for key in sorted(k for k in qa if k != "train") for ex in qa[key]],
        cells={(c, q): size.n_qa_per_lang_pair for c in spec.languages for q in spec.languages},
    )


class Eval(Workload):
    """``evaluate`` (batch 64, max_answer_len 30) over every (context,
    question) cell of syn0 and CJK-script zh, from a seeded ``init_params``
    checkpoint."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        size = TINY_EVAL if tiny else EVAL_SIZE
        self.inputs = [_eval_inputs(seed * INPUT_SETS + j, size, work / f"kb{j}") for j in range(INPUT_SETS)]
        self.verified: dict[int, dict] = {}

    def run(self):
        slot = self.next_slot()
        x = self.inputs[slot]
        return slot, evaluation.evaluate(x.params, x.vocab, x.examples, max_answer_len=30, batch_size=64)

    def check(self, out) -> list[str]:
        slot, report = out
        x = self.inputs[slot]
        failed = []
        counts = {key: cell.count for key, cell in report.cells.items()}
        if counts != x.cells:
            failed.append(f"cell counts {counts}")
        if slot not in self.verified:
            # Predictions are checked once per input set, outside the timed
            # loop; every timed pass must then score exactly as they do.
            preds = evaluation.predict_spans(x.params, x.vocab, x.examples, 30, 64)
            bad = sum(1 for ex, p in zip(x.examples, preds) if p not in ex.context)
            if bad:
                failed.append(f"{bad} predictions not verbatim substrings of their context")
            self.verified[slot] = evaluation.score_examples(x.examples, preds).to_dict()
        if report.to_dict() != self.verified[slot]:
            failed.append("report differs from the verified predictions")
        return failed

    def fingerprint(self, out) -> tuple[int, str]:
        return out[0], hashlib.sha256(json.dumps(out[1].to_dict(), sort_keys=True).encode()).hexdigest()

    def named(self, pass_s: list[float]) -> dict[str, tuple[float, str, int]]:
        rate = statistics.median(len(self.inputs[0].examples) / t for t in pass_s)
        return {"eval_examples_per_s": (rate, "1/s", len(pass_s))}


WORKLOADS = {"pipeline": Pipeline, "train": Train, "eval": Eval}
