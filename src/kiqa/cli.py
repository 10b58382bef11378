"""Pipeline orchestration: one flat config file, key=value overrides, and
subcommands that persist corpora, checkpoints, logs, and reports.

Every artifact records the hash of the resolved config so mismatched
checkpoint/vocab pairs are refused at evaluation time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import assembler, evaluation, kb as kbmod, synthlang, textmodel, training
from .encoder import ModelConfig, load_checkpoint, save_checkpoint
from .errors import ArtifactMismatchError, ConfigError, PipelineError

# key -> (parser, default); the resolved mapping is what gets hashed.
_SCHEMA: dict[str, tuple] = {
    "kb.entities": (str, ""),
    "kb.relations": (str, ""),
    "kb.triples": (str, ""),
    "assembler.langs": ("strlist", ""),
    "assembler.n_triples": (int, 1000),
    "assembler.kind_weights": ("floats3", "1,1,1"),
    "assembler.seed": (int, 11),
    "assembler.render_max_len": (int, 128),
    "assembler.vocab_max_size": (int, 4096),
    "model.n_layers": (int, 2),
    "model.n_heads": (int, 4),
    "model.d_model": (int, 64),
    "model.d_ff": (int, 256),
    "model.max_len": (int, 384),
    "model.dropout": (float, 0.1),
    "inject.learning_rate": (float, 2e-5),
    "inject.batch_size": (int, 24),
    "inject.epochs": (int, 1),
    "inject.warmup_fraction": (float, 0.06),
    "inject.weight_decay": (float, 0.01),
    "inject.seed": (int, 1),
    "inject.max_grad_norm": ("optfloat", "none"),
    "finetune.learning_rate": (float, 3e-5),
    "finetune.batch_size": (int, 16),
    "finetune.epochs": (int, 2),
    "finetune.warmup_fraction": (float, 0.06),
    "finetune.weight_decay": (float, 0.01),
    "finetune.seed": (int, 2),
    "finetune.max_grad_norm": ("optfloat", "none"),
    "eval.dataset": ("strlist", ""),
    "eval.max_answer_len": (int, 30),
    "eval.batch_size": (int, 64),
    "eval.default_context_lang": (str, ""),
    "eval.default_question_lang": (str, ""),
    "synth.n_entities": (int, 200),
    "synth.n_relations": (int, 20),
    "synth.n_triples": (int, 1000),
    "synth.languages": ("strlist", "syn0,syn1"),
    "synth.n_qa_per_lang_pair": (int, 200),
    "synth.n_qa_train": (int, 400),
    "synth.seed": (int, 7),
}


def _parse_value(key: str, raw: str):
    kind = _SCHEMA[key][0]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind == "optfloat":
            return None if raw.lower() in ("none", "") else float(raw)
        if kind == "strlist":
            return tuple(part.strip() for part in raw.split(",") if part.strip())
        if kind == "floats3":
            parts = tuple(float(p) for p in raw.split(","))
            if len(parts) != 3:
                raise ValueError("expected three comma-separated numbers")
            return parts
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    raise AssertionError(f"unhandled kind {kind}")


@dataclass
class PipelineConfig:
    values: dict[str, object]
    raw: dict[str, str]

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def hash(self) -> str:
        blob = "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path: str | None, overrides: list[str]) -> PipelineConfig:
    """Defaults, then the config file, then key=value overrides. Unknown keys
    are rejected."""
    raw = {key: str(default) for key, (_, default) in _SCHEMA.items()}

    def apply(key: str, value: str, where: str):
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        raw[key] = value.strip()

    if path:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = stripped.split("=", 1)
                apply(key, value, f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = item.split("=", 1)
        apply(key, value, "override")

    values = {key: _parse_value(key, raw[key]) for key in _SCHEMA}
    return PipelineConfig(values=values, raw=raw)


# ----------------------------------------------------------------- artifacts


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def _write_manifest(run_dir: Path, command: str, config: PipelineConfig, extra: dict | None = None) -> None:
    payload = {"command": command, "config_hash": config.hash, "config": dict(sorted(config.raw.items()))}
    if extra:
        payload.update(extra)
    _write_json(run_dir / f"manifest-{command}.json", payload)


def _sidecar(path: Path, config: PipelineConfig, extra: dict | None = None) -> None:
    payload = {"config_hash": config.hash}
    if extra:
        payload.update(extra)
    _write_json(Path(str(path) + ".meta.json"), payload)


def _read_sidecar_hash(path: Path) -> str:
    meta_path = Path(str(path) + ".meta.json")
    if not meta_path.exists():
        raise ArtifactMismatchError(f"{path}: missing sidecar {meta_path.name}")
    with open(meta_path, encoding="utf-8") as fh:
        return json.load(fh)["config_hash"]


def _kb_paths(config: PipelineConfig, run_dir: Path) -> tuple[Path, Path, Path]:
    if config["kb.entities"]:
        return Path(config["kb.entities"]), Path(config["kb.relations"]), Path(config["kb.triples"])
    data = run_dir / "data"
    return data / "entities.jsonl", data / "relations.jsonl", data / "triples.jsonl"


def _langs(config: PipelineConfig) -> tuple[str, ...]:
    return config["assembler.langs"] or config["synth.languages"]


def _synth_spec(config: PipelineConfig) -> synthlang.SynthSpec:
    return synthlang.SynthSpec(
        n_entities=config["synth.n_entities"],
        n_relations=config["synth.n_relations"],
        n_triples=config["synth.n_triples"],
        languages=tuple(config["synth.languages"]),
        n_qa_per_lang_pair=config["synth.n_qa_per_lang_pair"],
        n_qa_train=config["synth.n_qa_train"],
        seed=config["synth.seed"],
    )


def _train_config(config: PipelineConfig, phase: str) -> training.TrainConfig:
    return training.TrainConfig(
        phase="inject" if phase == "inject" else "finetune",
        learning_rate=config[f"{phase}.learning_rate"],
        batch_size=config[f"{phase}.batch_size"],
        epochs=config[f"{phase}.epochs"],
        warmup_fraction=config[f"{phase}.warmup_fraction"],
        weight_decay=config[f"{phase}.weight_decay"],
        seed=config[f"{phase}.seed"],
        max_grad_norm=config[f"{phase}.max_grad_norm"],
    )


def _model_config(config: PipelineConfig, vocab_size: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        n_layers=config["model.n_layers"],
        n_heads=config["model.n_heads"],
        d_model=config["model.d_model"],
        d_ff=config["model.d_ff"],
        max_len=config["model.max_len"],
        dropout=config["model.dropout"],
    )


def _load_kb(config: PipelineConfig, run_dir: Path) -> kbmod.KnowledgeBase:
    ents, rels, trips = _kb_paths(config, run_dir)
    return kbmod.load_kb(ents, rels, trips)


def _write_train_log(path: Path, history: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in history:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# --------------------------------------------------------------- subcommands


def cmd_synth_gen(config: PipelineConfig, run_dir: Path) -> None:
    spec = _synth_spec(config)
    kb = synthlang.gen_kb(spec)
    data = run_dir / "data"
    data.mkdir(parents=True, exist_ok=True)
    kbmod.save_kb(kb, data / "entities.jsonl", data / "relations.jsonl", data / "triples.jsonl")
    train, test = synthlang.gen_qa(spec, kb)
    qa_dir = data / "qa"
    qa_dir.mkdir(exist_ok=True)
    _write_json(qa_dir / "train.json", train)
    for (clang, qlang), payload in sorted(test.items()):
        _write_json(qa_dir / f"test_{clang}_{qlang}.json", payload)
    _write_manifest(
        run_dir, "synth-gen", config,
        {"seed": spec.seed, "n_triples": len(kb.triples), "languages": list(spec.languages)},
    )
    print(f"synth-gen: {len(kb.entities)} entities, {len(kb.relations)} relations, "
          f"{len(kb.triples)} triples, {len(test)} test splits -> {data}")


def cmd_kb_validate(config: PipelineConfig, run_dir: Path) -> None:
    kb = _load_kb(config, run_dir)
    print(f"kb-validate: OK {len(kb.entities)} entities, {len(kb.relations)} relations, "
          f"{len(kb.triples)} triples, languages {sorted(kb.languages)}")


def _assemble_into(config: PipelineConfig, run_dir: Path, kind_weights, corpus_name: str) -> tuple[Path, int]:
    kb = _load_kb(config, run_dir)
    langs = _langs(config)
    corpus = assembler.build_corpus(
        kb, langs, config["assembler.n_triples"], kind_weights, config["assembler.seed"]
    )
    corpus_path = run_dir / corpus_name
    assembler.save_corpus(corpus, corpus_path)
    _sidecar(corpus_path, config, {"n_samples": len(corpus)})
    return corpus_path, len(corpus)


def _build_vocab_artifact(config: PipelineConfig, run_dir: Path) -> Path:
    kb = _load_kb(config, run_dir)
    langs = set(_langs(config))
    texts = []
    for coll in (kb.entities, kb.relations):
        for ident in sorted(coll):
            texts.extend(text for lang, text in sorted(coll[ident].forms.items()) if lang in langs)
    vocab = textmodel.build_vocab(texts, config["assembler.vocab_max_size"])
    vocab_path = run_dir / "vocab.txt"
    textmodel.save_vocab(vocab, vocab_path)
    _sidecar(vocab_path, config, {"size": len(vocab)})
    return vocab_path


def cmd_assemble(config: PipelineConfig, run_dir: Path) -> None:
    corpus_path, n = _assemble_into(config, run_dir, config["assembler.kind_weights"], "corpus.jsonl")
    vocab_path = _build_vocab_artifact(config, run_dir)
    _write_manifest(run_dir, "assemble", config, {"seed": config["assembler.seed"], "n_samples": n})
    print(f"assemble: {n} samples -> {corpus_path}, vocab -> {vocab_path}")


def _run_injection(config: PipelineConfig, run_dir: Path, corpus_file: str, ckpt_name: str, log_name: str) -> None:
    corpus = assembler.load_corpus(run_dir / corpus_file)
    vocab = textmodel.load_vocab(run_dir / "vocab.txt")
    model_config = _model_config(config, len(vocab))
    result = training.run_injection(
        corpus, vocab, _train_config(config, "inject"), model_config,
        render_max_len=config["assembler.render_max_len"],
    )
    ckpt = run_dir / ckpt_name
    save_checkpoint(ckpt, result.params, meta={"config_hash": config.hash, "phase": "inject"})
    _write_train_log(run_dir / "logs" / log_name, result.history)
    final = result.history[-1]["loss"] if result.history else float("nan")
    print(f"inject: {len(result.history)} steps, final loss {final:.4f}, "
          f"{result.dropped} overflowed -> {ckpt}")


def cmd_inject(config: PipelineConfig, run_dir: Path) -> None:
    _run_injection(config, run_dir, "corpus.jsonl", "ckpt-inject.bin", "inject.jsonl")
    _write_manifest(run_dir, "inject", config, {"seed": config["inject.seed"]})


def _run_finetune(config: PipelineConfig, run_dir: Path, init_name: str, ckpt_name: str, log_name: str) -> None:
    params, meta = load_checkpoint(run_dir / init_name)
    if meta.get("config_hash") != config.hash:
        raise ArtifactMismatchError(f"{init_name}: checkpoint config hash does not match current config")
    vocab = textmodel.load_vocab(run_dir / "vocab.txt")
    dataset = evaluation.load_qa_dataset(run_dir / "data" / "qa" / "train.json")
    result = training.run_finetune(params, dataset, vocab, _train_config(config, "finetune"))
    ckpt = run_dir / ckpt_name
    save_checkpoint(ckpt, result.params, meta={"config_hash": config.hash, "phase": "finetune"})
    _write_train_log(run_dir / "logs" / log_name, result.history)
    final = result.history[-1]["loss"] if result.history else float("nan")
    print(f"finetune: {len(result.history)} steps, final loss {final:.4f}, "
          f"{result.dropped} dropped -> {ckpt}")


def cmd_finetune(config: PipelineConfig, run_dir: Path) -> None:
    _run_finetune(config, run_dir, "ckpt-inject.bin", "ckpt-final.bin", "finetune.jsonl")
    _write_manifest(run_dir, "finetune", config, {"seed": config["finetune.seed"]})


def _test_dataset_paths(config: PipelineConfig, run_dir: Path) -> list[Path]:
    if config["eval.dataset"]:
        return [Path(p) for p in config["eval.dataset"]]
    qa_dir = run_dir / "data" / "qa"
    paths = sorted(qa_dir.glob("test_*.json"))
    if not paths:
        raise ConfigError(f"no eval datasets configured and none found under {qa_dir}")
    return paths


def _evaluate_checkpoint(config: PipelineConfig, run_dir: Path, ckpt_name: str, report_stem: str) -> evaluation.EvalReport:
    params, meta = load_checkpoint(run_dir / ckpt_name)
    if meta.get("config_hash") != config.hash:
        raise ArtifactMismatchError(f"{ckpt_name}: checkpoint config hash does not match current config")
    vocab_path = run_dir / "vocab.txt"
    if meta.get("config_hash") != _read_sidecar_hash(vocab_path):
        raise ArtifactMismatchError("checkpoint and vocab were produced by different configs")
    vocab = textmodel.load_vocab(vocab_path)
    examples = []
    for path in _test_dataset_paths(config, run_dir):
        examples.extend(
            evaluation.load_qa_dataset(
                path,
                default_context_lang=config["eval.default_context_lang"],
                default_question_lang=config["eval.default_question_lang"],
            )
        )
    report = evaluation.evaluate(
        params, vocab, examples,
        max_answer_len=config["eval.max_answer_len"],
        batch_size=config["eval.batch_size"],
    )
    reports = run_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    text = evaluation.format_report(report)
    (reports / f"{report_stem}.txt").write_text(text + "\n", encoding="utf-8")
    _write_json(reports / f"{report_stem}.json", {"config_hash": config.hash, **report.to_dict()})
    print(f"{report_stem}:")
    print(text)
    return report


def cmd_evaluate(config: PipelineConfig, run_dir: Path) -> None:
    _evaluate_checkpoint(config, run_dir, "ckpt-final.bin", "report")
    _write_manifest(run_dir, "evaluate", config)


def cmd_coverage(config: PipelineConfig, run_dir: Path) -> None:
    kb = _load_kb(config, run_dir)
    questions = []
    for path in _test_dataset_paths(config, run_dir):
        for ex in evaluation.load_qa_dataset(
            path,
            default_context_lang=config["eval.default_context_lang"],
            default_question_lang=config["eval.default_question_lang"],
        ):
            questions.append((ex.question, ex.question_lang))
    triple_texts = []
    for lang in sorted({lang for _, lang in questions}):
        if lang not in kb.languages:
            continue
        for t in kbmod.triples_renderable(kb, (lang,)):
            triple_texts.append((kbmod.triple_text(kb, t, lang), lang))
    report = evaluation.token_coverage(questions, triple_texts)
    _write_json(run_dir / "reports" / "coverage.json",
                {"config_hash": config.hash, "per_lang": report.per_lang})
    for lang, frac in sorted(report.per_lang.items()):
        print(f"coverage {lang}: {frac:.4f}")


def cmd_pipeline(config: PipelineConfig, run_dir: Path) -> None:
    """synth-gen -> assemble -> inject -> finetune -> evaluate, plus the
    monolingual-injection baseline trained for the same number of steps."""
    cmd_synth_gen(config, run_dir)
    cmd_assemble(config, run_dir)
    _run_injection(config, run_dir, "corpus.jsonl", "ckpt-inject.bin", "inject.jsonl")
    _run_finetune(config, run_dir, "ckpt-inject.bin", "ckpt-final.bin", "finetune.jsonl")
    injected = _evaluate_checkpoint(config, run_dir, "ckpt-final.bin", "report_injected")

    # Baseline: same data exposure and step count, but K1-only (monolingual).
    _assemble_into(config, run_dir, (1.0, 0.0, 0.0), "corpus_baseline.jsonl")
    _run_injection(config, run_dir, "corpus_baseline.jsonl", "ckpt-inject-baseline.bin", "inject_baseline.jsonl")
    _run_finetune(config, run_dir, "ckpt-inject-baseline.bin", "ckpt-final-baseline.bin", "finetune_baseline.jsonl")
    baseline = _evaluate_checkpoint(config, run_dir, "ckpt-final-baseline.bin", "report_baseline")

    delta = injected.cross_pair_f1() - baseline.cross_pair_f1()
    print(f"pipeline: cross-pair F1 injected {injected.cross_pair_f1():.2f} "
          f"vs baseline {baseline.cross_pair_f1():.2f} (delta {delta:+.2f})")
    _write_manifest(run_dir, "pipeline", config, {
        "cross_pair_f1_injected": injected.cross_pair_f1(),
        "cross_pair_f1_baseline": baseline.cross_pair_f1(),
    })


_COMMANDS = {
    "synth-gen": cmd_synth_gen,
    "kb-validate": cmd_kb_validate,
    "assemble": cmd_assemble,
    "inject": cmd_inject,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "coverage": cmd_coverage,
    "pipeline": cmd_pipeline,
}


def _resolve_run_dir(arg: str | None, config: PipelineConfig) -> Path:
    if arg:
        path = Path(arg)
        path.mkdir(parents=True, exist_ok=True)
        return path
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path("runs") / f"{stamp}-{config.hash[:12]}"
    path = base
    counter = 1
    while path.exists():
        path = Path(f"{base}-{counter}")
        counter += 1
    path.mkdir(parents=True)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kiqa",
        description="Knowledge-injected cross-lingual extractive QA pipeline",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument(
        "overrides", nargs="*",
        help="config overrides as key=value; they may appear before or after --config/--run-dir",
    )
    parser.add_argument("--config", default=None, help="flat config file (key = value lines)")
    parser.add_argument("--run-dir", default=None, help="artifact directory (default: runs/<stamp>-<hash>)")
    # Intermixed, so that `CMD --run-dir X k=v` parses like `CMD k=v --run-dir X`.
    args = parser.parse_intermixed_args(argv)

    try:
        config = load_config(args.config, args.overrides)
        run_dir = _resolve_run_dir(args.run_dir, config)
        print(f"run dir: {run_dir} (config {config.hash[:12]})")
        _COMMANDS[args.command](config, run_dir)
    except PipelineError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
