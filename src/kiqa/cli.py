"""Pipeline orchestration: one flat config file, key=value overrides, and
subcommands that persist corpora, checkpoints, logs, and reports.

Every artifact records the hash of the resolved config; a command refuses a
KB or QA file of ``synth-gen``, a corpus, vocab or checkpoint written under
another config before reading it. External ``kb.*`` and ``eval.dataset``
files carry no hash and are read as they are.

An arm, a row of ``_ARMS``, is a name and its kind weights. The first row's
files carry no suffix (``corpus.jsonl``, ``ckpt-inject.bin``, ``ckpt-final.bin``,
``logs/{inject,finetune}.jsonl``); every other row puts ``-<name>`` before the
extension. Each row is scored by ``evaluation.evaluate``, as the ``eval``
benchmark is. It reports to ``reports/report_<name>.{txt,json}`` and writes
``EvalReport.predictions``, one line per eval example in input order, to
``reports/predictions_<name>.jsonl``. The single-step commands run the first
row.

``pipeline`` trains the rows of ``_ARMS`` in forked worker processes, at
most ``min(arms, cpus)`` at a time, so it runs on POSIX only; each arm
trains on one thread and evaluates on its share of the CPUs as processes.
Rows are submitted in table order; each arm's output and the first failing
arm's error come back in table order. A failing arm does not stop the others,
which may still write their artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import assembler, evaluation, kb as kbmod, synthlang, textmodel, training
from .encoder import EncoderParams, ModelConfig, load_checkpoint, save_checkpoint
from .errors import ArtifactMismatchError, ConfigError, PipelineError
from .fileio import atomic_write, read_utf8

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

    def section(self, prefix: str) -> dict[str, object]:
        """The ``prefix.*`` values, keyed by the name after the dot."""
        head = prefix + "."
        return {key[len(head):]: value for key, value in self.values.items() if key.startswith(head)}

    def train_config(self, phase: str) -> training.TrainConfig:
        """The ``inject`` or ``finetune`` section as a checked TrainConfig."""
        return training.TrainConfig(phase=phase, **self.section(phase))

    @property
    def hash(self) -> str:
        blob = "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path: str | None, overrides: list[str]) -> PipelineConfig:
    """Defaults, then the config file, then key=value overrides. Unknown keys
    are rejected, and so are out-of-range values and K2/K3 weights with fewer
    than two languages, before any command writes anything. Each section's
    values go through the check its reader runs, where one exists."""
    raw = {key: str(default) for key, (_, default) in _SCHEMA.items()}

    def apply(key: str, value: str, where: str):
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        raw[key] = value.strip()

    if path:
        with read_utf8(path, ConfigError) as fh:
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
    config = PipelineConfig(values=values, raw=raw)
    for phase in ("inject", "finetune"):
        config.train_config(phase)
    # Every vocabulary holds the special tokens, so this is the smallest real vocab_size.
    ModelConfig(vocab_size=len(textmodel.SPECIAL_TOKENS), **config.section("model"))
    evaluation.check_eval_values(config["eval.max_answer_len"], config["eval.batch_size"])
    synthlang.SynthSpec(**config.section("synth"))
    assembler.check_kind_weights(config["assembler.kind_weights"], _langs(config))
    try:
        textmodel.build_vocab((), config["assembler.vocab_max_size"])  # refuses a size below the special tokens'
    except ConfigError as exc:
        raise ConfigError(f"assembler.vocab_max_size: {exc}") from exc
    # n_triples' upper bound, the number of renderable triples, needs the KB: build_corpus checks it.
    if config["assembler.n_triples"] < 1:
        raise ConfigError(f"assembler.n_triples must be >= 1, got {config['assembler.n_triples']}")
    if config["assembler.render_max_len"] < 5:
        raise ConfigError("assembler.render_max_len must be >= 5, the length of the shortest sample "
                          f"([CLS] head relation tail [SEP]), got {config['assembler.render_max_len']}")
    return config


# ----------------------------------------------------------------- artifacts


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n")


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


def _own_artifact(config: PipelineConfig, path: Path) -> Path:
    """``path``, refused unless its sidecar records this config's hash."""
    if not path.exists():  # reported as the missing artifact, not as its missing sidecar
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    meta_path = Path(str(path) + ".meta.json")
    if not meta_path.exists():
        raise ArtifactMismatchError(f"{path}: missing sidecar {meta_path.name}")
    with open(meta_path, encoding="utf-8") as fh:
        try:
            config_hash = json.load(fh)["config_hash"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ArtifactMismatchError(f"{meta_path}: malformed sidecar ({exc!r})") from exc
    if config_hash != config.hash:
        raise ArtifactMismatchError(f"{path}: written under another config")
    return path


def _load_own_checkpoint(config: PipelineConfig, path: Path) -> EncoderParams:
    """Load a checkpoint of this run, refusing one written under another config."""
    params, meta = load_checkpoint(path)
    if meta.get("config_hash") != config.hash:
        raise ArtifactMismatchError(f"{path.name}: checkpoint config hash does not match current config")
    return params


def _load_vocab(config: PipelineConfig, run_dir: Path) -> textmodel.Vocab:
    return textmodel.load_vocab(_own_artifact(config, run_dir / "vocab.txt"))


_KB_FILES = ("entities.jsonl", "relations.jsonl", "triples.jsonl")


def _load_kb(config: PipelineConfig, run_dir: Path) -> kbmod.KnowledgeBase:
    if config["kb.entities"]:
        return kbmod.load_kb(config["kb.entities"], config["kb.relations"], config["kb.triples"])
    return kbmod.load_kb(*(_own_artifact(config, run_dir / "data" / name) for name in _KB_FILES))


def _langs(config: PipelineConfig) -> tuple[str, ...]:
    return config["assembler.langs"] or config["synth.languages"]


def _write_train_log(path: Path, history: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for rec in history:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# --------------------------------------------------------------- subcommands


def cmd_synth_gen(config: PipelineConfig, run_dir: Path) -> None:
    spec = synthlang.SynthSpec(**config.section("synth"))
    kb = synthlang.gen_kb(spec)
    train, test = synthlang.gen_qa(spec, kb)  # before any write: it refuses a KB too small for its contexts
    data = run_dir / "data"
    data.mkdir(parents=True, exist_ok=True)
    kb_paths = [data / name for name in _KB_FILES]
    kbmod.save_kb(kb, *kb_paths)
    qa_dir = data / "qa"
    qa_dir.mkdir(exist_ok=True)
    qa_files = {qa_dir / "train.json": train}
    for (clang, qlang), payload in sorted(test.items()):
        qa_files[qa_dir / f"test_{clang}_{qlang}.json"] = payload
    for path, payload in qa_files.items():
        _write_json(path, payload)
    for path in kb_paths + list(qa_files):
        _sidecar(path, config)
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


@dataclass(frozen=True)
class Arm:
    """One trained arm of ``pipeline``: its name and the kind weights of its
    own corpus (``None``: the corpus ``assemble`` wrote). The first row's files
    carry no suffix; every other row's put ``-<name>`` before the extension."""

    name: str
    kind_weights: tuple[float, float, float] | None

    def path(self, run_dir: Path, name: str) -> Path:
        # ==, not is: the pool pickles each Arm into its worker.
        if self != _ARMS[0]:
            stem, ext = name.rsplit(".", 1)
            name = f"{stem}-{self.name}.{ext}"
        return run_dir / name


_ARMS = (
    Arm("injected", None),
    # Same data exposure and step count, but K1-only (monolingual).
    Arm("baseline", (1.0, 0.0, 0.0)),
)


def _assemble_into(config: PipelineConfig, run_dir: Path, arm: Arm, kb: kbmod.KnowledgeBase) -> tuple[Path, int]:
    kind_weights = config["assembler.kind_weights"] if arm.kind_weights is None else arm.kind_weights
    corpus = assembler.build_corpus(
        kb, _langs(config), config["assembler.n_triples"], kind_weights, config["assembler.seed"]
    )
    corpus_path = arm.path(run_dir, "corpus.jsonl")
    assembler.save_corpus(corpus, corpus_path)
    _sidecar(corpus_path, config, {"n_samples": len(corpus)})
    return corpus_path, len(corpus)


def _build_vocab_artifact(config: PipelineConfig, run_dir: Path, kb: kbmod.KnowledgeBase) -> Path:
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
    kb = _load_kb(config, run_dir)
    corpus_path, n = _assemble_into(config, run_dir, _ARMS[0], kb)
    vocab_path = _build_vocab_artifact(config, run_dir, kb)
    _write_manifest(run_dir, "assemble", config, {"seed": config["assembler.seed"], "n_samples": n})
    print(f"assemble: {n} samples -> {corpus_path}, vocab -> {vocab_path}")


def _save_phase(config: PipelineConfig, run_dir: Path, arm: Arm, phase: str, ckpt_name: str,
                result: training.TrainResult, dropped: str) -> None:
    ckpt = arm.path(run_dir, ckpt_name)
    save_checkpoint(ckpt, result.params, meta={"config_hash": config.hash, "phase": phase})
    _write_train_log(arm.path(run_dir, f"logs/{phase}.jsonl"), result.history)
    print(f"{phase}: {len(result.history)} steps, final loss {result.history[-1]['loss']:.4f}, "
          f"{result.dropped} {dropped} -> {ckpt}")


def _run_injection(config: PipelineConfig, run_dir: Path, arm: Arm) -> None:
    corpus = assembler.load_corpus(_own_artifact(config, arm.path(run_dir, "corpus.jsonl")))
    vocab = _load_vocab(config, run_dir)
    result = training.run_injection(
        corpus, vocab, config.train_config("inject"),
        ModelConfig(vocab_size=len(vocab), **config.section("model")),
        render_max_len=config["assembler.render_max_len"],
    )
    _save_phase(config, run_dir, arm, "inject", "ckpt-inject.bin", result, "overflowed")


def cmd_inject(config: PipelineConfig, run_dir: Path) -> None:
    _run_injection(config, run_dir, _ARMS[0])
    _write_manifest(run_dir, "inject", config, {"seed": config["inject.seed"]})


def _run_finetune(config: PipelineConfig, run_dir: Path, arm: Arm) -> None:
    params = _load_own_checkpoint(config, arm.path(run_dir, "ckpt-inject.bin"))
    vocab = _load_vocab(config, run_dir)
    dataset = evaluation.load_qa_dataset(_own_artifact(config, run_dir / "data" / "qa" / "train.json"))
    result = training.run_finetune(params, dataset, vocab, config.train_config("finetune"))
    _save_phase(config, run_dir, arm, "finetune", "ckpt-final.bin", result, "dropped")


def cmd_finetune(config: PipelineConfig, run_dir: Path) -> None:
    _run_finetune(config, run_dir, _ARMS[0])
    _write_manifest(run_dir, "finetune", config, {"seed": config["finetune.seed"]})


def _test_dataset_paths(config: PipelineConfig, run_dir: Path) -> list[Path]:
    if config["eval.dataset"]:
        return [Path(p) for p in config["eval.dataset"]]
    qa_dir = run_dir / "data" / "qa"
    # The glob also matches each split's test_*.json.meta.json sidecar.
    paths = sorted(p for p in qa_dir.glob("test_*.json") if not p.name.endswith(".meta.json"))
    if not paths:
        raise ConfigError(f"no eval datasets configured and none found under {qa_dir}")
    return [_own_artifact(config, path) for path in paths]


def _evaluate_checkpoint(config: PipelineConfig, run_dir: Path, arm: Arm,
                         workers: int | None = None) -> evaluation.EvalReport:
    """Score the arm's final checkpoint on ``workers`` processes (default:
    every usable CPU) and write its reports and predictions."""
    params = _load_own_checkpoint(config, arm.path(run_dir, "ckpt-final.bin"))
    vocab = _load_vocab(config, run_dir)
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
        workers=workers,
    )
    reports = run_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    text = evaluation.format_report(report)
    stem = f"report_{arm.name}"
    with atomic_write(reports / f"{stem}.txt", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    _write_json(reports / f"{stem}.json", {"config_hash": config.hash, **report.to_dict()})
    with atomic_write(reports / f"predictions_{arm.name}.jsonl", "w", encoding="utf-8") as fh:
        for record in report.predictions:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"{stem}:")
    print(text)
    return report


def cmd_evaluate(config: PipelineConfig, run_dir: Path) -> None:
    _evaluate_checkpoint(config, run_dir, _ARMS[0])
    _write_manifest(run_dir, "evaluate", config)


def _run_arm(config: PipelineConfig, run_dir: Path, arm: Arm, eval_processes: int) -> tuple[float, str, float]:
    """Assemble the arm's own corpus if it has one, then inject and finetune
    on this process's thread and evaluate on ``eval_processes`` processes.
    Returns the cross-pair F1, the arm's printed lines and its wall seconds."""
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if arm.kind_weights is not None:
            _assemble_into(config, run_dir, arm, _load_kb(config, run_dir))
        _run_injection(config, run_dir, arm)
        _run_finetune(config, run_dir, arm)
        report = _evaluate_checkpoint(config, run_dir, arm, eval_processes)
    return report.cross_pair_f1(), out.getvalue(), time.perf_counter() - start


def _cpu_budget(arms: int, cpus: int) -> tuple[int, int]:
    """Forked workers for ``arms`` rows on ``cpus`` CPUs, and the processes
    each arm evaluates on: ``min(arms, cpus)`` and ``max(1, cpus // workers)``.
    An arm evaluates in itself and the children it forks, none with 1; it
    trains on its own thread whatever its share."""
    workers = min(arms, cpus)
    return workers, max(1, cpus // workers)


def cmd_pipeline(config: PipelineConfig, run_dir: Path) -> None:
    """synth-gen -> assemble, then every row of ``_ARMS``: the injected arm and
    the monolingual-injection baseline trained for the same number of steps.

    The rows go, in table order, to at most ``min(arms, cpus)`` forked
    workers, where cpus is ``evaluation.usable_cpus()``; one CPU still runs
    them through the pool, one after the other. Each arm trains on one
    thread and evaluates on ``max(1, cpus // workers)`` processes
    (``_cpu_budget``), so the arms in flight share the process's CPUs: two
    arms on 2 CPUs evaluate inline; on 4 CPUs each evaluates in itself and
    one forked child. Each arm's manifest entry records that number as its
    ``eval_processes``.
    Each arm's output is printed, and the first failing arm's error raised,
    in table order, so stdout matches a serial run. A failing arm does not
    stop the others, which may still write their artifacts. A last line per
    row after the first gives the first row's cross-pair F1 against that row's.
    """
    # Imported here: every other command, and every import of this module, skips their cost.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cmd_synth_gen(config, run_dir)
    cmd_assemble(config, run_dir)
    workers, eval_processes = _cpu_budget(len(_ARMS), evaluation.usable_cpus())
    arms = []
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_run_arm, config, run_dir, arm, eval_processes) for arm in _ARMS]
        for arm, future in zip(_ARMS, futures):
            f1, printed, wall_s = future.result()
            sys.stdout.write(printed)
            arms.append({"name": arm.name, "cross_pair_f1": f1, "wall_s": wall_s,
                         "eval_processes": eval_processes})

    first = arms[0]
    for other in arms[1:]:
        a, b = first["cross_pair_f1"], other["cross_pair_f1"]
        print(f"pipeline: cross-pair F1 {first['name']} {a:.2f} vs {other['name']} {b:.2f} (delta {a - b:+.2f})")
    _write_manifest(run_dir, "pipeline", config, {"workers": workers, "arms": arms})


_COMMANDS = {
    "synth-gen": cmd_synth_gen,
    "kb-validate": cmd_kb_validate,
    "assemble": cmd_assemble,
    "inject": cmd_inject,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
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
