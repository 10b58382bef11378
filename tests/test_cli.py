import json
import math
import multiprocessing
import shutil
from pathlib import Path

import numpy as np
import pytest

from kiqa import assembler, cli, evaluation, training
from kiqa.cli import _write_json, _write_train_log, load_config, main
from kiqa.encoder import ModelConfig, init_params, load_checkpoint, save_checkpoint
from kiqa.errors import ConfigError
from kiqa.kb import Entity, KnowledgeBase, save_kb

from conftest import ENTITIES, RELATIONS, TRIPLES, write_jsonl


# fast settings for CLI plumbing tests; quality is covered by the acceptance suite
FAST = [
    "synth.n_entities=30",
    "synth.n_relations=5",
    "synth.n_triples=60",
    "synth.n_qa_per_lang_pair=5",
    "synth.n_qa_train=12",
    "synth.seed=5",
    "assembler.n_triples=40",
    "assembler.seed=3",
    "assembler.render_max_len=32",
    "model.n_layers=1",
    "model.n_heads=2",
    "model.d_model=16",
    "model.d_ff=32",
    "model.max_len=48",
    "model.dropout=0.0",
    "inject.epochs=1",
    "inject.learning_rate=1e-3",
    "inject.seed=1",
    "finetune.epochs=1",
    "finetune.learning_rate=1e-3",
    "finetune.seed=2",
    "eval.max_answer_len=4",
]


def run_cli(command, run_dir, overrides=(), config=None):
    argv = [command, "--run-dir", str(run_dir)]
    if config:
        argv += ["--config", str(config)]
    argv += list(overrides)
    return main(argv)


# -------------------------------------------------------------------- config


def test_load_config_defaults_match_reported_training_setup():
    config = load_config(None, [])
    assert config["inject.learning_rate"] == 2e-5
    assert config["inject.batch_size"] == 24
    assert config["inject.epochs"] == 1
    assert config["finetune.learning_rate"] == 3e-5
    assert config["finetune.batch_size"] == 16
    assert config["finetune.epochs"] == 2
    assert config["inject.warmup_fraction"] == 0.06
    assert config["eval.max_answer_len"] == 30


def test_load_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment\ninject.epochs = 5\nsynth.languages = a,b,c\n", encoding="utf-8")
    config = load_config(str(cfg), ["inject.epochs=7"])
    assert config["inject.epochs"] == 7  # override wins
    assert config["synth.languages"] == ("a", "b", "c")


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense.key = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(str(cfg), [])
    with pytest.raises(ConfigError):
        load_config(None, ["also.bad=1"])


def test_config_hash_stable_and_sensitive(tmp_path):
    a = load_config(None, ["inject.epochs=3"])
    b = load_config(None, ["inject.epochs=3"])
    c = load_config(None, ["inject.epochs=4"])
    assert a.hash == b.hash
    assert a.hash != c.hash


# --------------------------------------------------------------- subcommands


def test_kb_validate_ok(tmp_path, kb_files, capsys):
    overrides = [
        f"kb.entities={kb_files[0]}",
        f"kb.relations={kb_files[1]}",
        f"kb.triples={kb_files[2]}",
    ]
    assert run_cli("kb-validate", tmp_path / "run", overrides) == 0
    out = capsys.readouterr().out
    assert "kb-validate: OK" in out


def test_kb_validate_dangling_id_exits_nonzero(tmp_path, kb_files, capsys):
    bad = tmp_path / "bad_triples.jsonl"
    write_jsonl(bad, TRIPLES + [{"h": "Q77", "r": "P1", "t": "Q1"}])
    overrides = [
        f"kb.entities={kb_files[0]}",
        f"kb.relations={kb_files[1]}",
        f"kb.triples={bad}",
    ]
    assert run_cli("kb-validate", tmp_path / "run", overrides) == 1
    err = capsys.readouterr().err.strip()
    record = json.loads(err.splitlines()[-1])
    assert record["error"] == "dangling-id"
    assert "Q77" in record["message"]


def test_synth_gen_writes_artifacts(tmp_path):
    run_dir = tmp_path / "run"
    assert run_cli("synth-gen", run_dir, FAST) == 0
    data = run_dir / "data"
    assert (data / "entities.jsonl").exists()
    assert (data / "qa" / "train.json").exists()
    assert (data / "qa" / "test_syn0_syn1.json").exists()
    manifest = json.loads((run_dir / "manifest-synth-gen.json").read_text())
    assert manifest["command"] == "synth-gen"
    assert manifest["config_hash"]


def test_overrides_before_or_after_options_give_same_hash(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    assert main(["synth-gen", *FAST, "--run-dir", str(before)]) == 0
    assert main(["synth-gen", "--run-dir", str(after), *FAST]) == 0
    hashes = [
        json.loads((run_dir / "manifest-synth-gen.json").read_text())["config_hash"]
        for run_dir in (before, after)
    ]
    assert hashes[0] == hashes[1] == load_config(None, FAST).hash
    assert hashes[0] != load_config(None, []).hash


def test_assemble_deterministic(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    for run_dir in (run_a, run_b):
        assert run_cli("synth-gen", run_dir, FAST) == 0
        assert run_cli("assemble", run_dir, FAST) == 0
    assert (run_a / "corpus.jsonl").read_bytes() == (run_b / "corpus.jsonl").read_bytes()
    assert (run_a / "vocab.txt").read_bytes() == (run_b / "vocab.txt").read_bytes()


def test_full_pipeline_and_hash_guard(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("pipeline", run_dir, FAST) == 0
    out = capsys.readouterr().out
    assert "cross-pair F1" in out
    for name in (
        "corpus.jsonl", "corpus-baseline.jsonl", "corpus-baseline.jsonl.meta.json", "vocab.txt",
        "ckpt-inject.bin", "ckpt-final.bin",
        "ckpt-inject-baseline.bin", "ckpt-final-baseline.bin",
        "logs/inject-baseline.jsonl", "logs/finetune-baseline.jsonl",
        "data/entities.jsonl.meta.json", "data/qa/train.json.meta.json", "data/qa/test_syn0_syn1.json.meta.json",
        "reports/predictions_injected.jsonl", "reports/predictions_baseline.jsonl",
    ):
        assert (run_dir / name).exists(), name
    for report in ("report_injected", "report_baseline"):
        payload = json.loads((run_dir / "reports" / f"{report}.json").read_text())
        langs = {(c["context_lang"], c["question_lang"]) for c in payload["cells"]}
        assert langs == {(a, b) for a in ("syn0", "syn1") for b in ("syn0", "syn1")}
        text = (run_dir / "reports" / f"{report}.txt").read_text()
        assert text.startswith("Settings(c/q)")
    log_lines = (run_dir / "logs" / "inject.jsonl").read_text().strip().splitlines()
    rec = json.loads(log_lines[0])
    assert set(rec) == {"step", "lr", "loss", "tokens", "grad_norm"}

    # evaluate refuses artifacts from a different config
    assert run_cli("evaluate", run_dir, FAST + ["eval.max_answer_len=5"]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err)["error"] == "artifact-mismatch"
    # matching config still evaluates fine
    assert run_cli("evaluate", run_dir, FAST) == 0

    # a malformed vocab sidecar or checkpoint header is refused with an error record
    ckpt = run_dir / "ckpt-final.bin"
    for path, payload in (
        (run_dir / "vocab.txt.meta.json", b"not json"),
        (run_dir / "vocab.txt.meta.json", b"[1]"),
        (ckpt, ckpt.read_bytes().split(b"\n", 1)[0] + b"\nnot json\n"),
    ):
        path.write_bytes(payload)
        assert run_cli("evaluate", run_dir, FAST) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "artifact-mismatch" and path.name in err["message"]


def _files(run_dir):
    """Every file of a run directory but the pipeline manifest, which holds wall times."""
    return {p.relative_to(run_dir): p.read_bytes() for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "manifest-pipeline.json"}


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("pipeline") / "run"
    assert run_cli("pipeline", run_dir, FAST) == 0
    return run_dir


def test_pipeline_injected_arm_equals_the_separate_commands(tmp_path, pipeline_run):
    run_dir = tmp_path / "run"
    for command in ("synth-gen", "assemble", "inject", "finetune", "evaluate"):
        assert run_cli(command, run_dir, FAST) == 0
    for name in (
        "corpus.jsonl", "vocab.txt", "ckpt-inject.bin", "ckpt-final.bin", "logs/inject.jsonl",
        "logs/finetune.jsonl", "reports/report_injected.txt", "reports/report_injected.json",
        "reports/predictions_injected.jsonl",
    ):
        assert (run_dir / name).read_bytes() == (pipeline_run / name).read_bytes(), name


def test_predictions_file_has_one_line_per_example_and_averages_to_the_report(pipeline_run):
    qa_dir = pipeline_run / "data" / "qa"
    ids = [qa["id"] for path in sorted(qa_dir.glob("test_*_*.json")) if not path.name.endswith(".meta.json")
           for article in json.loads(path.read_text(encoding="utf-8"))["data"]
           for para in article["paragraphs"] for qa in para["qas"]]
    for arm in ("injected", "baseline"):
        path = pipeline_run / "reports" / f"predictions_{arm}.jsonl"
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [line["id"] for line in lines] == ids  # input order: cell by cell, as evaluate reads the files
        assert all(list(line) == ["id", "context_lang", "question_lang", "prediction", "f1", "em"] for line in lines)
        report = json.loads((pipeline_run / "reports" / f"report_{arm}.json").read_text(encoding="utf-8"))
        for cell in report["cells"]:
            mine = [line for line in lines
                    if (line["context_lang"], line["question_lang"]) == (cell["context_lang"], cell["question_lang"])]
            assert len(mine) == cell["count"]
            for metric in ("f1", "em"):
                assert math.isclose(sum(line[metric] for line in mine) / len(mine), cell[metric], abs_tol=1e-9)
        assert all(line["em"] in (0.0, 100.0) and 0.0 <= line["f1"] <= 100.0 for line in lines)


def test_pipeline_rerun_on_one_worker_gives_identical_artifacts(tmp_path, monkeypatch, pipeline_run):
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 1)  # one worker runs the arms in turn
    run_dir = tmp_path / "run"
    assert run_cli("pipeline", run_dir, FAST) == 0
    assert _files(run_dir) == _files(pipeline_run)
    manifest = json.loads((run_dir / "manifest-pipeline.json").read_text())
    assert manifest["workers"] == 1


def test_pipeline_prints_and_records_arms_in_table_order(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("pipeline", run_dir, FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    steps = [line for line in lines if line.startswith(("inject:", "finetune:", "report_", "pipeline:"))]
    assert [line.split(":")[0] for line in steps] == [
        "inject", "finetune", "report_injected", "inject", "finetune", "report_baseline", "pipeline"]
    assert [line.rsplit("/", 1)[-1] for line in steps if " -> " in line] == [
        "ckpt-inject.bin", "ckpt-final.bin", "ckpt-inject-baseline.bin", "ckpt-final-baseline.bin"]
    for report in ("report_injected", "report_baseline"):
        table = (run_dir / "reports" / f"{report}.txt").read_text().splitlines()
        start = lines.index(f"{report}:") + 1
        assert lines[start:start + len(table)] == table
    manifest = json.loads((run_dir / "manifest-pipeline.json").read_text())
    assert manifest["workers"] == min(2, evaluation.usable_cpus())
    assert [arm["name"] for arm in manifest["arms"]] == ["injected", "baseline"]
    assert all(arm["wall_s"] > 0 for arm in manifest["arms"])


def test_pipeline_summary_compares_the_first_arm_with_each_other(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_ARMS", cli._ARMS + (cli.Arm("k1k2", (1.0, 1.0, 0.0)),))
    run_dir = tmp_path / "run"
    assert run_cli("pipeline", run_dir, FAST) == 0
    summary = [line for line in capsys.readouterr().out.splitlines() if line.startswith("pipeline:")]
    arms = json.loads((run_dir / "manifest-pipeline.json").read_text())["arms"]
    f1 = {arm["name"]: arm["cross_pair_f1"] for arm in arms}
    assert list(f1) == ["injected", "baseline", "k1k2"]
    assert summary == [
        f"pipeline: cross-pair F1 injected {f1['injected']:.2f} vs {name} {f1[name]:.2f} "
        f"(delta {f1['injected'] - f1[name]:+.2f})"
        for name in ("baseline", "k1k2")
    ]


@pytest.mark.parametrize("arms,cpus,budget", [(2, 1, (1, 1)), (2, 2, (2, 1)), (2, 4, (2, 2))])
def test_pipeline_cpu_budget_splits_the_cpus_between_arms(arms, cpus, budget):
    assert cli._cpu_budget(arms, cpus) == budget  # (forked workers, eval processes per arm)


@pytest.mark.parametrize("cpus,processes", [(2, 1), (4, 2)])
def test_pipeline_arms_train_and_evaluate_on_their_cpu_share(tmp_path, monkeypatch, cpus, processes):
    """Each arm passes its _cpu_budget share as ``workers`` to evaluate, and
    its manifest entry records it as ``eval_processes``: on 2 CPUs each arm
    evaluates inline, on 4 in itself and one forked child."""
    calls, evaluate = tmp_path / "calls", evaluation.evaluate

    def recording(*args, workers, **kwargs):
        with open(calls, "a", encoding="utf-8") as fh:  # appended to from each forked worker
            fh.write(f"{workers}\n")
        return evaluate(*args, workers=workers, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate", recording)  # the forked workers inherit it
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
    run_dir = tmp_path / "run"
    assert run_cli("pipeline", run_dir, FAST) == 0
    assert calls.read_text().split() == [str(processes)] * len(cli._ARMS)
    manifest = json.loads((run_dir / "manifest-pipeline.json").read_text())
    assert [arm["eval_processes"] for arm in manifest["arms"]] == [processes] * len(cli._ARMS)


def test_pipeline_with_every_arm_failing_exits_with_one_record(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise ConfigError("injection refused")

    monkeypatch.setattr(training, "run_injection", refuse)  # the forked workers inherit it
    run_dir = tmp_path / "run"
    assert run_cli("pipeline", run_dir, FAST) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record == {"error": "config", "message": "injection refused"}
    assert multiprocessing.active_children() == []
    assert not (run_dir / "manifest-pipeline.json").exists()


def test_pipeline_with_a_language_the_kb_lacks_exits_with_one_config_record(tmp_path, capsys):
    assert run_cli("pipeline", tmp_path / "run", FAST + ["assembler.langs=syn0,xx"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "config" and "xx" in record["message"]


@pytest.mark.parametrize(
    "override",
    ["eval.max_answer_len=0", "eval.batch_size=0", "assembler.n_triples=-1", "assembler.n_triples=0", "model.n_heads=3", "model.max_len=0",
     "inject.max_grad_norm=-1", "finetune.weight_decay=-0.1", "inject.learning_rate=nan",
     "finetune.learning_rate=inf", "assembler.kind_weights=nan,1,1", "assembler.kind_weights=inf,1,1",
     "inject.weight_decay=inf", "assembler.vocab_max_size=4", "assembler.render_max_len=0",
     "assembler.render_max_len=4", "assembler.langs=syn0", "synth.languages=EN,ZH", "synth.n_entities=0"],
)
def test_out_of_range_value_exits_with_config_record(tmp_path, capsys, override):
    run_dir = tmp_path / "run"
    assert run_cli("pipeline", run_dir, FAST + [override]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    key = override.split("=")[0]
    if key in ("assembler.vocab_max_size", "assembler.render_max_len"):
        assert key in record["message"]
    assert not run_dir.exists()  # refused by load_config, before the run directory is made


def test_synth_gen_on_too_few_head_relation_pairs_exits_before_writing(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("synth-gen", run_dir, FAST + ["synth.n_triples=4"]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "infeasible-count" and "the KB has" in record["message"]
    assert not (run_dir / "data").exists()


@pytest.fixture(scope="module")
def injected_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("injected") / "run"
    for command in ("synth-gen", "assemble", "inject"):
        assert run_cli(command, run_dir, FAST) == 0
    return run_dir


@pytest.mark.parametrize("command, name, code", [
    ("synth-gen", "exp.cfg", "config"),
    ("kb-validate", "data/entities.jsonl", "parse"),
    ("inject", "corpus.jsonl", "parse"),
    ("inject", "vocab.txt", "artifact-mismatch"),
    ("finetune", "data/qa/train.json", "parse"),
], ids=["config", "kb", "corpus", "vocab", "qa"])
def test_non_utf8_input_exits_with_one_error_record(tmp_path, capsys, injected_run, command, name, code):
    run_dir = tmp_path / "run"
    shutil.copytree(injected_run, run_dir)
    bad = run_dir / name
    bad.write_bytes((bad.read_bytes() if bad.exists() else b"") + b"\xff\n")
    capsys.readouterr()
    assert run_cli(command, run_dir, FAST, config=bad if name == "exp.cfg" else None) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == code
    assert str(bad) in record["message"] and "not UTF-8" in record["message"]


@pytest.mark.parametrize("corrupt", [
    lambda tokens: tokens[1:],  # the first five lines are not the special tokens
    lambda tokens: tokens + tokens[5:6],  # a token repeats
], ids=["special-tokens", "repeated-token"])
def test_corrupted_vocab_exits_with_an_artifact_record_naming_it(tmp_path, capsys, injected_run, corrupt):
    run_dir = tmp_path / "run"
    shutil.copytree(injected_run, run_dir)
    (run_dir / "ckpt-inject.bin").unlink()
    vocab = run_dir / "vocab.txt"
    vocab.write_text("".join(tok + "\n" for tok in corrupt(vocab.read_text(encoding="utf-8").splitlines())),
                     encoding="utf-8")
    capsys.readouterr()
    assert run_cli("inject", run_dir, FAST) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "artifact-mismatch" and str(vocab) in record["message"]
    assert not (run_dir / "ckpt-inject.bin").exists()


def test_nan_checkpoint_exits_with_one_non_finite_record(tmp_path, capsys, injected_run):
    run_dir = tmp_path / "run"
    shutil.copytree(injected_run, run_dir)
    params, meta = load_checkpoint(run_dir / "ckpt-inject.bin")
    params.tensors["qa_bs"][...] = np.nan
    save_checkpoint(run_dir / "ckpt-final.bin", params, meta=meta)
    capsys.readouterr()
    assert run_cli("evaluate", run_dir, FAST) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "non-finite"


def _checkpoint_failing_at_last_tensor(path):
    params = init_params(ModelConfig(vocab_size=16, n_layers=1, n_heads=2, d_model=8, d_ff=8, max_len=8), seed=0)
    params.tensors["tok_emb"] = np.full((16, 8), "x")  # last in the file's sorted order; not a float
    save_checkpoint(path, params)


def _json_failing_at_last_key(path):
    _write_json(path, {"a": "y" * 100_000, "z": object()})  # "z" does not serialize


def _corpus_failing_at_second_sample(path):
    big = assembler.MaskedSample(
        kind=assembler.SampleKind.K1,
        pieces=(assembler.Piece("syn0", "y" * 100_000, False), assembler.Piece("syn0", "z", True)),
        source_triple=None,
    )

    def samples():
        yield big
        raise ValueError("the corpus generator failed")

    assembler.save_corpus(samples(), path)


def _kb_entities_failing_at_last_entity(path):
    entities = {"E0": Entity("E0", {"syn0": "y" * 100_000}), "E1": Entity("E1", {"syn0": object()})}
    unused = path.parent / "never-written"  # the entities file fails before the other two are opened
    save_kb(KnowledgeBase(entities, {}, (), frozenset({"syn0"})), path, unused, unused)


def _train_log_failing_at_last_step(path):
    _write_train_log(path, [{"step": 1, "loss": "y" * 100_000}, {"step": 2, "loss": object()}])


@pytest.mark.parametrize("write", [
    _checkpoint_failing_at_last_tensor, _json_failing_at_last_key, _corpus_failing_at_second_sample,
    _kb_entities_failing_at_last_entity, _train_log_failing_at_last_step,
])
def test_failed_artifact_write_leaves_target_unchanged(tmp_path, write):
    target = tmp_path / "artifact"
    target.write_bytes(b"earlier run\n")
    with pytest.raises((TypeError, ValueError)):
        write(target)
    assert target.read_bytes() == b"earlier run\n"
    assert list(tmp_path.iterdir()) == [target]  # no temp file left behind


def test_write_json_writes_the_bytes_of_json_dump(tmp_path):
    """One ``json.dumps`` string gives the bytes that ``json.dump`` streams
    to the file: non-ASCII text kept, floats as repr, nested keys sorted."""
    payload = {"zh": "凯文·杜兰特 é\u0301", "b": {"y": [1.5, 1e-300, -0.0, float("inf"), 2**70], "a": None},
               "a": [{"z": 0.1, "k": "Ω"}], "10": True}
    _write_json(tmp_path / "written.json", payload)
    with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "written.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()


def test_inject_then_finetune_separately(tmp_path):
    run_dir = tmp_path / "run"
    assert run_cli("synth-gen", run_dir, FAST) == 0
    assert run_cli("assemble", run_dir, FAST) == 0
    assert run_cli("inject", run_dir, FAST) == 0
    assert (run_dir / "ckpt-inject.bin").exists()
    assert run_cli("finetune", run_dir, FAST) == 0
    assert (run_dir / "ckpt-final.bin").exists()
    assert run_cli("evaluate", run_dir, FAST) == 0
    assert (run_dir / "reports" / "report_injected.json").exists()


def test_inject_under_another_config_is_refused_before_training(tmp_path, capsys):
    run_dir = tmp_path / "run"
    for command in ("synth-gen", "assemble"):
        assert run_cli(command, run_dir, FAST) == 0
    capsys.readouterr()
    assert run_cli("inject", run_dir, FAST + ["inject.seed=9"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "artifact-mismatch" and "corpus.jsonl" in record["message"]
    assert not (run_dir / "ckpt-inject.bin").exists()


@pytest.mark.parametrize("command, target", [("inject", "ckpt-inject.bin"), ("finetune", "ckpt-final.bin")])
def test_vocab_of_another_config_is_refused_before_training(tmp_path, capsys, injected_run, command, target):
    run_dir = tmp_path / "run"
    shutil.copytree(injected_run, run_dir)
    (run_dir / target).unlink(missing_ok=True)
    other = load_config(None, FAST + ["inject.seed=9"]).hash
    _write_json(run_dir / "vocab.txt.meta.json", {"config_hash": other})
    capsys.readouterr()
    assert run_cli(command, run_dir, FAST) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "artifact-mismatch" and "vocab.txt" in record["message"]
    assert not (run_dir / target).exists()


def test_synth_gen_data_of_another_synth_seed_is_refused(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("synth-gen", run_dir, FAST) == 0
    before = _files(run_dir)
    capsys.readouterr()
    assert run_cli("assemble", run_dir, FAST + ["synth.seed=9"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "artifact-mismatch" and "entities.jsonl" in record["message"]
    assert _files(run_dir) == before


@pytest.mark.parametrize("command, name", [("assemble", "data/entities.jsonl"), ("inject", "corpus.jsonl")])
def test_missing_artifact_is_reported_as_missing(tmp_path, capsys, command, name):
    run_dir = tmp_path / "run"
    assert run_cli(command, run_dir, FAST) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "io" and str(run_dir / name) in record["message"]


@pytest.mark.parametrize("command, name", [
    ("kb-validate", "data/relations.jsonl"),
    ("assemble", "data/triples.jsonl"),
    ("finetune", "data/qa/train.json"),
    ("evaluate", "data/qa/test_syn1_syn0.json"),
])
def test_synth_gen_file_of_another_config_is_refused_before_use(tmp_path, capsys, injected_run, command, name):
    run_dir = tmp_path / "run"
    shutil.copytree(injected_run, run_dir)
    shutil.copyfile(run_dir / "ckpt-inject.bin", run_dir / "ckpt-final.bin")  # evaluate reads this config's checkpoint
    _write_json(run_dir / f"{name}.meta.json", {"config_hash": load_config(None, FAST + ["synth.seed=9"]).hash})
    before = _files(run_dir)
    capsys.readouterr()
    assert run_cli(command, run_dir, FAST) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "artifact-mismatch" and str(run_dir / name) in record["message"]
    assert _files(run_dir) == before
