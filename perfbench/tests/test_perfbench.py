"""Tests of the benchmark itself: span arithmetic, tracer wiring, and each
workload end to end at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=None, op=0, attrs=None):
    return [name, start, end, parent, op, attrs]


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        span("root", 0, 100),
        span("a", 10, 30, parent=0),
        span("b", 20, 50, parent=0),  # overlaps a: 10..50 is covered once
        span("a.child", 12, 14, parent=1),  # a grandchild does not count for root
        span("c", 90, 120, parent=0),  # clipped to the parent's end
    ]
    assert [round(s * 1e9) for s in self_times(spans)] == [50, 18, 30, 2, 30]


def test_totals_on_a_hand_built_training_step():
    ms = 1_000_000
    loss_attrs = {"B": 2, "L": 3, "loss": "span", "M": 0, "V": 10, "d": 4, "ff": 8, "layers": 1}
    fwd_attrs = {"B": 2, "L": 3, "real": 5.0, "d": 4, "ff": 8, "layers": 1}
    spans = [
        span("training.collate", 0, 1 * ms, op=1),
        span("encoder.loss_and_grad", 1 * ms, 9 * ms, op=1, attrs=loss_attrs),
        span("encoder.forward", 2 * ms, 5 * ms, parent=1, op=1, attrs=fwd_attrs),
        span("training.adamw_step", 9 * ms, 10 * ms, op=1),
    ]
    t = layers.totals(spans, ["pass", "finetune-step"])
    assert t["encoder.loss_and_grad_self_s"] == pytest.approx(5e-3)
    assert t["encoder.forward_s"] == pytest.approx(3e-3)
    assert t["step_ms"]["finetune-step"] == [10.0]
    assert t["step_ms"]["inject-step"] == []
    assert t["encoder.tokens"] == 6 and t["real_tokens"] == 5.0
    fwd = layers.forward_flop(2, 3, 4, 8, 1)
    assert t["flop"] == pytest.approx(fwd + 2 * fwd + 3 * 2.0 * 2 * 2 * 3 * 4)


def test_tracer_nests_tokenizer_spans_and_restores_the_module():
    from kiqa import evaluation, textmodel

    originals = textmodel.tokenize, evaluation.tokenize, textmodel.tokenize_with_offsets
    tracer = Tracer()
    tracer.install()
    try:
        assert evaluation.tokenize("ab cd") == ["ab", "cd"]
    finally:
        tracer.uninstall()
    assert (textmodel.tokenize, evaluation.tokenize, textmodel.tokenize_with_offsets) == originals
    names = [(s[tracing.NAME], s[tracing.PARENT]) for s in tracer.spans]
    assert names == [("textmodel.tokenize", None), ("textmodel.tokenize_with_offsets", 0)]
    t = layers.totals(tracer.spans, tracer.op_kinds)
    assert t["textmodel.tokenize_calls"] == 1 and t["textmodel.chars"] == 5


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_no_failure(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "eval":
        assert values["training.adamw_step_s"] == 0 and values["encoder.loss_and_grad_self_s"] == 0
        assert values["evaluation.decode_calls"] > 0
    elif workload == "train":
        assert values["training.steps"] > 0 and values["evaluation.decode_calls"] == 0


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "train", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
