"""One benchmark process: set up a workload, run its closed loop, report.

Started by ``run.py`` with the BLAS thread count and ``PYTHONPATH`` already
set. With ``--setup-only`` it stops after the set-up and reports only its
set-up time. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
MIN_PASSES = 3
# Reference-probe runs before each pass; the machine's speed drifts by tens
# of percent over seconds to minutes, and pass time is reported relative to
# the probe time measured in between.
PROBES_PER_PASS = 5
# A traced run alternates untraced and traced passes, so that it can report
# its own overhead.
MIN_TRACED_RUN_PASSES = 4


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((ROOT / "src" / "kiqa").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kiqa_commit": commit,
        "kiqa_src_sha256": digest.hexdigest(),
    }


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    args = parser.parse_args(argv)

    import kiqa

    if Path(kiqa.__file__).resolve().parent != ROOT / "src" / "kiqa":
        print(f"kiqa imported from {kiqa.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import layers
    import tracing
    import workloads

    setup_tracer = None
    if args.trace:
        setup_tracer = tracing.Tracer("setup")
        setup_tracer.install()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work, args.tiny)
        setup_s = time.monotonic() - args.spawned_at
        if setup_tracer is not None:
            setup_tracer.uninstall()
        if args.setup_only:
            _emit({"setup_s": setup_s})
            return 0
        return run_loop(args, workload, setup_s, setup_tracer, layers, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_loop(args, workload, setup_s, setup_tracer, layers, tracing) -> int:
    untraced_s: list[float] = []
    traced_s: list[float] = []
    traced: list[dict] = []
    bytes_written: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    fingerprints: dict[int, str] = {}
    probe_s: list[float] = []
    min_passes = MIN_TRACED_RUN_PASSES if args.trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        trace_pass = bool(args.trace) and attempted % 2 == 1
        tracer = tracing.Tracer() if trace_pass else None
        attempted += 1
        probe_s.extend(probe.timings(PROBES_PER_PASS))
        try:
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = workload.run()
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            failures = workload.check(out)
            slot, digest = workload.fingerprint(out)
            if fingerprints.setdefault(slot, digest) != digest:
                failures.append(f"output fingerprint of input set {slot} differs from its first pass")
            if not failures and tracer is not None:
                traced.append(layers.totals(tracer.spans, tracer.op_kinds))
                bytes_written.append(workload.bytes_written(out))
            workload.discard(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failures = ["pass raised"]
        if failures:
            failed += 1
            problems.extend(failures)
        else:
            (traced_s if trace_pass else untraced_s).append(elapsed)
        so_far = time.perf_counter() - start
        typical = statistics.median(untraced_s + traced_s) if untraced_s or traced_s else 0.0
        if attempted >= min_passes and so_far + typical > args.seconds:
            break

    result = {
        "correct": failed == 0 and bool(untraced_s),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "fingerprint": fingerprints,
        "times_s": {"untraced pass": untraced_s, "traced pass": traced_s, "probe": probe_s},
        "env": environment(),
    }
    if args.trace:
        if not traced:
            result["correct"] = False
            _emit(result)
            return 1
        setup = layers.totals(setup_tracer.spans, setup_tracer.op_kinds)
        overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0 if traced_s and untraced_s else 0.0
        values = layers.per_layer(setup, traced, overhead, statistics.median(bytes_written))
        result["metrics"] = {
            name: {"value": values[name], "unit": unit, "n": len(traced)}
            for name, (unit, _) in layers.PER_LAYER.items()
        }
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s", "n": 1},
            "pass_rel": {
                "value": statistics.median(untraced_s) / statistics.median(probe_s), "unit": "ratio",
                "n": len(untraced_s),
            },
            "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
        } if untraced_s else {}
        named = workload.named(untraced_s) if untraced_s else {}
        if untraced_s:
            named["pass_s"] = (statistics.median(untraced_s), "s", len(untraced_s))
            named["probe_s"] = (statistics.median(probe_s), "s", len(probe_s))
        result["named"] = {name: {"value": v, "unit": unit, "n": n} for name, (v, unit, n) in named.items()}
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
