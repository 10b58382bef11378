"""kiqa benchmark.

    python3 perfbench/run.py --workload {pipeline,train,eval} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ``kiqa`` is imported from its
``src/``. Each run starts a fresh worker process that sets the workload up
from the seed and repeats one pass in a closed loop (one client, next pass
only after the previous one ends) for about ``S`` seconds, checking every
pass's output. Before each pass the worker times a fixed reference probe
(``probe.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median over
several processes of the time from spawn to the end of set-up; ``pass_rel``,
the median pass time divided by the median probe time, which cancels most of
the machine's own speed drift; and ``peak_rss_mb``. It also prints the raw
figures (pass time, probe time, throughputs, final-epoch losses) with their
sample counts. ``--trace 1`` wraps the public functions of every ``kiqa``
module on alternate passes and reports the per-layer metrics of
``layers.PER_LAYER``, including the tracing overhead.

Every process gets the same BLAS thread count, recorded with the versions in
the ``env`` line. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline", "train", "eval")
BLAS_THREADS = 1  # at most nproc (2 on the reference box); one thread keeps checkpoints bit-identical run to run
SETUP_PROCESSES = 4  # extra set-up-only processes per untraced run
TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, deadline: float, setup_only: bool) -> dict:
    argv = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        argv.append("--setup-only")
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(name: str, m: dict) -> str:
    return f"{name:<32} {m['value']:>14.6g} {m['unit']:<14} n={m['n']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs (the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kiqa" / "__init__.py").is_file():
        print(f"no kiqa sources under {ROOT / 'src'}; run from a kiqa source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = [] if args.trace else [_spawn(args, deadline, True)["setup_s"] for _ in range(SETUP_PROCESSES)]
        result = _spawn(args, deadline, False)
    except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace and metrics:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s", "n": len(setups)}
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for slot, digest in sorted(result["fingerprint"].items()):
        print(f"fingerprint input set {slot}: {digest}")
    for kind, times in result["times_s"].items():
        if times:
            print(f"times_s {kind}: " + " ".join(f"{t:.4f}" for t in times))
    for name, m in metrics.items():
        print("metric " + _fmt(name, m))
    for name, m in result.get("named", {}).items():
        print("named  " + _fmt(name, m))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(f"passes failed={result['failed']} attempted={result['attempted']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
