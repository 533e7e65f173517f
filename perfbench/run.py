"""Benchmark launcher for wsner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``synth-sweep``, ``paper-train``, ``label-corpus``, or ``all`` (each
workload in turn). Every workload runs in a fresh child process, so its
peak memory and set-up time are its own; this launcher imports no numpy
and pins the BLAS thread count in the child's environment before numpy
loads there. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit status: 0 when
every output check passed, 1 when one failed, 2 when the benchmark could
not run (for example without the ``src/wsner`` sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth-sweep", "paper-train", "label-corpus")

# One thread: the hot path is matrix-vector work at h <= 300, too small to
# gain from BLAS threads, and on shared cores a second thread mostly adds
# run-to-run spread.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own smoke test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_child(name: str, args, env) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2, []
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wsner" / "__init__.py").is_file():
        print(f"wsner sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, nproc())
    env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})
    if args.workload != "all":
        code, lines = run_child(args.workload, args, env)
        print("\n".join(lines), flush=True)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, lines = run_child(name, args, env)
        worst = max(worst, code)
        if code == 2 or not lines:
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
