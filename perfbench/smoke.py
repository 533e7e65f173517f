"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

For every workload it runs the one-command ``--workload all`` path, an
untraced run and a traced run, all with the same seed, and checks that:

* each run exits 0 with ``correct`` true;
* every metric BENCHMARK.json names is emitted with its unit;
* all three runs report the same output digest, so same-seed runs repeat
  byte for byte and tracing changes no output;
* the traced LSTM cell calls are twice the head calls, forward and
  backward (the worker also fails its run when they are not).

Last, it copies only BENCHMARK.json and perfbench/ into an empty directory
and checks that the benchmark exits non-zero there without a result line.
Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def digests(stdout: str) -> dict[str, str]:
    """workload -> digest from the ``# workload ... digest`` lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("# workload "):
            words = line.split()
            out[words[2]] = words[-1]
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    failures = []

    def check(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            failures.append(message)

    def result(proc, what):
        check(proc.returncode == 0, f"{what} exits 0 (got {proc.returncode})")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return None
        res = json.loads(proc.stdout.splitlines()[-1])
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              f"{what} reports correct output")
        return res

    common = ["--seed", str(SEED), "--seconds", "1", "--tiny"]
    proc = run(["--workload", "all", "--trace", "0", *common])
    combined = result(proc, "all")
    first = digests(proc.stdout)
    if combined:
        want = {f"{w}/{m}": u for w in names for m, u in e2e.items()}
        got = {m: v["unit"] for m, v in combined["metrics"].items()}
        check(got == want, "all: every end-to-end metric of every workload, with its unit")

    for name in names:
        for trace, expected in ((0, e2e), (1, layers)):
            what = f"{name} trace={trace}"
            proc = run(["--workload", name, "--trace", str(trace), *common])
            res = result(proc, what)
            if res is None:
                continue
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            check(got == expected, f"{what}: emits exactly the BENCHMARK.json metrics with units")
            check(digests(proc.stdout).get(name) == first.get(name),
                  f"{what}: same output digest as the 'all' run")
            if trace:
                m = res["metrics"]
                for cell, head in (("lstm_forward", "head_forward"),
                                   ("lstm_backward", "head_backward")):
                    check(m[f"tagger.{cell}.calls"]["value"]
                          == 2 * m[f"tagger.{head}.calls"]["value"],
                          f"{what}: {cell}.calls == 2 x {head}.calls")

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", names[0], "--trace", "0", *common], cwd=bare)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        check(proc.returncode != 0 and not printed_result,
              "without the sources: non-zero exit and no result line")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
