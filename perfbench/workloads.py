"""Benchmark worker: runs one wsner workload in this process, checks its
outputs and prints its metrics. Start it through ``run.py``, which pins the
BLAS thread count before numpy is imported here.

A run generates its inputs from the seed, sets up at least
``SETUP_REPEATS`` times and for ``SETUP_BUDGET_S`` (the median is
``setup_s``), then repeats the workload's unit of work
until the time budget is spent. Every unit of a run uses the same inputs
and seeds, so every unit must produce byte-identical outputs; that one
comparison checks that same-seed runs repeat and, in a traced run, that
tracing changes no number. Timings are taken with ``speed.SpeedClock``
and reported in reference seconds (wall time corrected for the speed of
the shared core at the time); the wall-clock figures are ``#`` lines.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if "OPENBLAS_NUM_THREADS" not in os.environ:
    sys.exit("start the benchmark through perfbench/run.py (BLAS threads not pinned)")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import wsner  # noqa: E402
from wsner import corpus, evaluation, experiment, gazetteer, noise, tagger  # noqa: E402
from wsner.date_rules import default_date_rules  # noqa: E402
from wsner.textnorm import canonical  # noqa: E402

import inputs  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracing import Tracer, derivable_metrics  # noqa: E402

SETUP_REPEATS = 5
# a set-up of tens of milliseconds is repeated until this much time is spent,
# so that its median does not hang on a handful of samples
SETUP_BUDGET_S = 1.5
SETUP_REPEATS_MAX = 60
MIN_UNITS = 2
# never start another unit past this point, whatever the budget
HARD_STOP_S = 120.0
E2E = ("setup_s", "peak_rss_mb", "work_s", "predict_tokens_per_s", "f1")
CLOCK = SpeedClock()


@dataclass
class Unit:
    """What one unit of work produced: timing samples (``SpeedClock``
    pieces) of its main step and of prediction, the quality figure, a
    digest of every output byte and number, failed operations and failed
    checks."""

    work: list
    predict: list
    predict_tokens: int
    f1: float
    digest: str
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _predict(dataset, params, table, repeats: int):
    samples = []
    for _ in range(repeats):
        pred, pieces = CLOCK.measure(tagger.predict, dataset, params, table)
        samples.append(pieces)
    return pred, samples


# ---------------------------------------------------------------------------
# workloads
#
# Each workload writes its inputs in __init__ (untimed), builds its state in
# setup() (timed as setup_s) and does one unit of work in unit(). It names
# the operations one unit attempts, the speed probe kind (see speed.py) that
# matches its main step and its prediction, and aliases() maps the measured
# values to the workload-specific names of its figures. Set-up (text
# parsing, trie and context building) is always interpreter-bound.


class SynthSweep:
    """The bundled synthetic sweep, end to end, through run_experiment;
    prediction is timed apart on the test split with a seeded model of the
    sweep's own shape (d=12, h=16)."""

    name = "synth-sweep"
    predict_repeats = 16
    work_kind = predict_kind = "interpreter"

    def __init__(self, work: Path, seed: int, sizes: inputs.Sizes):
        self.seed = seed
        self.config_path = inputs.write_sweep_inputs(str(work / "inputs"), seed, sizes)
        config = experiment.load_config(self.config_path)
        self.operations = len(config.clean_budgets) * len(config.methods) * config.repeats

    def setup(self):
        config = experiment.load_config(self.config_path)
        ctx = experiment._build_context(config)
        params = tagger.init_params(np.random.default_rng(self.seed), "lstm",
                                    ctx.table.dimension, config.tagger.hidden_size,
                                    config.tagger.feature_size, ctx.tag_set.size)
        return config, ctx, params

    def unit(self, state, out: Path) -> Unit:
        config, ctx, params = state
        config = replace(config, out_dir=str(out))
        # half the prediction samples before the sweep and half after, so a
        # run's samples come from four moments, not two
        _, predict = _predict(ctx.test, params, ctx.table, self.predict_repeats // 2)
        (runs_path, agg_path), work = CLOCK.measure(experiment.run_experiment, config)
        runs = Path(runs_path).read_bytes()
        agg = Path(agg_path).read_bytes()
        with open(runs_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(agg_path, encoding="utf-8", newline="") as fh:
            agg_rows = list(csv.DictReader(fh))
        problems = [f"cell {row['setting']}/{row['method']}/{row['repeat']}: {row['status']}"
                    for row in rows if row["status"] != "ok"]
        if len(rows) != self.operations:
            problems.append(f"runs.csv has {len(rows)} rows, expected {self.operations}")
        if (len(agg_rows) != self.operations // config.repeats
                or any(r["n"] != str(config.repeats) for r in agg_rows)):
            problems.append(f"aggregate.csv lacks a (setting, method) with n={config.repeats}")
        trained = [float(row["overall_f1"]) for row in rows
                   if row["status"] == "ok" and row["method"] != "distant-only"]
        f1 = sum(trained) / len(trained) if trained else 0.0
        pred, after = _predict(ctx.test, params, ctx.table, self.predict_repeats // 2)
        predict += after
        evaluation.span_prf(ctx.test, pred)
        failed = sum(row["status"] != "ok" for row in rows)
        return Unit([work], predict, ctx.test.num_tokens, f1,
                    _sha(runs, agg, pred.sentences), failed, problems)

    def aliases(self, values, state) -> dict[str, tuple[float, str]]:
        return {"sweep_s": (values["work_s"], "s"), "f1_mean": (values["f1"], "F1")}


class PaperTrain:
    """Confusion-channel training at the paper's tagger shape: hard loss on
    clean sentences, channel loss on distant ones."""

    name = "paper-train"
    predict_repeats = 1
    work_kind = predict_kind = "blas"
    operations = 1

    def __init__(self, work: Path, seed: int, sizes: inputs.Sizes):
        self.config = tagger.TaggerConfig(seed=seed, **inputs.PAPER_TAGGER)
        self.paths = inputs.write_paper_inputs(str(work / "inputs"), seed, sizes)

    def setup(self):
        p = self.paths
        return (corpus.read_conll(p["clean"]),
                corpus.read_conll(p["distant"], provenance="distant"),
                corpus.read_conll(p["pair"], provenance="distant"),
                corpus.read_conll(p["test"]),
                tagger.EmbeddingTable.load(p["embeddings"]))

    def unit(self, state, out: Path) -> Unit:
        clean, distant, pair, test, table = state
        (params, channel), work = CLOCK.measure(
            noise.train_confusion_method, clean, distant, pair, self.config, table)
        problems = []
        if not np.allclose(channel.matrix.sum(axis=1), 1.0):
            problems.append("trained channel rows do not sum to 1")
        pred, predict = _predict(test, params, table, self.predict_repeats)
        f1 = evaluation.span_prf(test, pred).overall.f1
        if not f1 > 0.0:
            problems.append("trained tagger scores F1 0 on the test split")
        digest = _sha(*(arr.tobytes() for _, arr in params.arrays()),
                      channel.matrix.tobytes(), pred.sentences, f1)
        return Unit([work], predict, test.num_tokens, f1, digest, 0, problems)

    def aliases(self, values, state) -> dict[str, tuple[float, str]]:
        clean, distant = state[0], state[1]
        tokens = (clean.num_tokens + distant.num_tokens) * self.config.epochs
        return {"train_tokens_per_s": (tokens / values["work_s"], "tok/s"),
                "f1_mean": (values["f1"], "F1")}


class LabelCorpus:
    """Distant annotation of a token corpus (read, annotate, write; this is
    the unit's main step, repeated ``annotate_passes`` times), then tagging
    every ``tag_every``-th annotated sentence with a seeded paper-shape
    model: annotation is about 100 times faster than tagging at d=300, and
    a sample keeps the length mix while fitting the run."""

    name = "label-corpus"
    predict_repeats = 1
    work_kind, predict_kind = "interpreter", "blas"
    annotate_passes = 3
    tag_every = 10

    def __init__(self, work: Path, seed: int, sizes: inputs.Sizes):
        self.seed = seed
        self.inputs = inputs.write_label_inputs(str(work / "inputs"), seed, sizes)
        self.operations = len(self.inputs.gold.sentences)

    def setup(self):
        inp = self.inputs
        table = tagger.EmbeddingTable.load(inp.embeddings_path)
        tag_set = inp.gold.tag_set
        entries = gazetteer.read_entity_tsv(inp.entities_path, tag_set)
        gaz = gazetteer.build_gazetteer(entries, inp.min_len, tag_set=tag_set)
        rules = default_date_rules()
        shape = inputs.PAPER_TAGGER
        params = tagger.init_params(np.random.default_rng(self.seed), "lstm", table.dimension,
                                    shape["hidden_size"], shape["feature_size"], tag_set.size)
        listed = {(e.surface, e.label) for e in entries}
        return table, gaz, rules, params, listed

    @staticmethod
    def _unexplained(annotated, rules, listed) -> list[str]:
        """Spans that are neither a listed surface of their type nor a run
        of DATE tokens (a keyword, the token after one, or all digits)."""
        problems = []
        for i, sent in enumerate(annotated.sentences):
            kw = [canonical(t) in rules.keywords for t in sent.tokens]
            for span in sent.spans:
                if span.label == rules.date_label:
                    ok = all(kw[j] or (j > 0 and kw[j - 1]) or sent.tokens[j].isdigit()
                             for j in range(span.start, span.end))
                else:
                    ok = (sent.tokens[span.start:span.end], span.label) in listed
                if not ok:
                    problems.append(f"sentence {i}: unexplained span {span}")
        return problems[:5]

    def _annotate_pass(self, gaz, rules, out_path):
        annotated = gazetteer.annotate_distant(
            corpus.read_tokens(self.inputs.tokens_path), gaz, rules)
        corpus.write_conll(annotated, out_path)
        return annotated

    def unit(self, state, out: Path) -> Unit:
        table, gaz, rules, params, listed = state
        out.mkdir(parents=True, exist_ok=True)
        out_path = out / "annotated.conll"
        samples, written = [], set()
        for _ in range(self.annotate_passes):
            annotated, pieces = CLOCK.measure(self._annotate_pass, gaz, rules, out_path)
            samples.append(pieces)
            written.add(out_path.read_bytes())
        problems = [] if len(written) == 1 else ["annotation passes wrote different bytes"]
        problems += self._unexplained(annotated, rules, listed)
        gold = self.inputs.gold
        f1 = evaluation.span_prf(gold, annotated).overall.f1
        sample = corpus.Dataset(annotated.sentences[::self.tag_every], annotated.tag_set)
        pred, predict = _predict(sample, params, table, self.predict_repeats)
        evaluation.span_prf(corpus.Dataset(gold.sentences[::self.tag_every], gold.tag_set), pred)
        return Unit(samples, predict, sample.num_tokens, f1,
                    _sha(*sorted(written), pred.sentences, f1), 0, problems)

    def aliases(self, values, state) -> dict[str, tuple[float, str]]:
        tokens = self.inputs.gold.num_tokens
        return {"annotate_tokens_per_s": (tokens / values["work_s"], "tok/s"),
                "predict_tokens_per_s": (values["predict_tokens_per_s"], "tok/s"),
                "annotate_f1": (values["f1"], "F1")}


WORKLOADS = {cls.name: cls for cls in (SynthSweep, PaperTrain, LabelCorpus)}


# ---------------------------------------------------------------------------
# measurement


def _loop(step, seconds: float, min_steps: int) -> list:
    """Call ``step()`` until one more call as long as the last would overrun
    the budget, but at least ``min_steps`` times."""
    start = perf_counter()
    results = []
    while True:
        t0 = perf_counter()
        results.append(step())
        last = perf_counter() - t0
        elapsed = perf_counter() - start
        if elapsed + last > (seconds if len(results) >= min_steps else HARD_STOP_S):
            return results


class Runner:
    """Runs units of one workload in fresh output directories and keeps
    what they produced; a unit that raises counts all its operations as
    failed."""

    def __init__(self, wl, work: Path):
        self.wl = wl
        self.work = work
        self.units: list[Unit | None] = []

    def unit(self, state, tracer: Tracer | None = None) -> float:
        out = self.work / f"unit{len(self.units)}"
        t0 = perf_counter()
        try:
            if tracer is None:
                unit = self.wl.unit(state, out)
            else:
                with tracer.patch():
                    unit = self.wl.unit(state, out)
        except Exception:
            traceback.print_exc()
            unit = None
        wall = perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        self.units.append(unit)
        return wall

    @property
    def good(self) -> list[Unit]:
        return [u for u in self.units if u is not None]

    def summary(self) -> tuple[list[str], int, int]:
        """Failed checks, attempted and failed operations."""
        ops = self.wl.operations
        problems = []
        failed = 0
        for unit in self.units:
            if unit is None:
                problems.append("a unit of work raised")
                failed += ops
            else:
                problems += unit.problems
                failed += unit.failed
        digests = {u.digest for u in self.good}
        if len(digests) > 1:
            problems.append(f"same-seed units produced {len(digests)} different outputs")
        return problems, ops * len(self.units), failed


def plain_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end values in reference seconds, and the same figures under
    the names the workload's own metrics carry."""
    wl = runner.wl
    setups, state = [], None
    with CLOCK.hooks():
        spent = 0.0
        while len(setups) < SETUP_REPEATS or (spent < SETUP_BUDGET_S
                                               and len(setups) < SETUP_REPEATS_MAX):
            state = None  # free the previous state first, so set-ups do not pile up in memory
            state, pieces = CLOCK.measure(wl.setup)
            setups.append(pieces)
            spent += CLOCK.seconds(pieces)
        _loop(lambda: runner.unit(state), seconds, MIN_UNITS)
    good = runner.good
    if not good:
        return {}, {}
    samples = {"setup_s": ("interpreter", setups),
               "work_s": (wl.work_kind, [p for u in good for p in u.work]),
               "predict_s": (wl.predict_kind, [p for u in good for p in u.predict])}
    ref = {k: [CLOCK.reference_seconds(p, kind) for p in v] for k, (kind, v) in samples.items()}
    wall = {k: [CLOCK.seconds(p) for p in v] for k, (_, v) in samples.items()}
    values = {
        "setup_s": statistics.median(ref["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_s": statistics.median(ref["work_s"]),
        "predict_tokens_per_s": good[0].predict_tokens / statistics.median(ref["predict_s"]),
        "f1": good[0].f1,
    }
    for kind, (probes, probe_s) in CLOCK.probe_summary().items():
        print(f"# speed probe {kind}: {probes} probes, median {probe_s!r} s")
    for name in samples:
        print(f"# samples {name} reference {[round(t, 4) for t in ref[name]]} "
              f"wall {[round(t, 4) for t in wall[name]]}")
        print(f"# wall {name} median = {statistics.median(wall[name])!r} s")
    return values, wl.aliases(values, state)


def traced_run(runner: Runner, seconds: float, trace_path: Path) -> tuple[dict, list[str]]:
    """Alternate untraced and traced units. Per-layer values come from the
    traced set-up and the first traced unit, the overhead from all pairs."""
    wl = runner.wl
    state = wl.setup()
    tracer = Tracer()
    with tracer.patch():
        traced_state = wl.setup()
    walls: list[tuple[float, float]] = []
    problems: list[str] = []

    def pair():
        plain = runner.unit(state)
        t = tracer if not walls else Tracer()
        walls.append((plain, runner.unit(traced_state, t)))
        problems.extend(t.check_bindings())

    _loop(pair, seconds, 1)
    values = tracer.layer_values()
    values["trace.overhead_ratio"] = (statistics.median(w[1] for w in walls)
                                      / statistics.median(w[0] for w in walls) - 1.0)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(trace_path)
    return values, problems


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0))}


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """end_to_end and per_layer name -> unit from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    if Path(wsner.__file__).resolve().parent != ROOT / "src" / "wsner":
        print(f"imported wsner from {wsner.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = _metric_units()
    unknown = set(layer_units) - derivable_metrics() - {"trace.overhead_ratio"}
    if set(e2e_units) != set(E2E) or unknown:
        print(f"BENCHMARK.json names metrics this worker cannot produce: "
              f"{sorted(set(e2e_units) ^ set(E2E) | unknown)}", file=sys.stderr)
        return 2
    print(f"# env {json.dumps(environment(), sort_keys=True)}")

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        runner = Runner(WORKLOADS[args.workload](work, args.seed,
                                                 inputs.TINY if args.tiny else inputs.FULL),
                        work)
        aliases = {}
        if args.trace:
            trace_path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.npz"
            values, problems = traced_run(runner, args.seconds, trace_path)
            units = layer_units
            print(f"# trace spans written to {trace_path.relative_to(ROOT)}")
        else:
            values, aliases = plain_run(runner, args.seconds)
            problems = []
            units = e2e_units
    finally:
        shutil.rmtree(work, ignore_errors=True)

    more, attempted, failed = runner.summary()
    problems = more + problems
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()} if values else {}
    correct = not problems and failed == 0 and bool(metrics)
    digest = runner.good[0].digest if runner.good else ""
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"units {len(runner.units)} digest {digest}")
    for problem in problems:
        print(f"# FAILED check: {problem}")
    print(f"# error_rate = {failed / attempted!r} ratio")
    for name, (value, unit) in aliases.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
