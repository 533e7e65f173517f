"""Sweep promises: the config's keys are ``ExperimentConfig``'s fields,
relative paths resolve against the config's directory, two runs of one
config write byte-identical CSVs (the first parses the embeddings, the
second reads their cache; in one recorded environment, bytes pinned by
their digests), a cell neither changes the shared context nor
depends on the cells before it, a sweep over the files ``wsner annotate``
writes scores and pairs what annotation gives, a bug in a cell stops the
sweep instead of writing an error row while a cell that fails writes the
same error row in the pool and in process, a train sentence without a
distant twin stops a sweep with confusion or cleaning before any cell
runs, as missing distant data stops one with any method but
baseline-clean and a missing or misaligned distant test file one with
distant-only, the worker pool starts the most expensive cells first yet
writes the same bytes as the in-process path, its workers run BLAS on one thread as the sweep's process does (so a
paper-shape cell resumed alone in the sweep's process trains the bytes
its pool worker trained), a paper-shape cell trains on two threads in the
sweep's process but on one in a pool with a worker per CPU, a worker that
dies fails the sweep instead of
hanging it, and an interrupted sweep resumes to the bytes of an
uninterrupted one."""

import concurrent.futures
import csv
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

import wsner
from wsner import cli, experiment, noise, tagger
from wsner.corpus import EntitySpan, TagSet, merge, read_conll, read_tokens
from wsner.date_rules import DateRuleSet
from wsner.errors import NumericsError, WsnerError
from wsner.evaluation import metrics_columns, metrics_row, span_prf
from wsner.gazetteer import annotate_distant, build_gazetteer, read_entity_tsv
from wsner.make_synth import write_synth_corpus
from wsner.tagger import EmbeddingTable

from conftest import write_tiny_sweep
from support import PINNED_ENVIRONMENT, environment, run_python


# sha256 of the tiny sweep's runs.csv and aggregate.csv, taken in
# support.PINNED_ENVIRONMENT. Every trained cell of the tiny sweep scores
# 0.0 (its tagger tags every token O), so these bytes pin scoring, the
# distant-only rows and the CSV format; test_noise.py pins training.
TINY_SWEEP_SHA256 = ("a12931cd453f4c443a6df139a8f95500a975e00a880a649eb2a865557f05e52d",
                     "79a52d73780645dd6a627d8c3ef8674d3958df2d531a8a3ab15b3e252cd63c98")


def test_two_runs_write_identical_csvs(tmp_path, parse_calls):
    paths = write_tiny_sweep(tmp_path / "corpus")
    config_path = paths["config"]
    outputs = []
    for name in ("a", "b"):
        config = experiment.load_config(config_path, {"out_dir": str(tmp_path / name)})
        runs_path, agg_path = experiment.run_experiment(config)
        with open(runs_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(experiment.METHODS)
        assert all(row["status"] == "ok" for row in rows)
        with open(runs_path, "rb") as runs, open(agg_path, "rb") as agg:
            outputs.append((runs.read(), agg.read()))
        assert parse_calls == [paths["embeddings"]]
    assert outputs[0] == outputs[1]
    if environment() != PINNED_ENVIRONMENT:
        pytest.skip(f"bytes pinned under python, numpy, BLAS {PINNED_ENVIRONMENT}, "
                    f"not {environment()}")
    assert tuple(hashlib.sha256(data).hexdigest() for data in outputs[0]) == TINY_SWEEP_SHA256


def test_cells_leave_context_table_unchanged(tmp_path):
    config_path = write_tiny_sweep(tmp_path / "corpus")["config"]
    config = experiment.load_config(config_path)

    fresh_ctx = experiment._build_context(config)
    matrix, unk = fresh_ctx.table.matrix.copy(), fresh_ctx.table.unk.copy()
    fresh = experiment.run_cell(fresh_ctx, 40, "baseline-clean", 0)
    assert np.array_equal(fresh_ctx.table.matrix, matrix)
    assert np.array_equal(fresh_ctx.table.unk, unk)

    ctx = experiment._build_context(config)
    for method in experiment.METHODS:
        experiment.run_cell(ctx, None, method, 1)
    assert experiment.run_cell(ctx, 40, "baseline-clean", 0) == fresh
    assert np.array_equal(ctx.table.matrix, matrix)


def test_sweep_reads_what_annotate_writes(tmp_path, monkeypatch):
    # the distant data is the annotation of the train split followed by
    # that of an extra corpus, and the distant test file the annotation of
    # the test split, each written by wsner annotate
    paths = write_tiny_sweep(tmp_path / "corpus")
    train, test = read_conll(paths["train"]), read_conll(paths["test"])
    ents = tmp_path / "ents.tsv"
    ents.write_text("".join(f"{' '.join(s.tokens[sp.start:sp.end])}\t{sp.label}\tkb\n"
                            for s in train.sentences + test.sentences for sp in s.spans
                            if sp.label != "DATE"), encoding="utf-8")
    keywords = tmp_path / "keywords.txt"
    keywords.write_text("date59\ndate50\n", encoding="utf-8")
    extra = tmp_path / "extra.txt"
    extra.write_text("per54\nper23\ndate59\no7\n2018\n\nloc31\no7\n", encoding="utf-8")
    annotator = ["--gazetteer", str(ents), "--keywords", str(keywords)]
    for corpus, out in ((paths["train"], "train"), (extra, "extra"), (paths["test"], "test")):
        assert cli.main(["annotate", "--corpus", str(corpus), "--out",
                         str(tmp_path / f"{out}.conll"), *annotator]) == 0
    distant = tmp_path / "distant.conll"
    distant.write_bytes((tmp_path / "train.conll").read_bytes()
                        + (tmp_path / "extra.conll").read_bytes())
    config = experiment.load_config(paths["config"], {
        "distant": str(distant), "distant_test": str(tmp_path / "test.conll"),
        "clean_budgets": ["unlimited"], "methods": ["distant-only"],
        "out_dir": str(tmp_path / "runs")})
    gaz = build_gazetteer(read_entity_tsv(ents))
    rules = DateRuleSet.load(keywords)

    ctx = experiment._build_context(config)
    assert ctx.distant == merge(annotate_distant(train, gaz, rules),
                                annotate_distant(read_tokens(extra), gaz, rules))
    assert ctx.distant.sentences[-2].spans == (EntitySpan("PER", 0, 2),
                                               EntitySpan("DATE", 2, 5))

    runs_path, _ = experiment.run_experiment(config)
    with open(runs_path, encoding="utf-8", newline="") as fh:
        row, = csv.DictReader(fh)
    want = span_prf(test, annotate_distant(test, gaz, rules))
    assert want.overall.f1 > 0
    assert {k: row[k] for k in metrics_columns(TagSet())} == metrics_row(want, TagSet())

    # confusion and cleaning cells pair each clean sentence with what
    # annotation gives for it
    pairs = []
    twin = noise.distant_twin

    def spy(clean, distant):
        pairs.append((clean, twin(clean, distant)))
        raise WsnerError("stopped after pairing")

    monkeypatch.setattr(noise, "distant_twin", spy)
    for budget in (40, None):
        for method in ("confusion", "cleaning"):
            for repeat in range(2):
                with pytest.raises(WsnerError, match="stopped after pairing"):
                    experiment.run_cell(ctx, budget, method, repeat)
    assert len(pairs) == 8
    for clean_sub, paired in pairs:
        assert paired == annotate_distant(clean_sub, gaz, rules)


def _buggy_cell(ctx, budget, method, repeat):
    raise ValueError("a bug")


def test_a_bug_in_a_cell_stops_the_sweep_instead_of_writing_an_error_row(tmp_path,
                                                                        monkeypatch):
    config = experiment.load_config(write_tiny_sweep(tmp_path / "corpus")["config"],
                                    {"out_dir": str(tmp_path / "out")})
    monkeypatch.setattr(experiment, "_cpu_count", lambda: 1)
    monkeypatch.setattr(experiment, "run_cell", _buggy_cell)
    with pytest.raises(ValueError, match="a bug"):
        experiment.run_experiment(config)
    runs = (tmp_path / "out" / "runs.csv").read_text(encoding="utf-8")
    assert runs == ",".join(experiment._runs_columns(TagSet())) + "\n"


def test_sweep_refuses_train_sentences_without_a_distant_twin_before_any_cell(tmp_path,
                                                                             capsys):
    # the distant file annotates the test split, so no train sentence has a
    # twin in it
    paths = write_tiny_sweep(tmp_path / "corpus", distant="distant_test.conll",
                             methods=["confusion", "cleaning", "naive-mix"])
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", paths["config"], "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {paths['train']} vs {paths['distant_test']}: cannot pair clean sentences "
        "with distant annotations: a clean sentence has no token-identical sentence in the "
        "distant data; annotate the clean sentences into the distant file with wsner annotate\n")
    assert not out.exists()


@pytest.mark.parametrize("distant", [None, "empty.conll"], ids=["no-distant", "empty-distant"])
@pytest.mark.parametrize("method", ["naive-mix", "confusion", "noise-channel", "cleaning"])
def test_sweep_refuses_a_method_without_distant_sentences_before_any_cell(
        tmp_path, capsys, monkeypatch, method, distant):
    # no method falls back to training on the clean sentences alone
    paths = write_tiny_sweep(tmp_path / "corpus", distant=distant,
                             methods=["baseline-clean", method])
    source = "distant (not in the config)"
    if distant:
        source = os.path.join(os.path.dirname(paths["config"]), distant)
        open(source, "w").close()
    monkeypatch.setattr(experiment, "run_cell", None)  # a cell would raise a TypeError
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", paths["config"], "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {source}: no sentences; {method} needs "
                                       "distant sentences\n")
    assert not out.exists()


@pytest.mark.parametrize("distant_test, message", [
    (None, "error: {test}: distant-only needs a distant_test file\n"),
    ("distant.conll", "error: {test} vs {distant_test}: sentence count mismatch: 5 vs 16\n"),
], ids=["missing", "misaligned"])
def test_sweep_refuses_distant_only_without_an_aligned_distant_test_before_any_cell(
        tmp_path, capsys, distant_test, message):
    paths = write_tiny_sweep(tmp_path / "corpus", distant_test=distant_test,
                             methods=["baseline-clean", "distant-only"])
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", paths["config"], "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == message.format(
        test=paths["test"], distant_test=os.path.join(os.path.dirname(paths["config"]),
                                                      str(distant_test)))
    assert not out.exists()


# ---------------------------------------------------------------------------
# worker pool and resume


def _exit_in_cleaning_cell(cell):
    """A worker row function whose process dies on the first cleaning cell."""
    if cell[1] == "cleaning":
        os._exit(3)
    return experiment._worker_row(cell)


def _exit_in_last_submitted_cell(cell):
    """A worker row function whose process dies on the cell a pool starts
    last, after the other cells of the tiny sweep have been started."""
    if cell == (40, "distant-only", 0):
        os._exit(3)
    return experiment._worker_row(cell)


def _cell_row_of(cell):
    """A worker row function whose row is its cell."""
    return cell


def _sleep_in_first_cell(cell):
    """A worker row function that finishes the canonically first cell of
    the tiny sweep last."""
    if cell == (40, "baseline-clean", 0):
        time.sleep(3)
    return experiment._worker_row(cell)


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the block after *seconds*, instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _workers(monkeypatch, cpus: int) -> list[int]:
    """Make the sweep see *cpus* CPUs; returns the worker count of each
    process pool it starts."""
    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(experiment, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return started


def _run(config_path, out_dir) -> tuple[bytes, bytes]:
    config = experiment.load_config(config_path, {"out_dir": str(out_dir)})
    runs_path, agg_path = experiment.run_experiment(config)
    with open(runs_path, "rb") as runs, open(agg_path, "rb") as agg:
        return runs.read(), agg.read()


def _rows(runs: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(runs.decode("utf-8"))))


def _keys(runs: bytes) -> list[tuple[str, str, str]]:
    return [(row["setting"], row["method"], row["repeat"]) for row in _rows(runs)]


CANONICAL = [(setting, method, "0") for setting in ("40", "unlimited")
             for method in experiment.METHODS]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A tiny sweep and the bytes of one uninterrupted run of it."""
    root = tmp_path_factory.mktemp("sweep")
    config_path = write_tiny_sweep(root / "corpus")["config"]
    return config_path, _run(config_path, root / "whole")


def test_pool_and_in_process_write_identical_csvs(sweep, tmp_path, monkeypatch):
    config_path, whole = sweep
    outputs = {}
    for cpus in (1, 2):
        started = _workers(monkeypatch, cpus)
        outputs[cpus] = _run(config_path, tmp_path / str(cpus))
        assert started == ([cpus] if cpus > 1 else [])
        assert multiprocessing.active_children() == []
    assert outputs[1] == outputs[2] == whole
    assert _keys(whole[0]) == CANONICAL
    assert all(r["status"] == "ok" for r in _rows(whole[0]))


_RUN_CELL = experiment.run_cell


def _diverging_distant_only(ctx, budget, method, repeat):
    """``run_cell``, except that every distant-only cell fails the way a
    diverging cell does."""
    if method == "distant-only":
        raise NumericsError("non-finite training loss")
    return _RUN_CELL(ctx, budget, method, repeat)


def _row_with_diverging_distant_only(cell):
    """A worker row function that installs ``_diverging_distant_only`` in
    its own (spawned) process."""
    experiment.run_cell = _diverging_distant_only
    return experiment._worker_row(cell)


def test_a_failing_cell_writes_the_same_error_row_in_the_pool_and_in_process(
        sweep, tmp_path, monkeypatch):
    config_path, whole = sweep
    outputs = {}
    for cpus in (1, 2):
        with monkeypatch.context() as patch:
            _workers(patch, cpus)
            patch.setattr(experiment, "run_cell", _diverging_distant_only)
            patch.setattr(experiment, "_worker_row", _row_with_diverging_distant_only)
            with _deadline(120):
                outputs[cpus] = _run(config_path, tmp_path / str(cpus))
    assert outputs[1] == outputs[2]
    runs, aggregate = outputs[1]
    failed = [r for r in _rows(runs) if r["status"] != "ok"]
    assert [r["method"] for r in failed] == ["distant-only"] * 2
    assert failed[0]["status"] == "error: NumericsError: non-finite training loss"
    # the other rows are those of the sweep without the failure, and each
    # failed group keeps its aggregate row in its place, with n 0, its one
    # failed cell counted and no means
    assert [r for r in _rows(runs) if r["status"] == "ok"] == [
        r for r in _rows(whole[0]) if r["method"] != "distant-only"]
    assert {r["failed"] for r in _rows(whole[1])} == {"0"}
    expected = [dict(r, n="0", failed="1",
                     **{col: "" for col in r if col.endswith(("_mean", "_se"))})
                if r["method"] == "distant-only" else r for r in _rows(whole[1])]
    assert [r["n"] for r in expected if r["method"] == "distant-only"] == ["0", "0"]
    assert _rows(aggregate) == expected


def test_a_group_with_a_diverged_repeat_counts_it_as_failed(tmp_path, monkeypatch, capsys):
    # of two repeats, training diverges in repeat 1: the group's means are
    # over repeat 0 alone, and aggregate.csv says so with n 1 and failed 1
    paths = write_tiny_sweep(tmp_path / "corpus", clean_budgets=[40], repeats=2,
                             methods=["baseline-clean", "distant-only"])
    diverging_seed = experiment.load_config(paths["config"]).base_seed + 1
    fit = noise.fit

    def diverging_fit(method, clean, distant, config, *args):
        if config.seed == diverging_seed:
            raise NumericsError("non-finite training loss")
        return fit(method, clean, distant, config, *args)

    monkeypatch.setattr(experiment, "_cpu_count", lambda: 1)
    monkeypatch.setattr(noise, "fit", diverging_fit)
    out = tmp_path / "out"
    code = cli.main(["experiment", "--config", paths["config"], "--out-dir", str(out)])
    assert code == 1
    assert "1 of 4 sweep cells failed; the first is 40/baseline-clean/1" in capsys.readouterr().err
    runs = _rows((out / "runs.csv").read_bytes())
    kept = [r for r in runs if r["method"] == "baseline-clean" and r["status"] == "ok"]
    assert [r["repeat"] for r in kept] == ["0"]
    trained, distant = _rows((out / "aggregate.csv").read_bytes())
    assert (trained["method"], trained["n"], trained["failed"]) == ("baseline-clean", "1", "1")
    assert trained["overall_f1_mean"] == repr(float(kept[0]["overall_f1"]))
    assert trained["overall_f1_se"] == "0.0"
    assert (distant["method"], distant["n"], distant["failed"]) == ("distant-only", "2", "0")


def test_dead_worker_fails_the_sweep_and_it_resumes(sweep, tmp_path, monkeypatch, capsys):
    config_path, whole = sweep
    _workers(monkeypatch, 2)
    monkeypatch.setattr(experiment, "_worker_row", _exit_in_cleaning_cell)
    with _deadline(60):
        code = cli.main(["experiment", "--config", config_path, "--out-dir", str(tmp_path)])
    stderr = capsys.readouterr().err
    assert code == 1 and "worker process died" in stderr
    assert multiprocessing.active_children() == []
    written = _keys((tmp_path / "runs.csv").read_bytes())
    # a canonical prefix that ends before the cell that killed its worker
    assert written == CANONICAL[:len(written)]
    assert len(written) <= CANONICAL.index(("40", "cleaning", "0"))
    assert "cell {}/{}/0 ".format(*CANONICAL[len(written)][:2]) in stderr

    monkeypatch.undo()
    _workers(monkeypatch, 2)
    assert _run(config_path, tmp_path) == whole


def test_pool_starts_cells_most_expensive_first():
    cells = [(budget, method, repeat) for budget in (300, 1000, None)
             for method in experiment.METHODS for repeat in range(2)]
    order = experiment._longest_first(cells)
    assert sorted(order, key=cells.index) == cells
    assert order[:2] == [(None, "cleaning", 0), (None, "cleaning", 1)]
    assert order[-2:] == [(300, "distant-only", 0), (300, "distant-only", 1)]
    assert [(b, m) for b, m, r in order if r == 0] == [
        (None, "cleaning"), (1000, "cleaning"), (300, "cleaning"),
        (None, "noise-channel"), (1000, "noise-channel"), (300, "noise-channel"),
        # confusion and naive-mix tie, and keep their canonical order
        (None, "naive-mix"), (None, "confusion"), (1000, "naive-mix"), (1000, "confusion"),
        (300, "naive-mix"), (300, "confusion"),
        (None, "baseline-clean"), (1000, "baseline-clean"), (300, "baseline-clean"),
        (None, "distant-only"), (1000, "distant-only"), (300, "distant-only"),
    ]


def test_pool_submits_longest_first_and_writes_canonical_order(monkeypatch):
    _workers(monkeypatch, 2)
    submitted = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, cell):
            submitted.append(cell)
            return super().submit(fn, cell)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(experiment, "_worker_row", _cell_row_of)
    cells = [(budget, method, 0) for budget in (40, None) for method in experiment.METHODS]
    rows = []
    experiment._run_cells(None, cells, rows.append)
    assert submitted == experiment._longest_first(cells)
    assert submitted[0] == (None, "cleaning", 0) and submitted[-1] == (40, "distant-only", 0)
    assert rows == cells


def test_first_cell_finishing_last_still_writes_canonical_bytes(sweep, tmp_path, monkeypatch):
    config_path, whole = sweep
    _workers(monkeypatch, 2)
    monkeypatch.setattr(experiment, "_worker_row", _sleep_in_first_cell)
    with _deadline(120):
        assert _run(config_path, tmp_path) == whole


def test_worker_dying_on_a_late_cell_leaves_a_canonical_prefix(sweep, tmp_path, monkeypatch,
                                                               capsys):
    config_path, whole = sweep
    _workers(monkeypatch, 2)
    monkeypatch.setattr(experiment, "_worker_row", _exit_in_last_submitted_cell)
    with _deadline(120):
        code = cli.main(["experiment", "--config", config_path, "--out-dir", str(tmp_path)])
    stderr = capsys.readouterr().err
    assert code == 1 and "worker process died" in stderr
    assert multiprocessing.active_children() == []
    written = _keys((tmp_path / "runs.csv").read_bytes())
    # the cells started before it may have finished in any order, but only
    # a canonical prefix that ends before the dead cell is written
    assert written == CANONICAL[:len(written)]
    assert len(written) <= CANONICAL.index(("40", "distant-only", "0"))
    assert "cell {}/{}/0 ".format(*CANONICAL[len(written)][:2]) in stderr

    monkeypatch.undo()
    _workers(monkeypatch, 2)
    assert _run(config_path, tmp_path) == whole


# A sweep script without an ``if __name__ == "__main__":`` guard: every
# spawned worker runs it again when it imports the main module, and dies
# there before it has read its context.
_UNGUARDED_SWEEP = """\
import sys
from wsner import experiment
experiment._cpu_count = lambda: 2
experiment.run_experiment(experiment.load_config(sys.argv[1], {"out_dir": sys.argv[2]}))
"""


def test_workers_dying_at_start_up_fail_the_sweep(tmp_path):
    config_path = write_synth_corpus(str(tmp_path / "corpus"), seed=0)["config"]
    # the bundled corpus: its context outgrows a 64 KB pipe buffer
    ctx = experiment._build_context(experiment.load_config(config_path))
    assert len(pickle.dumps(ctx)) > 1 << 16
    script = tmp_path / "sweep.py"
    script.write_text(_UNGUARDED_SWEEP, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(wsner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, str(script), config_path, str(tmp_path / "out")],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the sweep hung after its workers died at start-up")
    assert proc.returncode != 0
    assert "WsnerError: a sweep worker process died before cell 300/baseline-clean/0" in stderr
    # the workers' own runs of the script found the header and wrote none
    runs = (tmp_path / "out" / "runs.csv").read_text(encoding="utf-8")
    assert runs == ",".join(experiment._runs_columns(ctx.tag_set)) + "\n"


@pytest.mark.parametrize("rows, torn", [(0, False), (5, False), (3, True)],
                         ids=["header-only", "five-rows", "torn-fourth-row"])
def test_resumed_sweep_equals_uninterrupted(sweep, tmp_path, monkeypatch, rows, torn):
    config_path, whole = sweep
    lines = whole[0].splitlines(keepends=True)
    cut = b"".join(lines[:1 + rows])
    if torn:
        cut += lines[1 + rows][:len(lines[1 + rows]) // 2]
    (tmp_path / "runs.csv").write_bytes(cut)
    started = _workers(monkeypatch, 2)
    assert _run(config_path, tmp_path) == whole
    assert started == [2]


@pytest.mark.parametrize("torn", ["", "40,baseline-clean,0,7,o"], ids=["header", "torn-row"])
def test_resume_refuses_a_header_of_another_tag_set(sweep, tmp_path, torn):
    config_path, _ = sweep
    runs = tmp_path / "runs.csv"
    text = ",".join(experiment._runs_columns(TagSet(("PER", "LOC")))) + "\n" + torn
    runs.write_text(text, encoding="utf-8")
    with pytest.raises(WsnerError, match="does not match this sweep's columns") as err:
        _run(config_path, tmp_path)
    assert str(runs) in str(err.value)
    assert runs.read_text(encoding="utf-8") == text


_WORKER_BLAS = """
import json
import support
from wsner import experiment
experiment._cpu_count = lambda: 2
experiment._worker_row = support.blas_report
rows = [support.blas_report(None)]
experiment._run_cells(None, [(None, "baseline-clean", 0), (None, "baseline-clean", 1)],
                      rows.append)
print(json.dumps(rows))
"""


def test_workers_and_the_sweep_process_run_blas_on_one_thread():
    # the sweep's own process, then two pool workers, each with the BLAS
    # thread variable unset and set to 2
    reports = [report for threads in (None, "2")
               for report in json.loads(run_python(_WORKER_BLAS, threads))]
    assert len(reports) == 6
    assert {report["threads"] for report in reports} == {1}
    assert len({report["digest"] for report in reports}) == 1


_SWEEP_WITH_FIT_DIGESTS = """
import sys
import support
from wsner import experiment
experiment._cpu_count = lambda: int(sys.argv[3])
experiment._cell_row = support.cell_row_with_fit_digest
experiment._worker_row = support.worker_row_with_fit_digest
experiment.run_experiment(experiment.load_config(sys.argv[1], {"out_dir": sys.argv[2]}))
"""


def test_paper_shape_cell_run_alone_equals_its_row_from_a_pool(tmp_path):
    # at d=300, h=300, f=128 the trained bytes depend on the BLAS thread
    # count, which the BLAS variable asks to be 2; each row carries the
    # digest of the parameters its cell trained, since every cell scores 0
    paths = write_tiny_sweep(tmp_path / "corpus", hidden_size=300, feature_size=128,
                             clean_budgets=["unlimited"], methods=["baseline-clean", "confusion"])
    with open(paths["embeddings"], encoding="utf-8") as fh:
        words = [line.split(" ", 1)[0] for line in list(fh)[1:]]
    rng = np.random.default_rng(5)
    EmbeddingTable({w: i for i, w in enumerate(words)},
                   rng.normal(size=(len(words), 300))).save(paths["embeddings"])

    out = tmp_path / "out"
    run_python(_SWEEP_WITH_FIT_DIGESTS, "2", paths["config"], str(out), "2")
    pooled = (out / "runs.csv").read_bytes()
    header, *rows = pooled.splitlines(keepends=True)
    assert [row.split(b",")[1] for row in rows] == [b"baseline-clean", b"confusion"]
    assert all(re.fullmatch("ok [0-9a-f]{64}", row["status"]) for row in _rows(pooled))
    # the confusion cell again, alone in this process
    (out / "runs.csv").write_bytes(header + rows[0])
    run_python(_SWEEP_WITH_FIT_DIGESTS, "2", paths["config"], str(out), "1")
    assert (out / "runs.csv").read_bytes() == pooled


@pytest.mark.parametrize("pool", ["lone cell in process", "worker of a full pool"])
def test_a_paper_shape_cell_trains_on_two_threads_unless_its_pool_fills_the_cpus(
        pool, tmp_path, monkeypatch):
    # two CPUs: a cell run in the sweep's process has both, while each of
    # two pool workers has one, whatever the worker process itself may use
    paths = write_tiny_sweep(tmp_path / "corpus", hidden_size=300, feature_size=128,
                             clean_budgets=["unlimited"], methods=["baseline-clean"])
    table = EmbeddingTable.load(paths["embeddings"])
    EmbeddingTable(table.vocab, np.random.default_rng(5).normal(size=(len(table), 300))
                   ).save(paths["embeddings"])
    config = experiment.load_config(paths["config"], {"out_dir": str(tmp_path / "out")})
    monkeypatch.setattr(tagger, "_cpu_count", lambda: 2)
    monkeypatch.setattr(tagger, "_sharing_processes", 1)
    monkeypatch.setattr(experiment, "_worker_ctx", None)
    thread = threading.Thread
    started = []
    monkeypatch.setattr(threading, "Thread",
                        lambda *a, **k: started.append(1) or thread(*a, **k))
    if pool == "lone cell in process":
        monkeypatch.setattr(experiment, "_cpu_count", lambda: 1)
        experiment.run_experiment(config)
        assert started
    else:
        ctx_path = tmp_path / "context.pickle"
        ctx_path.write_bytes(pickle.dumps(experiment._build_context(config)))
        experiment._init_worker(str(ctx_path), 2)
        assert experiment._worker_row((None, "baseline-clean", 0))["status"] == "ok"
        assert not started


@pytest.mark.parametrize("key, value, message", [
    ("em_iterations", 0, "em_iterations must be >= 1"),
    ("cleaner_epochs", 0, "cleaner_epochs must be >= 1"),
    ("cleaner_hidden", 0, "cleaner_hidden must be >= 1"),
    ("cleaner_learning_rate", 0.0, "cleaner_learning_rate must be > 0"),
    ("alpha", -0.5, "alpha must be >= 0"),
    ("em_iterations", 1.5, "em_iterations must be an integer"),
    ("cleaner_epochs", 2.5, "cleaner_epochs must be an integer"),
    ("cleaner_hidden", 24.5, "cleaner_hidden must be an integer"),
    ("hidden_size", 4.5, "hidden_size must be an integer"),
    ("feature_size", 4.5, "feature_size must be an integer"),
    ("epochs", 1.5, "epochs must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("repeats", 1.5, "repeats must be an integer"),
    ("base_seed", 7.5, "base_seed must be an integer"),
    ("clean_budgets", [40.7, "unlimited"], "budgets must be integers"),
    # a string where a list belongs, which tuple() would split into letters
    ("clean_budgets", "1234", "clean_budgets must be a list, not a string"),
    ("methods", "confusion", "methods must be a list, not a string"),
    ("entity_types", "PER", "entity_types must be a list, not a string"),
    # JSON's NaN and Infinity
    ("learning_rate", float("nan"), "learning_rate must be positive and finite"),
    ("learning_rate", float("inf"), "learning_rate must be positive and finite"),
    ("cleaner_learning_rate", float("nan"), "cleaner_learning_rate must be > 0 and finite"),
    ("cleaner_learning_rate", float("inf"), "cleaner_learning_rate must be > 0 and finite"),
    ("alpha", float("nan"), "alpha must be >= 0 and finite"),
    ("alpha", float("inf"), "alpha must be >= 0 and finite"),
    ("train", 5, "train must be a path string"),
    ("embeddings", ["e.txt"], "embeddings must be a path string"),
    # numpy's generators take no negative seed
    ("seed", -1, "seed must be >= 0"),
    ("base_seed", -3, "base_seed must be >= 0"),
])
def test_bad_method_option_is_refused_naming_the_file(tmp_path, capsys, key, value, message):
    config_path = write_tiny_sweep(tmp_path / "corpus", **{key: value})["config"]
    with pytest.raises(WsnerError, match=message) as err:
        experiment.load_config(config_path)
    assert str(err.value).startswith(f"{config_path}: ")
    code = cli.main(["experiment", "--config", config_path,
                     "--out-dir", str(tmp_path / "out")])
    stderr = capsys.readouterr().err
    assert code == 1 and config_path in stderr and message in stderr
    assert not (tmp_path / "out").exists()


def test_config_keys_are_the_fields_and_relative_paths_resolve_against_the_file(tmp_path):
    absolute = os.path.abspath(os.sep)
    doc = {"train": "tr.conll", "test": os.path.join(absolute, "te.conll"),
           "embeddings": "e.txt", "out_dir": "runs", "distant": "d.conll",
           "distant_test": None, "clean_budgets": [300, "unlimited"],
           "methods": ["naive-mix"], "repeats": 2, "base_seed": 5, "entity_types": ["PER"],
           "hidden_size": 8, "alpha": 0.5, "seed": 9}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    here = str(tmp_path)
    assert experiment.load_config(path) == experiment.ExperimentConfig(
        train=os.path.join(here, "tr.conll"), test=doc["test"],
        embeddings=os.path.join(here, "e.txt"), out_dir=os.path.join(here, "runs"),
        distant=os.path.join(here, "d.conll"), clean_budgets=(300, None),
        methods=("naive-mix",), repeats=2, base_seed=5, entity_types=("PER",),
        tagger=tagger.TaggerConfig(hidden_size=8, seed=9),
        options=noise.MethodOptions(alpha=0.5))
    # old field names, the sub-configs, and the entity-list keys (distant
    # files come from wsner annotate)
    for key in ("train_path", "gazetteer_paths", "tagger", "options", "gazetteers",
                "keywords", "extra_corpus", "min_len", "default_min_len"):
        with pytest.raises(WsnerError) as err:
            experiment.load_config(path, {key: "x"})
        assert str(err.value) == f"{path}: unknown config keys: ['{key}']"
