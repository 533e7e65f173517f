"""Experiment sweep: clean-budget × method × repeat grid with per-run and
aggregated CSV output.

A cell trains on a subsample of the clean data with ``noise.fit``, the
pipeline ``wsner train`` runs too, and scores the tagger on the test split
(``distant-only`` scores the distant annotation of the test split). Every
cell is seeded as ``base_seed + repeat`` (subsampling and training) and
never changes the shared context, so any cell can be reproduced in
isolation and two full runs of the same config produce byte-identical CSV
files.

Pending cells run in a pool of worker processes started with ``spawn``,
one per CPU the process may use (``os.sched_getaffinity``), but never
more than there are pending cells; with one worker the cells run in this
process. A worker runs the tagger's two LSTM directions on one thread
unless the process may use two CPUs for each worker (see
``tagger._two_threads``). The shared context is built once and pickled
to a temporary file that each worker reads once when it starts. The
pool starts the cells most expensive first: cleaning, then
noise-channel, then confusion and naive-mix, then baseline-clean, then
distant-only, the larger budget first within a method, so the longest
cells do not start last and leave the other workers idle. This process alone writes
``runs.csv``, in canonical (budget, method, repeat) order: a finished row
waits until every row before it is written, then is flushed at once, so
the rows are the same bytes whichever path ran them and an interrupted
sweep leaves a canonical prefix. Rows held back at an interrupt are lost,
and their cells run again on resume. A worker that dies ends the sweep
with a ``WsnerError`` naming the first cell without a row; the rows
written stay.

The runner is resumable: rows already present in the per-run CSV are
detected by (setting, method, repeat) and skipped; a torn last line, left
by a crash in the middle of a row, is cut off so its cell runs again, and a
file whose header does not match this sweep's columns, or that holds a row
of another base seed, is refused untouched.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import tempfile
from dataclasses import dataclass, field, fields, replace

from . import noise, tagger
from .corpus import Dataset, TagSet, check_aligned, read_conll, subsample_tokens
from .errors import AlignmentError, WsnerError
from .evaluation import mean_and_se, metrics_columns, metrics_row, span_prf
from .tagger import EmbeddingTable, TaggerConfig, _cpu_count, require_integers

METHODS = noise.METHODS + ("distant-only",)

UNLIMITED = "unlimited"


# the fields of ExperimentConfig that name one input file each
_INPUTS = ("train", "test", "embeddings", "distant", "distant_test")


def _budget(value):
    if value is None or value == UNLIMITED:
        return None
    if isinstance(value, (bool, float)):
        raise ValueError("budgets must be integers")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"budgets must be integers or {UNLIMITED!r}, got {value!r}") from None


def parse_budgets(values) -> tuple:
    """The clean budgets *values* of a sweep as token counts, ``None`` for
    the full train split (``None`` or ``"unlimited"``); a ``ValueError``
    unless they are positive and strictly increasing."""
    budgets = tuple(map(_budget, values))
    as_inf = [float("inf") if b is None else b for b in budgets]
    if any(b < 1 for b in as_inf):
        raise ValueError("budgets must be positive")
    if any(a >= b for a, b in zip(as_inf, as_inf[1:])):
        raise ValueError("budgets must be strictly increasing")
    return budgets


def parse_methods(values) -> tuple:
    """The methods *values* of a sweep; a ``ValueError`` unless each is one
    of ``METHODS``, once."""
    methods = tuple(values)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if len(set(methods)) != len(methods):
        raise ValueError("methods must be unique")
    return methods


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep. The fields are the keys of the flat JSON config, besides
    ``tagger`` and ``options``, which ``noise.load_settings`` fills from the
    tagger and method keys (a ``seed`` key is overridden by the per-repeat
    seed ``base_seed + repeat``). A budget is a token count, or ``None`` or
    ``"unlimited"`` for the full train split.

    ``distant`` and ``distant_test`` are files written by ``wsner annotate``:
    the distant training data, where confusion and cleaning look up each
    clean sentence's distant twin, and the annotation of the test split that
    ``distant-only`` scores. Before any cell runs, a sweep refuses inputs
    that ``noise.require_inputs`` refuses for one of its methods (so every
    method but baseline-clean needs ``distant``, and confusion and cleaning
    a twin for every train sentence), and distant-only a missing or
    misaligned ``distant_test``."""

    train: str
    test: str
    embeddings: str
    out_dir: str
    clean_budgets: tuple = (1000, 2000, 4000, None)
    methods: tuple = METHODS
    repeats: int = 20
    base_seed: int = 0
    distant: str | None = None
    distant_test: str | None = None
    entity_types: tuple = ("PER", "ORG", "LOC", "DATE")
    tagger: TaggerConfig = field(default_factory=TaggerConfig)
    options: noise.MethodOptions = field(default_factory=noise.MethodOptions)

    def __post_init__(self):
        for name in ("clean_budgets", "methods", "entity_types"):
            if isinstance(getattr(self, name), str):  # tuple() would split it into letters
                raise ValueError(f"{name} must be a list, not a string")
        for name, value in (("clean_budgets", parse_budgets(self.clean_budgets)),
                            ("methods", parse_methods(self.methods)),
                            ("entity_types", tuple(self.entity_types))):
            object.__setattr__(self, name, value)
        require_integers(self, ("repeats",), 1)
        require_integers(self, ("base_seed",), 0)

    def validate_paths(self) -> None:
        for p in (getattr(self, key) for key in _INPUTS):
            if p and not os.path.exists(p):
                raise WsnerError(f"configured file does not exist: {p}")


_KEYS = {f.name for f in fields(ExperimentConfig)} - {"tagger", "options"}


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """The sweep of the flat JSON config file *path* updated with
    *overrides*, read by ``noise.load_settings``; relative paths resolve
    against the file's directory."""
    base_dir = os.path.dirname(os.path.abspath(path))

    def build(tagger_config, options, doc):
        for key in _INPUTS + ("out_dir",):
            if doc.get(key) is not None:
                if not isinstance(doc[key], str):
                    raise ValueError(f"{key} must be a path string")
                doc[key] = os.path.join(base_dir, doc[key])
        return ExperimentConfig(**doc, tagger=tagger_config, options=options)

    return noise.load_settings(path, overrides, _KEYS, build)


# ---------------------------------------------------------------------------
# data loading and per-cell execution


@dataclass
class _Context:
    config: ExperimentConfig
    tag_set: TagSet
    train: Dataset
    test: Dataset
    distant: Dataset
    distant_test: Dataset | None
    table: EmbeddingTable


def _build_context(config: ExperimentConfig) -> _Context:
    config.validate_paths()
    tag_set = TagSet(config.entity_types)
    train = read_conll(config.train, tag_set=tag_set)
    test = read_conll(config.test, tag_set=tag_set)
    for path, split in ((config.train, train), (config.test, test)):
        if not split.sentences:  # every cell would train or score on nothing
            raise WsnerError(f"{path}: no sentences")
    table = EmbeddingTable.load(config.embeddings)
    distant = (read_conll(config.distant, tag_set=tag_set, provenance="distant")
               if config.distant else Dataset((), tag_set))
    distant_test = (read_conll(config.distant_test, tag_set=tag_set, provenance="distant")
                    if config.distant_test else None)
    # a cell trains on a subsample of train, so checking all of it covers every cell
    noise.require_inputs([m for m in config.methods if m in noise.METHODS], train, distant,
                         config.train, config.distant or "distant (not in the config)")
    if "distant-only" in config.methods:  # every such cell scores these two files
        if distant_test is None:
            raise WsnerError(f"{config.test}: distant-only needs a distant_test file")
        try:
            check_aligned(test, distant_test)
        except AlignmentError as exc:
            raise AlignmentError(f"{config.test} vs {config.distant_test}: {exc}") from None
    return _Context(config, tag_set, train, test, distant, distant_test, table)


def run_cell(ctx: _Context, budget, method: str, repeat: int):
    """Train/score one sweep cell; returns RunMetrics."""
    config = ctx.config
    if method == "distant-only":
        return span_prf(ctx.test, ctx.distant_test)

    seed = config.base_seed + repeat
    effective = budget if budget is not None else ctx.train.num_tokens
    clean_sub = subsample_tokens(ctx.train, effective, seed)
    params, _ = noise.fit(method, clean_sub, ctx.distant, replace(config.tagger, seed=seed),
                          ctx.table, config.options)
    return span_prf(ctx.test, tagger.predict(ctx.test, params, ctx.table))


# ---------------------------------------------------------------------------
# CSV plumbing


def _budget_name(budget) -> str:
    return UNLIMITED if budget is None else str(budget)


def _runs_columns(tag_set: TagSet) -> list[str]:
    return ["setting", "method", "repeat", "seed", "status"] + metrics_columns(tag_set)


def _resume_keys(path, columns: list[str], base_seed: int) -> set[tuple[str, str, str]]:
    """(setting, method, repeat) of the rows an earlier run left in the
    per-run CSV at *path*. A file whose header is not *columns*, or with a
    row whose seed is not ``base_seed + repeat`` (a sweep of another base
    seed), is refused untouched; otherwise a torn last line (no line end),
    left by a crash in the middle of a write, is cut off so its cell runs
    again."""
    if not os.path.exists(path):
        return set()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(columns)
    header = buf.getvalue().encode("utf-8")
    with open(path, "rb+") as fh:
        data = fh.read()
        # an empty file or a torn header is this sweep's own start
        if not (data.startswith(header) or header.startswith(data)):
            found = data.split(b"\n", 1)[0].decode("utf-8", "replace")
            raise WsnerError(
                f"{path}: header {found!r} does not match this sweep's columns "
                f"{columns}; use another out_dir"
            )
        keep = data.rfind(b"\n") + 1
        rows = csv.DictReader(io.StringIO(data[len(header):keep].decode("utf-8")),
                              fieldnames=columns)
        keys, line = set(), 2
        for row in rows:
            repeat = row["repeat"] or ""
            expected = str(base_seed + int(repeat)) if repeat.isdecimal() else "base_seed + repeat"
            if row["seed"] != expected:
                raise WsnerError(
                    f"{path}:{line}: seed {row['seed']} of repeat {repeat}, but this sweep's "
                    f"base_seed {base_seed} gives seed {expected}; use another out_dir or "
                    "that sweep's base_seed")
            keys.add((row["setting"], row["method"], row["repeat"]))
            line = rows.line_num + 2
        if keep < len(data):
            fh.truncate(keep)
    return keys


def _cell_row(ctx: _Context, budget, method: str, repeat: int) -> dict[str, str]:
    """The runs.csv row of one cell; a cell that fails gets an error status
    and empty metrics."""
    row = {"setting": _budget_name(budget), "method": method, "repeat": str(repeat),
           "seed": str(ctx.config.base_seed + repeat)}
    try:
        metrics = run_cell(ctx, budget, method, repeat)
    except WsnerError as exc:
        row["status"] = f"error: {type(exc).__name__}: {exc}"
        row.update({c: "" for c in metrics_columns(ctx.tag_set)})
    else:
        row["status"] = "ok"
        row.update(metrics_row(metrics, ctx.tag_set))
    return row


# the sweep context of a worker process, set once by _init_worker
_worker_ctx: _Context | None = None


def _init_worker(ctx_path: str, workers: int) -> None:
    """Load the sweep context; a pool of *workers* processes shares this
    process's CPUs, so the tagger counts them before it starts a thread."""
    global _worker_ctx
    with open(ctx_path, "rb") as fh:
        _worker_ctx = pickle.load(fh)
    tagger._sharing_processes = workers


def _worker_row(cell: tuple) -> dict[str, str]:
    return _cell_row(_worker_ctx, *cell)


# Submission rank of each method in a worker pool, most expensive first, as
# measured on full-budget cells of the bundled synthetic config.
_COST_RANK = {"cleaning": 0, "noise-channel": 1, "confusion": 2, "naive-mix": 2,
              "baseline-clean": 3, "distant-only": 4}


def _longest_first(cells: list[tuple]) -> list[tuple]:
    """*cells* in the order a worker pool starts them: by method cost rank,
    then the larger budget first (unlimited above all); a stable sort, so
    ties keep the order of *cells*."""
    return sorted(cells, key=lambda cell: (_COST_RANK[cell[1]],
                                           -(float("inf") if cell[0] is None else cell[0])))


def _run_cells(ctx: _Context, cells: list[tuple], write) -> None:
    """``write(row)`` for every cell, in the order of *cells*, each as soon
    as it and the cells before it are done. A worker pool starts the cells
    most expensive first (``_longest_first``) and holds a finished row
    until the rows before it are written."""
    workers = min(_cpu_count(), len(cells))
    if workers <= 1:
        for cell in cells:
            write(_cell_row(ctx, *cell))
        return
    # imported here: they add about 2 MB to every process that imports this
    # module, and only a sweep with more than one worker uses them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with tempfile.TemporaryDirectory() as tmp:
        # Workers read the context from a file. Passed as initargs, it would
        # be written into each new worker's pipe while the pool holds the
        # pipe's read end, so a worker that died before reading it would
        # block that write for good once it outgrows the pipe buffer.
        ctx_path = os.path.join(tmp, "context.pickle")
        with open(ctx_path, "wb") as fh:
            pickle.dump(ctx, fh)
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                                   initializer=_init_worker, initargs=(ctx_path, workers))
        written = 0
        try:
            futures = {cell: pool.submit(_worker_row, cell) for cell in _longest_first(cells)}
            for cell in cells:
                write(futures[cell].result())
                written += 1
        except BrokenProcessPool as exc:
            budget, method, repeat = cells[written]
            raise WsnerError(
                f"a sweep worker process died before cell "
                f"{_budget_name(budget)}/{method}/{repeat} was done ({exc}); "
                f"the rows before it are kept, run the sweep again to resume"
            ) from None
        finally:
            pool.shutdown(cancel_futures=True)


def run_experiment(config: ExperimentConfig) -> tuple[str, str]:
    """Execute every pending sweep cell (in a worker pool, see the module
    docstring), appending one CSV row per cell in canonical order; failed
    cells get an error marker and the sweep continues. Returns (runs csv
    path, aggregate csv path)."""
    ctx = _build_context(config)
    os.makedirs(config.out_dir, exist_ok=True)
    runs_path = os.path.join(config.out_dir, "runs.csv")
    agg_path = os.path.join(config.out_dir, "aggregate.csv")
    columns = _runs_columns(ctx.tag_set)
    done = _resume_keys(runs_path, columns, config.base_seed)
    cells = [(budget, method, repeat)
             for budget in config.clean_budgets
             for method in config.methods
             for repeat in range(config.repeats)
             if (_budget_name(budget), method, str(repeat)) not in done]

    with open(runs_path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        if fh.tell() == 0:
            writer.writeheader()
            fh.flush()

        def write(row):
            writer.writerow(row)
            fh.flush()

        _run_cells(ctx, cells, write)
    write_aggregate(runs_path, agg_path, ctx.tag_set)
    return runs_path, agg_path


def write_aggregate(runs_path, agg_path, tag_set: TagSet) -> None:
    """Mean and standard error per (setting, method) over the ok rows, in
    the canonical order of ``runs.csv``, with ``n`` the count of ok rows
    and ``failed`` that of error rows. A group whose every cell failed
    keeps its row, with ``n`` 0 and empty means and standard errors."""
    groups: dict[tuple[str, str], list[dict]] = {}
    with open(runs_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault((row["setting"], row["method"]), []).append(row)
    value_cols = metrics_columns(tag_set)
    out_cols = ["setting", "method", "n", "failed"]
    for col in value_cols:
        out_cols += [f"{col}_mean", f"{col}_se"]
    with open(agg_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=out_cols, lineterminator="\n")
        writer.writeheader()
        for key, rows in groups.items():
            ok = [r for r in rows if r["status"] == "ok"]
            out = {"setting": key[0], "method": key[1], "n": str(len(ok)),
                   "failed": str(len(rows) - len(ok))}
            for col in value_cols if ok else ():
                mean, se = mean_and_se([float(r[col]) for r in ok])
                out[f"{col}_mean"] = repr(mean)
                out[f"{col}_se"] = repr(se)
            writer.writerow(out)
