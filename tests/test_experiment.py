"""Sweep promises: two runs of one config write byte-identical CSVs, and a
cell neither changes the shared context nor depends on the cells before it."""

import csv

import numpy as np

from wsner import experiment

from conftest import write_tiny_sweep


def test_two_runs_write_identical_csvs(tmp_path):
    config_path = write_tiny_sweep(tmp_path / "corpus")["config"]
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
    assert outputs[0] == outputs[1]


def test_fine_tuned_cell_leaves_context_table_unchanged(tmp_path):
    config_path = write_tiny_sweep(tmp_path / "corpus", fine_tune_embeddings=True)["config"]
    config = experiment.load_config(config_path)
    assert config.tagger.fine_tune_embeddings

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
