"""``wsner train`` runs each method through ``noise.fit``: its checkpoint and
channel equal those of the method's training function called directly;
two ``wsner train`` runs on one embeddings file write the same checkpoint,
the second reading the file's cache instead of parsing it; ``wsner
evaluate --model`` scores with the checkpoint's labels; ``wsner train``
with an empty ``--clean`` file still runs the methods that learn from
distant sentences alone; ``wsner evaluate --pred`` prints and writes the
span scores of a distant annotation; ``wsner train`` pairs each clean
sentence with its first token-identical sentence in ``--distant``, so
annotating the clean sentences into that file under the annotator's flags
gives the pairs those flags make, while ``wsner train`` itself refuses
every annotator flag and names the files of a clean sentence absent from
``--distant``; labels with whitespace are refused; ``--confusion-out`` is
refused for a method without a channel; every method but baseline-clean is
refused without distant sentences before the embeddings load; importing
the CLI leaves the HTTP client unloaded;
a damaged checkpoint, or a mutated CoNLL, token, entity-list, keywords,
embeddings, config or channel file, loads or exits 1 naming the file,
never with a traceback, and a damaged embeddings cache still loads the
table its text parses to; every subcommand exits 1 on bad input, naming
the file and line (bad ``train`` configs, which ``wsner experiment``
refuses with the same line, misaligned ``evaluate`` inputs and training
without distant sentences have tests of their own), and 2 on bad usage,
naming the option, a flag that the other options leave unused included."""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import wsner
from wsner import cli, evaluation, experiment, noise, tagger
from wsner.corpus import (Dataset, EntitySpan, LabeledSentence, TagSet, merge, read_conll,
                          write_conll)
from wsner.errors import ParseError, WsnerError

from conftest import write_tiny_sweep

SEED = 3
CONFIG = {"hidden_size": 4, "feature_size": 4, "epochs": 1, "learning_rate": 0.05,
          "em_iterations": 1, "cleaner_epochs": 2}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_tiny_sweep(tmp_path_factory.mktemp("corpus"))


def _reference(method, clean, distant, table):
    """(params, channel) of the method's training function called directly."""
    config = tagger.TaggerConfig(hidden_size=4, feature_size=4, epochs=1,
                                 learning_rate=0.05, seed=SEED)
    # the synthetic distant file starts with the noisy twins of the train sentences
    pairs = Dataset(distant.sentences[:len(clean.sentences)], clean.tag_set)
    if method == "baseline-clean":
        return tagger.train(clean, config, table), None
    if method == "naive-mix":
        return tagger.train(merge(clean, distant), config, table), None
    if method == "confusion":
        return noise.train_confusion_method(clean, distant, pairs, config, table,
                                            noise.MethodOptions())
    if method == "noise-channel":
        return noise.em_noise_channel(merge(clean, distant), config, table, 1)
    params, _ = noise.train_cleaning_method(clean, distant, pairs, config, table,
                                            noise.MethodOptions(cleaner_epochs=2))
    return params, None


@pytest.mark.parametrize("method", noise.METHODS)
def test_train_equals_direct_method_call(corpus, tmp_path, method):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    model, confusion = tmp_path / "model.npz", tmp_path / "confusion.txt"
    channel = method in ("confusion", "noise-channel")
    code = cli.main(["train", "--clean", corpus["train"], "--distant", corpus["distant"],
                     "--embeddings", corpus["embeddings"], "--method", method,
                     "--config", str(config_path), "--seed", str(SEED),
                     "--model-out", str(model)]
                    + (["--confusion-out", str(confusion)] if channel else []))
    assert code == 0

    clean = read_conll(corpus["train"], tag_set=TagSet())
    distant = read_conll(corpus["distant"], tag_set=TagSet(), provenance="distant")
    table = tagger.EmbeddingTable.load(corpus["embeddings"])
    want, want_channel = _reference(method, clean, distant, table)
    got, tag_set = tagger.load_checkpoint(model)
    assert tag_set == clean.tag_set
    for (name, g), (_, w) in zip(got.arrays(), want.arrays()):
        assert g.tobytes() == w.tobytes(), name
    if channel:
        assert np.array_equal(noise.load_confusion(confusion).matrix, want_channel.matrix)


def test_second_train_run_reads_the_embeddings_cache_and_saves_the_same_model(
        corpus, tmp_path, parse_calls):
    embeddings = tmp_path / "vectors.txt"
    shutil.copyfile(corpus["embeddings"], embeddings)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    models = []
    for run in ("cold", "warm"):
        model = tmp_path / f"{run}.npz"
        assert cli.main(["train", "--clean", corpus["train"], "--distant", corpus["distant"],
                         "--embeddings", str(embeddings), "--method", "confusion",
                         "--config", str(config_path), "--seed", str(SEED),
                         "--model-out", str(model)]) == 0
        models.append(model.read_bytes())
        assert parse_calls == [str(embeddings)]
    assert models[0] == models[1]


@pytest.mark.parametrize("doc, message", [
    ({"hidden_sise": 4}, "unknown config keys: ['hidden_sise']"),
    ({"cleaner_hidden": 0}, "cleaner_hidden must be >= 1"),
    ({"em_iterations": 0}, "em_iterations must be >= 1"),
    ({"cleaner_epochs": 0}, "cleaner_epochs must be >= 1"),
    ({"cell": "lstm"}, "unknown config keys: ['cell']"),
    ({"fine_tune_embeddings": True}, "unknown config keys: ['fine_tune_embeddings']"),
    ({"noise_channel_data": "mix"}, "unknown config keys: ['noise_channel_data']"),
    ({"seed": -1}, "seed must be >= 0"),
    *(({key: 4.5}, f"{key} must be an integer")
      for key in ("hidden_size", "feature_size", "epochs", "seed", "em_iterations",
                  "cleaner_hidden", "cleaner_epochs")),
    *(({key: value}, message)
      for key, message in (("learning_rate", "learning_rate must be positive and finite"),
                           ("cleaner_learning_rate",
                            "cleaner_learning_rate must be > 0 and finite"),
                           ("alpha", "alpha must be >= 0 and finite"))
      for value in (float("nan"), float("inf"))),
], ids=["unknown-key", "bad-value", "no-em-iterations", "no-cleaner-epochs", "cell-key",
        "fine-tune-key", "noise-channel-data-key", "negative-seed", "fractional-hidden-size",
        "fractional-feature-size", "fractional-epochs", "fractional-seed", "fractional-em-iterations",
        "fractional-cleaner-hidden", "fractional-cleaner-epochs", "nan-learning-rate",
        "infinite-learning-rate", "nan-cleaner-learning-rate",
        "infinite-cleaner-learning-rate", "nan-alpha", "infinite-alpha"])
def test_train_rejects_bad_config_naming_the_file(corpus, tmp_path, capsys, doc, message):
    # JSON's NaN and Infinity included; the sweep refuses the same settings
    # with the same line
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["train", "--clean", corpus["train"], "--embeddings", corpus["embeddings"],
                     "--config", str(config_path), "--model-out", str(tmp_path / "m.npz")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {config_path}: ") and message in err
    assert not (tmp_path / "m.npz").exists()

    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({"train": corpus["train"], "test": corpus["test"],
                                      "embeddings": corpus["embeddings"], **doc}),
                          encoding="utf-8")
    code = cli.main(["experiment", "--config", str(sweep_path),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.replace(str(sweep_path), "FILE") == err.replace(
        str(config_path), "FILE")
    assert not (tmp_path / "out").exists()


def test_experiment_exits_1_naming_its_failed_cells(tmp_path, capsys, monkeypatch):
    # at this learning rate the confusion cells diverge; distant-only
    # trains nothing
    paths = write_tiny_sweep(tmp_path / "corpus", learning_rate=1000.0,
                             methods=["confusion", "distant-only"])
    monkeypatch.setattr(experiment, "_cpu_count", lambda: 1)
    code = cli.main(["experiment", "--config", paths["config"],
                     "--out-dir", str(tmp_path / "cli")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ("error: 2 of 4 sweep cells failed; the first is 40/confusion/0: "
                   "NumericsError: non-finite training loss\n")
    assert "runs.csv" in out and "aggregate.csv" in out
    # both files are written, the bytes the sweep writes
    experiment.run_experiment(experiment.load_config(paths["config"],
                                                     {"out_dir": str(tmp_path / "direct")}))
    for name in ("runs.csv", "aggregate.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()


def test_evaluate_model_reads_gold_with_the_checkpoint_labels(corpus, tmp_path, capsys):
    # gold with a label outside the default tag set, evaluated without
    # --entity-types: the checkpoint's labels must be the ones read
    tag_set = TagSet(("PER", "MISC"))
    gold = Dataset((
        LabeledSentence(("w1", "w2", "w3"), (EntitySpan("PER", 0, 1), EntitySpan("MISC", 2, 3))),
        LabeledSentence(("w4", "w1"), (EntitySpan("MISC", 0, 1),)),
    ), tag_set)
    gold_path, model = tmp_path / "gold.conll", tmp_path / "model.npz"
    write_conll(gold, gold_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert cli.main(["train", "--clean", str(gold_path), "--embeddings", corpus["embeddings"],
                     "--entity-types", "PER,MISC", "--config", str(config_path),
                     "--model-out", str(model)]) == 0
    capsys.readouterr()

    code = cli.main(["evaluate", "--gold", str(gold_path), "--model", str(model),
                     "--embeddings", corpus["embeddings"]])
    out, err = capsys.readouterr()
    assert code == 0, err
    params, _ = tagger.load_checkpoint(model)
    table = tagger.EmbeddingTable.load(corpus["embeddings"])
    metrics = evaluation.span_prf(gold, tagger.predict(gold, params, table))
    assert out == evaluation.format_report(metrics) + "\n"


def test_evaluate_pred_prints_span_scores_of_the_distant_annotation(corpus, tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    code = cli.main(["evaluate", "--gold", corpus["test"], "--pred", corpus["distant_test"],
                     "--csv", str(scores)])
    out, err = capsys.readouterr()
    assert code == 0, err
    gold = read_conll(corpus["test"], tag_set=TagSet())
    distant = read_conll(corpus["distant_test"], tag_set=TagSet(), provenance="distant")
    metrics = evaluation.span_prf(gold, distant)
    assert 0.0 < metrics.overall.f1 < 1.0
    assert out == f"{evaluation.format_report(metrics)}\nwrote metrics to {scores}\n"
    header, row = scores.read_text(encoding="utf-8").splitlines()
    columns = ["gold", "pred_source"] + evaluation.metrics_columns(TagSet())
    assert header == ",".join(columns)
    assert row == ",".join([corpus["test"], corpus["distant_test"],
                            *evaluation.metrics_row(metrics, TagSet()).values()])


@pytest.mark.parametrize("flags", [["--lowercase"], ["--strip-diacritics"],
                                   ["--lowercase", "--strip-diacritics"]])
def test_train_pairs_clean_sentences_with_what_annotate_writes(corpus, tmp_path, monkeypatch,
                                                              flags):
    clean = _write(tmp_path / "clean.conll",
                   "ADE\tB-PER\nlọ\tO\nsí\tO\nÈkó\tB-LOC\n\nàdé\tB-PER\nọdún\tO\n2018\tB-DATE\n")
    ents = _write(tmp_path / "ents.tsv", "Ade\tPER\tkb\nEko\tLOC\tkb\n")
    annotator = ["--gazetteer", ents, "--keywords", "default"]
    annotated = {}
    for name, extra in (("plain", []), ("flagged", flags)):
        out = tmp_path / f"{name}.conll"
        # annotate reads the tokens of the clean file and ignores its tags
        assert cli.main(["annotate", "--corpus", clean, "--out", str(out),
                         *annotator, *extra]) == 0
        annotated[name] = read_conll(out, provenance="distant")
    assert annotated["flagged"] != annotated["plain"]

    # the distant file holds the flagged annotation of the clean sentences,
    # then the unflagged one, so only first-twin pairing gives the flagged
    distant = tmp_path / "distant.conll"
    distant.write_bytes((tmp_path / "flagged.conll").read_bytes()
                        + (tmp_path / "plain.conll").read_bytes())
    pairs = []
    twin = noise.distant_twin

    def spy(clean, distant):
        pairs.append(twin(clean, distant))
        raise WsnerError("stopped after pairing")

    monkeypatch.setattr(noise, "distant_twin", spy)
    assert cli.main(["train", "--clean", clean, "--distant", str(distant),
                     "--embeddings", corpus["embeddings"], "--method", "confusion",
                     "--model-out", str(tmp_path / "m.npz")]) == 1
    assert pairs == [annotated["flagged"]]


@pytest.mark.parametrize("csv", [False, True], ids=["evaluate---pred", "evaluate---pred---csv"])
@pytest.mark.parametrize("other_text, message", [
    ("Kano\tB-LOC\n", "sentence count mismatch: 2 vs 1"),
    ("Kano\tB-LOC\n\nAdé\tO\nOjo\tB-PER\n", "sentence 1: token count mismatch (1 vs 2)"),
], ids=["sentences", "tokens"])
def test_misaligned_inputs_exit_1_naming_both_files(tmp_path, capsys, csv, other_text,
                                                    message):
    gold = _write(tmp_path / "gold.conll", "Kano\tB-LOC\n\nAdé\tB-PER\n")
    pred = _write(tmp_path / "other.conll", other_text)
    scores = tmp_path / "scores.csv"
    code = cli.main(["evaluate", "--gold", gold, "--pred", pred]
                    + (["--csv", str(scores)] if csv else []))
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: {gold} vs {pred}: {message}\n"
    assert not scores.exists()


@pytest.mark.parametrize("method", ["confusion", "cleaning"])
def test_clean_sentence_absent_from_distant_exits_1_naming_both_files(corpus, tmp_path, capsys,
                                                                     method):
    clean = _write(tmp_path / "clean.conll", "Kano\tB-LOC\n")
    distant = _write(tmp_path / "distant.conll", "Adé\tB-PER\n")
    code = cli.main(["train", "--clean", clean, "--distant", distant, "--method", method,
                     "--embeddings", corpus["embeddings"], "--model-out", str(tmp_path / "m")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {clean} vs {distant}: cannot pair clean sentences with distant annotations: "
        "a clean sentence has no token-identical sentence in the distant data; annotate the "
        "clean sentences into the distant file with wsner annotate\n")
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("argv", [["annotate", "--corpus", "raw.txt", "--out", "o"],
                                  ["train", "--clean", "c", "--embeddings", "e",
                                   "--model-out", "m"],
                                  ["evaluate", "--gold", "g", "--pred", "p"]],
                         ids=lambda argv: argv[0])
def test_entity_types_with_whitespace_exit_1_naming_the_label(capsys, argv):
    # not a type named " LOC"
    assert cli.main([*argv, "--entity-types", "PER, LOC"]) == 1
    assert capsys.readouterr().err == "error: label is empty or contains whitespace: ' LOC'\n"


def test_importing_the_cli_does_not_load_the_http_client():
    # a fresh interpreter: this one may have loaded urllib.request and ssl
    # for other tests
    src = os.path.dirname(os.path.dirname(wsner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wsner.cli; "
         "print([m for m in ('urllib.request', 'ssl') if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _checkpoint(embed_dim, **arrays):
    """The bytes of a tiny checkpoint that embeds in *embed_dim* dimensions
    (hidden size 2, 2 features, 5 labels), with *arrays* in place of its
    parameters of those names."""
    params = dataclasses.replace(
        tagger.init_params(np.random.default_rng(0), "lstm", embed_dim, 2, 2, 5), **arrays)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.npz")
        tagger.save_checkpoint(path, params, TagSet())
        with open(path, "rb") as fh:
            return fh.read()


def _write(path, text):
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return str(path)


# (subcommand, {file name: content}, extra arguments, text the error names);
# annotate reads its first file as the corpus
BAD_INPUT = {
    "annotate-token-whitespace": (
        "annotate", {"raw.txt": "Kano\n\nAdé Ojo\n"}, [], "raw.txt:3: bad token line"),
    "annotate-not-utf8": (
        "annotate", {"latin.txt": "Kano\nAdé\n".encode("latin-1")}, [],
        "latin.txt:2: not valid UTF-8"),
    "annotate-tsv-row": (
        "annotate", {"raw.txt": "Kano\n", "ents.tsv": "Kano\tLOC\twikidata\nonly\ttwo\n"},
        ["--gazetteer", "ents.tsv"], "ents.tsv:2: expected 'surface<TAB>type<TAB>source'"),
    "annotate-tsv-empty-token": (
        "annotate", {"raw.txt": "Kano\n", "ents.tsv": "Adé  Ojo\tPER\tkb\n"},
        ["--gazetteer", "ents.tsv"], "ents.tsv:1: empty token in surface 'Adé  Ojo'"),
    "annotate-tsv-token-whitespace": (
        "annotate", {"raw.txt": "Kano\n",
                     "ents.tsv": "Kano\tLOC\tkb\nAdé\u00a0Ojo\tPER\tkb\n"},
        ["--gazetteer", "ents.tsv"],
        "ents.tsv:2: token contains whitespace in surface 'Adé\\xa0Ojo'"),
    "evaluate-malformed-gold": (
        "evaluate", {"gold.conll": "Kano\tB-LOC\nbroken line here\n",
                     "distant.conll": "Kano\tB-LOC\n"}, ["--pred", "distant.conll"],
        "gold.conll:2: expected"),
    "evaluate-pred-token-whitespace": (
        "evaluate", {"gold.conll": "Kano\tB-LOC\n", "distant.conll": "Adé Ojo\tB-PER\n"},
        ["--pred", "distant.conll"], "distant.conll:1: token contains whitespace"),
    "inspect-confusion-entry": (
        "inspect", {"c.txt": "# labels: O PER\n1 0\n0 x\n"}, ["--confusion", "c.txt"],
        "c.txt:3: non-numeric matrix entry"),
    "inspect-confusion-short-row": (
        "inspect", {"c.txt": "# labels: O PER\n1 0\n0\n"}, ["--confusion", "c.txt"],
        "c.txt:3: expected 2 values, got 1"),
    "inspect-confusion-long-row": (
        "inspect", {"c.txt": "# labels: O PER\n1 0 0\n0 1\n"}, ["--confusion", "c.txt"],
        "c.txt:2: expected 2 values, got 3"),
    "inspect-not-a-checkpoint": (
        "inspect", {"m.npz": "not an archive\n"}, ["--model", "m.npz"],
        "m.npz: not a checkpoint"),
    "ingest-truncated-page": (
        "ingest", {"page.json": '{"results": {"bindings": [\n'}, ["--fixture", "page.json"],
        "page.json:2: invalid JSON"),
    "ingest-page-not-utf8": (
        "ingest", {"page.json": '{"results":\n {"bindings": ["Adé"]}}\n'.encode("latin-1")},
        ["--fixture", "page.json"], "page.json:2: not valid UTF-8"),
    "evaluate-malformed-pred": (
        "evaluate", {"gold.conll": "Kano\tB-LOC\n", "pred.conll": "Kano\tB-LOC\nKano\n"},
        ["--pred", "pred.conll"], "pred.conll:2: expected 'token<TAB>tag'"),
    "evaluate-not-a-checkpoint": (
        "evaluate", {"gold.conll": "Kano\tB-LOC\n", "m.npz": "not an archive\n",
                     "e.txt": "1 1\nKano 0.5\n"},
        ["--model", "m.npz", "--embeddings", "e.txt"], "m.npz: not a checkpoint"),
    "evaluate-embedding-size": (
        "evaluate", {"gold.conll": "Kano\tB-LOC\n", "m.npz": _checkpoint(12),
                     "e.txt": "1 3\nKano 0.5 0.5 0.5\n"},
        ["--model", "m.npz", "--embeddings", "e.txt"],
        "e.txt: the model takes embeddings of size 12 but the table's have size 3"),
    "evaluate-checkpoint-shape": (
        "evaluate", {"gold.conll": "Kano\tB-LOC\n", "e.txt": "1 1\nKano 0.5\n",
                     "m.npz": _checkpoint(1, w_out=np.ones((5, 8)))},
        ["--model", "m.npz", "--embeddings", "e.txt"],
        "m.npz: parameter w_out has shape (5, 8), expected (5, 2)"),
    "evaluate-checkpoint-nan": (
        "evaluate", {"gold.conll": "Kano\tB-LOC\n", "e.txt": "1 1\nKano 0.5\n",
                     "m.npz": _checkpoint(1, w_out=np.full((5, 2), np.nan))},
        ["--model", "m.npz", "--embeddings", "e.txt"],
        "m.npz: non-finite values in parameter w_out"),
    "inspect-confusion-nan": (
        "inspect", {"c.txt": "# labels: O PER\n1 0\nnan nan\n"}, ["--confusion", "c.txt"],
        "c.txt: matrix entries must be finite"),
    "inspect-checkpoint-shape": (
        "inspect", {"m.npz": _checkpoint(3, u_b=np.ones((8, 3)))}, ["--model", "m.npz"],
        "m.npz: parameter u_b has shape (8, 3), expected (8, 2)"),
    "experiment-invalid-json": (
        "experiment", {"sweep.json": '{"repeats": 1,\n "methods": [\n'}, [],
        "sweep.json:3: invalid JSON"),
    "experiment-config-not-utf8": (
        "experiment", {"sweep.json": '{\n"out_dir": "Adé"}\n'.encode("latin-1")}, [],
        "sweep.json:2: not valid UTF-8"),
    "experiment-malformed-train": (
        "experiment", {"sweep.json": json.dumps({"train": "train.conll", "test": "test.conll",
                                                 "embeddings": "e.txt", "out_dir": "out"}),
                       "train.conll": "Kano\tB-LOC\n\nbroken line\n",
                       "test.conll": "Kano\tB-LOC\n", "e.txt": "1 1\nKano 0.5\n"},
        [], "train.conll:3: expected 'token<TAB>tag'"),
    "experiment-empty-train": (
        "experiment", {"sweep.json": json.dumps({"train": "train.conll", "test": "test.conll",
                                                 "embeddings": "e.txt", "out_dir": "out"}),
                       "train.conll": "\n", "test.conll": "Kano\tB-LOC\n",
                       "e.txt": "1 1\nKano 0.5\n"},
        [], "train.conll: no sentences"),
    "experiment-empty-test": (
        "experiment", {"sweep.json": json.dumps({"train": "train.conll", "test": "test.conll",
                                                 "embeddings": "e.txt", "out_dir": "out"}),
                       "train.conll": "Kano\tB-LOC\n", "test.conll": "",
                       "e.txt": "1 1\nKano 0.5\n"},
        [], "test.conll: no sentences"),
    "experiment-missing-file": (
        "experiment", {"sweep.json": json.dumps({"train": "absent.conll", "test": "test.conll",
                                                 "embeddings": "e.txt", "out_dir": "out"}),
                       "test.conll": "Kano\tB-LOC\n", "e.txt": "1 1\nKano 0.5\n"},
        [], "absent.conll"),
    "train-header-beyond-file": (
        "train", {"clean.conll": "Kano\tB-LOC\n",
                  "e.txt": "1000000000 300\nKano" + " 0.5" * 300 + "\n"}, [],
        "e.txt:1: header announces 1000000000 vectors of dimension 300"),
    "train-empty-clean": (
        "train", {"clean.conll": "", "e.txt": "1 1\nKano 0.5\n"}, [],
        "clean.conll: no sentences; baseline-clean needs clean sentences"),
    "train-empty-clean-cleaning": (
        "train", {"clean.conll": "", "distant.conll": "Kano\tB-LOC\n", "e.txt": "1 1\nKano 0.5\n"},
        ["--distant", "distant.conll", "--method", "cleaning"],
        "clean.conll: no sentences; cleaning needs clean sentences"),
    "train-non-finite-vector": (
        "train", {"clean.conll": "Kano\tB-LOC\n", "e.txt": "2 2\nKano 1.0 0.5\nAdé nan 1.0\n"},
        [], "e.txt:3: non-finite vector value"),
    "experiment-non-finite-vector": (
        "experiment", {"sweep.json": json.dumps({"train": "train.conll", "test": "test.conll",
                                                 "embeddings": "e.txt", "out_dir": "out"}),
                       "train.conll": "Kano\tB-LOC\n", "test.conll": "Kano\tB-LOC\n",
                       "e.txt": "1 2\nKano -inf 0.5\n"},
        [], "e.txt:2: non-finite vector value"),
    "experiment-config-a-list": (
        "experiment", {"sweep.json": "[1, 2]\n"}, [], "sweep.json: config is not a JSON object"),
    "experiment-config-a-string": (
        "experiment", {"sweep.json": '"x"\n'}, ["--repeats", "2"],
        "sweep.json: config is not a JSON object"),
    "experiment-repeated-method": (
        "experiment", {"sweep.json": json.dumps({"train": "train.conll", "test": "test.conll",
                                                 "embeddings": "e.txt", "out_dir": "out",
                                                 "methods": ["distant-only", "distant-only"]})},
        [], "sweep.json: methods must be unique"),
    "train-config-a-list": (
        "train", {"clean.conll": "Kano\tB-LOC\n", "e.txt": "1 1\nKano 0.5\n", "c.json": "[1, 2]"},
        ["--config", "c.json"], "c.json: config is not a JSON object"),
    "train-config-a-string": (
        "train", {"clean.conll": "Kano\tB-LOC\n", "e.txt": "1 1\nKano 0.5\n", "c.json": '"x"'},
        ["--config", "c.json", "--seed", "3"], "c.json: config is not a JSON object"),
    "train-config-before-embeddings": (
        "train", {"clean.conll": "Kano\tB-LOC\n", "e.txt": "2 1\nKano 0.5\n",
                  "c.json": '{"alpha": -1}'},
        ["--config", "c.json"], "c.json: alpha must be >= 0"),
    "synth-out-dir-is-a-file": (
        "synth", {"taken": "a file\n"}, ["--out-dir", "taken"], "taken"),
}


def _base_args(command, tmp_path, files):
    if command == "annotate":
        return ["--corpus", str(tmp_path / next(iter(files))),
                "--out", str(tmp_path / "out.conll")]
    if command == "ingest":
        return ["--class", "person", "--lang", "yo", "--out", str(tmp_path / "out.tsv")]
    if command == "evaluate":
        return ["--gold", str(tmp_path / "gold.conll")]
    if command == "experiment":
        return ["--config", str(tmp_path / "sweep.json")]
    if command == "train":
        return ["--clean", str(tmp_path / "clean.conll"), "--embeddings", str(tmp_path / "e.txt"),
                "--model-out", str(tmp_path / "out.npz")]
    return []


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_exits_1_naming_file_and_line(tmp_path, capsys, case):
    command, files, extra, message = BAD_INPUT[case]
    for name, text in files.items():
        _write(tmp_path / name, text)
    extra = [str(tmp_path / a) if a in files else a for a in extra]
    code = cli.main([command] + _base_args(command, tmp_path, files) + extra)
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error: ") and f"{tmp_path}{os.sep}{message}" in err, err
    assert "Traceback" not in err and out == ""
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("out")]


def test_evaluate_with_a_table_of_another_size_names_both_files(tmp_path, capsys):
    # predict's size check is the only one; evaluate adds the two paths
    model, vectors, gold = tmp_path / "m.npz", tmp_path / "e.txt", tmp_path / "gold.conll"
    model.write_bytes(_checkpoint(12))
    vectors.write_text("1 3\nKano 0.5 0.5 0.5\n", encoding="utf-8")
    gold.write_text("Kano\tB-LOC\n", encoding="utf-8")
    code = cli.main(["evaluate", "--gold", str(gold), "--model", str(model),
                     "--embeddings", str(vectors)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == (f"error: {model} vs {vectors}: the model takes embeddings of size 12 "
                   "but the table's have size 3\n")


def test_damaged_checkpoints_load_or_exit_1_naming_the_file(tmp_path, capsys):
    # copies of a tiny checkpoint with 1-4 random bytes changed each; zipfile
    # refuses some damaged entry headers with RuntimeError or its subclass
    # NotImplementedError, which must end as a ParseError like the rest
    base, rng = _checkpoint(3), random.Random(0)
    model = tmp_path / "m.npz"
    gold = _write(tmp_path / "gold.conll", "Kano\tB-LOC\n")
    vectors = _write(tmp_path / "e.txt", "1 3\nKano 0.1 0.2 0.3\n")
    loaded, causes = 0, set()
    for case in range(600):
        data = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        model.write_bytes(data)
        try:
            tagger.load_checkpoint(model)
        except ParseError as exc:
            assert str(exc).startswith(f"{model}: ")
            causes.add(type(exc.__context__))
        else:
            loaded += 1
        if case % 10:
            continue
        # the CLI on a sample: argparse makes each call cost milliseconds
        for argv in (["inspect", "--model", str(model)],
                     ["evaluate", "--gold", gold, "--model", str(model), "--embeddings", vectors]):
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code == 0 and err == "" or code == 1 and str(model) in err, (argv, err)
    assert 0 < loaded < 600
    assert NotImplementedError in causes


# valid inputs of the four text readers: the CoNLL reader (gold and
# prediction), the token corpus, the entity TSV and the keywords file
TEXT_INPUTS = {
    "gold.conll": "Adé\tB-PER\nOjo\tI-PER\nlọ\tO\nsí\tO\nKano\tB-LOC\n\n"
                  "ní\tO\nọjọ́\tB-DATE\nAjé\tI-DATE\n",
    "pred.conll": "Adé\tB-PER\nOjo\tO\nlọ\tO\nsí\tO\nKano\tB-ORG\n\n"
                  "ní\tO\nọjọ́\tB-DATE\nAjé\tI-DATE\n",
    "raw.txt": "Adé\nOjo\nlọ\nsí\nKano\n\nní\r\nọjọ́\nAjé\n2020\n",
    "ents.tsv": "Adé Ojo\tPER\twikidata\nKano\tLOC\twikidata\n",
    "keys.txt": "# Yorùbá\nọjọ́\n\nAjé\n",
}
# bytes that separate the readers' fields and lines, or start a malformed
# UTF-8 sequence, a comment or a tag prefix
FIELD_BYTES = (b"\t", b"\n", b"\r", b" ", b"\x0b", b"\x1c", b"\x00", b"\xff", b"\xc3",
               b"\xe2\x80\xa8", b"#", b"B-", b"I-", b"-", b"\n\n")


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """*data* with one byte run deleted, one of ``FIELD_BYTES`` inserted,
    one byte replaced, or a line repeated. Half the edits are at a field
    or line separator, where the readers' checks are."""
    separators = [i + rng.randint(0, 1) for i, byte in enumerate(data) if byte in b"\t\n "]
    at = rng.randrange(len(data) + 1)
    if separators and rng.random() < 0.5:
        at = rng.choice(separators)
    kind = rng.randrange(4)
    if kind == 0:
        return data[:at] + data[at + rng.randint(1, 4):]
    if kind == 1:
        return data[:at] + rng.choice(FIELD_BYTES) + data[at:]
    if kind == 2:
        return data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines)) if lines else 0
    return b"".join(lines[:k + 1] + lines[k:])


def test_mutated_text_inputs_exit_0_or_1_naming_the_file(tmp_path, capsys):
    # 500 seeded cases of 1-3 mutations of one input each, through the CLI:
    # each either runs (exit 0), or exits 1 naming the mutated file; no
    # exception leaves cli.main
    paths = {name: tmp_path / name for name in TEXT_INPUTS}
    evaluate = ["evaluate", "--gold", str(paths["gold.conll"]),
                "--pred", str(paths["pred.conll"])]
    annotate = ["annotate", "--corpus", str(paths["raw.txt"]),
                "--gazetteer", str(paths["ents.tsv"]), "--keywords", str(paths["keys.txt"]),
                "--out", str(tmp_path / "out.conll")]
    rng, codes = random.Random(0), []
    for _ in range(500):
        for name, text in TEXT_INPUTS.items():
            _write(paths[name], text)
        name = rng.choice(list(TEXT_INPUTS))
        data = TEXT_INPUTS[name].encode("utf-8")
        for _ in range(rng.randint(1, 3)):
            data = _mutate(data, rng)
        paths[name].write_bytes(data)
        argv = evaluate if name.endswith(".conll") else annotate
        try:
            code = cli.main(argv)
        except Exception as exc:
            raise AssertionError(f"{name} as {data!r}: {exc!r}") from exc
        err = capsys.readouterr().err
        assert code == 0 and err == "" or code == 1 and str(paths[name]) in err, (name, data, err)
        codes.append(code)
    # the mutations reach the readers' error paths and leave files they read
    assert 0 < codes.count(1) < len(codes)


# valid inputs of the readers of wsner train and wsner inspect --confusion:
# the embeddings text, the JSON config and a channel file. The config sets
# no learning rate, so no mutation of it can make training diverge.
TRAIN_INPUTS = {
    "e.txt": "3 2\nKano 0.5 -0.25\nAdé 0.125 1.0\nOjo -1.0 0.75 \n",
    "config.json": '{\n "hidden_size": 2,\n "feature_size": 2,\n "epochs": 1,\n "seed": 3,\n'
                   ' "alpha": 1.0,\n "cleaner_epochs": 2\n}\n',
    "c.txt": "# labels: O PER\n0.75 0.25\n0.125 0.875\n",
}


def test_mutated_embeddings_config_and_channel_exit_0_or_1_naming_the_file(tmp_path, capsys):
    # 600 seeded cases: mutated inputs through the CLI, as in the text
    # readers' test above, and copies of the embeddings cache with 1-4
    # random bytes changed beside unchanged text, each of which must load
    # the table the text parses to
    paths = {name: tmp_path / name for name in TRAIN_INPUTS}
    clean = _write(tmp_path / "clean.conll", "Kano\tB-LOC\n\nAdé\tB-PER\nOjo\tI-PER\n")
    cache = tmp_path / f"e.txt{tagger.CACHE_SUFFIX}"
    train = ["train", "--clean", clean, "--embeddings", str(paths["e.txt"]),
             "--config", str(paths["config.json"]), "--model-out", str(tmp_path / "m.npz")]
    inspect = ["inspect", "--confusion", str(paths["c.txt"])]
    _write(paths["e.txt"], TRAIN_INPUTS["e.txt"])
    want = tagger.EmbeddingTable.load(paths["e.txt"])
    cache_bytes = cache.read_bytes()
    rng, codes = random.Random(0), []
    for _ in range(600):
        for name, text in TRAIN_INPUTS.items():
            _write(paths[name], text)
        name = rng.choice([*TRAIN_INPUTS, cache.name])
        if name == cache.name:
            data = bytearray(cache_bytes)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            cache.write_bytes(data)
            try:
                got = tagger.EmbeddingTable.load(paths["e.txt"])
            except Exception as exc:
                raise AssertionError(f"cache as {bytes(data)!r}: {exc!r}") from exc
            assert got.vocab == want.vocab, bytes(data)
            assert got.matrix.tobytes() == want.matrix.tobytes(), bytes(data)
            continue
        data = TRAIN_INPUTS[name].encode("utf-8")
        for _ in range(rng.randint(1, 3)):
            data = _mutate(data, rng)
        paths[name].write_bytes(data)
        argv = inspect if name == "c.txt" else train
        try:
            code = cli.main(argv)
        except Exception as exc:
            raise AssertionError(f"{name} as {data!r}: {exc!r}") from exc
        err = capsys.readouterr().err
        assert code == 0 and err == "" or code == 1 and str(paths[name]) in err, (name, data, err)
        codes.append(code)
    assert 0 < codes.count(1) < len(codes)


@pytest.mark.parametrize("method", ["naive-mix", "confusion", "noise-channel"])
def test_train_on_distant_sentences_alone_with_an_empty_clean_file(corpus, tmp_path, method):
    clean, model = _write(tmp_path / "clean.conll", ""), tmp_path / "model.npz"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert cli.main(["train", "--clean", clean, "--distant", corpus["distant"],
                     "--embeddings", corpus["embeddings"], "--method", method,
                     "--config", str(config_path), "--model-out", str(model)]) == 0
    tagger.load_checkpoint(model)[0].check_finite()


@pytest.mark.parametrize("argv, option", [
    (["annotate", "--corpus", "raw.txt"], "--out"),
    (["annotate", "--corpus", "raw.txt", "--out", "o", "--min-len", "kb=x"], "--min-len"),
    (["annotate", "--corpus", "raw.txt", "--out", "o", "--min-len", "kb=0"], "--min-len"),
    (["annotate", "--corpus", "raw.txt", "--out", "o", "--min-len", "kb"], "--min-len"),
    # wsner annotate takes the annotator's flags, wsner train none of them
    (["train", "--clean", "c", "--embeddings", "e", "--model-out", "m", "--min-len", "kb=-2"],
     "unrecognized arguments: --min-len kb=-2\n"),
    (["annotate", "--corpus", "raw.txt", "--out", "o", "--default-min-len", "0"],
     "--default-min-len"),
    (["annotate", "--corpus", "raw.txt", "--out", "o", "--default-min-len", "-5"],
     "--default-min-len"),
    (["annotate", "--corpus", "raw.txt", "--out", "o", "--keywords", "default",
      "--entity-types", "PER,LOC"], "--keywords"),
    (["train", "--clean", "c", "--embeddings", "e", "--model-out", "m", "--gazetteer", "g",
      "--default-min-len", "0"], "unrecognized arguments: --gazetteer g --default-min-len 0\n"),
    (["train", "--clean", "c", "--embeddings", "e", "--model-out", "m", "--gazetteer", "g",
      "--default-min-len", "-5"], "unrecognized arguments: --gazetteer g --default-min-len -5\n"),
    (["train", "--clean", "c", "--embeddings", "e", "--model-out", "m", "--keywords", "default",
      "--lowercase"], "unrecognized arguments: --keywords default --lowercase\n"),
    (["train", "--clean", "c", "--embeddings", "e", "--model-out", "m", "--min-len", "kb=3",
      "--default-min-len", "2", "--strip-diacritics"],
     "unrecognized arguments: --min-len kb=3 --default-min-len 2 --strip-diacritics\n"),
    (["train", "--clean", "c", "--embeddings", "e", "--model-out", "m",
      "--confusion-out", "c.txt"], "--confusion-out: baseline-clean learns no channel"),
    (["train", "--clean", "c", "--distant", "d", "--embeddings", "e", "--model-out", "m",
      "--method", "cleaning", "--confusion-out", "c.txt"], "--confusion-out: cleaning learns"),
    (["quality", "--gold", "g.conll", "--distant", "d.conll"], "invalid choice: 'quality'"),
    (["inspect"], "--model"),
    (["inspect", "--model", "m.npz", "--confusion", "c.txt"], "--confusion"),
    (["ingest", "--class", "person", "--lang", "yo"], "--out"),
    (["ingest", "--class", "planet", "--lang", "yo", "--out", "o"], "--class"),
    (["evaluate", "--pred", "p.conll"], "--gold"),
    (["evaluate", "--gold", "g.conll", "--pred", "p.conll", "--csv"], "--csv"),
    (["evaluate", "--gold", "g.conll"], "--pred"),
    (["evaluate", "--gold", "g.conll", "--pred"], "--pred"),
    (["evaluate", "--gold", "g.conll", "--pred", "p.conll", "--embeddings", "e.txt"],
     "--embeddings"),
    (["evaluate", "--gold", "g.conll", "--model", "m.npz", "--embeddings", "e.txt",
      "--entity-types", "PER"], "--entity-types"),
    (["evaluate", "--gold", "g.conll", "--pred", "p.conll", "--model", "m.npz",
      "--embeddings", "e.txt"], "argument --model: not allowed with argument --pred"),
    (["experiment"], "--config"),
    (["experiment", "--config", "c.json", "--repeats", "two"], "--repeats"),
    (["experiment", "--config", "c.json", "--base-seed", "1.5"], "--base-seed"),
    (["experiment", "--config", "c.json", "--base-seed", "-3"],
     "argument --base-seed: expected an integer >= 0, got '-3'"),
    (["experiment", "--config", "c.json", "--repeats", "0"],
     "argument --repeats: expected an integer >= 1, got '0'"),
    (["experiment", "--config", "c.json", "--budgets", "100,abc"],
     "argument --budgets: budgets must be integers or 'unlimited', got 'abc'"),
    (["experiment", "--config", "c.json", "--budgets", "0"],
     "argument --budgets: budgets must be positive"),
    (["experiment", "--config", "c.json", "--budgets", "300,100"],
     "argument --budgets: budgets must be strictly increasing"),
    (["experiment", "--config", "c.json", "--budgets", ""],
     "argument --budgets: budgets must be integers or 'unlimited', got ''"),
    (["experiment", "--config", "c.json", "--methods", "bogus"],
     "argument --methods: unknown method 'bogus'"),
    (["experiment", "--config", "c.json", "--methods", ""],
     "argument --methods: unknown method ''"),
    (["experiment", "--config", "c.json", "--methods", "distant-only,distant-only"],
     "argument --methods: methods must be unique"),
    (["experiment", "--config", "c.json", "--out-dir", ""],
     "argument --out-dir: expected a path, got ''"),
    (["train", "--clean", "c", "--embeddings", "e", "--model-out", "m", "--seed", "-1"],
     "argument --seed: expected an integer >= 0, got '-1'"),
    (["synth"], "--out-dir"),
    (["synth", "--out-dir", "d", "--seed", "x"], "--seed"),
    (["synth", "--out-dir", "d", "--seed", "-1"],
     "argument --seed: expected an integer >= 0, got '-1'"),
], ids=["annotate-no-out", "min-len-not-int", "min-len-zero", "min-len-no-equals",
        "train-min-len-negative", "default-min-len-zero", "default-min-len-negative",
        "annotate-keywords-without-date", "train-default-min-len-zero",
        "train-default-min-len-negative",
        "train-keywords-without-gazetteer",
        "train-min-lens-without-gazetteer", "train-confusion-out-baseline-clean",
        "train-confusion-out-cleaning", "no-quality-subcommand", "inspect-nothing",
        "inspect-both",
        "ingest-no-out", "ingest-bad-class", "evaluate-no-gold", "evaluate-csv-no-path",
        "evaluate-no-pred-or-model", "evaluate-pred-no-path", "evaluate-pred-with-embeddings",
        "evaluate-model-with-entity-types", "evaluate-pred-and-model",
        "experiment-no-config", "experiment-repeats-not-int", "experiment-seed-not-int",
        "experiment-seed-negative", "experiment-repeats-zero", "experiment-budget-not-int",
        "experiment-budget-zero", "experiment-budgets-decreasing", "experiment-budgets-empty",
        "experiment-unknown-method", "experiment-methods-empty", "experiment-repeated-method",
        "experiment-out-dir-empty", "train-seed-negative", "synth-no-out-dir",
        "synth-seed-not-int", "synth-seed-negative"])
def test_bad_usage_exits_2_naming_the_option(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert option in err and "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("with_distant", [False, True], ids=["no-distant", "empty-distant"])
@pytest.mark.parametrize("method", ["confusion", "noise-channel"])
def test_confusion_out_without_distant_sentences_exits_1_before_training(
        corpus, tmp_path, capsys, monkeypatch, method, with_distant):
    monkeypatch.setattr(noise, "fit", None)  # training would raise a TypeError
    out = tmp_path / "out"
    out.mkdir()
    argv = ["train", "--clean", corpus["train"], "--embeddings", corpus["embeddings"],
            "--method", method, "--model-out", str(out / "m.npz"),
            "--confusion-out", str(out / "c.txt")]
    reason = "--distant (not given)"
    if with_distant:
        distant = _write(tmp_path / "distant.conll", "")
        argv += ["--distant", distant]
        reason = distant
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (f"error: {reason}: no sentences; {method} needs "
                                       "distant sentences\n")
    assert not list(out.iterdir())


@pytest.mark.parametrize("with_distant", [False, True], ids=["no-distant", "empty-distant"])
@pytest.mark.parametrize("method", ["naive-mix", "confusion", "noise-channel", "cleaning"])
def test_train_without_distant_sentences_exits_1_before_the_embeddings_load(
        corpus, tmp_path, capsys, monkeypatch, method, with_distant):
    # no method falls back to training on the clean sentences alone
    monkeypatch.setattr(tagger.EmbeddingTable, "load", None)  # loading raises a TypeError
    argv = ["train", "--clean", corpus["train"], "--embeddings", corpus["embeddings"],
            "--method", method, "--model-out", str(tmp_path / "m.npz")]
    source = "--distant (not given)"
    if with_distant:
        source = _write(tmp_path / "distant.conll", "")
        argv += ["--distant", source]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (f"error: {source}: no sentences; {method} needs "
                                       "distant sentences\n")
    assert not (tmp_path / "m.npz").exists()


def test_min_len_reaches_the_gazetteer(tmp_path, capsys):
    raw = _write(tmp_path / "raw.txt", "Ng\nAde\n")
    ents = _write(tmp_path / "ents.tsv", "Ng\tPER\tkb\nAde\tPER\tkb\n")
    out = tmp_path / "out.conll"
    assert cli.main(["annotate", "--corpus", raw, "--gazetteer", ents, "--min-len", "kb=3",
                     "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "Ng\tO\nAde\tB-PER\n\n"
