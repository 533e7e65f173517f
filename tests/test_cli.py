"""``wsner train`` runs each method through ``noise.fit``: its checkpoint and
channel equal those of the method's training function called directly;
``wsner evaluate --model`` scores with the checkpoint's labels; importing the
CLI leaves the HTTP client unloaded."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import wsner
from wsner import cli, evaluation, noise, tagger
from wsner.corpus import (Dataset, EntitySpan, LabeledSentence, TagSet, merge, read_conll,
                          write_conll)

from conftest import write_tiny_sweep

SEED = 3
CONFIG = {"hidden_size": 4, "feature_size": 4, "epochs": 1, "learning_rate": 0.05,
          "em_iterations": 1, "cleaner_epochs": 2}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_tiny_sweep(tmp_path_factory.mktemp("corpus"))


def _reference(method, extra, clean, distant, table):
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
        return noise.train_confusion_method(clean, distant, pairs, config, table, alpha=1.0)
    if method == "noise-channel":
        data = distant if extra.get("noise_channel_data") == "distant-only" else merge(clean, distant)
        params, state = noise.em_noise_channel(data, config, table, 1)
        return params, state.channel
    params, _ = noise.train_cleaning_method(clean, distant, pairs, config, table,
                                            cleaner_hidden=32, cleaner_learning_rate=0.1,
                                            cleaner_epochs=2)
    return params, None


@pytest.mark.parametrize("method, extra", [(m, {}) for m in noise.METHODS]
                         + [("noise-channel", {"noise_channel_data": "distant-only"})],
                         ids=list(noise.METHODS) + ["noise-channel-distant-only"])
def test_train_equals_direct_method_call(corpus, tmp_path, method, extra):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**CONFIG, **extra}), encoding="utf-8")
    model, confusion = tmp_path / "model.npz", tmp_path / "confusion.txt"
    code = cli.main(["train", "--clean", corpus["train"], "--distant", corpus["distant"],
                     "--embeddings", corpus["embeddings"], "--method", method,
                     "--config", str(config_path), "--seed", str(SEED),
                     "--model-out", str(model), "--confusion-out", str(confusion)])
    assert code == 0

    clean = read_conll(corpus["train"], tag_set=TagSet())
    distant = read_conll(corpus["distant"], tag_set=TagSet(), provenance="distant")
    table = tagger.EmbeddingTable.load(corpus["embeddings"])
    want, want_channel = _reference(method, extra, clean, distant, table)
    got, tag_set = tagger.load_checkpoint(model)
    assert tag_set == clean.tag_set
    for (name, g), (_, w) in zip(got.arrays(), want.arrays()):
        assert g.tobytes() == w.tobytes(), name
    if method in ("confusion", "noise-channel"):
        assert np.array_equal(noise.load_confusion(confusion).matrix, want_channel.matrix)
    else:
        assert not confusion.exists()


@pytest.mark.parametrize("doc, message", [
    ({"hidden_sise": 4}, "unknown config keys: ['hidden_sise']"),
    ({"noise_channel_data": "both"}, "noise_channel_data must be"),
    ({"em_iterations": 0}, "em_iterations must be >= 1"),
    ({"cleaner_epochs": 0}, "cleaner_epochs must be >= 1"),
    ({"cell": "lstm"}, "unknown config keys: ['cell']"),
], ids=["unknown-key", "bad-value", "no-em-iterations", "no-cleaner-epochs", "cell-key"])
def test_train_rejects_bad_config_naming_the_file(corpus, tmp_path, capsys, doc, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["train", "--clean", corpus["train"], "--embeddings", corpus["embeddings"],
                     "--config", str(config_path), "--model-out", str(tmp_path / "m.npz")])
    err = capsys.readouterr().err
    assert code == 1
    assert str(config_path) in err and message in err
    assert not (tmp_path / "m.npz").exists()


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


def test_importing_the_cli_does_not_load_requests():
    # a fresh interpreter: this one may have loaded requests for other tests
    src = os.path.dirname(os.path.dirname(wsner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wsner.cli; print('requests' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
