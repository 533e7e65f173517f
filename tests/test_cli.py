"""``wsner train`` runs each method through ``noise.fit``: its checkpoint and
channel equal those of the method's training function called directly."""

import json

import numpy as np
import pytest

from wsner import cli, noise, tagger
from wsner.corpus import Dataset, TagSet, merge, read_conll

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
    assert tag_set == clean.tag_set and got.cell == want.cell
    for (name, g), (_, w) in zip(got.arrays(), want.arrays()):
        assert g.tobytes() == w.tobytes(), name
    if method in ("confusion", "noise-channel"):
        assert np.array_equal(noise.load_confusion(confusion).matrix, want_channel.matrix)
    else:
        assert not confusion.exists()


@pytest.mark.parametrize("doc, message", [
    ({"hidden_sise": 4}, "unknown config keys: ['hidden_sise']"),
    ({"noise_channel_data": "both"}, "noise_channel_data must be"),
], ids=["unknown-key", "bad-value"])
def test_train_rejects_bad_config_naming_the_file(corpus, tmp_path, capsys, doc, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["train", "--clean", corpus["train"], "--embeddings", corpus["embeddings"],
                     "--config", str(config_path), "--model-out", str(tmp_path / "m.npz")])
    err = capsys.readouterr().err
    assert code == 1
    assert str(config_path) in err and message in err
    assert not (tmp_path / "m.npz").exists()
