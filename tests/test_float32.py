"""Training precision: from ``tagger._FLOAT32_WEIGHTS`` weight floats per
LSTM direction every training path computes in float32, below it in
float64; checkpoints and tagging keep the dtype a model has."""

import hashlib
import math

import numpy as np
import pytest

from wsner import cli, experiment, noise, tagger
from wsner.corpus import TagSet, read_conll
from wsner.errors import ParseError
from wsner.tagger import (EmbeddingTable, TaggerConfig, TrainItem,
                          _item_loss_grads, embedded, init_params, load_checkpoint, predict,
                          save_checkpoint, train)

from conftest import make_dataset, make_sentence, write_tiny_sweep
from support import nan_workspace, paper_shape_model, use_threads

EPS32 = float(np.finfo(np.float32).eps)


def test_the_rule_reads_the_shape_alone():
    # the paper shape trains in float32, the synthetic one in float64, on any host
    rng = np.random.default_rng(0)
    paper = tagger._training_params(init_params(rng, "lstm", 300, 300, 128, 5))
    synthetic = init_params(rng, "lstm", 12, 16, 16, 5)
    assert paper.dtype == np.float32
    assert all(arr.dtype == np.float32 for _, arr in paper.arrays())
    assert tagger._training_params(synthetic) is synthetic
    assert tagger._direction_weights(12, 16) < tagger._FLOAT32_WEIGHTS
    assert tagger._direction_weights(300, 300) >= tagger._FLOAT32_WEIGHTS


def _dtypes(value) -> set:
    """The dtypes of every array in *value*, an array or a nest of tuples."""
    if isinstance(value, np.ndarray):
        return {value.dtype}
    return set().union(*map(_dtypes, value)) if isinstance(value, (tuple, list)) else set()


@pytest.fixture
def float32_spies(monkeypatch):
    """Train in float32 at every shape, and record the dtypes of every LSTM
    kernel's inputs and outputs and of every gradient workspace."""
    monkeypatch.setattr(tagger, "_FLOAT32_WEIGHTS", 1)
    seen = {"forward": set(), "backward": set(), "workspace": set()}
    forward, backward, sentence_backward = (tagger._lstm_forward, tagger._lstm_backward,
                                            tagger._sentence_backward)

    def spy_forward(w, u, b, X):
        out = forward(w, u, b, X)
        seen["forward"] |= _dtypes((w, u, b, X, out))
        return out

    def spy_backward(u, cache, dHs, *, out):
        result = backward(u, cache, dHs, out=out)
        seen["backward"] |= _dtypes((u, cache, dHs, out, result))
        return result

    def spy_sentence_backward(params, cache, dlogits, grads, **kwargs):
        seen["workspace"] |= _dtypes(tuple(arr for _, arr in grads.arrays()))
        return sentence_backward(params, cache, dlogits, grads, **kwargs)

    monkeypatch.setattr(tagger, "_lstm_forward", spy_forward)
    monkeypatch.setattr(tagger, "_lstm_backward", spy_backward)
    monkeypatch.setattr(tagger, "_sentence_backward", spy_sentence_backward)
    return seen


def _fit_all(root) -> dict[str, tuple[str, set]]:
    """Per method, the sha256 of what ``noise.fit`` returns on the tiny
    sweep's corpus and settings, and the dtypes of the trained parameters."""
    paths = write_tiny_sweep(root)
    sweep = experiment.load_config(paths["config"])
    tag_set = TagSet(sweep.entity_types)
    clean = read_conll(paths["train"], tag_set=tag_set)
    distant = read_conll(paths["distant"], tag_set=tag_set, provenance="distant")
    table = EmbeddingTable.load(paths["embeddings"])
    out = {}
    for method in noise.METHODS:
        params, channel = noise.fit(method, clean, distant, sweep.tagger, table, sweep.options)
        digest = hashlib.sha256(b"".join(arr.tobytes() for _, arr in params.arrays()))
        if channel is not None:
            digest.update(channel.matrix.tobytes())
        out[method] = digest.hexdigest(), {arr.dtype for _, arr in params.arrays()}
    return out


def test_every_method_trains_in_float32_above_the_threshold(tmp_path, monkeypatch,
                                                             float32_spies):
    # every training pass, the EM E-step and the cleaner's feature passes
    runs = []
    for name, on in (("first", False), ("again", False), ("threads", True)):
        use_threads(monkeypatch, on)
        runs.append(_fit_all(tmp_path / name))
    assert float32_spies == {"forward": {np.dtype(np.float32)},
                             "backward": {np.dtype(np.float32)},
                             "workspace": {np.dtype(np.float32)}}
    assert all(dtypes == {np.dtype(np.float32)} for _, dtypes in runs[0].values())
    # the same seed gives the same bytes, on one thread or two
    assert runs[0] == runs[1] == runs[2]


def test_float32_and_float64_gradients_agree_at_paper_shape():
    # One 20-token sentence through the paper-shape tagger, in float64 and
    # with its parameters and inputs cast to float32. Each float32 gradient
    # sums products over at most d + h = 600 terms per step; the rounding
    # error of such a sum grows like sqrt(n) * eps (Higham's probabilistic
    # bound), so every gradient array, and the loss, must agree with the
    # float64 one to sqrt(600) * eps32, about 2.9e-6, in relative norm.
    # Measured with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64: 1-5 eps32.
    tolerance = math.sqrt(300 + 300) * EPS32
    params, table = paper_shape_model()
    single = tagger._training_params(params)
    assert single.dtype == np.float32
    rng = np.random.default_rng(5)
    rows = rng.integers(0, len(table), size=20)
    item = TrainItem(rows, hard=rng.integers(0, 3, size=20))
    loss64, grads64, _ = _item_loss_grads(params, embedded(table, rows, np.float64), item,
                                          grads=nan_workspace(params))
    loss32, grads32, _ = _item_loss_grads(single, embedded(table, rows, np.float32), item,
                                          grads=nan_workspace(single))
    assert abs(loss32 - loss64) <= tolerance * abs(loss64)
    for (name, g32), (_, g64) in zip(grads32.arrays(), grads64.arrays()):
        assert g32.dtype == np.float32, name
        error = np.linalg.norm(g32.astype(np.float64) - g64) / np.linalg.norm(g64)
        assert error <= tolerance, name


def _tagging_model(monkeypatch, float32: bool):
    ds = make_dataset([make_sentence(("w1", "w2", "oov")), make_sentence(("w3",)),
                       make_sentence(("w2", "w1", "w4", "w5"))], TagSet(("PER", "LOC")))
    table = EmbeddingTable({f"w{i}": i for i in range(6)},
                           np.random.default_rng(3).normal(size=(6, 8)))
    monkeypatch.setattr(tagger, "_FLOAT32_WEIGHTS", 1 if float32 else math.inf)
    config = TaggerConfig(hidden_size=6, feature_size=5, learning_rate=0.1, epochs=2)
    return ds, table, train(ds, config, table)


@pytest.mark.parametrize("float32", [False, True])
def test_predict_tags_in_the_parameters_dtype(monkeypatch, float32):
    ds, table, params = _tagging_model(monkeypatch, float32)
    want = np.float32 if float32 else np.float64
    assert params.dtype == want
    seen = set()
    batch = tagger._batch_direction

    def spy(w, u, b, proj, table, rows, pos, offs, bounds, buffers, out):
        seen.update(_dtypes((w, u, b, proj, buffers, out)))
        return batch(w, u, b, proj, table, rows, pos, offs, bounds, buffers, out)

    monkeypatch.setattr(tagger, "_batch_direction", spy)
    predict(ds, params, table)
    assert seen == {np.dtype(want)}


@pytest.mark.parametrize("float32", [False, True])
def test_checkpoint_round_trip_keeps_the_dtype(tmp_path, monkeypatch, capsys, float32):
    ds, table, params = _tagging_model(monkeypatch, float32)
    path = tmp_path / "model.npz"
    save_checkpoint(path, params, ds.tag_set)
    loaded, tag_set = load_checkpoint(path)
    assert tag_set == ds.tag_set and loaded.dtype == params.dtype
    for (name, x), (_, y) in zip(params.arrays(), loaded.arrays()):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert predict(ds, loaded, table).sentences == predict(ds, params, table).sentences
    assert cli.main(["inspect", "--model", str(path)]) == 0
    assert f"dtype: {params.dtype}\n" in capsys.readouterr().out


@pytest.mark.parametrize("name, dtype, message", [
    ("u_f", np.float32, "parameter u_f has dtype float32 but w_in_f has float64; "
                        "a checkpoint holds one dtype"),
    ("w_in_f", np.float32, "parameter u_f has dtype float64 but w_in_f has float32; "
                           "a checkpoint holds one dtype"),
    ("b_out", np.int64, "parameter b_out has dtype int64; a checkpoint holds float32 or "
                        "float64 parameters"),
    ("w_out", np.float16, "parameter w_out has dtype float16; a checkpoint holds float32 or "
                          "float64 parameters"),
])
def test_checkpoint_of_another_or_a_mixed_dtype_is_refused(tmp_path, capsys, name, dtype,
                                                           message):
    params = init_params(np.random.default_rng(12), "lstm", 3, 2, 3, 3)
    setattr(params, name, getattr(params, name).astype(dtype))
    path = tmp_path / "model.npz"
    save_checkpoint(path, params, TagSet(("PER", "LOC")))
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"
    assert cli.main(["inspect", "--model", str(path)]) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err
