import ctypes
import dataclasses
import gc
import json
import math
import os
import pickle
import struct
import sys
import tempfile
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsner.corpus import (Dataset, EntitySpan, LabeledSentence, TagSet, io_to_spans,
                          read_conll)
from wsner import cli, tagger
from wsner.errors import NumericsError, ParseError, SchemaError
from wsner.make_synth import write_synth_corpus
from wsner.tagger import (
    EmbeddingTable,
    TaggerConfig,
    TaggerParams,
    TrainItem,
    _batch_width,
    _forward_batched,
    _inference_batches,
    _item_loss_grads,
    _lstm_backward,
    _lstm_forward,
    _sentence_backward,
    _sentence_forward,
    _sgd_step,
    channel_posterior,
    init_params,
    load_checkpoint,
    make_items,
    predict,
    save_checkpoint,
    train,
)

from conftest import make_dataset, make_sentence, random_sentences
from gradcheck import finite_difference, max_relative_error
from support import (blas_thread_count, forward, frozen_init_params, nan_workspace,
                     paper_shape_model, run_python, sentence_probs, stacked_table,
                     token_accuracy, use_threads)


# ---------------------------------------------------------------------------
# embeddings


def test_load_embeddings(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 3\nfoo 1.0 2.0 3.0\nbar 0.0 1.0 0.5\n", encoding="utf-8")
    table = EmbeddingTable.load(path)
    assert len(table) == 2 and table.dimension == 3
    assert np.array_equal(table.embed_rows(table.row_indices(["foo"]))[0], [1.0, 2.0, 3.0])


def test_unknown_token_gets_mean_vector(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 2\na 1.0 3.0\nb 3.0 5.0\n", encoding="utf-8")
    table = EmbeddingTable.load(path)
    # independent mean computation
    expected = np.array([(1.0 + 3.0) / 2, (3.0 + 5.0) / 2])
    assert np.abs(table.embed_rows(table.row_indices(["zzz"]))[0] - expected).max() < 1e-12


def test_unk_is_mean_of_rows_large(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 6))
    lines = ["40 6"]
    for i, row in enumerate(rows):
        lines.append("w%d %s" % (i, " ".join(repr(float(v)) for v in row)))
    path = tmp_path / "vec.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = EmbeddingTable.load(path)
    manual = np.zeros(6)
    for row in rows:
        manual += row
    manual /= 40
    assert np.abs(table.unk - manual).max() < 1e-12


def test_load_embeddings_errors(tmp_path):
    bad_header = tmp_path / "h.txt"
    bad_header.write_text("notanumber\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":1"):
        EmbeddingTable.load(bad_header)

    bad_row = tmp_path / "r.txt"
    bad_row.write_text("1 3\nfoo 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2"):
        EmbeddingTable.load(bad_row)

    short = tmp_path / "s.txt"
    short.write_text("2 2\nfoo 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="header announced"):
        EmbeddingTable.load(short)

    # a header no file of this size can hold is refused before allocating
    huge = tmp_path / "g.txt"
    huge.write_text("2000 300\nfoo" + " 0.5" * 300 + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"g\.txt:1: header announces 2000 vectors of "
                                         r"dimension 300, more than the file's 1213 bytes"):
        EmbeddingTable.load(huge)

    # a text that fails to parse leaves no cache behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "h.txt", "r.txt", "s.txt"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_vector_value_is_a_parse_error(tmp_path, value):
    path = tmp_path / "vec.txt"
    path.write_text(f"3 2\na 1.0 2.0\n\nb 0.5 {value}\nc 1.0 1.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"vec\.txt:4: non-finite vector value"):
        EmbeddingTable.load(path)
    assert [p.name for p in tmp_path.iterdir()] == ["vec.txt"]


def test_header_beyond_memory_is_a_parse_error(tmp_path, monkeypatch):
    path = tmp_path / "vec.txt"
    path.write_text("2 1\na 1.0\nb 2.0\n", encoding="utf-8")

    def no_memory(shape, dtype=float):
        raise MemoryError(f"Unable to allocate an array with shape {shape}")

    monkeypatch.setattr(tagger.np, "empty", no_memory)
    with pytest.raises(ParseError, match=r"vec\.txt:1: header announces 2 vectors"):
        EmbeddingTable.load(path)


def test_load_fasttext_vec_file(tmp_path):
    # fastText writes a space after every value, the last one included
    path = tmp_path / "cc.yo.vec"
    path.write_text("3 2\nọmọ 0.5 -1.0 \nAdéwálé 2.0 0.25 \nẹ̀kọ́ 1 1 \n", encoding="utf-8")
    table = EmbeddingTable.load(path)
    assert list(table.vocab.items()) == [("ọmọ", 0), ("Adéwálé", 1), ("ẹ̀kọ́", 2)]
    assert table.matrix.tolist() == [[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]]


@pytest.mark.parametrize("row, fields", [
    ("ẹ̀kọ́ 1 \n", 2), ("ẹ̀kọ́ 1 1 1 \n", 4), ("ẹ̀kọ́ 1 1  \n", 4), ("ẹ̀kọ́ 1  1\n", 4),
], ids=["missing-value", "extra-value", "two-trailing-spaces", "double-space"])
def test_fasttext_row_of_another_width_fails_naming_the_line(tmp_path, row, fields):
    path = tmp_path / "cc.yo.vec"
    path.write_text("2 2\nọmọ 0.5 -1.0 \n" + row, encoding="utf-8")
    with pytest.raises(ParseError, match=f"cc\\.yo\\.vec:3: expected 3 fields, got {fields}"):
        EmbeddingTable.load(path)


def test_duplicate_tokens_keep_first(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 1\nfoo 1.0\nfoo 2.0\n", encoding="utf-8")
    table = EmbeddingTable.load(path)
    assert len(table) == 2  # both rows kept
    assert table.embed_rows(table.row_indices(["foo"]))[0, 0] == 1.0


# ---------------------------------------------------------------------------
# embeddings cache

YO_VECTORS = "3 2\nọmọ 0.5 -1.0\nadé 2.0 0.25\nọmọ 1.0 1.0\n"


def yo_table():
    return EmbeddingTable({"ọmọ": 0, "adé": 1}, [[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]])


def assert_same_table(got, want):
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert list(got.vocab.items()) == list(want.vocab.items())
    assert got.unk.tobytes() == want.unk.tobytes()


def _cache(path):
    return f"{path}{tagger.CACHE_SUFFIX}"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_warm_load_equals_cold_load_and_the_parse(data):
    dim = data.draw(st.integers(1, 4), label="dim")
    rows = data.draw(st.lists(st.tuples(
        st.text(st.sampled_from("aAọẹṣéè\u0301-"), max_size=2),  # repeats; empty tokens too
        st.lists(st.floats(-1e300, 1e300), min_size=dim, max_size=dim),
        st.booleans(),  # a blank line before the row
        st.booleans(),  # fastText's trailing space
    ), min_size=1, max_size=8), label="rows")
    lines = [f"{len(rows)} {dim}"]
    for token, values, blank, trailing in rows:
        lines += [""] * blank + [" ".join([token] + [repr(v) for v in values]) + " " * trailing]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "vec.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        parsed = EmbeddingTable(*tagger._parse_vectors(path))
        cold = EmbeddingTable.load(path)
        assert os.path.isfile(_cache(path))
        with mock.patch.object(tagger, "_parse_vectors", side_effect=AssertionError("parsed")):
            warm = EmbeddingTable.load(path)
    assert_same_table(cold, parsed)
    assert_same_table(warm, cold)
    assert list(warm.vocab) == list(dict.fromkeys(token for token, *_ in rows))


def test_cache_is_written_with_umask_permissions(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text(YO_VECTORS, encoding="utf-8")
    umask = os.umask(0o022)
    try:
        EmbeddingTable.load(path)
    finally:
        os.umask(umask)
    assert os.stat(_cache(path)).st_mode & 0o777 == 0o644


def test_cache_is_keyed_by_content_not_size_or_mtime(tmp_path, parse_calls):
    path = tmp_path / "vec.txt"
    path.write_text(YO_VECTORS, encoding="utf-8")
    EmbeddingTable.load(path)
    before = path.stat()
    path.write_text(YO_VECTORS.replace("0.25", "0.75"), encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)

    table = EmbeddingTable.load(path)
    assert table.matrix[1].tolist() == [2.0, 0.75]
    assert len(parse_calls) == 2
    # the stale cache was replaced
    assert_same_table(EmbeddingTable.load(path), table)
    assert len(parse_calls) == 2


def test_file_edited_during_a_load_is_not_cached(tmp_path, monkeypatch):
    path = tmp_path / "vec.txt"
    path.write_text(YO_VECTORS, encoding="utf-8")
    parse = tagger._parse_vectors

    def edit_then_parse(p):
        # after the load hashed the first text
        path.write_text(YO_VECTORS.replace("0.25", "0.75"), encoding="utf-8")
        st = path.stat()
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        return parse(p)

    monkeypatch.setattr(tagger, "_parse_vectors", edit_then_parse)
    assert EmbeddingTable.load(path).matrix[1].tolist() == [2.0, 0.75]
    assert [p.name for p in tmp_path.iterdir()] == ["vec.txt"]


def _truncate(cache):
    with open(cache, "rb") as fh:
        data = fh.read()
    with open(cache, "wb") as fh:
        fh.write(data[: len(data) // 2])


def _garble(cache):
    with open(cache, "wb") as fh:
        fh.write(b"not an archive\n")


def _rewrite(change):
    """A spoil that rewrites the cache with *change* applied to its dict of
    arrays; the archive still opens."""
    def spoil(cache):
        with np.load(cache) as npz:
            arrays = dict(npz)
        change(arrays)
        with open(cache, "wb") as fh:
            np.savez(fh, **arrays)
    return spoil


def _plain_array(cache):
    with open(cache, "wb") as fh:
        np.save(fh, np.zeros(3))


# the last four keep the cache's digest and version, and hold a table that
# fails EmbeddingTable's own checks
@pytest.mark.parametrize("spoil", [
    _truncate, _garble, _rewrite(lambda a: a.update(version=a["version"] + 1)),
    _rewrite(lambda a: a.update(rows=a["rows"][:-1])), _plain_array, os.remove,
    _rewrite(lambda a: a["matrix"].__setitem__((0, 0), np.nan)),
    _rewrite(lambda a: a["rows"].__setitem__(-1, len(a["matrix"]))),
    _rewrite(lambda a: a.update(matrix=a["matrix"].ravel())),
    _rewrite(lambda a: a.update(tokens=np.append(a["tokens"], np.uint8(0xFF))))],
    ids=["truncated", "garbage", "other-version", "unpaired-rows", "npy-not-npz", "missing",
         "nan-in-matrix", "row-past-the-end", "1-d-matrix", "tokens-not-utf8"])
def test_bad_cache_is_reparsed_and_replaced(tmp_path, parse_calls, spoil):
    path = tmp_path / "vec.txt"
    path.write_text(YO_VECTORS, encoding="utf-8")
    EmbeddingTable.load(path)
    spoil(_cache(path))
    assert_same_table(EmbeddingTable.load(path), yo_table())
    assert len(parse_calls) == 2
    assert_same_table(EmbeddingTable.load(path), yo_table())
    assert len(parse_calls) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vec.txt", "vec.txt.wsner.npz"]


@pytest.mark.parametrize("owner, name", [(np, "savez"), (os, "replace")],
                         ids=["write", "rename"])
def test_failed_cache_write_still_loads_the_table(tmp_path, monkeypatch, owner, name):
    # monkeypatched, since root writes to read-only directories anyway
    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    path = tmp_path / "vec.txt"
    path.write_text(YO_VECTORS, encoding="utf-8")
    monkeypatch.setattr(owner, name, no_space)
    assert_same_table(EmbeddingTable.load(path), yo_table())
    assert [p.name for p in tmp_path.iterdir()] == ["vec.txt"]


def test_cached_load_peaks_below_one_and_a_half_matrices(tmp_path, parse_calls):
    # the table keeps the array the cache is read into, rather than a copy
    rows, dim = 3000, 300
    values = np.random.default_rng(6).integers(-99, 100, size=(rows, dim)) / 100
    path = tmp_path / "vec.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rows} {dim}\n")
        for i, row in enumerate(values):
            fh.write(f"w{i} " + " ".join(map(str, row.tolist())) + "\n")
    EmbeddingTable.load(path)
    tracemalloc.start()
    try:
        table = EmbeddingTable.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parse_calls == [str(path)]
    assert np.array_equal(table.matrix, values)
    assert peak < 1.5 * table.matrix.nbytes, peak / table.matrix.nbytes


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_parsed_and_not_cached(tmp_path):
    path = tmp_path / "vec.fifo"
    os.mkfifo(path)
    loaded = []
    threads = [threading.Thread(target=path.write_text, args=(YO_VECTORS,),
                                kwargs={"encoding": "utf-8"}, daemon=True),
               threading.Thread(target=lambda: loaded.append(EmbeddingTable.load(path)),
                                daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert_same_table(loaded[0], yo_table())
    assert [p.name for p in tmp_path.iterdir()] == ["vec.fifo"]


# ---------------------------------------------------------------------------
# forward


def _zeros_like(params: TaggerParams) -> TaggerParams:
    return TaggerParams(*(np.zeros_like(arr) for _, arr in params.arrays()))


def _copy(params: TaggerParams) -> TaggerParams:
    return TaggerParams(*(arr.copy() for _, arr in params.arrays()))


def test_zero_params_give_uniform(tiny_table):
    ts = TagSet(("PER", "LOC"))
    params = init_params(np.random.default_rng(0), "lstm", 4, 3, 4, ts.size)
    zero = _zeros_like(params)
    probs = forward(["w0", "w1"], zero, tiny_table)
    assert np.abs(probs - 1.0 / ts.size).max() < 1e-15


@pytest.mark.parametrize("shape", [(3, 2, 3, 3), (12, 16, 16, 5), (300, 300, 128, 5)])
def test_init_params_draws_as_the_frozen_explicit_draws(shape):
    # the bundled runs.csv and every benchmark digest start from these bits
    got = init_params(np.random.default_rng(17), "lstm", *shape)
    want = frozen_init_params(np.random.default_rng(17), *shape)
    for (name, g), (_, w) in zip(got.arrays(), want.arrays()):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


def test_init_params_refuses_any_cell_but_the_lstm():
    with pytest.raises(ValueError, match="unknown cell 'gru'"):
        init_params(np.random.default_rng(0), "gru", 4, 3, 4, 5)


def test_rows_sum_to_one(tiny_table):
    params = init_params(np.random.default_rng(1), "lstm", 4, 5, 6, 5)
    probs = forward(["w0", "w1", "w2", "zzz"], params, tiny_table)
    assert probs.shape == (4, 5)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert (probs >= 0).all()


def _scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def test_hand_computed_tiny_forward():
    # d=2, h=1, L=2, f=2, single token: every gate is a scalar
    x = np.array([0.3, -0.4])
    table = EmbeddingTable({"tok": 0}, x[None, :])
    w_in_f = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6], [0.7, 0.8]])
    w_in_b = np.array([[-0.2, 0.3], [0.4, 0.1], [-0.5, 0.2], [0.6, -0.7]])
    u = np.array([[0.9], [-0.8], [0.7], [-0.6]])
    b_f = np.array([0.05, -0.1, 0.15, 0.2])
    b_b = np.array([-0.05, 0.1, -0.15, 0.25])
    w_feat = np.array([[0.2, -0.1], [0.3, 0.4]])
    b_feat = np.array([0.01, -0.02])
    w_out = np.array([[0.5, -0.5], [0.25, 0.75]])
    b_out = np.array([0.1, -0.1])
    params = TaggerParams(w_in_f, u.copy(), b_f, w_in_b, u.copy(), b_b,
                          w_feat, b_feat, w_out, b_out)

    def lstm_scalar(w_in, bias):
        z = [w_in[k] @ x + bias[k] for k in range(4)]  # h_prev = 0
        i, f = _scalar_sigmoid(z[0]), _scalar_sigmoid(z[1])
        g, o = math.tanh(z[2]), _scalar_sigmoid(z[3])
        c = i * g  # c_prev = 0
        return o * math.tanh(c)

    h_f = lstm_scalar(w_in_f, b_f)
    h_b = lstm_scalar(w_in_b, b_b)
    feat = [w_feat[0][0] * h_f + w_feat[0][1] * h_b + b_feat[0],
            w_feat[1][0] * h_f + w_feat[1][1] * h_b + b_feat[1]]
    logits = [w_out[0][0] * feat[0] + w_out[0][1] * feat[1] + b_out[0],
              w_out[1][0] * feat[0] + w_out[1][1] * feat[1] + b_out[1]]
    exps = [math.exp(v - max(logits)) for v in logits]
    expected = np.array([e / sum(exps) for e in exps])

    probs = forward(["tok"], params, table)
    assert np.abs(probs[0] - expected).max() < 1e-12


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_lstm(w, u, b, X):
    """Step-by-step LSTM from zero state; rows of w, u, b are the gates
    [i, f, g, o] in that order."""
    h = u.shape[1]
    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    states = []
    for x in X:
        z = w @ x + u @ h_prev + b
        i = _stable_sigmoid(z[:h])
        f = _stable_sigmoid(z[h:2 * h])
        g = np.tanh(z[2 * h:3 * h])
        o = _stable_sigmoid(z[3 * h:])
        c_prev = f * c_prev + i * g
        h_prev = o * np.tanh(c_prev)
        states.append(h_prev)
    return np.array(states)


def test_sentence_forward_matches_per_step_reference():
    rng = np.random.default_rng(21)
    shapes = [(1, 1), (1, 4), (12, 1), (12, 5), (17, 3)]
    shapes += [(int(rng.integers(1, 20)), int(rng.integers(1, 8))) for _ in range(5)]
    for T, h in shapes:
        d = int(rng.integers(1, 6))
        params = init_params(rng, "lstm", d, h, int(rng.integers(2, 5)), 3)
        params.b_f[:] = rng.normal(size=4 * h)
        params.b_b[:] = rng.normal(size=4 * h)
        X = 2.0 * rng.normal(size=(T, d))
        H = np.concatenate([
            _reference_lstm(params.w_in_f, params.u_f, params.b_f, X),
            _reference_lstm(params.w_in_b, params.u_b, params.b_b, X[::-1])[::-1],
        ], axis=1)
        logits = (H @ params.w_feat.T + params.b_feat) @ params.w_out.T + params.b_out
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs, cache = _sentence_forward(params, X)
        assert np.abs(cache[2] - H).max() < 1e-12, (T, h)
        assert np.abs(probs - e / e.sum(axis=1, keepdims=True)).max() < 1e-12, (T, h)


def test_saturated_gates_stay_finite_without_float_errors():
    rng = np.random.default_rng(4)
    T, d, h = 6, 3, 4
    w = 0.1 * rng.normal(size=(4 * h, d))
    u = 0.1 * rng.normal(size=(4 * h, h))
    b = 1e3 * rng.choice([-1.0, 1.0], size=4 * h)
    X = rng.normal(size=(T, d))
    with np.errstate(all="raise"):
        Hs, cache = _lstm_forward(w, u, b, X)
        grads = _lstm_backward(u, cache, rng.normal(size=(T, h)), out=_nan_out(w, u, b))
    gates = cache[1]
    assert np.isfinite(gates).all() and np.isfinite(Hs).all()
    sigmoid_gates = np.delete(gates.reshape(T, 4, h), 2, axis=1)
    assert ((sigmoid_gates >= 0.0) & (sigmoid_gates <= 1.0)).all()
    assert (np.abs(gates.reshape(T, 4, h)[:, 2]) <= 1.0).all()
    assert all(np.isfinite(g).all() for g in grads)


# The LSTM kernels as they were before their time loops were rewritten to
# reuse buffers and per-gate views; the rewrite must give the same bits.
_FROZEN_SCALE = np.array([[0.5], [0.5], [1.0], [0.5]])
_FROZEN_SHIFT = np.array([[0.5], [0.5], [0.0], [0.5]])


def _frozen_lstm_forward(w, u, b, X):
    T = X.shape[0]
    h = u.shape[1]
    A = X @ w.T
    A += b
    gates = A.reshape(T, 4, h)
    Cs = np.empty((T, h))
    TC = np.empty((T, h))
    Hs = np.empty((T, h))
    c_prev = np.zeros(h)
    for t in range(T):
        if t:
            A[t] += u @ h_prev
        a = gates[t]
        a *= _FROZEN_SCALE
        np.tanh(a, out=a)
        a *= _FROZEN_SCALE
        a += _FROZEN_SHIFT
        i, f, g, o = a
        c, tc, h_prev = Cs[t], TC[t], Hs[t]
        np.multiply(f, c_prev, out=c)
        c += i * g
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_prev)
        c_prev = c
    return Hs, (X, A, Cs, TC, Hs)


def _frozen_lstm_backward(w, u, cache, dHs):
    X, A, Cs, TC, Hs = cache
    T, h = Hs.shape
    I, F, G, O = A.reshape(T, 4, h).transpose(1, 0, 2)
    C_prev = np.zeros((T, h))
    C_prev[1:] = Cs[:-1]
    DC = np.stack([G * I * (1.0 - I), C_prev * F * (1.0 - F),
                   I * (1.0 - G * G), np.zeros((T, h))], axis=1)
    DO = TC * O * (1.0 - O)
    OT = O * (1.0 - TC * TC)
    dA = np.empty((T, 4 * h))
    dA_gates = dA.reshape(T, 4, h)
    dh = dHs[T - 1]
    dc = dh * OT[T - 1]
    for t in range(T - 1, -1, -1):
        np.multiply(DC[t], dc, out=dA_gates[t])
        np.multiply(dh, DO[t], out=dA_gates[t, 3])
        if t:
            dh = dA[t] @ u
            dh += dHs[t - 1]
            dc *= F[t]
            dc += dh * OT[t - 1]
    return dA.T @ X, dA[1:].T @ Hs[:-1], dA.sum(axis=0)


def _nan_out(w, u, b):
    """NaN-filled ``(dW, dU, db)`` for ``_lstm_backward(out=)``."""
    return tuple(np.full_like(arr, np.nan) for arr in (w, u, b))


def _same_bits(a, b):
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_lstm_kernels_are_bitwise_the_frozen_kernels():
    rng = np.random.default_rng(50)
    shapes = [(1, 1, 1), (1, 4, 3), (9, 2, 1), (2, 1, 5), (20, 300, 300), (1, 300, 300)]
    shapes += [tuple(int(n) for n in rng.integers(1, 25, size=3)) for _ in range(30)]
    for T, d, h in shapes:
        for scale in (0.1, 1.0, 10.0):
            w, u = scale * rng.normal(size=(4 * h, d)), scale * rng.normal(size=(4 * h, h))
            b, X = scale * rng.normal(size=4 * h), scale * rng.normal(size=(T, d))
            Hs, cache = _lstm_forward(w, u, b, X)
            want_Hs, want_cache = _frozen_lstm_forward(w, u, b, X)
            assert _same_bits(Hs, want_Hs), (T, d, h, scale)
            assert all(_same_bits(*pair) for pair in zip(cache, want_cache)), (T, d, h, scale)
            # contiguous and reversed (as _sentence_backward passes them) gradients
            dH = scale * rng.normal(size=(T, 2 * h))
            for dHs in (dH[:, :h], dH[::-1, h:]):
                before = dHs.copy()
                grads = _lstm_backward(u, cache, dHs, out=_nan_out(w, u, b))
                want = _frozen_lstm_backward(w, u, want_cache, dHs)
                assert len(grads) == 3
                assert all(_same_bits(*pair) for pair in zip(grads, want)), (T, d, h, scale)
                assert _same_bits(dHs, before)


def test_vocab_permutation_invariance(tiny_table):
    params = init_params(np.random.default_rng(2), "lstm", 4, 3, 4, 5)
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(tiny_table))
    permuted = EmbeddingTable(
        {tok: int(np.where(perm == row)[0][0]) for tok, row in tiny_table.vocab.items()},
        tiny_table.matrix[perm],
    )
    tokens = ["w0", "w3", "w7"]
    assert np.array_equal(forward(tokens, params, tiny_table),
                          forward(tokens, params, permuted))


# ---------------------------------------------------------------------------
# loss and gradient


def _random_model(rng, cell="lstm"):
    d = int(rng.integers(2, 4))
    h = int(rng.integers(1, 3))
    f = int(rng.integers(2, 4))
    ts = TagSet(("PER", "LOC") if rng.random() < 0.5 else ("PER",))
    vocab = {f"w{i}": i for i in range(6)}
    table = EmbeddingTable(vocab, rng.normal(size=(6, d)))
    params = init_params(rng, cell, d, h, f, ts.size)
    sents = []
    for _ in range(int(rng.integers(1, 3))):
        n = int(rng.integers(1, 5))
        tokens = tuple(f"w{int(rng.integers(6))}" for _ in range(n))
        spans = []
        if n >= 2 and rng.random() < 0.7:
            label = ts.entity_types[int(rng.integers(len(ts.entity_types)))]
            spans.append(EntitySpan(label, 0, int(rng.integers(1, n + 1))))
        sents.append(LabeledSentence(tokens, tuple(spans)))
    return params, table, ts, sents


# The LSTM is the only cell; the "cell" parameter of the cell tests below
# keeps their test ids from when a second cell existed.
def _assert_item_gradient(params, table, item, C=None):
    """``_item_loss_grads``' parameter gradients against finite differences,
    for an item whose rows index *table*."""
    X = table.embed_rows(item.rows)
    _, grads, _ = _item_loss_grads(params, X, item, C, grads=nan_workspace(params))
    arrays = [arr for _, arr in params.arrays()]
    workspace = nan_workspace(params)
    numeric = finite_difference(
        lambda: _item_loss_grads(params, X, item, C, grads=workspace)[0], arrays)
    assert max_relative_error([arr for _, arr in grads.arrays()], numeric) < 1e-4


@pytest.mark.parametrize("cell", ["lstm"])
def test_gradient_matches_finite_differences(cell):
    rng = np.random.default_rng(0)
    for _ in range(8):
        params, table, ts, sents = _random_model(rng, cell)
        assert params.num_parameters <= 200
        for sent in sents:
            _assert_item_gradient(params, table, TrainItem(table.row_indices(sent.tokens),
                                                           hard=ts.encode(sent)))


def test_gradient_matches_finite_differences_on_two_threads(monkeypatch):
    use_threads(monkeypatch, True)
    thread = threading.Thread
    started = []
    monkeypatch.setattr(threading, "Thread",
                        lambda *a, **k: started.append(1) or thread(*a, **k))
    test_gradient_matches_finite_differences("lstm")
    # a forward and a backward pass per gradient, two forward passes per
    # finite difference
    assert len(started) > 1000


@pytest.mark.parametrize("T", [1, 12])
def test_lstm_gradient_at_sequence_ends(T):
    # T=1 leaves no recurrent term; T=12 spans both ends of the one-step
    # shift between gate gradients and previous hidden states.
    rng = np.random.default_rng(30 + T)
    params = init_params(rng, "lstm", 3, 2, 3, 3)
    params.b_f[:] = rng.normal(size=8)
    params.b_b[:] = rng.normal(size=8)
    table, (rows,) = stacked_table([rng.normal(size=(T, 3))])
    _assert_item_gradient(params, table, TrainItem(rows, hard=rng.integers(0, 3, size=T)))


def test_soft_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    params, table, ts, sents = _random_model(rng)
    for s in sents:
        w = rng.random((len(s.tokens), ts.size))
        _assert_item_gradient(params, table, TrainItem(table.row_indices(s.tokens),
                                                       soft=w / w.sum(axis=1, keepdims=True)))


def test_perfect_soft_target_gives_zero_gradient(tiny_table):
    ts = TagSet(("PER", "LOC"))
    params = init_params(np.random.default_rng(4), "lstm", 4, 2, 3, ts.size)
    rows = tiny_table.row_indices(["w0", "w1"])
    X = tiny_table.embed_rows(rows)
    probs, _ = _sentence_forward(params, X)
    loss, grads, _ = _item_loss_grads(params, X, TrainItem(rows, soft=probs),
                                      grads=nan_workspace(params))
    # cross-entropy of a distribution with itself is its entropy
    entropy = float(-(probs * np.log(probs)).sum() / len(X))
    assert loss == pytest.approx(entropy, abs=1e-12)
    for _, g in grads.arrays():
        assert np.abs(g).max() < 1e-12


def test_hard_and_channel_gradients_are_those_of_their_soft_targets():
    # a hard item trains towards its one-hot target and a channel item
    # towards its channel posterior, byte for byte in every parameter
    # gradient
    rng = np.random.default_rng(50)
    for _ in range(200):
        L, T = int(rng.integers(2, 6)), int(rng.integers(1, 30))
        params = init_params(rng, "lstm", 12, 16, 8, L)
        table, (rows,) = stacked_table([rng.normal(size=(T, 12))])
        X = table.embed_rows(rows)
        y = rng.integers(0, L, size=T)
        C = rng.dirichlet(np.ones(L), size=L)
        probs, _ = _sentence_forward(params, X)
        for item, C_arg, target in (
                (TrainItem(rows, hard=y), None, np.eye(L)[y]),
                (TrainItem(rows, hard=y, channel=True), C, channel_posterior(probs, C, y)[0])):
            _, grads, _ = _item_loss_grads(params, X, item, C_arg, grads=nan_workspace(params))
            _, want, _ = _item_loss_grads(params, X, TrainItem(rows, soft=target),
                                          grads=nan_workspace(params))
            for (name, g), (_, r) in zip(grads.arrays(), want.arrays()):
                assert g.tobytes() == r.tobytes(), (item.channel, T, name)


def _reference_sentence_backward(params, cache, dlogits):
    """Gradients accumulated into zero-filled arrays, one ``+=`` each."""
    cache_f, cache_b, H, feats = cache
    h = params.hidden_size
    grads = _zeros_like(params)
    grads.w_out += dlogits.T @ feats
    grads.b_out += dlogits.sum(axis=0)
    dfeats = dlogits @ params.w_out
    grads.w_feat += dfeats.T @ H
    grads.b_feat += dfeats.sum(axis=0)
    dH = dfeats @ params.w_feat
    dw, du, db = _lstm_backward(params.u_f, cache_f, dH[:, :h],
                                out=_nan_out(params.w_in_f, params.u_f, params.b_f))
    grads.w_in_f += dw
    grads.u_f += du
    grads.b_f += db
    dw, du, db = _lstm_backward(params.u_b, cache_b, dH[::-1, h:],
                                out=_nan_out(params.w_in_b, params.u_b, params.b_b))
    grads.w_in_b += dw
    grads.u_b += du
    grads.b_b += db
    return grads


@pytest.mark.parametrize("cell", ["lstm"])
def test_sentence_backward_is_bitwise_zero_fill_reference(cell):
    # a NaN-filled workspace shows any element left unwritten; at T=1 the
    # recurrent gradients come from a product over no steps
    rng = np.random.default_rng(40)
    for T in (1, 2, 9):
        params = init_params(rng, cell, 3, 4, 5, 3)
        X = rng.normal(size=(T, 3))
        probs, cache = _sentence_forward(params, X)
        dlogits = (probs - rng.dirichlet(np.ones(3), size=T)) / T
        workspace = nan_workspace(params)
        grads = _sentence_backward(params, cache, dlogits, workspace)
        assert grads is workspace
        ref = _reference_sentence_backward(params, cache, dlogits)
        for (name, g), (_, r) in zip(grads.arrays(), ref.arrays()):
            assert g.shape == r.shape and g.tobytes() == r.tobytes(), (T, name)
    # one workspace for a 9-token and then a 1-token sentence, as an epoch
    # reuses it: nothing of the longer sentence may leak into the shorter one
    params = init_params(rng, cell, 3, 4, 5, 3)
    workspace = nan_workspace(params)
    for T in (9, 1):
        X = rng.normal(size=(T, 3))
        probs, cache = _sentence_forward(params, X)
        dlogits = (probs - rng.dirichlet(np.ones(3), size=T)) / T
        grads = _sentence_backward(params, cache, dlogits, workspace)
        ref = _reference_sentence_backward(params, cache, dlogits)
        for (name, g), (_, r) in zip(grads.arrays(), ref.arrays()):
            assert g.tobytes() == r.tobytes(), (T, name)


def test_item_loss_grads_allocates_no_parameter_sized_array():
    # d=h=200: one (4h, d) gradient is 1.28 MB; a warm call into a reused
    # workspace must peak below that, as every SGD step of an epoch does
    rng = np.random.default_rng(42)
    params = init_params(rng, "lstm", 200, 200, 16, 3)
    table, (rows,) = stacked_table([rng.normal(size=(3, 200))])
    X = table.embed_rows(rows)
    item = TrainItem(rows, hard=np.array([0, 2, 1]))
    workspace = nan_workspace(params)
    _item_loss_grads(params, X, item, grads=workspace)
    gc.collect()
    tracemalloc.start()
    try:
        _item_loss_grads(params, X, item, grads=workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.w_in_f.nbytes, peak


def test_lstm_backward_holds_one_preactivation_gradient_array():
    # T=200, h=300: dA is 1.92 MB and the (T, 2h) slope buffer 0.96 MB; the
    # 256 KiB allow for numpy's fixed-size iterator buffers on strided views
    rng = np.random.default_rng(43)
    T, d, h = 200, 300, 300
    w, u = 0.1 * rng.normal(size=(4 * h, d)), 0.1 * rng.normal(size=(4 * h, h))
    _, cache = _lstm_forward(w, u, np.zeros(4 * h), rng.normal(size=(T, d)))
    dHs = rng.normal(size=(T, h))
    out = _nan_out(w, u, np.zeros(4 * h))
    _lstm_backward(u, cache, dHs, out=out)
    gc.collect()
    tracemalloc.start()
    try:
        _lstm_backward(u, cache, dHs, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dA_bytes = T * 4 * h * 8
    assert peak < 1.5 * dA_bytes + 256 * 1024, peak


def test_sgd_step_is_bitwise_scaled_subtraction():
    rng = np.random.default_rng(41)
    params = init_params(rng, "lstm", 3, 4, 5, 3)
    grads = _copy(params)
    for _, g in grads.arrays():
        g[...] = rng.normal(size=g.shape)
    expected = _copy(params)
    for (_, arr), (_, g) in zip(expected.arrays(), grads.arrays()):
        arr -= 0.037 * g
    _sgd_step([(arr, g) for (_, arr), (_, g) in zip(params.arrays(), grads.arrays())], 0.037)
    for (name, got), (_, want) in zip(params.arrays(), expected.arrays()):
        assert got.tobytes() == want.tobytes(), name


def _mixed_items(rng, d: int, L: int) -> tuple[EmbeddingTable, list[TrainItem]]:
    """Hard, soft and channel items of lengths 1 to 7, T=1 among them, and
    the table of random rows they index."""
    blocks, targets = [], []
    for T in (1, 4, 7, 1, 3, 6):
        blocks.append(rng.normal(size=(T, d)))
        y = rng.integers(0, L, size=T)
        targets += [dict(hard=y), dict(soft=rng.dirichlet(np.ones(L), size=T)),
                    dict(hard=y, channel=True)]
    table, block_rows = stacked_table(blocks)
    rows = [r for r in block_rows for _ in range(3)]
    return table, [TrainItem(r, **target) for r, target in zip(rows, targets)]


def _gradient_then_step_epoch(params, items, table, config, rng, B):
    """``_sgd_epoch`` as one ``_sgd_step`` per sentence over the whole
    gradient-only workspace and the channel logits' gradient."""
    grads = nan_workspace(params)
    pairs = [(arr, g) for (_, arr), (_, g) in zip(params.arrays(), grads.arrays())]
    for k in rng.permutation(len(items)):
        item = items[int(k)]
        C = tagger._softmax(B) if item.channel else None
        _, _, dC = _item_loss_grads(params, table.embed_rows(item.rows), item, C, grads=grads)
        _sgd_step(pairs if dC is None else
                  pairs + [(B, C * (dC - (dC * C).sum(axis=1, keepdims=True)))],
                  config.learning_rate)


def test_sgd_epoch_steps_each_direction_on_its_own_thread_as_one_step(monkeypatch):
    # the training path steps each parameter where its gradient is formed:
    # the same bytes as one step after the whole backward pass
    use_threads(monkeypatch, True)
    rng = np.random.default_rng(44)
    L = 3
    params = init_params(rng, "lstm", 5, 4, 6, L)
    B = rng.normal(size=(L, L))
    table, items = _mixed_items(rng, 5, L)
    config = TaggerConfig(hidden_size=4, feature_size=6, learning_rate=0.3, epochs=1)
    want, want_B = _copy(params), B.copy()
    _gradient_then_step_epoch(want, items, table, config, np.random.default_rng(1), want_B)
    steps = []

    def spy(pairs, lr):
        pairs = list(pairs)
        steps.extend((id(arr), threading.get_ident()) for arr, _ in pairs)
        _sgd_step(pairs, lr)

    monkeypatch.setattr(tagger, "_sgd_step", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tagger._sgd_epoch(params, items, table, config, np.random.default_rng(1), B)
    finally:
        sys.setswitchinterval(interval)
    for (name, got), (_, ref) in zip(params.arrays(), want.arrays()):
        assert got.tobytes() == ref.tobytes(), name
    assert B.tobytes() == want_B.tobytes()
    # every parameter once per sentence, B once per channel item; the
    # forward direction on the worker thread, all else on the calling one
    caller = threading.get_ident()
    thread_of = {name: {t for a, t in steps if a == id(arr)} for name, arr in params.arrays()}
    assert len(steps) == len(items) * len(thread_of) + len(items) // 3
    for name, threads in thread_of.items():
        if name in ("w_in_f", "u_f", "b_f"):
            assert threads and caller not in threads, name
        else:
            assert threads == {caller}, name


@pytest.mark.parametrize("on", [False, True])
def test_gradient_only_calls_change_no_parameter(on, monkeypatch):
    # the finite-difference checks evaluate gradients at fixed parameters
    use_threads(monkeypatch, on)
    rng = np.random.default_rng(45)
    params = init_params(rng, "lstm", 5, 4, 6, 3)
    before = _copy(params)
    C = tagger._softmax(rng.normal(size=(3, 3)))
    table, items = _mixed_items(rng, 5, 3)
    for item in items:
        _item_loss_grads(params, table.embed_rows(item.rows), item, C,
                         grads=nan_workspace(params))
    for (name, got), (_, ref) in zip(params.arrays(), before.arrays()):
        assert got.tobytes() == ref.tobytes(), name


# ---------------------------------------------------------------------------
# training


def _toy_corpus():
    # five sentences, word identity determines the label
    ts = TagSet(("PER", "LOC"))
    vocab = {f"w{i}": i for i in range(6)}
    table = EmbeddingTable(vocab, np.random.default_rng(11).normal(size=(6, 4)))
    label_of = {"w0": "O", "w1": "PER", "w2": "LOC", "w3": "O", "w4": "PER", "w5": "O"}
    sents = []
    seqs = [("w0", "w1", "w2"), ("w3", "w4"), ("w2", "w0"), ("w1", "w5", "w3"),
            ("w4", "w2", "w5")]
    for seq in seqs:
        tags = [label_of[w] for w in seq]
        from wsner.corpus import io_to_spans
        sents.append(LabeledSentence(seq, tuple(io_to_spans(tags, ts))))
    return Dataset(tuple(sents), ts), table


def _token_accuracy_on(ds, params, table):
    return token_accuracy(ds, predict(ds, params, table))


def _mean_token_loss(ds, params, table):
    """Hard-target cross-entropy averaged over every token of *ds*."""
    items = make_items(ds, table)
    workspace = nan_workspace(params)
    total = sum(_item_loss_grads(params, table.embed_rows(it.rows), it, grads=workspace)[0]
                * len(it.rows) for it in items)
    return total / ds.num_tokens


def test_overfits_toy_corpus_within_200_epochs():
    ds, table = _toy_corpus()
    config = TaggerConfig(hidden_size=8, feature_size=8, learning_rate=0.1,
                          epochs=200, seed=0)
    params = train(ds, config, table)
    assert _token_accuracy_on(ds, params, table) == 1.0


def test_training_is_deterministic_per_seed():
    ds, table = _toy_corpus()
    config = TaggerConfig(hidden_size=4, feature_size=4, learning_rate=0.05,
                          epochs=5, seed=3)
    a = train(ds, config, table)
    b = train(ds, config, table)
    for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("lr", [5.0, 20.0, 100.0, 1000.0])
def test_diverging_training_raises_numerics_error_before_any_numpy_warning(lr):
    # embeddings scaled by 50 saturate the softmax: some probabilities
    # round to 0 before the loss turns non-finite
    tag_set = TagSet()
    sentences = random_sentences(np.random.default_rng(0), 30, tag_set)
    vocab = {f"t{i}": i for i in range(50)}
    table = EmbeddingTable(vocab, np.random.default_rng(1).normal(size=(50, 12)) * 50)
    config = TaggerConfig(hidden_size=16, feature_size=16, learning_rate=lr, epochs=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="non-finite training loss"):
            train(Dataset(tuple(sentences), tag_set), config, table)


def test_seed_changes_parameters():
    ds, table = _toy_corpus()
    base = dict(hidden_size=4, feature_size=4, learning_rate=0.05, epochs=2)
    a = train(ds, TaggerConfig(seed=0, **base), table)
    b = train(ds, TaggerConfig(seed=1, **base), table)
    assert any(not np.array_equal(x, y)
               for (_, x), (_, y) in zip(a.arrays(), b.arrays()))


def test_epoch_losses_non_increasing_at_small_lr():
    ds, table = _toy_corpus()
    losses = []
    for epochs in range(1, 21):
        config = TaggerConfig(hidden_size=6, feature_size=6, learning_rate=0.01,
                              epochs=epochs, seed=2)
        params = train(ds, config, table)
        losses.append(_mean_token_loss(ds, params, table))
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-9)
    assert increases <= max(1, int(0.05 * len(losses)))


def test_frozen_embeddings_are_bit_identical():
    ds, table = _toy_corpus()
    before = table.matrix.copy()
    unk_before = table.unk.copy()
    config = TaggerConfig(hidden_size=4, feature_size=4, learning_rate=0.05,
                          epochs=3, seed=0)
    train(ds, config, table)
    assert np.array_equal(table.matrix, before)
    assert np.array_equal(table.unk, unk_before)


def test_the_table_refuses_writes_and_its_callers_array_does_not():
    values = np.random.default_rng(3).normal(size=(3, 2))
    table = EmbeddingTable({"a": 0, "b": 1}, values)
    # a sweep worker gets its table by pickle
    for t in (table, pickle.loads(pickle.dumps(table))):
        for write in (lambda: t.matrix.__setitem__((0, 0), 1.0),
                      lambda: t.unk.__setitem__(0, 1.0),
                      lambda: t.matrix.__iadd__(1.0)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert t.unk.tobytes() == values.mean(axis=0).tobytes()
    # the matrix is a view of the caller's array, which stays writable, and
    # a gather is a new array of the caller's
    assert table.matrix.base is values and values.flags.writeable
    assert table.embed_rows(np.array([0, -1])).flags.writeable


def test_items_hold_row_indices_not_embedded_rows():
    # about 10k tokens at d=300: embedded rows would be 2,400 bytes a token
    rng = np.random.default_rng(8)
    table = EmbeddingTable({f"t{i}": i for i in range(500)}, rng.normal(size=(500, 300)))
    ts = TagSet(("PER", "LOC"))
    ds = Dataset(tuple(random_sentences(rng, 400, ts, vocab_size=600, max_len=49)), ts)
    assert 9_000 < ds.num_tokens < 11_000
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        items = make_items(ds, table)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 64 * ds.num_tokens, held / ds.num_tokens
    for item, sent in zip(items, ds.sentences):
        assert item.rows.dtype == np.int64
        assert np.array_equal(item.rows, table.row_indices(sent.tokens))
    assert {f.name for f in dataclasses.fields(TrainItem)} == {"rows", "hard", "soft", "channel"}


# ---------------------------------------------------------------------------
# prediction


def test_uniform_output_decodes_to_no_spans(tiny_table):
    ds = make_dataset([make_sentence(("w0", "w1"))])
    params = init_params(np.random.default_rng(0), "lstm", 4, 2, 3, 5)
    zero = _zeros_like(params)
    out = predict(ds, zero, tiny_table)
    assert out.sentences[0].spans == ()


def test_overfit_model_reproduces_gold():
    ds, table = _toy_corpus()
    config = TaggerConfig(hidden_size=8, feature_size=8, learning_rate=0.1,
                          epochs=200, seed=0)
    params = train(ds, config, table)
    out = predict(ds, params, table)
    assert all(o.spans == g.spans for o, g in zip(out.sentences, ds.sentences))


def test_predict_is_pure(tiny_table):
    ds = make_dataset([make_sentence(("w0", "w1", "zzz"))])
    params = init_params(np.random.default_rng(8), "lstm", 4, 3, 4, 5)
    a = predict(ds, params, tiny_table)
    b = predict(ds, params, tiny_table)
    assert a.sentences == b.sentences
    assert a.sentences[0].provenance == "gold"


def _per_sentence_probs(dataset, params, table):
    return [_sentence_forward(params, table.embed_rows(table.row_indices(s.tokens)))[0]
            for s in dataset.sentences]


def _batch_test_model(cell, long_length):
    """Sentences of lengths 1, many equal ones, one of *long_length*, and
    OOV tokens throughout, in no particular length order."""
    rng = np.random.default_rng(50)
    ts = TagSet(("PER", "LOC"))
    table = EmbeddingTable({f"w{i}": i for i in range(8)}, rng.normal(size=(8, 3)))
    params = init_params(rng, cell, 3, 4, 5, ts.size)
    params.b_f[:] = rng.normal(size=params.b_f.shape)
    params.b_b[:] = rng.normal(size=params.b_b.shape)
    params.b_feat[:] = rng.normal(size=params.b_feat.shape)
    params.b_out[:] = rng.normal(size=ts.size)
    lengths = [3, 1, 5, 5, 5, long_length, 1, 5, 5, 2, 5, 5, 5, 1, 7, 5, 4]
    sents = [make_sentence(tuple(f"w{int(i)}" if i < 8 else f"oov{int(i)}"
                                 for i in rng.integers(0, 11, size=n)))
             for n in lengths]
    return ts, table, params, make_dataset(sents, ts)


def _use_width(monkeypatch, width):
    """Batches of *width* sentences and windows of *width* tokens at every
    hidden size; the rule's own width if *width* is None."""
    if width is not None:
        monkeypatch.setattr(tagger, "_batch_width", lambda h: width)
    return tagger._batch_width(4)  # the batch test model's h


@pytest.mark.parametrize("cell", ["lstm"])
# (sentences per batch and tokens per window, batches), or None for the
# rule's own width, one batch in one window. Batches of 3 sorted longest
# first are (long, 7, 5), (5, 5, 5) twice, (5, 5, 4), (3, 2, 1) and
# (1, 1); the active count of (3, 2, 1) drops from 3 to 2 at the start of
# its second window and from 2 to 1 within it. Batches of 5 are (long, 7,
# 5, 5, 5), (5, 5, 5, 5, 5), (5, 4, 3, 2, 1) and (1, 1); the active count
# of the first drops from 2 to 1 within a window, and that of (5, 4, 3, 2,
# 1) from 5 to 4 at the start of its second window and from 3 to 2 within
# its third. In every row the long sentence is longer than a window and
# ends alone in windows of as many steps as a window has tokens.
@pytest.mark.parametrize("caps", [None, (3, 6), (5, 4)])
def test_batched_forward_matches_per_sentence(cell, caps, monkeypatch):
    width, count = caps or (None, 1)
    window_rows = _use_width(monkeypatch, width)
    ts, table, params, ds = _batch_test_model(cell, window_rows + 10)
    lengths = np.array([len(s.tokens) for s in ds.sentences])
    batches = list(_inference_batches(lengths, window_rows))
    assert len(batches) == count

    reference = _per_sentence_probs(ds, params, table)
    gathers = []
    embed_rows = EmbeddingTable.embed_rows
    monkeypatch.setattr(EmbeddingTable, "embed_rows",
                        lambda self, rows: gathers.append(len(rows)) or embed_rows(self, rows))
    pairs = sentence_probs(params, table, [s.tokens for s in ds.sentences])
    # one gather per window and direction, each within the window's rows;
    # the long sentence needs more than one window
    assert max(gathers) <= window_rows
    assert len(gathers) > 2 * len(batches)
    assert sorted(i for i, _ in pairs) == list(range(len(reference)))
    batched = dict(pairs)
    for i, want in enumerate(reference):
        got = batched[i]
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12

    out = predict(ds, params, table)
    assert [s.tokens for s in out.sentences] == [s.tokens for s in ds.sentences]
    for sent, probs in zip(out.sentences, reference):
        tags = [ts.labels[int(i)] for i in probs.argmax(axis=1)]
        assert sent.spans == tuple(io_to_spans(tags, ts))
    # alone, the long sentence's products have other row counts than in its
    # batch, so forward agrees with the reference as the batch does
    assert np.abs(forward(ds.sentences[5].tokens, params, table) - reference[5]).max() < 1e-12


# (sentences per batch, batches of the 51 sentences)
@pytest.mark.parametrize("caps", [(64, 1), (3, 17), (1, 51)])
def test_inference_batches_sort_stably_within_caps(caps):
    lengths = np.array([3, 1, 5, 5, 5, 2000, 1, 5, 5, 2, 5, 5, 5, 1, 7, 5, 4] * 3)
    batches = list(_inference_batches(lengths, caps[0]))
    order = np.concatenate(batches)
    assert order.tolist() == sorted(range(len(lengths)), key=lambda i: -lengths[i])
    assert len(batches) == caps[1]
    # every batch but the last is full, whatever its lengths
    assert all(len(batch) == caps[0] for batch in batches[:-1])


# the synthetic and the paper shape: a batch of as many sentences as the
# width and one more, each of 2 tokens, OOV ones among them
@pytest.mark.parametrize("d, h, width", [(2, 16, 1200), (300, 300, 128)])
def test_one_width_sizes_batches_and_windows(d, h, width, monkeypatch):
    use_threads(monkeypatch, False)
    assert _batch_width(h) == width
    rng = np.random.default_rng(4)
    table = EmbeddingTable({"w0": 0, "w1": 1}, rng.normal(size=(2, d)))
    params = init_params(rng, "lstm", d, h, 8, 3)
    sents = [["w0", "oov"] if k % 3 else ["w1", "w0"] for k in range(width + 1)]
    gathers = []
    embed_rows = EmbeddingTable.embed_rows
    monkeypatch.setattr(EmbeddingTable, "embed_rows",
                        lambda self, rows: gathers.append(len(rows)) or embed_rows(self, rows))
    assert [len(batch) for batch, _ in _forward_batched(params, table, sents)] == [width, 1]
    # a window holds as many tokens as a batch holds sentences: each of the
    # full batch's steps fills one, and the last sentence's 2 steps share one
    assert sorted(gathers) == [2, 2] + [width] * 4
    # a split of up to the width is one batch
    assert len(list(_forward_batched(params, table, sents[:width]))) == 1


def test_predict_on_the_bundled_test_split_is_the_per_sentence_argmax(tmp_path):
    paths = write_synth_corpus(str(tmp_path), seed=0)
    test = read_conll(paths["test"])
    table = EmbeddingTable.load(paths["embeddings"])
    rng = np.random.default_rng(5)
    params = init_params(rng, "lstm", table.dimension, 16, 16, test.tag_set.size)
    params.b_out[:] = rng.normal(size=test.tag_set.size)
    tokens = [sent.tokens for sent in test.sentences]
    assert len(list(_forward_batched(params, table, tokens))) == 1
    out = predict(test, params, table)
    for sent, probs in zip(out.sentences, _per_sentence_probs(test, params, table)):
        assert test.tag_set.encode(sent).tolist() == probs.argmax(axis=1).tolist()


# (labels, embedding size, message) of models for the default 5-label tag
# set and 3-dimensional embeddings: too few labels would tag with the wrong
# label names, too many fail in the decoder and a wrong embedding size in a
# product, unless predict checks them first
@pytest.mark.parametrize("labels, dim, message", [
    (3, 3, "model has 3 labels but the tag set has 5"),
    (8, 3, "model has 8 labels but the tag set has 5"),
    (5, 4, "model takes embeddings of size 4 but the table's have size 3")])
def test_predict_refuses_a_model_of_other_sizes(labels, dim, message):
    table = EmbeddingTable({"w0": 0, "w1": 1}, np.ones((2, 3)))
    params = init_params(np.random.default_rng(0), "lstm", dim, 4, 5, labels)
    ds = make_dataset([make_sentence(("w0", "w1", "oov"))])
    with pytest.raises(SchemaError, match=message):
        predict(ds, params, table)


# (sentences per batch and tokens per window, batches): one batch in one
# window, and four batches of 5 sentences in windows of 5 tokens, as in the
# last case of test_batched_forward_matches_per_sentence
@pytest.mark.parametrize("caps", [None, (5, 4)])
def test_two_threads_give_the_one_thread_bytes(caps, monkeypatch):
    width, count = caps or (None, 1)
    width = _use_width(monkeypatch, width)
    _, table, params, ds = _batch_test_model("lstm", 30)
    tokens = [s.tokens for s in ds.sentences]
    batches = len(list(_inference_batches(np.array([len(t) for t in tokens]), width)))
    assert batches == count
    thread = threading.Thread
    runs = {}
    for on in (False, True):
        use_threads(monkeypatch, on)
        started = []
        monkeypatch.setattr(threading, "Thread",
                            lambda *a, **k: started.append(1) or thread(*a, **k))
        # a short switch interval hands the GIL between the threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pairs = sentence_probs(params, table, tokens)
        finally:
            sys.setswitchinterval(interval)
        runs[on] = (len(started), pairs)
    assert (runs[False][0], runs[True][0]) == (0, batches)
    one, two = runs[False][1], runs[True][1]
    assert [i for i, _ in one] == [i for i, _ in two]
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(one, two))


@pytest.mark.parametrize("failing", ["forward thread", "calling thread"])
def test_an_error_in_either_direction_is_raised_after_the_join(failing, monkeypatch):
    use_threads(monkeypatch, True)
    _, table, params, ds = _batch_test_model("lstm", 9)
    caller = threading.get_ident()
    direction = tagger._batch_direction

    def fails_in_one_thread(*args):
        if (threading.get_ident() == caller) == (failing == "calling thread"):
            raise FloatingPointError(f"in the {failing}")
        return direction(*args)

    monkeypatch.setattr(tagger, "_batch_direction", fails_in_one_thread)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"in the {failing}"):
        predict(ds, params, table)
    assert threading.active_count() == before


@pytest.mark.parametrize("direction", ["_lstm_forward", "_lstm_backward"])
@pytest.mark.parametrize("failing", ["forward thread", "calling thread"])
def test_an_error_in_either_training_direction_is_raised_after_the_join(failing, direction,
                                                                         monkeypatch):
    use_threads(monkeypatch, True)
    params, table, ts, sents = _random_model(np.random.default_rng(3))
    item = TrainItem(table.row_indices(sents[0].tokens), hard=ts.encode(sents[0]))
    caller = threading.get_ident()
    original = getattr(tagger, direction)

    def fails_in_one_thread(*args, **kwargs):
        if (threading.get_ident() == caller) == (failing == "calling thread"):
            raise FloatingPointError(f"in the {failing}")
        return original(*args, **kwargs)

    monkeypatch.setattr(tagger, direction, fails_in_one_thread)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"in the {failing}"):
        _item_loss_grads(params, table.embed_rows(item.rows), item,
                         grads=nan_workspace(params))
    assert threading.active_count() == before


@pytest.mark.parametrize("on", [False, True])
@pytest.mark.parametrize("saturated", ["forward", "backward"])
@pytest.mark.parametrize("path", ["sentence", "batched"])
def test_a_saturated_direction_raises_under_the_callers_error_state(path, saturated, on,
                                                                    monkeypatch):
    # numpy keeps its error state in a context variable, which a new
    # thread does not inherit unless it runs in a copy of the caller's
    use_threads(monkeypatch, on)
    table = EmbeddingTable({"w0": 0, "w1": 1}, np.ones((2, 2)))
    params = init_params(np.random.default_rng(0), "lstm", 2, 3, 4, 3)
    # input products of 1e308 plus a bias of 1e308 overflow
    suffix = "f" if saturated == "forward" else "b"
    getattr(params, f"w_in_{suffix}")[:] = 5e307
    getattr(params, f"b_{suffix}")[:] = 1e308
    tokens = ["w0", "w1", "oov"]
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
        if path == "sentence":
            _sentence_forward(params, table.embed_rows(table.row_indices(tokens)))
        else:
            list(_forward_batched(params, table, [tokens, tokens[:1]]))


# the synthetic shape, each side of the 300,000 floats of 4h(d + h), and
# the paper shape
@pytest.mark.parametrize("d, h, threaded", [(12, 16, False), (50, 249, False),
                                            (50, 250, True), (300, 300, True)])
def test_two_threads_from_the_weight_threshold(d, h, threaded, monkeypatch):
    monkeypatch.setattr(tagger, "_cpu_count", lambda: 2)
    monkeypatch.setattr(tagger, "_sharing_processes", 1)
    assert tagger._two_threads(d, h) == threaded
    thread = threading.Thread
    started = []
    monkeypatch.setattr(threading, "Thread",
                        lambda *a, **k: started.append(1) or thread(*a, **k))
    rng = np.random.default_rng(0)
    table = EmbeddingTable({"w0": 0, "w1": 1}, rng.normal(size=(2, d)))
    params = init_params(rng, "lstm", d, h, 8, 3)
    rows = table.row_indices(["w0", "w1", "oov"])
    _item_loss_grads(params, table.embed_rows(rows), TrainItem(rows, hard=np.array([0, 1, 2])),
                     grads=nan_workspace(params))
    list(_forward_batched(params, table, [["w1", "w0"]]))
    # a training forward and backward pass and a batch
    assert len(started) == (3 if threaded else 0)


@pytest.mark.parametrize("shape", ["small hidden size", "one CPU"])
def test_no_thread_is_started_below_the_size_or_on_one_cpu(shape, monkeypatch):
    if shape == "small hidden size":
        monkeypatch.setattr(tagger, "_cpu_count", lambda: 2)
        _, table, params, ds = _batch_test_model("lstm", 9)
        assert not tagger._two_threads(params.embed_dim, params.hidden_size)
        # training at the synthetic shape
        train_table = EmbeddingTable(table.vocab, np.random.default_rng(0).normal(size=(8, 12)))
        config = TaggerConfig(hidden_size=16, feature_size=8, epochs=1)
        assert not tagger._two_threads(12, 16)
    else:
        monkeypatch.setattr(tagger, "_cpu_count", lambda: 1)
        params, table = paper_shape_model(vocab=20)
        ds = make_dataset([make_sentence(("w1", "oov", "w3")), make_sentence(("w4",))],
                          TagSet(("PER", "LOC")))
        assert 4 * 300 * (300 + 300) >= tagger._THREAD_WEIGHTS
        train_table, config = table, TaggerConfig(hidden_size=300, feature_size=128, epochs=1)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    out = predict(ds, params, table)
    assert [s.tokens for s in out.sentences] == [s.tokens for s in ds.sentences]
    train(ds, config, train_table).check_finite()


def _paper_batch_peak(count, length):
    """The parameters of a paper-shape model and the ``tracemalloc`` peak
    of its second batched forward over one batch of *count* sentences of
    *length* tokens, OOV ones among them."""
    params, table = paper_shape_model()
    rng = np.random.default_rng(1)
    sents = [[f"w{i}" if i >= 0 else "oov" for i in rng.integers(-1, len(table), size=length)]
             for _ in range(count)]
    assert [len(b) for b in _inference_batches(np.full(count, length),
                                               _batch_width(300))] == [count]
    list(_forward_batched(params, table, sents))
    tracemalloc.start()
    try:
        pairs = list(_forward_batched(params, table, sents))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(probs) for _, probs in pairs) == count * length
    return params, peak


def test_batched_forward_peaks_below_one_input_projection():
    # one batch of 32 sentences of 32 tokens at paper shape: the windows
    # keep the gate buffer far below the (tokens, 4h) input projection of
    # the whole batch
    params, peak = _paper_batch_peak(32, 32)
    projection = 32 * 32 * 4 * params.hidden_size * 8
    assert peak < projection, peak / projection


# the float budget decides below h=150 and the sentence floor of 128 from
# there on; a floor of 64 would give 127 at h=151 and 96 at h=200
@pytest.mark.parametrize("h, width", [(100, 192), (150, 128), (151, 128), (200, 128)])
def test_batch_width_crosses_to_the_sentence_floor_at_h_150(h, width):
    assert _batch_width(h) == width


def test_paper_batch_holds_no_feature_rows():
    # a full batch at paper shape, 128 sentences of 60 tokens. One (tokens,
    # f) float64 array is 7680 * 128 * 8 bytes = 7.5 MiB and a (tokens, 4h)
    # one 70.3 MiB, so a peak below the first shows that neither was held.
    # What the batch does hold is about 4.0 MiB on one thread and 6.6 MiB
    # on two: per thread a buffer set (the gate and recurrent buffers,
    # 128 x 4h each, and the cell state, 2.6 MiB together) and one window's
    # embedding gather, and per batch the (tokens, L) logits, backward share
    # and distributions and the int64 index arrays of the tokens.
    params, peak = _paper_batch_peak(128, 60)
    features = 128 * 60 * params.feature_size * 8
    assert peak < features, peak / features


_BATCHED_PROBS_HASH = """
import hashlib
import numpy as np
from support import paper_shape_model, sentence_probs
params, table = paper_shape_model()
rng = np.random.default_rng(2)
sents = [[f"w{i}" if i >= 0 else "oov" for i in rng.integers(-1, len(table), size=n)]
         for n in rng.integers(1, 61, size=150)]
digest = hashlib.sha256()
for i, probs in sentence_probs(params, table, sents):
    digest.update(repr(i).encode())
    digest.update(probs.tobytes())
print(digest.hexdigest())
"""


# OPENBLAS_NUM_THREADS unset, so the BLAS starts with a thread per CPU, and
# set to one and two threads
BLAS_SETTINGS = (None, "1", "2")


def test_batched_probabilities_do_not_depend_on_blas_threads():
    hashes = {run_python(_BATCHED_PROBS_HASH, threads) for threads in BLAS_SETTINGS}
    assert len(hashes) == 1


def test_sentence_gradients_do_not_depend_on_blas_threads():
    # at paper shape a sentence of 16 tokens or more makes products that a
    # threaded BLAS splits by its thread count; wsner runs it on one thread
    code = "import support; print(support.paper_shape_grads_digest(20))"
    hashes = {run_python(code, threads) for threads in BLAS_SETTINGS}
    assert len(hashes) == 1


def test_float32_sentence_gradients_do_not_depend_on_blas_threads():
    # training at paper shape computes in float32: the pin must fix the
    # bytes of sgemm and sgemv as it does those of dgemm and dgemv
    code = ("import numpy as np, support; "
            "print(support.paper_shape_grads_digest(20, np.float32))")
    hashes = {run_python(code, threads) for threads in BLAS_SETTINGS}
    assert len(hashes) == 1


def test_trained_checkpoint_does_not_depend_on_blas_threads(tmp_path):
    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(40)]
    vectors = "".join(f"{w} " + " ".join(map(repr, rng.normal(size=300).tolist())) + "\n"
                      for w in words)
    (tmp_path / "e.txt").write_text(f"{len(words)} 300\n" + vectors, encoding="utf-8")
    tags = ("O", "B-PER", "I-PER", "O", "B-LOC")
    sentences = ["".join(f"{words[i]}\t{tags[i % 5]}\n" for i in rng.integers(0, 40, size=n))
                 for n in (20, 24, 17, 30)]
    (tmp_path / "clean.conll").write_text("\n".join(sentences), encoding="utf-8")
    (tmp_path / "c.json").write_text(json.dumps({"hidden_size": 300, "feature_size": 128,
                                                 "epochs": 1}), encoding="utf-8")
    code = "import sys; from wsner.cli import main; sys.exit(main(sys.argv[1:]))"
    digests = set()
    for threads in BLAS_SETTINGS:
        model = tmp_path / f"model-{threads}.npz"
        run_python(code, threads, "train", "--clean", str(tmp_path / "clean.conll"),
                   "--embeddings", str(tmp_path / "e.txt"), "--config", str(tmp_path / "c.json"),
                   "--model-out", str(model))
        params, _ = load_checkpoint(model)
        digests.add(b"".join(arr.tobytes() for _, arr in params.arrays()))
    assert len(digests) == 1


def test_blas_without_a_known_setter_warns_and_is_left_alone(monkeypatch):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    setter = lib.scipy_openblas_set_num_threads64_
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    setter(2)
    try:
        with monkeypatch.context() as patch:
            # a library that has none of the setters
            patch.setattr(ctypes, "CDLL", lambda path: object())
            with pytest.warns(RuntimeWarning, match=rf"numpy's BLAS \({blas}\) has no known "
                                                    "thread-count setter"):
                tagger._pin_blas_threads()
        assert blas_thread_count() == 2
    finally:
        setter(1)
    assert blas_thread_count() == 1


def test_predict_empty_dataset(tiny_table):
    params = init_params(np.random.default_rng(9), "lstm", 4, 3, 4, 5)
    ds = make_dataset([])
    out = predict(ds, params, tiny_table)
    assert out.sentences == () and out.tag_set == ds.tag_set


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, tiny_table):
    ds, table = _toy_corpus()
    config = TaggerConfig(hidden_size=4, feature_size=4, learning_rate=0.05,
                          epochs=2, seed=0)
    params = train(ds, config, table)
    path = tmp_path / "model.npz"
    save_checkpoint(path, params, ds.tag_set)
    loaded, tag_set = load_checkpoint(path)
    assert tag_set == ds.tag_set
    for (_, x), (_, y) in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(x, y)
    before = predict(ds, params, table)
    after = predict(ds, loaded, table)
    assert before.sentences == after.sentences


def test_checkpoint_is_written_at_exactly_a_path_without_extension(tmp_path):
    # np.savez given the path itself would write model.npz
    params = init_params(np.random.default_rng(12), "lstm", 3, 2, 3, 3)
    path = tmp_path / "model"
    save_checkpoint(path, params, TagSet(("PER", "LOC")))
    assert [p.name for p in tmp_path.iterdir()] == ["model"]
    loaded, tag_set = load_checkpoint(path)
    assert tag_set == TagSet(("PER", "LOC"))
    for (name, x), (_, y) in zip(params.arrays(), loaded.arrays()):
        assert x.tobytes() == y.tobytes(), name


def _checkpoint_naming_cell(path, cell: str) -> TaggerParams:
    """A checkpoint as written before the LSTM became the only cell: its
    metadata names the cell."""
    params = init_params(np.random.default_rng(12), "lstm", 3, 2, 3, 3)
    meta = json.dumps({"cell": cell, "entity_types": ["PER", "LOC"], "outside": "O"})
    np.savez(path, __meta__=np.array(meta), **dict(params.arrays()))
    return params


def test_checkpoint_naming_the_lstm_still_loads(tmp_path):
    path = tmp_path / "model.npz"
    params = _checkpoint_naming_cell(path, "lstm")
    loaded, tag_set = load_checkpoint(path)
    assert tag_set == TagSet(("PER", "LOC"))
    for (name, x), (_, y) in zip(params.arrays(), loaded.arrays()):
        assert x.tobytes() == y.tobytes(), name


def test_checkpoint_naming_another_cell_is_refused(tmp_path, capsys):
    path = tmp_path / "model.npz"
    _checkpoint_naming_cell(path, "tanh")
    with pytest.raises(ParseError, match="unknown cell type 'tanh'") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
    assert cli.main(["inspect", "--model", str(path)]) == 1
    assert f"error: {path}: unknown cell type 'tanh'" in capsys.readouterr().err


def test_truncated_checkpoint_is_refused_and_its_file_closed(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(path, init_params(np.random.default_rng(12), "lstm", 3, 2, 3, 3),
                    TagSet(("PER", "LOC")))
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="not a checkpoint"):
            load_checkpoint(path)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("where", ["past the end", "before the start"])
def test_checkpoint_of_damaged_member_offsets_is_refused_naming_the_file(
        tmp_path, capsys, where):
    # the central directory points a member outside the file; read lazily,
    # that member once raised zipfile's bare OSError (EINVAL from a seek)
    path = tmp_path / "model.npz"
    save_checkpoint(path, init_params(np.random.default_rng(12), "lstm", 3, 2, 3, 3),
                    TagSet(("PER", "LOC")))
    data = bytearray(path.read_bytes())
    end_record = data.rindex(b"PK\x05\x06")
    if where == "past the end":
        # the local-header offset of the last central-directory entry
        last_entry = data.rindex(b"PK\x01\x02", 0, end_record)
        struct.pack_into("<I", data, last_entry + 42, len(data) + 100)
    else:
        # a directory offset too large shifts every member before byte 0
        offset = struct.unpack_from("<I", data, end_record + 16)[0]
        struct.pack_into("<I", data, end_record + 16, offset + len(data))
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
    assert cli.main(["inspect", "--model", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_checkpoint_without_its_labels_is_refused(tmp_path):
    path = tmp_path / "model.npz"
    params = init_params(np.random.default_rng(12), "lstm", 3, 2, 3, 3)
    np.savez(path, __meta__=np.array(json.dumps({"outside": "O"})), **dict(params.arrays()))
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: missing checkpoint entry 'entity_types'"


@pytest.mark.parametrize("meta, message", [
    ([], "checkpoint metadata is not a JSON object"),
    ({"entity_types": "PER", "outside": "O"},
     "checkpoint metadata needs a list of entity_types strings and an outside string"),
    ({"entity_types": ["PER", 1], "outside": "O"},
     "checkpoint metadata needs a list of entity_types strings and an outside string"),
    ({"entity_types": ["PER"], "outside": None},
     "checkpoint metadata needs a list of entity_types strings and an outside string"),
    ({"entity_types": ["PER", "PER"], "outside": "O"}, "entity types must be unique"),
    ({"entity_types": ["PER", "A B"], "outside": "O"},
     "label is empty or contains whitespace: 'A B'"),
    ({"entity_types": ["PER"], "outside": "X"}, "outside label 'X'; wsner reads only 'O'"),
])
def test_checkpoint_of_malformed_metadata_is_refused(tmp_path, capsys, meta, message):
    # a JSON list has no keys; the string "PER" would give the labels P, E and R
    path = tmp_path / "model.npz"
    params = init_params(np.random.default_rng(12), "lstm", 3, 2, 3, 3)
    np.savez(path, __meta__=np.array(json.dumps(meta)), **dict(params.arrays()))
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"
    assert cli.main(["inspect", "--model", str(path)]) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_with_a_non_finite_weight_is_refused(tmp_path, value):
    # a NaN row of w_out would make every token's argmax the outside label
    params = init_params(np.random.default_rng(12), "lstm", 3, 2, 3, 3)
    params.w_out[1, 2] = value
    path = tmp_path / "model.npz"
    save_checkpoint(path, params, TagSet(("PER", "LOC")))
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: non-finite values in parameter w_out"


@pytest.mark.parametrize("name, value, message", [
    ("u_f", np.ones(8), "parameter u_f is not a matrix"),
    ("w_feat", np.ones((4, 4)), "parameter b_feat has shape (3,), expected (4,)"),
    ("b_f", np.ones(12), "parameter b_f has shape (12,), expected (8,)"),
])
def test_checkpoint_of_inconsistent_shapes_is_refused(tmp_path, name, value, message):
    # embedding 3, hidden 2 (gates 8), 3 features, 3 labels
    params = init_params(np.random.default_rng(12), "lstm", 3, 2, 3, 3)
    path = tmp_path / "model.npz"
    save_checkpoint(path, dataclasses.replace(params, **{name: value}), TagSet(("PER", "LOC")))
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"
