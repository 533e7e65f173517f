import json
import math

import numpy as np
import pytest

from wsner.corpus import Dataset, EntitySpan, LabeledSentence, TagSet, io_to_spans
from wsner import cli, tagger
from wsner.errors import ParseError
from wsner.tagger import (
    EmbeddingTable,
    TaggerConfig,
    TaggerParams,
    TrainItem,
    _forward_batched,
    _inference_batches,
    _item_loss_grads,
    _lstm_backward,
    _lstm_forward,
    _sentence_backward,
    _sentence_forward,
    _sgd_step,
    forward,
    init_params,
    load_checkpoint,
    loss_and_gradient,
    predict,
    save_checkpoint,
    train,
)

from conftest import make_dataset, make_sentence
from gradcheck import finite_difference, max_relative_error


# ---------------------------------------------------------------------------
# embeddings


def test_load_embeddings(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 3\nfoo 1.0 2.0 3.0\nbar 0.0 1.0 0.5\n", encoding="utf-8")
    table = EmbeddingTable.load(path)
    assert len(table) == 2 and table.dimension == 3
    assert np.array_equal(table.embed(["foo"])[0], [1.0, 2.0, 3.0])


def test_unknown_token_gets_mean_vector(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 2\na 1.0 3.0\nb 3.0 5.0\n", encoding="utf-8")
    table = EmbeddingTable.load(path)
    # independent mean computation
    expected = np.array([(1.0 + 3.0) / 2, (3.0 + 5.0) / 2])
    assert np.abs(table.embed(["zzz"])[0] - expected).max() < 1e-12


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


def test_duplicate_tokens_keep_first(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 1\nfoo 1.0\nfoo 2.0\n", encoding="utf-8")
    table = EmbeddingTable.load(path)
    assert len(table) == 2  # both rows kept
    assert table.embed(["foo"])[0, 0] == 1.0


# ---------------------------------------------------------------------------
# forward


def test_zero_params_give_uniform(tiny_table):
    ts = TagSet(("PER", "LOC"))
    params = init_params(np.random.default_rng(0), "lstm", 4, 3, 4, ts.size)
    zero = params.zeros_like()
    probs = forward(["w0", "w1"], zero, tiny_table)
    assert np.abs(probs - 1.0 / ts.size).max() < 1e-15


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
        grads = _lstm_backward(w, u, cache, rng.normal(size=(T, h)))
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
                grads = _lstm_backward(w, u, cache, dHs)
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
@pytest.mark.parametrize("cell", ["lstm"])
def test_gradient_matches_finite_differences(cell):
    rng = np.random.default_rng(0)
    for _ in range(8):
        params, table, ts, sents = _random_model(rng, cell)
        assert params.num_parameters <= 200
        _, grads = loss_and_gradient(sents, params, table, ts)
        arrays = [arr for _, arr in params.arrays()]
        numeric = finite_difference(
            lambda: loss_and_gradient(sents, params, table, ts)[0], arrays)
        analytic = [arr for _, arr in grads.arrays()]
        assert max_relative_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize("T", [1, 12])
def test_lstm_gradient_at_sequence_ends(T):
    # T=1 leaves no recurrent term; T=12 spans both ends of the one-step
    # shift between gate gradients and previous hidden states.
    rng = np.random.default_rng(30 + T)
    params = init_params(rng, "lstm", 3, 2, 3, 3)
    params.b_f[:] = rng.normal(size=8)
    params.b_b[:] = rng.normal(size=8)
    X = rng.normal(size=(T, 3))
    item = TrainItem(X, hard=rng.integers(0, 3, size=T))
    _, grads, _ = _item_loss_grads(params, X, item)
    arrays = [arr for _, arr in params.arrays()]
    numeric = finite_difference(lambda: _item_loss_grads(params, X, item)[0], arrays)
    analytic = [arr for _, arr in grads.arrays()]
    assert max_relative_error(analytic, numeric) < 1e-4


def test_soft_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    params, table, ts, sents = _random_model(rng)
    soft = []
    for s in sents:
        w = rng.random((len(s.tokens), ts.size))
        soft.append(w / w.sum(axis=1, keepdims=True))
    _, grads = loss_and_gradient(sents, params, table, ts, soft_targets=soft)
    arrays = [arr for _, arr in params.arrays()]
    numeric = finite_difference(
        lambda: loss_and_gradient(sents, params, table, ts, soft_targets=soft)[0],
        arrays)
    assert max_relative_error([a for _, a in grads.arrays()], numeric) < 1e-4


def test_perfect_soft_target_gives_zero_gradient(tiny_table):
    ts = TagSet(("PER", "LOC"))
    params = init_params(np.random.default_rng(4), "lstm", 4, 2, 3, ts.size)
    sent = make_sentence(("w0", "w1"))
    probs = forward(sent.tokens, params, tiny_table)
    loss, grads = loss_and_gradient([sent], params, tiny_table, ts,
                                    soft_targets=[probs])
    # cross-entropy of a distribution with itself is its entropy
    entropy = float(-(probs * np.log(probs)).sum() / len(sent.tokens))
    assert loss == pytest.approx(entropy, abs=1e-12)
    for _, g in grads.arrays():
        assert np.abs(g).max() < 1e-12


def test_duplicating_batch_keeps_mean_loss(tiny_table):
    ts = TagSet(("PER", "LOC"))
    params = init_params(np.random.default_rng(5), "lstm", 4, 2, 3, ts.size)
    sents = [make_sentence(("w0", "w1"), (EntitySpan("PER", 0, 1),)),
             make_sentence(("w2",))]
    loss_once, _ = loss_and_gradient(sents, params, tiny_table, ts)
    loss_twice, _ = loss_and_gradient(sents + sents, params, tiny_table, ts)
    assert loss_twice == pytest.approx(loss_once, rel=1e-12)


def _reference_sentence_backward(params, cache, dlogits):
    """Gradients accumulated into zero-filled arrays, one ``+=`` each."""
    cache_f, cache_b, H, feats = cache
    h = params.hidden_size
    grads = params.zeros_like()
    grads.w_out += dlogits.T @ feats
    grads.b_out += dlogits.sum(axis=0)
    dfeats = dlogits @ params.w_out
    grads.w_feat += dfeats.T @ H
    grads.b_feat += dfeats.sum(axis=0)
    dH = dfeats @ params.w_feat
    dw, du, db = _lstm_backward(params.w_in_f, params.u_f, cache_f, dH[:, :h])
    grads.w_in_f += dw
    grads.u_f += du
    grads.b_f += db
    dw, du, db = _lstm_backward(params.w_in_b, params.u_b, cache_b, dH[::-1, h:])
    grads.w_in_b += dw
    grads.u_b += du
    grads.b_b += db
    return grads


@pytest.mark.parametrize("cell", ["lstm"])
def test_sentence_backward_is_bitwise_zero_fill_reference(cell):
    rng = np.random.default_rng(40)
    for T in (1, 2, 9):
        params = init_params(rng, cell, 3, 4, 5, 3)
        X = rng.normal(size=(T, 3))
        probs, cache = _sentence_forward(params, X)
        dlogits = (probs - rng.dirichlet(np.ones(3), size=T)) / T
        grads = _sentence_backward(params, cache, dlogits)
        ref = _reference_sentence_backward(params, cache, dlogits)
        for (name, g), (_, r) in zip(grads.arrays(), ref.arrays()):
            assert g.shape == r.shape and g.tobytes() == r.tobytes(), (T, name)


def test_sgd_step_is_bitwise_scaled_subtraction():
    rng = np.random.default_rng(41)
    params = init_params(rng, "lstm", 3, 4, 5, 3)
    grads = params.copy()
    for _, g in grads.arrays():
        g[...] = rng.normal(size=g.shape)
    expected = params.copy()
    for (_, arr), (_, g) in zip(expected.arrays(), grads.arrays()):
        arr -= 0.037 * g
    _sgd_step(params, grads, 0.037)
    for (name, got), (_, want) in zip(params.arrays(), expected.arrays()):
        assert got.tobytes() == want.tobytes(), name


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
    from wsner.evaluation import token_accuracy
    return token_accuracy(ds, predict(ds, params, table))


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
        loss, _ = loss_and_gradient(list(ds.sentences), params, table, ds.tag_set)
        losses.append(loss)
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


# ---------------------------------------------------------------------------
# prediction


def test_uniform_output_decodes_to_no_spans(tiny_table):
    ds = make_dataset([make_sentence(("w0", "w1"))])
    params = init_params(np.random.default_rng(0), "lstm", 4, 2, 3, 5)
    zero = params.zeros_like()
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
    return [_sentence_forward(params, table.embed(s.tokens))[0] for s in dataset.sentences]


def _batch_test_model(cell, token_cap):
    """Sentences of lengths 1, many equal ones, one longer than the token
    cap, and OOV tokens throughout, in no particular length order."""
    rng = np.random.default_rng(50)
    ts = TagSet(("PER", "LOC"))
    table = EmbeddingTable({f"w{i}": i for i in range(8)}, rng.normal(size=(8, 3)))
    params = init_params(rng, cell, 3, 4, 5, ts.size)
    params.b_f[:] = rng.normal(size=params.b_f.shape)
    params.b_b[:] = rng.normal(size=params.b_b.shape)
    params.b_out[:] = rng.normal(size=ts.size)
    lengths = [3, 1, 5, 5, 5, token_cap + 5, 1, 5, 5, 2, 5, 5, 5, 1, 7, 5, 4]
    sents = [make_sentence(tuple(f"w{int(i)}" if i < 8 else f"oov{int(i)}"
                                 for i in rng.integers(0, 11, size=n)))
             for n in lengths]
    return ts, table, params, make_dataset(sents, ts)


@pytest.mark.parametrize("cell", ["lstm"])
@pytest.mark.parametrize("caps", [None, (3, 12)])
def test_batched_forward_matches_per_sentence(cell, caps, monkeypatch):
    if caps is not None:
        monkeypatch.setattr(tagger, "_BATCH_SENTENCES", caps[0])
        monkeypatch.setattr(tagger, "_BATCH_TOKENS", caps[1])
    ts, table, params, ds = _batch_test_model(cell, tagger._BATCH_TOKENS)
    lengths = np.array([len(s.tokens) for s in ds.sentences])
    batches = list(_inference_batches(lengths))
    assert len(batches) >= (6 if caps else 2)

    reference = _per_sentence_probs(ds, params, table)
    pairs = list(_forward_batched(params, table, [s.tokens for s in ds.sentences]))
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
    assert np.array_equal(forward(ds.sentences[5].tokens, params, table), batched[5])


@pytest.mark.parametrize("caps", [(32, 1024), (3, 12), (1, 1)])
def test_inference_batches_sort_stably_within_caps(caps, monkeypatch):
    monkeypatch.setattr(tagger, "_BATCH_SENTENCES", caps[0])
    monkeypatch.setattr(tagger, "_BATCH_TOKENS", caps[1])
    lengths = np.array([3, 1, 5, 5, 5, 2000, 1, 5, 5, 2, 5, 5, 5, 1, 7, 5, 4] * 3)
    batches = list(_inference_batches(lengths))
    order = np.concatenate(batches)
    assert order.tolist() == sorted(range(len(lengths)), key=lambda i: -lengths[i])
    for batch in batches:
        assert len(batch) == 1 or (len(batch) <= caps[0]
                                   and len(batch) * lengths[batch].max() <= caps[1])


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
