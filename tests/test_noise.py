import hashlib
import sys
import threading
import warnings

import numpy as np
import pytest

from wsner import experiment, noise
from wsner.corpus import (Dataset, EntitySpan, LabeledSentence, TagSet, check_aligned, merge,
                          read_conll)
from wsner.errors import (AlignmentError, EstimationError, NumericsError, ParseError,
                          SchemaError, WsnerError)
from wsner.noise import (
    EM_CHANNEL_ANCHOR,
    METHODS,
    ConfusionMatrix,
    MethodOptions,
    _em_step,
    cleaner_inputs,
    em_noise_channel,
    estimate_confusion,
    fit,
    load_confusion,
    save_confusion,
    train_cleaner,
    train_cleaning_method,
    train_confusion_method,
)
from wsner.tagger import EmbeddingTable, TaggerConfig, init_params, make_items, predict, train

from conftest import write_tiny_sweep
from gradcheck import finite_difference, max_relative_error
from support import (
    PINNED_ENVIRONMENT,
    RECOVERY_CHANNEL,
    environment,
    make_feature_noise_task,
    make_noise_benchmark,
    nan_workspace,
    token_accuracy,
    use_threads,
)

LABELS = ("O", "PER", "ORG", "LOC", "DATE")
O, PER, ORG, LOC = 0, 1, 2, 3
NONE = np.zeros(0, dtype=np.int64)


# sha256 of every parameter array and the channel (when there is one) that
# fit returns for each method on the tiny sweep's corpus and settings, taken
# in support.PINNED_ENVIRONMENT. The tiny sweep's CSVs cannot see training,
# since its trained cells all score 0; these bytes are training's own.
FIT_SHA256 = {
    "baseline-clean": "ebcc3a8a082de7f8f77b45583bf96c436ace3aa1df582de508d9cae505b01162",
    "naive-mix": "f4a6537890ebde3c45eeb9539478f4f625658b44177130d72b293ef1994997a3",
    "confusion": "6a656b30b540966d315f3d320c8436d338d68b9f529499dd284adf33eee7a35a",
    "noise-channel": "9ac131b876c9d02ecfe46c52c0e8abfe778cd4f8a5e5e979c01f0d017afa44ec",
    "cleaning": "b93908bb0b34408e6c3cdbf0fe27a82c8134e3d180a82e1007b58a023cf78c4c",
}


def _tiny_sweep_inputs(root):
    """The sweep config, clean and distant data and table of the tiny sweep."""
    paths = write_tiny_sweep(root)
    sweep = experiment.load_config(paths["config"])
    tag_set = TagSet(sweep.entity_types)
    clean = read_conll(paths["train"], tag_set=tag_set)
    distant = read_conll(paths["distant"], tag_set=tag_set, provenance="distant")
    return sweep, clean, distant, EmbeddingTable.load(paths["embeddings"])


def _fit_digests(root) -> dict[str, str]:
    """Per method, the sha256 of every parameter array and the channel
    (when there is one) that fit returns on the tiny sweep."""
    sweep, clean, distant, table = _tiny_sweep_inputs(root)
    digests = {}
    for method in METHODS:
        params, channel = fit(method, clean, distant, sweep.tagger, table, sweep.options)
        digest = hashlib.sha256()
        for _, arr in params.arrays():
            digest.update(arr.tobytes())
        if channel is not None:
            digest.update(channel.matrix.tobytes())
        digests[method] = digest.hexdigest()
    return digests


def test_fit_returns_the_pinned_bytes_for_every_method(tmp_path):
    digests = _fit_digests(tmp_path)
    if environment() != PINNED_ENVIRONMENT:
        pytest.skip(f"bytes pinned under python, numpy, BLAS {PINNED_ENVIRONMENT}, "
                    f"not {environment()}")
    assert digests == FIT_SHA256


@pytest.mark.parametrize("method", METHODS)
def test_every_method_leaves_the_embeddings_bit_identical(tmp_path, method):
    # the table is read-only, so a write would raise; the bytes show too that
    # nothing replaced its arrays
    sweep, clean, distant, table = _tiny_sweep_inputs(tmp_path)
    matrix, unk = table.matrix, table.unk
    before = matrix.tobytes(), unk.tobytes()
    fit(method, clean, distant, sweep.tagger, table, sweep.options)
    assert table.matrix is matrix and table.unk is unk
    assert (matrix.tobytes(), unk.tobytes()) == before
    assert not (matrix.flags.writeable or unk.flags.writeable)


def test_fit_trains_the_same_bytes_on_one_thread_or_two(tmp_path, monkeypatch):
    # every training forward and backward pass, the cleaner's feature
    # vectors and the EM E-step, at the tiny sweep's d=12, h=4
    runs = {}
    thread = threading.Thread
    for on in (False, True):
        use_threads(monkeypatch, on)
        started = []
        monkeypatch.setattr(threading, "Thread",
                            lambda *a, **k: started.append(1) or thread(*a, **k))
        # a short switch interval hands the GIL between the threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            digests = _fit_digests(tmp_path / str(on))
        finally:
            sys.setswitchinterval(interval)
        runs[on] = (len(started) > 0, digests)
    assert (runs[False][0], runs[True][0]) == (False, True)
    assert runs[False][1] == runs[True][1]


@pytest.mark.parametrize("lr", [1000.0, 10000.0])
def test_diverging_confusion_raises_numerics_error_before_any_numpy_warning(tmp_path, lr):
    # the trained channel saturates until it gives some token's noisy label
    # probability 0: its posterior is 0 / 0 and its loss -log 0
    paths = write_tiny_sweep(tmp_path, learning_rate=lr, methods=["confusion"])
    ctx = experiment._build_context(experiment.load_config(paths["config"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="non-finite training loss"):
            experiment.run_cell(ctx, None, "confusion", 0)


# ---------------------------------------------------------------------------
# confusion matrix estimation


def test_identity_when_clean_equals_noisy():
    labels = np.array([PER, O, LOC] * 5)
    cm = estimate_confusion(labels, labels, LABELS, alpha=0.0)
    assert np.array_equal(cm.matrix, np.eye(5))


def test_direct_counting():
    cm = estimate_confusion(np.array([O, O, PER]), np.array([O, LOC, PER]), LABELS, alpha=0.0)
    assert cm.matrix[O][O] == 0.5
    assert cm.matrix[O][LOC] == 0.5
    assert cm.matrix[PER][PER] == 1.0
    # unobserved rows default to identity
    assert cm.matrix[ORG][ORG] == 1.0


def test_smoothing():
    cm = estimate_confusion(np.array([O]), np.array([O]), LABELS, alpha=1.0)
    assert cm.matrix[O][0] == pytest.approx(2 / 6)
    assert cm.matrix[PER][1] == pytest.approx(1 / 5)


def test_empty_pairs_require_smoothing():
    with pytest.raises(EstimationError):
        estimate_confusion(NONE, NONE, LABELS, alpha=0.0)
    cm = estimate_confusion(NONE, NONE, LABELS, alpha=1.0)
    assert np.allclose(cm.matrix, 1 / 5)


def test_unknown_label_in_pair():
    # the pair source carries a type that the clean tag set lacks
    task = _small_task()
    wide = TagSet(task.clean.tag_set.entity_types + ("MISC",))
    first = task.pair_source.sentences[0]
    misc = LabeledSentence(first.tokens, (EntitySpan("MISC", 0, 1),), "distant")
    pair_source = Dataset((misc,) + task.pair_source.sentences[1:], wide)
    for method in (train_confusion_method, train_cleaning_method):
        with pytest.raises(SchemaError, match="MISC"):
            method(task.clean, task.distant, pair_source, _config(), task.table,
                   MethodOptions())


def test_channel_recovery_from_samples():
    rng = np.random.default_rng(0)
    true = RECOVERY_CHANNEL
    clean = rng.integers(0, 5, size=10000)
    cum = true.cumsum(axis=1)
    noisy = np.array([np.searchsorted(cum[t], rng.random(), side="right")
                      for t in clean])
    cm = estimate_confusion(clean, np.minimum(noisy, 4), LABELS, alpha=0.0)
    row_err = np.abs(cm.matrix - true).sum(axis=1)
    assert row_err.max() < 0.05


def test_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(LABELS, np.ones((5, 5)))
    with pytest.raises(ValueError):
        ConfusionMatrix(LABELS, np.eye(4))
    # each label names a row and a column
    with pytest.raises(ValueError, match="repeated label 'PER'"):
        ConfusionMatrix(("O", "PER", "LOC", "PER"), np.eye(4))


def test_channel_with_a_repeated_label_names_the_header(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# labels: O O\n1 0\n0 1\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_confusion(path)
    assert str(err.value) == f"{path}:1: repeated label 'O'"


@pytest.mark.parametrize("row", ["nan nan", "inf 0", "0.5 nan"])
def test_channel_with_a_non_finite_entry_is_refused(tmp_path, row):
    # every comparison with NaN is false, so a NaN row passed the row-sum check
    path = tmp_path / "c.txt"
    path.write_text(f"# labels: O PER\n1 0\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_confusion(path)
    assert str(err.value) == f"{path}: matrix entries must be finite"


@pytest.mark.parametrize("rows, lineno, got", [("1 0\n0\n", 3, 1), ("1 0 0\n0 1\n", 2, 3)],
                         ids=["short", "long"])
def test_channel_row_of_the_wrong_width_names_its_line(tmp_path, rows, lineno, got):
    path = tmp_path / "c.txt"
    path.write_text(f"# labels: O PER\n{rows}", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_confusion(path)
    assert str(err.value) == f"{path}:{lineno}: expected 2 values, got {got}"


def test_serialization_round_trip(tmp_path):
    cm = estimate_confusion(np.array([O, O]), np.array([PER, O]), LABELS, alpha=0.5)
    path = tmp_path / "cm.txt"
    save_confusion(cm, path)
    back = load_confusion(path)
    assert back.labels == cm.labels
    assert np.array_equal(back.matrix, cm.matrix)
    bad = tmp_path / "bad.txt"
    bad.write_text("no header\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_confusion(bad)


# ---------------------------------------------------------------------------
# channel-composed training


def _small_task(seed=0):
    return make_noise_benchmark(
        seed, clean_tokens=60, noisy_tokens=200, test_tokens=60,
        entity_words=12, outside_words=12)


def _config(**kw):
    base = dict(hidden_size=4, feature_size=4, learning_rate=0.05, epochs=2, seed=9)
    base.update(kw)
    return TaggerConfig(**base)


def _params_equal(a, b):
    return all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.arrays(), b.arrays()))


def test_check_aligned_refuses_a_pair_source_of_other_sentences():
    task = _small_task()
    check_aligned(task.clean, task.pair_source)
    with pytest.raises(AlignmentError):
        check_aligned(task.clean, task.distant)
    for method in (train_confusion_method, train_cleaning_method):
        with pytest.raises(AlignmentError):
            method(task.clean, task.distant, task.distant, _config(), task.table,
                   MethodOptions())


@pytest.mark.parametrize("method, kind", [
    *((method, "distant") for method in METHODS if method != "baseline-clean"),
    ("baseline-clean", "clean"), ("cleaning", "clean")])
def test_fit_refuses_a_method_without_its_sentences(method, kind):
    # no method falls back to training on the clean sentences alone
    task = _small_task()
    data = {"clean": task.clean, "distant": task.distant, kind: Dataset((), task.clean.tag_set)}
    with pytest.raises(WsnerError) as err:
        fit(method, data["clean"], data["distant"], _config(), task.table, MethodOptions())
    assert str(err.value) == f"{kind} data: no sentences; {method} needs {kind} sentences"


def test_baseline_clean_trains_without_distant_sentences():
    task = _small_task()
    cfg = _config()
    params, channel = fit("baseline-clean", task.clean, Dataset((), task.clean.tag_set), cfg,
                          task.table, MethodOptions())
    assert channel is None
    assert _params_equal(params, train(task.clean, cfg, task.table))


def test_identity_channel_equals_naive_mix():
    # unsmoothed counts of a set paired with itself give the identity,
    # which is a fixed point of the channel update, so it stays put
    task = _small_task()
    cfg = _config()
    p1, channel = train_confusion_method(task.clean, task.distant, task.clean, cfg,
                                         task.table, MethodOptions(alpha=0.0))
    p2 = train(merge(task.clean, task.distant), cfg, task.table)
    assert _params_equal(p1, p2)
    assert np.array_equal(channel.matrix, np.eye(task.clean.tag_set.size))


def test_trained_channel_stays_row_stochastic():
    task = _small_task()
    cfg = _config(epochs=3)
    params, channel = train_confusion_method(
        task.clean, task.distant, task.pair_source, cfg, task.table)
    # the ConfusionMatrix constructor revalidates row sums and positivity
    assert channel is not None
    assert np.abs(channel.matrix.sum(axis=1) - 1.0).max() < 1e-9
    params.check_finite()


def test_channel_gradient_matches_finite_differences():
    # one sentence scored through the channel: check both parameter and
    # channel-logit gradients against the numeric oracle
    import wsner.tagger as T

    task = _small_task()
    ts = task.clean.tag_set
    cfg = _config()
    rng = np.random.default_rng(3)
    params = T.init_params(rng, "lstm", task.table.dimension, 2, 3, ts.size)
    sent = task.distant.sentences[0]
    item = T.TrainItem(task.table.row_indices(sent.tokens), hard=ts.encode(sent), channel=True)
    X = task.table.embed_rows(item.rows)
    B = np.log(0.6 * np.eye(ts.size) + 0.4 / ts.size)
    workspace = nan_workspace(params)

    def loss_fn():
        return T._item_loss_grads(params, X, item, C=T._softmax(B), grads=workspace)[0]

    C = T._softmax(B)
    loss, grads, dC = T._item_loss_grads(params, X, item, C=C, grads=nan_workspace(params))
    s = (dC * C).sum(axis=1, keepdims=True)
    dB = C * (dC - s)
    arrays = [arr for _, arr in params.arrays()] + [B]
    numeric = finite_difference(loss_fn, arrays)
    analytic = [arr for _, arr in grads.arrays()] + [dB]
    assert max_relative_error(analytic, numeric) < 1e-4


# ---------------------------------------------------------------------------
# EM noise channel


def _em_inputs(task):
    """An untrained tagger, the items of the distant sentences and their
    stacked noisy label indices."""
    items = make_items(task.distant, task.table)
    params = init_params(np.random.default_rng(9), "lstm", task.table.dimension, 4, 4,
                         task.distant.tag_set.size)
    return params, items, np.concatenate([it.hard for it in items])


def test_em_step_keeps_the_identity_channel_with_one_hot_posteriors():
    # under the identity channel a token's only clean label is its noisy one
    task = _small_task()
    params, items, noisy = _em_inputs(task)
    L = task.distant.tag_set.size
    posteriors, channel, _ = _em_step(params, items, task.table, noisy, np.eye(L))
    assert np.array_equal(posteriors, np.eye(L)[noisy])
    assert np.array_equal(channel, np.eye(L))


def test_em_log_likelihood_monotone_with_frozen_model():
    task = _small_task()
    params, items, noisy = _em_inputs(task)
    L = task.distant.tag_set.size
    channel = (1.0 - EM_CHANNEL_ANCHOR) * np.eye(L) + EM_CHANNEL_ANCHOR / L
    lls = []
    for _ in range(9):
        _, channel, ll = _em_step(params, items, task.table, noisy, channel)
        lls.append(ll)
    assert (np.diff(lls) >= -1e-8).all()
    assert lls[-1] > lls[0]


def test_em_posteriors_are_distributions():
    # the E-step of the tagger and channel that two EM rounds produce
    task = _small_task()
    params, channel = em_noise_channel(task.distant, _config(epochs=1), task.table, 2)
    items = make_items(task.distant, task.table)
    noisy = np.concatenate([it.hard for it in items])
    posteriors, _, _ = _em_step(params, items, task.table, noisy, channel.matrix)
    assert posteriors.shape == (len(noisy), task.distant.tag_set.size)
    assert np.abs(posteriors.sum(axis=1) - 1.0).max() < 1e-9
    assert posteriors.min() >= 0


def test_em_step_raises_numerics_error_before_any_numpy_warning():
    # a channel that never emits an observed label gives that label's
    # tokens q = 0: 0 / 0 posteriors and log 0
    task = _small_task()
    params, items, noisy = _em_inputs(task)
    L = task.distant.tag_set.size
    label = int(noisy[noisy != O][0])
    channel = np.eye(L)
    channel[label] = np.eye(L)[O]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="non-finite log-likelihood"):
            _em_step(params, items, task.table, noisy, channel)


def test_em_requires_data():
    task = _small_task()
    with pytest.raises(ValueError):
        em_noise_channel(Dataset((), task.clean.tag_set), _config(),
                         task.table, 2)


# ---------------------------------------------------------------------------
# cleaning


def test_cleaner_learns_identity_on_clean_pairs():
    # distant equals gold: a converged cleaner copies its noisy input label
    rng = np.random.default_rng(4)
    L = 5
    n = 400
    feats = rng.normal(size=(n, 6))
    labels = rng.integers(0, L, size=n)
    inputs = cleaner_inputs(feats, labels, L)
    cleaner = train_cleaner(inputs[:300], labels[:300], L,
                            np.random.default_rng(0), hidden_size=16,
                            learning_rate=0.2, epochs=60)
    held_out = cleaner.apply(inputs[300:])
    agreement = (held_out.argmax(axis=1) == labels[300:]).mean()
    assert agreement >= 0.95


def _reference_cleaner(inputs, targets, L, rng, hidden_size, learning_rate):
    """One epoch of ``train_cleaner``'s SGD with a fresh outer product per
    update, as ``learning_rate * np.outer(...)``."""
    n, dim = inputs.shape
    w1 = rng.uniform(-1, 1, size=(hidden_size, dim)) / np.sqrt(dim)
    b1 = np.zeros(hidden_size)
    w2 = rng.uniform(-1, 1, size=(L, hidden_size)) / np.sqrt(hidden_size)
    b2 = np.zeros(L)
    for k in rng.permutation(n):
        z = inputs[k]
        a = np.tanh(w1 @ z + b1)
        logits = w2 @ a + b2
        e = np.exp(logits - logits.max())
        dlogits = e / e.sum()
        dlogits[targets[k]] -= 1.0
        dpre = (w2.T @ dlogits) * (1.0 - a ** 2)
        w2 -= learning_rate * np.outer(dlogits, a)
        b2 -= learning_rate * dlogits
        w1 -= learning_rate * np.outer(dpre, z)
        b1 -= learning_rate * dpre
    return w1, b1, w2, b2


def test_cleaner_is_bitwise_the_outer_product_loop():
    rng = np.random.default_rng(12)
    L = 4
    labels = rng.integers(0, L, size=7)
    inputs = cleaner_inputs(rng.normal(size=(7, 5)), labels, L)
    cleaner = train_cleaner(inputs, labels, L, np.random.default_rng(3), hidden_size=6,
                            learning_rate=0.3, epochs=1)
    want = _reference_cleaner(inputs, labels, L, np.random.default_rng(3), 6, 0.3)
    got = (cleaner.w1, cleaner.b1, cleaner.w2, cleaner.b2)
    for name, g, w in zip(("w1", "b1", "w2", "b2"), got, want):
        assert g.tobytes() == w.tobytes(), name


def test_cleaning_method_runs_and_is_deterministic():
    task = _small_task()
    cfg = _config(epochs=2)
    options = MethodOptions(cleaner_epochs=10)
    p1, c1 = train_cleaning_method(task.clean, task.distant, task.pair_source,
                                   cfg, task.table, options)
    p2, c2 = train_cleaning_method(task.clean, task.distant, task.pair_source,
                                   cfg, task.table, options)
    assert _params_equal(p1, p2)
    assert np.array_equal(c1.w1, c2.w1)


def test_feature_dependent_noise_favors_cleaning_over_confusion():
    # marked words get rotated labels; only a feature-aware cleaner can
    # undo that, a global channel cannot
    clean_acc = []
    conf_acc = []
    for seed in range(3):
        task = make_feature_noise_task(seed)
        cfg = TaggerConfig(hidden_size=12, feature_size=12,
                           learning_rate=0.05, epochs=5, seed=seed)
        p_clean, _ = train_cleaning_method(
            task.clean, task.distant, task.pair_source, cfg, task.table,
            MethodOptions(cleaner_hidden=24, cleaner_epochs=30))
        p_conf, _ = train_confusion_method(
            task.clean, task.distant, task.pair_source, cfg, task.table)
        clean_acc.append(token_accuracy(task.test, predict(task.test, p_clean, task.table)))
        conf_acc.append(token_accuracy(task.test, predict(task.test, p_conf, task.table)))
    assert np.mean(clean_acc) > np.mean(conf_acc)
