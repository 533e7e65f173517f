import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsner.corpus import Dataset, TagSet, merge
from wsner.errors import EstimationError, ParseError, SchemaError
from wsner.noise import (
    CleaningParams,
    ConfusionMatrix,
    NoiseChannelState,
    cleaner_inputs,
    em_noise_channel,
    estimate_confusion,
    load_confusion,
    noisy_forward,
    save_confusion,
    token_pairs,
    train_cleaner,
    train_cleaning_method,
    train_confusion_method,
)
from wsner.tagger import TaggerConfig, train
from wsner import synth

from gradcheck import finite_difference, max_relative_error

LABELS = ("O", "PER", "ORG", "LOC", "DATE")


# ---------------------------------------------------------------------------
# confusion matrix estimation


def test_identity_when_clean_equals_noisy():
    pairs = [("PER", "PER"), ("O", "O"), ("LOC", "LOC")] * 5
    cm = estimate_confusion(pairs, LABELS, alpha=0.0)
    assert np.array_equal(cm.matrix, np.eye(5))


def test_direct_counting():
    pairs = [("O", "O"), ("O", "LOC"), ("PER", "PER")]
    cm = estimate_confusion(pairs, LABELS, alpha=0.0)
    assert cm.matrix[LABELS.index("O")][LABELS.index("O")] == 0.5
    assert cm.matrix[LABELS.index("O")][LABELS.index("LOC")] == 0.5
    assert cm.matrix[LABELS.index("PER")][LABELS.index("PER")] == 1.0
    # unobserved rows default to identity
    assert cm.matrix[LABELS.index("ORG")][LABELS.index("ORG")] == 1.0


def test_smoothing():
    cm = estimate_confusion([("O", "O")], LABELS, alpha=1.0)
    assert cm.matrix[LABELS.index("O")][0] == pytest.approx(2 / 6)
    assert cm.matrix[LABELS.index("PER")][1] == pytest.approx(1 / 5)


def test_empty_pairs_require_smoothing():
    with pytest.raises(EstimationError):
        estimate_confusion([], LABELS, alpha=0.0)
    cm = estimate_confusion([], LABELS, alpha=1.0)
    assert np.allclose(cm.matrix, 1 / 5)


def test_unknown_label_in_pair():
    with pytest.raises(SchemaError):
        estimate_confusion([("XYZ", "O")], LABELS)


def test_channel_recovery_from_samples():
    rng = np.random.default_rng(0)
    true = synth.RECOVERY_CHANNEL
    clean = rng.integers(0, 5, size=10000)
    cum = true.cumsum(axis=1)
    noisy = np.array([np.searchsorted(cum[t], rng.random(), side="right")
                      for t in clean])
    pairs = [(LABELS[a], LABELS[min(b, 4)]) for a, b in zip(clean, noisy)]
    cm = estimate_confusion(pairs, LABELS, alpha=0.0)
    row_err = np.abs(cm.matrix - true).sum(axis=1)
    assert row_err.max() < 0.05


def test_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(LABELS, np.ones((5, 5)))
    with pytest.raises(ValueError):
        ConfusionMatrix(LABELS, np.eye(4))


def test_serialization_round_trip(tmp_path):
    cm = estimate_confusion([("O", "PER"), ("O", "O")], LABELS, alpha=0.5)
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
# noisy_forward


def test_noisy_forward_identity():
    dist = np.array([0.2, 0.3, 0.1, 0.25, 0.15])
    cm = ConfusionMatrix.identity(LABELS)
    assert np.array_equal(noisy_forward(dist, cm), dist)


def test_noisy_forward_one_hot_selects_row():
    cm = ConfusionMatrix(LABELS, synth.RECOVERY_CHANNEL)
    onehot = np.zeros(5)
    onehot[2] = 1.0
    assert np.allclose(noisy_forward(onehot, cm), cm.matrix[2])


def test_noisy_forward_uniform_gives_column_means():
    cm = ConfusionMatrix(LABELS, synth.RECOVERY_CHANNEL)
    out = noisy_forward(np.full(5, 0.2), cm)
    assert np.allclose(out, cm.matrix.mean(axis=0))


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_noisy_forward_maps_simplex_to_simplex(seed):
    rng = np.random.default_rng(seed)
    dist = rng.random(5)
    dist /= dist.sum()
    rows = rng.random((5, 5)) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    out = noisy_forward(dist, ConfusionMatrix(LABELS, rows))
    assert out.min() >= 0
    assert abs(out.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# channel-composed training


def _small_task(seed=0):
    return synth.make_noise_benchmark(
        seed, clean_tokens=60, noisy_tokens=200, test_tokens=60,
        entity_words=12, outside_words=12)


def _config(**kw):
    base = dict(hidden_size=4, feature_size=4, learning_rate=0.05, epochs=2, seed=9)
    base.update(kw)
    return TaggerConfig(**base)


def _params_equal(a, b):
    return all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.arrays(), b.arrays()))


def test_token_pairs_alignment():
    task = _small_task()
    pairs = token_pairs(task.clean, task.pair_source)
    assert len(pairs) == task.clean.num_tokens
    with pytest.raises(Exception):
        token_pairs(task.clean, task.distant)


def test_empty_distant_reduces_to_plain_training():
    task = _small_task()
    cfg = _config()
    empty = Dataset((), task.clean.tag_set)
    p1, ch = train_confusion_method(task.clean, empty, None, cfg, task.table)
    p2 = train(task.clean, cfg, task.table)
    assert ch is None
    assert _params_equal(p1, p2)


def test_identity_frozen_channel_equals_naive_mix():
    task = _small_task()
    cfg = _config()
    ident = ConfusionMatrix.identity(task.clean.tag_set.labels)
    p1, _ = train_confusion_method(task.clean, task.distant, None, cfg,
                                   task.table, channel=ident,
                                   train_channel=False)
    p2 = train(merge(task.clean, task.distant), cfg, task.table)
    assert _params_equal(p1, p2)


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
    X = task.table.embed(sent.tokens)
    item = T.TrainItem(X, hard=T.hard_targets(sent, ts), channel=True)
    B = np.log(ConfusionMatrix.uniform_mix(ts.labels, 0.4).matrix)

    def loss_fn():
        C = T._softmax(B)
        loss, _, _ = T._item_loss_grads(params, X, item, C=C,
                                        want_channel_grad=True)
        return loss

    C = T._softmax(B)
    loss, grads, dC = T._item_loss_grads(params, X, item, C=C,
                                         want_channel_grad=True)
    s = (dC * C).sum(axis=1, keepdims=True)
    dB = C * (dC - s)
    arrays = [arr for _, arr in params.arrays()] + [B]
    numeric = finite_difference(loss_fn, arrays)
    analytic = [arr for _, arr in grads.arrays()] + [dB]
    assert max_relative_error(analytic, numeric) < 1e-4


# ---------------------------------------------------------------------------
# EM noise channel


def test_em_identity_frozen_one_iteration_is_supervised():
    task = _small_task()
    cfg = _config(epochs=1)
    ident = ConfusionMatrix.identity(task.clean.tag_set.labels)
    p_em, state = em_noise_channel(task.distant, cfg, task.table, 1,
                                   channel_init=ident, train_channel=False)
    p_plain = train(task.distant, cfg, task.table)
    assert _params_equal(p_em, p_plain)
    # identity channel makes the posterior exactly one-hot at the noisy label
    assert set(np.unique(state.posteriors)) == {0.0, 1.0}


def test_em_log_likelihood_monotone_with_frozen_model():
    task = _small_task()
    cfg = _config(epochs=1)
    _, state = em_noise_channel(task.distant, cfg, task.table, 8,
                                train_model=False)
    lls = np.array(state.log_likelihoods)
    assert (np.diff(lls) >= -1e-8).all()


def test_em_posteriors_are_distributions():
    task = _small_task()
    cfg = _config(epochs=1)
    _, state = em_noise_channel(task.distant, cfg, task.table, 2)
    assert np.abs(state.posteriors.sum(axis=1) - 1.0).max() < 1e-9
    assert state.posteriors.min() >= 0
    assert len(state.log_likelihoods) == 3  # one per iteration plus final


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


def test_cleaning_method_empty_distant_reduces_to_plain_training():
    task = _small_task()
    cfg = _config()
    empty = Dataset((), task.clean.tag_set)
    p1, cleaner = train_cleaning_method(task.clean, empty, None, cfg, task.table)
    assert cleaner is None
    assert _params_equal(p1, train(task.clean, cfg, task.table))


def test_cleaning_method_runs_and_is_deterministic():
    task = _small_task()
    cfg = _config(epochs=2)
    p1, c1 = train_cleaning_method(task.clean, task.distant, task.pair_source,
                                   cfg, task.table, cleaner_epochs=10)
    p2, c2 = train_cleaning_method(task.clean, task.distant, task.pair_source,
                                   cfg, task.table, cleaner_epochs=10)
    assert _params_equal(p1, p2)
    assert np.array_equal(c1.w1, c2.w1)


def test_feature_dependent_noise_favors_cleaning_over_confusion():
    # marked words get rotated labels; only a feature-aware cleaner can
    # undo that, a global channel cannot
    from wsner.evaluation import token_accuracy
    from wsner.tagger import predict

    clean_acc = []
    conf_acc = []
    for seed in range(3):
        task = synth.make_feature_noise_task(seed)
        cfg = TaggerConfig(hidden_size=12, feature_size=12,
                           learning_rate=0.05, epochs=5, seed=seed)
        p_clean, _ = train_cleaning_method(
            task.clean, task.distant, task.pair_source, cfg, task.table,
            cleaner_hidden=24, cleaner_epochs=30)
        p_conf, _ = train_confusion_method(
            task.clean, task.distant, task.pair_source, cfg, task.table)
        clean_acc.append(token_accuracy(task.test, predict(task.test, p_clean, task.table)))
        conf_acc.append(token_accuracy(task.test, predict(task.test, p_conf, task.table)))
    assert np.mean(clean_acc) > np.mean(conf_acc)
