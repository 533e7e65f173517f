import numpy as np
import pytest

from wsner.corpus import Dataset, EntitySpan, LabeledSentence, TagSet, check_aligned, merge
from wsner.errors import AlignmentError, EstimationError, ParseError, SchemaError
from wsner.noise import (
    ConfusionMatrix,
    MethodOptions,
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
from wsner.tagger import TaggerConfig, predict, train

from gradcheck import finite_difference, max_relative_error
from support import (
    RECOVERY_CHANNEL,
    make_feature_noise_task,
    make_noise_benchmark,
    token_accuracy,
)

LABELS = ("O", "PER", "ORG", "LOC", "DATE")
O, PER, ORG, LOC = 0, 1, 2, 3
NONE = np.zeros(0, dtype=np.int64)


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


def _fit_without_distant(method):
    """``fit`` with an empty distant set, which must never need pairs."""
    task = _small_task()
    cfg = _config()
    empty = Dataset((), task.clean.tag_set)

    def no_pairs():
        raise AssertionError("pair_source called without distant sentences")

    result = fit(method, task.clean, empty, cfg, task.table, MethodOptions(), no_pairs)
    return result, train(task.clean, cfg, task.table)


def test_empty_distant_reduces_to_plain_training():
    result, plain = _fit_without_distant("confusion")
    assert result.channel is None
    assert _params_equal(result.params, plain)


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
    X = task.table.embed(sent.tokens)
    item = T.TrainItem(X, hard=ts.encode(sent), channel=True)
    B = np.log(0.6 * np.eye(ts.size) + 0.4 / ts.size)

    def loss_fn():
        return T._item_loss_grads(params, X, item, C=T._softmax(B))[0]

    C = T._softmax(B)
    loss, grads, dC = T._item_loss_grads(params, X, item, C=C)
    s = (dC * C).sum(axis=1, keepdims=True)
    dB = C * (dC - s)
    arrays = [arr for _, arr in params.arrays()] + [B]
    numeric = finite_difference(loss_fn, arrays)
    analytic = [arr for _, arr in grads.arrays()] + [dB]
    assert max_relative_error(analytic, numeric) < 1e-4


# ---------------------------------------------------------------------------
# EM noise channel


def test_em_identity_channel_one_iteration_is_supervised():
    # the identity is a fixed point of the channel update, so it stays put
    task = _small_task()
    cfg = _config(epochs=1)
    labels = task.clean.tag_set.labels
    ident = ConfusionMatrix(labels, np.eye(len(labels)))
    p_em, state = em_noise_channel(task.distant, cfg, task.table, 1,
                                   channel_init=ident)
    p_plain = train(task.distant, cfg, task.table)
    assert _params_equal(p_em, p_plain)
    assert np.array_equal(state.channel.matrix, ident.matrix)
    # identity channel makes the posterior exactly one-hot at the noisy label
    assert set(np.unique(state.posteriors)) == {0.0, 1.0}


def test_em_log_likelihood_monotone_with_frozen_model():
    task = _small_task()
    cfg = _config(epochs=1)
    _, state = em_noise_channel(task.distant, cfg, task.table, 9,
                                train_model=False)
    lls = np.array(state.log_likelihoods)
    assert (np.diff(lls) >= -1e-8).all()


def test_em_posteriors_are_distributions():
    task = _small_task()
    cfg = _config(epochs=1)
    _, state = em_noise_channel(task.distant, cfg, task.table, 2)
    assert np.abs(state.posteriors.sum(axis=1) - 1.0).max() < 1e-9
    assert state.posteriors.min() >= 0
    assert len(state.log_likelihoods) == 2  # one per iteration


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
    result, plain = _fit_without_distant("cleaning")
    assert result.channel is None
    assert _params_equal(result.params, plain)


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
