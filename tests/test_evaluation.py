import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsner.corpus import Dataset, EntitySpan, TagSet
from wsner.errors import AlignmentError
from wsner.evaluation import (
    PRF,
    format_report,
    mean_and_se,
    metrics_row,
    span_prf,
    token_accuracy,
)

from conftest import make_dataset, make_sentence, random_sentences


def _pair(gold_spans, pred_spans, n_tokens=8):
    tokens = tuple(f"t{i}" for i in range(n_tokens))
    gold = make_dataset([make_sentence(tokens, gold_spans)])
    pred = make_dataset([make_sentence(tokens, pred_spans)])
    return gold, pred


def test_perfect_prediction():
    gold, pred = _pair((EntitySpan("PER", 0, 2),), (EntitySpan("PER", 0, 2),))
    m = span_prf(gold, pred)
    assert (m.overall.precision, m.overall.recall, m.overall.f1) == (1.0, 1.0, 1.0)


def test_boundary_miss_scores_zero():
    gold, pred = _pair((EntitySpan("PER", 0, 2),), (EntitySpan("PER", 0, 1),))
    m = span_prf(gold, pred)
    assert m.overall.tp == 0
    assert m.overall.f1 == 0.0


def test_hand_counted_case():
    gold, pred = _pair(
        (EntitySpan("PER", 0, 1), EntitySpan("LOC", 2, 3)),
        (EntitySpan("PER", 0, 1), EntitySpan("LOC", 2, 3), EntitySpan("ORG", 4, 5)),
    )
    m = span_prf(gold, pred)
    assert m.overall.precision == pytest.approx(2 / 3)
    assert m.overall.recall == 1.0
    assert m.overall.f1 == pytest.approx(0.8)


def test_per_class_counts_add_up():
    gold, pred = _pair(
        (EntitySpan("PER", 0, 1), EntitySpan("LOC", 2, 4)),
        (EntitySpan("ORG", 0, 1), EntitySpan("LOC", 2, 4)),
    )
    m = span_prf(gold, pred)
    assert m.overall.tp == sum(c.tp for c in m.per_class.values())
    assert m.overall.predicted == sum(c.predicted for c in m.per_class.values())
    assert m.overall.gold == sum(c.gold for c in m.per_class.values())
    assert m.per_class["ORG"].precision == 0.0
    assert m.per_class["PER"].recall == 0.0


def test_alignment_errors_name_sentence():
    gold = make_dataset([make_sentence(("a", "b"))])
    pred = make_dataset([make_sentence(("a",))])
    with pytest.raises(AlignmentError, match="sentence 0"):
        span_prf(gold, pred)
    with pytest.raises(AlignmentError):
        span_prf(gold, make_dataset([]))


def test_zero_denominator_conventions():
    gold, pred = _pair((), ())
    m = span_prf(gold, pred)
    assert (m.overall.precision, m.overall.recall, m.overall.f1) == (0.0, 0.0, 0.0)


def test_token_accuracy():
    gold, pred = _pair((EntitySpan("PER", 0, 2),), (EntitySpan("PER", 0, 1),), 4)
    assert token_accuracy(gold, pred) == pytest.approx(3 / 4)


# ---------------------------------------------------------------------------
# aggregation


def _metrics_with_f1(f1):
    prf = PRF(0, 0, 0, 0.0, 0.0, f1)
    return type("R", (), {"overall": prf, "per_class": {}})()


def test_mean_and_se_hand_case():
    mean, se = mean_and_se([0.4, 0.6])
    assert mean == pytest.approx(0.5)
    assert se == pytest.approx(0.1)


def test_mean_and_se_single_run():
    assert mean_and_se([0.7]) == (0.7, 0.0)


def test_mean_and_se_identical_runs():
    assert mean_and_se([0.5, 0.5, 0.5])[1] == 0.0


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_self_score_is_perfect(seed):
    rng = np.random.default_rng(seed)
    ds = make_dataset(random_sentences(rng, 4, TagSet()))
    m = span_prf(ds, ds)
    if m.overall.gold > 0:
        assert (m.overall.precision, m.overall.recall, m.overall.f1) == (1.0, 1.0, 1.0)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_swap_duality(seed):
    rng = np.random.default_rng(seed)
    ts = TagSet()
    a_sents = random_sentences(rng, 4, ts)
    b_sents = [make_sentence(s.tokens, tuple(sp for sp in
               random_sentences(np.random.default_rng(seed + 1), 1, ts)[0].spans
               if sp.end <= len(s.tokens)))
               for s in a_sents]
    a = make_dataset(a_sents)
    b = make_dataset(b_sents)
    assert span_prf(a, b).overall.precision == span_prf(b, a).overall.recall
    assert span_prf(a, b).overall.recall == span_prf(b, a).overall.precision


def test_micro_counts_additive_over_sentences():
    rng = np.random.default_rng(17)
    ts = TagSet()
    gold_sents = random_sentences(rng, 6, ts)
    pred_sents = random_sentences(rng, 6, ts)
    pred_sents = [make_sentence(g.tokens, tuple(sp for sp in p.spans
                                                if sp.end <= len(g.tokens)))
                  for g, p in zip(gold_sents, pred_sents)]
    whole = span_prf(make_dataset(gold_sents), make_dataset(pred_sents))
    tp = pred = gold = 0
    for g, p in zip(gold_sents, pred_sents):
        m = span_prf(make_dataset([g]), make_dataset([p]))
        tp += m.overall.tp
        pred += m.overall.predicted
        gold += m.overall.gold
    assert (whole.overall.tp, whole.overall.predicted, whole.overall.gold) == (tp, pred, gold)


def test_report_formatting_rounds_to_integers():
    gold, pred = _pair((EntitySpan("PER", 0, 1), EntitySpan("LOC", 2, 3)),
                       (EntitySpan("PER", 0, 1),))
    report = format_report(span_prf(gold, pred))
    assert "Overall" in report and "100" in report and "50" in report


def test_metrics_row_full_precision():
    gold, pred = _pair((EntitySpan("PER", 0, 1), EntitySpan("LOC", 2, 3)),
                       (EntitySpan("PER", 0, 1),))
    row = metrics_row(span_prf(gold, pred), TagSet())
    assert row["overall_recall"] == repr(0.5)
    assert float(row["overall_f1"]) == pytest.approx(2 / 3)
