import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsner.corpus import EntitySpan
from wsner.date_rules import DateRuleSet, annotate_dates, default_date_rules
from wsner.errors import ParseError
from wsner.textnorm import canonical, strip_diacritics

from support import DIGITS_ONLY


def test_strip_diacritics_yoruba():
    assert strip_diacritics("ọjọ́") == "ojo"
    assert strip_diacritics("Ọpẹ̀") == "Ope"
    assert canonical("Ọpẹ̀") == "ope"


def test_default_rules_have_eleven_keywords():
    rules = default_date_rules()
    assert len(rules.keywords) == 11
    assert "ojo" in rules.keywords and "aago" in rules.keywords


def test_paper_style_date_expression():
    # "8th of December, 2018": every content token is DATE, the comma is not
    tokens = ["ọjọ́", "8", "oṣù", "Ọpẹ̀", ",", "ọdún", "2018"]
    spans = annotate_dates(tokens, default_date_rules())
    assert spans == [EntitySpan("DATE", 0, 4), EntitySpan("DATE", 5, 7)]


def test_no_keywords_no_digits():
    rules = DateRuleSet.from_keywords(["odun"])
    assert annotate_dates(["owo", "ile"], rules) == []


def test_digit_rule_alone():
    rules = DateRuleSet.from_keywords(["odun"])
    assert annotate_dates(["2018"], rules) == [EntitySpan("DATE", 0, 1)]
    # mixed tokens are not digits
    assert annotate_dates(["8th"], rules) == []


MIXED_DIGIT_STRINGS = ["٣", "²", "１", "8th", "", "2018", "08:30", "0", "1٣", "12²", "٣٣", "-1"]


def test_digit_rule_is_the_ascii_digit_pattern():
    # isascii() and isdigit() is the rule annotate_dates applies
    strings = [chr(cp) for cp in range(sys.maxunicode + 1)] + MIXED_DIGIT_STRINGS
    assert ([s for s in strings if s.isascii() and s.isdigit()]
            == [s for s in strings if DIGITS_ONLY.fullmatch(s)])
    # and annotate_dates marks exactly those: every code point that is
    # ASCII or numeric in any sense, and the mixed strings, as lone tokens
    rules = DateRuleSet.from_keywords([])
    candidates = [s for s in strings if s.isascii() or s.isnumeric()]
    marked = [s for s in candidates if annotate_dates([s], rules)]
    assert marked == [s for s in candidates if DIGITS_ONLY.fullmatch(s)]
    assert marked[:10] == list("0123456789")


def test_follows_keyword_is_distance_one_only():
    rules = DateRuleSet.from_keywords(["odun"])
    spans = annotate_dates(["odun", "yi", "gan"], rules)
    assert spans == [EntitySpan("DATE", 0, 2)]


def test_keyword_file_loading(tmp_path):
    path = tmp_path / "kw.txt"
    path.write_text("# comment\nọdún\n\naago\n", encoding="utf-8")
    rules = DateRuleSet.load(path)
    assert rules.keywords == frozenset({"odun", "aago"})
    bad = tmp_path / "bad.txt"
    bad.write_text("two words\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":1"):
        DateRuleSet.load(bad)


def test_compiled_digit_rule_pickles_and_stays_out_of_equality():
    rules = default_date_rules()
    back = pickle.loads(pickle.dumps(rules))
    assert back == rules and hash(back) == hash(rules)
    assert back.date_label == "DATE"
    tokens = ["ọdún", "x", "2018", "ni", "8th"]
    assert annotate_dates(tokens, back) == [EntitySpan("DATE", 0, 3)]


def test_spans_are_maximal_runs():
    rules = DateRuleSet.from_keywords(["odun"])
    spans = annotate_dates(["odun", "2018", "ni", "odun", "to"], rules)
    assert spans == [EntitySpan("DATE", 0, 2), EntitySpan("DATE", 3, 5)]
    for a, b in zip(spans, spans[1:]):
        assert a.end < b.start  # never adjacent


_token = st.text(
    alphabet=st.sampled_from("abọdẹúKT2018-"), min_size=1, max_size=6
).filter(lambda t: not any(ch.isspace() for ch in t))


@given(st.lists(_token, min_size=1, max_size=10),
       st.lists(st.sampled_from(["ojo", "osu", "odun", "aago"]), max_size=4))
def test_removing_keywords_never_adds_date_tokens(tokens, kws):
    full = DateRuleSet.from_keywords(kws)
    marked_full = _marked_tokens(tokens, full)
    for drop in kws:
        fewer = DateRuleSet.from_keywords([k for k in kws if k != drop])
        assert _marked_tokens(tokens, fewer) <= marked_full


@given(st.lists(st.sampled_from(["ọdún", "ODUN", "odun", "ilé", "owó", "31"]),
                min_size=1, max_size=8))
def test_diacritic_and_case_insensitivity(tokens):
    rules = default_date_rules()
    plain = [canonical(t) for t in tokens]
    assert annotate_dates(tokens, rules) == annotate_dates(plain, rules)


def _marked_tokens(tokens, rules):
    out = set()
    for span in annotate_dates(tokens, rules):
        out.update(range(span.start, span.end))
    return out
