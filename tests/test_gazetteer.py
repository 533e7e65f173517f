import itertools
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsner.corpus import Dataset, EntitySpan, LabeledSentence, TagSet
from wsner.date_rules import DateRuleSet
from wsner.errors import ParseError, SchemaError
from wsner.gazetteer import (
    DEFAULT_PRIORITY,
    GazetteerEntry,
    annotate_distant,
    build_gazetteer,
    match_sentence,
    read_entity_tsv,
    write_entity_tsv,
)
from wsner.textnorm import canonical, strip_diacritics

from conftest import make_dataset, make_sentence
from support import DIGITS_ONLY


def entry(surface, label, source="wikidata"):
    return GazetteerEntry(tuple(surface.split(" ")), label, source)


# ---------------------------------------------------------------------------
# building


def test_min_length_filter():
    gaz = build_gazetteer(
        [entry("Ng", "PER"), entry("A", "PER")], {"wikidata": 2})
    assert len(gaz) == 1
    assert match_sentence(["Ng"], gaz) == [EntitySpan("PER", 0, 1)]
    assert match_sentence(["A"], gaz) == []


@pytest.mark.parametrize("min_len, default_min_len, message", [
    ({"wikidata": 0}, 1, "min_len for 'wikidata' must be >= 1"),
    ({}, 0, "default_min_len must be >= 1"),
    ({}, -3, "default_min_len must be >= 1"),
])
def test_min_length_below_one_is_refused(min_len, default_min_len, message):
    with pytest.raises(ValueError, match=message):
        build_gazetteer([entry("Ade", "PER")], min_len, default_min_len=default_min_len)


def test_nigerian_names_min_three():
    gaz = build_gazetteer(
        [entry("Ade", "PER", "nigerian"), entry("Ad", "PER", "nigerian")],
        {"nigerian": 3})
    assert match_sentence(["Ade"], gaz) == [EntitySpan("PER", 0, 1)]
    assert match_sentence(["Ad"], gaz) == []


def test_min_length_counts_joined_surface_without_spaces():
    # "Ab Cd" counts 4 characters, spaces excluded
    gaz = build_gazetteer([entry("Ab Cd", "LOC")], {"wikidata": 5})
    assert match_sentence(["Ab", "Cd"], gaz) == []
    gaz = build_gazetteer([entry("Ab Cd", "LOC")], {"wikidata": 4})
    assert match_sentence(["Ab", "Cd"], gaz) == [EntitySpan("LOC", 0, 2)]


def test_min_length_ignores_combining_marks():
    gaz = build_gazetteer([entry("Ọjọ́", "PER")], {"wikidata": 4})
    assert match_sentence(["Ọjọ́"], gaz) == []


def test_empty_gazetteer_matches_nothing():
    gaz = build_gazetteer([])
    assert len(gaz) == 0
    assert match_sentence(["New", "York"], gaz) == []


def test_unknown_type_rejected():
    with pytest.raises(SchemaError):
        build_gazetteer([entry("Kano", "CITY")])


def test_duplicates_collapse():
    gaz = build_gazetteer([entry("Kano", "LOC"), entry("Kano", "LOC")])
    assert len(gaz) == 1


def test_normalization_flags():
    gaz = build_gazetteer([entry("Adé", "PER")], lowercase=True, strip_marks=True)
    assert match_sentence(["ADE"], gaz) == [EntitySpan("PER", 0, 1)]
    gaz = build_gazetteer([entry("Adé", "PER")])
    assert match_sentence(["ADE"], gaz) == []


# ---------------------------------------------------------------------------
# matching


def test_longest_match_wins():
    gaz = build_gazetteer([entry("New York", "LOC"), entry("New York City", "LOC")])
    assert match_sentence(["New", "York", "City"], gaz) == [EntitySpan("LOC", 0, 3)]


def test_scan_resumes_after_match():
    gaz = build_gazetteer([entry("New York", "LOC"), entry("York City", "ORG")])
    assert match_sentence(["New", "York", "City"], gaz) == [EntitySpan("LOC", 0, 2)]


def test_equal_length_conflict_uses_priority():
    gaz = build_gazetteer([entry("Washington", "LOC"), entry("Washington", "PER")])
    assert match_sentence(["Washington"], gaz) == [EntitySpan("PER", 0, 1)]


def test_equal_length_label_resolution_ignores_insertion_order():
    # DATE and MISC are not in DEFAULT_PRIORITY: they rank after it,
    # alphabetically; a repeated pair is stored once
    tag_set = TagSet(("PER", "LOC", "ORG", "DATE", "MISC"))
    for k in range(1, len(tag_set.entity_types) + 1):
        for labels in itertools.combinations(tag_set.entity_types, k):
            want = [EntitySpan(min(labels, key=_rank), 1, 3), EntitySpan("PER", 3, 4)]
            for order in itertools.permutations(labels):
                entries = [entry("Ade Ola", label) for label in order + order[:1]]
                gaz = build_gazetteer(entries + [entry("Ade", "ORG"), entry("Ola", "PER")],
                                      tag_set=tag_set)
                assert len(gaz) == k + 2, order
                assert match_sentence(["x", "Ade", "Ola", "Ola"], gaz) == want, order


def _rank(label):
    priority = DEFAULT_PRIORITY
    return (priority.index(label), "") if label in priority else (len(priority), label)


def brute_force_match(tokens, surfaces):
    """Window-enumeration oracle for the same greedy longest-match rule."""
    n = len(tokens)
    spans = []
    i = 0
    while i < n:
        hit = None
        for j in range(n, i, -1):
            labels = surfaces.get(tuple(tokens[i:j]))
            if labels:
                hit = (j, min(labels, key=_rank))
                break
        if hit is None:
            i += 1
        else:
            spans.append(EntitySpan(hit[1], i, hit[0]))
            i = hit[0]
    return spans


def _random_setup(rng, vocab=50, n_entries=30):
    types = ("PER", "ORG", "LOC", "DATE")
    surfaces = {}
    entries = []
    for _ in range(n_entries):
        length = int(rng.integers(1, 4))
        surface = tuple(f"v{int(rng.integers(vocab))}" for _ in range(length))
        label = types[int(rng.integers(len(types)))]
        entries.append(GazetteerEntry(surface, label, "src"))
        surfaces.setdefault(surface, set()).add(label)
    return entries, surfaces


def test_match_equals_brute_force_oracle():
    rng = np.random.default_rng(42)
    entries, surfaces = _random_setup(rng)
    gaz = build_gazetteer(entries)
    for _ in range(300):
        n = int(rng.integers(1, 21))
        tokens = [f"v{int(rng.integers(50))}" for _ in range(n)]
        assert match_sentence(tokens, gaz) == brute_force_match(tokens, surfaces)


def test_adding_entries_never_decreases_matched_tokens():
    rng = np.random.default_rng(7)
    entries, _ = _random_setup(rng, n_entries=40)
    sentences = [[f"v{int(rng.integers(50))}" for _ in range(10)] for _ in range(50)]

    def matched_tokens(gaz):
        return sum(sp.end - sp.start for s in sentences for sp in match_sentence(s, gaz))

    counts = []
    for k in (10, 20, 30, 40):
        counts.append(matched_tokens(build_gazetteer(entries[:k])))
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# distant annotation


def test_annotate_distant_merges_gazetteer_and_dates():
    gaz = build_gazetteer([entry("Kano", "LOC")])
    rules = DateRuleSet.from_keywords(["odun"])
    ds = make_dataset([make_sentence(("Kano", "odun", "2018"))])
    out = annotate_distant(ds, gaz, rules)
    assert out.sentences[0].spans == (
        EntitySpan("LOC", 0, 1), EntitySpan("DATE", 1, 3))
    assert out.sentences[0].provenance == "distant"


def test_annotate_distant_tie_prefers_non_date():
    # "May" is both a PER entry and a date keyword at the same position
    gaz = build_gazetteer([entry("May", "PER")])
    rules = DateRuleSet.from_keywords(["may"])
    ds = make_dataset([make_sentence(("May",))])
    out = annotate_distant(ds, gaz, rules)
    assert out.sentences[0].spans == (EntitySpan("PER", 0, 1),)


def test_annotate_distant_earlier_start_wins():
    gaz = build_gazetteer([entry("b c", "PER")])
    rules = DateRuleSet.from_keywords(["a"])
    # date span (0,2) starts earlier than the PER span (1,3)
    ds = make_dataset([make_sentence(("a", "b", "c"))])
    out = annotate_distant(ds, gaz, rules)
    assert out.sentences[0].spans == (EntitySpan("DATE", 0, 2),)


def test_annotate_distant_longer_wins_on_same_start():
    gaz = build_gazetteer([entry("odun meji", "PER")])
    rules = DateRuleSet.from_keywords(["odun"])
    ds = make_dataset([make_sentence(("odun", "meji", "x"))])
    out = annotate_distant(ds, gaz, rules)
    # both candidates start at 0 and have length 2; PER beats DATE
    assert out.sentences[0].spans == (EntitySpan("PER", 0, 2),)


def test_annotate_distant_output_never_overlaps():
    rng = np.random.default_rng(11)
    entries, _ = _random_setup(rng)
    gaz = build_gazetteer(entries)
    rules = DateRuleSet.from_keywords(["v1", "v2"])
    sentences = [make_sentence(tuple(f"v{int(rng.integers(50))}" for _ in range(12)))
                 for _ in range(100)]
    out = annotate_distant(make_dataset(sentences), gaz, rules)
    for sent in out.sentences:
        for a, b in zip(sent.spans, sent.spans[1:]):
            assert a.end <= b.start


def reference_annotation(tokens, entries, rules, lowercase, strip_marks):
    """``annotate_distant`` rebuilt on the uncached normalisers: brute-force
    longest match, keyword/follower/digit marking, then the merge order."""
    def norm(token):
        if strip_marks:
            token = strip_diacritics.__wrapped__(token)
        return token.lower() if lowercase else token

    surfaces = {}
    for e in entries:
        surfaces.setdefault(tuple(norm(t) for t in e.surface), set()).add(e.label)
    names = brute_force_match([norm(t) for t in tokens], surfaces)
    is_kw = [canonical.__wrapped__(t) in rules.keywords for t in tokens]
    marked = [is_kw[i] or (i > 0 and is_kw[i - 1])
              or DIGITS_ONLY.fullmatch(t) is not None
              for i, t in enumerate(tokens)]
    dates, i = [], 0
    while i < len(tokens):
        if marked[i]:
            j = i
            while j < len(tokens) and marked[j]:
                j += 1
            dates.append(EntitySpan(rules.date_label, i, j))
            i = j
        else:
            i += 1

    def rank(span):
        return (span.start, span.start - span.end, span.label == rules.date_label,
                _rank(span.label))

    kept, last_end = [], 0
    for span in sorted(names + dates, key=rank):
        if span.start >= last_end:
            kept.append(span)
            last_end = span.end
    return tuple(kept)


# words of the generated tokens: tone marks, under-dots, date keywords,
# digits and mixed digit tokens
_WORDS = ("ọdún", "odun", "ọjọ́", "oṣù", "Adé", "ade", "Ọlá", "Ìbàdàn", "Ibadan",
          "Kàno", "ilé", "2018", "8", "8th", "ẹ̀ẹ̀kan")
_FORMS = (lambda w: unicodedata.normalize("NFC", w), lambda w: unicodedata.normalize("NFD", w),
          str.upper, str.lower, str.capitalize, lambda w: strip_diacritics.__wrapped__(w))
_mixed_token = st.builds(lambda w, f: f(w), st.sampled_from(_WORDS), st.sampled_from(_FORMS))
_ENTRIES = [entry(s, label) for s, label in (
    ("Adé", "PER"), ("Ade Ọlá", "PER"), ("ỌLÁ", "ORG"), ("Ìbàdàn", "LOC"), ("ibadan", "LOC"),
    ("Kàno ilé", "ORG"), ("Kàno", "LOC"), ("ọdún", "PER"), ("2018", "ORG"))]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_mixed_token, min_size=1, max_size=12), min_size=1, max_size=4),
       st.booleans(), st.booleans())
def test_annotate_distant_equals_uncached_reference(sentences, lowercase, strip_marks):
    gaz = build_gazetteer(_ENTRIES, lowercase=lowercase, strip_marks=strip_marks)
    rules = DateRuleSet.from_keywords(["odun", "ojo", "osu"])
    want = [reference_annotation(s, _ENTRIES, rules, lowercase, strip_marks)
            for s in sentences]
    data = make_dataset([make_sentence(s) for s in sentences])
    canonical.cache_clear()
    strip_diacritics.cache_clear()
    for _ in range(2):  # cold memo, then warm
        out = annotate_distant(data, gaz, rules)
        assert [s.spans for s in out.sentences] == want
        assert [s.tokens for s in out.sentences] == [tuple(s) for s in sentences]


# ---------------------------------------------------------------------------
# TSV


def test_entity_tsv_round_trip(tmp_path):
    entries = [entry("New York", "LOC"), entry("Ade", "PER", "nigerian")]
    path = tmp_path / "ents.tsv"
    write_entity_tsv(entries, path)
    assert read_entity_tsv(path) == entries


def test_entity_tsv_errors(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only two\tfields\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":1"):
        read_entity_tsv(path)
    path.write_text("Kano\tCITY\twikidata\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_entity_tsv(path)
    for surface in ("Adé  Ojo", " Adé", "Adé "):
        path.write_text(f"Kano\tLOC\twikidata\n{surface}\tPER\tkb\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"bad.tsv:2: empty token in surface {surface!r}"):
            read_entity_tsv(path)
