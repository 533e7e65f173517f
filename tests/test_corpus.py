import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wsner import date_rules, gazetteer, noise, tagger
from wsner.corpus import (
    Dataset,
    EntitySpan,
    LabeledSentence,
    TagSet,
    bio_to_spans,
    has_whitespace,
    io_to_spans,
    merge,
    read_conll,
    read_json,
    read_tokens,
    spans_to_bio,
    subsample_tokens,
    write_conll,
)
from wsner.errors import ParseError, SchemaError

from conftest import make_dataset, make_sentence, random_sentences
from support import (frozen_bio_to_spans, frozen_io_to_spans, line_loop_read_tokens,
                     per_token_write_conll)


# ---------------------------------------------------------------------------
# types


def test_tag_set_defaults():
    ts = TagSet()
    assert ts.labels == ("O", "PER", "ORG", "LOC", "DATE")
    assert ts.size == 5
    assert ts.index("O") == 0
    assert ts.index("PER") == 1


def test_tag_set_rejects_duplicates_and_outside_clash():
    with pytest.raises(SchemaError):
        TagSet(("PER", "PER"))
    with pytest.raises(SchemaError):
        TagSet(("PER", "O"))
    with pytest.raises(SchemaError, match="entity types must be a list, not a string"):
        TagSet("PER")  # not the labels P, E and R
    with pytest.raises(SchemaError):
        TagSet().index("XYZ")


@pytest.mark.parametrize("label", ["A B", " LOC", "PER\t", "LOC\u00a0", ""])
def test_tag_set_refuses_an_empty_label_or_one_with_whitespace(label):
    # "A B" would be written as two labels in a channel file's header
    with pytest.raises(SchemaError) as err:
        TagSet(("PER", label))
    assert str(err.value) == f"label is empty or contains whitespace: {label!r}"


def test_span_validation():
    with pytest.raises(SchemaError):
        EntitySpan("PER", 2, 2)
    with pytest.raises(SchemaError):
        EntitySpan("PER", -1, 1)


def test_sentence_rejects_overlap_and_bad_tokens():
    with pytest.raises(SchemaError):
        make_sentence(("a", "b"), (EntitySpan("PER", 0, 2), EntitySpan("LOC", 1, 2)))
    with pytest.raises(SchemaError):
        make_sentence(("a", ""),)
    with pytest.raises(SchemaError):
        make_sentence(("a b",))
    with pytest.raises(SchemaError):
        make_sentence(("a",), (EntitySpan("PER", 0, 2),))


def test_whitespace_check_agrees_with_isspace_on_every_code_point():
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    assert [ch for ch in chars if has_whitespace(ch)] == [ch for ch in chars if ch.isspace()]
    assert has_whitespace("ab\u2028c") and not has_whitespace("ọjọ́")


@pytest.mark.parametrize("bad", ["b c", "b\u00a0c", "b\u3000", "\tb", ""])
def test_sentence_names_the_offending_token(bad):
    with pytest.raises(SchemaError, match=re.escape(repr(bad)) if bad else "non-empty"):
        make_sentence(("a", bad, "d e"))


def test_sentence_sorts_spans():
    s = make_sentence(("a", "b", "c"),
                      (EntitySpan("LOC", 2, 3), EntitySpan("PER", 0, 1)))
    assert [sp.start for sp in s.spans] == [0, 2]


def test_dataset_rejects_unknown_label():
    sent = make_sentence(("a",), (EntitySpan("PER", 0, 1),))
    with pytest.raises(SchemaError):
        Dataset((sent,), TagSet(("LOC",)))


# ---------------------------------------------------------------------------
# tag codecs


def test_spans_to_bio_basic():
    s = make_sentence(("a", "b", "c"), (EntitySpan("PER", 0, 2),))
    assert spans_to_bio(s) == ["B-PER", "I-PER", "O"]


def test_spans_to_bio_empty():
    s = make_sentence(("a", "b"))
    assert spans_to_bio(s) == ["O", "O"]


def test_spans_to_bio_adjacent_spans_force_b():
    s = make_sentence(("a", "b"),
                      (EntitySpan("LOC", 0, 1), EntitySpan("LOC", 1, 2)))
    assert spans_to_bio(s) == ["B-LOC", "B-LOC"]


def test_bio_to_spans_basic():
    assert bio_to_spans(["B-PER", "I-PER", "O"]) == [EntitySpan("PER", 0, 2)]


def test_bio_to_spans_repairs_dangling_i():
    # conlleval-compatible: I- without an open span acts as B-
    assert bio_to_spans(["I-PER", "O"]) == [EntitySpan("PER", 0, 1)]


def test_bio_to_spans_type_switch_opens_new_span():
    assert bio_to_spans(["B-PER", "I-LOC"]) == [
        EntitySpan("PER", 0, 1),
        EntitySpan("LOC", 1, 2),
    ]


def test_bio_to_spans_rejects_unknown():
    with pytest.raises(SchemaError):
        bio_to_spans(["B-XYZ"])
    with pytest.raises(SchemaError):
        bio_to_spans(["Q-PER"])


def test_io_to_spans_merges_adjacent():
    assert io_to_spans(["LOC", "LOC", "O"]) == [EntitySpan("LOC", 0, 2)]
    assert io_to_spans(["PER", "LOC"]) == [
        EntitySpan("PER", 0, 1),
        EntitySpan("LOC", 1, 2),
    ]


def test_encode_labels_each_token_of_a_span():
    s = make_sentence(("a", "b", "c"), (EntitySpan("PER", 0, 2),))
    assert TagSet().encode(s).tolist() == [1, 1, 0]


@settings(max_examples=200)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
def test_label_index_codec_agrees_with_io_tags(indices):
    ts = TagSet()
    spans = ts.decode(np.array(indices))
    assert list(spans) == io_to_spans([ts.labels[k] for k in indices], ts)
    sent = LabeledSentence(tuple(f"w{i}" for i in range(len(indices))), spans)
    encoded = ts.encode(sent)
    assert encoded.dtype == np.int64 and encoded.tolist() == indices


# well-formed BIO and IO tags, the outside label, malformed prefixes
# ("Q-PER", "BPER", "B-", "B", "-PER") and an unknown type ("B-XYZ", "XYZ")
DECODER_TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-DATE", "I-DATE", "PER", "LOC",
                "DATE", "B-XYZ", "I-XYZ", "XYZ", "Q-PER", "BPER", "B-", "B", "I", "-PER",
                "B-O", "I-O", "o"]


def _spans_or_error(decode, tags, tag_set):
    try:
        return decode(tags, tag_set)
    except SchemaError as exc:
        return str(exc)


@settings(max_examples=500)
@given(st.lists(st.sampled_from(DECODER_TAGS), max_size=25),
       st.sampled_from([TagSet(), TagSet(("PER", "LOC")), TagSet(("LOC", "DATE"))]))
def test_tag_decoders_equal_the_frozen_loops(tags, tag_set):
    # valid columns, dangling I-, type switches, adjacent B- tags, malformed
    # prefixes and unknown types: the same spans or the same SchemaError
    for tags_of in (tags, [t for t in tags if t in ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")],
                    [t for t in tags if "-" not in t]):
        for decode, frozen in ((bio_to_spans, frozen_bio_to_spans),
                               (io_to_spans, frozen_io_to_spans)):
            want = _spans_or_error(frozen, tags_of, tag_set)
            got = _spans_or_error(decode, tags_of, tag_set)
            assert got == want, (decode.__name__, tags_of)
            assert type(got) is type(want)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_bio_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    ts = TagSet()
    for sent in random_sentences(rng, 5, ts):
        assert bio_to_spans(spans_to_bio(sent), ts) == list(sent.spans)


# ---------------------------------------------------------------------------
# file IO


def test_read_conll_single_span(tmp_path):
    path = tmp_path / "a.conll"
    path.write_text("Kano\tB-LOC\n.\tO\n", encoding="utf-8")
    ds = read_conll(path)
    assert len(ds.sentences) == 1
    assert ds.sentences[0].spans == (EntitySpan("LOC", 0, 1),)


def test_read_conll_empty_file(tmp_path):
    path = tmp_path / "empty.conll"
    path.write_text("", encoding="utf-8")
    assert len(read_conll(path).sentences) == 0


def test_read_conll_auto_detects_bio_and_io(tmp_path):
    bio = tmp_path / "b.conll"
    bio.write_text("Abuja\tB-LOC\nNigeria\tI-LOC\n", encoding="utf-8")
    assert read_conll(bio).sentences[0].spans == (EntitySpan("LOC", 0, 2),)
    io = tmp_path / "i.conll"
    io.write_text("Abuja\tLOC\nNigeria\tLOC\n", encoding="utf-8")
    assert read_conll(io).sentences[0].spans == (EntitySpan("LOC", 0, 2),)


def test_read_conll_malformed_line_names_lineno(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("Kano\tB-LOC\nbroken line here\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2"):
        read_conll(path)


def test_read_conll_unknown_label(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("Kano\tB-CITY\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_conll(path)


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ds = make_dataset(random_sentences(rng, 20, TagSet()))
    path = tmp_path / "round.conll"
    write_conll(ds, path)
    back = read_conll(path)
    assert back.sentences == ds.sentences


# tokens with tone marks, under-dots, a combining mark of their own, other
# scripts and a byte-order mark, and every label: a segment is a run of
# one to 30 tokens, outside or one span, so spans are adjacent, of length 1,
# long, or at either edge of a sentence
_WRITER_WORDS = ("Adé", "ọdún", "K", "2018", "\u0301x", "東京", "Лагос", "\ufeff", "a" * 12)
_SEGMENTS = st.lists(st.tuples(st.integers(1, 30), st.sampled_from((None, *TagSet().entity_types)),
                               st.sampled_from(_WRITER_WORDS)), min_size=1, max_size=6)


def _sentence_of(segments) -> LabeledSentence:
    tokens, spans = [], []
    for length, label, word in segments:
        if label is not None:
            spans.append(EntitySpan(label, len(tokens), len(tokens) + length))
        tokens += [f"{word}{j}" if j % 3 else word for j in range(length)]
    return LabeledSentence(tuple(tokens), tuple(spans))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_SEGMENTS, max_size=5))
def test_write_conll_equals_the_per_token_writer_and_reads_back(tmp_path, sentences):
    ds = make_dataset([_sentence_of(s) for s in sentences])
    path, reference = tmp_path / "runs.conll", tmp_path / "tokens.conll"
    write_conll(ds, path)
    per_token_write_conll(ds, reference)
    assert path.read_bytes() == reference.read_bytes()
    assert read_conll(path) == ds


def test_read_tokens_one_column(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("A\nB\n\nC\n", encoding="utf-8")
    ds = read_tokens(path)
    assert [s.tokens for s in ds.sentences] == [("A", "B"), ("C",)]


def _read_both(path):
    """``read_tokens`` and the frozen line loop on *path*: each side's
    dataset, or its ``ParseError`` message."""
    results = []
    for reader in (read_tokens, line_loop_read_tokens):
        try:
            results.append(reader(path))
        except ParseError as exc:
            results.append(str(exc))
    return results


# file text, and whether the line loop raises on it
READ_TOKENS_FILES = {
    "crlf": ("A\r\nB\r\n\r\nC\r\n", False),
    "lone-cr": ("A\rB\r\rC\r", False),
    "crlf-and-cr-mixed": ("A\r\nB\r\r\nC\n\rD", False),
    "tab-tagged": ("A\tB-PER\nB\tO\n\nC\tO\tx\n", False),
    "tab-tagged-crlf": ("A\tO\r\n\r\nB\tO\r\n", False),
    "spaces-only-separator": ("A\n   \nB\n \t \nC\n", False),
    "nbsp-separator": ("A\n\u00a0\nB\n", False),
    "nbsp-in-token": ("A\n\nAd\u00a0e\n", True),
    "line-separator-in-token": ("A\nAd\u2028e\n", True),
    "vertical-tab-in-token": ("A\nAd\x0be\n", True),
    "file-separator-in-token": ("A\n\nAd\x1ce\n", True),
    "space-in-token": ("A\nAd e\n", True),
    "leading-tab": ("A\n\tO\n", True),
    "trailing-space": ("A\nB \n", True),
    "leading-and-trailing-blank-lines": ("\n\n\nA\nB\n\n\nC\n\n\n", False),
    "no-final-newline": ("A\nB\n\nC", False),
    "empty": ("", False),
    "blank-lines-only": ("\n\n\n", False),
    "bom": ("\ufeffA\nB\n\nC\n", False),
    "bom-crlf": ("\ufeffA\r\n\r\nB", False),
}


@pytest.mark.parametrize("name", list(READ_TOKENS_FILES))
def test_read_tokens_equals_the_line_loop(tmp_path, name):
    text, fails = READ_TOKENS_FILES[name]
    path = tmp_path / "raw.txt"
    path.write_bytes(text.encode("utf-8"))
    got, want = _read_both(path)
    assert got == want
    assert isinstance(want, str) == fails
    if fails:
        assert want.startswith(f"{path}:")


_RAW_CHARS = st.sampled_from(["a", "ọ́", "K", "\n", "\n", "\n", "\r", "\r\n", "\t", " ",
                              "\u00a0", "\u2028", "\x0b", "\x1c", "\ufeff"])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_RAW_CHARS, max_size=30).map("".join))
def test_read_tokens_equals_the_line_loop_on_any_text(tmp_path, text):
    path = tmp_path / "raw.txt"
    path.write_bytes(text.encode("utf-8"))
    got, want = _read_both(path)
    assert got == want


@pytest.mark.parametrize("line", ["Adé Ojo", "Adé\u00a0Ojo", "\tO"])
def test_token_with_whitespace_names_the_line(tmp_path, line):
    path = tmp_path / "raw.txt"
    path.write_text(f"A\n\nB\n{line}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"raw.txt:4: bad token line {re.escape(repr(line))}"):
        read_tokens(path)
    conll = tmp_path / "gold.conll"
    conll.write_text(f"A\tO\n\nB\tO\n{line}\tB-PER\n", encoding="utf-8")
    with pytest.raises(ParseError, match="gold.conll:4: "):
        read_conll(conll)


# (reader, file bytes with a valid first line and byte 0xff on line 2)
UTF8_READERS = {
    "read_conll": (read_conll, b"Kano\tB-LOC\nAd\xff\tO\n"),
    "read_tokens": (read_tokens, b"Kano\nAd\xff\n"),
    "read_entity_tsv": (gazetteer.read_entity_tsv, b"Kano\tLOC\tkb\nAd\xff\tPER\tkb\n"),
    "DateRuleSet.load": (date_rules.DateRuleSet.load, b"osu\n\xff\n"),
    "EmbeddingTable.load": (tagger.EmbeddingTable.load, b"2 2\n\xff 1 2\nb 3 4\n"),
    "load_confusion": (noise.load_confusion, b"# labels: O PER\n1 \xff\n0 1\n"),
    "read_json": (read_json, b'{"repeats": 1,\n"out_dir": "\xff"}\n'),
}


@pytest.mark.parametrize("name", list(UTF8_READERS))
def test_reader_names_the_first_line_that_is_not_utf8(tmp_path, name):
    reader, data = UTF8_READERS[name]
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: not valid UTF-8")):
        reader(path)


def test_merge_requires_same_tag_set():
    a = make_dataset([make_sentence(("x",))])
    b = Dataset((make_sentence(("y",)),), TagSet(("PER",)))
    with pytest.raises(SchemaError):
        merge(a, b)
    merged = merge(a, make_dataset([make_sentence(("y",))]))
    assert len(merged.sentences) == 2


# ---------------------------------------------------------------------------
# subsampling


def _uniform_corpus(n_sentences, tokens_each):
    sents = [make_sentence(tuple(f"t{i}_{j}" for j in range(tokens_each)))
             for i in range(n_sentences)]
    return make_dataset(sents)


def test_subsample_zero_budget():
    ds = _uniform_corpus(3, 5)
    assert len(subsample_tokens(ds, 0, seed=1).sentences) == 0


def test_subsample_budget_covers_corpus():
    ds = _uniform_corpus(3, 5)
    out = subsample_tokens(ds, 15, seed=1)
    assert sorted(s.tokens for s in out.sentences) == sorted(s.tokens for s in ds.sentences)
    out = subsample_tokens(ds, 10**6, seed=1)
    assert len(out.sentences) == 3


def test_subsample_first_crossing():
    # 3 sentences x 5 tokens, budget 7: the second sentence crosses it
    ds = _uniform_corpus(3, 5)
    out = subsample_tokens(ds, 7, seed=123)
    assert len(out.sentences) == 2
    assert out.num_tokens == 10


def test_subsample_deterministic_and_seed_sensitive():
    ds = _uniform_corpus(40, 5)
    a = subsample_tokens(ds, 60, seed=5)
    b = subsample_tokens(ds, 60, seed=5)
    assert a.sentences == b.sentences
    selections = {subsample_tokens(ds, 60, seed=s).sentences for s in range(30)}
    assert len(selections) > 1


def test_subsample_selection_counts_look_binomial():
    # each sentence should be picked roughly half the time over many seeds
    ds = _uniform_corpus(10, 5)
    counts = {s.tokens: 0 for s in ds.sentences}
    n_seeds = 200
    for seed in range(n_seeds):
        for sent in subsample_tokens(ds, 25, seed=seed).sentences:
            counts[sent.tokens] += 1
    for c in counts.values():
        assert 0.2 * n_seeds < c < 0.8 * n_seeds
