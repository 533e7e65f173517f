"""Span-annotated corpus model and CoNLL-style file IO.

Spans are the canonical annotation; per-token BIO/IO tag sequences are
serializations of them. The writer always emits BIO (lossless); the reader
accepts BIO and IO files. The model's per-token label indices are a third
serialization: ``TagSet.encode`` and ``TagSet.decode`` convert between
spans and indices, and ``check_aligned`` checks that two annotations cover
the same sentences, so no other module needs to know the IO label order.
The tag readers map tags to indices and call ``TagSet.decode`` too, the one
loop that turns label runs into spans; a BIO column also passes its ``B-``
positions, where a run breaks though its label goes on.
"""

from __future__ import annotations

import functools
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import AlignmentError, ParseError, SchemaError

PROVENANCES = ("gold", "distant")

# On str patterns ``\s`` matches exactly the characters ``str.isspace``
# accepts (tests/test_corpus.py checks every code point), in one C call.
_WHITESPACE = re.compile(r"\s")
# Whitespace other than the line end: ``read_tokens`` splits text without
# any in bulk, since each of its lines is then a token or blank.
_NON_NEWLINE_SPACE = re.compile(r"[^\S\n]")


def has_whitespace(text: str) -> bool:
    """True when any character of *text* is whitespace (``str.isspace``)."""
    return _WHITESPACE.search(text) is not None


@contextmanager
def open_utf8(path):
    """Open *path* for reading as UTF-8 text. A ``UnicodeDecodeError`` raised
    in the body becomes a ``ParseError`` naming the first line that does not
    decode, found by reading the file again as bytes."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw, 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError:
                        raise ParseError(f"{path}:{lineno}: not valid UTF-8") from None
            raise


def read_json(path):
    """The JSON document in the UTF-8 file *path*; a file that does not
    parse raises ``ParseError`` naming the file and line."""
    with open_utf8(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None


def read_config(path) -> dict:
    """The JSON object in the config file *path* (see ``read_json``); a file
    that holds another JSON value raises ``SchemaError`` naming it."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: config is not a JSON object")
    return doc


def _check_token(surface: str) -> None:
    if not surface:
        raise SchemaError("token surface must be non-empty")
    if has_whitespace(surface):
        raise SchemaError(f"token surface contains whitespace: {surface!r}")


@dataclass(frozen=True)
class TagSet:
    """Entity labels; the model's label space is ``("O",) + entity_types``
    (IO encoding, the outside label ``O`` first)."""

    entity_types: tuple[str, ...] = ("PER", "ORG", "LOC", "DATE")

    def __post_init__(self):
        if isinstance(self.entity_types, str):
            raise SchemaError("entity types must be a list, not a string")
        object.__setattr__(self, "entity_types", tuple(self.entity_types))
        if len(set(self.entity_types)) != len(self.entity_types):
            raise SchemaError("entity types must be unique")
        if "O" in self.entity_types:
            raise SchemaError("outside label cannot also be an entity type")
        for t in self.entity_types:
            if not t or has_whitespace(t):
                raise SchemaError(f"label is empty or contains whitespace: {t!r}")

    @property
    def labels(self) -> tuple[str, ...]:
        return ("O",) + self.entity_types

    @property
    def size(self) -> int:
        return len(self.entity_types) + 1

    @functools.cached_property
    def _codes(self) -> dict[str, int]:
        """Label → label index."""
        return {label: k for k, label in enumerate(self.labels)}

    @functools.cached_property
    def _bio_codes(self) -> dict[str, int]:
        """BIO tag → label index."""
        return {"O": 0, **{f"{p}-{t}": k for k, t in enumerate(self.entity_types, 1)
                           for p in "BI"}}

    def index(self, label: str) -> int:
        try:
            return self._codes[label]
        except KeyError:
            raise SchemaError(f"unknown label {label!r}") from None

    def encode(self, sentence: LabeledSentence) -> np.ndarray:
        """The IO label index of every token of *sentence*, as int64."""
        indices = np.zeros(len(sentence.tokens), dtype=np.int64)
        for span in sentence.spans:
            indices[span.start:span.end] = self.index(span.label)
        return indices

    def decode(self, indices, opens=()) -> tuple[EntitySpan, ...]:
        """The spans of a list or ndarray of IO label indices: each run of
        one entity label is one span. A run also breaks at every position
        in *opens* (a set, or any container), the ``B-`` tags of a BIO
        column, so that ``B-LOC B-LOC`` is two spans; a break inside a run
        of the outside label makes no span."""
        labels = self.labels
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        spans = []
        start = current = 0
        for i, k in enumerate(indices):
            if k != current or i in opens:
                if current:
                    spans.append(EntitySpan(labels[current], start, i))
                start, current = i, k
        if current:
            spans.append(EntitySpan(labels[current], start, len(indices)))
        return tuple(spans)


@dataclass(frozen=True)
class EntitySpan:
    """Half-open token span ``[start, end)`` carrying an entity label."""

    label: str
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise SchemaError(
                f"invalid span boundaries ({self.start}, {self.end})"
            )

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class LabeledSentence:
    """Tokenized sentence with non-overlapping spans, sorted by start.

    ``_trusted`` skips the checks for the three producers whose fields hold
    by construction, ``gazetteer.annotate_distant``, the bulk path of
    ``read_tokens`` and ``tagger.predict``; ``tests/test_trusted_sentences.py``
    fails on any other."""

    tokens: tuple[str, ...]
    spans: tuple[EntitySpan, ...] = ()
    provenance: str = "gold"

    @classmethod
    def _trusted(cls, tokens: tuple, spans: tuple, provenance: str) -> LabeledSentence:
        """The sentence of fields that already pass ``__post_init__``."""
        sent = object.__new__(cls)
        object.__setattr__(sent, "tokens", tokens)
        object.__setattr__(sent, "spans", spans)
        object.__setattr__(sent, "provenance", provenance)
        return sent

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise SchemaError("sentence must contain at least one token")
        if not all(self.tokens) or has_whitespace("".join(self.tokens)):
            for tok in self.tokens:  # name the offending token
                _check_token(tok)
        spans = tuple(sorted(self.spans, key=lambda s: (s.start, s.end)))
        object.__setattr__(self, "spans", spans)
        last_end = 0
        for span in spans:
            if span.end > len(self.tokens):
                raise SchemaError(
                    f"span {span} exceeds sentence length {len(self.tokens)}"
                )
            if span.start < last_end:
                raise SchemaError(f"span {span} overlaps a previous span")
            last_end = span.end
        if self.provenance not in PROVENANCES:
            raise SchemaError(f"unknown provenance {self.provenance!r}")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Dataset:
    """A sequence of labeled sentences under one tag set."""

    sentences: tuple[LabeledSentence, ...] = ()
    tag_set: TagSet = field(default_factory=TagSet)

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        known = set(self.tag_set.entity_types)
        for i, sent in enumerate(self.sentences):
            for span in sent.spans:
                if span.label not in known:
                    raise SchemaError(
                        f"sentence {i}: span label {span.label!r} not in tag set"
                    )

    def __len__(self) -> int:
        return len(self.sentences)

    @property
    def num_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


def check_aligned(a: Dataset, b: Dataset) -> None:
    """Raise ``AlignmentError`` unless *a* and *b* annotate sentences of the
    same token counts, in the same order."""
    if len(a.sentences) != len(b.sentences):
        raise AlignmentError(
            f"sentence count mismatch: {len(a.sentences)} vs {len(b.sentences)}"
        )
    for i, (x, y) in enumerate(zip(a.sentences, b.sentences)):
        if len(x.tokens) != len(y.tokens):
            raise AlignmentError(
                f"sentence {i}: token count mismatch ({len(x.tokens)} vs {len(y.tokens)})"
            )


def merge(a: Dataset, b: Dataset) -> Dataset:
    """Concatenate two datasets sharing a tag set (a's sentences first)."""
    if a.tag_set != b.tag_set:
        raise SchemaError("cannot merge datasets with different tag sets")
    return Dataset(a.sentences + b.sentences, a.tag_set)


def spans_to_bio(sentence: LabeledSentence) -> list[str]:
    """Tag sequence with ``B-``/``I-`` prefixes; length equals token count."""
    tags = ["O"] * len(sentence.tokens)
    for span in sentence.spans:
        tags[span.start] = f"B-{span.label}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.label}"
    return tags


def bio_to_spans(tags: list[str], tag_set: TagSet | None = None) -> list[EntitySpan]:
    """Decode BIO tags to spans.

    An ``I-X`` with no open ``X`` span is repaired to ``B-X`` (the behavior
    of the reference CoNLL scorer), so any tag sequence over the known
    labels decodes cleanly.
    """
    tag_set = tag_set or TagSet()
    codes = tag_set._bio_codes
    try:
        indices = [codes[tag] for tag in tags]
    except KeyError as exc:
        tag = exc.args[0]
        where = f"position {tags.index(tag)}"
        if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI":
            raise SchemaError(f"{where}: unknown tag {tag!r}") from None
        raise SchemaError(f"{where}: unknown entity type {tag[2:]!r}") from None
    opens = {i for i, tag in enumerate(tags) if tag[0] == "B"}
    return list(tag_set.decode(indices, opens))


def io_to_spans(tags: list[str], tag_set: TagSet | None = None) -> list[EntitySpan]:
    """Decode IO tags to spans; adjacent same-type tags merge into one span."""
    tag_set = tag_set or TagSet()
    codes = tag_set._codes
    try:
        indices = [codes[tag] for tag in tags]
    except KeyError as exc:
        tag = exc.args[0]
        raise SchemaError(f"position {tags.index(tag)}: unknown tag {tag!r}") from None
    return list(tag_set.decode(indices))


def read_conll(
    path,
    tag_set: TagSet | None = None,
    provenance: str = "gold",
) -> Dataset:
    """Read a two-column UTF-8 CoNLL file: ``token<TAB>tag``, blank line
    between sentences, final newline optional.

    Tags are read as BIO when any has a B- or I- prefix, otherwise as IO.
    """
    tag_set = tag_set or TagSet()
    sentences_raw: list[tuple[list[str], list[str], int]] = []
    tokens: list[str] = []
    tags: list[str] = []
    first_line = 0

    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                if tokens:
                    sentences_raw.append((tokens, tags, first_line))
                    tokens, tags = [], []
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError(
                    f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}"
                )
            if has_whitespace(parts[0]):
                raise ParseError(
                    f"{path}:{lineno}: token contains whitespace: {parts[0]!r}"
                )
            if not tokens:
                first_line = lineno
            tokens.append(parts[0])
            tags.append(parts[1])
    if tokens:
        sentences_raw.append((tokens, tags, first_line))

    bio = any(t.startswith(("B-", "I-")) for _, ts, _ in sentences_raw for t in ts)
    decode = bio_to_spans if bio else io_to_spans

    sentences = []
    for toks, ts, lineno in sentences_raw:
        try:
            spans = decode(ts, tag_set)
        except SchemaError as exc:
            raise SchemaError(f"{path}: sentence at line {lineno}: {exc}") from None
        sentences.append(LabeledSentence(tuple(toks), tuple(spans), provenance))
    return Dataset(tuple(sentences), tag_set)


def write_conll(dataset: Dataset, path) -> None:
    """Write a dataset in BIO encoding (the lossless serialization): the
    lines of ``spans_to_bio``, one join per outside run and per ``I-`` run
    and one write per sentence."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent in dataset.sentences:
            tokens, pos, parts = sent.tokens, 0, []
            for span in sent.spans:
                if pos < span.start:
                    parts += ("\tO\n".join(tokens[pos:span.start]), "\tO\n")
                parts.append(f"{tokens[span.start]}\tB-{span.label}\n")
                if span.end - span.start > 1:
                    inside = f"\tI-{span.label}\n"
                    parts += (inside.join(tokens[span.start + 1:span.end]), inside)
                pos = span.end
            if pos < len(tokens):
                parts += ("\tO\n".join(tokens[pos:]), "\tO\n")
            parts.append("\n")
            fh.write("".join(parts))


def read_tokens(path) -> Dataset:
    """Read an unlabeled pre-tokenized file: one token per line, blank line
    between sentences. Lines with a tab also work (tags are ignored).
    Sentences have provenance ``distant``.

    The file is read once. When its text holds no whitespace but ``\\n``
    (after CRLF and lone CR line ends become ``\\n``), every line is a
    token or empty: the text is split on ``\\n`` in one call and each run
    of non-empty lines is a sentence, made unchecked since it holds what a
    sentence checks. Any other text goes through the line loop, which
    names the ``file:line`` of a bad token line."""
    with open_utf8(path) as fh:
        text = fh.read()
    bulk = _NON_NEWLINE_SPACE.search(text) is None
    lines = text.split("\n")
    del text  # not held beside the sentences made from it
    if bulk:
        return Dataset(tuple(LabeledSentence._trusted(tuple(run), (), "distant")
                             for nonblank, run in groupby(lines, bool) if nonblank))
    sentences = []
    tokens: list[str] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            if tokens:
                sentences.append(LabeledSentence(tuple(tokens), (), "distant"))
                tokens = []
            continue
        token = line.split("\t")[0]
        if not token or has_whitespace(token):
            raise ParseError(f"{path}:{lineno}: bad token line {line!r}")
        tokens.append(token)
    if tokens:
        sentences.append(LabeledSentence(tuple(tokens), (), "distant"))
    return Dataset(tuple(sentences))


def subsample_tokens(dataset: Dataset, budget: int, seed: int) -> Dataset:
    """Whole sentences in seeded random order until the cumulative token
    count first reaches or exceeds *budget*.

    A budget at or above the corpus size returns every sentence (reordered);
    a budget of zero returns an empty dataset.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if budget == 0:
        return Dataset((), dataset.tag_set)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset.sentences))
    picked = []
    total = 0
    for idx in order:
        picked.append(dataset.sentences[int(idx)])
        total += len(dataset.sentences[int(idx)])
        if total >= budget:
            break
    return Dataset(tuple(picked), dataset.tag_set)
