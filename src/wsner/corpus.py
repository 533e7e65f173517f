"""Span-annotated corpus model and CoNLL-style file IO.

Spans are the canonical annotation; per-token BIO/IO tag sequences are
serializations of them. The writer always emits BIO (lossless); the reader
accepts BIO and IO files. The model's per-token label indices are a third
serialization: ``TagSet.encode`` and ``TagSet.decode`` convert between
spans and indices, and ``check_aligned`` checks that two annotations cover
the same sentences, so no other module needs to know the IO label order.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ParseError, SchemaError

PROVENANCES = ("gold", "distant")

# On str patterns ``\s`` matches exactly the characters ``str.isspace``
# accepts (tests/test_corpus.py checks every code point), in one C call.
_WHITESPACE = re.compile(r"\s")


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


def _check_token(surface: str) -> None:
    if not surface:
        raise SchemaError("token surface must be non-empty")
    if has_whitespace(surface):
        raise SchemaError(f"token surface contains whitespace: {surface!r}")


@dataclass(frozen=True)
class TagSet:
    """Entity labels plus the outside label; the model's label space is
    ``(outside,) + entity_types`` (IO encoding, outside first)."""

    entity_types: tuple[str, ...] = ("PER", "ORG", "LOC", "DATE")
    outside: str = "O"

    def __post_init__(self):
        object.__setattr__(self, "entity_types", tuple(self.entity_types))
        if len(set(self.entity_types)) != len(self.entity_types):
            raise SchemaError("entity types must be unique")
        if self.outside in self.entity_types:
            raise SchemaError("outside label cannot also be an entity type")
        for t in self.entity_types + (self.outside,):
            if not t:
                raise SchemaError("labels must be non-empty")

    @property
    def labels(self) -> tuple[str, ...]:
        return (self.outside,) + self.entity_types

    @property
    def size(self) -> int:
        return len(self.entity_types) + 1

    def index(self, label: str) -> int:
        if label == self.outside:
            return 0
        try:
            return 1 + self.entity_types.index(label)
        except ValueError:
            raise SchemaError(f"unknown label {label!r}") from None

    def encode(self, sentence: LabeledSentence) -> np.ndarray:
        """The IO label index of every token of *sentence*, as int64."""
        indices = np.zeros(len(sentence.tokens), dtype=np.int64)
        for span in sentence.spans:
            indices[span.start:span.end] = self.index(span.label)
        return indices

    def decode(self, indices) -> tuple[EntitySpan, ...]:
        """The spans of a sequence of IO label indices: each run of one
        entity label is one span."""
        labels = self.labels
        indices = np.asarray(indices).tolist()
        spans = []
        start = 0
        for i in range(1, len(indices) + 1):
            if i == len(indices) or indices[i] != indices[start]:
                if indices[start]:
                    spans.append(EntitySpan(labels[indices[start]], start, i))
                start = i
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
    """Tokenized sentence with non-overlapping spans, sorted by start."""

    tokens: tuple[str, ...]
    spans: tuple[EntitySpan, ...] = ()
    provenance: str = "gold"

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


def spans_to_bio(sentence: LabeledSentence, outside: str = "O") -> list[str]:
    """Tag sequence with ``B-``/``I-`` prefixes; length equals token count."""
    tags = [outside] * len(sentence.tokens)
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
    known = set(tag_set.entity_types)
    spans: list[EntitySpan] = []
    start = None
    current = None

    def close(end: int) -> None:
        nonlocal start, current
        if current is not None:
            spans.append(EntitySpan(current, start, end))
        start = current = None

    for i, tag in enumerate(tags):
        if tag == tag_set.outside:
            close(i)
            continue
        if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI":
            raise SchemaError(f"position {i}: unknown tag {tag!r}")
        prefix, label = tag[0], tag[2:]
        if label not in known:
            raise SchemaError(f"position {i}: unknown entity type {label!r}")
        if prefix == "B" or current != label:
            close(i)
            start, current = i, label
    close(len(tags))
    return spans


def io_to_spans(tags: list[str], tag_set: TagSet | None = None) -> list[EntitySpan]:
    """Decode IO tags to spans; adjacent same-type tags merge into one span."""
    tag_set = tag_set or TagSet()
    known = set(tag_set.entity_types)
    spans: list[EntitySpan] = []
    start = None
    current = None
    for i, tag in enumerate(tags):
        if tag != tag_set.outside and tag not in known:
            raise SchemaError(f"position {i}: unknown tag {tag!r}")
        if tag != current:
            if current is not None and current != tag_set.outside:
                spans.append(EntitySpan(current, start, i))
            start, current = i, tag
    if current is not None and current != tag_set.outside:
        spans.append(EntitySpan(current, start, len(tags)))
    return spans


def _detect_scheme(all_tags: list[str]) -> str:
    for tag in all_tags:
        if tag.startswith("B-") or tag.startswith("I-"):
            return "bio"
    return "io"


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

    scheme = _detect_scheme([t for _, ts, _ in sentences_raw for t in ts])
    decode = bio_to_spans if scheme == "bio" else io_to_spans

    sentences = []
    for toks, ts, lineno in sentences_raw:
        try:
            spans = decode(ts, tag_set)
        except SchemaError as exc:
            raise SchemaError(f"{path}: sentence at line {lineno}: {exc}") from None
        sentences.append(LabeledSentence(tuple(toks), tuple(spans), provenance))
    return Dataset(tuple(sentences), tag_set)


def write_conll(dataset: Dataset, path) -> None:
    """Write a dataset in BIO encoding (the lossless serialization)."""
    outside = dataset.tag_set.outside
    with open(path, "w", encoding="utf-8") as fh:
        for sent in dataset.sentences:
            fh.write("".join([f"{token}\t{tag}\n" for token, tag
                              in zip(sent.tokens, spans_to_bio(sent, outside))]) + "\n")


def read_tokens(path) -> Dataset:
    """Read an unlabeled pre-tokenized file: one token per line, blank line
    between sentences. Lines with a tab also work (tags are ignored).
    Sentences have provenance ``distant``."""
    sentences = []
    tokens: list[str] = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
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
