"""Entity-list matching: build surface-form lists into a token trie and
annotate sentences by greedy longest match.

Entries shorter than their source's minimum character length are dropped at
build time, which filters one- and two-letter noise entries out of large
knowledge-base exports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .corpus import Dataset, EntitySpan, LabeledSentence, TagSet, has_whitespace, open_utf8
from .date_rules import DateRuleSet, annotate_dates
from .errors import AlignmentError, ParseError, SchemaError
from .textnorm import strip_diacritics, visible_length

DEFAULT_PRIORITY = ("PER", "LOC", "ORG")


@dataclass(frozen=True)
class GazetteerEntry:
    """One surface form (≥1 tokens) mapped to an entity type, with the
    name of the list it came from."""

    surface: tuple[str, ...]
    label: str
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "surface", tuple(self.surface))
        if not self.surface or any(not t for t in self.surface):
            raise SchemaError(f"bad gazetteer surface {self.surface!r}")


class _Node:
    """A trie node: the children by normalised token, the types of the
    surface that ends here, and ``label``, the one of them that wins an
    equal-length conflict (``None`` where no surface ends)."""

    __slots__ = ("children", "labels", "label")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.labels: set[str] = set()
        self.label: str | None = None


class Gazetteer:
    """Immutable token-sequence trie; lookups are read-only and shareable.
    Each node's winning type is resolved by ``rank`` as it is inserted, so
    a match reads it without comparing types.

    ``lowercase`` and ``strip_marks`` control how both stored surfaces and
    query tokens are normalized before comparison (both default off: names
    are case-informative).
    """

    def __init__(self, lowercase: bool = False, strip_marks: bool = False):
        self._root = _Node()
        self.lowercase = lowercase
        self.strip_marks = strip_marks
        self._size = 0

    def normalize(self, token: str) -> str:
        if self.strip_marks:
            token = strip_diacritics(token)
        if self.lowercase:
            token = token.lower()
        return token

    def _insert(self, surface: tuple[str, ...], label: str) -> None:
        node = self._root
        for token in surface:
            node = node.children.setdefault(self.normalize(token), _Node())
        if label not in node.labels:
            node.labels.add(label)
            self._size += 1
            if node.label is None or self.rank(label) < self.rank(node.label):
                node.label = label

    def __len__(self) -> int:
        """Number of stored (surface, type) pairs."""
        return self._size

    def rank(self, label: str) -> tuple[int, str]:
        """Rank in ``DEFAULT_PRIORITY`` for equal-length conflicts; unlisted
        types sort after listed ones, alphabetically, for determinism."""
        if label in DEFAULT_PRIORITY:
            return (DEFAULT_PRIORITY.index(label), "")
        return (len(DEFAULT_PRIORITY), label)


def build_gazetteer(
    entries,
    min_len: dict[str, int] | None = None,
    *,
    default_min_len: int = 1,
    lowercase: bool = False,
    strip_marks: bool = False,
    tag_set: TagSet | None = None,
) -> Gazetteer:
    """Build a trie from *entries*, applying per-source minimum lengths.

    Length is the character count of the joined surface form, spaces and
    combining marks excluded. Duplicate (surface, type) pairs collapse.
    """
    min_len = dict(min_len or {})
    for source, n in min_len.items():
        if n < 1:
            raise ValueError(f"min_len for {source!r} must be >= 1")
    if default_min_len < 1:
        raise ValueError("default_min_len must be >= 1")
    tag_set = tag_set or TagSet()
    known = set(tag_set.entity_types)
    gaz = Gazetteer(lowercase=lowercase, strip_marks=strip_marks)
    for entry in entries:
        if entry.label not in known:
            raise SchemaError(f"gazetteer entry type {entry.label!r} not in tag set")
        limit = min_len.get(entry.source, default_min_len)
        if sum(visible_length(t) for t in entry.surface) < limit:
            continue
        gaz._insert(entry.surface, entry.label)
    return gaz


def match_sentence(tokens, gaz: Gazetteer) -> list[EntitySpan]:
    """Greedy left-to-right longest match; scanning resumes after each
    match. Equal-length type conflicts resolve by ``DEFAULT_PRIORITY``.

    The trie is walked only from positions whose token starts a stored
    surface (found for the whole sentence in one C pass) and that lie past
    the last match; the spans come out sorted and non-overlapping."""
    norm = ([gaz.normalize(t) for t in tokens] if gaz.lowercase or gaz.strip_marks
            else tokens)
    roots = gaz._root.children
    spans: list[EntitySpan] = []
    n = len(norm)
    resume = 0
    for i in compress(range(n), map(roots.__contains__, norm)):
        if i < resume:
            continue
        node = roots[norm[i]]
        j = i
        best_end = None
        while node is not None:
            j += 1
            if node.label is not None:
                best_end, label = j, node.label
            node = node.children.get(norm[j]) if j < n else None
        if best_end is not None:
            spans.append(EntitySpan(label, i, best_end))
            resume = best_end
    return spans


def annotate_distant(
    dataset: Dataset,
    gaz: Gazetteer,
    date_rules: DateRuleSet | None = None,
) -> Dataset:
    """Re-annotate every sentence with gazetteer matches plus date-rule
    spans; existing spans are ignored and provenance becomes ``distant``.

    ``match_sentence`` and ``annotate_dates`` run once per sentence. Each
    returns sorted, non-overlapping spans, so only where both found some
    are the candidates merged: sorted by start, the longer first, and each
    dropped that overlaps one kept before it. Two candidates tie only as a
    name and a date of one start and length; the name is kept, since it
    comes first in ``names + dates`` and the sort is stable. The kept spans
    and the checked tokens hold what a sentence checks, so each output
    sentence is made unchecked (``LabeledSentence._trusted``).

    Token normalisation (``textnorm.canonical`` for the date keywords,
    ``textnorm.strip_diacritics`` under ``strip_marks``) is memoised per
    process in tables of at most ``textnorm.MEMO_SIZE`` strings, so each
    token type is normalised once.
    """
    sentences = []
    for sent in dataset.sentences:
        names = match_sentence(sent.tokens, gaz)
        dates = annotate_dates(sent.tokens, date_rules) if date_rules is not None else []
        if names and dates:
            kept = []
            last_end = 0
            for span in sorted(names + dates, key=lambda s: (s.start, s.start - s.end)):
                if span.start >= last_end:
                    kept.append(span)
                    last_end = span.end
        else:
            kept = names or dates
        sentences.append(LabeledSentence._trusted(sent.tokens, tuple(kept), "distant"))
    return Dataset(tuple(sentences), dataset.tag_set)


def distant_twin(clean: Dataset, distant: Dataset) -> Dataset:
    """Distant annotation of the clean sentences, for clean/distant label
    pairs: each clean sentence's first token-identical sentence in
    *distant*."""
    index: dict[tuple[str, ...], LabeledSentence] = {}
    for sent in distant.sentences:
        index.setdefault(sent.tokens, sent)
    sentences = []
    for sent in clean.sentences:
        match = index.get(sent.tokens)
        if match is None:
            raise AlignmentError(
                "cannot pair clean sentences with distant annotations: a clean "
                "sentence has no token-identical sentence in the distant data; "
                "annotate the clean sentences into the distant file with wsner annotate"
            )
        sentences.append(match)
    return Dataset(tuple(sentences), clean.tag_set)


def write_entity_tsv(entries, path) -> None:
    """Entity-list TSV, as ``read_entity_tsv`` reads it; overwriting is
    idempotent."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(f"{' '.join(entry.surface)}\t{entry.label}\t{entry.source}\n")


def read_entity_tsv(path, tag_set: TagSet | None = None) -> list[GazetteerEntry]:
    """Read entity-list TSV: ``surface<TAB>type<TAB>source``, one entry per
    line; multi-token surfaces use single spaces in the surface field, and
    no other whitespace."""
    tag_set = tag_set or TagSet()
    known = set(tag_set.entity_types)
    entries = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not parts[0] or not parts[1]:
                raise ParseError(
                    f"{path}:{lineno}: expected 'surface<TAB>type<TAB>source'"
                )
            surface = tuple(parts[0].split(" "))
            if "" in surface:
                raise ParseError(
                    f"{path}:{lineno}: empty token in surface {parts[0]!r} "
                    "(tokens are separated by single spaces)"
                )
            if has_whitespace(parts[0].replace(" ", "")):  # no corpus token can match it
                raise ParseError(f"{path}:{lineno}: token contains whitespace in surface "
                                 f"{parts[0]!r} (tokens are separated by single spaces)")
            if parts[1] not in known:
                raise SchemaError(f"{path}:{lineno}: unknown type {parts[1]!r}")
            entries.append(GazetteerEntry(surface, parts[1], parts[2]))
    return entries
