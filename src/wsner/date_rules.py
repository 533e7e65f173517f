"""Rule-based DATE annotation.

A token is marked DATE when it is a date keyword, immediately follows a
date keyword, or is made of the ASCII digits 0-9 only; maximal runs of
marked tokens become single DATE spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import ClassVar

from .corpus import EntitySpan, has_whitespace, open_utf8
from .errors import ParseError
from .textnorm import canonical

DEFAULT_KEYWORD_RESOURCE = "date_keywords_yo.txt"


@dataclass(frozen=True)
class DateRuleSet:
    """Keyword set, stored in canonical form; spans are labelled
    ``date_label``."""

    keywords: frozenset[str]
    date_label: ClassVar[str] = "DATE"

    @classmethod
    def from_keywords(cls, words) -> "DateRuleSet":
        return cls(frozenset(canonical(w) for w in words))

    @classmethod
    def load(cls, path) -> "DateRuleSet":
        """Read keywords from a UTF-8 file, one per line; ``#`` lines and
        blank lines are ignored."""
        words = []
        with open_utf8(path) as fh:
            for lineno, line in enumerate(fh, 1):
                word = line.strip()
                if not word or word.startswith("#"):
                    continue
                if has_whitespace(word):
                    raise ParseError(
                        f"{path}:{lineno}: keyword contains whitespace: {word!r}"
                    )
                words.append(word)
        return cls.from_keywords(words)


def default_date_rules() -> DateRuleSet:
    """The bundled Yorùbá rule set (11 keywords)."""
    with resources.as_file(resources.files("wsner.data") / DEFAULT_KEYWORD_RESOURCE) as path:
        return DateRuleSet.load(path)


def annotate_dates(tokens, rules: DateRuleSet) -> list[EntitySpan]:
    """DATE spans for a token sequence under *rules*, built in one pass.

    Comparison is on the canonical form, so input casing and diacritics do
    not matter; ``canonical`` is memoised, so each token type is normalised
    once. A token is all digits when ``isascii() and isdigit()``, which
    holds exactly for the strings ``[0-9]+`` matches in full. Returned
    spans are sorted maximal runs (never adjacent).
    """
    keywords = rules.keywords
    spans: list[EntitySpan] = []
    start = None
    after_keyword = False
    for i, tok in enumerate(tokens):
        keyword = canonical(tok) in keywords
        if keyword or after_keyword or (tok.isascii() and tok.isdigit()):
            if start is None:
                start = i
        elif start is not None:
            spans.append(EntitySpan(rules.date_label, start, i))
            start = None
        after_keyword = keyword
    if start is not None:
        spans.append(EntitySpan(rules.date_label, start, len(tokens)))
    return spans
