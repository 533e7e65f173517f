"""Rule-based DATE annotation.

A token is marked DATE when it is a date keyword, immediately follows a
date keyword, or is made of decimal digits only; maximal runs of marked
tokens become single DATE spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import ClassVar

from .corpus import EntitySpan, has_whitespace, open_utf8
from .errors import ParseError
from .textnorm import canonical

DEFAULT_KEYWORD_RESOURCE = "date_keywords_yo.txt"

# Matches whole tokens like "8" or "2018" but not "8th" or "08:30".
DIGITS_ONLY = re.compile(r"[0-9]+")


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
    """DATE spans for a token sequence under *rules*.

    Comparison is on the canonical form, so input casing and diacritics do
    not matter; ``canonical`` is memoised, so each token type is normalised
    once. Returned spans are maximal runs (never adjacent).
    """
    is_kw = [canonical(tok) in rules.keywords for tok in tokens]
    follows_kw = [False] + is_kw[:-1]
    marked = [kw or after or DIGITS_ONLY.fullmatch(tok) is not None
              for kw, after, tok in zip(is_kw, follows_kw, tokens)]

    spans: list[EntitySpan] = []
    start = None
    for i, flag in enumerate(marked):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            spans.append(EntitySpan(rules.date_label, start, i))
            start = None
    if start is not None:
        spans.append(EntitySpan(rules.date_label, start, len(tokens)))
    return spans
