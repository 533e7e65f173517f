"""Rule-based DATE annotation.

A token is marked DATE when it is a date keyword, immediately follows a
date keyword, or (optionally) is made of decimal digits only; maximal runs
of marked tokens become single DATE spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .corpus import EntitySpan, has_whitespace, open_utf8
from .errors import ParseError
from .textnorm import canonical

DEFAULT_KEYWORD_RESOURCE = "date_keywords_yo.txt"

# Matches whole tokens like "8" or "2018" but not "8th" or "08:30".
DIGITS_ONLY = r"[0-9]+"


@dataclass(frozen=True)
class DateRuleSet:
    """Keyword set (stored in canonical form) plus the digit rule switch."""

    keywords: frozenset[str]
    digit_rule_enabled: bool = True
    digit_pattern: str = DIGITS_ONLY
    date_label: str = "DATE"
    digit_re: re.Pattern | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "digit_re", re.compile(self.digit_pattern)
                           if self.digit_rule_enabled else None)

    @classmethod
    def from_keywords(cls, words, **kwargs) -> "DateRuleSet":
        return cls(frozenset(canonical(w) for w in words), **kwargs)

    @classmethod
    def load(cls, path, **kwargs) -> "DateRuleSet":
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
        return cls.from_keywords(words, **kwargs)


def default_date_rules(**kwargs) -> DateRuleSet:
    """The bundled Yorùbá rule set (11 keywords, digit rule on)."""
    text = resources.files("wsner.data").joinpath(DEFAULT_KEYWORD_RESOURCE).read_text("utf-8")
    words = [w.strip() for w in text.splitlines() if w.strip() and not w.startswith("#")]
    return DateRuleSet.from_keywords(words, **kwargs)


def annotate_dates(tokens, rules: DateRuleSet) -> list[EntitySpan]:
    """DATE spans for a token sequence under *rules*.

    Comparison is on the canonical form, so input casing and diacritics do
    not matter; ``canonical`` is memoised, so each token type is normalised
    once. Returned spans are maximal runs (never adjacent).
    """
    digit_re = rules.digit_re
    is_kw = [canonical(tok) in rules.keywords for tok in tokens]
    follows_kw = [False] + is_kw[:-1]
    marked = [kw or after or (digit_re is not None and digit_re.fullmatch(tok) is not None)
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
