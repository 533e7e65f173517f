"""Unicode helpers for tone-marked text.

Online Yorùbá frequently drops diacritics, so keyword and gazetteer matching
can be done on a diacritic-free, lowercased canonical form.

A corpus repeats its token types many times (95% of the token lookups of a
40k-token annotation pass hit a type seen before), so ``strip_diacritics``
and ``canonical`` are memoised per process, each in a least-recently-used
table of at most ``MEMO_SIZE`` strings. For 16-character tone-marked
tokens a full table holds about 2.3 MB of entries and results, plus up to
1.7 MB of token strings that no caller holds any more: about 4 MB per
table. The uncached functions stay reachable as
``strip_diacritics.__wrapped__`` and ``canonical.__wrapped__``.
"""

import unicodedata
from functools import lru_cache

MEMO_SIZE = 1 << 14


@lru_cache(maxsize=MEMO_SIZE)
def strip_diacritics(text: str) -> str:
    """Remove combining marks (tone and under-dots) from *text*."""
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


@lru_cache(maxsize=MEMO_SIZE)
def canonical(text: str) -> str:
    """Lowercased, diacritic-free comparison form."""
    return strip_diacritics.__wrapped__(text).lower()


def visible_length(text: str) -> int:
    """Character count as a reader would see it (combining marks excluded)."""
    return len(unicodedata.normalize("NFC", strip_diacritics(text)))
