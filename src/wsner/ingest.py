"""Entity-list extraction from a SPARQL knowledge endpoint.

Fetches all labels of a class (person / organization / location) in one
language as gazetteer entries, for ``gazetteer.write_entity_tsv``. Requests
are paginated, rate limited, and retried with exponential backoff; tests
replay recorded responses through ``FixtureTransport`` instead of touching
the network.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import requests

from .corpus import read_json
from .errors import ResponseDecodeError, SchemaError, TransportError
from .gazetteer import GazetteerEntry

WIKIDATA_ENDPOINT = "https://query.wikidata.org/sparql"

# HttpTransport: seconds between the starts of two requests, and retries
# after the first attempt
MIN_INTERVAL = 1.0
MAX_RETRIES = 5

# instance-of constraints per entity class; organizations and locations
# need the subclass closure (flat instance-of misses most of them).
_CLASS_PATTERNS = {
    "person": "?item wdt:P31 wd:Q5 .",
    "organization": "?item wdt:P31/wdt:P279* wd:Q43229 .",
    "location": "?item wdt:P31/wdt:P279* wd:Q2221906 .",
}
_CLASS_LABELS = {"person": "PER", "organization": "ORG", "location": "LOC"}


@dataclass(frozen=True)
class EntityQuery:
    entity_class: str
    language_code: str
    endpoint_url: str = WIKIDATA_ENDPOINT
    page_size: int = 1000
    max_results: int | None = None

    def __post_init__(self):
        if self.entity_class not in _CLASS_PATTERNS:
            raise SchemaError(
                f"entity_class must be one of {sorted(_CLASS_PATTERNS)}"
            )
        if not self.language_code:
            raise SchemaError("language_code must be non-empty")
        if not (1 <= self.page_size <= 10000):
            raise SchemaError("page_size must be in [1, 10000]")
        if self.max_results is not None and self.max_results < 1:
            raise SchemaError("max_results must be positive or None")
        if not self.endpoint_url.startswith("https://"):
            raise SchemaError("endpoint_url must use https")

    def sparql(self, offset: int) -> str:
        return (
            "SELECT DISTINCT ?label WHERE { "
            f"{_CLASS_PATTERNS[self.entity_class]} "
            "?item rdfs:label ?label . "
            f'FILTER(LANG(?label) = "{self.language_code}") '
            f"}} ORDER BY ?label LIMIT {self.page_size} OFFSET {offset}"
        )


@dataclass(frozen=True)
class FetchResult:
    entries: tuple[GazetteerEntry, ...]
    truncated: bool


class HttpTransport:
    """GET with ``Accept: application/sparql-results+json``, one request
    per ``MIN_INTERVAL`` seconds at most, exponential backoff on 429/5xx
    (at most ``MAX_RETRIES`` retries)."""

    def __init__(self, sleep=time.sleep, clock=time.monotonic, session=None):
        self._sleep = sleep
        self._clock = clock
        self._session = session or requests.Session()
        self._last_request = None

    def get(self, url: str, params: dict) -> dict:
        attempts = 0
        while True:
            if self._last_request is not None:
                wait = MIN_INTERVAL - (self._clock() - self._last_request)
                if wait > 0:
                    self._sleep(wait)
            self._last_request = self._clock()
            attempts += 1
            try:
                response = self._session.get(
                    url, params=params,
                    headers={"Accept": "application/sparql-results+json"},
                    timeout=60,
                )
                status = response.status_code
            except requests.RequestException as exc:
                status = None
                error = str(exc)
            if status is not None and status == 200:
                try:
                    return response.json()
                except ValueError:
                    raise ResponseDecodeError(
                        f"response is not JSON: {response.text[:200]!r}"
                    ) from None
            if status is not None and 400 <= status < 500 and status != 429:
                raise TransportError(f"HTTP {status} from {url}")
            if status is not None:
                error = f"HTTP {status}"
            if attempts > MAX_RETRIES:
                raise TransportError(f"{error} from {url} after {attempts} attempts")
            self._sleep(2.0 ** (attempts - 1))


class FixtureTransport:
    """Replays recorded response pages in order; raises past the end.
    ``from_files`` reads each page with ``corpus.read_json``."""

    def __init__(self, pages):
        self._pages = list(pages)

    @classmethod
    def from_files(cls, paths) -> "FixtureTransport":
        return cls([read_json(p) for p in paths])

    def get(self, url: str, params: dict) -> dict:
        if not self._pages:
            raise TransportError("fixture exhausted")
        return self._pages.pop(0)


def _parse_labels(body: dict) -> list[str]:
    try:
        bindings = body["results"]["bindings"]
    except (KeyError, TypeError):
        raise ResponseDecodeError(f"missing results.bindings: {repr(body)[:200]}") from None
    labels = []
    for binding in bindings:
        try:
            value = binding["label"]["value"]
        except (KeyError, TypeError):
            raise ResponseDecodeError(
                f"binding without label.value: {repr(binding)[:200]}"
            ) from None
        if not isinstance(value, str):
            raise ResponseDecodeError(f"label.value is not a string: {repr(binding)[:200]}")
        labels.append(value)
    return labels


def fetch_entities(query: EntityQuery, transport=None) -> FetchResult:
    """All labels of the queried class/language as gazetteer entries,
    deduplicated and sorted; pagination is transparent.

    Hitting ``max_results`` stops early and sets the truncation flag.
    """
    transport = transport or HttpTransport()
    label = _CLASS_LABELS[query.entity_class]
    seen: set[str] = set()
    truncated = False
    offset = 0
    while True:
        body = transport.get(
            query.endpoint_url,
            {"query": query.sparql(offset), "format": "json"},
        )
        page = _parse_labels(body)
        for value in page:
            if value.strip():
                seen.add(value)
            if query.max_results is not None and len(seen) >= query.max_results:
                truncated = True
                break
        if truncated or len(page) < query.page_size:
            break
        offset += query.page_size
    entries = tuple(
        GazetteerEntry(tuple(name.split()), label, "wikidata")
        for name in sorted(seen)
    )
    return FetchResult(entries, truncated)
