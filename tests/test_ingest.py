import json

import pytest

from wsner.errors import ResponseDecodeError, SchemaError, TransportError
from wsner.gazetteer import read_entity_tsv, write_entity_tsv
from wsner.ingest import EntityQuery, FixtureTransport, HttpTransport, fetch_entities


def page(labels, lang="yo"):
    return {
        "head": {"vars": ["label"]},
        "results": {"bindings": [
            {"label": {"type": "literal", "xml:lang": lang, "value": v}}
            for v in labels
        ]},
    }


def query(**kw):
    base = dict(entity_class="location", language_code="yo", page_size=1000)
    base.update(kw)
    return EntityQuery(**base)


# ---------------------------------------------------------------------------
# query validation and SPARQL text


def test_query_validation():
    with pytest.raises(SchemaError):
        query(entity_class="city")
    with pytest.raises(SchemaError):
        query(page_size=0)
    with pytest.raises(SchemaError):
        query(page_size=20000)
    with pytest.raises(SchemaError):
        query(endpoint_url="http://insecure.example/sparql")
    with pytest.raises(SchemaError):
        query(max_results=0)


def test_sparql_text_carries_paging_and_language():
    q = query(page_size=50)
    text = q.sparql(offset=100)
    assert "LIMIT 50" in text and "OFFSET 100" in text
    assert 'FILTER(LANG(?label) = "yo")' in text
    assert "wd:Q2221906" in text  # geographic location, subclass closure
    person = query(entity_class="person").sparql(0)
    assert "wd:Q5" in person and "P279" not in person


# ---------------------------------------------------------------------------
# fetching against recorded fixtures


def test_empty_result_rows():
    result = fetch_entities(query(), FixtureTransport([page([])]))
    assert result.entries == ()
    assert not result.truncated


def test_direct_mapping_and_sorting():
    result = fetch_entities(query(), FixtureTransport([page(["Lagos", "Kano"])]))
    assert [e.surface for e in result.entries] == [("Kano",), ("Lagos",)]
    assert all(e.label == "LOC" and e.source == "wikidata" for e in result.entries)


def test_pagination_and_dedup():
    first = page([f"Town {i:03d}" for i in range(5)] + ["Kano"])
    second = page(["Kano", "Abuja"])  # overlap deduplicates
    result = fetch_entities(query(page_size=6), FixtureTransport([first, second]))
    assert len(result.entries) == 7
    assert not result.truncated
    labels = [" ".join(e.surface) for e in result.entries]
    assert labels == sorted(labels)


def test_truncation_flag():
    pages = [page([f"Name {i:03d}" for i in range(60)]),
             page([f"Name {i:03d}" for i in range(60, 120)])]
    result = fetch_entities(query(page_size=60, max_results=100),
                            FixtureTransport(pages))
    assert len(result.entries) == 100
    assert result.truncated


def test_multi_token_labels_split_into_surfaces():
    result = fetch_entities(query(), FixtureTransport([page(["New York City"])]))
    assert result.entries[0].surface == ("New", "York", "City")


def test_fixture_replay_contract_person_yo(tmp_path):
    # recorded-response replay: 120 person labels over two pages, capped
    # at 100; every entry is non-empty and typed PER
    pages = [page([f"Adé Olú {i:03d}" for i in range(60)]),
             page([f"Adé Olú {i:03d}" for i in range(60, 120)])]
    paths = []
    for i, p in enumerate(pages):
        fp = tmp_path / f"page{i}.json"
        fp.write_text(json.dumps(p), encoding="utf-8")
        paths.append(fp)
    transport = FixtureTransport.from_files(paths)
    result = fetch_entities(
        EntityQuery("person", "yo", page_size=60, max_results=100), transport)
    assert len(result.entries) == 100
    assert all(e.label == "PER" and e.surface for e in result.entries)
    # deterministic replay: identical TSV bytes
    out1 = tmp_path / "a.tsv"
    out2 = tmp_path / "b.tsv"
    write_entity_tsv(result.entries, out1)
    result2 = fetch_entities(
        EntityQuery("person", "yo", page_size=60, max_results=100),
        FixtureTransport.from_files(paths))
    write_entity_tsv(result2.entries, out2)
    assert out1.read_bytes() == out2.read_bytes()
    # output obeys the gazetteer TSV grammar
    assert len(read_entity_tsv(out1)) == 100


def test_malformed_body_raises_decode_error():
    with pytest.raises(ResponseDecodeError):
        fetch_entities(query(), FixtureTransport([{"nonsense": True}]))
    broken = {"results": {"bindings": [{"label": {}}]}}
    with pytest.raises(ResponseDecodeError) as err:
        fetch_entities(query(), FixtureTransport([broken]))
    assert "{'label': {}}" in str(err.value)


# ---------------------------------------------------------------------------
# HTTP transport behavior (fake session, no network)


class FakeResponse:
    def __init__(self, status, body=None, text="not json"):
        self.status_code = status
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls += 1
        return self.responses.pop(0)


def _transport(responses):
    sleeps = []
    clock = iter(range(1000))
    session = FakeSession(responses)
    t = HttpTransport(sleep=sleeps.append, clock=lambda: next(clock), session=session)
    return t, sleeps, session


def test_retry_on_server_error_then_success():
    t, sleeps, _ = _transport([FakeResponse(500), FakeResponse(429),
                            FakeResponse(200, body=page(["Kano"]))])
    body = t.get("https://x/sparql", {})
    assert body["results"]["bindings"]
    assert sleeps  # backoff happened


def test_gives_up_after_max_retries():
    t, _, session = _transport([FakeResponse(500)] * 10)
    with pytest.raises(TransportError, match="after 6 attempts"):
        t.get("https://x/sparql", {})
    assert session.calls == 6  # initial try + 5 retries


def test_client_error_fails_fast():
    t, _, session = _transport([FakeResponse(404)])
    with pytest.raises(TransportError, match="HTTP 404"):
        t.get("https://x/sparql", {})
    assert session.calls == 1


def test_non_json_success_is_decode_error():
    t, _, _ = _transport([FakeResponse(200, body=None, text="<html>oops")])
    with pytest.raises(ResponseDecodeError, match="not JSON: '<html>oops'"):
        t.get("https://x/sparql", {})


def test_rate_limit_sleeps_between_requests():
    t, sleeps, _ = _transport([FakeResponse(200, body=page([])),
                            FakeResponse(200, body=page([]))])
    t.get("https://x/sparql", {})
    t.get("https://x/sparql", {})
    assert not sleeps  # fake clock advances 1s per call, no wait needed
    fast_clock = iter([0.0, 0.1, 0.2, 0.3])
    sleeps2 = []
    t2 = HttpTransport(sleep=sleeps2.append,
                       clock=lambda: next(fast_clock),
                       session=FakeSession([FakeResponse(200, body=page([])),
                                            FakeResponse(200, body=page([]))]))
    t2.get("https://x/sparql", {})
    t2.get("https://x/sparql", {})
    assert sleeps2 and sleeps2[0] == pytest.approx(0.9)
