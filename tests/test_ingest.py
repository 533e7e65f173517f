import io
import json
import os
import subprocess
import sys
from http.client import IncompleteRead
from urllib.error import HTTPError, URLError

import pytest

import wsner
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
    # the code lands in a quoted SPARQL literal: only BCP 47-shaped codes
    for code in ("", 'yo") } #', "y", "en_gb", "en-", "yo\n", "toolonglang"):
        with pytest.raises(SchemaError, match="language_code"):
            query(language_code=code)
    for code in ("yo", "ha", "en-gb", "be-tarask", "zh-Hant-TW"):
        assert query(language_code=code).language_code == code


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


# labels capped at 2: two on a short page, two on a full page with nothing
# after it or with a third label after it, and two with a repeat and a blank
# after them; truncated only when a label was dropped
@pytest.mark.parametrize("page_size, pages, kept, truncated", [
    (1000, [["Kano", "Lagos"]], 2, False),
    (2, [["Kano", "Lagos"], []], 2, False),
    (2, [["Kano", "Lagos"], ["Abuja", "Kano"]], 2, True),
    (5, [["Kano", "Lagos", "Kano", " "]], 2, False),
], ids=["short-page", "full-page-then-empty", "full-page-then-new", "repeats-after-cap"])
def test_truncated_only_when_a_label_is_dropped(page_size, pages, kept, truncated):
    transport = FixtureTransport([page(labels) for labels in pages])
    result = fetch_entities(query(page_size=page_size, max_results=2), transport)
    assert len(result.entries) == kept
    assert result.truncated is truncated
    # no page past the last one that was needed is fetched
    with pytest.raises(TransportError, match="fixture exhausted"):
        transport.get("", {})


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
# HTTP transport behavior (fake opener, no network)


def ok(body):
    return 200, json.dumps(body).encode("utf-8")


def status(code):
    return code, b"{}"


class FakeResponse:
    """What ``urlopen`` returns for a 200."""

    def __init__(self, body):
        self.status = 200
        self._body = body
        self.closed = False

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed = True


class FakeOpener:
    """``urlopen``'s stand-in, one reply per call: a ``(status, body)`` pair
    or an exception to raise. A status other than 200 raises ``HTTPError``,
    as ``urlopen`` does."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []
        self.timeouts = []
        self.opened = []

    @property
    def calls(self):
        return len(self.requests)

    def __call__(self, request, timeout=None):
        self.requests.append(request)
        self.timeouts.append(timeout)
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        code, body = reply
        if code == 200:
            opened = FakeResponse(body)
        else:
            opened = HTTPError(request.full_url, code, "error", {}, io.BytesIO(body))
        self.opened.append(opened)
        if code != 200:
            raise opened
        return opened


def _transport(replies):
    sleeps = []
    clock = iter(range(1000))
    opener = FakeOpener(replies)
    t = HttpTransport(sleep=sleeps.append, clock=lambda: next(clock), opener=opener)
    return t, sleeps, opener


def test_retry_on_server_error_then_success():
    t, sleeps, _ = _transport([status(500), status(429), ok(page(["Kano"]))])
    body = t.get("https://x/sparql", {})
    assert body["results"]["bindings"]
    assert sleeps  # backoff happened


def test_gives_up_after_max_retries():
    t, _, opener = _transport([status(500)] * 10)
    with pytest.raises(TransportError, match="after 6 attempts"):
        t.get("https://x/sparql", {})
    assert opener.calls == 6  # initial try + 5 retries


def test_client_error_fails_fast():
    t, _, opener = _transport([status(404)])
    with pytest.raises(TransportError, match="HTTP 404"):
        t.get("https://x/sparql", {})
    assert opener.calls == 1


def test_non_json_success_is_decode_error():
    t, _, _ = _transport([(200, b"<html>oops")])
    with pytest.raises(ResponseDecodeError, match="not JSON: '<html>oops'"):
        t.get("https://x/sparql", {})


def test_non_utf8_success_is_decode_error_quoting_with_replacement():
    t, _, _ = _transport([(200, b"caf\xe9" + b"x" * 300)])
    with pytest.raises(ResponseDecodeError) as err:
        t.get("https://x/sparql", {})
    assert str(err.value) == "response is not JSON: " + repr("caf\ufffd" + "x" * 196)


def test_rate_limit_sleeps_between_requests():
    t, sleeps, _ = _transport([ok(page([])), ok(page([]))])
    t.get("https://x/sparql", {})
    t.get("https://x/sparql", {})
    assert not sleeps  # fake clock advances 1s per call, no wait needed
    fast_clock = iter([0.0, 0.1, 0.2, 0.3])
    sleeps2 = []
    t2 = HttpTransport(sleep=sleeps2.append,
                       clock=lambda: next(fast_clock),
                       opener=FakeOpener([ok(page([])), ok(page([]))]))
    t2.get("https://x/sparql", {})
    t2.get("https://x/sparql", {})
    assert sleeps2 and sleeps2[0] == pytest.approx(0.9)


def test_opener_gets_the_encoded_url_both_headers_and_the_timeout():
    t, _, opener = _transport([ok(page([]))])
    t.get("https://x/sparql", {"query": 'SELECT ?l { FILTER(LANG(?l) = "yo") }',
                               "format": "json"})
    (request,) = opener.requests
    assert request.get_method() == "GET"
    assert request.full_url == ("https://x/sparql?query=SELECT+%3Fl+%7B+FILTER%28LANG"
                                "%28%3Fl%29+%3D+%22yo%22%29+%7D&format=json")
    assert dict(request.header_items()) == {
        "Accept": "application/sparql-results+json",
        "User-agent": f"wsner/{wsner.__version__}",
    }
    assert opener.timeouts == [60]


def test_endpoint_with_a_query_string_gets_and_joined_parameters():
    t, _, opener = _transport([ok(page([]))])
    t.get("https://x/sparql?key=v", {"format": "json"})
    assert opener.requests[0].full_url == "https://x/sparql?key=v&format=json"


def test_url_error_and_incomplete_read_are_retried_then_succeed():
    t, sleeps, opener = _transport([URLError("connection reset"), IncompleteRead(b"{"),
                                    ok(page(["Kano"]))])
    body = t.get("https://x/sparql", {})
    assert body["results"]["bindings"][0]["label"]["value"] == "Kano"
    assert opener.calls == 3
    assert sleeps == [1.0, 2.0]


def test_every_response_and_error_body_is_closed():
    t, _, opener = _transport([status(503), status(429), ok(page([])), status(404)])
    t.get("https://x/sparql", {})
    with pytest.raises(TransportError, match="HTTP 404"):
        t.get("https://x/sparql", {})
    assert len(opener.opened) == 4
    assert all(r.closed if isinstance(r, FakeResponse) else r.fp.closed
               for r in opener.opened)


def test_ingest_runs_without_requests(tmp_path):
    # a fresh interpreter in which importing requests fails
    (tmp_path / "page.json").write_text(json.dumps(page(["Lagos", "Kano"])),
                                        encoding="utf-8")
    script = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "import wsner.ingest\n"
        "from wsner import cli\n"
        "sys.exit(cli.main(['ingest', '--class', 'location', '--lang', 'yo',\n"
        "                   '--fixture', 'page.json', '--out', 'out.tsv']))\n"
    )
    src = os.path.dirname(os.path.dirname(wsner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [e.surface for e in read_entity_tsv(tmp_path / "out.tsv")] == [("Kano",), ("Lagos",)]
