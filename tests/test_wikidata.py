from __future__ import annotations

import json
import socket
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import pytest

from ircmap.gazetteer import GazetteerError
from ircmap.ingest import token_key
from ircmap.wikidata import (
    CacheEntry,
    CacheStatus,
    CacheStore,
    LabelMap,
    Mode,
    RateLimiter,
    ReplayTransport,
    RequestsTransport,
    TransportError,
    TransportResponse,
    WikidataClient,
    build_sparql_query,
)

from support import (
    QUERY_TEMPLATE_FILE,
    REPLAY_DIR,
    FailingTransport,
    FakeClock,
    ScriptedTransport,
)


def _ws(text: str) -> str:
    return " ".join(text.split())


class TestBuildSparqlQuery:
    def test_mcgill_matches_golden_template(self):
        query = build_sparql_query("McGill University")
        golden = QUERY_TEMPLATE_FILE.read_text(encoding="utf-8")
        expected = golden.replace("[AFFILIATION]", "McGill_University")
        assert _ws(query.text) == _ws(expected)
        assert query.url_title == "McGill_University"

    def test_contains_select_and_subject_iri_once(self):
        query = build_sparql_query("McGill University")
        assert query.text.count("SELECT ?countryLabel WHERE") == 1
        iri = "https://en.wikipedia.org/wiki/McGill_University"
        assert query.text.count(iri) == 1

    def test_single_token_unchanged(self):
        assert build_sparql_query("MIT").url_title == "MIT"

    def test_reserved_characters_percent_encoded(self):
        query = build_sparql_query("AT&T Labs")
        assert query.url_title == "AT%26T_Labs"
        assert "<https://en.wikipedia.org/wiki/AT%26T_Labs>" in query.text

    def test_casing_preserved(self):
        assert build_sparql_query("University of oxford").url_title == "University_of_oxford"

    def test_whitespace_runs_collapse(self):
        assert build_sparql_query("  McGill   University ").url_title == "McGill_University"

    def test_empty_fragment_rejected(self):
        with pytest.raises(ValueError):
            build_sparql_query("   ")


class TestCacheStore:
    def _entry(self, key="k", status=CacheStatus.HIT, countries=("Canada",), at=None, detail=""):
        return CacheEntry(
            key=key,
            countries=countries if status is CacheStatus.HIT else (),
            status=status,
            retrieved_at=(at or datetime.now(timezone.utc)).isoformat(),
            detail=detail,
        )

    def test_round_trip_is_lossless(self):
        entry = self._entry(detail="note")
        assert CacheEntry.from_json(entry.to_json()) == entry

    def test_put_then_get_through_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        store = CacheStore(path)
        entry = self._entry()
        store.put(entry)
        reloaded = CacheStore(path)
        assert reloaded.get("k") == entry

    def test_last_entry_per_key_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        store = CacheStore(path)
        store.put(self._entry(countries=("Canada",)))
        store.put(self._entry(countries=("France",)))
        assert CacheStore(path).get("k").countries == ("France",)

    def test_hit_entries_do_not_expire(self, tmp_path):
        old = datetime.now(timezone.utc) - timedelta(days=400)
        store = CacheStore(tmp_path / "cache.jsonl")
        store.put(self._entry(at=old))
        assert store.get("k") is not None

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            CacheEntry("k", (), CacheStatus.HIT, "2024-01-01T00:00:00+00:00")
        with pytest.raises(ValueError):
            CacheEntry("k", ("Canada",), CacheStatus.EMPTY, "2024-01-01T00:00:00+00:00")

    def test_bad_cache_lines_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('not json\n' + self._entry().to_json() + "\n", encoding="utf-8")
        assert CacheStore(path).get("k") is not None

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '"x"',
            "5",
            '{"key": "k", "countries": 5, "status": "hit", "retrieved_at": "2024-01-01T00:00:00+00:00"}',
            '{"key": ["k"], "countries": [], "status": "empty", "retrieved_at": "2024-01-01T00:00:00+00:00"}',
            '{"key": "k", "countries": [], "status": "error", "retrieved_at": 5}',
            '{"key": "k", "countries": ["Canada", 5], "status": "hit", "retrieved_at": "2024-01-01T00:00:00+00:00"}',
            '{"key": "k", "countries": [], "status": "empty", "retrieved_at": "2024-01-01T00:00:00+00:00", "detail": 7}',
            '{"key": "k", "countries": [], "status": ["empty"], "retrieved_at": "2024-01-01T00:00:00+00:00"}',
        ],
        ids=["list", "string", "number", "numeric-countries", "list-key", "numeric-retrieved-at",
             "numeric-country", "numeric-detail", "list-status"],
    )
    def test_json_line_that_is_not_an_entry_skipped(self, tmp_path, caplog, line):
        path = tmp_path / "cache.jsonl"
        good = self._entry(key="good")
        path.write_text(line + "\n" + good.to_json() + "\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="ircmap.wikidata"):
            store = CacheStore(path)
        assert len(store) == 1
        assert store.get("good") == good
        assert store.get("k") is None
        assert "cache.jsonl:1: skipping bad cache line" in caplog.text

    def test_torn_last_line_does_not_swallow_next_put(self, tmp_path, label_map):
        # A run killed mid-append leaves the last line cut short, without "\n".
        path = tmp_path / "cache.jsonl"
        store = CacheStore(path)
        for key in ("a", "b"):
            store.put(self._entry(key=key))
        path.write_bytes(path.read_bytes()[:-10])
        CacheStore(path).put(self._entry(key="c"))
        reloaded = CacheStore(path)
        assert reloaded.get("a") is not None and reloaded.get("c") is not None
        assert reloaded.get("b") is None
        client = WikidataClient(
            cache=reloaded, label_map=label_map, mode=Mode.OFFLINE, transport=FailingTransport()
        )
        assert client.query_country("c").status is CacheStatus.HIT


class TestLabelMap:
    def test_canada_maps(self, label_map):
        assert label_map.get("Canada") == "CA"

    def test_q30_label_maps_to_us(self, label_map, data_dir):
        # The shipped extras table is the authority for this label.
        lines = (data_dir / "wikidata_labels.tsv").read_text(encoding="utf-8").splitlines()
        assert any(line.startswith("United States of America\tUS") for line in lines)
        assert label_map.get("United States of America") == "US"

    def test_unmapped_label_reported_not_dropped(self, gazetteer, data_dir):
        label_map = LabelMap.from_gazetteer(gazetteer, data_dir / "wikidata_labels.tsv")
        assert label_map.get("Narnia") is None
        assert "Narnia" in label_map.unmapped

    def test_unknown_iso_code_in_extras_rejected(self, gazetteer, tmp_path):
        bad = tmp_path / "labels.tsv"
        bad.write_text("Narnia\tZZ\n", encoding="utf-8")
        with pytest.raises(GazetteerError, match="ZZ"):
            LabelMap.from_gazetteer(gazetteer, bad)


class TestQueryCountry:
    def test_replay_hit_for_mcgill(self, make_replay_client):
        client, transport = make_replay_client()
        entry = client.query_country("McGill University")
        assert entry.status is CacheStatus.HIT
        assert entry.countries == ("Canada",)
        assert transport.calls == 1

    def test_empty_result(self, make_replay_client):
        client, _ = make_replay_client()
        entry = client.query_country("Unknown Institute of Advanced Phrenology")
        assert entry.status is CacheStatus.EMPTY
        assert entry.countries == ()

    def test_second_call_is_cache_hit_with_zero_network(self, make_replay_client):
        client, transport = make_replay_client()
        first = client.query_country("McGill University")
        second = client.query_country("McGill University")
        assert second == first
        assert transport.calls == 1

    def test_case_variants_share_cache_key(self, make_replay_client):
        client, transport = make_replay_client()
        client.query_country("McGill University")
        entry = client.query_country("MCGILL UNIVERSITY")
        assert entry.countries == ("Canada",)
        assert transport.calls == 1

    def test_offline_miss_not_cached_and_no_network(self, label_map):
        transport = FailingTransport()
        client = WikidataClient(
            cache=CacheStore(), label_map=label_map, mode=Mode.OFFLINE, transport=transport
        )
        entry = client.query_country("McGill University")
        assert entry.status is CacheStatus.ERROR
        assert entry.detail == "offline-miss"
        assert transport.calls == 0
        assert client.cache.get(entry.key) is None

    def test_offline_cache_hit_needs_no_network(self, label_map, make_replay_client, tmp_path):
        path = tmp_path / "cache.jsonl"
        warm, _ = make_replay_client(cache=CacheStore(path))
        warm.query_country("McGill University")
        transport = FailingTransport()
        client = WikidataClient(
            cache=CacheStore(path), label_map=label_map, mode=Mode.OFFLINE, transport=transport
        )
        entry = client.query_country("McGill University")
        assert entry.status is CacheStatus.HIT
        assert transport.calls == 0

    def test_retry_then_success(self, label_map):
        ok_body = json.dumps(
            {"results": {"bindings": [{"countryLabel": {"value": "Canada"}}]}}
        )
        transport = ScriptedTransport(
            [TransportResponse(500, "boom"), TransportResponse(429, "slow"), TransportResponse(200, ok_body)]
        )
        clock = FakeClock()
        client = WikidataClient(
            cache=CacheStore(), label_map=label_map, transport=transport,
            rate_limit=0.0, max_attempts=5, backoff_base=1.0,
            clock=clock.clock, sleep=clock.sleep,
        )
        entry = client.query_country("McGill University")
        assert entry.status is CacheStatus.HIT
        assert transport.calls == 3
        assert clock.sleeps == [1.0, 2.0]  # exponential backoff between attempts

    def test_persistent_server_error_cached_with_detail(self, label_map):
        transport = ScriptedTransport([TransportResponse(500, "x")] * 5)
        clock = FakeClock()
        client = WikidataClient(
            cache=CacheStore(), label_map=label_map, transport=transport,
            rate_limit=0.0, max_attempts=5, clock=clock.clock, sleep=clock.sleep,
        )
        entry = client.query_country("McGill University")
        assert entry.status is CacheStatus.ERROR
        assert entry.detail == "http 500"
        assert transport.calls == 5
        assert client.cache.get(entry.key) is not None

    def test_client_error_not_retried(self, label_map):
        transport = ScriptedTransport([TransportResponse(404, "nope")])
        client = WikidataClient(
            cache=CacheStore(), label_map=label_map, transport=transport,
            rate_limit=0.0, sleep=lambda s: None,
        )
        entry = client.query_country("McGill University")
        assert entry.status is CacheStatus.ERROR
        assert transport.calls == 1

    @pytest.mark.parametrize(
        "endpoint",
        [
            "query.wikidata.org/sparql",
            "ftp://query.wikidata.org/sparql",
            "https:///sparql",
            "http://127.0.0.1:abc/sparql",
            "http://127.0.0.1:70000/sparql",
            "http://[::1/sparql",
            "http://127.0.0.1:9/spa rql",
            "http://127.0.0.1:9/x\x01y",
            "http://127.0.0.1:9/sparql\n",
            " http://127.0.0.1:9/sparql",
            "http://127.0.0.1:9/spa\trql",
            "http://127.0.0.1:9/spa\u00a0rql",
        ],
    )
    def test_unusable_endpoint_rejected_when_built_online(self, label_map, endpoint):
        with pytest.raises(ValueError, match=r"^SPARQL endpoint must be an http\(s\) URL with a host: "):
            WikidataClient(cache=CacheStore(), label_map=label_map, endpoint=endpoint)
        # Offline, the endpoint is never used, so it is not judged either.
        client = WikidataClient(
            cache=CacheStore(), label_map=label_map, endpoint=endpoint, mode=Mode.OFFLINE,
            transport=FailingTransport(),
        )
        assert client.query_country("McGill University").detail == "offline-miss"

    @staticmethod
    def _error_entry(fragment, age):
        at = datetime.now(timezone.utc) - age
        return CacheEntry(token_key(fragment), (), CacheStatus.ERROR, at.isoformat(), "http 503")

    def test_error_entries_expire(self, label_map):
        stale = self._error_entry("McGill University", timedelta(hours=25))
        fresh = self._error_entry("ETH Zurich", timedelta(hours=1))
        cache = CacheStore()
        for entry in (stale, fresh):
            cache.put(entry)
        transport = ScriptedTransport([TransportResponse(200, _bindings("Canada"))])
        client = WikidataClient(
            cache=cache, label_map=label_map, transport=transport, rate_limit=0.0, sleep=lambda s: None
        )
        assert client.query_country("ETH Zurich") == fresh
        assert transport.calls == 0
        assert client.query_country("McGill University").countries == ("Canada",)
        assert transport.calls == 1
        assert cache.get(stale.key).status is CacheStatus.HIT

    def test_offline_error_entry_answers_as_recorded_however_old(self, label_map):
        cache = CacheStore()
        for fragment, hours in (("McGill University", 30), ("ETH Zurich", 1)):
            cache.put(self._error_entry(fragment, timedelta(hours=hours)))
        client = WikidataClient(
            cache=cache, label_map=label_map, mode=Mode.OFFLINE, transport=FailingTransport()
        )
        for fragment in ("McGill University", "ETH Zurich"):
            assert client.query_country(fragment) == cache.get(token_key(fragment))

    def test_malformed_body_not_cached(self, label_map):
        transport = ScriptedTransport([TransportResponse(200, "<html>oops</html>")])
        client = WikidataClient(
            cache=CacheStore(), label_map=label_map, transport=transport,
            rate_limit=0.0, sleep=lambda s: None,
        )
        entry = client.query_country("McGill University")
        assert entry.status is CacheStatus.ERROR
        assert "malformed" in entry.detail
        assert client.cache.get(entry.key) is None

    def test_replay_transport_rejects_unknown_title(self):
        transport = ReplayTransport(REPLAY_DIR)
        query = build_sparql_query("Nowhere Institute Zzz")
        with pytest.raises(TransportError):
            transport.get("http://endpoint", {"query": query.text}, {})

    def test_duplicate_labels_deduplicated(self, label_map):
        body = json.dumps(
            {"results": {"bindings": [
                {"countryLabel": {"value": "Canada"}},
                {"countryLabel": {"value": "Canada"}},
            ]}}
        )
        transport = ScriptedTransport([TransportResponse(200, body)])
        client = WikidataClient(
            cache=CacheStore(), label_map=label_map, transport=transport, rate_limit=0.0
        )
        assert client.query_country("Twin Binding U").countries == ("Canada",)


class TestRateLimiter:
    def test_observed_rate_never_exceeds_ceiling(self):
        clock = FakeClock()
        limiter = RateLimiter(2.0, clock=clock.clock, sleep=clock.sleep)
        stamps = []
        for _ in range(10):
            limiter.acquire()
            stamps.append(clock.now)
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(gap >= 0.5 - 1e-9 for gap in gaps)

    def test_disabled_limiter_never_sleeps(self):
        clock = FakeClock()
        limiter = RateLimiter(0.0, clock=clock.clock, sleep=clock.sleep)
        for _ in range(100):
            limiter.acquire()
        assert clock.sleeps == []

    def test_client_requests_respect_rate(self, label_map):
        body = json.dumps({"results": {"bindings": []}})
        transport = ScriptedTransport([TransportResponse(200, body)] * 6)
        clock = FakeClock()
        client = WikidataClient(
            cache=CacheStore(), label_map=label_map, transport=transport,
            rate_limit=4.0, clock=clock.clock, sleep=clock.sleep,
        )
        for i in range(6):
            client.query_country(f"Fragment Number {i}")
        assert transport.calls == 6
        # Six requests at 4/s need at least 1.25 simulated seconds.
        assert clock.now >= 5 * 0.25 - 1e-9


class _ScriptedEndpoint(BaseHTTPRequestHandler):
    """Answers each GET with the server's next (status, body) and records the request."""

    def do_GET(self):  # noqa: N802 (http.server naming)
        self.server.seen.append((self.path, dict(self.headers)))
        status, body = self.server.replies.pop(0)
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/sparql-results+json")  # no charset
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # noqa: A002
        pass


def _bindings(*labels: str) -> str:
    return json.dumps(
        {"results": {"bindings": [{"countryLabel": {"value": label}} for label in labels]}},
        ensure_ascii=False,
    )


class TestRequestsTransportLoopback:
    """The real transport against an HTTP server on 127.0.0.1, with ``requests`` unimportable."""

    @pytest.fixture(autouse=True)
    def no_requests_no_proxy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        monkeypatch.setenv("no_proxy", "127.0.0.1")

    @pytest.fixture
    def endpoint(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedEndpoint)
        server.replies, server.seen = [], []
        server.url = f"http://127.0.0.1:{server.server_address[1]}/sparql"
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(5)
            assert not thread.is_alive()

    def _client(self, endpoint, label_map):
        return WikidataClient(
            cache=CacheStore(), label_map=label_map, endpoint=endpoint.url,
            transport=RequestsTransport(timeout=5), rate_limit=0.0, sleep=lambda s: None,
            user_agent="ircmap-tests/1 (loopback)",
        )

    def test_query_and_headers_arrive_verbatim(self, endpoint, label_map):
        endpoint.replies.append((200, _bindings("Canada")))
        entry = self._client(endpoint, label_map).query_country("AT&T Labs  Montréal")
        assert entry.countries == ("Canada",)
        ((path, headers),) = endpoint.seen
        parts = urlsplit(path)
        assert parts.path == "/sparql"
        assert parse_qs(parts.query) == {"query": [build_sparql_query("AT&T Labs  Montréal").text]}
        assert headers["User-Agent"] == "ircmap-tests/1 (loopback)"
        assert headers["Accept"] == "application/sparql-results+json"

    def test_utf8_body_without_charset_decodes_exactly(self, endpoint, label_map):
        body = _bindings("Curaçao")
        endpoint.replies.append((200, body))
        response = RequestsTransport(timeout=5).get(endpoint.url, {"query": "q"}, {})
        assert response == TransportResponse(200, body)
        endpoint.replies.append((200, body))
        entry = self._client(endpoint, label_map).query_country("University of Curaçao")
        assert entry.countries == ("Curaçao",)
        assert label_map.get(entry.countries[0]) == "CW"

    def test_server_error_retried_to_success(self, endpoint, label_map):
        endpoint.replies += [(503, "busy"), (200, _bindings("Canada"))]
        entry = self._client(endpoint, label_map).query_country("McGill University")
        assert entry.status is CacheStatus.HIT
        assert len(endpoint.seen) == 2

    def test_client_error_sent_once(self, endpoint, label_map):
        endpoint.replies.append((404, "nope"))
        response = RequestsTransport(timeout=5).get(endpoint.url, {"query": "q"}, {})
        assert response == TransportResponse(404, "nope")
        endpoint.replies.append((404, "nope"))
        entry = self._client(endpoint, label_map).query_country("McGill University")
        assert (entry.status, entry.detail) == (CacheStatus.ERROR, "http 404")
        assert len(endpoint.seen) == 2

    def test_closed_port_is_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as sock:
            port = sock.getsockname()[1]
        with pytest.raises(TransportError):
            RequestsTransport(timeout=5).get(f"http://127.0.0.1:{port}/sparql", {"query": "q"}, {})

    def test_silent_server_is_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as sock:  # listens, never answers
            url = f"http://127.0.0.1:{sock.getsockname()[1]}/sparql"
            started = time.monotonic()
            with pytest.raises(TransportError):
                RequestsTransport(timeout=0.2).get(url, {"query": "q"}, {})
            assert time.monotonic() - started < 5

    def test_url_without_scheme_is_transport_error(self):
        with pytest.raises(TransportError):
            RequestsTransport(timeout=5).get("query.wikidata.org/sparql", {"query": "q"}, {})
