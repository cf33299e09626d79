"""Shared helpers for the test suite: the replay and scripted transports, the
loopback endpoint, fixture paths and gazetteer key lookups."""

from __future__ import annotations

import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ircmap.wikidata import TransportError, TransportResponse

FIXTURES_DIR = Path(__file__).parent / "fixtures"
REPLAY_DIR = FIXTURES_DIR / "wikidata_replay"
LABELED_FIXTURE = FIXTURES_DIR / "labeled_affiliations.tsv"
QUERY_TEMPLATE_FILE = FIXTURES_DIR / "country_query_template.sparql"


def preferred(gazetteer, key, kind):
    """The most preferred ``kind`` (``"country"`` or ``"part"``) interpretation of ``key``, or None."""
    entry = gazetteer.keys.get(key)
    if entry is None:
        return None
    return next((i for i in entry.interpretations if (i.part_name is None) == (kind == "country")), None)


#: The Wikipedia title, still percent-encoded, that a country query asks about.
_TITLE_RE = re.compile(r"<https://en\.wikipedia\.org/wiki/([^>]+)>")


class ReplayTransport:
    """Answers a query from ``REPLAY_DIR/<title>.json``, by the Wikipedia title it names.

    A query that names no title, or a title with no recording, is a
    transport error.  ``titles`` records each title asked for, in order, and
    ``calls`` counts them.  A title that contains ``late`` is answered 50 ms
    late.  Lookups on several threads may share one.
    """

    def __init__(self, late: str | None = None):
        self.late = late
        self.titles: list[str] = []  # list.append is atomic; ``calls += 1`` would not be

    @property
    def calls(self) -> int:
        return len(self.titles)

    def get(self, url, params, headers):
        match = _TITLE_RE.search(params.get("query", ""))
        if match is None:
            raise TransportError("request carries no article IRI")
        title = match.group(1)
        self.titles.append(title)
        if self.late is not None and self.late in title:
            time.sleep(0.05)
        path = REPLAY_DIR / f"{title}.json"
        if not path.is_file():
            raise TransportError(f"no recorded response for {title!r}")
        return TransportResponse(200, path.read_text(encoding="utf-8"))


class FailingTransport:
    """A transport that must never be reached; every call is recorded."""

    def __init__(self):
        self.calls = 0

    def get(self, url, params, headers):
        self.calls += 1
        raise TransportError("network access attempted in an offline test")


class ScriptedTransport:
    """Replays a fixed list of responses/exceptions, in order."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def get(self, url, params, headers):
        self.calls += 1
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


class _EndpointHandler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 (http.server naming)
        endpoint = self.server.endpoint
        endpoint.seen.append((self.path, dict(self.headers)))
        if endpoint.hold:
            endpoint.arrived.set()
            endpoint.release.wait(30)
            return
        try:
            status, body, *extra_headers = endpoint.script.pop(0)
        except IndexError:
            status, body, *extra_headers = endpoint.default
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/sparql-results+json")  # no charset
        for name, value in extra_headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # noqa: A002
        pass


class LoopbackEndpoint:
    """A SPARQL endpoint on 127.0.0.1 that answers from a script, for tests of real HTTP.

    Each GET is answered with the next ``(status, body, *headers)`` of
    ``script``, each header a ``(name, value)`` pair, and with ``default``
    once the script is empty.  ``seen`` logs each request's ``(path,
    headers)``.  With ``hold`` set, a GET sets ``arrived`` and waits,
    unanswered, until ``release`` is set.  Leaving the ``with`` block
    releases held requests, stops the server, joins its thread and closes
    its socket.
    """

    def __init__(self):
        self.script, self.default, self.hold = [], None, False
        self.seen: list[tuple[str, dict]] = []
        self.arrived, self.release = threading.Event(), threading.Event()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _EndpointHandler)
        self._server.endpoint = self
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/sparql"
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,), daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.release.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(5)
        assert not self._thread.is_alive()


class FakeClock:
    """Deterministic clock whose sleep() advances time instantly."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def read_labeled_fixture():
    """Rows of the hand-labeled affiliation corpus: (raw, category, iso2)."""
    rows = []
    for line in LABELED_FIXTURE.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):  # raw strings may begin with bare "#TAB#"
            continue
        fields = line.split("\t")
        raw, category = fields[0], fields[1]
        iso2 = fields[2] if len(fields) > 2 and fields[2] else None
        rows.append((raw, category, iso2))
    return rows
