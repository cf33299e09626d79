"""Loopback SPARQL endpoint with fixed latency and deterministic answers.

The CLI cannot be handed a transport, so the benchmark points ``--endpoint``
at this server and keeps the CLI's real HTTP client on the measured path.
It answers the country query for a Wikipedia title from a table keyed by the
normalized title: one label, none, or several.  ``workers`` threads each
accept and serve one connection at a time, so no more than ``workers``
connections are ever open.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs, unquote, urlsplit

_TITLE_RE = re.compile(r"<https://en\.wikipedia\.org/wiki/([^>]+)>")


def title_key(url_title: str) -> str:
    """Normalized fragment behind a percent-encoded Wikipedia title."""
    return " ".join(unquote(url_title).replace("_", " ").casefold().split())


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"  # one request per connection, then close

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        query = parse_qs(urlsplit(self.path).query).get("query", [""])[0]
        match = _TITLE_RE.search(query)
        key = title_key(match.group(1)) if match else ""
        body = self.server.respond(key).encode("utf-8")
        self.send_response(200 if match else 400)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


class StubEndpoint:
    """Serve ``answers`` on 127.0.0.1 until :meth:`close` is called."""

    def __init__(self, answers: dict[str, tuple[str, ...]], latency_s: float, workers: int):
        self.answers = answers
        self.latency_s = latency_s
        self._requests: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._sock = socket.create_server(("127.0.0.1", 0), backlog=64)
        self._sock.settimeout(0.1)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}/sparql"
        self._threads = [threading.Thread(target=self._serve, daemon=True) for _ in range(workers)]
        for thread in self._threads:
            thread.start()

    def respond(self, key: str) -> str:
        with self._lock:
            self._requests[key] += 1
        time.sleep(self.latency_s)
        bindings = [
            {"countryLabel": {"type": "literal", "xml:lang": "en", "value": label}}
            for label in self.answers.get(key, ())
        ]
        return json.dumps({"head": {"vars": ["countryLabel"]}, "results": {"bindings": bindings}})

    def take_requests(self) -> Counter[str]:
        """Requests received since the last call, by normalized fragment."""
        with self._lock:
            taken, self._requests = self._requests, Counter()
        return taken

    def _serve(self) -> None:
        while not self._closing.is_set():
            try:
                conn, addr = self._sock.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            with conn:
                conn.settimeout(30)
                try:
                    _Handler(conn, addr, self)
                except OSError:
                    pass  # client went away; it sees and reports the failure

    def close(self) -> None:
        self._closing.set()
        for thread in self._threads:
            thread.join(timeout=5)
        self._sock.close()
