"""SPARQL lookup of an institution's country through its Wikipedia article.

The query asks, for the English Wikipedia article named after the remaining
affiliation text, which Wikidata item the article is about and which country
(P17) that item belongs to, returning English country labels via the label
service.  The ``wikibase:`` and ``bd:`` prefixes are left undeclared on
purpose: the public Wikidata endpoint predefines them, and the template is
kept verbatim.

The client is shared state: one rate limiter and an append-only JSON-lines
cache (last entry per key wins on load) that makes offline replay possible.
The file keeps only what the endpoint said about a title; a failed lookup is
remembered for the run alone.  Any entry held answers, however old.  An
online client rejects an unusable endpoint URL when it is built, and stops
after ``MAX_REFUSALS`` refusals in a row.
Lookups are not coalesced; the resolver never overlaps two of one key.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Optional
from urllib.parse import quote, urlencode, urlsplit

from ircmap.gazetteer import GazetteerError, _read_table
from ircmap.ingest import token_key

__all__ = [
    "CacheEntry",
    "CacheStatus",
    "CacheStore",
    "DEFAULT_ENDPOINT",
    "EndpointRefused",
    "LabelMap",
    "Mode",
    "QUERY_TEMPLATE",
    "RateLimiter",
    "ReplayTransport",
    "RequestsTransport",
    "TransportError",
    "TransportResponse",
    "WikidataClient",
    "build_sparql_query",
]

logger = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://query.wikidata.org/sparql"
ENDPOINT_ENV_VAR = "IRC_SPARQL_ENDPOINT"
CACHE_DIR_ENV_VAR = "IRC_CACHE_DIR"
USER_AGENT_ENV_VAR = "IRC_USER_AGENT"

#: First wait between attempts of one lookup, doubled after each attempt.
BACKOFF_BASE_S = 1.0
#: The longest ``Retry-After`` the client waits for before its next attempt.
MAX_RETRY_AFTER_S = 60.0
#: Refusals in a row (a 403, or a 429 still refused at the last attempt) that stop a run.
MAX_REFUSALS = 5

QUERY_TEMPLATE = """\
PREFIX schema: <http://schema.org/>
PREFIX wdt:
<http://www.wikidata.org/prop/direct/>
SELECT ?countryLabel WHERE
{<https://en.wikipedia.org/wiki/[AFFILIATION]>
schema:about ?datalink. ?datalink wdt:P17
?country.SERVICE wikibase:label
{bd:serviceParam wikibase:language "en".}}"""

_SUBJECT_IRI_RE = re.compile(r"<https://en\.wikipedia\.org/wiki/([^>]+)>")


class Mode(str, Enum):
    ONLINE = "online"
    OFFLINE = "offline"


class TransportError(Exception):
    """Network-level failure while talking to the endpoint."""


class EndpointRefused(Exception):
    """The endpoint refused ``MAX_REFUSALS`` lookups in a row; the run should stop."""


class TransportResponse(NamedTuple):
    status_code: int
    text: str
    retry_after: Optional[float] = None  # seconds, from a ``Retry-After`` header


def build_sparql_query(fragment: str) -> str:
    """The query text for one affiliation fragment: the template, filled.

    The Wikipedia title keeps the fragment's original casing (titles are
    case-sensitive after the first character); runs of whitespace become a
    single underscore and reserved characters are percent-encoded.
    """
    fragment = fragment.strip()
    if not fragment:
        raise ValueError("empty affiliation fragment")
    return QUERY_TEMPLATE.replace("[AFFILIATION]", quote("_".join(fragment.split()), safe=""))


class CacheStatus(str, Enum):
    HIT = "hit"
    EMPTY = "empty"
    ERROR = "error"


class CacheEntry(NamedTuple):
    """One cached lookup: the countries found for a normalized fragment.

    A ``hit`` has countries and any other status none; only :meth:`from_json` checks this.
    """

    key: str
    countries: tuple[str, ...]
    status: CacheStatus
    retrieved_at: str  # ISO-8601, UTC
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(self._asdict(), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CacheEntry":
        """Parse one cache line, countries made distinct; ValueError if it is JSON but not an entry."""
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        key, retrieved_at, detail = obj.get("key"), obj.get("retrieved_at"), obj.get("detail", "")
        countries = obj.get("countries") or []
        if not isinstance(countries, list) or not all(
            isinstance(text, str) for text in (key, retrieved_at, detail, *countries)
        ):
            raise ValueError("a field is missing or has the wrong type")
        status = CacheStatus(obj["status"])
        if (status is CacheStatus.HIT) != bool(countries):
            raise ValueError("a hit needs countries and no other status may have any")
        return cls(key, tuple(dict.fromkeys(countries)), status, retrieved_at, detail)


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


class CacheStore:
    """Append-only JSON-lines cache, last entry per key wins; it keeps no clock.

    Every entry put is kept in memory, but only a ``hit`` or an ``empty`` is
    written; ``error`` lines that older versions wrote are skipped on load.
    Given a path, it creates the parent directory, or raises ``OSError``.
    """

    def __init__(self, path: Optional[Path | str] = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, CacheEntry] = {}
        self._lock = threading.Lock()
        # A run killed mid-append leaves a last line without its newline; the
        # next put starts a fresh line so its entry is not glued onto it.
        self._torn_tail = False
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.is_file():
                self._load()

    def _load(self) -> None:
        errors = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                self._torn_tail = not raw.endswith("\n")
                line = raw.strip()
                if not line:
                    continue
                try:
                    entry = CacheEntry.from_json(line)
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    logger.warning("%s:%d: skipping bad cache line (%s)", self.path, lineno, exc)
                    continue
                if entry.status is CacheStatus.ERROR:
                    errors += 1
                else:
                    self._entries[entry.key] = entry
        if errors:
            logger.warning("%s: skipped %d error lines; an online run asks for them again", self.path, errors)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[CacheEntry]:
        with self._lock:
            return self._entries.get(key)

    def put(self, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[entry.key] = entry
            if self.path is not None and entry.status is not CacheStatus.ERROR:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(("\n" if self._torn_tail else "") + entry.to_json() + "\n")
                self._torn_tail = False


class LabelMap:
    """English country label -> ISO code, exact match after normalization.

    Labels the map cannot place are collected in ``unmapped`` and logged, so
    nothing is dropped silently.
    """

    def __init__(self, mapping: dict[str, str]):
        self._by_key = {token_key(label): iso2 for label, iso2 in mapping.items()}
        self._by_key.pop("", None)
        self.unmapped: set[str] = set()

    def __len__(self) -> int:
        return len(self._by_key)

    def get(self, label: str) -> Optional[str]:
        iso2 = self._by_key.get(token_key(label))
        if iso2 is None:
            self.unmapped.add(label)
        return iso2

    @classmethod
    def from_gazetteer(cls, gazetteer, extra_labels_path: Optional[Path | str] = None) -> "LabelMap":
        """Canonical country names plus the extra-labels table; a bad table raises GazetteerError."""
        mapping = {entry.canonical_name: iso2 for iso2, entry in gazetteer.countries.items()}
        if extra_labels_path is not None:
            path = Path(extra_labels_path)
            for lineno, (label, iso2) in _read_table(path, 2, 2):
                iso2 = iso2.strip().upper()
                if iso2 not in gazetteer.countries:
                    raise GazetteerError(f"{path}:{lineno}: unknown country code {iso2!r}")
                mapping[label.strip()] = iso2
        return cls(mapping)


class RateLimiter:
    """Token-spacing limiter: at most ``rate_per_sec`` acquisitions per second."""

    def __init__(
        self,
        rate_per_sec: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._interval = 1.0 / rate_per_sec if rate_per_sec > 0 else 0.0
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_free = 0.0

    def acquire(self) -> None:
        if self._interval <= 0:
            return
        with self._lock:
            now = self._clock()
            start = max(now, self._next_free)
            self._next_free = start + self._interval
            delay = start - now
        if delay > 0:
            self._sleep(delay)


class RequestsTransport:
    """HTTP GET against a live SPARQL endpoint, with ``urllib.request``.

    An HTTP error status comes back as a response, for the client to retry or
    not; getting no response at all raises :class:`TransportError`.  A
    ``Retry-After`` header that is a whole number of seconds becomes
    ``retry_after``; the HTTP-date form RFC 9110 also allows is read as
    absent.  The HTTP modules are imported on first use, so offline runs
    never load them.
    """

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout

    def get(self, url: str, params: dict, headers: dict) -> TransportResponse:
        import http.client
        import urllib.error
        import urllib.request

        try:
            request = urllib.request.Request(f"{url}?{urlencode(params)}", headers=headers)
            try:
                response = urllib.request.urlopen(request, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                response = exc  # an error status still comes with a readable body
            with response:
                after = (response.headers.get("Retry-After") or "").strip()
                seconds = float(after) if after.isascii() and after.isdigit() else None
                return TransportResponse(response.status, response.read().decode("utf-8", "replace"), seconds)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(str(exc)) from exc


class ReplayTransport:
    """Serve recorded responses from a directory keyed by Wikipedia title.

    A request whose query names ``<https://en.wikipedia.org/wiki/T>`` is
    answered from ``<directory>/T.json``; a missing recording is a transport
    error.  Used by the test suite so it never touches the network.
    """

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)

    def get(self, url: str, params: dict, headers: dict) -> TransportResponse:
        query = params.get("query", "")
        match = _SUBJECT_IRI_RE.search(query)
        if match is None:
            raise TransportError("request carries no article IRI")
        title = match.group(1)
        path = self.directory / f"{title}.json"
        if not path.is_file():
            raise TransportError(f"no recorded response for {title!r}")
        return TransportResponse(200, path.read_text(encoding="utf-8"))


def _parse_country_labels(body: str) -> tuple[str, ...]:
    """Distinct ?countryLabel values, in order, from a SPARQL JSON body.

    A body that is JSON but not such a result raises KeyError or TypeError.
    """
    bindings = json.loads(body)["results"]["bindings"]
    if not isinstance(bindings, list):
        raise TypeError("bindings is not a list")
    labels: dict[str, None] = {}
    for binding in bindings:
        label = binding.get("countryLabel", {}) if isinstance(binding, dict) else None
        if not isinstance(label, dict):
            raise TypeError("a binding or its countryLabel is not an object")
        value = label.get("value")
        if value and not isinstance(value, str):
            raise TypeError("a countryLabel value is not a string")
        if value:
            labels[value] = None
    return tuple(labels)


def default_user_agent() -> str:
    agent = os.environ.get(USER_AGENT_ENV_VAR)
    if agent:
        return agent
    from ircmap import __version__

    return f"ircmap/{__version__} (affiliation-to-country enrichment; set {USER_AGENT_ENV_VAR})"


class WikidataClient:
    """Rate-limited, cached country lookups for affiliation fragments.

    Offline mode answers from the cache only and performs no network
    operations at all.  Online, an endpoint URL without an http(s) scheme, a
    host or a valid port, or with whitespace or a control character in it,
    raises ``ValueError`` here.  Lookups are not coalesced: two concurrent
    lookups of one normalized fragment each send a request.  Pool threads
    share one count of refusals in a row, kept under the client's lock.
    """

    def __init__(
        self,
        cache: CacheStore,
        label_map: Optional[LabelMap] = None,
        endpoint: str = DEFAULT_ENDPOINT,
        mode: Mode | str = Mode.ONLINE,
        transport=None,
        rate_limit: float = 2.0,
        user_agent: Optional[str] = None,
        max_attempts: int = 5,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cache = cache
        self.label_map = label_map if label_map is not None else LabelMap({})
        self.endpoint = endpoint
        self.mode = Mode(mode)
        if self.mode is Mode.ONLINE:
            try:
                parts = urlsplit(endpoint)
                parts.port  # raises ValueError for a port that is not a number in range
            except ValueError:
                parts = None
            plain = endpoint.isprintable() and " " not in endpoint  # urlsplit drops tabs, newlines, edge spaces
            if not plain or parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError(f"SPARQL endpoint must be an http(s) URL with a host: {endpoint!r}")
        self.transport = transport if transport is not None else RequestsTransport()
        self.rate_limiter = RateLimiter(rate_limit, clock=clock, sleep=sleep)
        self.headers = {
            "User-Agent": user_agent or default_user_agent(),
            "Accept": "application/sparql-results+json",
        }
        self.max_attempts = max(1, max_attempts)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._refusals, self._last_refusal = 0, ""  # the count stays at MAX_REFUSALS once there

    def query_country(self, fragment: str) -> CacheEntry:
        """Country labels for one fragment, from cache or the endpoint.

        Any cached entry answers, online or offline.  An offline miss gives an
        uncached ``offline-miss`` error; an online miss is fetched (HTTP 429
        and 5xx retried with backoff) and put in the cache, which writes only
        answers.  After ``MAX_REFUSALS`` refusals in a row, every online miss
        raises :class:`EndpointRefused`.
        """
        key = token_key(fragment)
        if not key:
            raise ValueError("empty affiliation fragment")
        entry = self.cache.get(key)
        if entry is not None:
            return entry
        if self.mode is Mode.OFFLINE:
            return self._error(key, "offline-miss")
        self._count_refusal(None)  # raises if refusals already stopped the run
        entry = self._fetch(key, fragment)
        self.cache.put(entry)
        self._count_refusal(entry)
        return entry

    def _count_refusal(self, entry: Optional[CacheEntry]) -> None:
        """Count ``entry`` as a refusal (403, exhausted 429) or reset the count; raise at ``MAX_REFUSALS``."""
        with self._lock:
            if entry is not None and self._refusals < MAX_REFUSALS:
                self._refusals = self._refusals + 1 if entry.detail in ("http 403", "http 429") else 0
                self._last_refusal = entry.detail
            if self._refusals >= MAX_REFUSALS:
                raise EndpointRefused(f"the SPARQL endpoint refused {MAX_REFUSALS} lookups in a row, "
                                      f"the last with {self._last_refusal}; the answers so far are cached")

    def _error(self, key: str, detail: str) -> CacheEntry:
        return CacheEntry(key, (), CacheStatus.ERROR, _utc_now().isoformat(), detail)

    def _fetch(self, key: str, fragment: str) -> CacheEntry:
        """The endpoint's answer for ``key``, or an error entry naming the last failure."""
        query = build_sparql_query(fragment)
        last_error, wait = "", 0.0
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(wait)
            wait = BACKOFF_BASE_S * 2 ** attempt
            self.rate_limiter.acquire()
            try:
                response = self.transport.get(self.endpoint, params={"query": query}, headers=self.headers)
            except TransportError as exc:
                last_error = f"transport error: {exc}"
                continue
            if response.status_code == 200:
                try:
                    labels = _parse_country_labels(response.text)
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    return self._error(key, f"malformed response: {exc}")
                status = CacheStatus.HIT if labels else CacheStatus.EMPTY
                return CacheEntry(key, labels, status, _utc_now().isoformat())
            last_error = f"http {response.status_code}"
            if response.status_code != 429 and response.status_code < 500:
                break
            if response.retry_after is not None:
                wait = max(wait, min(response.retry_after, MAX_RETRY_AFTER_S))
        return self._error(key, last_error)
