"""SPARQL lookup of an institution's country through its Wikipedia article.

The query asks, for the English Wikipedia article named after the remaining
affiliation text, which Wikidata item the article is about and which country
(P17) that item belongs to, returning English country labels via the label
service.  The ``wikibase:`` and ``bd:`` prefixes are left undeclared on
purpose: the public Wikidata endpoint predefines them, and the template is
kept verbatim.

The client is shared state: one rate limiter and an append-only JSON-lines
cache (last entry per key wins on load) that makes offline replay possible.
The cache applies no policy; the client decides what an entry answers:
offline, every entry answers as recorded, however old, and expiry only decides
whether an online run asks again.  An online client rejects an unusable
endpoint URL when it is built.
Lookups are not coalesced; the resolver never overlaps two of one key.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Optional
from urllib.parse import quote, urlencode, urlsplit

from ircmap.gazetteer import GazetteerError, _read_table
from ircmap.ingest import token_key

__all__ = [
    "CacheEntry",
    "CacheStatus",
    "CacheStore",
    "DEFAULT_ENDPOINT",
    "LabelMap",
    "Mode",
    "QUERY_TEMPLATE",
    "RateLimiter",
    "ReplayTransport",
    "RequestsTransport",
    "SparqlQuery",
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

ERROR_TTL = timedelta(hours=24)

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


@dataclass(frozen=True)
class TransportResponse:
    status_code: int
    text: str


@dataclass(frozen=True)
class SparqlQuery:
    text: str
    fragment: str
    url_title: str


def build_sparql_query(fragment: str) -> SparqlQuery:
    """Fill the query template for one affiliation fragment.

    The Wikipedia title keeps the fragment's original casing (titles are
    case-sensitive after the first character); runs of whitespace become a
    single underscore and reserved characters are percent-encoded.
    """
    fragment = fragment.strip()
    if not fragment:
        raise ValueError("empty affiliation fragment")
    url_title = quote("_".join(fragment.split()), safe="")
    text = QUERY_TEMPLATE.replace("[AFFILIATION]", url_title)
    return SparqlQuery(text=text, fragment=fragment, url_title=url_title)


class CacheStatus(str, Enum):
    HIT = "hit"
    EMPTY = "empty"
    ERROR = "error"


@dataclass(frozen=True)
class CacheEntry:
    """One cached lookup: the countries found for a normalized fragment."""

    key: str
    countries: tuple[str, ...]
    status: CacheStatus
    retrieved_at: str  # ISO-8601, UTC
    detail: str = ""

    def __post_init__(self):
        if self.status is CacheStatus.HIT and not self.countries:
            raise ValueError("hit entries need at least one country")
        if self.status is not CacheStatus.HIT and self.countries:
            raise ValueError(f"{self.status.value} entries must not carry countries")

    def to_json(self) -> str:
        return json.dumps(
            {
                "key": self.key,
                "countries": list(self.countries),
                "status": self.status.value,
                "retrieved_at": self.retrieved_at,
                "detail": self.detail,
            },
            ensure_ascii=False,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "CacheEntry":
        """Parse one cache line; raises ValueError if it is JSON but not an entry."""
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        key, retrieved_at, detail = obj.get("key"), obj.get("retrieved_at"), obj.get("detail", "")
        countries = obj.get("countries") or []
        if not isinstance(countries, list) or not all(
            isinstance(text, str) for text in (key, retrieved_at, detail, *countries)
        ):
            raise ValueError("a field is missing or has the wrong type")
        return cls(key, tuple(countries), CacheStatus(obj["status"]), retrieved_at, detail)


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


class CacheStore:
    """Append-only JSON-lines cache, last entry per key wins; it keeps no clock and expires nothing."""

    def __init__(self, path: Optional[Path | str] = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, CacheEntry] = {}
        self._lock = threading.Lock()
        # A run killed mid-append leaves a last line without its newline; the
        # next put starts a fresh line so its entry is not glued onto it.
        self._torn_tail = False
        if self.path is not None and self.path.is_file():
            self._load()

    def _load(self) -> None:
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
                self._entries[entry.key] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[CacheEntry]:
        with self._lock:
            return self._entries.get(key)

    def put(self, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[entry.key] = entry
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
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
    not; getting no response at all raises :class:`TransportError`.  The HTTP
    modules are imported on first use, so offline runs never load them.
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
                return TransportResponse(response.status, response.read().decode("utf-8", "replace"))
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
    """Ordered, de-duplicated ?countryLabel bindings from a SPARQL JSON body."""
    data = json.loads(body)
    bindings = data["results"]["bindings"]
    labels = []
    for binding in bindings:
        value = binding.get("countryLabel", {}).get("value")
        if value and value not in labels:
            labels.append(value)
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
    lookups of one normalized fragment each send a request.
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
        backoff_base: float = 1.0,
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
        self.backoff_base = backoff_base
        self._sleep = sleep

    def query_country(self, fragment: str) -> CacheEntry:
        """Country labels for one fragment, from cache or the endpoint.

        Offline, every cached entry answers as recorded, however old, and a
        miss returns an (uncached) ``offline-miss`` error entry.  Online, an
        error entry older than ``ERROR_TTL`` is asked again.  HTTP 429/5xx
        responses are retried with exponential backoff; every answer but a
        malformed body is cached, HTTP and transport errors as error entries.
        """
        key = token_key(fragment)
        if not key:
            raise ValueError("empty affiliation fragment")
        entry = self.cache.get(key)
        if entry is not None and (self.mode is Mode.OFFLINE or not self._expired(entry)):
            return entry
        if self.mode is Mode.OFFLINE:
            return self._error(key, "offline-miss")
        entry, cacheable = self._fetch(key, fragment)
        if cacheable:
            self.cache.put(entry)
        return entry

    def _expired(self, entry: CacheEntry) -> bool:
        """Whether ``entry`` is an error older than ``ERROR_TTL`` or stamped with no readable time."""
        if entry.status is not CacheStatus.ERROR:
            return False
        try:
            retrieved = datetime.fromisoformat(entry.retrieved_at)
        except ValueError:
            return True
        if retrieved.tzinfo is None:
            retrieved = retrieved.replace(tzinfo=timezone.utc)
        return _utc_now() - retrieved > ERROR_TTL

    def _error(self, key: str, detail: str) -> CacheEntry:
        return CacheEntry(key, (), CacheStatus.ERROR, _utc_now().isoformat(), detail)

    def _fetch(self, key: str, fragment: str) -> tuple[CacheEntry, bool]:
        """The endpoint's answer for ``key`` and whether to cache it: all but a malformed body are."""
        query = build_sparql_query(fragment)
        last_error = ""
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                self._sleep(self.backoff_base * 2 ** (attempt - 2))
            self.rate_limiter.acquire()
            try:
                response = self.transport.get(
                    self.endpoint, params={"query": query.text}, headers=self.headers
                )
            except TransportError as exc:
                last_error = f"transport error: {exc}"
                continue
            if response.status_code == 200:
                try:
                    labels = _parse_country_labels(response.text)
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    return self._error(key, f"malformed response: {exc}"), False
                status = CacheStatus.HIT if labels else CacheStatus.EMPTY
                return CacheEntry(key, labels, status, _utc_now().isoformat()), True
            last_error = f"http {response.status_code}"
            if response.status_code != 429 and response.status_code < 500:
                break
        return self._error(key, last_error), True
