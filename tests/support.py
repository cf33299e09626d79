"""Shared helpers for the test suite: instrumented transports, fixture paths
and gazetteer key lookups."""

from __future__ import annotations

from pathlib import Path

from ircmap.wikidata import TransportError

FIXTURES_DIR = Path(__file__).parent / "fixtures"
REPLAY_DIR = FIXTURES_DIR / "wikidata_replay"
LABELED_FIXTURE = FIXTURES_DIR / "labeled_affiliations.tsv"
QUERY_TEMPLATE_FILE = FIXTURES_DIR / "country_query_template.sparql"


def preferred(gazetteer, key, kind):
    """The most preferred ``kind`` interpretation of ``key``, or None."""
    entry = gazetteer.keys.get(key)
    if entry is None:
        return None
    return next((i for i in entry.interpretations if i.kind == kind), None)


class CountingTransport:
    """Wraps a transport and counts every network invocation."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def get(self, url, params, headers):
        self.calls += 1
        return self.inner.get(url, params, headers)


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
