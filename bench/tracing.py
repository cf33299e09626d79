"""Layer tracing from outside the program, and the in-process pipeline runner.

``install`` replaces the module attributes the pipeline calls into each layer
(``ircmap.cli.resolve_corpus``, ``ircmap.resolver.match_step1``,
``WikidataClient.query_country``, ...) with wrappers that record one span per
call, or per ``next()`` for lazy iterators.  Spans (name, start, end, parent)
stay in memory until the run ends.

Self time splits wall time over the spans that are doing the work: at every
instant it is shared equally by the active spans that have no active child.
A span started on a pool thread counts as a child of the main thread's
innermost span (the one that submitted the work), so the self times of all
spans add up exactly to the traced pipeline's wall time.

Run as a script, this file executes the three CLI stages in one process,
untraced (``plain``), traced (``traced``) or just the resolver at ``jobs=1``
(``jobs1``), and writes a JSON summary.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

STAGES = ("prepare", "resolve", "metrics")
#: Everything a traced pipeline spends its time in; their self times add up.
LAYERS = ("cli.prepare", "cli.resolve", "cli.metrics", "ingest", "gazetteer", "resolver",
          "wikidata", "prep", "metrics", "reports")


class Span:
    __slots__ = ("name", "parent", "start", "end", "flag")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.flag = False
        self.start = self.end = 0.0


class Tracer:
    """Spans of one run; safe to use from the resolver's pool threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._local.stack = self._main_stack = []

    def begin(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                pass
        span = Span(name, parent)
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._local.stack.pop()


class _TimedIter:
    """Iterator proxy timing each ``next()``; other attributes pass through."""

    def __init__(self, tracer: Tracer, name: str, inner, flag):
        self._tracer, self._name, self._inner, self._flag = tracer, name, inner, flag
        self._it = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        span = self._tracer.begin(self._name)
        try:
            item = next(self._it)
        finally:
            self._tracer.end(span)
        span.flag = self._flag(item)
        return item

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _never(_result) -> bool:
    return False


def _wrap(tracer: Tracer, name: str, fn, lazy: bool, flag):
    if lazy:
        @functools.wraps(fn)
        def lazy_wrapper(*args, **kwargs):
            return _TimedIter(tracer, name, fn(*args, **kwargs), flag)

        return lazy_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span.flag = True
            raise
        finally:
            tracer.end(span)
        span.flag = flag(result)
        return result

    return wrapper


def _targets():
    """(owner, attribute, span name, lazy, flag) for every traced boundary."""
    import ircmap.cli as cli
    import ircmap.resolver as resolver
    from ircmap.prep import DedupIndex
    from ircmap.resolver import Category
    from ircmap.wikidata import CacheStore, RateLimiter, RequestsTransport, WikidataClient

    return [
        (cli, "parse_records", "ingest.parse_records", True, _never),
        (resolver, "normalize_affiliation", "ingest.normalize_affiliation", False, _never),
        (cli, "build_gazetteer", "gazetteer.build_gazetteer", False, _never),
        # flag: the resolution is not null-like, so it had to go through the memo
        (cli, "resolve_corpus", "resolver.resolve_corpus", True,
         lambda r: r.category is not Category.NULL_LIKE),
        (resolver, "match_step1", "resolver.match_step1", False, lambda r: r is not None),
        (resolver, "wikidata_fragments", "resolver.wikidata_fragments", False, _never),
        (WikidataClient, "query_country", "wikidata.WikidataClient.query_country", False,
         lambda r: r.detail == "offline-miss"),
        (RequestsTransport, "get", "wikidata.transport.get", False, lambda r: r.status_code != 200),
        (RateLimiter, "acquire", "wikidata.RateLimiter.acquire", False, _never),
        (CacheStore, "put", "wikidata.CacheStore.put", False, _never),
        (CacheStore, "__init__", "wikidata.CacheStore.load", False, _never),
        (cli, "compute_fos_filter", "prep.compute_fos_filter", False, _never),
        (cli, "filter_by_fos", "prep.filter_by_fos", True, _never),
        (cli, "dedup_overlap", "prep.dedup_overlap", True, _never),
        (cli, "filter_coauthored", "prep.filter_coauthored", True, _never),
        (DedupIndex, "from_records", "prep.DedupIndex.from_records", False, _never),
        (cli, "collapse_to_papers", "metrics.collapse_to_papers", False, _never),
        (cli, "compute_irc", "metrics.compute_irc", False, _never),
        (cli, "write_prep_report", "reports.write_prep_report", False, _never),
        (cli, "write_breakdown", "reports.write_breakdown", False, _never),
        (cli, "write_irc_stats", "reports.write_irc_stats", False, _never),
    ]


def install(tracer: Tracer):
    """Wrap every traced boundary; returns a function that restores them."""
    saved = []
    for owner, attr, name, lazy, flag in _targets():
        original = vars(owner)[attr]
        fn = getattr(owner, attr)  # bound for a classmethod
        wrapped = _wrap(tracer, name, fn, lazy, flag)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(original, classmethod) else wrapped)
        saved.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return uninstall


def self_times(spans: list[Span]) -> list[float]:
    """Each span's share of wall time (see the module docstring)."""
    index = {id(span): i for i, span in enumerate(spans)}
    parent = [index.get(id(s.parent)) if s.parent is not None else None for s in spans]
    events = [(s.start, 1, i) for i, s in enumerate(spans)] + [(s.end, 0, -i) for i, s in enumerate(spans)]
    events.sort()
    own = [0.0] * len(spans)
    active = [False] * len(spans)
    children = [0] * len(spans)
    leaves: set[int] = set()
    previous = events[0][0] if events else 0.0
    for t, starting, key in events:
        if leaves:
            share = (t - previous) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        previous = t
        i = key if starting else -key
        p = parent[i]
        if starting:
            active[i] = True
            leaves.add(i)
            if p is not None and active[p]:
                children[p] += 1
                leaves.discard(p)
        else:
            active[i] = False
            leaves.discard(i)
            if p is not None and active[p]:
                children[p] -= 1
                if children[p] == 0:
                    leaves.add(p)
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run, by metric name."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    flagged: dict[str, int] = {}
    for span, share in zip(spans, own):
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (span.end - span.start)
        flagged[name] = flagged.get(name, 0) + span.flag
        layer = name if name.startswith("cli.") else name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + share
        if name == "resolver.resolve_corpus":
            self_s[name] = self_s.get(name, 0.0) + share

    query = "wikidata.WikidataClient.query_country"
    missed = set()
    for span in spans:
        if span.name == "wikidata.transport.get":
            ancestor = span.parent
            while ancestor is not None and ancestor.name != query:
                ancestor = ancestor.parent
            if ancestor is not None:
                missed.add(id(ancestor))
    queries = calls.get(query, 0)
    query_hits = queries - len(missed) - flagged.get(query, 0)

    def c(name: str) -> int:
        return calls.get(name, 0)

    def b(name: str) -> float:
        return busy.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    step1 = "resolver.match_step1"
    metrics = {
        "ingest.parse_records.calls": c("ingest.parse_records"),
        "ingest.parse_records.busy_s": b("ingest.parse_records"),
        "ingest.normalize_affiliation.calls": c("ingest.normalize_affiliation"),
        "ingest.normalize_affiliation.busy_s": b("ingest.normalize_affiliation"),
        "gazetteer.build_gazetteer.busy_s": b("gazetteer.build_gazetteer"),
        "resolver.resolve_corpus.calls": c("resolver.resolve_corpus"),
        "resolver.resolve_corpus.busy_s": b("resolver.resolve_corpus"),
        "resolver.resolve_corpus.self_s": self_s.get("resolver.resolve_corpus", 0.0),
        "resolver.resolve_corpus.memo_hit_ratio": max(
            0.0, 1.0 - ratio(c(step1), flagged.get("resolver.resolve_corpus", 0))
        ),
        "resolver.match_step1.calls": c(step1),
        "resolver.match_step1.busy_s": b(step1),
        "resolver.match_step1.hit_ratio": ratio(flagged.get(step1, 0), c(step1)),
        "resolver.wikidata_fragments.calls": c("resolver.wikidata_fragments"),
        "resolver.wikidata_fragments.busy_s": b("resolver.wikidata_fragments"),
        f"{query}.calls": queries,
        f"{query}.busy_s": b(query),
        f"{query}.cache_hit_ratio": ratio(query_hits, queries),
        "wikidata.transport.get.calls": c("wikidata.transport.get"),
        "wikidata.transport.get.wait_s": b("wikidata.transport.get"),
        "wikidata.transport.get.failed": flagged.get("wikidata.transport.get", 0),
        "wikidata.RateLimiter.acquire.calls": c("wikidata.RateLimiter.acquire"),
        "wikidata.RateLimiter.acquire.wait_s": b("wikidata.RateLimiter.acquire"),
        "wikidata.CacheStore.put.calls": c("wikidata.CacheStore.put"),
        "wikidata.CacheStore.put.busy_s": b("wikidata.CacheStore.put"),
        "wikidata.CacheStore.load_s": b("wikidata.CacheStore.load"),
    }
    for name in ("compute_fos_filter", "filter_by_fos", "dedup_overlap", "filter_coauthored",
                 "DedupIndex.from_records"):
        metrics[f"prep.{name}.busy_s"] = b(f"prep.{name}")
    for name in ("metrics.collapse_to_papers", "metrics.compute_irc", "reports.write_prep_report",
                 "reports.write_breakdown", "reports.write_irc_stats"):
        metrics[f"{name}.busy_s"] = b(name)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return metrics


def _run_stages(config: dict, tracer: Tracer | None) -> dict[str, float]:
    from ircmap.cli import main

    seconds = {}
    for stage in STAGES:
        span = tracer.begin(f"cli.{stage}") if tracer else None
        start = perf_counter()
        code = main(config["stages"][stage])
        seconds[stage] = perf_counter() - start
        if span is not None:
            tracer.end(span)
        if code != 0:
            raise SystemExit(f"ircmap {stage} exited with {code}")
    return seconds


def _jobs1(config: dict) -> dict:
    """The resolver alone at ``jobs=1`` over the prepared corpus."""
    from ircmap.gazetteer import build_gazetteer, default_data_dir
    from ircmap.ingest import parse_records
    from ircmap.resolver import resolve_corpus
    from ircmap.wikidata import CacheStore, LabelMap, Mode, WikidataClient

    opts = config["jobs1"]
    g = build_gazetteer(default_data_dir())
    client = WikidataClient(
        cache=CacheStore(opts["cache"]),
        label_map=LabelMap.from_gazetteer(g, default_data_dir() / "wikidata_labels.tsv"),
        endpoint=opts["endpoint"],
        mode=Mode.OFFLINE if opts["offline"] else Mode.ONLINE,
        rate_limit=opts["rate_limit"],
    )
    records = list(parse_records(opts["input"], "jsonl"))
    start = perf_counter()
    resolutions = [(r.category.value, r.iso2, r.evidence) for r in resolve_corpus(records, g, client, jobs=1)]
    return {"jobs1_s": perf_counter() - start, "digest": digest_labels(resolutions)}


def digest_labels(labels) -> str:
    """SHA-256 over ``(category, iso2, evidence)`` triples, in order."""
    digest = hashlib.sha256()
    for category, iso2, evidence in labels:
        digest.update(f"{category}\t{iso2}\t{evidence}\n".encode())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the pipeline stages in one process.")
    parser.add_argument("phase", choices=("plain", "traced", "jobs1"))
    parser.add_argument("config", type=Path, help="JSON: stage argv lists and output paths")
    args = parser.parse_args()
    config = json.loads(args.config.read_text(encoding="utf-8"))
    if args.phase == "jobs1":
        summary = _jobs1(config)
    elif args.phase == "plain":
        summary = {"stages": _run_stages(config, None)}
    else:
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            stages = _run_stages(config, tracer)
        finally:
            uninstall()
        roots = [s for s in tracer.spans if s.name.startswith("cli.")]
        summary = {
            "stages": stages,
            "spans_out": config["spans_out"],
            "traced_pipeline_s": sum(s.end - s.start for s in roots),
            "layers": layer_metrics(tracer.spans),
        }
        index = {id(s): i for i, s in enumerate(tracer.spans)}
        with open(config["spans_out"], "w", encoding="utf-8") as handle:
            for i, s in enumerate(tracer.spans):
                parent = index[id(s.parent)] if s.parent is not None else None
                handle.write(json.dumps([i, s.name, s.start, s.end, parent]) + "\n")
    Path(config["summary_out"]).write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
