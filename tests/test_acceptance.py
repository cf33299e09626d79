"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from itertools import combinations

import pytest

from ircmap.cli import main
from ircmap.ingest import AffiliationMention, BibRecord, token_key
from ircmap.metrics import PaperCountrySet, compute_irc
from ircmap.resolver import Category, resolve, resolve_corpus
from ircmap.wikidata import (
    CacheEntry,
    CacheStatus,
    CacheStore,
    Mode,
    ReplayTransport,
    WikidataClient,
    build_sparql_query,
)

from support import (
    QUERY_TEMPLATE_FILE,
    REPLAY_DIR,
    CountingTransport,
    FailingTransport,
    preferred,
    read_labeled_fixture,
)

PASS = "[PASS]"


def _record(paper_id, raws, year=2005):
    return BibRecord(
        paper_id=paper_id,
        year=year,
        mentions=tuple(AffiliationMention(paper_id, i, raw) for i, raw in enumerate(raws)),
    )


def _seeded_cache(path=None):
    store = CacheStore(path)
    at = "2024-01-01T00:00:00+00:00"
    store.put(CacheEntry("mcgill university", ("Canada",), CacheStatus.HIT, at))
    store.put(CacheEntry("eth zurich", ("Switzerland",), CacheStatus.HIT, at))
    store.put(CacheEntry("uppsala university", ("Sweden",), CacheStatus.HIT, at))
    store.put(CacheEntry("gibberish research outfit", (), CacheStatus.EMPTY, at))
    return store


def test_partition_exactness_on_randomized_corpus(gazetteer, label_map):
    rng = random.Random(42)
    country_strings = [
        "Stanford University, Stanford, CA, USA",
        "Sorbonne, Paris, France",
        "University of Tokyo, Tokyo, Japan",
        "Humboldt University, Berlin, Germany",
        "Tsinghua University, Beijing, China",
    ]
    part_strings = ["Cambridge, MA", "Atlanta, Georgia", "Edinburgh, Scotland", "Austin, Texas"]
    null_strings = ["NA", "", "N/A", "#TAB#", "-"]
    wikidata_strings = ["McGill University", "ETH Zurich", "Uppsala University"]
    garbage_strings = ["zz unknown", "???x", "gibberish research outfit", "qwerty asdf"]
    pool = country_strings + part_strings + null_strings + wikidata_strings + garbage_strings

    mentions = [rng.choice(pool) for _ in range(10_000)]
    client = WikidataClient(
        cache=_seeded_cache(), label_map=label_map, mode=Mode.OFFLINE,
        transport=FailingTransport(),
    )
    start = time.perf_counter()
    counts = Counter(r.category for r in resolve_corpus([_record("p", mentions)], gazetteer, client))
    elapsed = time.perf_counter() - start

    assert sum(counts.values()) == 10_000
    assert all(counts[c] > 0 for c in Category), "fixture must span all categories"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"{PASS} partition exactness: 5 categories sum to 10000 ({elapsed:.2f}s)")


def test_pipeline_ordering_controls_knowledge_graph_queries(gazetteer, label_map):
    # Every mention carries a country name: the client must never be asked.
    all_country = [
        "MIT, Cambridge, MA, USA", "Oxford University, Oxford, UK",
        "ETH, Zurich, Switzerland", "NII, Tokyo, Japan",
    ] * 25
    transport = CountingTransport(ReplayTransport(REPLAY_DIR))
    client = WikidataClient(
        cache=CacheStore(), label_map=label_map, transport=transport,
        rate_limit=0.0, max_attempts=1, sleep=lambda s: None,
    )
    list(resolve_corpus([_record("p", all_country)], gazetteer, client))
    assert transport.calls == 0

    # No mention carries location words: exactly one query per unique
    # normalized fragment (case/spacing variants share one).
    no_country = [
        "McGill University", "MCGILL UNIVERSITY", "McGill  University",
        "University of Oxford", "ETH Zurich", "Uppsala University",
        "Technion", "Sorbonne University", "University of Oxford",
        "Charles University", "KU Leuven", "Aalto University",
    ]
    unique_fragments = {token_key(raw) for raw in no_country}
    transport2 = CountingTransport(ReplayTransport(REPLAY_DIR))
    client2 = WikidataClient(
        cache=CacheStore(), label_map=label_map, transport=transport2,
        rate_limit=0.0, max_attempts=1, sleep=lambda s: None,
    )
    list(resolve_corpus([_record("p", no_country)], gazetteer, client2))
    assert transport2.calls == len(unique_fragments)
    print(f"{PASS} pipeline ordering: 0 queries with countries present; "
          f"{transport2.calls} queries for {len(unique_fragments)} unique fragments")


def test_mcgill_golden_path(gazetteer, label_map):
    query = build_sparql_query("McGill University")
    golden = QUERY_TEMPLATE_FILE.read_text(encoding="utf-8")
    expected = golden.replace("[AFFILIATION]", "McGill_University")
    assert " ".join(query.split()) == " ".join(expected.split())

    client = WikidataClient(
        cache=CacheStore(), label_map=label_map,
        transport=ReplayTransport(REPLAY_DIR),
        rate_limit=0.0, max_attempts=1, sleep=lambda s: None,
    )
    resolution = resolve(AffiliationMention("p", 0, "McGill University"), gazetteer, client)
    assert resolution.category is Category.WIKIDATA
    assert resolution.iso2 == "CA"
    entry = client.cache.get("mcgill university")
    assert entry is not None and entry.countries == ("Canada",)
    print(f"{PASS} golden path: query text matches template; replay resolves to CA via 'Canada'")


def test_labeled_fixture_accuracy(gazetteer, label_map):
    rows = read_labeled_fixture()
    assert len(rows) == 200
    client = WikidataClient(
        cache=CacheStore(), label_map=label_map,
        transport=ReplayTransport(REPLAY_DIR),
        rate_limit=0.0, max_attempts=1, sleep=lambda s: None,
    )
    start = time.perf_counter()
    category_hits = 0
    identified = 0
    country_hits = 0
    for i, (raw, want_category, want_iso2) in enumerate(rows):
        resolution = resolve(AffiliationMention("p", i, raw), gazetteer, client)
        if resolution.category.value == want_category:
            category_hits += 1
        if resolution.iso2 is not None:
            identified += 1
            if resolution.iso2 == want_iso2:
                country_hits += 1
    elapsed = time.perf_counter() - start

    category_accuracy = category_hits / len(rows)
    assert category_accuracy >= 0.95, f"category accuracy {category_accuracy:.3f}"
    assert identified > 0
    assert country_hits == identified, "a resolved row got the wrong country"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"{PASS} labeled fixture: category accuracy {category_accuracy:.1%}, "
          f"country accuracy on identified rows {country_hits}/{identified} ({elapsed:.2f}s)")


def test_gazetteer_completeness(gazetteer, data_dir):
    for iso2, entry in gazetteer.countries.items():
        hit = preferred(gazetteer, token_key(entry.canonical_name), "country")
        assert hit is not None and hit.iso2 == iso2, entry.canonical_name
    assert len(gazetteer.countries) >= 193

    us_parts = [p for p in gazetteer.parts if p.parent_iso2 == "US"]
    state_names = {p.part_name for p in us_parts}
    assert len(state_names) == 51  # 50 states + DC
    for part in us_parts:
        hit = preferred(gazetteer, token_key(part.part_name), "part")
        assert hit is not None and hit.iso2 == "US", part.part_name
        usps = sorted(a for a in part.abbreviations if len(a) == 2)
        assert usps, f"{part.part_name} lacks a USPS code"
        for code in usps:
            hit = preferred(gazetteer, code, "part")
            assert hit is not None and hit.iso2 == "US", code

    for nation in ("England", "Scotland", "Wales", "Northern Ireland"):
        hit = preferred(gazetteer, token_key(nation), "part")
        assert (hit.iso2, hit.part_name) == ("GB", nation)
    print(f"{PASS} gazetteer completeness: {len(gazetteer.countries)} countries, "
          f"51 US parts by name+code, 4 UK nations -> GB")


def test_irc_oracle_equivalence():
    rng = random.Random(2024)
    pool = ["US", "CA", "NZ", "DE", "JP", "FR", "GB", "CN", "BR", "IN"]
    for corpus_index in range(100):
        papers = [
            PaperCountrySet(
                paper_id=f"c{corpus_index}p{i}",
                year=rng.choice([1999, 2005, 2012, None]),
                countries=frozenset(rng.sample(pool, rng.randint(0, 5))),
            )
            for i in range(rng.randint(0, 30))
        ]
        stats = compute_irc(papers)

        # Independent brute-force enumeration.
        international = sum(1 for p in papers if len(p.countries) >= 2)
        domestic = sum(1 for p in papers if len(p.countries) == 1)
        unmeasurable = sum(1 for p in papers if len(p.countries) == 0)
        pair_counts: dict[tuple, int] = {}
        for paper in papers:
            pairs = list(combinations(sorted(paper.countries), 2))
            k = len(paper.countries)
            assert len(pairs) == k * (k - 1) // 2
            for pair in pairs:
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
        assert stats.total == len(papers)
        assert stats.international == international
        assert stats.domestic == domestic
        assert stats.unmeasurable == unmeasurable
        assert stats.international + stats.domestic + stats.unmeasurable == stats.total
        assert stats.pair_counts == pair_counts
        if international + domestic:
            assert stats.irc_ratio == pytest.approx(international / (international + domestic))
        else:
            assert stats.irc_ratio is None
        per_year_total = sum(ys.total for ys in stats.per_year.values())
        assert per_year_total == stats.total
    print(f"{PASS} IRC oracle: 100 randomized corpora match brute-force enumeration")


def test_parallel_and_rerun_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    rng = random.Random(7)
    pool = [
        "MIT, Cambridge, MA, USA", "Oxford, UK", "NA", "McGill University",
        "ETH Zurich", "Cambridge, MA", "Atlanta, Georgia", "zz nowhere",
        "Uppsala University", "Paris, France", "#TAB#", "Tbilisi, Georgia",
    ]
    with open(corpus_path, "w", encoding="utf-8") as handle:
        for i in range(120):
            affiliations = [{"affiliation": rng.choice(pool)} for _ in range(rng.randint(1, 4))]
            handle.write(json.dumps({
                "paper_id": f"p{i}", "title": f"T{i}", "year": 2000 + (i % 5),
                "fos": ["ai"], "authors": affiliations,
            }) + "\n")
    cache_path = tmp_path / "cache.jsonl"
    _seeded_cache(cache_path)
    # Unrecorded fragments must be in the snapshot too, so offline runs are complete.
    extra = CacheStore(cache_path)
    extra.put(CacheEntry("zz nowhere", (), CacheStatus.EMPTY, "2024-01-01T00:00:00+00:00"))

    def run(out_dir, jobs):
        code = main([
            "resolve", "--input", str(corpus_path), "--output", str(out_dir),
            "--cache", str(cache_path), "--offline", "--jobs", str(jobs),
        ])
        assert code == 0
        return {
            name: (out_dir / name).read_bytes()
            for name in ("enriched.jsonl", "breakdown.json", "breakdown.csv", "breakdown.txt")
        }

    first = run(tmp_path / "jobs1", 1)
    parallel = run(tmp_path / "jobs8", 8)
    rerun = run(tmp_path / "again", 8)
    assert parallel == first
    assert rerun == first
    print(f"{PASS} determinism: --jobs 8 and rerun outputs byte-identical to --jobs 1")


def test_throughput_one_million_step1_mentions(gazetteer, label_map):
    templates = [
        "Dept of {}, University of {}, {}",
        "{} Institute, {}, {}",
        "School of {}, {} University, {}",
    ]
    subjects = ["Physics", "History", "Computing", "Biology", "Economics"]
    places = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta"]
    countries = [
        "USA", "Canada", "France", "Germany", "Japan", "New Zealand", "Brazil",
        "China", "India", "South Africa", "Cambridge, MA", "Atlanta, Georgia",
    ]
    rng = random.Random(99)
    pool = [
        template.format(subject, place, country)
        for template in templates
        for subject in subjects
        for place in places
        for country in countries
    ]
    rng.shuffle(pool)

    total = 1_000_000
    client = WikidataClient(
        cache=_seeded_cache(), label_map=label_map, mode=Mode.OFFLINE,
        transport=FailingTransport(),
    )

    def records():
        per_record = 20
        for i in range(total // per_record):
            base = (i * per_record) % len(pool)
            raws = [pool[(base + j) % len(pool)] for j in range(per_record)]
            yield _record(f"p{i}", raws)

    start = time.perf_counter()
    count = 0
    identified = 0
    for resolution in resolve_corpus(records(), gazetteer, client):
        count += 1
        if resolution.iso2 is not None:
            identified += 1
    elapsed = time.perf_counter() - start
    assert count == total
    assert identified == total  # step-1-only corpus by construction
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"{PASS} throughput: {total:,} mentions resolved in {elapsed:.1f}s")


def test_offline_isolation(gazetteer, label_map):
    transport = FailingTransport()
    client = WikidataClient(
        cache=_seeded_cache(), label_map=label_map, mode=Mode.OFFLINE, transport=transport,
    )
    raws = ["McGill University", "zz never recorded", "Paris, France", "NA", "Cambridge, MA"]
    resolutions = list(resolve_corpus([_record("p", raws)], gazetteer, client))
    assert transport.calls == 0
    assert resolutions[0].category is Category.WIKIDATA  # served from the cache snapshot
    assert resolutions[1].category is Category.UNIDENTIFIED
    assert "offline-miss" in resolutions[1].evidence
    print(f"{PASS} offline isolation: zero transport invocations with a failing network stub")
