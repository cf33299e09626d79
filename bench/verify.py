"""Judge one pipeline run's outputs against the labels known from the corpus.

A mention fails when its enriched row is missing, extra, or differs from the
expected row in any field (an evidence field naming a lookup error differs
by construction).  Report-level mismatches are listed as problems and also
count against the mentions they cover.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations
from pathlib import Path

from corpus import Corpus

CATEGORIES = ("NullLike", "CountryName", "ComponentPart", "Wikidata", "Unidentified")


class Verdict:
    """Mentions attempted and failed, plus human-readable problems."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.problems) < 20:
            self.problems.append(problem)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def expected_irc(corpus: Corpus) -> dict:
    """Brute-force collaboration totals from the expected labels."""
    countries: dict[str, set[str]] = {pid: set() for pid in corpus.kept_ids}
    for (paper_id, _), (_, iso2, _) in corpus.expected.items():
        if iso2 is not None:
            countries[paper_id].add(iso2)
    totals = Counter()
    per_year: dict[str, Counter] = {}
    pairs = Counter()
    for paper_id, found in countries.items():
        kind = "international" if len(found) >= 2 else "domestic" if found else "unmeasurable"
        totals[kind] += 1
        year = per_year.setdefault(str(corpus.years[paper_id]), Counter())
        year["total"] += 1
        year[kind] += 1
        for a, b in combinations(sorted(found), 2):
            pairs[f"{a}-{b}"] += 1
    return {
        "total_papers": len(countries),
        **{kind: totals[kind] for kind in ("international", "domestic", "unmeasurable")},
        "per_year": {
            year: {kind: c[kind] for kind in ("total", "international", "domestic", "unmeasurable")}
            for year, c in per_year.items()
        },
        "pair_counts": dict(pairs),
    }


def _ratio(stats: dict) -> float | None:
    measurable = stats["international"] + stats["domestic"]
    return stats["international"] / measurable if measurable else None


def check_prepare(corpus: Corpus, prep_dir: Path, verdict: Verdict) -> None:
    got = [row["paper_id"] for row in _read_jsonl(prep_dir / "prepared.jsonl")]
    if got != corpus.kept_ids:
        wrong = set(got) ^ set(corpus.kept_ids)
        verdict.fail(max(1, len(wrong)), f"prepared ids differ ({len(wrong)} papers)")


def check_enriched(corpus: Corpus, res_dir: Path, verdict: Verdict, raws: dict) -> None:
    rows = _read_jsonl(res_dir / "enriched.jsonl")
    expected = corpus.expected
    if len(rows) != len(expected):
        verdict.fail(abs(len(rows) - len(expected)), f"{len(rows)} rows for {len(expected)} mentions")
    for row, (key, (category, iso2, evidence)) in zip(rows, expected.items()):
        want = {
            "paper_id": key[0],
            "author_index": key[1],
            "raw": raws[key],
            "category": category,
            "iso2": iso2,
            "evidence": evidence,
            "ambiguous": False,
        }
        if row != want:
            verdict.fail(1, f"row {key}: got {row}, want {want}")

    breakdown = json.loads((res_dir / "breakdown.json").read_text(encoding="utf-8"))
    want_counts = Counter(label[0] for label in expected.values())
    got_counts = {row["category"]: row["count"] for row in breakdown["rows"]}
    if breakdown["total"] != len(expected) or any(
        got_counts.get(c, 0) != want_counts[c] for c in CATEGORIES
    ):
        diff = sum(abs(got_counts.get(c, 0) - want_counts[c]) for c in CATEGORIES)
        verdict.fail(max(1, diff), f"breakdown {got_counts} != {dict(want_counts)}")


def check_metrics(corpus: Corpus, met_dir: Path, verdict: Verdict, want: dict) -> None:
    got = json.loads((met_dir / "irc_stats.json").read_text(encoding="utf-8"))
    same = all(got[k] == want[k] for k in ("total_papers", "international", "domestic", "unmeasurable"))
    same = same and got["pair_counts"] == want["pair_counts"]
    same = same and set(got["per_year"]) == set(want["per_year"])
    for year, counts in want["per_year"].items():
        row = got["per_year"].get(year, {})
        same = same and all(row.get(k) == v for k, v in counts.items())
        same = same and _close(row.get("irc_ratio"), _ratio(counts))
    same = same and _close(got["irc_ratio"], _ratio(want))
    if not same:
        verdict.fail(1, "irc_stats.json differs from the brute-force recomputation")


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return math.isclose(got, want, rel_tol=1e-12)


def check_requests(corpus: Corpus, requests: Counter, verdict: Verdict) -> None:
    """Exactly one request per distinct fragment the corpus forces to be sent."""
    if set(requests) != corpus.expected_requests or any(n != 1 for n in requests.values()):
        missing = sorted(corpus.expected_requests - set(requests))
        extra = sorted(set(requests) - corpus.expected_requests)
        repeated = sorted(key for key, n in requests.items() if n > 1)
        verdict.fail(
            max(1, len(missing) + len(extra) + len(repeated)),
            f"{sum(requests.values())} requests for {len(corpus.expected_requests)} expected fragments; "
            f"missing {missing[:3]}, unexpected {extra[:3]}, repeated {repeated[:3]}",
        )


class Checker:
    """Precomputed expectations for one corpus, applied to each run."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.irc = expected_irc(corpus)
        self.raws = {
            (record["paper_id"], index): author["affiliation"]
            for record in corpus.records
            for index, author in enumerate(record["authors"])
        }

    def check(self, prep_dir: Path, res_dir: Path, met_dir: Path, requests: Counter) -> Verdict:
        verdict = Verdict(len(self.corpus.expected))
        check_prepare(self.corpus, prep_dir, verdict)
        check_enriched(self.corpus, res_dir, verdict, self.raws)
        check_metrics(self.corpus, met_dir, verdict, self.irc)
        check_requests(self.corpus, requests, verdict)
        return verdict
