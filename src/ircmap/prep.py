"""Corpus preparation: field-of-study filtering, cross-set dedup, co-author filter.

All three steps are pure subset operations over a record stream: output is a
subsequence of the input and records are never modified.  The intended
composition (applied by the ``prepare`` command) is field-of-study filter,
then cross-set deduplication, then removal of single-author records;
``prepare`` writes the survivors with :func:`ircmap.ingest.record_line`,
which ``parse_records`` reads back as equal records, author indices included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ircmap.ingest import BibRecord

__all__ = [
    "DedupIndex",
    "FosFilter",
    "PrepStats",
    "compute_fos_filter",
    "dedup_overlap",
    "filter_by_fos",
    "filter_coauthored",
    "title_year_key",
]


@dataclass(frozen=True)
class FosFilter:
    """Top field-of-study terms and the fraction of papers they cover."""

    terms: frozenset[str]
    coverage: float


def compute_fos_filter(overlap_records: Iterable[BibRecord], top_k: int) -> FosFilter:
    """Select the ``top_k`` most frequent FOS terms over the overlap corpus.

    Frequency is the number of papers carrying the term; ties break
    alphabetically so the result is deterministic.  Coverage is the fraction
    of overlap papers having at least one selected term.  Each distinct FOS
    set is kept once, with the number of papers carrying it.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    fos_sets = Counter(record.fos_terms for record in overlap_records)
    papers = sum(fos_sets.values())
    if papers == 0:
        raise ValueError("empty overlap corpus")
    frequency: Counter[str] = Counter()
    for fos, count in fos_sets.items():
        for term in fos:
            frequency[term] += count
    ranked = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))
    terms = frozenset(term for term, _ in ranked[:top_k])
    covered = sum(count for fos, count in fos_sets.items() if fos & terms)
    return FosFilter(terms=terms, coverage=covered / papers)


def filter_by_fos(
    records: Iterable[BibRecord],
    fos_filter: FosFilter,
    stats: Optional["PrepStats"] = None,
) -> Iterator[BibRecord]:
    """Keep exactly the records sharing at least one term with the filter."""
    for record in records:
        if record.fos_terms & fos_filter.terms:
            yield record
        elif stats is not None:
            stats.fos_dropped += 1


def title_year_key(record: BibRecord) -> tuple[str, Optional[int]]:
    """Lowercase alphanumeric-only title plus year."""
    title = "".join(ch for ch in record.title.casefold() if ch.isalnum())
    return (title, record.year)


def _normalize_doi(doi: str) -> str:
    doi = doi.strip().lower()
    for prefix in ("https://doi.org/", "http://doi.org/", "doi:"):
        if doi.startswith(prefix):
            doi = doi[len(prefix):]
    return doi


class DedupIndex:
    """Dedup keys of one source, used to drop its duplicates from the other.

    Matching is by normalized title + year, upgraded to DOI equality when
    both records carry a DOI (same title/year but different DOIs are treated
    as distinct papers).  A record whose normalized title is empty has no
    title key and matches only by DOI.
    """

    def __init__(self):
        self.dois: set[str] = set()
        self.title_year_plain: set[tuple] = set()
        self.title_year_with_doi: set[tuple] = set()

    @classmethod
    def from_records(cls, records: Iterable[BibRecord]) -> "DedupIndex":
        index = cls()
        for record in records:
            key = title_year_key(record)
            if record.doi:
                index.dois.add(_normalize_doi(record.doi))
            if key[0]:
                (index.title_year_with_doi if record.doi else index.title_year_plain).add(key)
        return index

    def matches(self, record: BibRecord) -> bool:
        doi = _normalize_doi(record.doi) if record.doi else None
        if doi and doi in self.dois:
            return True
        key = title_year_key(record)
        if key in self.title_year_plain:
            return True
        if key in self.title_year_with_doi:
            # Both sides carry DOIs for this title/year: equality decides,
            # and unequal DOIs were already ruled out above.
            return doi is None
        return False


def dedup_overlap(
    primary: Iterable[BibRecord],
    secondary_keys: DedupIndex,
    stats: Optional["PrepStats"] = None,
) -> Iterator[BibRecord]:
    """Drop records from ``primary`` that the other source already has."""
    for record in primary:
        if secondary_keys.matches(record):
            if stats is not None:
                stats.dedup_dropped += 1
        else:
            yield record


def filter_coauthored(
    records: Iterable[BibRecord],
    stats: Optional["PrepStats"] = None,
) -> Iterator[BibRecord]:
    """Keep records with two or more distinct authors.

    Records with no author data at all are dropped and counted separately
    from single-author records.
    """
    for record in records:
        distinct_authors = len({m.author_index for m in record.mentions})
        if distinct_authors >= 2:
            yield record
        elif stats is not None:
            if distinct_authors == 0:
                stats.no_author_data += 1
            else:
                stats.single_author_dropped += 1


@dataclass
class PrepStats:
    """Counters and year range collected across the preparation pipeline."""

    total_works: int = 0
    fos_dropped: int = 0
    dedup_dropped: int = 0
    single_author_dropped: int = 0
    no_author_data: int = 0
    output_records: int = 0
    min_year: Optional[int] = None
    max_year: Optional[int] = None
    fos_coverage: Optional[float] = None
    fos_terms: tuple[str, ...] = ()

    def observe_input(self, record: BibRecord) -> None:
        self.total_works += 1
        if record.year is not None:
            self.min_year = record.year if self.min_year is None else min(self.min_year, record.year)
            self.max_year = record.year if self.max_year is None else max(self.max_year, record.year)

    @property
    def date_range(self) -> str:
        if self.min_year is None:
            return "n/a"
        return f"{self.min_year}-{self.max_year}"
