"""International-collaboration statistics over resolved mentions.

A paper's country set is the set of distinct resolved countries across its
mentions (multiplicity is ignored: collaboration is about distinct
countries).  A paper is international with two or more countries, domestic
with exactly one, and unmeasurable with none; unmeasurable papers are kept
out of the ratio's denominator rather than counted as domestic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from ircmap.ingest import BibRecord
from ircmap.resolver import Resolution

__all__ = [
    "ConsistencyError",
    "IrcStats",
    "MentionCountry",
    "PaperCountrySet",
    "YearStats",
    "collapse_to_papers",
    "compute_irc",
]


class ConsistencyError(Exception):
    """Resolutions and records disagree about which mentions exist."""


class MentionCountry(NamedTuple):
    """The two fields of one enriched row that the statistics read."""

    paper_id: str
    iso2: Optional[str]


class PaperCountrySet(NamedTuple):
    paper_id: str
    year: Optional[int]
    countries: frozenset[str]


def collapse_to_papers(
    resolutions: Iterable[Union[Resolution, MentionCountry]],
    records: Optional[Iterable[BibRecord]] = None,
) -> Iterator[PaperCountrySet]:
    """Group mention resolutions into one country set per paper, lazily.

    Reads only ``paper_id`` and ``iso2`` of each resolution, so a
    :class:`MentionCountry` read back from an enriched file serves as well as
    a :class:`Resolution`.

    Each paper is yielded as soon as its resolutions end, so a paper's
    resolutions must be contiguous and in record order, as ``resolve`` writes
    them.  With ``records``, papers come in record order with their record's
    year, and a record with no resolutions is an unmeasurable paper.  Without,
    record order is the order of first appearance and every year is ``None``.
    A duplicate record id, and a resolution naming an unknown paper or one
    out of record order, are each a fatal :class:`ConsistencyError`.  What
    grows with the corpus is the set of ids seen: 30 to 60 bytes per paper on
    64-bit CPython, plus the id string it keeps alive.
    """
    rows = iter(resolutions)
    row = next(rows, None)
    papers = None if records is None else iter(records)
    seen: set[str] = set()
    while True:
        if papers is None:  # each run of rows with one paper id is a paper
            if row is None:
                break
            paper_id, year = row.paper_id, None
        else:
            record = next(papers, None)
            if record is None:
                break
            paper_id, year = record.paper_id, record.year
            if paper_id in seen:
                raise ConsistencyError(f"duplicate paper id {paper_id!r} in records")
        seen.add(paper_id)
        countries: set[str] = set()
        while row is not None and row.paper_id == paper_id:
            if row.iso2 is not None:
                countries.add(row.iso2)
            row = next(rows, None)
        if row is not None and row.paper_id in seen:
            raise ConsistencyError(f"resolution for paper {row.paper_id!r} is out of record order")
        yield PaperCountrySet(paper_id, year, frozenset(countries))
    if row is not None:
        raise ConsistencyError(f"resolution references unknown paper {row.paper_id!r}")


@dataclass
class YearStats:
    total: int = 0
    international: int = 0
    domestic: int = 0
    unmeasurable: int = 0

    @property
    def irc_ratio(self) -> Optional[float]:
        measurable = self.international + self.domestic
        return self.international / measurable if measurable else None

    def add(self, n_countries: int) -> None:
        self.total += 1
        if n_countries >= 2:
            self.international += 1
        elif n_countries == 1:
            self.domestic += 1
        else:
            self.unmeasurable += 1


@dataclass
class IrcStats(YearStats):
    """Corpus-level collaboration measures: ``YearStats`` over all papers, per year and per pair.

    Counters only: :func:`ircmap.reports.write_irc_stats` owns the report
    built from them.  ``pair_counts`` maps each unordered country pair (stored
    sorted) to the number of papers where both appear; a paper with k
    countries contributes k*(k-1)/2 pairs, each once.
    """

    per_year: dict = field(default_factory=dict)  # year (int or None) -> YearStats
    pair_counts: dict = field(default_factory=dict)  # (iso2, iso2) sorted -> int


def compute_irc(papers: Iterable[PaperCountrySet]) -> IrcStats:
    """Fold paper country sets into corpus statistics.

    Pure and associative: computing on partitions and merging counters gives
    the same result as one sequential pass.
    """
    stats = IrcStats()
    for paper in papers:
        n = len(paper.countries)
        stats.add(n)
        year_stats = stats.per_year.setdefault(paper.year, YearStats())
        year_stats.add(n)
        for pair in combinations(sorted(paper.countries), 2):
            stats.pair_counts[pair] = stats.pair_counts.get(pair, 0) + 1
    return stats
