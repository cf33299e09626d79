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
from typing import Iterable, NamedTuple, Optional, Union

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


@dataclass(frozen=True)
class PaperCountrySet:
    paper_id: str
    year: Optional[int]
    countries: frozenset[str]
    unresolved_mentions: int


def collapse_to_papers(
    resolutions: Iterable[Union[Resolution, MentionCountry]],
    records: Optional[Iterable[BibRecord]] = None,
) -> list[PaperCountrySet]:
    """Group mention resolutions into one country set per paper.

    Reads only ``paper_id`` and ``iso2`` of each resolution, so a
    :class:`MentionCountry` read back from an enriched file serves as well as
    a :class:`Resolution`.  ``unresolved_mentions`` counts the paper's
    mentions without ``iso2``: the null-like and unidentified ones.  With
    ``records``, papers come in record order with the records' years, and a
    resolution naming a paper that is not in ``records`` is a fatal
    consistency error.  Without them, papers come in order of first
    appearance among the resolutions and years are unknown.
    """
    years: dict[str, Optional[int]] = {}
    by_paper: dict[str, list] = {}  # paper id -> [country set, unresolved count]
    for record in records or ():
        if record.paper_id in by_paper:
            raise ConsistencyError(f"duplicate paper id {record.paper_id!r} in records")
        years[record.paper_id] = record.year
        by_paper[record.paper_id] = [set(), 0]
    for resolution in resolutions:
        paper = by_paper.get(resolution.paper_id)
        if paper is None:
            if records is not None:
                raise ConsistencyError(
                    f"resolution references unknown paper {resolution.paper_id!r}"
                )
            paper = by_paper[resolution.paper_id] = [set(), 0]
        if resolution.iso2 is not None:
            paper[0].add(resolution.iso2)
        else:
            paper[1] += 1
    return [
        PaperCountrySet(
            paper_id=paper_id,
            year=years.get(paper_id),
            countries=frozenset(countries),
            unresolved_mentions=unresolved,
        )
        for paper_id, (countries, unresolved) in by_paper.items()
    ]


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
class IrcStats:
    """Corpus-level collaboration measures.

    ``pair_counts`` maps each unordered country pair (stored sorted) to the
    number of papers where both appear; a paper with k countries contributes
    k*(k-1)/2 pairs, each once.
    """

    total_papers: int = 0
    international: int = 0
    domestic: int = 0
    unmeasurable: int = 0
    per_year: dict = field(default_factory=dict)  # year (int or None) -> YearStats
    pair_counts: dict = field(default_factory=dict)  # (iso2, iso2) sorted -> int

    @property
    def irc_ratio(self) -> Optional[float]:
        measurable = self.international + self.domestic
        return self.international / measurable if measurable else None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "total_papers": self.total_papers,
            "international": self.international,
            "domestic": self.domestic,
            "unmeasurable": self.unmeasurable,
            "irc_ratio": self.irc_ratio,
            "per_year": {
                ("unknown" if year is None else str(year)): {
                    "total": ys.total,
                    "international": ys.international,
                    "domestic": ys.domestic,
                    "unmeasurable": ys.unmeasurable,
                    "irc_ratio": ys.irc_ratio,
                }
                for year, ys in sorted(
                    self.per_year.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)
                )
            },
            "pair_counts": {
                f"{a}-{b}": count
                for (a, b), count in sorted(self.pair_counts.items())
            },
        }


def compute_irc(papers: Iterable[PaperCountrySet]) -> IrcStats:
    """Fold paper country sets into corpus statistics.

    Pure and associative: computing on partitions and merging counters gives
    the same result as one sequential pass.
    """
    stats = IrcStats()
    for paper in papers:
        n = len(paper.countries)
        stats.total_papers += 1
        if n >= 2:
            stats.international += 1
        elif n == 1:
            stats.domestic += 1
        else:
            stats.unmeasurable += 1
        year_stats = stats.per_year.setdefault(paper.year, YearStats())
        year_stats.add(n)
        for pair in combinations(sorted(paper.countries), 2):
            stats.pair_counts[pair] = stats.pair_counts.get(pair, 0) + 1
    return stats
