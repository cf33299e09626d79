from __future__ import annotations

import io
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircmap.ingest import AffiliationMention, BibRecord, Format, parse_records
from ircmap.metrics import (
    ConsistencyError,
    MentionCountry,
    PaperCountrySet,
    collapse_to_papers,
    compute_irc,
)
from ircmap.resolver import Category, Resolution


def _resolution(paper_id, idx, iso2=None, category=None):
    if category is None:
        category = Category.COUNTRY_NAME if iso2 else Category.UNIDENTIFIED
    return Resolution(paper_id, idx, "x", category, iso2, iso2.lower() if iso2 else "", False)


def _record(paper_id, n_mentions, year=2000):
    return BibRecord(
        paper_id=paper_id,
        year=year,
        mentions=tuple(AffiliationMention(paper_id, i, "x") for i in range(n_mentions)),
    )


def _paper(paper_id, countries, year=2000, unresolved=0):
    return PaperCountrySet(paper_id, year, frozenset(countries), unresolved)


def _oracle_collapse(resolutions, records=None):
    """The dict-based collapse that read every record and resolution before
    returning; kept as the streaming merge-join's oracle."""
    years = {}
    by_paper = {}  # paper id -> [country set, unresolved count]
    for record in records or ():
        if record.paper_id in by_paper:
            raise ConsistencyError(f"duplicate paper id {record.paper_id!r} in records")
        years[record.paper_id] = record.year
        by_paper[record.paper_id] = [set(), 0]
    for resolution in resolutions:
        paper = by_paper.get(resolution.paper_id)
        if paper is None:
            if records is not None:
                raise ConsistencyError(f"resolution references unknown paper {resolution.paper_id!r}")
            paper = by_paper[resolution.paper_id] = [set(), 0]
        if resolution.iso2 is not None:
            paper[0].add(resolution.iso2)
        else:
            paper[1] += 1
    return [
        PaperCountrySet(paper_id, years.get(paper_id), frozenset(countries), unresolved)
        for paper_id, (countries, unresolved) in by_paper.items()
    ]


#: One drawn paper: id (a small pool, so ids repeat), year, its rows' countries.
_drawn_papers = st.lists(
    st.tuples(
        st.sampled_from([f"p{i}" for i in range(12)]),
        st.one_of(st.none(), st.integers(1990, 2005)),
        st.lists(st.sampled_from(["US", "CA", "NZ", "DE", None]), max_size=4),
    ),
    max_size=25,
)


class TestCollapseToPapers:
    def test_set_collapse(self):
        records = [_record("p1", 3)]
        resolutions = [
            _resolution("p1", 0, "CA"),
            _resolution("p1", 1, "NZ"),
            _resolution("p1", 2, "NZ"),
        ]
        (paper,) = collapse_to_papers(resolutions, records)
        assert paper.countries == frozenset({"CA", "NZ"})
        assert paper.unresolved_mentions == 0

    def test_unresolved_counted(self):
        records = [_record("p1", 2)]
        resolutions = [
            _resolution("p1", 0, "US"),
            _resolution("p1", 1, category=Category.NULL_LIKE),
        ]
        (paper,) = collapse_to_papers(resolutions, records)
        assert paper.countries == frozenset({"US"})
        assert paper.unresolved_mentions == 1

    def test_zero_mention_record_included(self):
        papers = list(collapse_to_papers([], [_record("p1", 0)]))
        assert papers == [_paper("p1", set(), unresolved=0)]

    def test_without_records_papers_in_first_appearance_order(self):
        resolutions = [
            _resolution("p2", 0, "CA"),
            _resolution("p2", 1, category=Category.NULL_LIKE),
            _resolution("p1", 0, "NZ"),
            _resolution("p1", 1, "FR"),
        ]
        assert list(collapse_to_papers(resolutions)) == [
            _paper("p2", {"CA"}, year=None, unresolved=1),
            _paper("p1", {"NZ", "FR"}, year=None),
        ]

    def test_unknown_paper_is_fatal(self):
        with pytest.raises(ConsistencyError):
            list(collapse_to_papers([_resolution("ghost", 0, "CA")], [_record("p1", 1)]))

    def test_duplicate_paper_id_is_fatal(self):
        with pytest.raises(ConsistencyError):
            list(collapse_to_papers([], [_record("p1", 1), _record("p1", 1)]))

    def test_matches_brute_force_group_by(self):
        rng = random.Random(5)
        countries = ["US", "CA", "NZ", "DE", "JP", None]
        records, resolutions = [], []
        for i in range(40):
            n = rng.randint(0, 5)
            records.append(_record(f"p{i}", n, year=1990 + (i % 7)))
            for j in range(n):
                resolutions.append(_resolution(f"p{i}", j, rng.choice(countries)))

        papers = list(collapse_to_papers(resolutions, records))

        # Oracle: an independent dict-of-lists group-by.
        grouped: dict[str, list] = {r.paper_id: [] for r in records}
        for resolution in resolutions:
            grouped[resolution.paper_id].append(resolution)
        assert len(papers) == len(records)
        for record, paper in zip(records, papers):
            rows = grouped[record.paper_id]
            assert paper.paper_id == record.paper_id
            assert paper.countries == frozenset(r.iso2 for r in rows if r.iso2)
            assert paper.unresolved_mentions == sum(1 for r in rows if r.iso2 is None)


    @settings(max_examples=200, deadline=None)
    @given(drawn=_drawn_papers)
    def test_streamed_equals_oracle(self, drawn):
        """Records in order as ``parse_records`` yields them (a repeated id is
        skipped), rows in record order: streaming gives the oracle's papers."""
        text = "".join(
            json.dumps({"paper_id": pid, "year": year, "authors": [{"affiliation": "x"}] * len(rows)}) + "\n"
            for pid, year, rows in drawn
        )
        records = list(parse_records(io.StringIO(text), Format.GENERIC_JSONL))
        first = {}
        for pid, _, rows in drawn:
            first.setdefault(pid, rows)
        rows = [MentionCountry(r.paper_id, iso2) for r in records for iso2 in first[r.paper_id]]

        streamed = collapse_to_papers(iter(rows), iter(parse_records(io.StringIO(text), Format.GENERIC_JSONL)))
        assert compute_irc(streamed) == compute_irc(_oracle_collapse(rows, records))
        assert list(collapse_to_papers(rows, records)) == _oracle_collapse(rows, records)
        assert list(collapse_to_papers(rows)) == _oracle_collapse(rows)

    def test_first_paper_yielded_before_third_record_is_read(self):
        pulled = []

        def records():
            for i in range(50):
                pulled.append(i)
                yield _record(f"p{i}", 2)

        rows = (_resolution(f"p{i}", j, "CA") for i in range(50) for j in range(2))
        papers = collapse_to_papers(rows, records())
        assert next(papers) == _paper("p0", {"CA"})
        assert len(pulled) <= 2

    @pytest.mark.parametrize(
        "order", [["p2", "p1"], ["p1", "p2", "p1"], ["p1", "p3", "p2"]],
        ids=["swapped", "non-contiguous", "later-paper-first"],
    )
    def test_rows_out_of_record_order_are_fatal(self, order):
        records = [_record("p1", 1), _record("p2", 1), _record("p3", 1)]
        rows = [_resolution(pid, 0, "CA") for pid in order]
        with pytest.raises(ConsistencyError, match=r"^resolution for paper 'p[12]' is out of record order$"):
            list(collapse_to_papers(rows, records))

    def test_unknown_paper_message_differs_from_out_of_order(self):
        records = [_record("p1", 1), _record("p2", 1)]
        rows = [_resolution("p1", 0, "CA"), _resolution("ghost", 0, "NZ"), _resolution("p2", 0, "US")]
        with pytest.raises(ConsistencyError, match=r"^resolution references unknown paper 'ghost'$"):
            list(collapse_to_papers(rows, records))

    def test_without_records_non_contiguous_rows_are_fatal(self):
        rows = [_resolution("p1", 0, "CA"), _resolution("p2", 0, "US"), _resolution("p1", 1, "NZ")]
        papers = collapse_to_papers(rows)
        assert next(papers) == _paper("p1", {"CA"}, year=None)
        with pytest.raises(ConsistencyError, match=r"^resolution for paper 'p1' is out of record order$"):
            next(papers)

    def test_without_records_first_paper_yielded_when_its_rows_end(self):
        """The second paper's first row ends the first paper: three rows are read, not all 100."""
        pulled = []

        def rows():
            for i in range(50):
                for j in range(2):
                    pulled.append((i, j))
                    yield _resolution(f"p{i}", j, "CA")

        papers = collapse_to_papers(rows())
        assert next(papers) == _paper("p0", {"CA"}, year=None)
        assert pulled == [(0, 0), (0, 1), (1, 0)]


class TestComputeIrc:
    def test_minimal_international_paper(self):
        stats = compute_irc([_paper("p1", {"CA", "NZ"})])
        assert stats.international == 1
        assert stats.domestic == 0
        assert stats.pair_counts == {("CA", "NZ"): 1}
        assert stats.irc_ratio == 1.0

    def test_single_country_many_mentions_is_domestic(self):
        stats = compute_irc([_paper("p1", {"US"}, unresolved=0)])
        assert stats.domestic == 1
        assert stats.international == 0
        assert stats.pair_counts == {}

    def test_unmeasurable_bucket_excluded_from_ratio(self):
        stats = compute_irc([_paper("p1", set()), _paper("p2", {"US", "CA"})])
        assert stats.unmeasurable == 1
        assert stats.irc_ratio == 1.0

    def test_empty_corpus(self):
        stats = compute_irc([])
        assert stats.total == 0
        assert stats.irc_ratio is None

    def test_fifty_paper_fixture_equals_enumeration_oracle(self):
        rng = random.Random(13)
        pool = ["US", "CA", "NZ", "DE", "JP", "FR", "GB"]
        papers = [
            _paper(f"p{i}", rng.sample(pool, rng.randint(0, 4)), year=2000 + (i % 4))
            for i in range(50)
        ]
        stats = compute_irc(papers)

        # Oracle: exhaustive recount with independent code paths.
        international = sum(1 for p in papers if len(p.countries) >= 2)
        domestic = sum(1 for p in papers if len(p.countries) == 1)
        unmeasurable = sum(1 for p in papers if not p.countries)
        pair_counts: dict[tuple, int] = {}
        for paper in papers:
            for pair in combinations(sorted(paper.countries), 2):
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
        assert stats.total == 50
        assert stats.international == international
        assert stats.domestic == domestic
        assert stats.unmeasurable == unmeasurable
        assert stats.pair_counts == pair_counts
        assert stats.irc_ratio == pytest.approx(international / (international + domestic))

    def test_totals_partition_exactly(self):
        rng = random.Random(17)
        papers = [
            _paper(f"p{i}", rng.sample(["US", "CA", "DE"], rng.randint(0, 3)))
            for i in range(200)
        ]
        stats = compute_irc(papers)
        assert stats.international + stats.domestic + stats.unmeasurable == stats.total

    def test_pair_count_is_k_choose_2_per_paper(self):
        paper = _paper("p1", {"US", "CA", "DE", "JP"})
        stats = compute_irc([paper])
        assert sum(stats.pair_counts.values()) == 4 * 3 // 2

    def test_ratio_invariant_under_mention_duplication(self):
        # Country sets already collapse duplicates; equal sets give equal stats.
        once = compute_irc([_paper("p1", {"US", "CA"})])
        duplicated = compute_irc([_paper("p1", frozenset(["US", "CA", "CA", "US"]))])
        assert once.irc_ratio == duplicated.irc_ratio
        assert once.pair_counts == duplicated.pair_counts

    def test_per_year_sums_to_global(self):
        rng = random.Random(19)
        papers = [
            _paper(f"p{i}", rng.sample(["US", "CA", "DE"], rng.randint(0, 3)),
                   year=rng.choice([1999, 2000, None]))
            for i in range(120)
        ]
        stats = compute_irc(papers)
        assert sum(ys.total for ys in stats.per_year.values()) == stats.total
        assert sum(ys.international for ys in stats.per_year.values()) == stats.international
        assert sum(ys.domestic for ys in stats.per_year.values()) == stats.domestic
        assert sum(ys.unmeasurable for ys in stats.per_year.values()) == stats.unmeasurable

    def test_parallel_partial_aggregation_equals_sequential(self):
        rng = random.Random(23)
        papers = [
            _paper(f"p{i}", rng.sample(["US", "CA", "DE", "JP"], rng.randint(0, 3)),
                   year=2000 + (i % 3))
            for i in range(90)
        ]
        whole = compute_irc(papers)
        left, right = compute_irc(papers[:45]), compute_irc(papers[45:])
        assert whole.total == left.total + right.total
        assert whole.international == left.international + right.international
        merged_pairs = dict(left.pair_counts)
        for pair, count in right.pair_counts.items():
            merged_pairs[pair] = merged_pairs.get(pair, 0) + count
        assert whole.pair_counts == merged_pairs
