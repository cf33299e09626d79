from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ircmap.ingest import AffiliationMention, BibRecord
from ircmap.prep import (
    DedupIndex,
    PrepStats,
    compute_fos_filter,
    dedup_overlap,
    filter_by_fos,
    filter_coauthored,
    title_year_key,
)


def _record(paper_id, fos=(), n_authors=2, title="t", year=2000, doi=None):
    return BibRecord(
        paper_id=paper_id,
        title=title,
        year=year,
        fos_terms=frozenset(fos),
        doi=doi,
        mentions=tuple(
            AffiliationMention(paper_id, i, f"org {i}") for i in range(n_authors)
        ),
    )


class TestComputeFosFilter:
    def test_single_term_corpus(self):
        records = [_record(f"p{i}", fos=["machine learning"]) for i in range(10)]
        fos = compute_fos_filter(records, top_k=1)
        assert fos.terms == frozenset({"machine learning"})
        assert fos.coverage == 1.0

    def test_coverage_equals_brute_force_recount(self):
        rng = random.Random(7)
        vocabulary = [f"term{i}" for i in range(12)]
        records = [
            _record(f"p{i}", fos=rng.sample(vocabulary, rng.randint(0, 4)))
            for i in range(100)
        ]
        top_k = 5
        fos = compute_fos_filter(records, top_k)

        # Brute-force oracle: term frequencies and coverage counted by hand.
        freq: dict[str, int] = {}
        for record in records:
            for term in record.fos_terms:
                freq[term] = freq.get(term, 0) + 1
        expected_terms = frozenset(
            term for term, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        )
        covered = sum(1 for record in records if record.fos_terms & expected_terms)
        assert fos.terms == expected_terms
        assert fos.coverage == pytest.approx(covered / 100)

    def test_tie_break_is_deterministic(self):
        records = [_record("p1", fos=["beta"]), _record("p2", fos=["alpha"])]
        fos = compute_fos_filter(records, top_k=1)
        assert fos.terms == frozenset({"alpha"})

    def test_empty_overlap_rejected(self):
        with pytest.raises(ValueError, match="empty overlap"):
            compute_fos_filter([], top_k=3)

    def test_bad_top_k_rejected(self):
        with pytest.raises(ValueError):
            compute_fos_filter([_record("p")], top_k=0)


def _fos_filter_from_lists(records, top_k):
    """Terms and coverage computed with one FOS set kept per record."""
    frequency: dict[str, int] = {}
    fos_sets = []
    for record in records:
        fos_sets.append(record.fos_terms)
        for term in record.fos_terms:
            frequency[term] = frequency.get(term, 0) + 1
    ranked = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))
    terms = frozenset(term for term, _ in ranked[:top_k])
    return terms, sum(1 for fos in fos_sets if fos & terms) / len(fos_sets)


@given(st.lists(st.frozensets(st.sampled_from("abcdefg"), max_size=4), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=8))
def test_fos_filter_counting_distinct_sets_equals_list_based(fos_sets, top_k):
    records = [_record(f"p{i}", fos=fos) for i, fos in enumerate(fos_sets)]
    fos = compute_fos_filter(iter(records), top_k)
    assert (fos.terms, fos.coverage) == _fos_filter_from_lists(records, top_k)


class TestFilterByFos:
    def test_no_terms_dropped(self):
        fos = compute_fos_filter([_record("p", fos=["ai"])], 1)
        assert list(filter_by_fos([_record("q", fos=[])], fos)) == []

    def test_matching_record_kept(self):
        fos = compute_fos_filter([_record("p", fos=["ai"])], 1)
        kept = list(filter_by_fos([_record("q", fos=["ai", "other"])], fos))
        assert [r.paper_id for r in kept] == ["q"]

    def test_kept_set_equals_brute_force_scan(self):
        rng = random.Random(11)
        vocabulary = [f"t{i}" for i in range(8)]
        records = [
            _record(f"p{i}", fos=rng.sample(vocabulary, rng.randint(0, 3)))
            for i in range(60)
        ]
        fos = compute_fos_filter(records, 3)
        kept = [r.paper_id for r in filter_by_fos(records, fos)]
        expected = [r.paper_id for r in records if set(r.fos_terms) & set(fos.terms)]
        assert kept == expected


class TestDedupOverlap:
    def test_identical_title_year_dropped(self):
        secondary = DedupIndex.from_records([_record("s1", title="Same Paper", year=2010)])
        kept = list(dedup_overlap([_record("p1", title="Same  paper!", year=2010)], secondary))
        assert kept == []

    def test_same_title_different_year_kept(self):
        secondary = DedupIndex.from_records([_record("s1", title="Same Paper", year=2011)])
        kept = list(dedup_overlap([_record("p1", title="Same Paper", year=2010)], secondary))
        assert len(kept) == 1

    def test_doi_equality_decides_when_both_present(self):
        secondary = DedupIndex.from_records(
            [_record("s1", title="Shared Title", year=2010, doi="10.1/equal")]
        )
        same_doi = _record("p1", title="Shared Title", year=2010, doi="10.1/EQUAL")
        different_doi = _record("p2", title="Shared Title", year=2010, doi="10.1/other")
        assert list(dedup_overlap([same_doi], secondary)) == []
        assert [r.paper_id for r in dedup_overlap([different_doi], secondary)] == ["p2"]

    def test_doi_matches_across_title_variants(self):
        secondary = DedupIndex.from_records(
            [_record("s1", title="Original Title", year=2010, doi="https://doi.org/10.1/x")]
        )
        kept = list(dedup_overlap([_record("p1", title="Retitled", year=2012, doi="10.1/x")], secondary))
        assert kept == []

    @pytest.mark.parametrize("empty", ["https://doi.org/", "doi:", " DOI: "])
    def test_doi_that_normalizes_to_empty_is_no_doi(self, empty):
        """Such a DOI matches nothing by DOI and leaves title + year to decide, on either side."""
        title = dict(title="Deep Nets", year=2001)
        secondary = DedupIndex.from_records([_record("s1", doi=empty, **title)])
        assert list(dedup_overlap([_record("p1", doi="10.1/x", **title)], secondary)) == []
        assert list(dedup_overlap([_record("p2", doi=empty, title="Other", year=2001)], secondary)) != []

        secondary = DedupIndex.from_records([_record("s1", doi="10.1/x", **title)])
        for doi in (empty, None):
            assert list(dedup_overlap([_record("p1", doi=doi, **title)], secondary)) == []

    def test_seven_known_overlaps_dropped(self):
        secondary_records = [_record(f"s{i}", title=f"Overlap {i}", year=2000 + i) for i in range(7)]
        secondary_records.append(_record("s-extra", title="Secondary Only", year=1999))
        secondary = DedupIndex.from_records(secondary_records)
        primary = [_record(f"o{i}", title=f"overlap {i}", year=2000 + i) for i in range(7)]
        primary += [_record(f"u{i}", title=f"Unique {i}", year=2000 + i) for i in range(5)]
        stats = PrepStats()
        kept = list(dedup_overlap(primary, secondary, stats))
        assert stats.dedup_dropped == 7
        assert [r.paper_id for r in kept] == [f"u{i}" for i in range(5)]

    def test_empty_title_matches_only_by_doi(self):
        secondary = DedupIndex.from_records(
            [_record("s1", title="", year=2001), _record("s2", title="!!!", year=2001, doi="10.1/s2")]
        )
        primary = [
            _record("p1", title="A study", year=2001),
            _record("p2", title="", year=2001),
            _record("p3", title="!!!", year=2001),
            _record("p4", title="", year=2001, doi="10.1/other"),
            _record("p5", title="", year=2005, doi="10.1/S2"),
        ]
        kept = list(dedup_overlap(primary, secondary))
        assert [r.paper_id for r in kept] == ["p1", "p2", "p3", "p4"]

    def test_title_key_normalization(self):
        a = _record("a", title="The  Paper: A Story!", year=2000)
        b = _record("b", title="the paper a story", year=2000)
        assert title_year_key(a) == title_year_key(b)

    def test_title_key_keeps_the_alphanumerics_of_every_code_point(self):
        title = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c < 0xE000)
        expected = "".join(ch for ch in title.casefold() if ch.isalnum())
        assert title_year_key(_record("a", title=title, year=2000)) == (expected, 2000)

    @given(st.text())
    def test_title_key_keeps_exactly_the_alphanumerics(self, title):
        expected = "".join(ch for ch in title.casefold() if ch.isalnum())
        assert title_year_key(_record("a", title=title, year=2000)) == (expected, 2000)


class TestFilterCoauthored:
    def test_single_author_dropped(self):
        stats = PrepStats()
        assert list(filter_coauthored([_record("p", n_authors=1)], stats)) == []
        assert stats.single_author_dropped == 1

    def test_two_authors_kept(self):
        assert len(list(filter_coauthored([_record("p", n_authors=2)]))) == 1

    def test_no_author_data_counted_separately(self):
        stats = PrepStats()
        assert list(filter_coauthored([_record("p", n_authors=0)], stats)) == []
        assert stats.no_author_data == 1
        assert stats.single_author_dropped == 0

    def test_distinct_author_indices_counted(self):
        record = BibRecord(
            paper_id="p",
            mentions=(
                AffiliationMention("p", 0, "a"),
                AffiliationMention("p", 0, "b"),  # duplicate index, one author
            ),
        )
        assert list(filter_coauthored([record], PrepStats())) == []


class TestPipelineComposition:
    def test_filters_are_subset_and_order_preserving(self):
        rng = random.Random(3)
        records = [
            _record(
                f"p{i}",
                fos=rng.sample(["ai", "ml", "db"], rng.randint(0, 2)),
                n_authors=rng.randint(0, 4),
                title=f"title {i % 10}",
                year=2000 + (i % 5),
            )
            for i in range(50)
        ]
        fos = compute_fos_filter(records, 2)
        secondary = DedupIndex.from_records(records[40:])
        out = list(filter_coauthored(dedup_overlap(filter_by_fos(records[:40], fos), secondary)))
        ids = [r.paper_id for r in out]
        assert ids == sorted(ids, key=lambda pid: int(pid[1:]))
        assert set(ids) <= {r.paper_id for r in records[:40]}
        for record in out:
            assert record.fos_terms & fos.terms
            assert len({m.author_index for m in record.mentions}) >= 2
