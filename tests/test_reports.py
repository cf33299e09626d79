from __future__ import annotations

import csv
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircmap.metrics import PaperCountrySet, compute_irc
from ircmap.prep import PrepStats
from ircmap.reports import CATEGORY_LABELS, TOTAL_LABEL, write_breakdown, write_irc_stats, write_prep_report
from ircmap.resolver import Category

#: The paper's identification table, row for row.
LABELS = [
    "NA, Null, etc values",
    "Country names identified",
    "Component parts identified",
    "Identified by Wikidata",
    "Not identified (Other values)",
]


def _breakdown(out_dir, counts):
    write_breakdown(out_dir, counts)
    return json.loads((out_dir / "breakdown.json").read_text(encoding="utf-8"))


class TestWriteBreakdown:
    def test_hand_labelled_counts(self, tmp_path):
        counts = {
            Category.NULL_LIKE: 1,
            Category.COUNTRY_NAME: 4,
            Category.COMPONENT_PART: 2,
            Category.WIKIDATA: 2,
            Category.UNIDENTIFIED: 1,
        }
        breakdown = _breakdown(tmp_path, counts)
        assert breakdown["total"] == 10
        assert write_breakdown(tmp_path, counts) == {"mentions": 10, **{c.value: n for c, n in counts.items()}}
        pcts = [row["pct"] for row in breakdown["rows"]]
        assert pcts == [10.0, 40.0, 20.0, 20.0, 10.0]
        assert sum(pcts) == 100.0
        with open(tmp_path / "breakdown.csv", encoding="utf-8", newline="") as handle:
            table = list(csv.reader(handle))
        assert table[:3] == [["result", "count", "pct"], [TOTAL_LABEL, "10", ""], [LABELS[0], "1", "10.00"]]

    def test_rows_follow_category_order_with_the_paper_labels(self, tmp_path):
        breakdown = _breakdown(tmp_path, Counter({Category.WIKIDATA: 3}))
        assert [row["category"] for row in breakdown["rows"]] == [c.value for c in Category]
        assert [row["label"] for row in breakdown["rows"]] == LABELS
        assert [CATEGORY_LABELS[c] for c in Category] == LABELS
        assert [row["count"] for row in breakdown["rows"]] == [0, 0, 0, 3, 0]
        text = (tmp_path / "breakdown.txt").read_text(encoding="utf-8").splitlines()
        assert [line.split("  ")[0] for line in text[2:]] == [TOTAL_LABEL, *LABELS]

    def test_zero_total(self, tmp_path):
        breakdown = _breakdown(tmp_path, dict.fromkeys(Category, 0))
        assert breakdown["total"] == 0
        assert [row["count"] for row in breakdown["rows"]] == [0] * len(Category)
        assert [row["pct"] for row in breakdown["rows"]] == [0.0] * len(Category)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=len(Category), max_size=len(Category)))
    @settings(max_examples=80, deadline=None)
    def test_percentages_sum_to_100(self, tmp_path_factory, values):
        out_dir = tmp_path_factory.mktemp("breakdown")
        breakdown = _breakdown(out_dir, dict(zip(Category, values)))
        assert breakdown["total"] == sum(values)
        if sum(values):
            assert sum(row["pct"] for row in breakdown["rows"]) == pytest.approx(100.0)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _irc_stats(out_dir, papers):
    counts = write_irc_stats(out_dir, compute_irc(papers))
    return counts, json.loads((out_dir / "irc_stats.json").read_text(encoding="utf-8"))


class TestWriteIrcStats:
    def test_json_document_schema(self, tmp_path):
        papers = [PaperCountrySet("p1", 2015, frozenset({"CA", "NZ"})),
                  PaperCountrySet("p2", None, frozenset())]
        _, doc = _irc_stats(tmp_path, papers)
        assert doc["schema_version"] == 1
        assert (doc["total_papers"], doc["international"], doc["unmeasurable"]) == (2, 1, 1)
        assert doc["per_year"]["2015"]["international"] == 1
        assert doc["per_year"]["unknown"]["unmeasurable"] == 1
        assert doc["pair_counts"] == {"CA-NZ": 1}

    @given(st.lists(st.tuples(st.sampled_from([None, 999, 2001, 2010]),
                              st.frozensets(st.sampled_from(["CA", "DE", "FR", "NZ", "US"]))), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_csvs_equal_the_json_document(self, tmp_path_factory, draws):
        out_dir = tmp_path_factory.mktemp("irc")
        papers = [PaperCountrySet(f"p{i}", year, countries) for i, (year, countries) in enumerate(draws)]
        counts, doc = _irc_stats(out_dir, papers)
        per_year = _read_csv(out_dir / "irc_per_year.csv")
        assert per_year[0] == ["year", "total", "international", "domestic", "unmeasurable", "irc_ratio"]
        expected = {
            year: [str(ys["total"]), str(ys["international"]), str(ys["domestic"]), str(ys["unmeasurable"]),
                   "" if ys["irc_ratio"] is None else f"{ys['irc_ratio']:.6f}"]
            for year, ys in doc["per_year"].items()
        }
        assert {row[0]: row[1:] for row in per_year[1:]} == expected
        years = [row[0] for row in per_year[1:]]
        assert years == sorted(years, key=lambda y: (y == "unknown", int(y) if y != "unknown" else 0))
        pairs = _read_csv(out_dir / "irc_pairs.csv")
        assert pairs[0] == ["country_a", "country_b", "papers"]
        assert {f"{a}-{b}": int(n) for a, b, n in pairs[1:]} == doc["pair_counts"]
        assert [(a, b) for a, b, _ in pairs[1:]] == sorted((a, b) for a, b, _ in pairs[1:])
        assert counts == {"papers": doc["total_papers"], "international": doc["international"],
                          "domestic": doc["domestic"], "unmeasurable": doc["unmeasurable"]}


class TestWritePrepReport:
    @pytest.mark.parametrize("years, date_range", [((None, None), "n/a"), ((2003, 2011), "2003-2011")])
    def test_three_forms_agree(self, tmp_path, years, date_range):
        stats = PrepStats(total_works=9, fos_dropped=1, dedup_dropped=2, single_author_dropped=3,
                          no_author_data=1, output_records=2, min_year=years[0], max_year=years[1])
        counts = write_prep_report(tmp_path, stats)
        rows = [["Total works", "9"], ["Date range", date_range], ["Unique, co-authored, CS works", "2"]]
        assert _read_csv(tmp_path / "prep_report.csv") == [["feature", "value"], *rows]
        doc = json.loads((tmp_path / "prep_report.json").read_text(encoding="utf-8"))
        assert {label: str(doc[label]) for label, _ in rows} == dict(rows)
        text = (tmp_path / "prep_report.txt").read_text(encoding="utf-8").splitlines()
        assert [line.split()[-1] for line in text[2:]] == [value for _, value in rows]
        assert [line.rsplit("  ", 1)[0].strip() for line in text[2:]] == [label for label, _ in rows]
        assert counts == {"total_works": 9, "prepared": 2, **{
            k: doc["detail"][k] for k in ("fos_dropped", "dedup_dropped", "single_author_dropped", "no_author_data")
        }}
