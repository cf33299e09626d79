from __future__ import annotations

import csv
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircmap.reports import CATEGORY_LABELS, TOTAL_LABEL, write_breakdown
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
