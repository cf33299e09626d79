"""Render preparation, identification, and collaboration reports.

This module owns every report schema: the labels, the JSON documents, the
CSV columns and each stage's manifest ``counts``.  Every report exists in
three forms: a JSON document (machine-readable), a CSV table, and an aligned
plain-text table for terminals.  Each ``write_*`` writes one stage's report
into a directory and returns that stage's manifest ``counts``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Optional

from ircmap.metrics import IrcStats, YearStats
from ircmap.prep import PrepStats
from ircmap.resolver import Category

__all__ = [
    "render_aligned",
    "write_breakdown",
    "write_irc_stats",
    "write_prep_report",
]

#: Breakdown row labels, one per category; rows follow ``Category`` order.
CATEGORY_LABELS = {
    Category.NULL_LIKE: "NA, Null, etc values",
    Category.COUNTRY_NAME: "Country names identified",
    Category.COMPONENT_PART: "Component parts identified",
    Category.WIKIDATA: "Identified by Wikidata",
    Category.UNIDENTIFIED: "Not identified (Other values)",
}
TOTAL_LABEL = "Affiliations"


def render_aligned(rows: list[tuple], header: Optional[tuple] = None) -> str:
    """Align columns of stringified cells; right-align every int or float cell."""
    table = ([header] if header is not None else []) + rows
    widths = [max(len(str(row[i])) for row in table) for i in range(len(table[0]))]
    lines = [
        "  ".join(
            str(cell).rjust(width) if isinstance(cell, (int, float)) else str(cell).ljust(width)
            for cell, width in zip(row, widths)
        ).rstrip()
        for row in table
    ]
    if header is not None:
        lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _write_csv(path: Path, header: list[str], rows: Iterable) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_prep_report(out_dir: Path, stats: PrepStats) -> dict:
    """Dataset summary: total works, date range, co-authored works kept.

    Returns the ``prepare`` manifest counts.
    """
    date_range = "n/a" if stats.min_year is None else f"{stats.min_year}-{stats.max_year}"
    rows = [
        ("Total works", stats.total_works),
        ("Date range", date_range),
        ("Unique, co-authored, CS works", stats.output_records),
    ]
    dropped = {
        "fos_dropped": stats.fos_dropped,
        "dedup_dropped": stats.dedup_dropped,
        "single_author_dropped": stats.single_author_dropped,
        "no_author_data": stats.no_author_data,
    }
    detail = {**dropped, "fos_coverage": stats.fos_coverage, "fos_terms": sorted(stats.fos_terms)}
    _write_json(out_dir / "prep_report.json", {**dict(rows), "detail": detail})
    _write_csv(out_dir / "prep_report.csv", ["feature", "value"], rows)
    (out_dir / "prep_report.txt").write_text(
        render_aligned(rows, header=("Feature", "Value")), encoding="utf-8"
    )
    return {"total_works": stats.total_works, "prepared": stats.output_records, **dropped}


def write_breakdown(out_dir: Path, counts: dict[Category, int]) -> dict:
    """Identification breakdown from mention counts per category.

    The total row comes first, then one row per category in ``Category``
    order with its percentage of the total (0.0 when the total is 0).  A
    category missing from ``counts`` counts 0, so a ``Counter`` will do.
    Returns the ``resolve`` manifest counts: ``mentions`` and one count per
    category value.
    """
    total = sum(counts.values())
    rows = [
        {
            "category": c.value,
            "label": CATEGORY_LABELS[c],
            "count": counts.get(c, 0),
            "pct": 100.0 * counts.get(c, 0) / total if total else 0.0,
        }
        for c in Category
    ]
    _write_json(out_dir / "breakdown.json", {"total": total, "rows": rows})
    _write_csv(out_dir / "breakdown.csv", ["result", "count", "pct"],
               [(TOTAL_LABEL, total, "")] + [(row["label"], row["count"], f"{row['pct']:.2f}") for row in rows])
    table = [(TOTAL_LABEL, total, "")]
    table += [(row["label"], row["count"], f"{row['pct']:.2f}%") for row in rows]
    (out_dir / "breakdown.txt").write_text(
        render_aligned(table, header=("Results", "Count", "Pct")), encoding="utf-8"
    )
    return {"mentions": total, **{row["category"]: row["count"] for row in rows}}


def _measures(ys: YearStats, total: str = "total") -> dict:
    """``ys``'s five fields, named as in ``irc_stats.json`` and ordered as ``irc_per_year.csv``."""
    return {total: ys.total, "international": ys.international, "domestic": ys.domestic,
            "unmeasurable": ys.unmeasurable, "irc_ratio": ys.irc_ratio}


def write_irc_stats(out_dir: Path, stats: IrcStats) -> dict:
    """Collaboration statistics: JSON document, per-year and pair CSVs, text table.

    Years run in numeric order with the unknown year last and pairs in
    sorted order; the JSON document's keys are sorted as it is written.
    Returns the ``metrics`` manifest counts.
    """
    years = [
        ("unknown" if year is None else str(year), _measures(ys))
        for year, ys in sorted(stats.per_year.items(), key=lambda kv: (kv[0] is None, kv[0] or 0))
    ]
    _write_json(out_dir / "irc_stats.json", {
        "schema_version": 1,
        **_measures(stats, total="total_papers"),
        "per_year": dict(years),
        "pair_counts": {f"{a}-{b}": count for (a, b), count in stats.pair_counts.items()},
    })
    _write_csv(out_dir / "irc_per_year.csv", ["year", *_measures(stats)], (
        [year, *list(m.values())[:-1], "" if m["irc_ratio"] is None else f"{m['irc_ratio']:.6f}"]
        for year, m in years
    ))
    _write_csv(out_dir / "irc_pairs.csv", ["country_a", "country_b", "papers"],
               (pair + (n,) for pair, n in sorted(stats.pair_counts.items())))
    ratio = stats.irc_ratio
    table = [
        ("Total papers", stats.total),
        ("International (>= 2 countries)", stats.international),
        ("Domestic (exactly 1 country)", stats.domestic),
        ("Unmeasurable (no resolved country)", stats.unmeasurable),
        ("IRC ratio", "n/a" if ratio is None else f"{ratio:.4f}"),
    ]
    (out_dir / "irc_stats.txt").write_text(
        render_aligned(table, header=("Measure", "Value")), encoding="utf-8"
    )
    return {"papers": stats.total, "international": stats.international,
            "domestic": stats.domestic, "unmeasurable": stats.unmeasurable}
