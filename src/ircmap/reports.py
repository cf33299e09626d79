"""Render preparation, identification, and collaboration reports.

Every report exists in three forms: a JSON document (machine-readable), a
CSV table, and an aligned plain-text table for terminals.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional

from ircmap.metrics import IrcStats
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
    """Align columns of stringified cells; right-align everything numeric."""
    table = [tuple(str(cell) for cell in row) for row in rows]
    if header is not None:
        table.insert(0, tuple(str(cell) for cell in header))
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]

    def fmt(row, source) -> str:
        cells = []
        for i, cell in enumerate(row):
            raw = source[i] if i < len(source) else cell
            numeric = isinstance(raw, (int, float))
            cells.append(cell.rjust(widths[i]) if numeric else cell.ljust(widths[i]))
        return "  ".join(cells).rstrip()

    lines = []
    sources = ([header] if header is not None else []) + rows
    for row, source in zip(table, sources):
        lines.append(fmt(row, source))
    if header is not None:
        lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def write_prep_report(out_dir: Path, stats: PrepStats) -> None:
    """Dataset summary: total works, date range, co-authored works kept."""
    rows = [
        ("Total works", stats.total_works),
        ("Date range", stats.date_range),
        ("Unique, co-authored, CS works", stats.output_records),
    ]
    payload = {
        "Total works": stats.total_works,
        "Date range": stats.date_range,
        "Unique, co-authored, CS works": stats.output_records,
        "detail": {
            "fos_dropped": stats.fos_dropped,
            "fos_coverage": stats.fos_coverage,
            "fos_terms": sorted(stats.fos_terms),
            "dedup_dropped": stats.dedup_dropped,
            "single_author_dropped": stats.single_author_dropped,
            "no_author_data": stats.no_author_data,
        },
    }
    _write_json(out_dir / "prep_report.json", payload)
    with open(out_dir / "prep_report.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["feature", "value"])
        writer.writerows(rows)
    (out_dir / "prep_report.txt").write_text(
        render_aligned(rows, header=("Feature", "Value")), encoding="utf-8"
    )


def write_breakdown(out_dir: Path, counts: dict[Category, int]) -> None:
    """Identification breakdown from mention counts per category.

    The total row comes first, then one row per category in ``Category``
    order with its percentage of the total (0.0 when the total is 0).  A
    category missing from ``counts`` counts 0, so a ``Counter`` will do.
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
    payload = {"total": total, "rows": rows}
    table = [(TOTAL_LABEL, total, "")]
    table += [(row["label"], row["count"], f"{row['pct']:.2f}%") for row in rows]
    _write_json(out_dir / "breakdown.json", payload)
    with open(out_dir / "breakdown.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["result", "count", "pct"])
        writer.writerow([TOTAL_LABEL, total, ""])
        for row in rows:
            writer.writerow([row["label"], row["count"], f"{row['pct']:.2f}"])
    (out_dir / "breakdown.txt").write_text(
        render_aligned(table, header=("Results", "Count", "Pct")), encoding="utf-8"
    )


def write_irc_stats(out_dir: Path, stats: IrcStats) -> None:
    """Collaboration statistics: JSON document plus per-year and pair CSVs."""
    payload = stats.to_json_dict()
    _write_json(out_dir / "irc_stats.json", payload)
    with open(out_dir / "irc_per_year.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["year", "total", "international", "domestic", "unmeasurable", "irc_ratio"])
        for year, ys in payload["per_year"].items():
            ratio = "" if ys["irc_ratio"] is None else f"{ys['irc_ratio']:.6f}"
            writer.writerow(
                [year, ys["total"], ys["international"], ys["domestic"], ys["unmeasurable"], ratio]
            )
    with open(out_dir / "irc_pairs.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["country_a", "country_b", "papers"])
        for pair, count in payload["pair_counts"].items():
            a, b = pair.split("-")
            writer.writerow([a, b, count])
    ratio = payload["irc_ratio"]
    table = [
        ("Total papers", stats.total_papers),
        ("International (>= 2 countries)", stats.international),
        ("Domestic (exactly 1 country)", stats.domestic),
        ("Unmeasurable (no resolved country)", stats.unmeasurable),
        ("IRC ratio", "n/a" if ratio is None else f"{ratio:.4f}"),
    ]
    (out_dir / "irc_stats.txt").write_text(
        render_aligned(table, header=("Measure", "Value")), encoding="utf-8"
    )
