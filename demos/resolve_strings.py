#!/usr/bin/env python3
"""Resolve a handful of raw affiliation strings and show each outcome.

Runs fully offline: knowledge-graph lookups are answered from an in-memory
cache seeded below, and a string it does not hold shows ``offline-miss``.
"""

from ircmap import (
    AffiliationMention,
    build_gazetteer,
    default_data_dir,
    resolve,
)
from ircmap.wikidata import CacheEntry, CacheStatus, CacheStore, LabelMap, Mode, WikidataClient

SAMPLES = [
    "School of IM, Victoria University of Wellington, Wellington, New Zealand",
    "Dept. of CS, McGill University#TAB#",
    "Cambridge, MA 02139",
    "Georgia Institute of Technology, Atlanta, Georgia",
    "Tbilisi State University, Tbilisi, Georgia",
    "Queen's University Belfast, Belfast, Northern Ireland",
    "Princeton University, Princeton, New Jersey",
    "ETH Zurich",
    "NA",
    "zzqx unknown institute",
]


def main():
    data_dir = default_data_dir()
    gazetteer = build_gazetteer(data_dir)
    label_map = LabelMap.from_gazetteer(gazetteer, data_dir / "wikidata_labels.tsv")
    cache = CacheStore()
    at = "2024-01-01T00:00:00+00:00"
    cache.put(CacheEntry("mcgill university", ("Canada",), CacheStatus.HIT, at))
    cache.put(CacheEntry("eth zurich", ("Switzerland",), CacheStatus.HIT, at))
    client = WikidataClient(cache=cache, label_map=label_map, mode=Mode.OFFLINE)

    width = max(len(s) for s in SAMPLES)
    print(f"{'raw affiliation'.ljust(width)}  category       iso2  evidence")
    print(f"{'-' * width}  {'-' * 13}  {'-' * 4}  {'-' * 20}")
    for i, raw in enumerate(SAMPLES):
        r = resolve(AffiliationMention("demo", i, raw), gazetteer, client)
        flag = " (ambiguous)" if r.ambiguous else ""
        print(f"{raw.ljust(width)}  {r.category.value.ljust(13)}  {(r.iso2 or '--').ljust(4)}  {r.evidence}{flag}")


if __name__ == "__main__":
    main()
