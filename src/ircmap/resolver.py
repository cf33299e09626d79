"""Per-mention country resolution and classification.

Each affiliation mention is classified into exactly one category:

* ``NullLike`` -- empty or placeholder value (NA, NULL, ...);
* ``CountryName`` -- a country name or abbreviation found in the string;
* ``ComponentPart`` -- a sub-national part (US state, UK nation) found, whose
  parent country is reported;
* ``Wikidata`` -- no location words, but the remaining text (e.g. a
  university name) led to exactly one country via the knowledge graph;
* ``Unidentified`` -- everything else.

String matching scans comma segments and their tokens right to left, because
affiliations conventionally end with the location, trying windows of up to
three tokens.  At a given end position the longest matching window wins, and
a country key beats a component-part key of the same length; a part key that
is strictly longer shadows the shorter country key (so "Princeton, New
Jersey" is the US state, not the island of Jersey).  Part *abbreviations*
(MA, TX, ...) only count at the end of a segment or directly before a number,
which keeps tokens like "de", "in", or "al" inside institution names from
matching as US states.

The knowledge-graph step is only ever invoked for mentions that step 1 could
not identify.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, Optional

from ircmap.gazetteer import Gazetteer
from ircmap.ingest import (
    AffiliationMention,
    BibRecord,
    NormalizedAffiliation,
    normalize_affiliation,
    token_key,
)
from ircmap.wikidata import CacheStatus, Mode, WikidataClient

__all__ = [
    "Category",
    "IdentificationBreakdown",
    "Resolution",
    "ResolutionRun",
    "Step1Match",
    "match_step1",
    "resolve",
    "resolve_corpus",
    "wikidata_fragments",
]

logger = logging.getLogger(__name__)

MAX_WINDOW = 3

#: Tokens that cannot carry a knowledge-graph fragment on their own.
FRAGMENT_STOPWORDS = frozenset(
    "a an and at de der das die du del della des di e el et for in la le of on the und".split()
)


class Category(str, Enum):
    NULL_LIKE = "NullLike"
    COUNTRY_NAME = "CountryName"
    COMPONENT_PART = "ComponentPart"
    WIKIDATA = "Wikidata"
    UNIDENTIFIED = "Unidentified"


#: Report row labels, in fixed presentation order.
CATEGORY_LABELS = {
    Category.NULL_LIKE: "NA, Null, etc values",
    Category.COUNTRY_NAME: "Country names identified",
    Category.COMPONENT_PART: "Component parts identified",
    Category.WIKIDATA: "Identified by Wikidata",
    Category.UNIDENTIFIED: "Not identified (Other values)",
}
TOTAL_LABEL = "Affiliations"


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving one mention; one row of the enriched output.

    ``raw`` is the mention's own affiliation string, byte-for-byte, even when
    another raw string with the same cleaned form supplied the outcome.
    ``iso2`` is present exactly for the three identified categories, and
    ``evidence`` then names the matched alias, part, or queried fragment.
    """

    paper_id: str
    author_index: int
    raw: str
    category: Category
    iso2: Optional[str]
    evidence: str
    ambiguous: bool

    def __post_init__(self):
        identified = self.category in (
            Category.COUNTRY_NAME,
            Category.COMPONENT_PART,
            Category.WIKIDATA,
        )
        if identified != (self.iso2 is not None):
            raise ValueError(f"iso2 must be set iff identified, got {self}")
        if identified and not self.evidence:
            raise ValueError("identified resolutions need non-empty evidence")


@dataclass(frozen=True)
class Step1Match:
    iso2: str
    category: Category  # COUNTRY_NAME or COMPONENT_PART
    evidence: str
    ambiguous: bool


def _longest_hit(g: Gazetteer, tokens: list[str], end: int, check) -> tuple[int, str]:
    """Length and text of the longest window ending at ``end`` that passes ``check``."""
    for length in range(min(MAX_WINDOW, end + 1), 0, -1):
        window = " ".join(tokens[end - length + 1 : end + 1])
        if check(window):
            return length, window
    return 0, ""


def _pick_interpretation(g: Gazetteer, window: str, joined: str):
    """Apply the ambiguity table's preference, flipped by a context marker."""
    entry = g.ambiguity[window]
    padded = f" {joined} "
    flip = any(f" {marker} " in padded for marker in entry.context_markers)
    order = entry.interpretations[1:] + entry.interpretations[:1] if flip else entry.interpretations
    return order[0]


def match_step1(n: NormalizedAffiliation, g: Gazetteer) -> Optional[Step1Match]:
    """Gazetteer pass over a normalized, non-null affiliation.

    Countries are tried over the whole string before component parts; within
    one end position a strictly longer part match shadows a country match.
    ``ambiguous`` is set whenever the ambiguity table decided the outcome.
    """
    seg_tokens = [seg.split() for seg in reversed(n.segments)]
    joined = " ".join(n.tokens)

    for tokens in seg_tokens:
        for end in range(len(tokens) - 1, -1, -1):
            c_len, c_win = _longest_hit(g, tokens, end, g.has_country_key)
            if not c_len:
                continue
            p_len, _ = _longest_hit(g, tokens, end, g.has_part_key)
            if p_len > c_len:
                continue  # shadowed by a longer part name ending here
            if c_win in g.ambiguity:
                interp = _pick_interpretation(g, c_win, joined)
                if interp.kind == "country":
                    return Step1Match(interp.iso2, Category.COUNTRY_NAME, c_win, True)
                return Step1Match(
                    interp.iso2, Category.COMPONENT_PART, interp.part_name or c_win, True
                )
            return Step1Match(g.country_key_map[c_win], Category.COUNTRY_NAME, c_win, False)

    for tokens in seg_tokens:
        for end in range(len(tokens) - 1, -1, -1):
            p_len, p_win = _longest_hit(g, tokens, end, g.has_part_key)
            if not p_len:
                continue
            ambiguous = p_win in g.ambiguity
            if ambiguous:
                interp = _pick_interpretation(g, p_win, joined)
                if interp.kind != "part":
                    continue
                parent, part_name = interp.iso2, interp.part_name or p_win
            else:
                parent, part_name, _ = g.part_key_map[p_win]
            if g.part_is_abbreviation(p_win, part_name):
                at_segment_end = end == len(tokens) - 1
                before_number = end + 1 < len(tokens) and tokens[end + 1].isdigit()
                if not (at_segment_end or before_number):
                    continue
            return Step1Match(parent, Category.COMPONENT_PART, part_name, ambiguous)

    return None


def wikidata_fragments(raw: str) -> list[str]:
    """Comma segments of the raw string worth querying, last to first.

    Casing is preserved (Wikipedia titles are case-sensitive past the first
    letter).  Segments whose normalized form is shorter than four characters
    or consists only of numbers and stopwords are skipped.
    """
    text = re.sub(r"#tab#", " ", raw, flags=re.IGNORECASE)
    fragments: list[str] = []
    for segment in reversed(text.split(",")):
        segment = " ".join(segment.split())
        if not segment:
            continue
        n = normalize_affiliation(segment)
        key = " ".join(n.tokens)
        if len(key) < 4:
            continue
        if all(tok.isdigit() or tok in FRAGMENT_STOPWORDS for tok in n.tokens):
            continue
        if segment not in fragments:
            fragments.append(segment)
    return fragments


def _step1(n: NormalizedAffiliation, g: Gazetteer) -> Optional[tuple]:
    """Outcome for a null-like or gazetteer-identified string, else ``None``."""
    if n.null_like:
        return (Category.NULL_LIKE, None, "", False)
    hit = match_step1(n, g)
    return None if hit is None else (hit.category, hit.iso2, hit.evidence, hit.ambiguous)


def _step2(raw: str, client: Optional[WikidataClient]) -> tuple[Category, Optional[str], str, bool]:
    """Knowledge-graph outcome for a string step 1 could not identify."""
    note = ""
    if client is not None:
        for fragment in wikidata_fragments(raw):
            entry = client.query_country(fragment)
            if entry.status is CacheStatus.ERROR:
                if not note:
                    note = entry.detail or "lookup error"
                continue
            labels = list(dict.fromkeys(entry.countries))
            if len(labels) != 1:
                continue  # empty result or a multi-country disambiguation
            iso2 = client.label_map.get(labels[0])
            if iso2 is None:
                note = f"unmapped country label: {labels[0]}"
                logger.warning("no ISO code for country label %r (fragment %r)", labels[0], fragment)
                continue
            return (Category.WIKIDATA, iso2, token_key(fragment), False)
    return (Category.UNIDENTIFIED, None, note, False)


def resolve(
    m: AffiliationMention,
    g: Gazetteer,
    client: Optional[WikidataClient] = None,
) -> Resolution:
    """Resolve one mention to a country, or classify why it could not be.

    The knowledge-graph client is consulted only when the string is neither
    null-like nor identified by the gazetteer; transport failures degrade the
    mention to ``Unidentified`` (with the error noted in ``evidence``) rather
    than aborting.
    """
    outcome = _step1(normalize_affiliation(m.raw), g) or _step2(m.raw, client)
    return Resolution(m.paper_id, m.author_index, m.raw, *outcome)


@dataclass
class IdentificationBreakdown:
    """Mention counts per category, in report presentation order."""

    counts: dict = field(default_factory=lambda: {c: 0 for c in Category})

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def add(self, category: Category) -> None:
        self.counts[category] += 1

    def rows(self) -> list[dict]:
        total = self.total
        out = []
        for category in Category:
            count = self.counts[category]
            pct = (100.0 * count / total) if total else 0.0
            out.append(
                {
                    "category": category.value,
                    "label": CATEGORY_LABELS[category],
                    "count": count,
                    "pct": pct,
                }
            )
        return out


class ResolutionRun:
    """Stream of resolutions; ``breakdown`` is complete once exhausted."""

    def __init__(self, resolutions: Iterator[Resolution], breakdown: IdentificationBreakdown):
        self._resolutions = resolutions
        self.breakdown = breakdown

    def __iter__(self) -> Iterator[Resolution]:
        return self._resolutions


def _mentions(records: Iterable[BibRecord]) -> Iterator[AffiliationMention]:
    for record in records:
        yield from record.mentions


def resolve_corpus(
    records: Iterable[BibRecord],
    g: Gazetteer,
    client: Optional[WikidataClient] = None,
    jobs: int = 1,
    chunk_size: int = 8192,
) -> ResolutionRun:
    """Resolve every mention of a record stream, in input order.

    Identical normalized strings are resolved once and reused for the whole
    run.  Normalization and step 1 always run on the calling thread; with
    ``jobs > 1`` and an online client, the knowledge-graph lookups for the
    distinct step-1 misses of each chunk run on ``jobs`` pool threads.
    Offline and client-less runs start no pool.  Neither the output nor its
    order depends on ``jobs``.
    """
    breakdown = IdentificationBreakdown()
    online = client is not None and client.mode is Mode.ONLINE

    def generate() -> Iterator[Resolution]:
        memo: dict[str, tuple] = {}
        mentions = _mentions(records)
        pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 and online else None
        lookup = pool.map if pool is not None else map
        try:
            while True:
                chunk = list(islice(mentions, chunk_size))
                if not chunk:
                    break
                keys = []
                misses: dict[str, str] = {}  # cleaned string -> first raw seen
                for m in chunk:
                    n = normalize_affiliation(m.raw)
                    keys.append(n.cleaned)
                    if n.cleaned in memo or n.cleaned in misses:
                        continue
                    outcome = _step1(n, g)
                    if outcome is None:
                        misses[n.cleaned] = m.raw
                    else:
                        memo[n.cleaned] = outcome
                memo.update(zip(misses, lookup(lambda raw: _step2(raw, client), misses.values())))
                for m, key in zip(chunk, keys):
                    category, iso2, evidence, ambiguous = memo[key]
                    breakdown.add(category)
                    yield Resolution(m.paper_id, m.author_index, m.raw, category, iso2, evidence, ambiguous)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    return ResolutionRun(generate(), breakdown)
