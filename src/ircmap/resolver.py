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
affiliations conventionally end with the location, looking up windows of up
to three tokens.  At each end position only the longest key counts, so a
part name that is strictly longer shadows a country key inside it
("Princeton, New Jersey" is the US state, not the island of Jersey).  A
country key found anywhere in the string beats every part.  Part
*abbreviations* (MA, TX, ...) only count at the end of a segment or directly
before a number, which keeps tokens like "de", "in", or "al" inside
institution names from matching as US states.

The knowledge-graph step is only ever invoked for mentions that step 1 could
not identify.  Both steps describe a string's result as one ``Outcome``; a
``Resolution`` is a mention's ids and raw string followed by its outcome.
Counting and presenting the categories is left to the caller.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from enum import Enum
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

from ircmap.gazetteer import Gazetteer, Interpretation
from ircmap.ingest import (
    _TAB_TOKEN_RE,
    AffiliationMention,
    BibRecord,
    NormalizedAffiliation,
    normalize_affiliation,
    token_key,
)
from ircmap.wikidata import CacheStatus, Mode, WikidataClient

__all__ = [
    "Category",
    "Outcome",
    "Resolution",
    "check_outcome",
    "match_step1",
    "resolve",
    "resolve_corpus",
    "wikidata_fragments",
]

logger = logging.getLogger(__name__)

MAX_WINDOW = 3

#: Mentions normalized and matched per batch, before the batch's lookups run.
_CHUNK_SIZE = 8192

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


_IDENTIFIED = frozenset({Category.COUNTRY_NAME, Category.COMPONENT_PART, Category.WIKIDATA})


def check_outcome(category: object, iso2: object, evidence: object) -> None:
    """Raise unless ``(category, iso2, evidence)`` is an outcome that every ``Resolution`` may carry.

    ``category`` is a string naming a :class:`Category` (a member is one),
    ``iso2`` null or a string and ``evidence`` a string, else ``TypeError``;
    an unknown category raises ``ValueError``.  ``iso2`` is set exactly for
    the identified categories, ``CountryName``, ``ComponentPart`` and
    ``Wikidata``, and their ``evidence`` is non-empty, else ``ValueError``.
    """
    if not isinstance(category, str):
        raise TypeError(f"category is not a string: {category!r}")
    if not (iso2 is None or isinstance(iso2, str)):
        raise TypeError(f"iso2 is neither null nor a string: {iso2!r}")
    if not isinstance(evidence, str):
        raise TypeError(f"evidence is not a string: {evidence!r}")
    category = Category(category)
    identified = category in _IDENTIFIED
    if identified != (iso2 is not None):
        raise ValueError(f"iso2 must be set iff identified, got {category!r} with iso2={iso2!r}")
    if identified and not evidence:
        raise ValueError("identified resolutions need non-empty evidence")


class Outcome(NamedTuple):
    """What one cleaned affiliation string resolves to, from either step."""

    category: Category
    iso2: Optional[str]
    evidence: str
    ambiguous: bool


_NULL_LIKE = Outcome(Category.NULL_LIKE, None, "", False)
check_outcome(*_NULL_LIKE[:3])


class Resolution(NamedTuple):
    """One mention's ids and raw string, then its ``Outcome``; one row of the enriched output.

    ``raw`` is the mention's own affiliation string, byte-for-byte, even when
    another raw string with the same cleaned form supplied the outcome.
    ``iso2`` is present exactly for the three identified categories, and
    ``evidence`` then names the matched alias, part, or queried fragment.
    The fields, in order, are the enriched row's columns.
    """

    paper_id: str
    author_index: int
    raw: str
    category: Category
    iso2: Optional[str]
    evidence: str
    ambiguous: bool


def _choice(key: str, interp: Interpretation, ambiguous: bool) -> tuple[Outcome, bool]:
    category = Category.COUNTRY_NAME if interp.part_name is None else Category.COMPONENT_PART
    outcome = Outcome(category, interp.iso2, interp.part_name or key, ambiguous)
    check_outcome(*outcome[:3])
    return outcome, interp.abbreviation


@lru_cache(maxsize=8)
def _step1_table(g: Gazetteer) -> dict[str, tuple]:
    """Map each key of ``g`` to what ``match_step1`` needs of it, checking each outcome once.

    The value is ``(country, preferred, markers, flipped)``: whether any
    interpretation is a country, the first interpretation's outcome and
    whether it is a part abbreviation, the key's context markers, and the
    same pair for the second interpretation when there are markers, else
    ``None``.
    """
    table = {}
    for key, entry in g.keys.items():
        interps = entry.interpretations
        ambiguous = len(interps) > 1
        table[key] = (
            any(i.part_name is None for i in interps),
            _choice(key, interps[0], ambiguous),
            entry.context_markers,
            _choice(key, interps[1], ambiguous) if entry.context_markers else None,
        )
    return table


def match_step1(n: NormalizedAffiliation, g: Gazetteer) -> Optional[Outcome]:
    """Gazetteer pass over a normalized, non-null affiliation.

    Returns a ``CountryName`` or ``ComponentPart`` outcome, or ``None`` when
    no usable key is found.

    One right-to-left pass over segments and end positions; at each end only
    the longest key (up to three tokens) counts.  A country key anywhere in
    the string beats every part: the first one found decides the result,
    through the ambiguity table if it is contested.  Otherwise the first
    usable part found wins: a part name, or an abbreviation at a segment end
    or before a number.  ``ambiguous`` is set whenever the ambiguity table
    decided the outcome.  A context marker anywhere in the string flips a
    contested key to its second interpretation.

    The first call with ``g`` builds every key's outcomes and passes each
    through :func:`check_outcome`, once; no string's outcome is checked here.
    """
    table = _step1_table(g)
    part = None
    for segment in reversed(n.segments):
        tokens = segment.split()
        last = len(tokens) - 1
        for end in range(last, -1, -1):
            window = tokens[end]
            hit = table.get(window)
            for start in range(end - 1, max(end - MAX_WINDOW, -1), -1):
                window = f"{tokens[start]} {window}"
                hit = table.get(window) or hit  # a longer key replaces a shorter one
            if hit is None:
                continue
            country, choice, markers, flipped = hit
            if part is not None and not country:
                continue
            if flipped is not None:
                padded = f" {' '.join(n.tokens)} "
                if any(f" {marker} " in padded for marker in markers):
                    choice = flipped
            outcome, abbreviation = choice
            if country:
                return outcome
            if not abbreviation or end == last or tokens[end + 1].isdigit():
                part = outcome
    return part


def wikidata_fragments(raw: str) -> list[str]:
    """Comma segments of the raw string worth querying, last to first.

    Casing is preserved (Wikipedia titles are case-sensitive past the first
    letter).  Segments whose normalized form is shorter than four characters
    or consists only of numbers and stopwords are skipped.
    """
    text = _TAB_TOKEN_RE.sub(" ", raw)
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


def _step2(misses: dict[str, str], client: Optional[WikidataClient], lookup=map) -> dict[str, Outcome]:
    """Knowledge-graph outcomes for the strings step 1 could not identify.

    ``misses`` maps each cleaned string to its first raw form.  Lookups run
    in rounds: round r asks for the r-th fragment (last to first) of every
    miss that no earlier fragment has settled.  A key goes out once per
    round, spelled as in the first pending miss that has it, so no two
    lookups of one key ever run at once.  ``lookup`` (``map`` or a pool's
    ``map``) runs only ``client.query_country``; fragments, keys and labels
    are handled on the calling thread.
    """
    outcomes: dict[str, Outcome] = {}
    notes = dict.fromkeys(misses, "")
    walks = {} if client is None else {
        cleaned: [(token_key(f), f) for f in wikidata_fragments(raw)] for cleaned, raw in misses.items()
    }
    pending = [cleaned for cleaned, walk in walks.items() if walk]
    r = 0
    while pending:
        sent: dict[str, str] = {}  # key -> fragment asked for it this round
        for cleaned in pending:
            sent.setdefault(*walks[cleaned][r])
        entries = dict(zip(sent, lookup(client.query_country, sent.values())))
        for cleaned in pending:
            key, fragment = walks[cleaned][r]
            entry = entries[key]
            if entry.status is CacheStatus.ERROR:
                notes[cleaned] = notes[cleaned] or entry.detail or "lookup error"
                continue
            if len(entry.countries) != 1:
                continue  # empty result or a multi-country disambiguation
            iso2 = client.label_map.get(entry.countries[0])
            if iso2 is None:
                notes[cleaned] = f"unmapped country label: {entry.countries[0]}"
                logger.warning("no ISO code for country label %r (fragment %r)", entry.countries[0], fragment)
                continue
            outcomes[cleaned] = Outcome(Category.WIKIDATA, iso2, key, False)
        r += 1
        pending = [cleaned for cleaned in pending if cleaned not in outcomes and len(walks[cleaned]) > r]
    return {c: outcomes.get(c) or Outcome(Category.UNIDENTIFIED, None, notes[c], False) for c in misses}


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
    (r,) = resolve_corpus([BibRecord(m.paper_id, mentions=(m,))], g, client)
    return r


def _mentions(records: Iterable[BibRecord]) -> Iterator[AffiliationMention]:
    for record in records:
        yield from record.mentions


def resolve_corpus(
    records: Iterable[BibRecord],
    g: Gazetteer,
    client: Optional[WikidataClient] = None,
    jobs: int = 1,
) -> Iterator[Resolution]:
    """Yield a ``Resolution`` for every mention of a record stream, in input order.

    The iterator is lazy: records are read, and lookups made, only as
    resolutions are taken from it.  Identical normalized strings are resolved
    once and reused for the whole run.  Each chunk of ``_CHUNK_SIZE`` mentions
    keeps a map from raw string to cleaned string, so a raw string repeated
    within a chunk is normalized once; the map is dropped with its chunk.
    The distinct step-1 misses of a chunk are looked up in rounds (see
    ``_step2``).  Everything but the lookups runs on the calling thread; with
    ``jobs > 1`` and an online client, each round's lookups run on ``jobs``
    pool threads.  Offline and client-less runs start no pool.  Neither the
    output nor its order depends on ``jobs``.  Every row takes its outcome
    from the memo, and every outcome there has passed :func:`check_outcome`:
    a step-1 outcome once per gazetteer key, when ``match_step1`` builds the
    key's table entry, and a step-2 outcome per string, as it enters the memo.
    """
    online = client is not None and client.mode is Mode.ONLINE
    memo: dict[str, Outcome] = {}
    mentions = _mentions(records)
    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 and online else None
    lookup = pool.map if pool is not None else map
    try:
        while True:
            chunk = list(islice(mentions, _CHUNK_SIZE))
            if not chunk:
                break
            cleaned: dict[str, str] = {}  # raw string -> its cleaned form, this chunk only
            misses: dict[str, str] = {}  # cleaned string -> first raw seen
            for m in chunk:
                if m.raw in cleaned:
                    continue
                n = normalize_affiliation(m.raw)
                cleaned[m.raw] = n.cleaned
                if n.cleaned in memo or n.cleaned in misses:
                    continue
                outcome = _NULL_LIKE if n.null_like else match_step1(n, g)
                if outcome is None:
                    misses[n.cleaned] = m.raw
                else:
                    memo[n.cleaned] = outcome
            for key, outcome in _step2(misses, client, lookup).items():
                check_outcome(*outcome[:3])
                memo[key] = outcome
            for m in chunk:
                yield Resolution(m.paper_id, m.author_index, m.raw, *memo[cleaned[m.raw]])
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
