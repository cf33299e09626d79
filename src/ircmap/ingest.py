"""Parse source records into the canonical model and normalize affiliation strings.

Three input formats are supported:

* ``mag-tsv``  -- headerless, tab-separated, one row per (paper, author):
  ``paper_id, author_index, org, title, year, fos`` where ``fos`` is
  ``|``-separated.
* ``csv``      -- header row with at least ``paper_id, author_index,
  affiliation``; optional ``title, year, fos, doi``.  Also one row per
  (paper, author).
* ``jsonl``    -- one record object per line:
  ``{"paper_id", "title", "year", "fos": [...],
  "authors": [{"affiliation": ...}, ...]}`` with optional ``"doi"``.  A
  paper id is a non-blank string or an integer, and a title a string or
  null (empty); an affiliation is a string or null (empty).  Any other type
  skips the record.
  An author's optional ``"author_index"`` defaults to its position in
  ``authors``; one that is not a non-negative integer, or repeats within
  the record, skips the record.  :func:`record_line` writes this schema.

The two row formats group contiguous rows with one ``paper_id`` into a
record; a repeated ``author_index`` within that record is skipped.

Each paper id yields one record, the first: every later record with that id
is skipped in all three formats, including rows of a paper that reappear
after another paper's rows.  Skipped rows are counted like malformed ones.

Malformed rows are skipped and counted, never fatal; an unreadable stream or
unknown format is fatal.
"""

from __future__ import annotations

import csv
import io
import json
import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

__all__ = [
    "AffiliationMention",
    "BibRecord",
    "Format",
    "IngestError",
    "NormalizedAffiliation",
    "ParseReport",
    "RecordReader",
    "normalize_affiliation",
    "parse_records",
    "record_line",
    "token_key",
]


class IngestError(Exception):
    """Unreadable input or unknown format."""


class Format(str, Enum):
    MAG_TSV = "mag-tsv"
    GENERIC_CSV = "csv"
    GENERIC_JSONL = "jsonl"


#: Raw values treated as "no affiliation given" (compared case-insensitively
#: against the trimmed raw string).  Fixed, not configurable, so category
#: counts stay comparable across runs.
NULL_SYNONYMS = frozenset({"na", "n/a", "null", "none", "-"})

YEAR_MIN = 1800
YEAR_MAX = 2100

# Everything that is not a word character, whitespace, or comma becomes a
# space; underscores count as punctuation too.
_PUNCT_RE = re.compile(r"[^\w\s,]|_")
#: The literal ``#TAB#`` token, in any case, that some exports leave in affiliations.
_TAB_TOKEN_RE = re.compile(r"#tab#", re.IGNORECASE)


@dataclass(frozen=True)
class NormalizedAffiliation:
    """Cleaned form of one raw affiliation string.

    ``cleaned`` keeps commas (they mark field boundaries used for both
    token-window matching and Wikidata fragment extraction); ``tokens`` is the
    comma-free word sequence and ``segments`` the comma-separated pieces.
    """

    cleaned: str
    tokens: tuple[str, ...]
    segments: tuple[str, ...]
    null_like: bool


def normalize_affiliation(raw: str) -> NormalizedAffiliation:
    """Normalize a raw affiliation string.

    Applies, in order: Unicode compatibility normalization, case folding,
    removal of the literal ``#TAB#`` token, replacement of punctuation other
    than commas with spaces, whitespace collapse, and trimming.  Empty
    comma segments are dropped.  A raw value that is one of the null
    synonyms (``NA``, ``N/A``, ``NULL``, ``NONE``, ``-``) cleans to the
    empty string, so ``null_like`` is equivalent to ``cleaned == ""``.

    Idempotent: normalizing an already-cleaned string returns it unchanged.
    """
    if raw.strip().casefold() in NULL_SYNONYMS:
        return NormalizedAffiliation("", (), (), True)
    text = unicodedata.normalize("NFKC", raw)
    text = text.casefold()
    text = _TAB_TOKEN_RE.sub(" ", text)
    text = _PUNCT_RE.sub(" ", text)
    segments = tuple(" ".join(part.split()) for part in text.split(","))
    segments = tuple(s for s in segments if s)
    cleaned = ", ".join(segments)
    tokens = tuple(tok for seg in segments for tok in seg.split())
    return NormalizedAffiliation(cleaned, tokens, segments, cleaned == "")


def token_key(text: str) -> str:
    """Comma-free normalized form of ``text``, used as a lookup key."""
    return " ".join(normalize_affiliation(text).tokens)


@dataclass(frozen=True)
class AffiliationMention:
    """One (paper, author) raw affiliation string; the unit of resolution.

    ``raw`` is preserved byte-for-byte for audit.
    """

    paper_id: str
    author_index: int
    raw: str


@dataclass
class BibRecord:
    """One publication with its authors' affiliation mentions."""

    paper_id: str
    title: str = ""
    year: int | None = None
    fos_terms: frozenset[str] = frozenset()
    mentions: tuple[AffiliationMention, ...] = ()
    doi: str | None = None


@dataclass
class ParseReport:
    rows_read: int = 0
    records_yielded: int = 0
    rows_skipped: int = 0


def _parse_year(value: object) -> int | None:
    try:
        year = int(str(value).strip())
    except (TypeError, ValueError):
        return None
    return year if YEAR_MIN <= year <= YEAR_MAX else None


#: Distinct FOS terms one reader remembers; its memo is cleared when full.
_FOS_MEMO_SIZE = 1 << 14


def _parse_fos(terms: object, memo: dict[str, str]) -> frozenset[str]:
    """FOS keys of ``terms`` (a ``|``-separated string or a list), via ``memo``.

    ``memo`` maps each term to its ``token_key``; it holds at most
    ``_FOS_MEMO_SIZE`` terms.
    """
    if terms is None:
        return frozenset()
    out = set()
    for term in terms.split("|") if isinstance(terms, str) else terms:
        term = str(term)
        key = memo.get(term)
        if key is None:
            if len(memo) >= _FOS_MEMO_SIZE:
                memo.clear()
            key = memo[term] = token_key(term)
        out.add(key)
    out.discard("")
    return frozenset(out)


class RecordReader:
    """Iterable of :class:`BibRecord` with a :class:`ParseReport`.

    The report's counters are final only once the stream is exhausted.
    """

    def __init__(self, rows: Iterator[BibRecord], report: ParseReport):
        self._rows = rows
        self.report = report

    def __iter__(self) -> Iterator[BibRecord]:
        return self._rows


def parse_records(
    source: Union[str, Path, IO[str], IO[bytes]],
    fmt: Format | str,
) -> RecordReader:
    """Stream records from ``source`` in the given format.

    Yields records in input order, the first one for each paper id.  Rows
    that violate the format's schema (missing paper id, unparsable author
    index, wrong column count, bad JSON, JSONL ``authors`` not a list or
    holding an entry that is neither an object nor empty, a JSONL
    ``author_index`` that is not a non-negative integer or repeats, ``fos``
    not null, a string or a list) or repeat a paper id already yielded are
    skipped and counted in the report.  A file opened from a path is closed
    once the stream is exhausted or closed; a caller's stream, text or
    binary, is left open.

    Each reader keeps its own memo from FOS term to key, so a term repeated
    across records is normalized once.  The memo holds at most
    ``_FOS_MEMO_SIZE`` terms and is cleared when full; readers share none.
    """
    try:
        fmt = Format(fmt)
    except ValueError as exc:
        raise IngestError(f"unknown format: {fmt!r}") from exc
    report = ParseReport()
    try:
        stream = _open_text(source)
    except OSError as exc:
        raise IngestError(f"cannot read input: {exc}") from exc
    release = None
    if isinstance(source, (str, Path)):
        release = stream.close
    elif stream is not source:
        release = stream.detach  # closing the text wrapper would close the caller's binary stream
    try:
        records = _first_per_id(_format_records(stream, fmt, report, fos_memo={}), report)
    except BaseException:
        if release is not None:
            release()
        raise
    return RecordReader(records if release is None else _releasing(records, release), report)


def _format_records(
    stream: IO[str], fmt: Format, report: ParseReport, fos_memo: dict[str, str]
) -> Iterator[tuple[BibRecord, int]]:
    if fmt is Format.GENERIC_JSONL:
        return _iter_jsonl(stream, report, fos_memo)
    if fmt is Format.MAG_TSV:
        lines = (line.rstrip("\n").rstrip("\r") for line in stream)
        fields = (line.split("\t") for line in lines if line)
        rows = (_row(f + [""], fos_memo) if len(f) == 6 else None for f in fields)  # no DOI column
        return _iter_rowwise(rows, report)
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise IngestError("csv input has no header row")
    missing = {"paper_id", "author_index", "affiliation"} - set(reader.fieldnames)
    if missing:
        raise IngestError(f"csv header missing columns: {sorted(missing)}")
    rows = (_row([row.get(column) or "" for column in _COLUMNS], fos_memo) for row in reader)
    return _iter_rowwise(rows, report)


def _releasing(records: Iterator[BibRecord], release: Callable[[], object]) -> Iterator[BibRecord]:
    """Yield ``records``; call ``release`` once they are exhausted or closed."""
    try:
        yield from records
    finally:
        release()


def _open_text(source: Union[str, Path, IO[str], IO[bytes]]) -> IO[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", errors="replace", newline="")
    if isinstance(source, io.TextIOBase):
        return source
    data = getattr(source, "read", None)
    if data is None:
        raise IngestError(f"not a readable stream: {source!r}")
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        return io.TextIOWrapper(source, encoding="utf-8", errors="replace", newline="")
    return source  # duck-typed text stream


def _json_mention(paper_id: str, position: int, author: object) -> AffiliationMention:
    """A JSONL author entry's mention; a null entry or affiliation is empty."""
    author = author or {}
    affiliation = author.get("affiliation")
    if not (affiliation is None or isinstance(affiliation, str)):
        raise TypeError(f"affiliation is not a string: {affiliation!r}")
    author_index = author.get("author_index", position)
    if type(author_index) is not int or author_index < 0:  # a bool is not an index
        raise TypeError(f"author_index is not a non-negative integer: {author_index!r}")
    return AffiliationMention(paper_id, author_index, affiliation or "")


def _iter_jsonl(
    stream: IO[str], report: ParseReport, fos_memo: dict[str, str]
) -> Iterator[tuple[BibRecord, int]]:
    for line in stream:
        if not line.strip():
            continue
        report.rows_read += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            report.rows_skipped += 1
            continue
        if not isinstance(obj, dict):
            report.rows_skipped += 1
            continue
        paper_id, title = obj.get("paper_id"), obj.get("title")
        if type(paper_id) is int:  # a bool is not an id
            paper_id = str(paper_id)
        paper_id = paper_id.strip() if isinstance(paper_id, str) else ""
        if not paper_id or not (title is None or isinstance(title, str)):
            report.rows_skipped += 1
            continue
        authors = obj.get("authors") or []
        fos = obj.get("fos")
        if not isinstance(authors, list) or not (fos is None or isinstance(fos, (str, list))):
            report.rows_skipped += 1
            continue
        try:
            mentions = tuple(_json_mention(paper_id, i, a) for i, a in enumerate(authors))
        except (AttributeError, TypeError):  # an author entry or one of its fields of the wrong type
            report.rows_skipped += 1
            continue
        if len({m.author_index for m in mentions}) < len(mentions):
            report.rows_skipped += 1
            continue
        doi = obj.get("doi")
        record = BibRecord(
            paper_id=paper_id,
            title=title or "",
            year=_parse_year(obj.get("year")) if obj.get("year") is not None else None,
            fos_terms=_parse_fos(fos, fos_memo),
            mentions=mentions,
            doi=str(doi) if doi else None,
        )
        yield record, 1


def record_line(record: BibRecord) -> str:
    """``record`` as one ``jsonl`` line, which :func:`parse_records` reads back as an equal record.

    An author's ``author_index`` is written only where it differs from the
    author's position, so a record whose authors are numbered from 0 gets
    the plain schema.
    """
    authors = []
    for position, mention in enumerate(record.mentions):
        author = {"affiliation": mention.raw}
        if mention.author_index != position:
            author["author_index"] = mention.author_index
        authors.append(author)
    return json.dumps(
        {
            "paper_id": record.paper_id,
            "title": record.title,
            "year": record.year,
            "fos": sorted(record.fos_terms),
            "doi": record.doi,
            "authors": authors,
        },
        ensure_ascii=False,
        sort_keys=True,
    ) + "\n"


#: The columns of a mention row, in the order ``_row`` takes their values.
_COLUMNS = ("paper_id", "author_index", "affiliation", "title", "year", "fos", "doi")
#: One parsed mention row, in ``_COLUMNS`` order.
_Row = tuple[str, int, str, str, "int | None", frozenset, "str | None"]


def _row(fields: Sequence[str], fos_memo: dict[str, str]) -> _Row | None:
    """One mention row from its raw column values in ``_COLUMNS`` order; ``None`` if bad."""
    paper_id, author_index, affiliation, title, year, fos, doi = fields
    paper_id = paper_id.strip()
    if not paper_id:
        return None
    try:
        author_index = int(author_index)
    except ValueError:
        return None
    if author_index < 0:
        return None
    return (paper_id, author_index, affiliation, title, _parse_year(year), _parse_fos(fos, fos_memo),
            doi.strip() or None)


def _valid_rows(rows: Iterable[_Row | None], report: ParseReport) -> Iterator[_Row]:
    for row in rows:
        report.rows_read += 1
        if row is None:
            report.rows_skipped += 1
        else:
            yield row


def _iter_rowwise(
    rows: Iterable[_Row | None],
    report: ParseReport,
) -> Iterator[tuple[BibRecord, int]]:
    """Group contiguous mention-level rows by paper id; ``None`` is a bad row.

    A group's first row supplies the paper's title, year, FOS and DOI.  The
    first row of each author index gives its mention; later rows with that
    index are skipped.  Yields each record with its number of kept rows.
    """
    for paper_id, group in groupby(_valid_rows(rows, report), key=itemgetter(0)):
        group = list(group)
        mentions: dict[int, AffiliationMention] = {}
        for row in group:
            if row[1] not in mentions:
                mentions[row[1]] = AffiliationMention(paper_id, row[1], row[2])
        report.rows_skipped += len(group) - len(mentions)
        _, _, _, title, year, fos_terms, doi = group[0]
        record = BibRecord(
            paper_id=paper_id,
            title=title,
            year=year,
            fos_terms=fos_terms,
            mentions=tuple(mentions.values()),
            doi=doi,
        )
        yield record, len(mentions)


def _first_per_id(records: Iterator[tuple[BibRecord, int]], report: ParseReport) -> Iterator[BibRecord]:
    """Yield the first record of each paper id; count later ones' rows as skipped."""
    seen: set[str] = set()
    for record, rows in records:
        if record.paper_id in seen:
            report.rows_skipped += rows
            continue
        seen.add(record.paper_id)
        report.records_yielded += 1
        yield record
