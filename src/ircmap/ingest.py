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
  paper id is a non-blank string or an integer; a title, an affiliation and
  a DOI are each a string or null (empty; a DOI is stripped, and a blank one
  is none).  A year is an integer, a number with an integral value, a
  string or null; a string that is not an integer, and any year outside
  ``YEAR_MIN..YEAR_MAX``, is unknown.  ``fos`` is null, a ``|``-separated
  string or a list of strings, and ``authors`` null or a list of objects or
  empty entries.  Any other type, a fractional, infinite or NaN year, and
  an escaped lone surrogate in a text the record keeps skip the record.
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
from functools import partial
from itertools import groupby, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, Union

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


#: Raw values treated as "no affiliation given".  A string is null-like when
#: its cleaned form is empty or is the cleaned form of one of these, so
#: ``NA.``, ``(null)`` and ``#TAB#None`` are null-like too.  Fixed, not
#: configurable, so category counts stay comparable across runs.
NULL_SYNONYMS = frozenset({"na", "n/a", "null", "none", "-"})
#: The cleaned forms of ``NULL_SYNONYMS`` (``-`` cleans to the empty string).
_NULL_CLEANED = frozenset({"", "na", "n a", "null", "none"})

YEAR_MIN = 1800
YEAR_MAX = 2100

# Everything that is not a word character, whitespace, or comma becomes a
# space; underscores count as punctuation too.
_PUNCT_RE = re.compile(r"[^\w\s,]|_")
#: The literal ``#TAB#`` token, in any case, that some exports leave in affiliations.
_TAB_TOKEN_RE = re.compile(r"#tab#", re.IGNORECASE)


class NormalizedAffiliation(NamedTuple):
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
    comma segments are dropped.  A value whose cleaned form is that of a
    null synonym (``NA``, ``N/A``, ``NULL``, ``NONE``, ``-``), such as
    ``(null)`` or ``NA.``, cleans to the empty string, so ``null_like`` is
    equivalent to ``cleaned == ""``.

    Idempotent: normalizing an already-cleaned string returns it unchanged.
    """
    text = unicodedata.normalize("NFKC", raw)
    text = text.casefold()
    text = _TAB_TOKEN_RE.sub(" ", text)
    text = _PUNCT_RE.sub(" ", text)
    segments = tuple(" ".join(part.split()) for part in text.split(","))
    segments = tuple(s for s in segments if s)
    cleaned = ", ".join(segments)
    if cleaned in _NULL_CLEANED:
        return NormalizedAffiliation("", (), (), True)
    tokens = tuple(tok for seg in segments for tok in seg.split())
    return NormalizedAffiliation(cleaned, tokens, segments, False)


def token_key(text: str) -> str:
    """Comma-free normalized form of ``text``, used as a lookup key."""
    return " ".join(normalize_affiliation(text).tokens)


class AffiliationMention(NamedTuple):
    """One (paper, author) raw affiliation string; the unit of resolution.

    ``raw`` is preserved byte-for-byte for audit.
    """

    paper_id: str
    author_index: int
    raw: str


class BibRecord(NamedTuple):
    """One publication with its authors' affiliation mentions."""

    paper_id: str
    title: str = ""
    year: int | None = None
    fos_terms: frozenset[str] = frozenset()
    mentions: tuple[AffiliationMention, ...] = ()
    doi: str | None = None


@dataclass
class ParseReport:
    rows_skipped: int = 0


def _parse_year(value: object) -> int | None:
    """``value`` as a year, ``None`` if unknown; raises ``TypeError`` unless null, a string or integral."""
    if type(value) is int:  # a bool is not a year
        year = value
    elif isinstance(value, str):
        try:
            year = int(value.strip())
        except ValueError:
            return None
    elif value is None:
        return None
    elif type(value) is float and value.is_integer():
        year = int(value)
    else:
        raise TypeError(f"year is not an integral number, a string or null: {value!r}")
    return year if YEAR_MIN <= year <= YEAR_MAX else None


#: Distinct FOS terms one reader remembers; its memo is cleared when full.
_FOS_MEMO_SIZE = 1 << 14


def _parse_fos(terms: object, memo: dict[str, str]) -> frozenset[str]:
    """FOS keys of ``terms`` (null, a ``|``-separated string or a list of strings), via ``memo``.

    ``memo`` maps each term to its ``token_key``; it holds at most
    ``_FOS_MEMO_SIZE`` terms.  Any other type, of ``terms`` or of a list
    item, raises ``TypeError``.
    """
    if terms is None:
        return frozenset()
    if isinstance(terms, str):
        terms = terms.split("|")
    elif not isinstance(terms, list):
        raise TypeError(f"fos is not null, a string or a list: {terms!r}")
    out = set()
    for term in terms:
        if not isinstance(term, str):
            raise TypeError(f"fos item is not a string: {term!r}")
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

    ``report.rows_skipped`` is final only once the stream is exhausted.
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

    Yields records in input order, the first one for each paper id.  A row
    is skipped and counted in the report if it has a blank paper id, an
    author index that is not a non-negative integer, the wrong column count
    or bad JSON; if it is JSONL that breaks the module docstring's schema (a
    field of another type, a repeated ``author_index``, a fractional,
    infinite or NaN year, a lone surrogate); or if it repeats a paper id
    already yielded, or an author index within a row-format record.  A file
    opened from a path is closed once the stream is exhausted or closed; a
    caller's stream, text or binary, is left open.

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
        lines = filter(str.strip, stream)  # a blank line is not a row
        return zip(_parsed(lines, partial(_json_record, fos_memo=fos_memo), report), repeat(1))
    if fmt is Format.MAG_TSV:
        lines = (line.rstrip("\n").rstrip("\r") for line in stream)
        # No DOI column: a 6-field row gets an empty one, and _row's unpack rejects any other count.
        fields = (line.split("\t") + [""] for line in lines if line)
    else:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise IngestError("csv input has no header row")
        missing = {"paper_id", "author_index", "affiliation"} - set(reader.fieldnames)
        if missing:
            raise IngestError(f"csv header missing columns: {sorted(missing)}")
        fields = ([row.get(column) or "" for column in _COLUMNS] for row in reader)
    return _iter_rowwise(_parsed(fields, partial(_row, fos_memo=fos_memo), report), report)


def _parsed(rows: Iterable, parse: Callable, report: ParseReport) -> Iterator:
    """``parse`` each row; skip and count one whose parse raises ``TypeError`` or ``ValueError``."""
    for row in rows:
        try:
            parsed = parse(row)
        except (TypeError, ValueError):
            report.rows_skipped += 1
        else:
            yield parsed


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


def _optional_text(obj: dict, field: str) -> str:
    """``obj[field]`` if a string, ``""`` if absent or null; raises ``TypeError`` otherwise."""
    value = obj.get(field)
    if value is None:
        return ""
    if not isinstance(value, str):
        raise TypeError(f"{field} is not a string: {value!r}")
    return value


def _json_record(line: str, fos_memo: dict[str, str]) -> BibRecord:
    """One JSONL line's record; raises ``TypeError`` or ``ValueError`` if it breaks the schema."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise TypeError(f"record is not an object: {obj!r}")
    paper_id = obj.get("paper_id")  # a non-blank string or an int, which a bool is not
    paper_id = str(paper_id) if type(paper_id) is int else _optional_text(obj, "paper_id").strip()
    if not paper_id:
        raise ValueError("blank paper_id")
    authors = [] if obj.get("authors") is None else obj["authors"]
    if not isinstance(authors, list):
        raise TypeError(f"authors is not a list: {authors!r}")
    mentions = []
    for position, author in enumerate(authors):
        author = author or {}  # a null or empty entry, like a null affiliation, is an empty mention
        if not isinstance(author, dict):
            raise TypeError(f"author is not an object: {author!r}")
        author_index = author.get("author_index", position)
        if type(author_index) is not int or author_index < 0:  # a bool is not an index
            raise TypeError(f"author_index is not a non-negative integer: {author_index!r}")
        mentions.append(AffiliationMention(paper_id, author_index, _optional_text(author, "affiliation")))
    if len({m.author_index for m in mentions}) < len(mentions):
        raise ValueError("repeated author_index")
    record = BibRecord(
        paper_id=paper_id,
        title=_optional_text(obj, "title"),
        year=_parse_year(obj.get("year")),
        fos_terms=_parse_fos(obj.get("fos"), fos_memo),
        mentions=tuple(mentions),
        doi=_optional_text(obj, "doi").strip() or None,
    )
    if "\\u" in line:  # only an escape can give a lone surrogate, which no output can encode
        fos = obj.get("fos") or ()
        kept = (paper_id, record.title, record.doi or "", *(m.raw for m in mentions),
                *([fos] if isinstance(fos, str) else fos))
        "".join(kept).encode("utf-8")  # a UnicodeEncodeError is a ValueError
    return record


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


def _row(fields: Sequence[str], fos_memo: dict[str, str]) -> _Row:
    """One mention row from its raw column values in ``_COLUMNS`` order; raises ``ValueError`` if bad."""
    paper_id, author_index, affiliation, title, year, fos, doi = fields
    paper_id, author_index = paper_id.strip(), int(author_index)
    if not paper_id or author_index < 0:
        raise ValueError(f"blank paper_id or negative author_index: {fields!r}")
    return (paper_id, author_index, affiliation, title, _parse_year(year), _parse_fos(fos, fos_memo),
            doi.strip() or None)


def _iter_rowwise(rows: Iterable[_Row], report: ParseReport) -> Iterator[tuple[BibRecord, int]]:
    """Group contiguous mention rows by paper id.

    A group's first row supplies the paper's title, year, FOS and DOI.  The
    first row of each author index gives its mention; later rows with that
    index are skipped.  Yields each record with its number of kept rows.
    """
    for paper_id, group in groupby(rows, key=itemgetter(0)):
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
        yield record
