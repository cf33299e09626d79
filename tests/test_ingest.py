from __future__ import annotations

import csv
import gc
import io
import json
import sys
import unicodedata
import warnings
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ircmap.ingest as ingest_module
from ircmap.ingest import (
    NULL_SYNONYMS,
    Format,
    IngestError,
    NormalizedAffiliation,
    normalize_affiliation,
    parse_records,
    record_line,
    token_key,
)
from ircmap.resolver import resolve_corpus
from ircmap.wikidata import CacheEntry, CacheStatus, CacheStore, Mode, WikidataClient


@pytest.fixture
def resource_warnings_fail(monkeypatch):
    """Turn ResourceWarning into an error and collect what destructors raise.

    An unclosed file warns from its destructor, where an error cannot
    propagate; it reaches ``sys.unraisablehook`` instead, which this records.
    """
    raised = []
    monkeypatch.setattr(sys, "unraisablehook", raised.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        yield raised
        gc.collect()


def _render(fmt, rows):
    """Mention rows ``(paper_id, author_index, affiliation, title, year, fos)`` as ``fmt`` input.

    For JSONL, each run of rows with one paper id becomes one record, and
    each author carries its ``author_index``.
    """
    if fmt == "mag-tsv":
        return "".join("\t".join(row) + "\n" for row in rows)
    if fmt == "jsonl":
        lines = []
        for paper_id, group in groupby(rows, itemgetter(0)):
            group = list(group)
            _, _, _, title, year, fos = group[0]
            authors = [{"affiliation": row[2], "author_index": int(row[1])} for row in group]
            record = {"paper_id": paper_id, "title": title, "year": int(year), "fos": [fos], "authors": authors}
            lines.append(json.dumps(record) + "\n")
        return "".join(lines)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["paper_id", "author_index", "affiliation", "title", "year", "fos"])
    writer.writerows(rows)
    return out.getvalue()


#: Strings that clean to a null synonym's cleaned form without being one.
_NULL_LOOKALIKES = ["NA.", "(null)", ":NA", "#TAB#NA", "None;", "Nª"]
#: Each null synonym's cleaned form, read behind a leading word so the null rule leaves it.
_CLEANED_SYNONYMS = {normalize_affiliation(f"x {s}").cleaned.removeprefix("x").strip() for s in NULL_SYNONYMS}


def _with_null_lookalikes(test):
    for raw in reversed(_NULL_LOOKALIKES):
        test = example(raw=raw)(test)
    return test


def _reference_normalize_affiliation(raw):
    """``normalize_affiliation`` written one pass per rule: the reference it must equal, field for field."""
    text = unicodedata.normalize("NFKC", raw)
    text = text.casefold()
    text = ingest_module._TAB_TOKEN_RE.sub(" ", text)
    text = ingest_module._PUNCT_RE.sub(" ", text)
    segments = tuple(" ".join(part.split()) for part in text.split(","))
    segments = tuple(s for s in segments if s)
    cleaned = ", ".join(segments)
    if cleaned in ingest_module._NULL_CLEANED:
        return NormalizedAffiliation("", (), (), True)
    tokens = tuple(tok for seg in segments for tok in seg.split())
    return NormalizedAffiliation(cleaned, tokens, segments, False)


#: Pieces that each rule of the normalization acts on: the tab token in every
#: case and width, comma runs, underscores, characters NFKC changes (a
#: full-width comma, ligatures, superscripts, a Roman numeral) and the null
#: synonyms.
_SALT = [
    "#TAB#", "#tab#", "#Tab#", "＃TAB＃", "＃ｔａｂ＃", "#", "TAB", ",", ",,", " , ,", "_", "__",
    "，", "ﬁ", "ﬀ", "²", "ⁿ", "Ⅻ", "Ǆ", "ß", " ", "\t", "\u3000", *NULL_SYNONYMS, "NA", "N/A", "(null)",
]
_salted_affiliations = st.lists(
    st.one_of(st.sampled_from(_SALT), st.text(max_size=6)), max_size=12
).map("".join)


class TestNormalizeAffiliation:
    def test_na_is_null_like(self):
        assert normalize_affiliation("NA").null_like is True

    def test_cleaned_synonyms(self):
        assert _CLEANED_SYNONYMS == {"", "na", "n a", "null", "none"} == ingest_module._NULL_CLEANED

    @pytest.mark.parametrize("raw", ["N/A", "null", "NONE", "-", "", "   ", "#TAB#", *_NULL_LOOKALIKES])
    def test_null_like_synonyms_and_empties(self, raw):
        n = normalize_affiliation(raw)
        assert n.null_like is True
        assert n.cleaned == ""
        assert n.tokens == ()

    def test_tab_dirt_and_punctuation(self):
        n = normalize_affiliation("Dept. of CS, McGill University#TAB#")
        assert n.cleaned == "dept of cs, mcgill university"
        assert n.null_like is False
        assert n.segments == ("dept of cs", "mcgill university")
        assert n.tokens == ("dept", "of", "cs", "mcgill", "university")

    def test_tab_token_removed_not_split(self):
        # The literal token disappears entirely; no stray "tab" word remains.
        n = normalize_affiliation("University#TAB#")
        assert n.tokens == ("university",)

    def test_case_folding_and_unicode(self):
        assert normalize_affiliation("McGILL").cleaned == "mcgill"
        assert normalize_affiliation("Universität Zürich").tokens == ("universität", "zürich")
        # Decomposed accents compose back to one token.
        assert normalize_affiliation("Réunion").tokens == ("réunion",)

    def test_commas_preserved_empty_segments_dropped(self):
        n = normalize_affiliation("a ,, b,, ,c")
        assert n.cleaned == "a, b, c"

    @given(st.text(max_size=80))
    @_with_null_lookalikes
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, raw):
        once = normalize_affiliation(raw)
        twice = normalize_affiliation(once.cleaned)
        assert twice.cleaned == once.cleaned
        assert twice.tokens == once.tokens
        assert twice.segments == once.segments

    @given(st.text(max_size=80))
    @_with_null_lookalikes
    @settings(max_examples=300, deadline=None)
    def test_null_like_iff_nothing_survives(self, raw):
        """Null-like exactly when cleaning leaves nothing alphanumeric, or only a null synonym's cleaned form."""
        n = normalize_affiliation(raw)
        assert n.null_like == (n.cleaned == "")
        left = ", ".join(normalize_affiliation(raw + ",x").segments[:-1])  # the null rule spares the "x"
        survives = any(ch.isalnum() for ch in left)
        assert n.null_like == (not survives or left in _CLEANED_SYNONYMS)
        if not n.null_like:
            assert n.cleaned == left

    def test_token_key_strips_commas(self):
        assert token_key("Wellington, New Zealand") == "wellington new zealand"

    @given(st.text(max_size=80))
    @_with_null_lookalikes
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_on_any_text(self, raw):
        assert normalize_affiliation(raw) == _reference_normalize_affiliation(raw)
        assert token_key(raw) == " ".join(_reference_normalize_affiliation(raw).tokens)

    @given(_salted_affiliations)
    @settings(max_examples=500, deadline=None)
    def test_equals_reference_on_salted_text(self, raw):
        assert normalize_affiliation(raw) == _reference_normalize_affiliation(raw)
        assert token_key(raw) == " ".join(_reference_normalize_affiliation(raw).tokens)


class TestParseRecords:
    def test_jsonl_roundtrip(self):
        rows = [
            {"paper_id": "p1", "title": "T1", "year": 1999, "fos": ["AI"],
             "authors": [{"affiliation": "A"}, {"affiliation": "B"}]},
            {"paper_id": "p2", "title": "T2", "year": 2001, "fos": [], "authors": []},
            {"paper_id": "p3", "title": "T3", "year": 2010, "fos": ["ML"],
             "authors": [{"affiliation": "C"}]},
        ]
        stream = io.StringIO("".join(json.dumps(r) + "\n" for r in rows))
        reader = parse_records(stream, Format.GENERIC_JSONL)
        assert iter(reader) is iter(reader)
        records = list(reader)
        assert [r.paper_id for r in records] == ["p1", "p2", "p3"]
        assert len(records) == 3
        assert reader.rows_skipped == 0
        assert records[0].mentions[1].raw == "B"
        assert records[0].fos_terms == frozenset({"ai"})
        assert records[1].mentions == ()

    def test_missing_paper_id_skipped(self):
        stream = io.StringIO('{"title": "no id", "authors": []}\n{"paper_id": "p1", "authors": []}\n')
        reader = parse_records(stream, Format.GENERIC_JSONL)
        assert [r.paper_id for r in reader] == ["p1"]
        assert reader.rows_skipped == 1

    def test_bad_json_skipped(self):
        stream = io.StringIO('{"paper_id": "p1", "authors": []}\nnot json at all\n')
        reader = parse_records(stream, Format.GENERIC_JSONL)
        assert len(list(reader)) == 1
        assert reader.rows_skipped == 1

    @pytest.mark.parametrize("fos", [5, {"a": 1}], ids=["number", "object"])
    def test_fos_neither_text_nor_list_skipped(self, fos):
        rows = [
            {"paper_id": "p1", "fos": fos, "authors": [{"affiliation": "A"}, {"affiliation": "B"}]},
            {"paper_id": "p2", "fos": "AI|ML", "authors": []},
            {"paper_id": "p3", "fos": None, "authors": []},
        ]
        reader = parse_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), Format.GENERIC_JSONL)
        records = list(reader)
        assert [r.paper_id for r in records] == ["p2", "p3"]
        assert [r.fos_terms for r in records] == [frozenset({"ai", "ml"}), frozenset()]
        assert reader.rows_skipped == 1

    @pytest.mark.parametrize("item", [None, 5, ["ai"], {"a": 1}, True], ids=["null", "number", "list", "object", "true"])
    def test_fos_list_item_that_is_not_text_skipped(self, item):
        rows = [
            {"paper_id": "p1", "fos": ["AI", item], "authors": [{"affiliation": "A"}, {"affiliation": "B"}]},
            {"paper_id": "p2", "fos": ["ML", ""], "authors": []},
        ]
        reader = parse_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), Format.GENERIC_JSONL)
        assert [(r.paper_id, r.fos_terms) for r in reader] == [("p2", frozenset({"ml"}))]
        assert reader.rows_skipped == 1

    @pytest.mark.parametrize("authors", [{}, False, 0, "", 5], ids=["empty-object", "false", "zero", "empty-string", "number"])
    def test_authors_neither_list_nor_null_skipped(self, authors):
        rows = [
            {"paper_id": "p1", "authors": authors},
            {"paper_id": "p2", "authors": None},
            {"paper_id": "p3"},
            {"paper_id": "p4", "authors": []},
        ]
        reader = parse_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), Format.GENERIC_JSONL)
        assert [(r.paper_id, r.mentions) for r in reader] == [("p2", ()), ("p3", ()), ("p4", ())]
        assert reader.rows_skipped == 1

    def test_integer_paper_id_and_null_title_kept(self):
        rows = [
            {"paper_id": 0, "title": None, "authors": []},
            {"paper_id": 1, "title": "T", "authors": [{"affiliation": "A"}]},
            {"paper_id": " p2 ", "authors": []},
        ]
        reader = parse_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), Format.GENERIC_JSONL)
        records = list(reader)
        assert [(r.paper_id, r.title) for r in records] == [("0", ""), ("1", "T"), ("p2", "")]
        assert records[1].mentions[0].paper_id == "1"
        assert reader.rows_skipped == 0

    @pytest.mark.parametrize(
        "fields",
        [{"paper_id": True}, {"paper_id": 1.0}, {"paper_id": ["p"]}, {"paper_id": None}, {"paper_id": " "},
         {"paper_id": "p", "title": 0}, {"paper_id": "p", "title": ["T"]}, {"paper_id": "p", "title": False}],
        ids=["true-id", "float-id", "list-id", "null-id", "blank-id", "number-title", "list-title", "false-title"],
    )
    def test_paper_id_or_title_of_the_wrong_type_skipped(self, fields):
        rows = [{**fields, "authors": []}, {"paper_id": "q", "title": "Kept", "authors": []}]
        reader = parse_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), Format.GENERIC_JSONL)
        assert [(r.paper_id, r.title) for r in reader] == [("q", "Kept")]
        assert reader.rows_skipped == 1

    @pytest.mark.parametrize("author", ["a", 5, True, ["x"]], ids=["string", "number", "true", "list"])
    def test_author_neither_object_nor_empty_skipped(self, author):
        rows = [
            {"paper_id": "p1", "authors": [{"affiliation": "A"}, author]},
            {"paper_id": "p2", "authors": [None, {}, "", {"affiliation": "B"}]},
        ]
        reader = parse_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), Format.GENERIC_JSONL)
        (record,) = list(reader)
        assert record.paper_id == "p2"
        assert [m.raw for m in record.mentions] == ["", "", "", "B"]
        assert reader.rows_skipped == 1

    @pytest.mark.parametrize("affiliation", [["MIT", "Cambridge, USA"], 5, True, {"name": "MIT"}],
                             ids=["list", "number", "true", "object"])
    def test_affiliation_neither_text_nor_null_skipped(self, affiliation):
        rows = [
            {"paper_id": "p1", "authors": [{"affiliation": "A"}, {"affiliation": affiliation}]},
            {"paper_id": "p2", "authors": [{"affiliation": None}, {"affiliation": "B"}]},
        ]
        reader = parse_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), Format.GENERIC_JSONL)
        (record,) = list(reader)
        assert record.paper_id == "p2"
        assert [m.raw for m in record.mentions] == ["", "B"]  # a null affiliation is empty
        assert reader.rows_skipped == 1

    def test_author_index_defaults_to_position(self):
        row = {"paper_id": "p1", "authors": [{"affiliation": "A", "author_index": 3}, {"affiliation": "B"}, None]}
        (record,) = parse_records(io.StringIO(json.dumps(row) + "\n"), Format.GENERIC_JSONL)
        assert [(m.author_index, m.raw) for m in record.mentions] == [(3, "A"), (1, "B"), (2, "")]

    @pytest.mark.parametrize("author_index", [-1, 1.5, True, "2", None, 2],
                             ids=["negative", "fractional", "true", "string", "null", "repeated"])
    def test_author_index_neither_non_negative_integer_nor_unique_skipped(self, author_index):
        rows = [
            {"paper_id": "p1", "authors": [{"affiliation": "A"}, {"affiliation": "B", "author_index": author_index},
                                           {"affiliation": "C"}]},
            {"paper_id": "p2", "authors": [{"affiliation": "D", "author_index": 0}]},
        ]
        reader = parse_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), Format.GENERIC_JSONL)
        assert [r.paper_id for r in reader] == ["p2"]
        assert reader.rows_skipped == 1

    def test_mag_tsv_mention_raw_preserved(self):
        line = "42\t0\tMcGill University\tSome Paper\t2016\tcomputer science|databases\n"
        reader = parse_records(io.StringIO(line), Format.MAG_TSV)
        (record,) = list(reader)
        assert record.mentions[0].raw == "McGill University"
        assert record.year == 2016
        assert record.fos_terms == frozenset({"computer science", "databases"})

    @pytest.mark.parametrize("fmt", ["mag-tsv", "csv"])
    def test_row_formats_group_contiguous_rows(self, fmt):
        rows = [
            ("1", "0", "Org A", "Paper 1", "2000", "ai"),
            ("1", "1", "Org B", "Paper 1", "2000", "ai"),
            ("2", "0", "Org C", "Paper 2", "2001", "ml"),
        ]
        reader = parse_records(io.StringIO(_render(fmt, rows)), fmt)
        records = list(reader)
        assert [r.paper_id for r in records] == ["1", "2"]
        assert [m.raw for m in records[0].mentions] == ["Org A", "Org B"]
        assert [m.author_index for m in records[0].mentions] == [0, 1]

    @pytest.mark.parametrize("fmt", ["mag-tsv", "csv"])
    def test_row_formats_count_bad_rows(self, fmt):
        rows = [
            ("1", "0", "Org A", "Paper 1", "2000", "ai"),
            ("short", "row"),
            ("1", "not-an-int", "Org B", "Paper 1", "2000", "ai"),
        ]
        reader = parse_records(io.StringIO(_render(fmt, rows)), fmt)
        records = list(reader)
        assert len(records) == 1
        assert len(records[0].mentions) == 1
        assert reader.rows_skipped == 2

    @pytest.mark.parametrize("fmt", ["mag-tsv", "csv"])
    def test_row_formats_skip_repeated_author_index(self, fmt):
        rows = [
            ("1", "0", "Org A", "Paper 1", "2000", "ai"),
            ("1", "1", "Org B", "Paper 1", "2000", "ai"),
            ("1", "0", "Org A again", "Other title", "1999", "ml"),
        ]
        reader = parse_records(io.StringIO(_render(fmt, rows)), fmt)
        (record,) = list(reader)
        assert [(m.author_index, m.raw) for m in record.mentions] == [(0, "Org A"), (1, "Org B")]
        assert (record.title, record.year) == ("Paper 1", 2000)
        assert reader.rows_skipped == 1

    @pytest.mark.parametrize("fmt", ["jsonl", "mag-tsv", "csv"])
    def test_duplicate_paper_id_keeps_first_record(self, fmt):
        rows = [
            ("p1", "0", "Paris, France", "First", "2001", "ai"),
            ("p2", "0", "Rome, Italy", "Second", "2002", "ai"),
            ("p1", "1", "Lima, Peru", "Again", "2003", "ml"),
            ("p1", "2", "Quito, Ecuador", "Again", "2003", "ml"),
        ]
        reader = parse_records(io.StringIO(_render(fmt, rows)), fmt)
        records = list(reader)
        assert [r.paper_id for r in records] == ["p1", "p2"]
        assert [m.raw for m in records[0].mentions] == ["Paris, France"]
        assert (records[0].title, records[0].year) == ("First", 2001)
        assert len(records) == 2
        # A JSONL record is one row; the row formats skip each mention row.
        assert reader.rows_skipped == (1 if fmt == "jsonl" else 2)

    def test_year_out_of_range_flagged_invalid(self):
        stream = io.StringIO('{"paper_id": "p", "year": 1492, "authors": []}\n')
        (record,) = list(parse_records(stream, Format.GENERIC_JSONL))
        assert record.year is None

    @pytest.mark.parametrize(
        "year, expected",
        [("2001", 2001), ("2001.0", 2001), ('" 2001 "', 2001), ("null", None), ('"MMI"', None), ('"2001.0"', None),
         ("1492.0", None), ("1e300", None)],
    )
    def test_year_integer_integral_number_text_or_null_kept(self, year, expected):
        stream = io.StringIO(f'{{"paper_id": "p", "year": {year}, "authors": []}}\n')
        reader = parse_records(stream, Format.GENERIC_JSONL)
        assert [r.year for r in reader] == [expected]
        assert reader.rows_skipped == 0

    @pytest.mark.parametrize("year", ["2001.5", "NaN", "Infinity", "-Infinity", "true", "[2001]", '{"y": 2001}'])
    def test_year_neither_integral_number_text_nor_null_skipped(self, year):
        stream = io.StringIO(f'{{"paper_id": "p", "year": {year}, "authors": []}}\n{{"paper_id": "q", "authors": []}}\n')
        reader = parse_records(stream, Format.GENERIC_JSONL)
        assert [r.paper_id for r in reader] == ["q"]
        assert reader.rows_skipped == 1

    @pytest.mark.parametrize("doi", [["10.1/x"], 5, True, {"doi": "10.1/x"}], ids=["list", "number", "true", "object"])
    def test_doi_neither_text_nor_null_skipped(self, doi):
        rows = [
            {"paper_id": "p1", "doi": doi, "authors": []},
            {"paper_id": "p2", "doi": " 10.1/X ", "authors": []},
            {"paper_id": "p3", "doi": " ", "authors": []},
            {"paper_id": "p4", "doi": None, "authors": []},
        ]
        reader = parse_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), Format.GENERIC_JSONL)
        assert [(r.paper_id, r.doi) for r in reader] == [("p2", "10.1/X"), ("p3", None), ("p4", None)]
        assert reader.rows_skipped == 1

    def test_csv_with_optional_columns(self):
        text = (
            "paper_id,author_index,affiliation,title,year,fos,doi\n"
            'p1,0,"Dept, McGill University",Paper One,2015,ai|ml,10.1000/X\n'
            "p1,1,ETH Zurich,Paper One,2015,ai|ml,10.1000/X\n"
        )
        reader = parse_records(io.StringIO(text), Format.GENERIC_CSV)
        (record,) = list(reader)
        assert record.doi == "10.1000/X"
        assert [m.raw for m in record.mentions] == ["Dept, McGill University", "ETH Zurich"]

    def test_csv_missing_required_header_fatal(self):
        with pytest.raises(IngestError):
            list(parse_records(io.StringIO("paper_id,affiliation\np,x\n"), Format.GENERIC_CSV))

    def test_unknown_format_fatal(self):
        with pytest.raises(IngestError):
            parse_records(io.StringIO(""), "parquet")

    def test_unreadable_input_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            parse_records(tmp_path / "missing.jsonl", Format.GENERIC_JSONL)

    @pytest.mark.parametrize("fmt", ["jsonl", "mag-tsv", "csv"])
    def test_path_input_leading_byte_order_mark_ignored(self, fmt, tmp_path):
        rows = [("p1", "0", "Paris, France", "T", "2001", "ai"), ("p2", "0", "Rome, Italy", "T", "2002", "ai")]
        path = tmp_path / f"input.{fmt}"
        path.write_text("\ufeff" + _render(fmt, rows), encoding="utf-8")
        reader = parse_records(path, fmt)
        assert list(reader) == list(parse_records(io.StringIO(_render(fmt, rows)), fmt))
        assert reader.rows_skipped == 0

    @pytest.mark.parametrize("fmt", ["jsonl", "mag-tsv", "csv"])
    def test_path_input_closed_when_exhausted_or_closed(self, fmt, tmp_path, resource_warnings_fail):
        rows = [("p1", "0", "Paris, France", "T", "2001", "ai"), ("p2", "0", "Rome, Italy", "T", "2002", "ai")]
        path = tmp_path / f"input.{fmt}"
        path.write_text(_render(fmt, rows), encoding="utf-8")
        assert [r.paper_id for r in parse_records(path, fmt)] == ["p1", "p2"]
        records = iter(parse_records(str(path), fmt))
        assert next(records).paper_id == "p1"
        records.close()
        del records
        reader = parse_records(path, fmt)
        assert next(iter(reader)).paper_id == "p1"
        del reader  # dropped before its end
        gc.collect()
        assert resource_warnings_fail == []

    def test_path_input_closed_on_bad_header(self, tmp_path, resource_warnings_fail):
        path = tmp_path / "input.csv"
        path.write_text("paper_id,affiliation\np,x\n", encoding="utf-8")
        with pytest.raises(IngestError):
            parse_records(path, Format.GENERIC_CSV)
        gc.collect()
        assert resource_warnings_fail == []

    def test_caller_stream_left_open(self):
        stream = io.StringIO('{"paper_id": "p1", "authors": []}\n')
        assert len(list(parse_records(stream, Format.GENERIC_JSONL))) == 1
        gc.collect()
        assert not stream.closed

    def test_order_preserved_no_fabricated_mentions(self):
        rows = [
            {"paper_id": f"p{i}", "authors": [{"affiliation": f"A{i}-{j}"} for j in range(i % 3)]}
            for i in range(20)
        ]
        stream = io.StringIO("".join(json.dumps(r) + "\n" for r in rows))
        records = list(parse_records(stream, Format.GENERIC_JSONL))
        assert [r.paper_id for r in records] == [f"p{i}" for i in range(20)]
        total_in = sum(i % 3 for i in range(20))
        assert sum(len(r.mentions) for r in records) == total_in


def _fos_input(fmt, papers):
    """One single-author record per FOS term list, as ``fmt`` input."""
    if fmt == "jsonl":
        return "".join(
            json.dumps({"paper_id": f"p{i}", "fos": terms, "authors": [{"affiliation": "X"}]}) + "\n"
            for i, terms in enumerate(papers)
        )
    return _render(fmt, [(f"p{i}", "0", "X", "T", "2000", "|".join(terms)) for i, terms in enumerate(papers)])


_FOS_TERMS = st.one_of(
    st.builds(
        lambda base, case, wrap: wrap[0] + case(base) + wrap[1],
        st.sampled_from(["Machine Learning", "data-bases", "AI", "\uff2d\uff2c", "Café", "x_y"]),
        st.sampled_from([str, str.upper, str.lower, str.swapcase]),
        st.sampled_from([("", ""), (" ", "  "), ("(", ")"), ("#TAB#", "."), ("\u3000", ",")]),
    ),
    st.sampled_from(["", " ", "-", "NA"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters="|"),
            max_size=12),
)


class TestFosMemo:
    @pytest.mark.parametrize("fmt", ["jsonl", "mag-tsv", "csv"])
    @settings(max_examples=40, deadline=None)
    @given(papers=st.lists(st.lists(_FOS_TERMS, max_size=6), min_size=1, max_size=6))
    def test_memoized_keys_equal_token_key(self, fmt, papers):
        records = list(parse_records(io.StringIO(_fos_input(fmt, papers)), fmt))
        assert [r.fos_terms for r in records] == [{token_key(t) for t in terms} - {""} for terms in papers]


_FIELD_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12)


@st.composite
def _corpus_rows(draw):
    """Mention rows for ``_render``: text that all three formats carry, ids padded with spaces.

    Each paper's rows are contiguous, share one raw id and carry distinct
    author indices in any order, not only ``0, 1, ...``.  Ids are distinct
    once stripped, because the row formats group rows by the stripped id
    and JSONL keeps each line a record.
    """
    affiliations = st.one_of(
        _FIELD_TEXT,
        st.sampled_from(["Oslo, Norway", "McGill University", "NA", "Dept. of CS, Paris, France", " Lund "]),
    )
    rows = []
    for paper_id in draw(st.lists(_FIELD_TEXT, min_size=1, max_size=5, unique_by=str.strip)):
        padded = draw(st.sampled_from(["", " ", "  "])) + paper_id + draw(st.sampled_from(["", " "]))
        title, fos = draw(_FIELD_TEXT), draw(_FIELD_TEXT.filter(lambda t: "|" not in t))
        year = str(draw(st.integers(1700, 2200)))
        authors = draw(st.lists(st.tuples(st.integers(0, 6), affiliations), max_size=4, unique_by=itemgetter(0)))
        for author_index, affiliation in authors:
            rows.append((padded, str(author_index), affiliation, title, year, fos))
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=_corpus_rows())
def test_one_corpus_reads_the_same_in_every_format(rows, gazetteer, label_map):
    """The same rows written as jsonl, csv and mag-tsv give equal records and equal offline resolutions."""
    cache = CacheStore()
    cache.put(CacheEntry("mcgill university", ("Canada",), CacheStatus.HIT, "2024-01-01T00:00:00+00:00"))
    client = WikidataClient(cache=cache, label_map=label_map, mode=Mode.OFFLINE)
    records, resolutions = {}, {}
    for fmt in ("jsonl", "csv", "mag-tsv"):
        records[fmt] = list(parse_records(io.StringIO(_render(fmt, rows)), fmt))
        resolutions[fmt] = list(resolve_corpus(records[fmt], gazetteer, client))
    assert records["csv"] == records["jsonl"]
    assert records["mag-tsv"] == records["jsonl"]
    assert resolutions["csv"] == resolutions["jsonl"]
    assert resolutions["mag-tsv"] == resolutions["jsonl"]


@settings(max_examples=150, deadline=None)
@given(rows=_corpus_rows())
def test_record_lines_read_back_as_the_same_records(rows):
    """``record_line`` writes what ``parse_records`` reads back unchanged, author indices included."""
    for fmt in ("jsonl", "csv", "mag-tsv"):
        records = list(parse_records(io.StringIO(_render(fmt, rows)), fmt))
        lines = "".join(record_line(record) for record in records)
        assert list(parse_records(io.StringIO(lines), Format.GENERIC_JSONL)) == records


def test_record_line_writes_author_index_only_off_position():
    (record,) = parse_records(io.StringIO("p1\t0\tA\tT\t2001\tai\np1\t2\tB\tT\t2001\tai\n"), Format.MAG_TSV)
    assert json.loads(record_line(record))["authors"] == [{"affiliation": "A"}, {"affiliation": "B", "author_index": 2}]


#: One line per skip rule of each format, each a row ``parse_records`` must skip and count.
_MALFORMED = {
    "jsonl": ["not json", "[1, 2]", '"p"', "null", '{"authors": []}'] + [
        json.dumps({"paper_id": "p", "authors": [], **fields}) for fields in (
            {"paper_id": None}, {"paper_id": " "}, {"paper_id": True}, {"paper_id": 1.0}, {"paper_id": ["p"]},
            {"title": 0}, {"title": ["T"]},
            {"authors": "a"}, {"authors": {"affiliation": "A"}}, {"authors": ["a"]}, {"authors": [5]},
            {"authors": [{"affiliation": 5}]}, {"authors": [{"affiliation": ["A"]}]},
            {"authors": [{"author_index": -1}]}, {"authors": [{"author_index": 1.5}]},
            {"authors": [{"author_index": True}]}, {"authors": [{"author_index": "0"}]},
            {"authors": [{"author_index": 1}, {}]},  # the second author's position repeats the first's index
            {"fos": 5}, {"fos": {"ai": 1}},
            {"doi": ["10.1/x"]}, {"doi": 5}, {"doi": True},
            {"year": 2001.5}, {"year": float("nan")}, {"year": float("inf")}, {"year": True}, {"year": [2001]},
            {"year": {}},
        )
    ],
    "csv": ["p", ",0,A,T,2000,ai", "  ,0,A,T,2000,ai", "p,,A,T,2000,ai", "p,x,A,T,2000,ai", "p,1.5,A,T,2000,ai",
            "p,-1,A,T,2000,ai"],
    "mag-tsv": ["p", "p\t0\tA\tT\t2000", "p\t0\tA\tT\t2000\tai\t10.1/x", "\t0\tA\tT\t2000\tai",
                "  \t0\tA\tT\t2000\tai", "p\t\tA\tT\t2000\tai", "p\tx\tA\tT\t2000\tai",
                "p\t1.5\tA\tT\t2000\tai", "p\t-1\tA\tT\t2000\tai"],
}


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "mag-tsv"])
@settings(max_examples=60, deadline=None)
@given(rows=_corpus_rows(), data=st.data())
def test_malformed_rows_are_skipped_and_counted(fmt, rows, data):
    """Malformed rows anywhere in the input leave the valid rows' records as they are, and each counts once."""
    rows = [row for row in rows if row[0].strip()]
    text = _render(fmt, rows)
    lines = text.splitlines(keepends=True)
    header = lines[:1] if fmt == "csv" else []
    del lines[:len(header)]
    bad = data.draw(st.lists(st.sampled_from(_MALFORMED[fmt]), max_size=8))
    for line in bad:
        lines.insert(data.draw(st.integers(0, len(lines))), line + "\n")
    reader = parse_records(io.StringIO("".join(header + lines)), fmt)
    assert list(reader) == list(parse_records(io.StringIO(text), fmt))
    assert reader.rows_skipped == len(bad)
