from __future__ import annotations

import csv
import itertools
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ircmap
import ircmap.cli as cli_module
import ircmap.resolver
from ircmap.cli import ENRICHED_FIELDS, _enriched_line, main
from ircmap.gazetteer import default_data_dir
from ircmap.metrics import MentionCountry
from ircmap.resolver import Category, Resolution
from ircmap.wikidata import CacheEntry, CacheStatus, CacheStore


def _write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path


def _paper(pid, affiliations, year=2005, fos=("ai",), title=None):
    return {
        "paper_id": pid,
        "title": title or f"Paper {pid}",
        "year": year,
        "fos": list(fos),
        "authors": [{"affiliation": a} for a in affiliations],
    }


def _snapshot(directory: Path) -> dict:
    """Every entry of ``directory``: file bytes, or None for a subdirectory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def _src_env(**extra) -> dict:
    """The environment for a subprocess that imports this checkout's ``ircmap``."""
    src = str(Path(ircmap.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def corpus_20(tmp_path):
    """20 papers, 6 of them single-author, all sharing one FOS term."""
    rows = []
    for i in range(14):
        rows.append(_paper(f"m{i}", ["University A, Canada", "University B, France"]))
    for i in range(6):
        rows.append(_paper(f"s{i}", ["Lonely Lab, Spain"]))
    return _write_jsonl(tmp_path / "corpus.jsonl", rows)


@pytest.fixture
def warm_cache(tmp_path):
    """Cache file seeded with every fragment the CLI fixtures can query."""
    path = tmp_path / "cache.jsonl"
    store = CacheStore(path)
    store.put(CacheEntry("mcgill university", ("Canada",), CacheStatus.HIT, "2024-01-01T00:00:00+00:00"))
    store.put(CacheEntry("zzqx unknown institute", (), CacheStatus.EMPTY, "2024-01-01T00:00:00+00:00"))
    return path


class TestPrepare:
    def test_single_author_records_removed(self, corpus_20, tmp_path):
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(corpus_20), "--output", str(out)]) == 0
        prepared = (out / "prepared.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(prepared) == 14
        report = json.loads((out / "prep_report.json").read_text(encoding="utf-8"))
        assert report["Total works"] == 20
        assert report["Unique, co-authored, CS works"] == 14
        assert report["detail"]["single_author_dropped"] == 6

    def test_mag_tsv_with_a_byte_order_mark_keeps_one_paper(self, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("\ufeffp1\t0\tParis, France\tT\t2001\tai\np1\t1\tRome, Italy\tT\t2001\tai\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(corpus), "--format", "mag-tsv", "--output", str(out)]) == 0
        (line,) = (out / "prepared.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(line)
        assert record["paper_id"] == "p1"
        assert [author["affiliation"] for author in record["authors"]] == ["Paris, France", "Rome, Italy"]
        counts = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["counts"]
        assert (counts["total_works"], counts["prepared"]) == (1, 1)

    def test_empty_input_errors_without_output(self, tmp_path, capsys):
        empty = _write_jsonl(tmp_path / "empty.jsonl", [])
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(empty), "--output", str(out)]) == 1
        assert not (out / "prepared.jsonl").exists()
        assert not (out / "manifest.json").exists()
        assert "error" in capsys.readouterr().err

    def test_report_rows_use_summary_names(self, corpus_20, tmp_path):
        out = tmp_path / "out"
        main(["prepare", "--input", str(corpus_20), "--output", str(out)])
        text = (out / "prep_report.txt").read_text(encoding="utf-8")
        for label in ("Total works", "Date range", "Unique, co-authored, CS works"):
            assert label in text
        csv_text = (out / "prep_report.csv").read_text(encoding="utf-8")
        assert "Total works" in csv_text

    def test_fos_filter_and_dedup_stages(self, tmp_path):
        primary = _write_jsonl(
            tmp_path / "primary.jsonl",
            [
                _paper("a", ["X, Canada", "Y, France"], fos=["ai"]),
                _paper("b", ["X, Canada", "Y, France"], fos=["history"]),
                _paper("c", ["X, Canada", "Y, France"], fos=["ai"], title="Shared Title"),
            ],
        )
        secondary = _write_jsonl(
            tmp_path / "secondary.jsonl", [_paper("z", ["Q, Japan"], title="Shared Title")]
        )
        out = tmp_path / "out"
        assert main([
            "prepare", "--input", str(primary), "--output", str(out),
            "--top-k-fos", "1", "--dedup-against", str(secondary),
        ]) == 0
        prepared = [json.loads(l) for l in (out / "prepared.jsonl").read_text().splitlines()]
        assert [p["paper_id"] for p in prepared] == ["a"]
        report = json.loads((out / "prep_report.json").read_text())
        assert report["detail"]["fos_dropped"] == 1
        assert report["detail"]["dedup_dropped"] == 1

    @pytest.mark.parametrize("exists", [False, True], ids=["missing", "existing"])
    def test_overlap_without_top_k_fos_is_user_error(self, corpus_20, tmp_path, capsys, caplog, exists):
        """``--overlap`` only defines the FOS filter, so without one it stops the run before anything is staged."""
        overlap = tmp_path / "overlap.jsonl"
        if exists:
            _write_jsonl(overlap, [_paper("z", ["Q, Japan"])])
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(corpus_20), "--output", str(out), "--overlap", str(overlap)]) == 1
        assert capsys.readouterr().err == "ircmap: error: --overlap needs --top-k-fos\n"
        assert "Traceback" not in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--overlap", "--dedup-against"])
    def test_bad_line_in_a_second_corpus_is_reported(self, corpus_20, tmp_path, caplog, option):
        """The overlap and dedup corpora are streamed; each one's skips are counted once it is read."""
        second = tmp_path / "second.jsonl"
        second.write_text("not json\n" + json.dumps(_paper("z", ["Q, Japan"])) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(corpus_20), "--output", str(out), "--top-k-fos", "1",
                     option, str(second)]) == 0
        assert f"{second}: skipped 1 malformed or duplicate rows" in caplog.text
        assert "corpus.jsonl: skipped" not in caplog.text

    def test_author_that_is_not_an_object_skips_the_record(self, tmp_path, caplog):
        corpus = _write_jsonl(tmp_path / "corpus.jsonl", [
            {"paper_id": "p", "authors": ["a", "b"]},
            _paper("q", ["University A, Canada", "University B, France"]),
        ])
        out = tmp_path / "prep"
        assert main(["prepare", "--input", str(corpus), "--output", str(out)]) == 0
        prepared = (out / "prepared.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["paper_id"] for line in prepared] == ["q"]
        assert "skipped 1 malformed or duplicate rows" in caplog.text

    def test_author_indices_survive_prepare(self, tmp_path, warm_cache):
        """MAG numbers authors from 1: ``prepare`` then ``resolve`` keeps the indices ``resolve`` alone gives."""
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("p1\t1\tParis, France\tT\t2001\tai\np1\t3\tOslo, Norway\tT\t2001\tai\n",
                          encoding="utf-8")
        prep = tmp_path / "prep"
        assert main(["prepare", "--input", str(corpus), "--format", "mag-tsv", "--output", str(prep)]) == 0
        indices = []
        for source, fmt in ((corpus, "mag-tsv"), (prep / "prepared.jsonl", "jsonl")):
            out = tmp_path / f"resolved-{fmt}"
            assert main(["resolve", "--input", str(source), "--format", fmt, "--output", str(out),
                         "--cache", str(warm_cache), "--offline"]) == 0
            rows = (out / "enriched.jsonl").read_text(encoding="utf-8").splitlines()
            indices.append([json.loads(line)["author_index"] for line in rows])
        assert indices == [[1, 3], [1, 3]]

    def test_manifest_written_with_digests(self, corpus_20, tmp_path):
        out = tmp_path / "out"
        main(["prepare", "--input", str(corpus_20), "--output", str(out)])
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["subcommand"] == "prepare"
        assert str(corpus_20) in manifest["inputs"]
        assert len(manifest["inputs"][str(corpus_20)]) == 64


class TestResolve:
    def test_breakdown_counts_match_labels(self, tmp_path, warm_cache):
        corpus = _write_jsonl(
            tmp_path / "corpus.jsonl",
            [
                _paper("p1", ["NA", "Stanford, CA, USA", "Paris, France"]),
                _paper("p2", ["Toronto, Canada", "Cambridge, MA", "Edinburgh, Scotland"]),
                _paper("p3", ["McGill University", "zzqx unknown institute"]),
            ],
        )
        out = tmp_path / "out"
        assert main([
            "resolve", "--input", str(corpus), "--output", str(out),
            "--cache", str(warm_cache), "--offline",
        ]) == 0
        breakdown = json.loads((out / "breakdown.json").read_text(encoding="utf-8"))
        counts = {row["label"]: row["count"] for row in breakdown["rows"]}
        assert breakdown["total"] == 8
        assert counts["NA, Null, etc values"] == 1
        assert counts["Country names identified"] == 3
        assert counts["Component parts identified"] == 2
        assert counts["Identified by Wikidata"] == 1
        assert counts["Not identified (Other values)"] == 1

    def test_all_null_fixture(self, tmp_path, warm_cache):
        corpus = _write_jsonl(
            tmp_path / "corpus.jsonl", [_paper("p1", ["NA", "N/A", "null", "-"])]
        )
        out = tmp_path / "out"
        main(["resolve", "--input", str(corpus), "--output", str(out),
              "--cache", str(warm_cache), "--offline"])
        breakdown = json.loads((out / "breakdown.json").read_text(encoding="utf-8"))
        rows = {row["label"]: row for row in breakdown["rows"]}
        assert rows["NA, Null, etc values"]["count"] == 4
        assert rows["NA, Null, etc values"]["pct"] == pytest.approx(100.0)

    def test_report_rows_match_identification_table(self, tmp_path, warm_cache):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway"])])
        out = tmp_path / "out"
        main(["resolve", "--input", str(corpus), "--output", str(out),
              "--cache", str(warm_cache), "--offline"])
        text = (out / "breakdown.txt").read_text(encoding="utf-8")
        for label in (
            "Affiliations",
            "NA, Null, etc values",
            "Country names identified",
            "Component parts identified",
            "Identified by Wikidata",
            "Not identified (Other values)",
        ):
            assert label in text

    def test_offline_requires_cache_file(self, tmp_path):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway"])])
        out = tmp_path / "out"
        rc = main(["resolve", "--input", str(corpus), "--output", str(out),
                   "--cache", str(tmp_path / "missing.jsonl"), "--offline"])
        assert rc == 1
        assert not (out / "enriched.jsonl").exists()

    def test_cache_line_that_is_not_utf8_is_skipped_with_a_warning(self, tmp_path, warm_cache, caplog):
        good = warm_cache.read_bytes().splitlines(keepends=True)
        cache = tmp_path / "mixed.jsonl"
        cache.write_bytes(good[0] + b"\xff\xfe bad\n" + good[1])
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["McGill University", "zzqx unknown institute"])])
        out = tmp_path / "out"
        assert main(["resolve", "--input", str(corpus), "--output", str(out), "--cache", str(cache),
                     "--offline"]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"{cache}:2: skipping bad cache line ('utf-8' codec can't decode")
        rows = [json.loads(line) for line in (out / "enriched.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(row["category"], row["iso2"], row["evidence"]) for row in rows] == [
            ("Wikidata", "CA", "mcgill university"), ("Unidentified", None, "")]

    def test_cache_that_is_not_a_file_is_user_error_before_any_lookup(self, tmp_path, loopback, capsys, caplog):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "McGill University"])])
        out, cache = tmp_path / "out", tmp_path / "cache"
        cache.mkdir()
        rc = main(["resolve", "--input", str(corpus), "--output", str(out), "--cache", str(cache),
                   "--jobs", "1", "--endpoint", loopback.url])
        assert rc == 1
        assert capsys.readouterr().err == f"ircmap: error: cache {cache} is not a file\n"
        assert "Traceback" not in caplog.text
        assert loopback.seen == []
        assert not any(out.iterdir())
        assert not any(cache.iterdir())

    @pytest.mark.parametrize("below", ["c.jsonl", "a/c.jsonl"])
    def test_cache_under_a_regular_file_is_user_error_before_any_lookup(self, tmp_path, loopback, capsys, caplog,
                                                                        below):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "McGill University"])])
        (tmp_path / "afile").write_text("x", encoding="utf-8")
        out, cache = tmp_path / "out", tmp_path / "afile" / below
        rc = main(["resolve", "--input", str(corpus), "--output", str(out), "--cache", str(cache),
                   "--jobs", "1", "--endpoint", loopback.url])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"ircmap: error: cannot use cache {cache}: ")
        assert "Traceback" not in caplog.text
        assert loopback.seen == []
        assert not any(out.iterdir())

    def test_endpoint_that_refuses_every_lookup_stops_the_run(self, tmp_path, loopback, capsys, caplog):
        loopback.default = (403, "")
        names = [f"Quux Institute {word}" for word in ("Alpha", "Bravo", "Delta", "Echo", "Foxtrot", "Golf", "Hotel")]
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", *names])])
        out, cache = tmp_path / "out", tmp_path / "cache.jsonl"
        out.mkdir()
        (out / "earlier.txt").write_text("kept", encoding="utf-8")
        before = _snapshot(out)
        rc = main(["resolve", "--input", str(corpus), "--output", str(out), "--cache", str(cache),
                   "--jobs", "1", "--rate-limit", "1000", "--endpoint", loopback.url])
        assert rc == 1
        assert capsys.readouterr().err == (
            "ircmap: error: the SPARQL endpoint refused 5 lookups in a row, the last with http 403; "
            "the answers so far are cached\n"
        )
        assert "Traceback" not in caplog.text
        assert len(loopback.seen) == 5
        assert _snapshot(out) == before
        assert not cache.exists()

    def test_enriched_schema_and_csv(self, tmp_path, warm_cache):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Lisbon, Portugal"])])
        out = tmp_path / "out"
        main(["resolve", "--input", str(corpus), "--output", str(out),
              "--cache", str(warm_cache), "--offline", "--emit-csv"])
        (line,) = (out / "enriched.jsonl").read_text(encoding="utf-8").splitlines()
        obj = json.loads(line)
        assert set(obj) == {"paper_id", "author_index", "raw", "category", "iso2", "evidence", "ambiguous"}
        assert obj["raw"] == "Lisbon, Portugal"
        assert obj["iso2"] == "PT"
        header = (out / "enriched.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "paper_id,author_index,raw,category,iso2,evidence,ambiguous"
        with open(out / "enriched.csv", newline="", encoding="utf-8") as handle:
            (row,) = csv.DictReader(handle)
        assert row == {key: "" if value is None else str(value) for key, value in obj.items()}

    def test_jobs_do_not_change_output(self, tmp_path, warm_cache):
        corpus = _write_jsonl(
            tmp_path / "c.jsonl",
            [_paper(f"p{i}", [f"Lab {i % 5}, Canada", "McGill University", "NA"]) for i in range(40)],
        )
        out1, out8 = tmp_path / "jobs1", tmp_path / "jobs8"
        main(["resolve", "--input", str(corpus), "--output", str(out1),
              "--cache", str(warm_cache), "--offline", "--jobs", "1"])
        main(["resolve", "--input", str(corpus), "--output", str(out8),
              "--cache", str(warm_cache), "--offline", "--jobs", "8"])
        for name in ("enriched.jsonl", "breakdown.json", "breakdown.csv", "breakdown.txt"):
            assert (out1 / name).read_bytes() == (out8 / name).read_bytes()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_failed_run_leaves_previous_outputs(self, tmp_path, warm_cache, monkeypatch, error):
        # 10,000 distinct strings: the failure comes in the second chunk, after rows were written.
        corpus = _write_jsonl(
            tmp_path / "corpus.jsonl",
            [_paper(f"p{i}", [f"Lab {i}, Canada", f"Unit {i}, Oslo, Norway"]) for i in range(5000)],
        )
        out = tmp_path / "out"
        argv = ["resolve", "--input", str(corpus), "--output", str(out),
                "--cache", str(warm_cache), "--offline", "--emit-csv"]
        assert main(argv) == 0
        before = _snapshot(out)
        match_step1, calls = ircmap.resolver.match_step1, itertools.count(1)

        def failing(n, g):
            if next(calls) == 9000:
                raise error("stopped at the 9000th step-1 match")
            return match_step1(n, g)

        monkeypatch.setattr(ircmap.resolver, "match_step1", failing)
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 1
        assert next(calls) > 9000
        assert _snapshot(out) == before

    @pytest.mark.parametrize(
        "table, line, message",
        [
            ("countries.tsv", "ZZ\tZedland\tzed\textra", "expected 2-3 tab-separated fields, got 4"),
            ("wikidata_labels.tsv", "Zedland", "expected 2-2 tab-separated fields, got 1"),
            ("wikidata_labels.tsv", "Zedland\tZZ", "unknown country code 'ZZ'"),
        ],
        ids=["countries-extra-field", "labels-one-field", "labels-unknown-code"],
    )
    def test_malformed_gazetteer_table_is_user_error(self, tmp_path, warm_cache, data_dir, capsys, caplog,
                                                     table, line, message):
        tables = tmp_path / "tables"
        shutil.copytree(data_dir, tables)
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway"])])
        out = tmp_path / "out"
        argv = ["resolve", "--input", str(corpus), "--output", str(out), "--gazetteer", str(tables),
                "--cache", str(warm_cache), "--offline"]
        assert main(argv) == 0
        before = _snapshot(out)
        with open(tables / table, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ircmap: error: {tables / table}:")
        assert message in err
        assert "Traceback" not in caplog.text
        assert _snapshot(out) == before

    def test_affiliation_neither_text_nor_null_skips_its_record(self, tmp_path, warm_cache, caplog):
        corpus = _write_jsonl(
            tmp_path / "c.jsonl",
            [_paper("p1", ["Paris, France", None]), _paper("p2", ["MIT", ["MIT", "Cambridge, USA"]])],
        )
        out = tmp_path / "out"
        assert main(["resolve", "--input", str(corpus), "--output", str(out),
                     "--cache", str(warm_cache), "--offline"]) == 0
        rows = [json.loads(line) for line in (out / "enriched.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(r["paper_id"], r["raw"], r["category"]) for r in rows] == [
            ("p1", "Paris, France", "CountryName"),
            ("p1", "", "NullLike"),
        ]
        assert "skipped 1 malformed or duplicate rows" in caplog.text

    @pytest.mark.parametrize(
        "field, text",
        [("paper_id", "p\\ud800"), ("title", "T \\udc00"), ("doi", "10.1/\\ud800"),
         ("affiliation", "Inst \\ud800 X"), ("fos", "ai \\ud800")],
    )
    def test_escaped_lone_surrogate_skips_its_record(self, tmp_path, warm_cache, caplog, field, text):
        bad = _paper("bad", ["Paris, France", "Oslo, Norway"])
        if field == "affiliation":
            bad["authors"][0]["affiliation"] = "@"
        else:
            bad[field] = ["@"] if field == "fos" else "@"
        good = _paper("good", ["Smile \U0001F600 Lab, Lund, Sweden", "Oslo, Norway"], title="Smile \U0001F600")
        corpus = tmp_path / "c.jsonl"
        lines = [json.dumps(bad).replace('"@"', f'"{text}"'), json.dumps(good)]  # ASCII: the emoji is an escaped pair
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for stage, extra in (("prepare", []), ("resolve", ["--cache", str(warm_cache), "--offline"])):
            out = tmp_path / stage
            assert main([stage, "--input", str(corpus), "--output", str(out), *extra]) == 0
            assert f"{corpus}: skipped 1 malformed or duplicate rows" in caplog.text
            caplog.clear()
        (record,) = (tmp_path / "prepare" / "prepared.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(record)["title"] == "Smile \U0001F600"
        rows = (tmp_path / "resolve" / "enriched.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(row)["paper_id"] for row in rows] == ["good", "good"]

    def test_duplicate_paper_id_keeps_first_record(self, tmp_path, warm_cache, caplog):
        corpus = _write_jsonl(
            tmp_path / "c.jsonl",
            [
                _paper("p1", ["Paris, France", "Oslo, Norway"], year=2001),
                _paper("p2", ["Rome, Italy", "Tokyo, Japan"], year=2002),
                _paper("p1", ["Lima, Peru", "Quito, Ecuador"], year=2003),
            ],
        )
        out = tmp_path / "out"
        assert main(["resolve", "--input", str(corpus), "--output", str(out),
                     "--cache", str(warm_cache), "--offline"]) == 0
        rows = [json.loads(line) for line in (out / "enriched.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(r["paper_id"], r["author_index"], r["raw"]) for r in rows] == [
            ("p1", 0, "Paris, France"),
            ("p1", 1, "Oslo, Norway"),
            ("p2", 0, "Rome, Italy"),
            ("p2", 1, "Tokyo, Japan"),
        ]
        assert "skipped 1 malformed or duplicate rows" in caplog.text

        papers = []
        for args in ([], ["--records", str(corpus)]):
            stats_out = tmp_path / f"stats{len(args)}"
            assert main(["metrics", "--input", str(out / "enriched.jsonl"), "--output", str(stats_out),
                         *args]) == 0
            papers.append(json.loads((stats_out / "irc_stats.json").read_text(encoding="utf-8"))["total_papers"])
        assert papers == [2, 2]


#: Raw strings that share a cleaned form with their case and punctuation variants.
_BASE_RAWS = ["Paris, France", "McGill University", "NA", "Atlanta, Georgia", "zz nowhere, Lab 7"]
_RAW_VARIANTS = st.builds(
    lambda base, case, wrap: wrap[0] + case(base) + wrap[1],
    st.sampled_from(_BASE_RAWS),
    st.sampled_from([str, str.upper, str.lower, str.swapcase]),
    st.sampled_from([("", ""), ("", "."), ("(", ")"), ("- ", ";")]),
)


@settings(max_examples=20, deadline=None)
@given(papers=st.lists(st.lists(_RAW_VARIANTS, min_size=1, max_size=4), min_size=1, max_size=8))
def test_enriched_raw_is_each_mentions_own_string(papers):
    expected = [raw for raws in papers for raw in raws]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = _write_jsonl(tmp / "c.jsonl", [_paper(f"p{i}", raws) for i, raws in enumerate(papers)])
        cache = tmp / "cache.jsonl"
        cache.write_text("", encoding="utf-8")
        for jobs in ("1", "2"):
            out = tmp / f"jobs{jobs}"
            assert main(["resolve", "--input", str(corpus), "--output", str(out), "--cache", str(cache),
                         "--offline", "--emit-csv", "--jobs", jobs]) == 0
            lines = (out / "enriched.jsonl").read_text(encoding="utf-8").splitlines()
            assert [json.loads(line)["raw"] for line in lines] == expected
            with open(out / "enriched.csv", newline="", encoding="utf-8") as handle:
                assert [row["raw"] for row in csv.DictReader(handle)] == expected


#: Text that JSON must escape or may pass through: quotes, backslashes, control
#: characters, line and paragraph separators, lone surrogates, non-BMP characters.
_JSON_CHARACTERS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00a0", "\u2028", "\u2029",
                     "\ud800", "\udfff", "\U0001f600", "\U0010ffff", "é"]),
    st.characters(blacklist_categories=()),
)
_JSON_TEXT = st.text(_JSON_CHARACTERS, max_size=12)
#: The same without lone surrogates, which a UTF-8 file cannot hold.
_UTF8_TEXT = st.text(_JSON_CHARACTERS.filter(lambda c: not "\ud800" <= c <= "\udfff"), max_size=12)


@st.composite
def _enriched_rows(draw, text=_JSON_TEXT,
                   author_indices=st.one_of(st.integers(), st.sampled_from([-(10**20), 10**20, 2**63]))):
    """Resolutions that share a few outcomes, as a corpus's rows do."""
    outcomes = []
    for category in draw(st.lists(st.sampled_from(Category), min_size=1, max_size=6)):
        identified = category in ircmap.resolver._IDENTIFIED
        outcomes.append((
            category,
            draw(text) if identified else None,
            draw(text.filter(bool) if identified else text),
            draw(st.booleans()),
        ))
    rows = []
    for category, iso2, evidence, ambiguous in draw(st.lists(st.sampled_from(outcomes), min_size=1, max_size=20)):
        rows.append(Resolution(
            paper_id=draw(text),
            author_index=draw(author_indices),
            raw=draw(text),
            category=category,
            iso2=iso2,
            evidence=evidence,
            ambiguous=ambiguous,
        ))
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=_enriched_rows())
def test_enriched_line_equals_json_dumps(rows):
    """Each line is the row's sorted-key ``json.dumps``."""
    for r in rows:
        row = {field: getattr(r, field) for field in ENRICHED_FIELDS}
        row["category"] = r.category.value
        assert _enriched_line(r) == json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(rows=_enriched_rows(text=_UTF8_TEXT, author_indices=st.integers(min_value=0)))
def test_enriched_row_round_trips(tmp_path_factory, rows):
    """``metrics`` reads back each written row's paper and country, and the line parses to the row."""
    path = tmp_path_factory.mktemp("enriched") / "enriched.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for r in rows:
            handle.write(_enriched_line(r))
    assert list(cli_module._read_enriched(path)) == [MentionCountry(r.paper_id, r.iso2) for r in rows]
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    for r, line in zip(rows, lines, strict=True):
        obj = json.loads(line)
        obj["category"] = Category(obj["category"])
        assert Resolution(**obj) == r


class TestMetrics:
    def _resolve_fixture(self, tmp_path, warm_cache):
        corpus = _write_jsonl(
            tmp_path / "corpus.jsonl",
            [
                _paper("p1", ["A, Canada", "B, New Zealand"], year=2001),
                _paper("p2", ["C, USA", "D, USA"], year=2002),
            ],
        )
        out = tmp_path / "resolved"
        main(["resolve", "--input", str(corpus), "--output", str(out),
              "--cache", str(warm_cache), "--offline"])
        return corpus, out / "enriched.jsonl"

    def test_two_paper_hand_computation(self, tmp_path, warm_cache):
        corpus, enriched = self._resolve_fixture(tmp_path, warm_cache)
        out = tmp_path / "stats"
        assert main(["metrics", "--input", str(enriched), "--records", str(corpus),
                     "--output", str(out)]) == 0
        stats = json.loads((out / "irc_stats.json").read_text(encoding="utf-8"))
        assert stats["total_papers"] == 2
        assert stats["international"] == 1
        assert stats["domestic"] == 1
        assert stats["irc_ratio"] == pytest.approx(0.5)
        assert stats["pair_counts"] == {"CA-NZ": 1}
        assert stats["per_year"]["2001"]["international"] == 1

    def test_empty_enriched_file_gives_zero_stats(self, tmp_path):
        enriched = tmp_path / "enriched.jsonl"
        enriched.write_text("", encoding="utf-8")
        out = tmp_path / "stats"
        assert main(["metrics", "--input", str(enriched), "--output", str(out)]) == 0
        stats = json.loads((out / "irc_stats.json").read_text(encoding="utf-8"))
        assert stats["total_papers"] == 0
        assert stats["international"] == 0
        assert stats["irc_ratio"] is None

    def test_unknown_paper_is_user_error(self, tmp_path, warm_cache, capsys, caplog):
        corpus, enriched = self._resolve_fixture(tmp_path, warm_cache)
        ghost = {"paper_id": "ghost", "author_index": 0, "raw": "Oslo, Norway", "category": "CountryName",
                 "iso2": "NO", "evidence": "norway", "ambiguous": False}
        with open(enriched, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(ghost) + "\n")
        out = tmp_path / "stats"
        capsys.readouterr()
        assert main(["metrics", "--input", str(enriched), "--records", str(corpus),
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "ircmap: error: resolution references unknown paper 'ghost'" in err
        assert "internal error" not in err
        assert "Traceback" not in caplog.text
        assert not (out / "irc_stats.json").exists()

    def test_failed_run_leaves_previous_outputs(self, tmp_path, warm_cache):
        corpus, enriched = self._resolve_fixture(tmp_path, warm_cache)
        out = tmp_path / "stats"
        argv = ["metrics", "--input", str(enriched), "--records", str(corpus), "--output", str(out)]
        assert main(argv) == 0
        before = _snapshot(out)
        ghost = {"paper_id": "ghost", "author_index": 0, "raw": "Oslo, Norway", "category": "CountryName",
                 "iso2": "NO", "evidence": "norway", "ambiguous": False}
        with open(enriched, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(ghost) + "\n")
        assert main(argv) == 1
        assert _snapshot(out) == before

    _GOOD_ROW = {"paper_id": "p1", "author_index": 0, "raw": "A, Canada", "category": "CountryName",
                 "iso2": "CA", "evidence": "canada", "ambiguous": False}

    @pytest.mark.parametrize(
        "line",
        [
            '{"paper_id": "p1", "author_index": 1,',
            json.dumps({k: v for k, v in _GOOD_ROW.items() if k != "paper_id"}),
            json.dumps({**_GOOD_ROW, "author_index": "first"}),
            json.dumps({**_GOOD_ROW, "category": "Bogus"}),
            json.dumps({**_GOOD_ROW, "iso2": None}),
            json.dumps({**_GOOD_ROW, "category": "Unidentified", "evidence": ""}),
            json.dumps({**_GOOD_ROW, "category": "NullLike", "evidence": ""}),
            json.dumps({**_GOOD_ROW, "evidence": ""}),
            json.dumps([_GOOD_ROW]),
            json.dumps({**_GOOD_ROW, "author_index": None}),
            json.dumps({**_GOOD_ROW, "paper_id": ["p1"]}),
            json.dumps({**_GOOD_ROW, "paper_id": 1}),
            json.dumps({**_GOOD_ROW, "iso2": ["NO"]}),
            json.dumps({**_GOOD_ROW, "iso2": 5}),
            json.dumps({**_GOOD_ROW, "evidence": 7}),
            json.dumps({**_GOOD_ROW, "evidence": ["canada"]}),
            json.dumps({**_GOOD_ROW, "category": ["CountryName"]}),
            json.dumps({**_GOOD_ROW, "author_index": 1.5}),
            json.dumps({**_GOOD_ROW, "author_index": True}),
            json.dumps({**_GOOD_ROW, "author_index": "1"}),
            json.dumps({**_GOOD_ROW, "author_index": -1}),
            json.dumps({**_GOOD_ROW, "raw": "Caf\u00e9"}, ensure_ascii=False).encode("latin-1"),
        ],
        ids=["bad-json", "no-paper-id", "non-integer-author-index", "unknown-category",
             "identified-without-iso2", "iso2-on-unidentified", "iso2-on-null-like", "empty-evidence",
             "not-an-object", "null-author-index", "list-paper-id", "numeric-paper-id",
             "list-iso2", "numeric-iso2", "numeric-evidence", "list-evidence", "list-category",
             "fractional-author-index", "boolean-author-index", "string-author-index",
             "negative-author-index", "not-utf8"],
    )
    def test_bad_enriched_row_is_user_error(self, tmp_path, capsys, caplog, line):
        enriched = tmp_path / "enriched.jsonl"
        line = line if isinstance(line, bytes) else line.encode("utf-8")
        enriched.write_bytes(json.dumps(self._GOOD_ROW).encode("utf-8") + b"\n" + line + b"\n")
        out = tmp_path / "stats"
        capsys.readouterr()
        assert main(["metrics", "--input", str(enriched), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ircmap: error: {enriched}:2: bad enriched row")
        assert "Traceback" not in caplog.text
        assert not any(out.iterdir())

    def test_null_iso2_and_missing_evidence_accepted(self, tmp_path):
        unidentified = {"paper_id": "p1", "author_index": 1, "raw": "Somewhere", "category": "Unidentified",
                        "iso2": None}
        null_like = {"paper_id": "p1", "author_index": 2, "raw": "NA", "category": "NullLike"}
        enriched = _write_jsonl(tmp_path / "enriched.jsonl", [self._GOOD_ROW, unidentified, null_like])
        out = tmp_path / "stats"
        assert main(["metrics", "--input", str(enriched), "--output", str(out)]) == 0
        stats = json.loads((out / "irc_stats.json").read_text(encoding="utf-8"))
        assert (stats["total_papers"], stats["domestic"]) == (1, 1)

    @pytest.mark.parametrize(
        "ghost, message",
        [
            (False, "resolution for paper 'p1' is out of record order"),
            (True, "resolution references unknown paper 'ghost'"),
        ],
        ids=["out-of-order", "unknown-paper"],
    )
    def test_rows_disagreeing_with_records_are_user_errors(self, tmp_path, warm_cache, capsys, caplog,
                                                           ghost, message):
        corpus, enriched = self._resolve_fixture(tmp_path, warm_cache)
        out = tmp_path / "stats"
        argv = ["metrics", "--input", str(enriched), "--records", str(corpus), "--output", str(out)]
        assert main(argv) == 0
        before = _snapshot(out)
        rows = [json.loads(line) for line in enriched.read_text(encoding="utf-8").splitlines()]
        if ghost:
            rows.append({**rows[0], "paper_id": "ghost"})
        else:
            rows.append(rows.pop(0))  # p1's first row after p2's rows
        _write_jsonl(enriched, rows)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"ircmap: error: {message}\n"
        assert "Traceback" not in caplog.text
        assert _snapshot(out) == before

    def test_without_records_non_contiguous_rows_are_user_error(self, tmp_path, warm_cache, capsys, caplog):
        corpus, enriched = self._resolve_fixture(tmp_path, warm_cache)
        out = tmp_path / "stats"
        argv = ["metrics", "--input", str(enriched), "--output", str(out)]
        assert main(argv) == 0
        before = _snapshot(out)
        rows = [json.loads(line) for line in enriched.read_text(encoding="utf-8").splitlines()]
        rows.append(rows.pop(0))  # p1's first row after p2's rows
        _write_jsonl(enriched, rows)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "ircmap: error: resolution for paper 'p1' is out of record order\n"
        assert "Traceback" not in caplog.text
        assert _snapshot(out) == before

    def test_per_year_csv_sums_to_global(self, tmp_path, warm_cache):
        corpus, enriched = self._resolve_fixture(tmp_path, warm_cache)
        out = tmp_path / "stats"
        main(["metrics", "--input", str(enriched), "--records", str(corpus), "--output", str(out)])
        import csv

        with open(out / "irc_per_year.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        stats = json.loads((out / "irc_stats.json").read_text(encoding="utf-8"))
        assert sum(int(r["total"]) for r in rows) == stats["total_papers"]
        assert sum(int(r["international"]) for r in rows) == stats["international"]


class TestEnvironment:
    def test_endpoint_env_var_respected(self, tmp_path, warm_cache, monkeypatch):
        monkeypatch.setenv("IRC_SPARQL_ENDPOINT", "https://example.org/sparql")
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway"])])
        out = tmp_path / "out"
        main(["resolve", "--input", str(corpus), "--output", str(out),
              "--cache", str(warm_cache), "--offline"])
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["endpoint"] == "https://example.org/sparql"

    @pytest.mark.parametrize(
        "endpoint, via_env",
        [
            ("query.wikidata.org/sparql", False),
            ("query.wikidata.org/sparql", True),
            ("ftp://query.wikidata.org/sparql", False),
            ("https:///sparql", False),
            ("http://127.0.0.1:abc/sparql", False),
            ("http://127.0.0.1:9/spa rql", False),
            ("http://127.0.0.1:9/x\x01y", True),
            ("http://127.0.0.1:9/sparql\n", False),
            (" http://127.0.0.1:9/sparql", True),
        ],
    )
    def test_unusable_endpoint_rejected_before_any_lookup(self, tmp_path, monkeypatch, capsys,
                                                           endpoint, via_env):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "McGill University"])])
        out, cache = tmp_path / "out", tmp_path / "cache.jsonl"
        argv = ["resolve", "--input", str(corpus), "--output", str(out), "--cache", str(cache)]
        if via_env:
            monkeypatch.setenv("IRC_SPARQL_ENDPOINT", endpoint)
        else:
            argv += ["--endpoint", endpoint]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("ircmap: error: SPARQL endpoint must be")
        assert not any(out.iterdir())
        assert not cache.exists()

    def test_offline_replay_does_not_depend_on_the_age_of_an_error_entry(self, tmp_path):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "McGill University"])])
        enriched = []
        for hours in (1, 30):
            cache, out = tmp_path / f"cache{hours}.jsonl", tmp_path / f"out{hours}"
            at = datetime.now(timezone.utc) - timedelta(hours=hours)
            error = CacheEntry("mcgill university", (), CacheStatus.ERROR, at.isoformat(), "http 503")
            cache.write_text(error.to_json() + "\n", encoding="utf-8")  # as older versions wrote it
            assert main(["resolve", "--input", str(corpus), "--output", str(out),
                         "--cache", str(cache), "--offline"]) == 0
            enriched.append((out / "enriched.jsonl").read_bytes())
        assert enriched[0] == enriched[1]
        assert json.loads(enriched[0].splitlines()[1])["evidence"] == "offline-miss"

    def test_cache_dir_env_var_used_by_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IRC_CACHE_DIR", str(tmp_path / "cachedir"))
        from ircmap.cli import default_cache_path

        assert default_cache_path() == tmp_path / "cachedir" / "wikidata_cache.jsonl"

    def test_user_agent_env_var(self, monkeypatch):
        from ircmap.wikidata import default_user_agent

        monkeypatch.setenv("IRC_USER_AGENT", "my-pipeline/2.0 (me@example.org)")
        assert default_user_agent() == "my-pipeline/2.0 (me@example.org)"
        monkeypatch.delenv("IRC_USER_AGENT")
        assert "ircmap/" in default_user_agent()

    def test_resolve_and_metrics_write_manifests(self, tmp_path, warm_cache):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "Lund, Sweden"])])
        resolved = tmp_path / "resolved"
        main(["resolve", "--input", str(corpus), "--output", str(resolved),
              "--cache", str(warm_cache), "--offline"])
        manifest = json.loads((resolved / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["counts"]["mentions"] == 2
        stats_out = tmp_path / "stats"
        main(["metrics", "--input", str(resolved / "enriched.jsonl"),
              "--records", str(corpus), "--output", str(stats_out)])
        manifest = json.loads((stats_out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["counts"]["papers"] == 1


class TestReport:
    def test_prints_available_tables(self, tmp_path, warm_cache, capsys):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "Lund, Sweden"])])
        out = tmp_path / "out"
        main(["resolve", "--input", str(corpus), "--output", str(out),
              "--cache", str(warm_cache), "--offline"])
        capsys.readouterr()
        assert main(["report", "--input", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "breakdown.txt" in printed
        assert "Affiliations" in printed

    def test_missing_artifacts_is_error(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["report", "--input", str(empty)]) == 1

    def test_directory_without_manifest_is_error(self, tmp_path, capsys, caplog):
        """A stray report file is not a completed stage's output."""
        stray = tmp_path / "stray"
        stray.mkdir()
        (stray / "breakdown.txt").write_text("Affiliations  3\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--input", str(stray)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"ircmap: error: no manifest.json under {stray}")
        assert captured.out == ""
        assert "Traceback" not in caplog.text


    def test_prints_only_the_reports_the_manifest_lists(self, tmp_path, warm_cache, capsys):
        """``prepare`` after ``resolve`` in one directory: ``breakdown.txt`` is stale and not printed."""
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "Lund, Sweden"])])
        out = tmp_path / "out"
        assert main(["resolve", "--input", str(corpus), "--output", str(out),
                     "--cache", str(warm_cache), "--offline"]) == 0
        assert main(["prepare", "--input", str(corpus), "--output", str(out)]) == 0
        assert (out / "breakdown.txt").is_file()
        capsys.readouterr()
        assert main(["report", "--input", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("== prep_report.txt\n")
        assert "breakdown.txt" not in printed
        assert "Affiliations" not in printed

    def test_listed_report_missing_is_error(self, tmp_path, warm_cache, capsys, caplog):
        corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "Lund, Sweden"])])
        out = tmp_path / "out"
        assert main(["resolve", "--input", str(corpus), "--output", str(out),
                     "--cache", str(warm_cache), "--offline"]) == 0
        (out / "breakdown.txt").unlink()
        capsys.readouterr()
        assert main(["report", "--input", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"ircmap: error: a report that {out / 'manifest.json'} lists cannot be read")
        assert captured.out == ""
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("manifest", ["{not json", "[]", '{"tool": "ircmap"}', '{"outputs": "breakdown.txt"}',
                                          '{"outputs": [1]}'],
                             ids=["not-json", "not-an-object", "no-outputs", "outputs-not-a-list",
                                  "output-not-a-name"])
    def test_manifest_without_outputs_list_is_error(self, tmp_path, capsys, caplog, manifest):
        directory = tmp_path / "run"
        directory.mkdir()
        (directory / "breakdown.txt").write_text("Affiliations  3\n", encoding="utf-8")
        (directory / "manifest.json").write_text(manifest, encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--input", str(directory)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"ircmap: error: {directory / 'manifest.json'} is not a manifest: no list of outputs\n"
        assert captured.out == ""
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("name", ["../secret.txt", "/secret.txt", "..", "."],
                             ids=["parent", "absolute", "dot-dot", "dot"])
    def test_output_outside_the_directory_is_error(self, tmp_path, capsys, caplog, name):
        """``report`` reads only the plain file names that ``ircmap`` writes, never a file elsewhere."""
        directory = tmp_path / "run"
        directory.mkdir()
        (tmp_path / "secret.txt").write_text("not a report\n", encoding="utf-8")
        if name == "/secret.txt":
            name = str(tmp_path / "secret.txt")
        (directory / "breakdown.txt").write_text("Affiliations  3\n", encoding="utf-8")
        (directory / "manifest.json").write_text(json.dumps({"outputs": ["breakdown.txt", name]}), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--input", str(directory)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"ircmap: error: {directory / 'manifest.json'} is not a manifest: "
                                f"output {name!r} is not a file name in {directory}\n")
        assert captured.out == ""
        assert "Traceback" not in caplog.text


def test_offline_pipeline_never_imports_an_http_client(tmp_path, warm_cache):
    """prepare, offline resolve and metrics leave the HTTP modules unloaded (start-up time, RSS)."""
    corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "McGill University"])])
    script = """
import sys
import ircmap.cli
corpus, cache, work = sys.argv[1:]
for argv in (
    ["prepare", "--input", corpus, "--output", work + "/prep"],
    ["resolve", "--input", work + "/prep/prepared.jsonl", "--output", work + "/res",
     "--cache", cache, "--offline"],
    ["metrics", "--input", work + "/res/enriched.jsonl", "--output", work + "/met"],
):
    assert ircmap.cli.main(argv) == 0, argv
print(sorted(m for m in ("urllib.request", "http.client", "requests") if m in sys.modules))
"""
    done = subprocess.run(
        [sys.executable, "-c", script, str(corpus), str(warm_cache), str(tmp_path)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_manifest_lists_exactly_the_stage_outputs(corpus_20, tmp_path, warm_cache):
    prep, resolved, stats = tmp_path / "prep", tmp_path / "resolved", tmp_path / "stats"
    prepared = str(prep / "prepared.jsonl")
    assert main(["prepare", "--input", str(corpus_20), "--output", str(prep)]) == 0
    assert main(["resolve", "--input", prepared, "--output", str(resolved),
                 "--cache", str(warm_cache), "--offline", "--emit-csv"]) == 0
    assert main(["metrics", "--input", str(resolved / "enriched.jsonl"), "--records", prepared,
                 "--output", str(stats)]) == 0
    for out in (prep, resolved, stats):
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


def test_manifest_counts_equal_the_reports(corpus_20, tmp_path, warm_cache):
    prep, resolved, stats = tmp_path / "prep", tmp_path / "resolved", tmp_path / "stats"
    prepared = str(prep / "prepared.jsonl")
    assert main(["prepare", "--input", str(corpus_20), "--output", str(prep), "--top-k-fos", "1"]) == 0
    assert main(["resolve", "--input", prepared, "--output", str(resolved),
                 "--cache", str(warm_cache), "--offline"]) == 0
    assert main(["metrics", "--input", str(resolved / "enriched.jsonl"), "--records", prepared,
                 "--output", str(stats)]) == 0

    def read(out, name):
        return json.loads((out / name).read_text(encoding="utf-8"))

    report = read(prep, "prep_report.json")
    assert read(prep, "manifest.json")["counts"] == {
        "total_works": report["Total works"], "prepared": report["Unique, co-authored, CS works"],
        **{k: v for k, v in report["detail"].items() if k.endswith("dropped") or k == "no_author_data"},
    }
    breakdown = read(resolved, "breakdown.json")
    counts = read(resolved, "manifest.json")["counts"]
    assert counts.pop("mentions") == breakdown["total"]
    assert counts.pop("cache_entries") == 2
    assert counts == {row["category"]: row["count"] for row in breakdown["rows"]}
    irc = read(stats, "irc_stats.json")
    assert read(stats, "manifest.json")["counts"] == {
        "papers": irc["total_papers"], "international": irc["international"],
        "domestic": irc["domestic"], "unmeasurable": irc["unmeasurable"],
    }


def _resolve_manifest(corpus, out, cache, *extra) -> dict:
    assert main(["resolve", "--input", str(corpus), "--output", str(out), "--cache", str(cache),
                 "--offline", *extra]) == 0
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("extended", [False, True])
def test_resolve_manifest_digests_every_table_it_read(corpus_20, tmp_path, warm_cache, extended):
    tables = tmp_path / "tables"
    shutil.copytree(default_data_dir(), tables)
    flags = ["--gazetteer", str(tables)] + (["--extended-parts"] if extended else [])
    manifest = _resolve_manifest(corpus_20, tmp_path / "a", warm_cache, *flags)
    names = ["countries.tsv", "component_parts.tsv", "ambiguity.tsv", "wikidata_labels.tsv"]
    names += ["component_parts_extension.tsv"] if extended else []
    assert set(manifest["inputs"]) == {str(corpus_20)} | {str(tables / name) for name in names}
    assert manifest["counts"]["cache_entries"] == 2

    edited = tables / "ambiguity.tsv"
    edited.write_text(edited.read_text(encoding="utf-8") + "# an edit\n", encoding="utf-8")
    again = _resolve_manifest(corpus_20, tmp_path / "b", warm_cache, *flags)
    changed = {k for k, digest in again["inputs"].items() if manifest["inputs"][k] != digest}
    assert changed == {str(edited)}


def test_manifest_config_echoes_only_the_stage_options(corpus_20, tmp_path, warm_cache):
    prep, resolved, stats = tmp_path / "prep", tmp_path / "resolved", tmp_path / "stats"
    prepared = str(prep / "prepared.jsonl")
    assert main(["prepare", "--input", str(corpus_20), "--output", str(prep), "--top-k-fos", "3"]) == 0
    assert main(["resolve", "--input", prepared, "--output", str(resolved),
                 "--cache", str(warm_cache), "--offline", "--jobs", "2"]) == 0
    assert main(["metrics", "--input", str(resolved / "enriched.jsonl"), "--records", prepared,
                 "--output", str(stats)]) == 0
    common = {"subcommand", "input", "output"}
    expected = {
        prep: common | {"format", "top_k_fos", "overlap", "overlap_format", "dedup_against", "dedup_format"},
        resolved: common | {"format", "gazetteer", "extended_parts", "cache", "endpoint", "offline",
                            "rate_limit", "jobs", "emit_csv"},
        stats: common | {"records", "records_format"},
    }
    for out, keys in expected.items():
        config = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
        assert set(config) == keys
    config = json.loads((resolved / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert (config["subcommand"], config["jobs"], config["offline"]) == ("resolve", 2, True)


@pytest.mark.parametrize(
    "option, value",
    [
        ("--top-k-fos", "0"),
        ("--top-k-fos", "-3"),
        ("--rate-limit", "0"),
        ("--rate-limit", "-1"),
        ("--rate-limit", "nan"),
        ("--rate-limit", "inf"),
        ("--jobs", "0"),
    ],
)
def test_numeric_option_out_of_range_is_usage_error(corpus_20, tmp_path, warm_cache, capsys, option, value):
    """Exit 2 from argparse before the stage starts: no ``--output`` is created."""
    out = tmp_path / "out"
    if option == "--top-k-fos":
        argv = ["prepare", "--input", str(corpus_20), "--output", str(out)]
    else:
        argv = ["resolve", "--input", str(corpus_20), "--output", str(out),
                "--cache", str(warm_cache), "--offline"]
    with pytest.raises(SystemExit) as exited:
        main(argv + [option, value])
    assert exited.value.code == 2
    assert f"{option}: expected a positive finite" in capsys.readouterr().err
    assert not out.exists()


def test_leftover_staging_directory_is_user_error(corpus_20, tmp_path, capsys, caplog):
    """A killed run's staging directory under this pid: a clean error, and ``--output`` untouched."""
    out = tmp_path / "out"
    argv = ["prepare", "--input", str(corpus_20), "--output", str(out)]
    assert main(argv) == 0
    leftover = out / f".ircmap-{os.getpid()}.tmp"
    leftover.mkdir()
    (leftover / "prepared.jsonl").write_text("partial", encoding="utf-8")
    before = _snapshot(out)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ircmap: error: staging directory {leftover} already exists")
    assert "killed run" in err and "can be deleted" in err
    assert "Traceback" not in caplog.text
    assert _snapshot(out) == before
    assert (leftover / "prepared.jsonl").read_text(encoding="utf-8") == "partial"


@pytest.mark.parametrize("stage", ["prepare", "metrics"])
def test_output_naming_a_file_is_user_error(corpus_20, tmp_path, capsys, caplog, stage):
    """``--output`` naming an existing regular file: a clean error, and the file untouched."""
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    if stage == "prepare":
        argv = ["prepare", "--input", str(corpus_20), "--output", str(taken)]
    else:
        enriched = tmp_path / "enriched.jsonl"
        enriched.write_text("", encoding="utf-8")
        argv = ["metrics", "--input", str(enriched), "--output", str(taken)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"ircmap: error: --output {taken} is not a directory\n"
    assert "Traceback" not in caplog.text
    assert taken.read_bytes() == b"not a directory\n"


def test_killed_resolve_commits_nothing(tmp_path, loopback):
    """SIGKILL while a lookup is in flight: no enriched.jsonl and no manifest appear."""
    loopback.hold = True
    corpus = _write_jsonl(tmp_path / "c.jsonl", [_paper("p", ["Oslo, Norway", "McGill University"])])
    out = tmp_path / "out"
    argv = ["resolve", "--input", str(corpus), "--output", str(out), "--cache", str(tmp_path / "cache.jsonl"),
            "--endpoint", loopback.url, "--jobs", "1"]
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys, ircmap.cli; sys.exit(ircmap.cli.main(sys.argv[1:]))", *argv],
        env=_src_env(no_proxy="127.0.0.1"), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        assert loopback.arrived.wait(60), "resolve never sent its lookup"
        proc.kill()
        proc.wait(30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(30)
    assert proc.returncode == -signal.SIGKILL
    assert not (out / "enriched.jsonl").exists()
    assert not (out / "manifest.json").exists()


_PEAK_RSS_CHILD = """
import json, os, sys
child = [sys.executable, "-c", "import sys, ircmap.cli; sys.exit(ircmap.cli.main(sys.argv[1:]))", *sys.argv[1:]]
pid = os.posix_spawn(sys.executable, child, os.environ)
_, status, usage = os.wait4(pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]))
"""


def _metrics_peak_rss_mib(work: Path, papers: int) -> float:
    """Peak RSS of ``metrics --records`` on ``papers`` synthetic papers of three mentions each.

    A small helper process spawns the CLI and reads its peak from ``wait4``:
    on Linux a child's peak is at least the RSS of the process that started
    it, and the test process is large.
    """
    countries = ["CA", "NZ", "FR", "DE", None]
    with open(work / "records.jsonl", "w", encoding="utf-8") as records, \
            open(work / "enriched.jsonl", "w", encoding="utf-8") as enriched:
        for i in range(papers):
            pid = f"paper-{i:07d}"
            records.write(json.dumps(_paper(pid, [f"Lab {i} {j}, Some University, Canada" for j in range(3)],
                                            year=1990 + i % 30, title=f"On problem {i}")) + "\n")
            for j in range(3):
                iso2 = countries[(i + j) % len(countries)]
                enriched.write(_enriched_line(Resolution(
                    pid, j, "x", Category.COUNTRY_NAME if iso2 else Category.UNIDENTIFIED,
                    iso2, "x" if iso2 else "", False)))
    argv = ["metrics", "--input", str(work / "enriched.jsonl"), "--records", str(work / "records.jsonl"),
            "--output", str(work / "out")]
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv], capture_output=True, text=True,
                          env=_src_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    code, peak_kib = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    return peak_kib / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_metrics_peak_rss_does_not_grow_with_the_corpus(tmp_path):
    """10x the papers: ``metrics --records`` streams, so its peak RSS grows by a few MiB at most.

    What still grows is two sets of paper ids, the reader's and the merge-join's: about
    5 MiB from 2,000 to 20,000 papers.  Holding the records and the papers in memory made
    it grow by about 2 KiB per paper, 35 MiB over the same step.
    """
    small, large = tmp_path / "small", tmp_path / "large"
    small.mkdir()
    large.mkdir()
    growth = _metrics_peak_rss_mib(large, 20_000) - _metrics_peak_rss_mib(small, 2_000)
    assert growth < 12.0, f"peak RSS grew by {growth:.1f} MiB"
