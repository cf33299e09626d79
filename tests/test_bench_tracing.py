"""The benchmark's layer tracer wraps program attributes by name; each name must still exist."""

from __future__ import annotations

import importlib.util
import logging
import sys
from pathlib import Path

import ircmap.cli as cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_DIR / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)  # not registered in sys.modules
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_finds_every_traced_boundary(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    targets = tracing._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert missing == []
    originals = [vars(owner)[attr] for owner, attr, *_ in targets]
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr, *_), original in zip(targets, originals))
    finally:
        uninstall()
    assert all(vars(owner)[attr] is original for (owner, attr, *_), original in zip(targets, originals))


def test_traced_reader_still_counts_skipped_rows(monkeypatch, tmp_path, caplog):
    """Under the tracer, ``cli.parse_records`` returns a timing proxy; the CLI reads ``rows_skipped`` through it."""
    tracing = _load_tracing(monkeypatch)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"paper_id": "p1", "authors": []}\nnot json\n', encoding="utf-8")
    uninstall = tracing.install(tracing.Tracer())
    try:
        reader = cli.parse_records(corpus, "jsonl")
        assert isinstance(reader, tracing._TimedIter)
        assert [record.paper_id for record in reader] == ["p1"]
        assert reader.rows_skipped == 1
        with caplog.at_level(logging.WARNING, logger="ircmap"):
            cli._warn_skipped(corpus, reader)
    finally:
        uninstall()
    assert f"{corpus}: skipped 1 malformed or duplicate rows" in caplog.text
