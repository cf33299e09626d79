"""The benchmark's layer tracer wraps program attributes by name; each name must still exist."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_traced_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_DIR / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)  # not registered in sys.modules
    spec.loader.exec_module(tracing)
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
