"""Golden outputs of the whole pipeline on a corpus built from the labeled fixture.

``prepare`` (with ``--top-k-fos`` and ``--dedup-against``), ``resolve
--offline --emit-csv``, ``metrics --records`` and ``report`` run through
``cli.main``.  Every report file, the ``report`` output and each manifest's
``counts`` and ``outputs`` must equal ``tests/fixtures/golden/``; the large
files (``prepared.jsonl``, ``enriched.jsonl``, ``enriched.csv``) are compared
by their sha256 digests.  A change that keeps the pipeline's bytes passes this
unchanged.  After a change that alters the outputs on purpose, rewrite the
fixture with ``PYTHONPATH=src python tests/test_golden.py`` and review its diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from ircmap.cli import main
from ircmap.gazetteer import build_gazetteer, default_data_dir
from ircmap.ingest import AffiliationMention
from ircmap.resolver import Category, resolve
from ircmap.wikidata import CacheStore, LabelMap, WikidataClient

from support import FIXTURES_DIR, ReplayTransport, read_labeled_fixture

GOLDEN_DIR = FIXTURES_DIR / "golden"
STAGES = ("prepare", "resolve", "metrics")
DIGESTED = {"prepared.jsonl", "enriched.jsonl", "enriched.csv"}


def _paper(pid, raws, year, fos=("ai",), title=None, doi=None):
    return {
        "paper_id": pid,
        "title": title or f"Study number {pid}",
        "year": year,
        "fos": list(fos),
        "doi": doi,
        "authors": [{"affiliation": raw} for raw in raws],
    }


def _corpora() -> tuple[list[dict], list[dict]]:
    """The primary corpus and the one ``--dedup-against`` reads.

    Three labeled strings per paper, in file order, so every category is
    resolved.  Besides, one paper of every seven is outside the top FOS term,
    two are in the second corpus (by title and year, and by DOI), and there
    are two single-author papers, one with no authors and one with no year.
    """
    raws = [raw for raw, _, _ in read_labeled_fixture()]
    papers = []
    for i in range(0, len(raws) - 2, 3):
        n = i // 3
        fos = ("biology",) if n % 7 == 6 else ("ai", "ml") if n % 2 else ("ai",)
        papers.append(_paper(f"p{n:03d}", raws[i:i + 3], 2010 + n % 6, fos, doi=f"10.1000/{n}"))
    papers[4]["year"] = None
    papers.append(_paper("solo1", raws[-2:-1], 2012))
    papers.append(_paper("solo2", raws[-1:], 2013))
    papers.append(_paper("nobody", [], 2014))
    secondary = [
        _paper("other1", ["Elsewhere"], papers[10]["year"], title=papers[10]["title"].upper()),
        _paper("other2", ["Elsewhere"], 1999, title="Unrelated", doi="https://doi.org/" + papers[17]["doi"]),
    ]
    return papers, secondary


def _fill_cache(path: Path) -> None:
    """Resolve every labeled string online against the recorded responses."""
    data_dir = default_data_dir()
    gazetteer = build_gazetteer(data_dir)
    client = WikidataClient(
        cache=CacheStore(path),
        label_map=LabelMap.from_gazetteer(gazetteer, data_dir / "wikidata_labels.tsv"),
        transport=ReplayTransport(),
        rate_limit=0.0, max_attempts=1, sleep=lambda seconds: None,
    )
    for i, (raw, _, _) in enumerate(read_labeled_fixture()):
        resolve(AffiliationMention("p", i, raw), gazetteer, client)


def _write_jsonl(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path


def run_pipeline(work: Path) -> dict:
    """Run the four commands under ``work``; what the golden fixture holds.

    Returns ``{"files": {"<stage>/<name>": bytes}, "manifests": {...}}``,
    where the manifests part has each stage's ``counts``, ``outputs`` and the
    digests of its large files.
    """
    papers, secondary = _corpora()
    corpus = _write_jsonl(work / "corpus.jsonl", papers)
    other = _write_jsonl(work / "other.jsonl", secondary)
    cache = work / "cache.jsonl"
    _fill_cache(cache)
    dirs = {stage: work / stage for stage in STAGES}
    prepared = str(dirs["prepare"] / "prepared.jsonl")
    commands = {
        "prepare": ["--input", str(corpus), "--top-k-fos", "1", "--dedup-against", str(other)],
        "resolve": ["--input", prepared, "--cache", str(cache), "--offline", "--emit-csv", "--jobs", "2"],
        "metrics": ["--input", str(dirs["resolve"] / "enriched.jsonl"), "--records", prepared],
    }
    files, manifests = {}, {}
    for stage in STAGES:
        assert main([stage, *commands[stage], "--output", str(dirs[stage])]) == 0
        manifest = json.loads((dirs[stage] / "manifest.json").read_text(encoding="utf-8"))
        digests = {}
        for name in manifest["outputs"]:
            data = (dirs[stage] / name).read_bytes()
            if name in DIGESTED:
                digests[name] = hashlib.sha256(data).hexdigest()
            else:
                files[f"{stage}/{name}"] = data
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(["report", "--input", str(dirs[stage])]) == 0
        files[f"{stage}/report_output.txt"] = printed.getvalue().encode("utf-8")
        manifests[stage] = {"counts": manifest["counts"], "outputs": manifest["outputs"], "sha256": digests}
    return {"files": files, "manifests": manifests}


def _golden_manifests() -> dict:
    return json.loads((GOLDEN_DIR / "manifests.json").read_text(encoding="utf-8"))


def test_corpus_exercises_every_category_and_prep_counter():
    counts = {stage: m["counts"] for stage, m in _golden_manifests().items()}
    assert all(counts["resolve"][c.value] > 0 for c in Category)
    prep = counts["prepare"]
    assert all(prep[k] > 0 for k in ("fos_dropped", "dedup_dropped", "single_author_dropped", "no_author_data"))
    per_year = json.loads((GOLDEN_DIR / "metrics" / "irc_stats.json").read_text(encoding="utf-8"))["per_year"]
    assert "unknown" in per_year


def test_outputs_equal_the_golden_fixture(tmp_path):
    got = run_pipeline(tmp_path)
    assert got["manifests"] == _golden_manifests()
    golden_files = {
        path.relative_to(GOLDEN_DIR).as_posix(): path.read_bytes()
        for path in GOLDEN_DIR.glob("*/*")
    }
    assert sorted(got["files"]) == sorted(golden_files)
    for name, data in got["files"].items():
        assert data == golden_files[name], f"{name} differs from the golden fixture"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = run_pipeline(Path(tmp))
    for name, data in result["files"].items():
        (GOLDEN_DIR / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN_DIR / name).write_bytes(data)
    (GOLDEN_DIR / "manifests.json").write_text(
        json.dumps(result["manifests"], indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(result['files']) + 1} files under {GOLDEN_DIR}", file=sys.stderr)
