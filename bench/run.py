"""ircmap pipeline benchmark: prepare -> resolve -> metrics on seeded corpora.

Usage (from the repository root)::

    python3 bench/run.py --workload mixed-offline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --list-metrics

Each run generates the workload's corpus from ``--seed``, then runs the real
CLI stages as child processes for ``--seconds`` seconds and reports medians
over the iterations (``--trace 0``), or runs the stages in one process with
every layer boundary traced and reports per-layer metrics (``--trace 1``).
Every run's outputs are checked against the labels the corpus was built
with.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with ``attempted`` and
``failed`` counted in mentions.  The exit code is 1 if any check failed.

Nothing leaves the machine: online lookups go to a stub SPARQL endpoint on
127.0.0.1 served by this process, and the CLI child processes run without
proxy settings.  Closed loop: the only concurrency is the CLI's ``--jobs 2``
lookups against that stub.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import LAYERS, digest_labels

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent

JOBS = 2
STUB_LATENCY_S = 0.005
RATE_LIMIT = 1000.0  # above what the stub can serve at JOBS workers: runs, never binds
SETUP_REPEATS = 15


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def list_metrics() -> int:
    """Print every metric the benchmark reports, by name, with its unit."""
    spec = _declared()
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            print(f"{group:10s}  {metric['name']:52s}  {metric['unit']:6s}  {metric['better']}")
    return 0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cached bytecode, as an installed package has
    env.update(
        PYTHONPATH=str(SRC),
        NO_PROXY="127.0.0.1,localhost",
        no_proxy="127.0.0.1,localhost",
        IRC_CACHE_DIR=str(WORK / "default_cache"),
        IRC_USER_AGENT="ircmap-bench/1 (loopback stub)",
    )
    return env


class Spawner:
    """Runs children through ``spawner.py`` so their peak RSS is their own."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB, and exit code of one child process."""
        self._proc.stdin.write(json.dumps([argv, str(log), child_env()]) + "\n")
        self._proc.stdin.flush()
        wall, rss_kib, code = json.loads(self._proc.stdout.readline())
        if code != 0:
            print(f"{' '.join(argv[1:4])}: exit {code}\n{log.read_text()[-2000:]}", file=sys.stderr)
        return wall, rss_kib / 1024.0, code

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)


class Pipeline:
    """Paths and CLI argument lists of one workload's pipeline."""

    def __init__(self, spec, files: dict[str, Path], endpoint: str, spawner: Spawner):
        self.spec = spec
        self.files = files
        self.endpoint = endpoint
        self.spawner = spawner

    def cache_for(self, tag: str) -> Path:
        """Warm cache for offline runs; a fresh, absent cache file online."""
        if self.spec.offline:
            return self.files["cache"]
        path = WORK / f"cache-{tag}.jsonl"
        path.unlink(missing_ok=True)
        return path

    def resolve_flags(self, cache: Path) -> list[str]:
        flags = ["--cache", str(cache), "--endpoint", self.endpoint, "--jobs", str(JOBS),
                 "--rate-limit", str(RATE_LIMIT)]
        return flags + (["--offline"] if self.spec.offline else [])

    def stages(self, tag: str) -> dict[str, list[str]]:
        out = WORK / tag
        shutil.rmtree(out, ignore_errors=True)
        prepare = ["prepare", "--input", str(self.files["corpus"]), "--output", str(out / "prep")]
        if self.spec.top_k_fos:
            prepare += ["--top-k-fos", str(self.spec.top_k_fos)]
        if "secondary" in self.files:
            prepare += ["--dedup-against", str(self.files["secondary"])]
        prepared = str(out / "prep" / "prepared.jsonl")
        return {
            "prepare": prepare,
            "resolve": ["resolve", "--input", prepared, "--output", str(out / "resolve")]
            + self.resolve_flags(self.cache_for(tag)),
            "metrics": ["metrics", "--input", str(out / "resolve" / "enriched.jsonl"),
                        "--records", prepared, "--output", str(out / "metrics")],
        }

    def dirs(self, tag: str) -> tuple[Path, Path, Path]:
        return WORK / tag / "prep", WORK / tag / "resolve", WORK / tag / "metrics"


def measure_setup(pipeline: Pipeline) -> float:
    """Median wall time of ``ircmap resolve`` on a one-record corpus."""
    one = WORK / "one_record.jsonl"
    one.write_text(json.dumps({"paper_id": "setup", "authors": [
        {"affiliation": "Setup Institute, France"}, {"affiliation": "NA"}]}) + "\n")
    times = []
    for repeat in range(SETUP_REPEATS + 1):
        argv = [sys.executable, "-m", "ircmap.cli", "resolve", "--input", str(one),
                "--output", str(WORK / "setup")] + pipeline.resolve_flags(pipeline.cache_for("setup"))
        wall, _, code = pipeline.spawner.run(argv, WORK / "setup.log")
        if code != 0:
            raise StageFailed(f"set-up run exited with {code}")
        if repeat:  # the first run only warms the file and bytecode caches
            times.append(wall)
    return statistics.median(times)


class StageFailed(Exception):
    """A pipeline stage exited non-zero: every mention of the run fails."""


def run_cli_pipeline(pipeline: Pipeline, tag: str) -> dict:
    """One untraced pipeline through the CLI: wall time and peak RSS per stage."""
    sample = {}
    for stage, args in pipeline.stages(tag).items():
        wall, rss, code = pipeline.spawner.run([sys.executable, "-m", "ircmap.cli", *args], WORK / f"{stage}.log")
        if code != 0:
            raise StageFailed(f"ircmap {stage} exited with {code}")
        sample[f"{stage}_s"] = wall
        sample[f"{stage}_rss"] = rss
    return sample


def run_inproc(phase: str, pipeline: Pipeline, tag: str) -> dict:
    config = WORK / f"{tag}.json"
    summary = WORK / f"{tag}-summary.json"
    stages = pipeline.stages(tag)
    config.write_text(json.dumps({
        "stages": stages,
        "summary_out": str(summary),
        "spans_out": str(WORK / f"{tag}-spans.jsonl"),
        "jobs1": {
            "input": str(WORK / "reference" / "prep" / "prepared.jsonl"),
            "cache": str(pipeline.cache_for(tag)),
            "endpoint": pipeline.endpoint,
            "offline": pipeline.spec.offline,
            "rate_limit": RATE_LIMIT,
        },
    }))
    argv = [sys.executable, str(BENCH_DIR / "tracing.py"), phase, str(config)]
    _, _, code = pipeline.spawner.run(argv, WORK / f"{tag}.log")
    if code != 0:
        raise StageFailed(f"in-process {phase} run exited with {code}")
    return json.loads(summary.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true", help="print every metric and its unit")
    args = parser.parse_args()
    if args.list_metrics:
        return list_metrics()
    if not (SRC / "ircmap" / "cli.py").is_file():
        print(f"bench: no ircmap sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus as corpus_mod
    from stub import StubEndpoint
    from verify import Checker

    from ircmap.gazetteer import build_gazetteer, default_data_dir
    from ircmap.wikidata import LabelMap

    if args.workload not in corpus_mod.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(corpus_mod.WORKLOADS)}")
    spec = _declared()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)

    g = build_gazetteer(default_data_dir())
    label_map = LabelMap.from_gazetteer(g, default_data_dir() / "wikidata_labels.tsv")
    corpus = corpus_mod.generate(args.workload, args.seed, g, label_map)
    checker = Checker(corpus)
    stub = StubEndpoint(corpus.answers, STUB_LATENCY_S, workers=JOBS)
    spawner = Spawner()
    try:
        pipeline = Pipeline(corpus.spec, corpus.write(WORK / "input"), stub.url, spawner)
        if args.trace:
            metrics, attempted, failed = traced_run(args, pipeline, checker, stub)
        else:
            metrics, attempted, failed = measured_run(args, pipeline, checker, stub)
    except StageFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        attempted = failed = len(corpus.expected)
        metrics = None
    finally:
        spawner.close()
        stub.close()
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}
    if metrics is None:
        metrics = dict.fromkeys(declared, 0.0)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    shutil.rmtree(WORK, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _checked(checker, pipeline, tag, stub, verdicts) -> Counter:
    """Check run ``tag``'s outputs and the requests it sent; returns those requests."""
    requests = stub.take_requests()
    verdict = checker.check(*pipeline.dirs(tag), requests)
    verdicts.append(verdict)
    for problem in verdict.problems:
        print(f"check [{tag}]: {problem}", file=sys.stderr)
    return requests


def measured_run(args, pipeline: Pipeline, checker, stub) -> tuple[dict, int, int]:
    setup_s = measure_setup(pipeline)
    stub.take_requests()
    samples = []
    verdicts = []
    deadline = time.perf_counter() + args.seconds
    while not samples or time.perf_counter() < deadline:
        tag = f"iter{len(samples)}"
        sample = run_cli_pipeline(pipeline, tag)
        _checked(checker, pipeline, tag, stub, verdicts)
        samples.append(sample)
        print(f"{tag}: " + " ".join(f"{k}={v:.3f}" for k, v in sample.items()), file=sys.stderr)
        shutil.rmtree(WORK / tag, ignore_errors=True)

    def med(key: str) -> float:
        return statistics.median(s[key] for s in samples)

    mentions = len(checker.corpus.expected)
    metrics = {
        "setup_s": setup_s,
        "pipeline_s": statistics.median(s["prepare_s"] + s["resolve_s"] + s["metrics_s"] for s in samples),
        "prepare_s": med("prepare_s"),
        "resolve_s": med("resolve_s"),
        "metrics_s": med("metrics_s"),
        "resolve_mentions_per_s": statistics.median(mentions / s["resolve_s"] for s in samples),
        "resolve_peak_rss_mb": med("resolve_rss"),
        "metrics_peak_rss_mb": med("metrics_rss"),
    }
    return metrics, sum(v.attempted for v in verdicts), sum(v.failed for v in verdicts)


def traced_run(args, pipeline: Pipeline, checker, stub) -> tuple[dict, int, int]:
    verdicts = []
    run_cli_pipeline(pipeline, "reference")
    requests = _checked(checker, pipeline, "reference", stub, verdicts)
    reference = (WORK / "reference" / "resolve" / "enriched.jsonl").read_bytes()

    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        n = len(traced)
        plain.append(run_inproc("plain", pipeline, f"plain{n}"))
        _checked(checker, pipeline, f"plain{n}", stub, verdicts)
        traced.append(run_inproc("traced", pipeline, f"traced{n}"))
        _checked(checker, pipeline, f"traced{n}", stub, verdicts)
        enriched = (WORK / f"traced{n}" / "resolve" / "enriched.jsonl").read_bytes()
        if enriched != reference:
            verdicts[-1].fail(1, "traced enriched.jsonl differs from the untraced run's")
        summary = traced[-1]
        self_sum = sum(summary["layers"][f"{layer}.self_s"] for layer in LAYERS)
        if abs(self_sum - summary["traced_pipeline_s"]) > 1e-6:
            verdicts[-1].fail(1, "layer self times do not add up to the traced pipeline time")

    jobs1 = run_inproc("jobs1", pipeline, "jobs1")
    stub.take_requests()
    if jobs1["digest"] != digest_labels(checker.corpus.expected.values()):
        verdicts[-1].fail(1, "jobs=1 library run disagrees with the expected labels")

    # Report one whole traced run, the median one, so its self times add up.
    traced.sort(key=lambda t: t["traced_pipeline_s"])
    chosen = traced[(len(traced) - 1) // 2]
    shutil.copy(chosen["spans_out"], OUT / f"spans-{args.workload}.jsonl")
    metrics = dict(chosen["layers"])
    traced_s = chosen["traced_pipeline_s"]
    plain_s = statistics.median(sum(p["stages"].values()) for p in plain)
    metrics["resolver.resolve_corpus.jobs1_s"] = jobs1["jobs1_s"]
    metrics["trace.pipeline_s"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics["kg_requests"] = sum(requests.values())
    return metrics, sum(v.attempted for v in verdicts), sum(v.failed for v in verdicts)


if __name__ == "__main__":
    sys.exit(main())
