"""Command-line pipeline: prepare -> resolve -> metrics, plus report rendering.

The stages are separate subcommands so the expensive knowledge-graph stage
can be resumed from its cache independently of the cheap ones.  Nothing in
the pipeline samples or depends on wall-clock state, so reruns are
bit-stable, and every run writes a ``manifest.json`` (configuration echo,
input digests, output counts) that makes a run reproducible exactly.

Each stage writes into a staging directory inside ``--output`` and commits
once: its files appear together with their ``manifest.json``, or not at all.
A stage that fails or is interrupted leaves the output directory as it was;
one killed outright can leave only a hidden ``.ircmap-<pid>.tmp`` directory.
Exit code 0 means every requested artifact was fully written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from contextlib import ExitStack
from functools import lru_cache
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterator, Optional

from ircmap import __version__
from ircmap.gazetteer import LABELS_FILE, GazetteerError, build_gazetteer, default_data_dir, table_paths
from ircmap.ingest import Format, IngestError, parse_records, record_line
from ircmap.metrics import ConsistencyError, MentionCountry, collapse_to_papers, compute_irc
from ircmap.prep import DedupIndex, PrepStats, compute_fos_filter, dedup_overlap, filter_by_fos, filter_coauthored
from ircmap.reports import write_breakdown, write_irc_stats, write_prep_report
from ircmap.resolver import Category, Resolution, check_outcome, resolve_corpus
from ircmap.wikidata import (
    CACHE_DIR_ENV_VAR,
    DEFAULT_ENDPOINT,
    ENDPOINT_ENV_VAR,
    CacheStore,
    EndpointRefused,
    LabelMap,
    Mode,
    WikidataClient,
)

log = logging.getLogger("ircmap")

ENRICHED_FIELDS = Resolution._fields


@lru_cache(maxsize=1 << 12)
def _outcome_pieces(category: Category, iso2: str | None, evidence: str, ambiguous: bool) -> tuple[str, str]:
    """The text of an enriched line before and after ``author_index``, for one outcome."""
    iso2 = "null" if iso2 is None else encode_basestring(iso2)
    return (
        f'{{"ambiguous": {json.dumps(ambiguous)}, "author_index": ',
        f', "category": {encode_basestring(category.value)}, '
        f'"evidence": {encode_basestring(evidence)}, "iso2": {iso2}, "paper_id": ',
    )


def _enriched_line(r: Resolution) -> str:
    """``json.dumps(row, ensure_ascii=False, sort_keys=True) + "\\n"`` for ``r``'s row.

    Sorted, the keys run ``ambiguous, author_index, category, evidence, iso2,
    paper_id, raw``, so the text before and after ``author_index`` depends on
    the outcome alone, and :func:`_outcome_pieces` caches it.
    ``encode_basestring`` is the string encoder ``json.dumps(ensure_ascii=False)``
    itself uses.
    """
    head, middle = _outcome_pieces(r.category, r.iso2, r.evidence, r.ambiguous)
    return (f'{head}{r.author_index}{middle}{encode_basestring(r.paper_id)}'
            f', "raw": {encode_basestring(r.raw)}}}\n')


class CliError(Exception):
    """Fatal, user-facing condition; message printed to stderr, exit 1."""


def default_cache_path() -> Path:
    env_dir = os.environ.get(CACHE_DIR_ENV_VAR)
    if env_dir:
        return Path(env_dir) / "wikidata_cache.jsonl"
    return Path.home() / ".cache" / "ircmap" / "wikidata_cache.jsonl"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class OutputSet:
    """One stage's outputs, staged in ``stage`` and committed together.

    A stage's files appear in ``out_dir`` together with their manifest, or
    not at all.  Writers put every file into ``stage``, a hidden directory
    inside ``out_dir``, so each ``os.replace`` of ``commit`` stays on one
    filesystem.  ``commit`` deletes the old manifest, moves the staged files
    into place and moves ``manifest.json`` last, as the commit marker.
    Leaving the ``with`` block, by any exception too, deletes whatever is
    still staged and the staging directory.  Only a process killed outright
    (SIGKILL) can leave a ``.ircmap-<pid>.tmp`` directory behind.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.stage = out_dir / f".ircmap-{os.getpid()}.tmp"

    def __enter__(self) -> "OutputSet":
        try:
            self.stage.mkdir(parents=True)
        except FileExistsError:
            raise CliError(
                f"staging directory {self.stage} already exists; it is left over from a killed run "
                "and can be deleted"
            ) from None
        except NotADirectoryError:
            raise CliError(f"--output {self.out_dir} is not a directory") from None
        return self

    def __exit__(self, *exc_info) -> None:
        for path in self.stage.iterdir():
            path.unlink()
        self.stage.rmdir()

    def commit(self, args: argparse.Namespace, inputs: list[Path], counts: dict) -> None:
        names = sorted(path.name for path in self.stage.iterdir())
        manifest = {
            "tool": "ircmap",
            "version": __version__,
            "subcommand": args.subcommand,
            "config": vars(args),
            "inputs": {str(p): _sha256(p) for p in inputs},
            "outputs": names,
            "counts": counts,
        }
        (self.stage / "manifest.json").write_text(
            json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        (self.out_dir / "manifest.json").unlink(missing_ok=True)
        for name in names + ["manifest.json"]:
            os.replace(self.stage / name, self.out_dir / name)


def _require_input(path_str: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise CliError(f"input file not found: {path}")
    return path


def _warn_skipped(path: Path, reader) -> None:
    if reader.rows_skipped:
        log.warning("%s: skipped %d malformed or duplicate rows", path, reader.rows_skipped)


def cmd_prepare(args: argparse.Namespace) -> int:
    if args.overlap and not args.top_k_fos:
        raise CliError("--overlap needs --top-k-fos")
    in_path = _require_input(args.input)
    with OutputSet(Path(args.output)) as out:
        reader = parse_records(in_path, Format(args.format))
        records = list(reader)
        _warn_skipped(in_path, reader)
        if not records:
            raise CliError(f"no records parsed from {in_path}")
        stats = PrepStats()
        for record in records:
            stats.observe_input(record)

        stream = iter(records)
        if args.top_k_fos:
            if args.overlap:
                overlap_path = _require_input(args.overlap)
                overlap = parse_records(overlap_path, Format(args.overlap_format))
                fos_filter = compute_fos_filter(overlap, args.top_k_fos)
                _warn_skipped(overlap_path, overlap)
            else:
                fos_filter = compute_fos_filter(records, args.top_k_fos)
            stats.fos_coverage = fos_filter.coverage
            stats.fos_terms = tuple(sorted(fos_filter.terms))
            stream = filter_by_fos(stream, fos_filter, stats)
        if args.dedup_against:
            secondary_path = _require_input(args.dedup_against)
            secondary = parse_records(secondary_path, Format(args.dedup_format))
            stream = dedup_overlap(stream, DedupIndex.from_records(secondary), stats)
            _warn_skipped(secondary_path, secondary)
        stream = filter_coauthored(stream, stats)

        with open(out.stage / "prepared.jsonl", "w", encoding="utf-8") as handle:
            for record in stream:
                stats.output_records += 1
                handle.write(record_line(record))
        counts = write_prep_report(out.stage, stats)
        inputs = [in_path]
        if args.overlap:
            inputs.append(Path(args.overlap))
        if args.dedup_against:
            inputs.append(Path(args.dedup_against))
        out.commit(args, inputs, counts)
    print(f"prepared {stats.output_records} of {stats.total_works} records -> {out.out_dir}")
    return 0


def _build_client(args: argparse.Namespace, gazetteer, data_dir: Path) -> WikidataClient:
    cache_path = Path(args.cache) if args.cache else default_cache_path()
    if cache_path.exists() and not cache_path.is_file():
        raise CliError(f"cache {cache_path} is not a file")
    if args.offline and not cache_path.is_file():
        raise CliError(f"offline mode requires an existing cache file: {cache_path}")
    try:
        cache = CacheStore(cache_path)
    except OSError as exc:  # a parent that is a file, or a file that cannot be read
        raise CliError(f"cannot use cache {cache_path}: {exc}") from None
    label_map = LabelMap.from_gazetteer(gazetteer, data_dir / LABELS_FILE)
    try:
        return WikidataClient(
            cache=cache,
            label_map=label_map,
            endpoint=args.endpoint,
            mode=Mode.OFFLINE if args.offline else Mode.ONLINE,
            rate_limit=args.rate_limit,
        )
    except ValueError as exc:  # an unusable endpoint URL
        raise CliError(str(exc)) from None


def cmd_resolve(args: argparse.Namespace) -> int:
    in_path = _require_input(args.input)
    with OutputSet(Path(args.output)) as out:
        data_dir = Path(args.gazetteer) if args.gazetteer else default_data_dir()
        gazetteer = build_gazetteer(data_dir, include_extension=args.extended_parts)
        client = _build_client(args, gazetteer, data_dir)
        cache_entries = len(client.cache)

        reader = parse_records(in_path, Format(args.format))
        counts = dict.fromkeys(Category, 0)
        with ExitStack() as files:
            handle = files.enter_context(open(out.stage / "enriched.jsonl", "w", encoding="utf-8"))
            csv_writer = None
            if args.emit_csv:
                import csv as _csv

                csv_writer = _csv.writer(
                    files.enter_context(open(out.stage / "enriched.csv", "w", encoding="utf-8", newline=""))
                )
                csv_writer.writerow(ENRICHED_FIELDS)
            for r in resolve_corpus(reader, gazetteer, client, jobs=args.jobs):
                counts[r.category] += 1
                handle.write(_enriched_line(r))
                if csv_writer is not None:
                    csv_writer.writerow(r)  # a Category is a str, written as its value
        _warn_skipped(in_path, reader)
        manifest_counts = write_breakdown(out.stage, counts)
        manifest_counts["cache_entries"] = cache_entries
        out.commit(args, [in_path, *table_paths(data_dir, args.extended_parts)], manifest_counts)
    print(f"resolved {manifest_counts['mentions']} mentions -> {out.out_dir}")
    return 0


def _read_enriched(path: Path) -> Iterator[MentionCountry]:
    """Each row's paper and country, after the checks of a written row.

    ``paper_id`` must be a string and ``author_index`` a non-negative
    integer.  Each distinct outcome, with a missing ``evidence`` read as
    empty, passes :func:`check_outcome` once.
    """
    checked: set[tuple] = set()
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line = line.decode("utf-8")  # a line that is not UTF-8 is one more bad row
                if not line.strip():
                    continue
                obj = json.loads(line)
                row = MentionCountry(obj["paper_id"], obj.get("iso2"))
                if not isinstance(row.paper_id, str):
                    raise TypeError(f"paper_id is not a string: {row.paper_id!r}")
                author_index = obj["author_index"]  # checked, not kept
                if type(author_index) is not int or author_index < 0:  # a bool is not an index
                    raise ValueError(f"author_index is not a non-negative integer: {author_index!r}")
                outcome = (obj["category"], row.iso2, obj.get("evidence", ""))
                try:
                    known = outcome in checked
                except TypeError:  # a list or an object is unhashable
                    known = False
                if not known:
                    check_outcome(*outcome)
                    checked.add(outcome)
            except (KeyError, TypeError, ValueError) as exc:
                raise CliError(f"{path}:{lineno}: bad enriched row: {exc}") from exc
            yield row


def cmd_metrics(args: argparse.Namespace) -> int:
    enriched_path = _require_input(args.input)
    with OutputSet(Path(args.output)) as out:
        records_path = _require_input(args.records) if args.records else None
        records = parse_records(records_path, Format(args.records_format)) if records_path else None
        stats = compute_irc(collapse_to_papers(_read_enriched(enriched_path), records))
        if records is not None:
            _warn_skipped(records_path, records)
        counts = write_irc_stats(out.stage, stats)
        inputs = [enriched_path] + ([records_path] if records_path else [])
        out.commit(args, inputs, counts)
    print(f"computed collaboration stats for {stats.total} papers -> {out.out_dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    directory = Path(args.input)
    if not directory.is_dir():
        raise CliError(f"not a directory: {directory}")
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise CliError(f"no manifest.json under {directory}: not the output of a completed stage")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError:  # not UTF-8 JSON
        manifest = None
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(outputs, list) or not all(isinstance(name, str) for name in outputs):
        raise CliError(f"{manifest_path} is not a manifest: no list of outputs")
    for name in outputs:
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise CliError(f"{manifest_path} is not a manifest: output {name!r} is not a file name in {directory}")
    names = [name for name in outputs if name.endswith(".txt")]
    if not names:
        raise CliError(f"no report artifacts found under {directory}")
    try:
        reports = [(name, (directory / name).read_text(encoding="utf-8")) for name in names]
    except OSError as exc:
        raise CliError(f"a report that {manifest_path} lists cannot be read: {exc}") from exc
    for name, text in reports:
        print(f"== {name}")
        print(text)
    return 0


def _positive(kind: type) -> Callable[[str], float]:
    """An argparse type: ``kind(text)``, which must be finite and greater than 0."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < math.inf:  # false for nan too
            raise argparse.ArgumentTypeError(f"expected a positive finite {kind.__name__}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ircmap",
        description="Enrich bibliographic records with countries and measure "
        "international research collaboration.",
    )
    parser.add_argument("--version", action="version", version=f"ircmap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    formats = [f.value for f in Format]

    prepare = sub.add_parser("prepare", help="filter a corpus: FOS, dedup, co-authored only")
    prepare.add_argument("--input", required=True)
    prepare.add_argument("--format", choices=formats, default=Format.GENERIC_JSONL.value)
    prepare.add_argument("--output", required=True, help="output directory")
    prepare.add_argument("--top-k-fos", type=_positive(int), default=None, metavar="K",
                         help="apply a top-K field-of-study filter")
    prepare.add_argument("--overlap", default=None,
                         help="corpus whose FOS frequencies define the --top-k-fos filter (default: the input)")
    prepare.add_argument("--overlap-format", choices=formats, default=Format.GENERIC_JSONL.value)
    prepare.add_argument("--dedup-against", default=None,
                         help="drop records already present in this corpus")
    prepare.add_argument("--dedup-format", choices=formats, default=Format.GENERIC_JSONL.value)

    resolve_p = sub.add_parser("resolve", help="resolve mention countries and write enrichment")
    resolve_p.add_argument("--input", required=True)
    resolve_p.add_argument("--format", choices=formats, default=Format.GENERIC_JSONL.value)
    resolve_p.add_argument("--output", required=True, help="output directory")
    resolve_p.add_argument("--gazetteer", default=None, help="directory of gazetteer tables")
    resolve_p.add_argument("--extended-parts", action="store_true",
                           help="also load Canadian provinces and Australian states")
    resolve_p.add_argument("--cache", default=None, help="knowledge-graph cache file (JSON lines)")
    resolve_p.add_argument("--endpoint", default=os.environ.get(ENDPOINT_ENV_VAR) or DEFAULT_ENDPOINT,
                           help=f"SPARQL endpoint URL (default: ${ENDPOINT_ENV_VAR}, else {DEFAULT_ENDPOINT})")
    resolve_p.add_argument("--offline", action="store_true",
                           help="answer only from the cache; no network")
    resolve_p.add_argument("--rate-limit", type=_positive(float), default=2.0, metavar="RPS",
                           help="max endpoint requests per second (default 2)")
    resolve_p.add_argument("--jobs", type=_positive(int), default=os.cpu_count() or 1,
                           help="concurrent knowledge-graph lookups; step 1 always runs on one "
                                "thread; output is identical for any value")
    resolve_p.add_argument("--emit-csv", action="store_true",
                           help="also write enriched.csv next to enriched.jsonl")

    metrics_p = sub.add_parser("metrics", help="compute collaboration statistics")
    metrics_p.add_argument("--input", required=True,
                           help="enriched.jsonl from resolve; each paper's rows together")
    metrics_p.add_argument("--records", default=None,
                           help="the corpus resolve read, for paper years (default: years unknown)")
    metrics_p.add_argument("--records-format", choices=formats, default=Format.GENERIC_JSONL.value)
    metrics_p.add_argument("--output", required=True, help="output directory")

    report_p = sub.add_parser("report", help="print the plain-text reports in a directory")
    report_p.add_argument("--input", required=True, help="output directory of a previous run")

    return parser


COMMANDS = {
    "prepare": cmd_prepare,
    "resolve": cmd_resolve,
    "metrics": cmd_metrics,
    "report": cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.subcommand](args)
    except (CliError, ConsistencyError, EndpointRefused, GazetteerError, IngestError) as exc:
        print(f"ircmap: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected: still fail cleanly with a message
        log.exception("unhandled failure")
        print(f"ircmap: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
