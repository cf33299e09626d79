"""Seeded synthetic corpora whose expected labels are known by construction.

Every affiliation string is assembled from generated filler words and, where
step 1 should fire, exactly one gazetteer key placed as the last comma
segment.  Each filler word, and every window of up to three filler tokens, is
screened against the gazetteer's country, component-part and ambiguity keys,
so the only place a match can come from is the planted key.  Strings without
location words get their knowledge-graph answers from tables built here (the
warm cache, or the stub endpoint), so their expected outcome is known too.

The same ``(workload, seed)`` always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from ircmap.gazetteer import Gazetteer
from ircmap.ingest import token_key
from ircmap.wikidata import LabelMap

NULL_FORMS = ("NA", "N/A", "NULL", "none", "-", "", "#TAB#")
INSTITUTION_NOUNS = ("University", "Institute", "Laboratory", "Centre", "College", "Academy")
UNIT_NOUNS = ("Department", "Faculty", "School", "Division", "Group")
RETRIEVED_AT = "2024-01-01T00:00:00+00:00"

_ONSETS = "b d f g k l m n p r s t v z br dr gr kr tr st th qu sk pl".split()
_VOWELS = "a e i o u ae io ou".split()
_CODAS = ["", "", "n", "r", "l", "s", "th", "x", "nd", "rk"]

# Expected outcome of one mention: (category, iso2, evidence).
Label = tuple[str, "str | None", str]
NULL_LABEL: Label = ("NullLike", None, "")
UNIDENTIFIED_LABEL: Label = ("Unidentified", None, "")


@dataclass(frozen=True)
class Spec:
    """Size and shape of one workload; see ``WORKLOADS`` for why each exists."""

    offline: bool
    kind_weights: dict[str, float]  # mention kind -> share of the string pool
    mentions: int = 0  # mentions drawn (kg-cold derives them from ``fragments``)
    pool: int = 0  # distinct strings drawn from (0: every mention distinct)
    zipf_s: float = 0.0  # 0 draws pool strings uniformly
    top_k_fos: int | None = None
    dedup_share: float = 0.0  # share of records the dedup corpus already has
    single_author_share: float = 0.0
    cache_extra_factor: int = 0  # unrelated warm-cache entries per queried key
    fragments: int = 0  # distinct fragments the pipeline must send to the endpoint
    mentions_per_fragment: int = 0


WORKLOADS: dict[str, Spec] = {
    # Step 1 and serialization do nearly all the work: every mention is a
    # distinct string ending in a country or part, so the memo saves nothing
    # and the knowledge graph is never consulted.
    "distinct-step1": Spec(
        offline=True, kind_weights={"country": 0.6, "part": 0.4}, mentions=21000
    ),
    # A whole offline pipeline: Zipf repeats over a pool covering all six
    # report rows, a warm cache several times larger than the keys queried,
    # and a prepare stage that filters by FOS and deduplicates.  The category
    # shares, the exponent, the pool size and the cache factor are chosen so
    # that each of those layers does visible work; they are not measured from
    # a real corpus, so the figures this workload gives do not describe real
    # traffic.
    "mixed-offline": Spec(
        offline=True,
        kind_weights={"country": 0.35, "part": 0.2, "null": 0.05, "wikidata": 0.25, "unidentified": 0.15},
        mentions=42000,
        pool=4000,
        zipf_s=1.0,
        top_k_fos=8,
        dedup_share=0.05,
        single_author_share=0.03,
        cache_extra_factor=5,
    ),
    # The write side of the cache: institution names only, about one distinct
    # fragment per four mentions, empty cache, online against the stub.
    "kg-cold": Spec(
        offline=False,
        kind_weights={"wikidata": 0.7, "unidentified": 0.3},
        fragments=500,
        mentions_per_fragment=4,
    ),
}
INSTITUTIONS = 2000


@dataclass
class Corpus:
    """Generated inputs plus everything the checker needs to judge outputs."""

    records: list[dict]
    secondary: list[dict]
    cache_entries: list[dict]
    answers: dict[str, tuple[str, ...]]  # normalized fragment -> country labels
    expected: dict[tuple[str, int], Label]  # (paper_id, author_index) of kept records
    kept_ids: list[str]
    expected_requests: set[str]  # normalized fragments the pipeline must send
    spec: Spec
    years: dict[str, int]  # publication year of each kept paper

    def write(self, directory: Path) -> dict[str, Path]:
        """Write the corpus (and dedup corpus, warm cache) as the CLI reads them."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {"corpus": directory / "corpus.jsonl", "cache": directory / "warm_cache.jsonl"}
        _write_jsonl(paths["corpus"], self.records)
        _write_jsonl(paths["cache"], self.cache_entries)
        if self.secondary:
            paths["secondary"] = directory / "dedup_against.jsonl"
            _write_jsonl(paths["secondary"], self.secondary)
        return paths


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


class _Vocabulary:
    """Filler words and gazetteer targets, screened against every key."""

    def __init__(self, g: Gazetteer, label_map: LabelMap, rng: random.Random):
        self.rng = rng
        self.keys = set(g.country_key_map) | set(g.part_key_map) | set(g.ambiguity)
        self._words: set[str] = set()
        for noun in INSTITUTION_NOUNS + UNIT_NOUNS:
            if token_key(noun) in self.keys:
                raise ValueError(f"filler noun {noun!r} is a gazetteer key")
        self.countries = self._country_targets(g)
        self.parts = self._part_targets(g)
        self.labels = sorted(
            (entry.canonical_name, iso2)
            for iso2, entry in g.countries.items()
            if label_map.get(entry.canonical_name) == iso2
        )

    def _country_targets(self, g: Gazetteer) -> list[tuple[str, Label]]:
        targets = []
        for key, iso2 in sorted(g.country_key_map.items()):
            surface = key.title() if len(key) > 3 else key.upper()
            if len(key.split()) <= 3 and token_key(surface) == key:
                targets.append((surface, ("CountryName", iso2, key)))
        return targets

    def _part_targets(self, g: Gazetteer) -> list[tuple[str, Label]]:
        targets = []
        for key, (parent, part_name, is_abbrev) in sorted(g.part_key_map.items()):
            tokens = key.split()
            # A country key ending inside the part name would win the country
            # scan before the part scan runs.
            inner = any(
                " ".join(tokens[start : end + 1]) in g.country_key_map
                for end in range(len(tokens) - 1)
                for start in range(end + 1)
            )
            surface = key.upper() if is_abbrev else key.title()
            if len(tokens) <= 3 and not inner and token_key(surface) == key:
                targets.append((surface, ("ComponentPart", parent, part_name), is_abbrev))
        return targets

    def word(self) -> str:
        """A fresh pseudo-word that is no gazetteer key and was not used before."""
        while True:
            syllables = self.rng.randint(2, 3)
            text = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) + self.rng.choice(_CODAS)
                for _ in range(syllables)
            )
            if len(text) >= 5 and text not in self._words and text not in self.keys:
                self._words.add(text)
                return text.capitalize()

    def segment(self, n_words: int, noun_choices: tuple[str, ...], suffix: str = "") -> str:
        """A filler segment none of whose 1-3 token windows is a gazetteer key."""
        while True:
            words = [self.word() for _ in range(n_words)] + [self.rng.choice(noun_choices)]
            if suffix:
                words.append(suffix)
            tokens = token_key(" ".join(words)).split()
            if not any(
                " ".join(tokens[i : i + n]) in self.keys
                for n in (1, 2, 3)
                for i in range(len(tokens) - n + 1)
            ):
                return " ".join(words)


def _step1_string(vocab: _Vocabulary, kind: str, serial: int) -> tuple[str, Label]:
    rng = vocab.rng
    inst = vocab.segment(rng.randint(1, 2), INSTITUTION_NOUNS, str(serial))
    city = vocab.word()
    if kind == "country":
        surface, label = rng.choice(vocab.countries)
        return f"{inst}, {city}, {surface}", label
    surface, label, is_abbrev = rng.choice(vocab.parts)
    if is_abbrev and rng.random() < 0.5:
        surface = f"{surface} {rng.randint(10000, 99999)}"  # before a postal code
    return f"{inst}, {city}, {surface}", label


def _kg_string(vocab: _Vocabulary, institutions: list[str]) -> list[str]:
    """Comma segments of a location-free string: [unit,] institution."""
    rng = vocab.rng
    inst = rng.choice(institutions)
    if rng.random() < 0.4:
        return [vocab.segment(1, UNIT_NOUNS), inst]
    return [inst]


def _answer(vocab: _Vocabulary, identified: bool) -> tuple[str, ...]:
    rng = vocab.rng
    if identified:
        return (rng.choice(vocab.labels)[0],)
    if rng.random() < 0.5:
        return ()
    first, second = rng.sample(vocab.labels, 2)
    return (first[0], second[0])


def _resolve_kg(
    segments: list[str], answers: dict[str, tuple[str, ...]], label_iso: dict[str, str]
) -> tuple[Label, list[str]]:
    """Expected label and the fragments tried, last segment first."""
    tried = []
    for segment in reversed(segments):
        key = token_key(segment)
        tried.append(key)
        labels = answers[key]
        if len(labels) == 1:
            return ("Wikidata", label_iso[labels[0]], key), tried
    return UNIDENTIFIED_LABEL, tried


def generate(name: str, seed: int, g: Gazetteer, label_map: LabelMap) -> Corpus:
    """Build the corpus of workload ``name`` for ``seed``."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    vocab = _Vocabulary(g, label_map, rng)
    label_iso = dict(vocab.labels)
    answers: dict[str, tuple[str, ...]] = {}
    tried_by_raw: dict[str, list[str]] = {}

    def kg_mention(identified: bool) -> tuple[str, Label]:
        segments = _kg_string(vocab, institutions)
        for segment in segments:
            key = token_key(segment)
            if key not in answers:
                answers[key] = _answer(vocab, identified)
        label, tried = _resolve_kg(segments, answers, label_iso)
        raw = ", ".join(segments)
        tried_by_raw[raw] = tried
        return raw, label

    kinds = list(spec.kind_weights)
    kind_cum = list(accumulate(spec.kind_weights.values()))
    institutions = []
    if {"wikidata", "unidentified"} & set(kinds):
        institutions = [vocab.segment(rng.randint(1, 2), INSTITUTION_NOUNS) for _ in range(INSTITUTIONS)]

    def pool_string(serial: int) -> tuple[str, Label]:
        kind = rng.choices(kinds, cum_weights=kind_cum)[0]
        if kind in ("country", "part"):
            return _step1_string(vocab, kind, serial)
        if kind == "null":
            return rng.choice(NULL_FORMS), NULL_LABEL
        return kg_mention(kind == "wikidata")

    if spec.fragments:
        pool: list[tuple[str, Label]] = []
        seen: set[str] = set()
        fragments: set[str] = set()
        while len(fragments) < spec.fragments:
            raw, label = pool_string(len(pool))
            if raw.casefold() not in seen:
                seen.add(raw.casefold())
                pool.append((raw, label))
                fragments.update(tried_by_raw[raw])
        n_mentions = spec.mentions_per_fragment * len(fragments)
        draws = pool + rng.choices(pool, k=n_mentions - len(pool))
        rng.shuffle(draws)
    elif spec.pool:
        pool = []
        seen = set()
        while len(pool) < spec.pool:
            raw, label = pool_string(len(pool))
            if raw.casefold() not in seen or label == NULL_LABEL:
                seen.add(raw.casefold())
                pool.append((raw, label))
        weights = list(accumulate(1.0 / (rank + 1) ** spec.zipf_s for rank in range(len(pool))))
        draws = rng.choices(pool, cum_weights=weights, k=spec.mentions)
    else:
        draws = [pool_string(serial) for serial in range(spec.mentions)]

    corpus = _assemble(spec, rng, vocab, draws, f"{name}-{seed}")
    corpus.answers = answers
    if not spec.offline:
        kept = set(corpus.kept_ids)
        corpus.expected_requests = {
            key
            for record in corpus.records
            if record["paper_id"] in kept
            for author in record["authors"]
            for key in tried_by_raw.get(author["affiliation"], ())
        }
    if spec.offline:
        corpus.cache_entries = _warm_cache(vocab, answers, spec.cache_extra_factor)
    return corpus


def _warm_cache(vocab: _Vocabulary, answers: dict, extra_factor: int) -> list[dict]:
    """Cache lines for every fragment the pool can query, plus unrelated keys."""
    entries = dict(answers)
    for _ in range(extra_factor * len(answers)):
        entries[token_key(vocab.segment(2, INSTITUTION_NOUNS))] = _answer(vocab, True)
    lines = [
        {
            "key": key,
            "countries": list(labels),
            "status": "hit" if labels else "empty",
            "retrieved_at": RETRIEVED_AT,
            "detail": "",
        }
        for key, labels in entries.items()
    ]
    vocab.rng.shuffle(lines)
    return lines


def _assemble(spec: Spec, rng: random.Random, vocab: _Vocabulary, draws, prefix: str) -> Corpus:
    """Group mentions into papers and decide which ones prepare must keep."""
    records: list[dict] = []
    secondary: list[dict] = []
    expected: dict[tuple[str, int], Label] = {}
    kept: list[str] = []
    years: dict[str, int] = {}
    # Top terms sit on most papers and rare ones on few, so the top-K filter
    # selects exactly ``top`` (checked below).
    top = [vocab.word().lower() for _ in range(spec.top_k_fos or 4)]
    rare = [vocab.word().lower() for _ in range(max(50, len(draws) // 60))]
    position = 0
    while position < len(draws):
        index = len(records)
        paper_id = f"{prefix}-{index:07d}"
        n_authors = 1 if rng.random() < spec.single_author_share else rng.randint(2, 5)
        if len(draws) - position - n_authors == 1:
            n_authors += 1  # no accidental single-author paper at the end
        mentions = draws[position : position + n_authors]
        position += n_authors
        fos_dropped = spec.top_k_fos is not None and rng.random() < 0.1
        fos = [rng.choice(rare)] if fos_dropped else rng.sample(top, rng.randint(1, 2)) + [rng.choice(rare)]
        year = rng.randint(2000, 2019)
        record = {
            "paper_id": paper_id,
            "title": f"{rng.choice(top).title()} study number {index}",
            "year": year,
            "fos": fos,
            "doi": None,
            "authors": [{"affiliation": raw} for raw, _ in mentions],
        }
        records.append(record)
        duplicated = not fos_dropped and rng.random() < spec.dedup_share
        if duplicated:
            secondary.append({**record, "paper_id": f"dup-{paper_id}", "authors": []})
        if fos_dropped or duplicated or len(mentions) < 2:
            continue
        kept.append(paper_id)
        years[paper_id] = year
        for author_index, (_, label) in enumerate(mentions):
            expected[(paper_id, author_index)] = label
    if spec.dedup_share:
        secondary += [
            {"paper_id": f"other-{i}", "title": f"Unrelated work {i}", "year": 1999, "fos": [], "authors": []}
            for i in range(len(secondary))
        ]
    _check_fos_plan(records, top, spec.top_k_fos)
    return Corpus(records, secondary, [], {}, expected, kept, set(), spec, years)


def _check_fos_plan(records: list[dict], top: list[str], top_k: int | None) -> None:
    """Fail generation if the top-K filter would not select exactly ``top``."""
    if top_k is None:
        return
    frequency: dict[str, int] = {}
    for record in records:
        for term in set(record["fos"]):
            frequency[term] = frequency.get(term, 0) + 1
    ranked = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))
    if {term for term, _ in ranked[:top_k]} != set(top):
        raise ValueError("FOS plan does not single out the top terms; enlarge the corpus")
