"""Static reference tables and lookups for country and sub-national place names.

The gazetteer is loaded from plain-text tables (UTF-8, a leading byte order
mark ignored, tab-separated, ``#`` comments):

* ``countries.tsv`` -- ``iso2<TAB>canonical_name<TAB>alias1|alias2|...``
* ``component_parts.tsv`` -- ``part_name<TAB>abbrev1|...<TAB>parent_iso2``
* ``component_parts_extension.tsv`` -- same shape; Canadian provinces and
  Australian states, loaded only on request
* ``ambiguity.tsv`` -- ``token<TAB>interp1|interp2[<TAB>marker1|...]`` where an
  interpretation is ``country:<iso2>`` or ``part:<parent_iso2>:<part name>``.
  Interpretations are in preference order; a context marker occurring
  elsewhere in the affiliation flips the choice to the second one.
* ``wikidata_labels.tsv`` -- ``label<TAB>iso2``, Wikidata country labels
  beyond the canonical names; read by :class:`ircmap.wikidata.LabelMap`

All names and aliases are normalized at load time with the same rules applied
to affiliation strings, so lookups take normalized, comma-free token strings.
Each fact is kept once: every normalized key maps to the meanings it has,
each country code to its canonical name, and the gazetteer lists the table
files it read.  A key with two meanings (two countries, two parts, or a
country and a part) aborts the build, naming the key and both lines, unless
an ambiguity entry claims it.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional

from ircmap.ingest import token_key

__all__ = [
    "CountryEntry",
    "Gazetteer",
    "GazetteerError",
    "Interpretation",
    "KeyEntry",
    "build_gazetteer",
    "default_data_dir",
]

COUNTRIES_FILE = "countries.tsv"
PARTS_FILE = "component_parts.tsv"
PARTS_EXTENSION_FILE = "component_parts_extension.tsv"
AMBIGUITY_FILE = "ambiguity.tsv"
LABELS_FILE = "wikidata_labels.tsv"


class GazetteerError(Exception):
    """Fatal configuration problem in the gazetteer tables."""


@dataclass(frozen=True)
class CountryEntry:
    canonical_name: str


@dataclass(frozen=True)
class Interpretation:
    """One meaning of a key: the country ``iso2`` or, when ``part_name`` is set, that part of it.

    ``abbreviation`` is set for a part matched by one of its abbreviations
    rather than its name; the matcher accepts those only at the end of a
    segment or before a number.
    """

    iso2: str
    part_name: Optional[str] = None
    abbreviation: bool = False


@dataclass(frozen=True)
class KeyEntry:
    """Everything the key that maps to it can mean, in preference order.

    Plain keys have one interpretation and no markers; entries of the
    ambiguity table have two or more.
    """

    interpretations: tuple[Interpretation, ...]
    context_markers: frozenset[str]


def default_data_dir() -> Path:
    """Directory of the tables shipped with the package."""
    return Path(str(importlib.resources.files("ircmap") / "data"))


def _read_table(path: Path, n_fields_min: int, n_fields_max: int):
    """Yield (line_number, fields) for each non-comment line of a table.

    A byte order mark at the start of the file is not part of its first line.
    """
    if not path.is_file():
        raise GazetteerError(f"{path}: missing table file")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise GazetteerError(f"{path}: unreadable table file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if not n_fields_min <= len(fields) <= n_fields_max:
            raise GazetteerError(
                f"{path}:{lineno}: expected {n_fields_min}-{n_fields_max} "
                f"tab-separated fields, got {len(fields)}"
            )
        yield lineno, fields


class Gazetteer:
    """Immutable place-name tables; safe for unrestricted concurrent reads.

    ``countries`` maps each ISO code to its :class:`CountryEntry`.  ``keys``
    maps every normalized key to its :class:`KeyEntry`: the ambiguity
    table's entries as they are, and every other country or part key with
    its one interpretation.  ``tables`` lists the table files the gazetteer
    was built from, in the order they were read.  ``country_key_map``,
    ``part_key_map`` and ``ambiguity`` are read-only views that split the
    keys three ways: a plain country key to its ISO code, a plain part key to
    ``(parent_iso2, part_name, abbreviation)``, and a contested key to its
    entry.
    """

    def __init__(
        self,
        countries: dict[str, CountryEntry],
        keys: dict[str, KeyEntry],
        tables: tuple[Path, ...],
    ):
        self.countries: Mapping[str, CountryEntry] = MappingProxyType(countries)
        self.keys: Mapping[str, KeyEntry] = MappingProxyType(keys)
        self.tables = tables
        plain = {k: e.interpretations[0] for k, e in keys.items() if len(e.interpretations) == 1}
        self.country_key_map: Mapping[str, str] = MappingProxyType(
            {k: i.iso2 for k, i in plain.items() if i.part_name is None}
        )
        self.part_key_map: Mapping[str, tuple[str, str, bool]] = MappingProxyType(
            {k: (i.iso2, i.part_name, i.abbreviation) for k, i in plain.items() if i.part_name is not None}
        )
        self.ambiguity: Mapping[str, KeyEntry] = MappingProxyType(
            {k: e for k, e in keys.items() if len(e.interpretations) > 1}
        )


def build_gazetteer(data_dir: Path | str, include_extension: bool = False) -> Gazetteer:
    """Load and validate the gazetteer tables under ``data_dir``.

    Each key's meanings (a country, or a part of one) are collected with the
    ``file:line`` that first claimed each.  Aborts with
    :class:`GazetteerError` on missing or malformed tables (naming file and
    line) and, once the ambiguity table is read, on a key with two meanings
    that no ambiguity entry claims (naming the key and both lines).
    """
    data_dir = Path(data_dir)
    countries_path, ambiguity_path = data_dir / COUNTRIES_FILE, data_dir / AMBIGUITY_FILE
    part_files = [data_dir / PARTS_FILE]
    if include_extension:
        part_files.append(data_dir / PARTS_EXTENSION_FILE)
    # key -> {(iso2, part_name): (interpretation, "file:line")}; the first
    # claim of a meaning wins.
    meanings: dict[str, dict[tuple, tuple[Interpretation, str]]] = {}

    def claim(key: str, interp: Interpretation, origin: str) -> None:
        meanings.setdefault(key, {}).setdefault((interp.iso2, interp.part_name), (interp, origin))

    countries: dict[str, CountryEntry] = {}
    for lineno, fields in _read_table(countries_path, 2, 3):
        iso2 = fields[0].strip().upper()
        canonical = fields[1].strip()
        if len(iso2) != 2 or not iso2.isalpha():
            raise GazetteerError(f"{countries_path}:{lineno}: bad country code {fields[0]!r}")
        if iso2 in countries:
            raise GazetteerError(f"{countries_path}:{lineno}: duplicate country code {iso2}")
        if not canonical:
            raise GazetteerError(f"{countries_path}:{lineno}: empty canonical name")
        raw_aliases = fields[2].split("|") if len(fields) == 3 and fields[2].strip() else []
        names = {token_key(canonical)}
        names.update(token_key(a) for a in raw_aliases if a.strip())
        names.discard("")
        if not names:
            raise GazetteerError(f"{countries_path}:{lineno}: no usable name for {iso2}")
        interp, origin = Interpretation(iso2), f"{COUNTRIES_FILE}:{lineno}"
        for key in sorted(names):
            claim(key, interp, origin)
        countries[iso2] = CountryEntry(canonical)

    loaded_parts: set[tuple[str, str]] = set()
    for path in part_files:
        for lineno, fields in _read_table(path, 3, 3):
            part_name = fields[0].strip()
            abbrevs = [a for a in fields[1].split("|") if a.strip()]
            parent = fields[2].strip().upper()
            if not part_name:
                raise GazetteerError(f"{path}:{lineno}: empty part name")
            if parent not in countries:
                raise GazetteerError(
                    f"{path}:{lineno}: parent country {parent!r} not in the country table"
                )
            loaded_parts.add((parent, part_name))
            keyed = [(token_key(part_name), False)]
            keyed += [(token_key(a), True) for a in abbrevs]
            origin = f"{path.name}:{lineno}"
            for key, is_abbrev in keyed:
                if not key:
                    raise GazetteerError(f"{path}:{lineno}: empty key for part {part_name!r}")
                claim(key, Interpretation(parent, part_name, is_abbrev), origin)

    # The ambiguity table's entries go in first and own their key.
    keys: dict[str, KeyEntry] = {}
    for lineno, fields in _read_table(ambiguity_path, 2, 3):
        token = token_key(fields[0])
        if not token:
            raise GazetteerError(f"{ambiguity_path}:{lineno}: empty token")
        if token in keys:
            raise GazetteerError(f"{ambiguity_path}:{lineno}: duplicate token {token!r}")
        interps: list[Interpretation] = []
        for item in fields[1].split("|"):
            item = item.strip()
            if not item:
                continue
            pieces = item.split(":")
            if pieces[0] == "country" and len(pieces) == 2:
                iso2 = pieces[1].strip().upper()
                if iso2 not in countries:
                    raise GazetteerError(
                        f"{ambiguity_path}:{lineno}: unknown country code {iso2!r}"
                    )
                interps.append(Interpretation(iso2))
            elif pieces[0] == "part" and len(pieces) == 3:
                iso2 = pieces[1].strip().upper()
                name = pieces[2].strip()
                if (iso2, name) not in loaded_parts:
                    # Interpretations pointing at a table that is not loaded
                    # (e.g. the extension file) are dropped, not fatal.
                    continue
                interps.append(Interpretation(iso2, name, token != token_key(name)))
            else:
                raise GazetteerError(
                    f"{ambiguity_path}:{lineno}: bad interpretation {item!r}"
                )
        if len(interps) < 2:
            continue  # nothing left to disambiguate
        markers = frozenset(
            token_key(m) for m in (fields[2].split("|") if len(fields) == 3 else []) if m.strip()
        ) - {""}
        keys[token] = KeyEntry(tuple(interps), markers)

    # Any other key with two meanings, within a table or across tables, must
    # be disambiguated explicitly.
    for key, claims in meanings.items():
        if key in keys:
            continue
        if len(claims) > 1:
            (first, first_origin), (second, second_origin) = list(claims.values())[:2]
            raise GazetteerError(
                f"{second_origin}: key {key!r} means both {first.part_name or first.iso2} "
                f"({first_origin}) and {second.part_name or second.iso2}; "
                "add an ambiguity entry or remove one"
            )
        ((interp, _),) = claims.values()
        keys[key] = KeyEntry((interp,), frozenset())
    return Gazetteer(countries, keys, (countries_path, *part_files, ambiguity_path))
