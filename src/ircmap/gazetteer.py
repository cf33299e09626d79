"""Static reference tables and lookups for country and sub-national place names.

The gazetteer is loaded from plain-text tables (UTF-8, tab-separated, ``#``
comments):

* ``countries.tsv`` -- ``iso2<TAB>canonical_name<TAB>alias1|alias2|...``
* ``component_parts.tsv`` -- ``part_name<TAB>abbrev1|...<TAB>parent_iso2``
* ``component_parts_extension.tsv`` -- same shape; Canadian provinces and
  Australian states, loaded only on request
* ``ambiguity.tsv`` -- ``token<TAB>interp1|interp2[<TAB>marker1|...]`` where an
  interpretation is ``country:<iso2>`` or ``part:<parent_iso2>:<part name>``.
  Interpretations are in preference order; a context marker occurring
  elsewhere in the affiliation flips the choice to the second one.

All names and aliases are normalized at load time with the same rules applied
to affiliation strings, so lookups take normalized, comma-free token strings.
Duplicate keys (within a table or across the two tables) abort the build
unless covered by an ambiguity entry.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional

from ircmap.ingest import token_key

__all__ = [
    "ComponentPartEntry",
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


class GazetteerError(Exception):
    """Fatal configuration problem in the gazetteer tables."""


@dataclass(frozen=True)
class CountryEntry:
    iso2: str
    canonical_name: str
    aliases: frozenset[str]


@dataclass(frozen=True)
class ComponentPartEntry:
    part_name: str
    abbreviations: frozenset[str]
    parent_iso2: str


@dataclass(frozen=True)
class Interpretation:
    """One meaning of a key.

    ``abbreviation`` is set for a part matched by one of its abbreviations
    rather than its name; the matcher accepts those only at the end of a
    segment or before a number.
    """

    kind: str  # "country" or "part"
    iso2: str
    part_name: Optional[str] = None
    abbreviation: bool = False


@dataclass(frozen=True)
class KeyEntry:
    """Everything a normalized key can mean, in preference order.

    Plain keys have one interpretation and no markers; entries of the
    ambiguity table have two or more.
    """

    token: str
    interpretations: tuple[Interpretation, ...]
    context_markers: frozenset[str]


def default_data_dir() -> Path:
    """Directory of the tables shipped with the package."""
    return Path(str(importlib.resources.files("ircmap") / "data"))


def _read_table(path: Path, n_fields_min: int, n_fields_max: int):
    """Yield (line_number, fields) for each non-comment line of a table."""
    if not path.is_file():
        raise GazetteerError(f"{path}: missing table file")
    try:
        text = path.read_text(encoding="utf-8")
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

    ``keys`` maps every normalized key to its :class:`KeyEntry`: the
    ambiguity table's entries as they are, and each plain country and part
    key as a single interpretation.  ``country_key_map``, ``part_key_map``
    and ``ambiguity`` split the same keys into three disjoint maps.
    """

    def __init__(
        self,
        countries: dict[str, CountryEntry],
        parts: tuple[ComponentPartEntry, ...],
        country_keys: dict[str, str],
        part_keys: dict[str, tuple[str, str, bool]],
        ambiguity: dict[str, KeyEntry],
    ):
        self.countries: Mapping[str, CountryEntry] = MappingProxyType(countries)
        self.parts = parts
        self.country_key_map: Mapping[str, str] = MappingProxyType(country_keys)
        self.part_key_map: Mapping[str, tuple[str, str, bool]] = MappingProxyType(part_keys)
        self.ambiguity: Mapping[str, KeyEntry] = MappingProxyType(ambiguity)
        keys = {
            key: KeyEntry(key, (Interpretation("country", iso2),), frozenset())
            for key, iso2 in country_keys.items()
        }
        for key, (parent, part_name, is_abbrev) in part_keys.items():
            keys[key] = KeyEntry(
                key, (Interpretation("part", parent, part_name, is_abbrev),), frozenset()
            )
        keys.update(ambiguity)
        self.keys: Mapping[str, KeyEntry] = MappingProxyType(keys)


def build_gazetteer(data_dir: Path | str, include_extension: bool = False) -> Gazetteer:
    """Load and validate the gazetteer tables under ``data_dir``.

    Aborts with :class:`GazetteerError` (naming file and line) on missing or
    malformed tables and on duplicate normalized keys not covered by the
    ambiguity table.
    """
    data_dir = Path(data_dir)

    # Duplicate keys are collected here and only become fatal after the
    # ambiguity table has had a chance to claim them.
    conflicts: dict[str, str] = {}

    countries: dict[str, CountryEntry] = {}
    country_keys: dict[str, str] = {}
    country_key_origin: dict[str, str] = {}
    countries_path = data_dir / COUNTRIES_FILE
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
        keys = {token_key(canonical)}
        keys.update(token_key(a) for a in raw_aliases if a.strip())
        keys.discard("")
        if not keys:
            raise GazetteerError(f"{countries_path}:{lineno}: no usable name for {iso2}")
        for key in sorted(keys):
            other = country_keys.get(key)
            if other is not None and other != iso2:
                conflicts[key] = (
                    f"{COUNTRIES_FILE}:{lineno}: alias {key!r} maps to both "
                    f"{other} ({country_key_origin[key]}) and {iso2}"
                )
                continue
            country_keys[key] = iso2
            country_key_origin[key] = f"{COUNTRIES_FILE}:{lineno}"
        countries[iso2] = CountryEntry(iso2, canonical, frozenset(keys))

    parts: list[ComponentPartEntry] = []
    part_keys: dict[str, tuple[str, str, bool]] = {}
    part_key_origin: dict[str, str] = {}
    part_files = [data_dir / PARTS_FILE]
    if include_extension:
        part_files.append(data_dir / PARTS_EXTENSION_FILE)
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
            entry = ComponentPartEntry(
                part_name, frozenset(token_key(a) for a in abbrevs), parent
            )
            parts.append(entry)
            keyed = [(token_key(part_name), False)]
            keyed += [(token_key(a), True) for a in abbrevs]
            for key, is_abbrev in keyed:
                if not key:
                    raise GazetteerError(f"{path}:{lineno}: empty key for part {part_name!r}")
                other = part_keys.get(key)
                if other is not None and (other[0], other[1]) != (parent, part_name):
                    conflicts[key] = (
                        f"{path.name}:{lineno}: key {key!r} maps to both "
                        f"{other[1]} ({part_key_origin[key]}) and {part_name}"
                    )
                    continue
                if key not in part_keys:
                    part_keys[key] = (parent, part_name, is_abbrev)
                    part_key_origin[key] = f"{path.name}:{lineno}"

    ambiguity: dict[str, KeyEntry] = {}
    ambiguity_path = data_dir / AMBIGUITY_FILE
    for lineno, fields in _read_table(ambiguity_path, 2, 3):
        token = token_key(fields[0])
        if not token:
            raise GazetteerError(f"{ambiguity_path}:{lineno}: empty token")
        if token in ambiguity:
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
                interps.append(Interpretation("country", iso2))
            elif pieces[0] == "part" and len(pieces) == 3:
                iso2 = pieces[1].strip().upper()
                name = pieces[2].strip()
                exists = any(p.part_name == name and p.parent_iso2 == iso2 for p in parts)
                if not exists:
                    # Interpretations pointing at a table that is not loaded
                    # (e.g. the extension file) are dropped, not fatal.
                    continue
                interps.append(Interpretation("part", iso2, name, token != token_key(name)))
            else:
                raise GazetteerError(
                    f"{ambiguity_path}:{lineno}: bad interpretation {item!r}"
                )
        if len(interps) < 2:
            continue  # nothing left to disambiguate
        markers = frozenset(
            token_key(m) for m in (fields[2].split("|") if len(fields) == 3 else []) if m.strip()
        ) - {""}
        ambiguity[token] = KeyEntry(token, tuple(interps), markers)

    # Any duplicate key, within a table or across the two tables, must be
    # disambiguated explicitly.
    unresolved = {key: msg for key, msg in conflicts.items() if key not in ambiguity}
    if unresolved:
        first = next(iter(unresolved.values()))
        raise GazetteerError(f"{first}; add an ambiguity entry or remove one")
    overlap = set(country_keys) & set(part_keys)
    uncovered = sorted(overlap - set(ambiguity))
    if uncovered:
        raise GazetteerError(
            f"{data_dir}: tokens present in both the country and component-part "
            f"tables but missing from {AMBIGUITY_FILE}: {uncovered}"
        )
    # Ambiguity entries own their token; drop it from the plain maps so every
    # plain key stays single-valued.
    for token in ambiguity:
        country_keys.pop(token, None)
        part_keys.pop(token, None)

    return Gazetteer(countries, tuple(parts), country_keys, part_keys, ambiguity)
