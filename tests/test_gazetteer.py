from __future__ import annotations

import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircmap.gazetteer import (
    AMBIGUITY_FILE,
    COUNTRIES_FILE,
    PARTS_EXTENSION_FILE,
    PARTS_FILE,
    ComponentPartEntry,
    CountryEntry,
    GazetteerError,
    Interpretation,
    KeyEntry,
    _read_table,
    build_gazetteer,
)
from ircmap.ingest import token_key

from support import preferred


def _table_rows(path):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            rows.append(line.split("\t"))
    return rows


class TestBuild:
    def test_entry_counts_match_independent_file_recount(self, gazetteer, data_dir):
        country_rows = _table_rows(data_dir / COUNTRIES_FILE)
        part_rows = _table_rows(data_dir / PARTS_FILE)
        assert len(gazetteer.countries) == len(country_rows)
        assert len(gazetteer.parts) == len(part_rows)
        assert len(gazetteer.countries) >= 193
        us_parts = [p for p in gazetteer.parts if p.parent_iso2 == "US"]
        gb_parts = [p for p in gazetteer.parts if p.parent_iso2 == "GB"]
        assert len(us_parts) >= 51
        assert len(gb_parts) == 4
        assert {p.part_name for p in gb_parts} == {
            "England", "Scotland", "Wales", "Northern Ireland",
        }

    def test_usa_alias_present_in_authored_table(self, data_dir, gazetteer):
        us_rows = [row for row in _table_rows(data_dir / COUNTRIES_FILE) if row[0] == "US"]
        assert len(us_rows) == 1
        aliases = us_rows[0][2].split("|")
        assert "USA" in aliases
        assert gazetteer.keys["usa"].interpretations == (Interpretation("country", "US"),)

    def test_missing_parts_file_is_fatal(self, data_dir, tmp_path):
        work = tmp_path / "tables"
        shutil.copytree(data_dir, work)
        (work / PARTS_FILE).unlink()
        with pytest.raises(GazetteerError, match="missing table file"):
            build_gazetteer(work)

    def test_duplicate_alias_without_ambiguity_entry_aborts(self, tmp_path):
        work = tmp_path / "tables"
        work.mkdir()
        (work / COUNTRIES_FILE).write_text(
            "CA\tCanada\tCAN\nXX\tExampleland\tcanada\n", encoding="utf-8"
        )
        (work / PARTS_FILE).write_text("", encoding="utf-8")
        (work / AMBIGUITY_FILE).write_text("", encoding="utf-8")
        with pytest.raises(GazetteerError, match="canada"):
            build_gazetteer(work)

    def test_malformed_line_reports_file_and_line(self, tmp_path):
        work = tmp_path / "tables"
        work.mkdir()
        (work / COUNTRIES_FILE).write_text("CA\n", encoding="utf-8")
        (work / PARTS_FILE).write_text("", encoding="utf-8")
        (work / AMBIGUITY_FILE).write_text("", encoding="utf-8")
        with pytest.raises(GazetteerError, match=r"countries\.tsv:1"):
            build_gazetteer(work)

    def test_unknown_parent_country_aborts(self, tmp_path):
        work = tmp_path / "tables"
        work.mkdir()
        (work / COUNTRIES_FILE).write_text("US\tUnited States\tUSA\n", encoding="utf-8")
        (work / PARTS_FILE).write_text("Narnia Province\tNP\tZZ\n", encoding="utf-8")
        (work / AMBIGUITY_FILE).write_text("", encoding="utf-8")
        with pytest.raises(GazetteerError, match="ZZ"):
            build_gazetteer(work)

    def test_deterministic_across_builds(self, data_dir):
        first = build_gazetteer(data_dir)
        second = build_gazetteer(data_dir)
        assert dict(first.country_key_map) == dict(second.country_key_map)
        assert dict(first.part_key_map) == dict(second.part_key_map)
        assert set(first.ambiguity) == set(second.ambiguity)
        assert dict(first.keys) == dict(second.keys)


def _write_tables(work, countries="", parts="", extension=None, ambiguity=""):
    work.mkdir(exist_ok=True)
    (work / COUNTRIES_FILE).write_text(countries, encoding="utf-8")
    (work / PARTS_FILE).write_text(parts, encoding="utf-8")
    (work / AMBIGUITY_FILE).write_text(ambiguity, encoding="utf-8")
    if extension is not None:
        (work / PARTS_EXTENSION_FILE).write_text(extension, encoding="utf-8")
    return work


class TestConflictMessages:
    """A key with two meanings and no ambiguity entry names both lines."""

    def test_country_and_country(self, tmp_path):
        work = _write_tables(tmp_path / "t", countries="CA\tCanada\tCAN\nXX\tExampleland\tcanada\n")
        message = "countries.tsv:2: key 'canada' means both CA (countries.tsv:1) and XX; add an ambiguity entry"
        with pytest.raises(GazetteerError, match=re.escape(message)):
            build_gazetteer(work)

    def test_part_and_part(self, tmp_path):
        work = _write_tables(
            tmp_path / "t",
            countries="US\tUnited States\tUSA\n",
            parts="Massachusetts\tMA|Mass\tUS\nMaine\tME|MA\tUS\n",
        )
        message = (
            "component_parts.tsv:2: key 'ma' means both Massachusetts (component_parts.tsv:1) and Maine; "
            "add an ambiguity entry"
        )
        with pytest.raises(GazetteerError, match=re.escape(message)):
            build_gazetteer(work)

    def test_country_and_part(self, tmp_path):
        work = _write_tables(
            tmp_path / "t",
            countries="US\tUnited States\tUSA\nGE\tGeorgia\tGEO\n",
            parts="Georgia\tGA\tUS\n",
        )
        message = (
            "component_parts.tsv:1: key 'georgia' means both GE (countries.tsv:2) and Georgia; "
            "add an ambiguity entry"
        )
        with pytest.raises(GazetteerError, match=re.escape(message)):
            build_gazetteer(work)

    def test_part_in_extension_and_country(self, tmp_path):
        work = _write_tables(
            tmp_path / "t",
            countries="AU\tAustralia\tAUS\nWW\tWestland\tWA\n",
            extension="Western Australia\tWA\tAU\n",
        )
        assert "wa" in build_gazetteer(work).country_key_map
        message = "component_parts_extension.tsv:1: key 'wa' means both WW (countries.tsv:2) and Western Australia"
        with pytest.raises(GazetteerError, match=re.escape(message)):
            build_gazetteer(work, include_extension=True)

    def test_ambiguity_entry_claims_the_key(self, tmp_path):
        work = _write_tables(
            tmp_path / "t",
            countries="US\tUnited States\tUSA\nGE\tGeorgia\tGEO\n",
            parts="Georgia\tGA\tUS\n",
            ambiguity="georgia\tcountry:GE|part:US:Georgia\tatlanta\n",
        )
        g = build_gazetteer(work)
        assert g.keys["georgia"] == KeyEntry(
            "georgia",
            (Interpretation("country", "GE"), Interpretation("part", "US", "Georgia")),
            frozenset({"atlanta"}),
        )
        assert dict(g.ambiguity) == {"georgia": g.keys["georgia"]}
        assert "georgia" not in g.country_key_map and "georgia" not in g.part_key_map


def _oracle_build(data_dir, include_extension=False):
    """Reference for ``build_gazetteer``: the builder that kept three maps.

    It checks conflicts within each table, then across the two tables, and
    pops the ambiguity table's tokens from the plain maps.  Returns
    ``(countries, parts, country_keys, part_keys, ambiguity, keys)``.
    """
    conflicts = {}
    countries, country_keys = {}, {}
    for lineno, fields in _read_table(data_dir / COUNTRIES_FILE, 2, 3):
        iso2 = fields[0].strip().upper()
        canonical = fields[1].strip()
        if len(iso2) != 2 or not iso2.isalpha() or iso2 in countries or not canonical:
            raise GazetteerError(f"bad country line {lineno}")
        raw_aliases = fields[2].split("|") if len(fields) == 3 and fields[2].strip() else []
        keys = {token_key(canonical)}
        keys.update(token_key(a) for a in raw_aliases if a.strip())
        keys.discard("")
        if not keys:
            raise GazetteerError(f"no usable name on line {lineno}")
        for key in sorted(keys):
            other = country_keys.get(key)
            if other is not None and other != iso2:
                conflicts[key] = "country conflict"
                continue
            country_keys[key] = iso2
        countries[iso2] = CountryEntry(iso2, canonical)

    parts, part_keys = [], {}
    part_files = [data_dir / PARTS_FILE] + ([data_dir / PARTS_EXTENSION_FILE] if include_extension else [])
    for path in part_files:
        for lineno, fields in _read_table(path, 3, 3):
            part_name = fields[0].strip()
            abbrevs = [a for a in fields[1].split("|") if a.strip()]
            parent = fields[2].strip().upper()
            if not part_name or parent not in countries:
                raise GazetteerError(f"bad part line {lineno}")
            parts.append(ComponentPartEntry(part_name, frozenset(token_key(a) for a in abbrevs), parent))
            keyed = [(token_key(part_name), False)] + [(token_key(a), True) for a in abbrevs]
            for key, is_abbrev in keyed:
                if not key:
                    raise GazetteerError(f"empty part key on line {lineno}")
                other = part_keys.get(key)
                if other is not None and (other[0], other[1]) != (parent, part_name):
                    conflicts[key] = "part conflict"
                    continue
                if key not in part_keys:
                    part_keys[key] = (parent, part_name, is_abbrev)

    ambiguity = {}
    for lineno, fields in _read_table(data_dir / AMBIGUITY_FILE, 2, 3):
        token = token_key(fields[0])
        if not token or token in ambiguity:
            raise GazetteerError(f"bad ambiguity token on line {lineno}")
        interps = []
        for item in fields[1].split("|"):
            item = item.strip()
            if not item:
                continue
            pieces = item.split(":")
            if pieces[0] == "country" and len(pieces) == 2:
                iso2 = pieces[1].strip().upper()
                if iso2 not in countries:
                    raise GazetteerError(f"unknown country on line {lineno}")
                interps.append(Interpretation("country", iso2))
            elif pieces[0] == "part" and len(pieces) == 3:
                iso2 = pieces[1].strip().upper()
                name = pieces[2].strip()
                if any(p.part_name == name and p.parent_iso2 == iso2 for p in parts):
                    interps.append(Interpretation("part", iso2, name, token != token_key(name)))
            else:
                raise GazetteerError(f"bad interpretation on line {lineno}")
        if len(interps) < 2:
            continue
        markers = frozenset(
            token_key(m) for m in (fields[2].split("|") if len(fields) == 3 else []) if m.strip()
        ) - {""}
        ambiguity[token] = KeyEntry(token, tuple(interps), markers)

    if set(conflicts) - set(ambiguity) or (set(country_keys) & set(part_keys)) - set(ambiguity):
        raise GazetteerError("duplicate key not covered by the ambiguity table")
    for token in ambiguity:
        country_keys.pop(token, None)
        part_keys.pop(token, None)
    keys = {key: KeyEntry(key, (Interpretation("country", iso2),), frozenset()) for key, iso2 in country_keys.items()}
    for key, (parent, part_name, is_abbrev) in part_keys.items():
        keys[key] = KeyEntry(key, (Interpretation("part", parent, part_name, is_abbrev),), frozenset())
    keys.update(ambiguity)
    return countries, tuple(parts), country_keys, part_keys, ambiguity, keys


#: A vocabulary small enough that names, aliases, abbreviations and
#: ambiguity tokens keep colliding.
_CODES = ["AA", "BB", "CC"]
_NAMES = ["Alba", "Bora", "Alba Bora", "AB", "Cora"]
_names = st.sampled_from(_NAMES)
_alias = st.one_of(st.just(""), _names)


@st.composite
def _tables(draw):
    """Rows for the four tables.  Parents and interpretations come from the
    codes and parts drawn, plus one part that may not be loaded; ambiguity
    tokens come from the names the tables use."""
    codes = draw(st.lists(st.sampled_from(_CODES), min_size=1, max_size=3, unique=True))
    countries = [(code, draw(_names), draw(_alias)) for code in codes]
    part_rows = st.lists(st.tuples(_names, _alias, st.sampled_from(codes)), max_size=2)
    parts, extension = draw(part_rows), draw(part_rows)
    named_parts = sorted({(code, name) for name, _, code in parts + extension} | {("CC", "Cora")})
    interpretation = st.one_of(
        st.sampled_from(codes).map("country:{}".format),
        st.sampled_from(named_parts).map("part:{0[0]}:{0[1]}".format),
    )
    interpretations = st.lists(interpretation, min_size=1, max_size=3).map("|".join)
    used = sorted({name for row in countries + parts + extension for name in row if name in _NAMES})
    ambiguity = draw(st.lists(st.tuples(st.sampled_from(used), interpretations, _alias), max_size=3))
    return countries, parts, extension, ambiguity


def _tsv(rows):
    return "".join("\t".join(row) + "\n" for row in rows)


class TestAgainstOracle:
    @settings(max_examples=500, deadline=None)
    @given(tables=_tables(), include_extension=st.booleans())
    def test_same_tables_as_three_map_builder(self, tables, include_extension):
        with tempfile.TemporaryDirectory() as tmp:
            work = _write_tables(Path(tmp), *map(_tsv, tables))
            try:
                expected = _oracle_build(work, include_extension)
            except GazetteerError:
                with pytest.raises(GazetteerError):
                    build_gazetteer(work, include_extension)
                return
            g = build_gazetteer(work, include_extension)
        countries_, parts_, country_keys, part_keys, ambiguity_, keys = expected
        assert dict(g.countries) == countries_
        assert g.parts == parts_
        assert dict(g.country_key_map) == country_keys
        assert dict(g.part_key_map) == part_keys
        assert dict(g.ambiguity) == ambiguity_
        assert dict(g.keys) == keys

    @pytest.mark.parametrize("include_extension", [False, True])
    def test_shipped_tables_equal_the_oracle(self, data_dir, include_extension):
        g = build_gazetteer(data_dir, include_extension)
        countries, parts, country_keys, part_keys, ambiguity, keys = _oracle_build(data_dir, include_extension)
        assert (dict(g.countries), g.parts) == (countries, parts)
        assert (dict(g.country_key_map), dict(g.part_key_map)) == (country_keys, part_keys)
        assert (dict(g.ambiguity), dict(g.keys)) == (ambiguity, keys)


class TestLookups:
    def test_canonical_name_identity(self, gazetteer):
        assert gazetteer.keys["canada"].interpretations == (Interpretation("country", "CA"),)

    def test_institution_is_not_a_country(self, gazetteer):
        assert "mcgill university" not in gazetteer.keys

    def test_uk_nation_resolves_to_gb(self, gazetteer):
        assert gazetteer.keys["scotland"].interpretations == (
            Interpretation("part", "GB", "Scotland"),
        )

    def test_usps_code(self, gazetteer):
        assert gazetteer.keys["ma"].interpretations == (
            Interpretation("part", "US", "Massachusetts", abbreviation=True),
        )

    def test_absent_token(self, gazetteer):
        assert "atlantis" not in gazetteer.keys

    def test_ambiguous_token_prefers_country(self, gazetteer):
        assert gazetteer.keys["georgia"].interpretations == (
            Interpretation("country", "GE"),
            Interpretation("part", "US", "Georgia"),
        )


class TestInvariants:
    def test_every_canonical_name_resolves(self, gazetteer):
        for iso2, entry in gazetteer.countries.items():
            hit = preferred(gazetteer, token_key(entry.canonical_name), "country")
            assert hit is not None, entry.canonical_name
            assert hit.iso2 == iso2

    def test_every_part_name_and_abbreviation_resolves(self, gazetteer):
        for part in gazetteer.parts:
            keys = {token_key(part.part_name)} | set(part.abbreviations)
            for key in keys:
                hit = preferred(gazetteer, key, "part")
                assert hit is not None, key
                assert hit.iso2 == part.parent_iso2

    @pytest.mark.parametrize("include_extension", [False, True])
    def test_abbreviation_flag_marks_keys_other_than_the_name(self, data_dir, include_extension):
        g = build_gazetteer(data_dir, include_extension=include_extension)
        for key, entry in g.keys.items():
            for interp in entry.interpretations:
                expected = interp.kind == "part" and key != token_key(interp.part_name)
                assert interp.abbreviation == expected, (key, interp)

    def test_known_tokens_never_vanish(self, gazetteer):
        known = set(gazetteer.country_key_map) | set(gazetteer.part_key_map) | set(gazetteer.ambiguity)
        assert set(gazetteer.keys) == known
        for token, entry in gazetteer.keys.items():
            assert entry.token == token
            assert entry.interpretations, token
            assert (len(entry.interpretations) > 1) == (token in gazetteer.ambiguity), token

    def test_alias_uniqueness_in_plain_maps(self, gazetteer):
        # The ambiguity table owns contested tokens; the plain maps never share.
        assert not set(gazetteer.country_key_map) & set(gazetteer.part_key_map)

    def test_extension_adds_wa_ambiguity(self, data_dir):
        extended = build_gazetteer(data_dir, include_extension=True)
        assert "wa" in extended.ambiguity
        assert preferred(extended, "wa", "part") == Interpretation(
            "part", "US", "Washington", abbreviation=True
        )
        assert preferred(extended, "nsw", "part") == Interpretation(
            "part", "AU", "New South Wales", abbreviation=True
        )
