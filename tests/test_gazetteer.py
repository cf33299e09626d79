from __future__ import annotations

import shutil

import pytest

from ircmap.gazetteer import (
    AMBIGUITY_FILE,
    COUNTRIES_FILE,
    PARTS_FILE,
    GazetteerError,
    Interpretation,
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
