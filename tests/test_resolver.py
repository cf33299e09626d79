from __future__ import annotations

import functools
import threading
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ircmap.resolver as resolver_module
from ircmap.gazetteer import Gazetteer, Interpretation, KeyEntry, build_gazetteer, default_data_dir
from ircmap.ingest import AffiliationMention, BibRecord, normalize_affiliation, token_key
from ircmap.resolver import (
    Category,
    Outcome,
    check_outcome,
    match_step1,
    resolve,
    resolve_corpus,
    wikidata_fragments,
)
from ircmap.wikidata import CacheStore, Mode, TransportResponse

from support import ReplayTransport


def _mention(raw, paper="p", idx=0):
    return AffiliationMention(paper, idx, raw)


def _record(paper_id, raws, year=None):
    return BibRecord(
        paper_id=paper_id,
        year=year,
        mentions=tuple(AffiliationMention(paper_id, i, raw) for i, raw in enumerate(raws)),
    )


class TestMatchStep1:
    def test_country_at_end_of_string(self, gazetteer):
        n = normalize_affiliation(
            "school of im, victoria university of wellington, wellington, new zealand"
        )
        hit = match_step1(n, gazetteer)
        assert (hit.iso2, hit.category, hit.evidence) == ("NZ", Category.COUNTRY_NAME, "new zealand")

    def test_state_abbreviation(self, gazetteer):
        hit = match_step1(normalize_affiliation("cambridge, ma"), gazetteer)
        assert (hit.iso2, hit.category, hit.evidence) == ("US", Category.COMPONENT_PART, "Massachusetts")

    def test_institution_only_matches_nothing(self, gazetteer):
        assert match_step1(normalize_affiliation("mcgill university"), gazetteer) is None

    def test_rightmost_location_wins(self, gazetteer):
        # Both France and Canada appear; the string ends with Canada.
        n = normalize_affiliation("institut france, montreal, canada")
        assert match_step1(n, gazetteer).iso2 == "CA"

    def test_longer_part_shadows_country_suffix(self, gazetteer):
        cases = {
            "princeton, new jersey": ("US", "New Jersey"),
            "albuquerque, new mexico": ("US", "New Mexico"),
            "belfast, northern ireland": ("GB", "Northern Ireland"),
        }
        for text, (iso2, part) in cases.items():
            hit = match_step1(normalize_affiliation(text), gazetteer)
            assert (hit.iso2, hit.category, hit.evidence) == (iso2, Category.COMPONENT_PART, part), text

    def test_country_beats_part_of_equal_length(self, gazetteer):
        # "georgia" is both; with no US context the country interpretation wins.
        hit = match_step1(normalize_affiliation("tbilisi, georgia"), gazetteer)
        assert (hit.iso2, hit.category, hit.ambiguous) == ("GE", Category.COUNTRY_NAME, True)

    def test_context_marker_flips_to_us_state(self, gazetteer):
        hit = match_step1(normalize_affiliation("atlanta, georgia"), gazetteer)
        assert (hit.iso2, hit.category, hit.evidence, hit.ambiguous) == (
            "US", Category.COMPONENT_PART, "Georgia", True,
        )

    def test_abbreviation_needs_terminal_position(self, gazetteer):
        # "de", "in", "la" inside names must not match as US states.
        for text in ("universidade de sao paulo", "institute for research in computing", "universidad de la republica"):
            assert match_step1(normalize_affiliation(text), gazetteer) is None, text

    def test_abbreviation_before_postal_code(self, gazetteer):
        hit = match_step1(normalize_affiliation("pittsburgh pa 15213"), gazetteer)
        assert (hit.iso2, hit.evidence) == ("US", "Pennsylvania")

    def test_full_names_match_mid_segment(self, gazetteer):
        hit = match_step1(normalize_affiliation("university of texas at austin"), gazetteer)
        assert (hit.iso2, hit.evidence) == ("US", "Texas")

    def test_null_like_is_out_of_scope(self, gazetteer):
        # match_step1 requires a non-null normalized affiliation.
        n = normalize_affiliation("canada")
        assert n.null_like is False
        assert match_step1(n, gazetteer) is not None

    def test_extension_parts_disambiguate_wa(self, data_dir):
        from ircmap.gazetteer import build_gazetteer

        extended = build_gazetteer(data_dir, include_extension=True)
        seattle = match_step1(normalize_affiliation("seattle, wa"), extended)
        assert (seattle.iso2, seattle.evidence, seattle.ambiguous) == ("US", "Washington", True)
        perth = match_step1(normalize_affiliation("curtin university, perth, wa"), extended)
        assert (perth.iso2, perth.evidence, perth.ambiguous) == ("AU", "Western Australia", True)
        sydney = match_step1(normalize_affiliation("sydney, nsw"), extended)
        assert (sydney.iso2, sydney.evidence) == ("AU", "New South Wales")


def _oracle_match_step1(n, g):
    """Reference for ``match_step1``: the two-scan matcher it replaced.

    Countries are tried over the whole string before component parts; within
    one end position a strictly longer part match shadows a country match.
    It reads only the plain key maps and the ambiguity table.
    """

    def has_country_key(token):
        entry = g.ambiguity.get(token)
        if entry is not None:
            return any(i.part_name is None for i in entry.interpretations)
        return token in g.country_key_map

    def has_part_key(token):
        entry = g.ambiguity.get(token)
        if entry is not None:
            return any(i.part_name is not None for i in entry.interpretations)
        return token in g.part_key_map

    def part_is_abbreviation(token, part_name):
        hit = g.part_key_map.get(token)
        if hit is not None and hit[1] == part_name:
            return hit[2]
        return token != token_key(part_name)

    def _longest_hit(tokens, end, check):
        for length in range(min(3, end + 1), 0, -1):
            window = " ".join(tokens[end - length + 1 : end + 1])
            if check(window):
                return length, window
        return 0, ""

    def pick_interpretation(window, joined):
        entry = g.ambiguity[window]
        padded = f" {joined} "
        flip = any(f" {marker} " in padded for marker in entry.context_markers)
        order = entry.interpretations[1:] + entry.interpretations[:1] if flip else entry.interpretations
        return order[0]

    seg_tokens = [seg.split() for seg in reversed(n.segments)]
    joined = " ".join(n.tokens)

    for tokens in seg_tokens:
        for end in range(len(tokens) - 1, -1, -1):
            c_len, c_win = _longest_hit(tokens, end, has_country_key)
            if not c_len:
                continue
            p_len, _ = _longest_hit(tokens, end, has_part_key)
            if p_len > c_len:
                continue
            if c_win in g.ambiguity:
                interp = pick_interpretation(c_win, joined)
                if interp.part_name is None:
                    return Outcome(Category.COUNTRY_NAME, interp.iso2, c_win, True)
                return Outcome(
                    Category.COMPONENT_PART, interp.iso2, interp.part_name or c_win, True
                )
            return Outcome(Category.COUNTRY_NAME, g.country_key_map[c_win], c_win, False)

    for tokens in seg_tokens:
        for end in range(len(tokens) - 1, -1, -1):
            p_len, p_win = _longest_hit(tokens, end, has_part_key)
            if not p_len:
                continue
            ambiguous = p_win in g.ambiguity
            if ambiguous:
                interp = pick_interpretation(p_win, joined)
                if interp.part_name is None:
                    continue
                parent, part_name = interp.iso2, interp.part_name or p_win
            else:
                parent, part_name, _ = g.part_key_map[p_win]
            if part_is_abbreviation(p_win, part_name):
                at_segment_end = end == len(tokens) - 1
                before_number = end + 1 < len(tokens) and tokens[end + 1].isdigit()
                if not (at_segment_end or before_number):
                    continue
            return Outcome(Category.COMPONENT_PART, parent, part_name, ambiguous)

    return None


@functools.cache
def _gazetteer_for(include_extension):
    return build_gazetteer(default_data_dir(), include_extension=include_extension)


#: Tokens that sit inside institution names, or start or end multi-token keys.
_NOISE = "de in al la new south north guinea washington university of institute".split()


def _affiliations(g):
    """Comma-separated strings of gazetteer keys, their words, markers, noise and numbers."""
    parts = sorted(set(g.part_key_map) | set(g.ambiguity))
    words = sorted({word for key in g.keys for word in key.split()})
    markers = sorted({m for entry in g.ambiguity.values() for m in entry.context_markers})
    token = st.one_of(
        st.sampled_from(sorted(g.country_key_map)),
        st.sampled_from(parts),
        st.sampled_from(words),
        st.sampled_from(_NOISE + markers),
        st.integers(0, 99999).map(str),
    )
    segment = st.lists(token, min_size=1, max_size=5).map(" ".join)
    return st.lists(segment, min_size=1, max_size=4).map(", ".join)


class TestMatchStep1AgainstOracle:
    @pytest.mark.parametrize("include_extension", [False, True])
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_same_match_as_two_scan_oracle(self, include_extension, data):
        g = _gazetteer_for(include_extension)
        n = normalize_affiliation(data.draw(_affiliations(g)))
        assume(not n.null_like)
        assert match_step1(n, g) == _oracle_match_step1(n, g), n.cleaned


@pytest.mark.parametrize("include_extension", [False, True])
def test_every_key_alone_last_and_before_a_number(include_extension):
    """Every gazetteer key, in the three places where a part abbreviation
    counts, matches as the oracle says; one of up to ``MAX_WINDOW`` tokens
    always matches, with an outcome that passes the check."""
    g = _gazetteer_for(include_extension)
    for key in g.keys:
        for text in (key, f"lab of zzqx, {key}", f"{key} 12345"):
            n = normalize_affiliation(text)
            outcome = match_step1(n, g)
            assert outcome == _oracle_match_step1(n, g), text
            if len(key.split()) <= resolver_module.MAX_WINDOW:
                assert outcome is not None, text
            if outcome is not None:
                check_outcome(*outcome[:3])


class TestWikidataFragments:
    def test_last_segment_first_and_raw_casing(self):
        fragments = wikidata_fragments("Dept. of CS, McGill University#TAB#")
        assert fragments == ["McGill University", "Dept. of CS"]

    def test_short_and_stopword_segments_skipped(self):
        assert wikidata_fragments("of the, 12345, abc, Real Institute") == ["Real Institute"]

    def test_duplicates_dropped(self):
        assert wikidata_fragments("X Lab, X Lab") == ["X Lab"]

    def test_null_like_segments_skipped(self):
        assert wikidata_fragments("Quux Institute, (None)") == ["Quux Institute"]
        assert wikidata_fragments("(null), Quux Institute, NA.") == ["Quux Institute"]


class TestResolve:
    def test_null_like(self, gazetteer):
        resolution = resolve(_mention("NA"), gazetteer)
        assert resolution.category is Category.NULL_LIKE
        assert resolution.iso2 is None

    def test_mcgill_via_knowledge_graph(self, gazetteer, make_replay_client):
        client, _ = make_replay_client()
        resolution = resolve(_mention("McGill University"), gazetteer, client)
        assert resolution.category is Category.WIKIDATA
        assert resolution.iso2 == "CA"
        assert resolution.evidence == "mcgill university"

    def test_unknown_string_falls_through(self, gazetteer, make_replay_client):
        client, _ = make_replay_client()
        resolution = resolve(_mention("zzqx unknown institute"), gazetteer, client)
        assert resolution.category is Category.UNIDENTIFIED
        assert resolution.iso2 is None

    def test_multi_country_answer_is_no_answer(self, gazetteer, make_replay_client):
        client, _ = make_replay_client()
        resolution = resolve(_mention("National Research Council"), gazetteer, client)
        assert resolution.category is Category.UNIDENTIFIED

    def test_transport_error_degrades_with_note(self, gazetteer, make_replay_client):
        client, _ = make_replay_client()
        resolution = resolve(_mention("Completely Unrecorded Institute"), gazetteer, client)
        assert resolution.category is Category.UNIDENTIFIED
        assert "transport error" in resolution.evidence

    def test_later_fragment_can_identify(self, gazetteer, make_replay_client):
        client, _ = make_replay_client()
        resolution = resolve(_mention("Canberra, ACT 2601"), gazetteer, client)
        assert (resolution.category, resolution.iso2) == (Category.WIKIDATA, "AU")

    def test_without_client_unidentified(self, gazetteer):
        resolution = resolve(_mention("McGill University"), gazetteer, None)
        assert resolution.category is Category.UNIDENTIFIED


class TestResolveCorpus:
    @pytest.mark.parametrize("step", ["step1", "step2"])
    def test_every_outcome_is_checked(self, gazetteer, monkeypatch, step):
        """An outcome that breaks the rule, from either step, stops the run before its row is yielded.

        A gazetteer key's outcome is checked as the key's step-1 entry is
        built, whether or not a string meets the key; a knowledge-graph
        outcome as it enters the memo.
        """
        if step == "step1":
            # A country key with no evidence to name.
            bad = KeyEntry((Interpretation("XX"),), frozenset())
            gazetteer = Gazetteer({}, {"": bad}, ())
        else:
            monkeypatch.setattr(resolver_module, "_step2", lambda misses, client, lookup=map: {
                cleaned: Outcome(Category.WIKIDATA, "CA", "", False) for cleaned in misses})
        with pytest.raises(ValueError):
            list(resolve_corpus([_record("p1", ["Somewhere"])], gazetteer))

    def test_step1_hits_never_touch_the_client(self, gazetteer, make_replay_client):
        client, transport = make_replay_client()
        records = [
            _record("p1", ["MIT, Cambridge, MA, USA", "Oxford, UK"]),
            _record("p2", ["ETH Zurich, Switzerland", "Kyoto, Japan"]),
        ]
        resolutions = list(resolve_corpus(records, gazetteer, client))
        assert all(r.category is Category.COUNTRY_NAME for r in resolutions)
        assert transport.calls == 0

    @pytest.mark.parametrize("jobs", [1, 8])
    def test_one_query_per_unique_normalized_fragment(self, gazetteer, make_replay_client, jobs):
        client, transport = make_replay_client()
        raws = [
            "McGill University",
            "MCGILL UNIVERSITY",
            "University of Oxford",
            "McGill  University",
            "University of Oxford",
            "ETH Zurich",
            # Fragments shared with the misses above, asked for in a later round.
            "McGill University, Unknown Institute of Advanced Phrenology",
            "ETH Zurich, National Research Council",
            "Unknown Institute of Advanced Phrenology, Kyoto University",
        ]
        resolutions = list(resolve_corpus([_record("p", raws)], gazetteer, client, jobs=jobs))
        assert transport.calls == 6
        assert [r.iso2 for r in resolutions] == ["CA", "CA", "GB", "CA", "GB", "CH", "CA", "CH", "JP"]

    def test_breakdown_matches_hand_labels(self, gazetteer, make_replay_client):
        client, _ = make_replay_client()
        raws = [
            "NA",
            "Stanford, CA, USA",
            "Paris, France",
            "Toronto, Canada",
            "Wellington, New Zealand",
            "Cambridge, MA",
            "Edinburgh, Scotland",
            "McGill University",
            "University of Oxford",
            "zzqx unknown institute",
        ]
        counts = Counter(r.category for r in resolve_corpus([_record("p", raws)], gazetteer, client))
        assert counts[Category.NULL_LIKE] == 1
        assert counts[Category.COUNTRY_NAME] == 4
        assert counts[Category.COMPONENT_PART] == 2
        assert counts[Category.WIKIDATA] == 2
        assert counts[Category.UNIDENTIFIED] == 1

    def test_memoization_transparency(self, gazetteer, make_replay_client):
        raws = [
            "McGill University",
            "MCGILL UNIVERSITY",
            "Toronto, Canada",
            "toronto, canada",
            "NA",
            "Cambridge, MA",
            "McGill University",
            "zzqx unknown institute",
        ]
        client_memo, _ = make_replay_client()
        memoized = list(resolve_corpus([_record("p", raws)], gazetteer, client_memo))
        client_plain, _ = make_replay_client()
        plain = [
            resolve(AffiliationMention("p", i, raw), gazetteer, client_plain)
            for i, raw in enumerate(raws)
        ]
        assert memoized == plain

    CHUNKED_RAWS = [
        ["Paris, France", "paris, france", "Paris, France"], ["NA"],  # chunk 1
        ["Paris, France", "NA", "NA", "McGill University"],  # chunk 2
        ["McGill University", "zzqx unknown institute", "Cambridge, MA"],  # chunk 3
    ]

    def test_each_raw_normalized_once_per_chunk(self, gazetteer, monkeypatch):
        calls = []
        real = resolver_module.normalize_affiliation

        def counting(raw):
            calls.append(raw)
            return real(raw)

        monkeypatch.setattr(resolver_module, "normalize_affiliation", counting)
        monkeypatch.setattr(resolver_module, "_CHUNK_SIZE", 4)
        records = [_record(f"p{i}", raws) for i, raws in enumerate(self.CHUNKED_RAWS)]
        resolutions = list(resolve_corpus(records, gazetteer, None))
        assert calls == ["Paris, France", "paris, france", "NA",
                         "Paris, France", "NA", "McGill University",
                         "McGill University", "zzqx unknown institute", "Cambridge, MA"]
        assert [r.raw for r in resolutions] == [raw for raws in self.CHUNKED_RAWS for raw in raws]

    def test_each_step_runs_once_per_distinct_string(self, gazetteer, monkeypatch):
        """Normalization runs once per distinct raw string of a chunk; step 1
        once per distinct non-null cleaned string of the whole run."""
        normalized, matched = [], []
        real_normalize, real_match = resolver_module.normalize_affiliation, resolver_module.match_step1

        def normalize(raw):
            normalized.append(raw)
            return real_normalize(raw)

        def match(n, g):
            matched.append(n.cleaned)
            return real_match(n, g)

        monkeypatch.setattr(resolver_module, "normalize_affiliation", normalize)
        monkeypatch.setattr(resolver_module, "match_step1", match)
        monkeypatch.setattr(resolver_module, "_CHUNK_SIZE", 5)
        chunks = [
            ["Paris, France", "PARIS, France", "Paris, France", "NA", "(null)"],
            ["paris ,france", "McGill University", "Paris, France", "N/A", "McGill University"],
            ["mcgill university", "Atlanta, Georgia", "Tbilisi, Georgia", "Atlanta, Georgia"],
        ]
        records = [_record(f"p{i}", raws) for i, raws in enumerate(chunks)]
        resolutions = list(resolve_corpus(records, gazetteer, None))
        assert normalized == [raw for raws in chunks for raw in dict.fromkeys(raws)]
        assert matched == ["paris, france", "mcgill university", "atlanta, georgia", "tbilisi, georgia"]
        assert [r.iso2 for r in resolutions] == [
            "FR", "FR", "FR", None, None, "FR", None, "FR", None, None, None, "US", "GE", "US"]

    def test_chunked_run_equals_per_mention_resolve(self, gazetteer, make_replay_client, monkeypatch):
        monkeypatch.setattr(resolver_module, "_CHUNK_SIZE", 4)
        records = [_record(f"p{i}", raws) for i, raws in enumerate(self.CHUNKED_RAWS)]
        runs = []
        for jobs in (1, 2):
            client, _ = make_replay_client()
            runs.append(list(resolve_corpus(records, gazetteer, client, jobs=jobs)))
        client, _ = make_replay_client()
        expected = [resolve(m, gazetteer, client) for record in records for m in record.mentions]
        assert runs[0] == runs[1] == expected
        assert {r.category for r in expected} == set(Category)

    def test_parallel_equals_sequential(self, gazetteer, make_replay_client):
        raws = [f"Institute {i % 7}, Canada" for i in range(200)] + ["McGill University"] * 3
        client_a, _ = make_replay_client()
        sequential = list(resolve_corpus([_record("p", raws)], gazetteer, client_a, jobs=1))
        client_b, _ = make_replay_client()
        parallel = list(resolve_corpus([_record("p", raws)], gazetteer, client_b, jobs=8))
        assert sequential == parallel

    def test_monotonic_knowledge_graph_enablement(self, gazetteer, make_replay_client):
        raws = [
            "NA",
            "Stanford, CA, USA",
            "Cambridge, MA",
            "McGill University",
            "zzqx unknown institute",
        ]
        without = list(resolve_corpus([_record("p", raws)], gazetteer, None))
        client, _ = make_replay_client()
        with_client = list(resolve_corpus([_record("p", raws)], gazetteer, client))
        for before, after in zip(without, with_client):
            if before.category is not Category.UNIDENTIFIED:
                assert before == after
            else:
                assert after.category in (Category.UNIDENTIFIED, Category.WIKIDATA)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["NA", "", "Paris, France", "Cambridge, MA", "Atlanta, Georgia",
                     "Tbilisi, Georgia", "xyzzy", "#TAB#", "Berlin, Germany",
                     "National University of Singapore, Singapore"]
                ),
                st.text(max_size=40),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_partition_exactness(self, gazetteer, raws):
        resolutions = list(resolve_corpus([_record("p", raws)], gazetteer, None))
        assert len(resolutions) == len(raws)
        for resolution in resolutions:
            assert resolution.category in Category

    def test_cache_snapshot_makes_reruns_identical(self, gazetteer, make_replay_client, tmp_path):
        path = tmp_path / "cache.jsonl"
        raws = ["McGill University", "University of Oxford", "zzqx unknown institute"]
        client, _ = make_replay_client(cache=CacheStore(path))
        first = list(resolve_corpus([_record("p", raws)], gazetteer, client))
        client2, transport2 = make_replay_client(cache=CacheStore(path))
        second = list(resolve_corpus([_record("p", raws)], gazetteer, client2))
        # Only answers are cached: the rerun asks again for the unrecorded
        # institute alone, and gets the same failure.
        assert transport2.calls == 1
        assert first == second


class TestLookupRounds:
    """Round r asks for the r-th fragment of each unsettled miss; a key goes
    out once per round, spelled as in the first pending miss that has it."""

    def _run(self, raws, make_replay_client, gazetteer, jobs):
        client, _ = make_replay_client()
        client.transport = ReplayTransport(late="Quiet")
        rows = list(resolve_corpus([_record("p", raws)], gazetteer, client, jobs=jobs))
        return rows, sorted(client.transport.titles)

    def test_rows_and_titles_do_not_depend_on_jobs(self, gazetteer, make_replay_client):
        raws = ["McGill University, Quiet Institute", "MCGILL UNIVERSITY"]
        runs = [self._run(raws, make_replay_client, gazetteer, jobs) for jobs in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]
        rows, titles = runs[0]
        # Round 0 asks for "MCGILL UNIVERSITY" (the second miss's last fragment)
        # and caches its error, which round 1 then reads for the first miss.
        assert titles == ["MCGILL_UNIVERSITY", "Quiet_Institute"]
        assert [(r.category, r.evidence) for r in rows] == [
            (Category.UNIDENTIFIED, f"transport error: no recorded response for {title!r}")
            for title in ("Quiet_Institute", "MCGILL_UNIVERSITY")  # each miss notes its first error
        ]

    @pytest.mark.parametrize("jobs", [1, 8])
    @pytest.mark.parametrize(
        "raws, sent, iso2",
        [
            (["Quiet Lab, McGill University", "MCGILL UNIVERSITY"], ["McGill_University"], "CA"),
            # The unanswered key leaves the first miss pending, so round 1 asks for "Quiet Lab".
            (["Quiet Lab, MCGILL UNIVERSITY", "McGill University"], ["MCGILL_UNIVERSITY", "Quiet_Lab"], None),
        ],
        ids=["first-casing-recorded", "first-casing-unrecorded"],
    )
    def test_first_pending_casing_is_sent(self, gazetteer, make_replay_client, jobs, raws, sent, iso2):
        rows, titles = self._run(raws, make_replay_client, gazetteer, jobs)
        assert titles == sent
        assert [r.iso2 for r in rows] == [iso2, iso2]


class TestResolveCorpusThreads:
    """Step 1 stays on the calling thread; only knowledge-graph lookups are pooled."""

    RAWS = ["Paris, France", "McGill University", "Cambridge, MA", "University of Oxford",
            "NA", "ETH Zurich", "Paris, France"]

    def test_step1_runs_on_calling_thread(self, gazetteer, make_replay_client, monkeypatch):
        threads = set()
        real = resolver_module.match_step1

        def recording(n, g):
            threads.add(threading.get_ident())
            return real(n, g)

        monkeypatch.setattr(resolver_module, "match_step1", recording)
        client, transport = make_replay_client()
        resolutions = list(resolve_corpus([_record("p", self.RAWS)], gazetteer, client, jobs=8))
        assert threads == {threading.get_ident()}
        assert transport.calls == 3
        assert [r.iso2 for r in resolutions] == ["FR", "CA", "US", "GB", None, "CH", "FR"]

    def test_online_lookups_overlap(self, gazetteer, make_replay_client):
        barrier = threading.Barrier(2, timeout=5)
        replay = ReplayTransport()

        class BarrierTransport:
            def get(self, url, params, headers):
                barrier.wait()  # breaks, and so fails the run, if lookups are serialized
                return replay.get(url, params, headers)

        client, _ = make_replay_client()
        client.transport = BarrierTransport()
        raws = ["McGill University", "Paris, France", "University of Oxford"]
        resolutions = list(resolve_corpus([_record("p", raws)], gazetteer, client, jobs=2))
        assert [r.iso2 for r in resolutions] == ["CA", "FR", "GB"]

    def test_offline_and_clientless_runs_start_no_pool(self, gazetteer, make_replay_client, monkeypatch):
        pools = []
        real = resolver_module.ThreadPoolExecutor

        def recording(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(resolver_module, "ThreadPoolExecutor", recording)
        offline, transport = make_replay_client(mode=Mode.OFFLINE)
        records = [_record("p", self.RAWS)]
        offline_run = list(resolve_corpus(records, gazetteer, offline, jobs=4))
        clientless_run = list(resolve_corpus(records, gazetteer, None, jobs=4))
        assert pools == []
        assert transport.calls == 0
        assert [r.category for r in offline_run] == [r.category for r in clientless_run]
        online, _ = make_replay_client()
        list(resolve_corpus(records, gazetteer, online, jobs=4))
        assert pools == [{"max_workers": 4}]

    def test_failed_lookup_cancels_queued_lookups(self, gazetteer, make_replay_client):
        release = threading.Event()
        calls = []

        class FailFirstTransport:
            def get(self, url, params, headers):
                calls.append(params["query"])
                if "Failing_Institute" in params["query"]:
                    raise RuntimeError("lookup crashed")
                release.wait(5)
                return TransportResponse(200, '{"results": {"bindings": []}}')

        client, _ = make_replay_client()
        client.transport = FailFirstTransport()
        raws = ["Failing Institute"] + [f"Quiet Institute {i}" for i in range(20)]
        with pytest.raises(RuntimeError, match="lookup crashed"):
            list(resolve_corpus([_record("p", raws)], gazetteer, client, jobs=2))
        release.set()
        time.sleep(0.2)  # long enough for uncancelled lookups to run
        # The failed lookup plus at most one in flight per worker.
        assert len(calls) <= 3
