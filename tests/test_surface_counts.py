"""Singularity counting: closed forms, spectra, bound tables, 3D censuses."""

import hashlib
import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from belyi_forge import (
    F1,
    F2,
    PlaneTree,
    arrangement_jd,
    belyi_numeric,
    chebyshev_solution,
    critical_census_uni,
    format_seed,
    jstats,
    parse_seed,
    profile_of,
    realize_profile,
    seed_families,
    seed_profile,
    seed_triple,
    shabat_for_derivation,
    shabat_solve,
    surface_counts,
    validate_seed,
    vertex_u_census,
    word_engine,
)
from belyi_forge.arrangement_jd import (
    _census_lines,
    _line_product_fixed,
    jd_census,
    jd_exact_values,
    value_classes,
)
from belyi_forge.surface_counts import (
    BOUND_TABLE_GUARD,
    ExistenceUnverifiedWarning,
    bound_table,
    constructions_up_to,
    count_A2_family,
    count_Anu,
    find_construction,
    lowest_nu_construction,
    nodal_surface_count,
    nodal_threefold_count,
    seed_grid,
    singular_census_3d,
    spectrum,
)
from belyi_forge.word_engine import (
    LetterNotApplicableError,
    NoFamilyRecordedError,
    admissible_end,
    alphabet_for,
    apply_letter,
    enumerate_LE,
    paper_word_families,
    trajectory,
    word_from_str,
)

from unipoly import UniPoly


def test_frozen_high_multiplicity_counts():
    assert count_Anu(21, 5) == 757
    with pytest.warns(ExistenceUnverifiedWarning):
        assert count_Anu(9, 8) == 55


def test_count_rejects_bad_domain():
    with pytest.raises(ValueError):
        count_Anu(10, 5)
    with pytest.raises(ValueError):
        count_Anu(9, 2)


@pytest.mark.filterwarnings("ignore::belyi_forge.surface_counts.ExistenceUnverifiedWarning")
def test_count_anu_reads_nu_as_an_index():
    count = count_Anu(9, np.int64(3))
    assert (type(count), count) == (int, 91)
    with pytest.raises(TypeError):
        count_Anu(9, 3.0)


LOOKUPS_BY_DEGREE = {
    "count_Anu": lambda d: count_Anu(d, 3),
    "find_construction": lambda d: find_construction(d, 2),
    "lowest_nu_construction": lowest_nu_construction,
    "constructions_up_to": constructions_up_to,
    "bound_table": bound_table,
}


@pytest.mark.filterwarnings("ignore::belyi_forge.surface_counts.ExistenceUnverifiedWarning")
@pytest.mark.parametrize("name", list(LOOKUPS_BY_DEGREE))
def test_degree_lookups_refuse_a_float_and_accept_a_numpy_integer(name):
    # A numpy integer reads what the int reads, types too: count_Anu once
    # returned np.int64(91).  A float is refused before any check reads it:
    # count_Anu once passed its % 3 check, and the lookups once answered.
    lookup = LOOKUPS_BY_DEGREE[name]
    with pytest.raises(TypeError):
        lookup(9.0)
    got, want = lookup(np.int64(9)), lookup(9)
    assert (type(got), got) == (type(want), want)


def test_count_anu_is_not_the_condition_e_maximum():
    # count_Anu returns n0 q + nm1 with q = floor(d / (nu + 1)).  The
    # condition-E maximum is n0 q + nm1 r with r = floor((d - 1) / nu) - q,
    # so the two agree exactly when r = 1.
    def e_maximum(d, nu):
        st = jstats(d)
        q = d // (nu + 1)
        return st.n0 * q + st.nm1 * ((d - 1) // nu - q)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExistenceUnverifiedWarning)
        assert [count_Anu(d, 3) for d in (9, 12, 39)] == [91, 235, 7138]
        assert [e_maximum(d, 3) for d in (9, 12, 39)] == [72, 198, 8076]
        for d in range(3, 61, 3):
            st = jstats(d)
            for nu in range(3, 21):
                q = d // (nu + 1)
                r = (d - 1) // nu - q
                count = count_Anu(d, nu)
                assert count == st.n0 * q + st.nm1, (d, nu)
                assert (count == e_maximum(d, nu)) == (r == 1), (d, nu)


A2_SERIES = [127, 301, 647, 1100, 1851, 2715, 4027, 5434, 7463, 9545, 12447]


def test_frozen_cusp_series():
    assert [count_A2_family(h) for h in range(11)] == A2_SERIES


def test_frozen_nodal_counts():
    assert {d: nodal_surface_count(d) for d in (3, 6, 9)} == {3: 4, 6: 59, 9: 220}


def test_frozen_threefold_counts():
    assert {d: nodal_threefold_count(d) for d in (3, 4, 6)} == {
        3: 10,
        4: 41,
        6: 283,
    }


def test_counts_are_positive_integers_across_degrees():
    for d in range(3, 101):
        assert nodal_surface_count(d) > 0
        assert nodal_threefold_count(d) > 0
        if d % 3 == 0:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExistenceUnverifiedWarning)
                for nu in (3, 5, 8):
                    assert count_Anu(d, nu) >= 0


def test_spectrum_is_the_pairing_product():
    seed = F1(1, 1)
    prof = seed_profile(seed)
    js = jstats(prof.degree)
    sp = spectrum(js, prof)
    # three black 5-points against value-0 sheets, one white 5-point
    # against value -1 sheets
    assert sp[5] == 3 * js.n0 + 1 * js.nm1
    assert sp.total() == sp[5]
    assert sp[4] == 0


def test_spectrum_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        spectrum(jstats(9), seed_profile(F1(1, 1)))


def test_high_multiplicity_count_matches_spectrum_on_constructions():
    """The closed form lives on degrees divisible by 3; off that lattice the
    admissibility discipline still pins the spectrum's top count."""
    checked_formula = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExistenceUnverifiedWarning)
        for c in constructions_up_to(24):
            if c.nu <= 2:
                continue
            js = jstats(c.profile.degree)
            sp = spectrum(js, c.profile)
            assert sp[c.nu] == js.n0 * (c.profile.degree // (c.nu + 1)) + js.nm1
            if c.profile.degree % 3 == 0:
                assert sp[c.nu] == count_Anu(c.profile.degree, c.nu), (c.seed, c.word)
                checked_formula += 1
    assert checked_formula >= 5


def test_cusp_series_matches_family_spectra():
    seed = F1(0, 1)
    for h in range(0, 41):
        word = word_from_str("ab" * (h // 2) + "a" * (h % 2), seed)
        state = trajectory(seed, word)[-1]
        sp = spectrum(jstats(state.stats().d), state.profile)
        assert sp[2] == count_A2_family(h), h
        if h % 2:
            assert sp[1] == jstats(state.stats().d).nm1
        else:
            assert sp[1] == 0


def test_bound_table_frozen_rows():
    table = bound_table(15)
    assert table.row(9, 2).bound == 127
    assert table.row(12, 2).bound == 301
    assert table.row(15, 2).bound == 647
    assert table.row(9, 1).bound == 220


def test_bound_table_monotone_in_scope():
    small = bound_table(12)
    large = bound_table(18)
    for row in small.rows:
        grown = large.row(row.d, row.nu)
        assert grown is not None
        assert grown.bound >= row.bound


def test_bound_table_serializes():
    table = bound_table(9)
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "d,nu,bound,seed,word"
    assert len(table.to_json()) == len(table.rows)


def test_bound_table_guard():
    with pytest.raises(ValueError):
        bound_table(4000)


def test_find_construction_round_trip():
    c = find_construction(21, 5)
    assert c is not None
    assert c.profile.degree == 21 and c.nu == 5
    assert find_construction(9, 8) is None


def test_lowest_nu_construction_is_first_at_its_degree():
    for d in (9, 12, 21, 30):
        at_d = [c for c in constructions_up_to(d) if c.profile.degree == d]
        c = lowest_nu_construction(d)
        assert c == at_d[0]
        assert c.nu == min(x.nu for x in at_d)
        assert find_construction(d, c.nu) == c
    assert lowest_nu_construction(4) is None


# sha256 of bound_table(200).to_csv(); perfbench/reference.json records the
# same digest for `table --max-degree 200`.
TABLE_200_SHA256 = "050e21251151edc6892036a59d880f7b2134b60aa04a0439ae8c3635280f106b"


def test_bound_table_200_is_frozen():
    csv_text = bound_table(200).to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == TABLE_200_SHA256


def test_catalogue_is_a_degree_filter_of_the_larger_one():
    full = constructions_up_to(BOUND_TABLE_GUARD)
    for d in range(3, BOUND_TABLE_GUARD + 1):
        assert constructions_up_to(d) == tuple(c for c in full if c.profile.degree <= d), d


def test_lookups_are_the_first_match_of_a_scan():
    for d in range(3, BOUND_TABLE_GUARD + 1):
        cons = constructions_up_to(d)
        assert lowest_nu_construction(d) == next((c for c in cons if c.profile.degree == d), None), d
        for nu in range(1, 71):
            first = next((c for c in cons if c.profile.degree == d and c.nu == nu), None)
            assert find_construction(d, nu) == first, (d, nu)


def test_count_sweep_builds_each_degree_slice_once():
    # The catalogue workload's sweep: every degree 3..90 once per nu 3..11,
    # shuffled, so a degree recurs long after its first lookup.
    sweep = [(d, nu) for nu in range(3, 12) for d in range(3, 91, 3)]
    random.Random(0).shuffle(sweep)
    assert len(sweep) == 270
    surface_counts._constructions_at.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExistenceUnverifiedWarning)
            for d, nu in sweep:
                count_Anu(d, nu)
        info = surface_counts._constructions_at.cache_info()
    finally:
        surface_counts._constructions_at.cache_clear()
    assert info.misses == len({d for d, _ in sweep}) == 30
    assert info.hits == 240


def test_bound_table_reads_each_degrees_counts_once():
    # Cold, the table builds jstats once per degree 3..200, 198 in all: the
    # cache holds every degree the table reads.
    arrangement_jd._jstats.cache_clear()
    bound_table(BOUND_TABLE_GUARD)
    assert arrangement_jd._jstats.cache_info().misses == BOUND_TABLE_GUARD - 2


def test_count_sweep_after_the_table_builds_no_counts():
    # The catalogue workload's sweep, after the table it follows: every one
    # of its 270 counts is read from the cache.
    sweep = [(d, nu) for nu in range(3, 12) for d in range(3, 91, 3)]
    random.Random(0).shuffle(sweep)
    arrangement_jd._jstats.cache_clear()
    bound_table(90)
    before = arrangement_jd._jstats.cache_info()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExistenceUnverifiedWarning)
        for d, nu in sweep:
            count_Anu(d, nu)
    after = arrangement_jd._jstats.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == len(sweep) == 270


def test_slices_are_sorted_by_nu():
    # find_construction bisects a slice on nu.
    for d in range(3, BOUND_TABLE_GUARD + 1):
        nus = [c.nu for c in surface_counts._constructions_at(d)]
        assert nus == sorted(nus), d


@pytest.mark.parametrize("d", [201, 204])
def test_lookups_past_the_guard_are_the_first_match_of_a_scan(d):
    at_d = [c for c in constructions_up_to(d) if c.profile.degree == d]
    present = {c.nu for c in at_d}
    nus = range(1, 13)
    assert present & set(nus) and set(nus) - present
    for nu in nus:
        first = next((c for c in at_d if c.nu == nu), None)
        assert find_construction(d, nu) == first, nu


def test_seed_grid_is_a_degree_filter_of_the_table_grid():
    # A lookup at d lists only the seeds with d0 <= d: the table guard's
    # grid, filtered by starting degree.
    table_grid = seed_grid(BOUND_TABLE_GUARD)
    for d in range(3, BOUND_TABLE_GUARD + 1):
        assert [s for s in table_grid if seed_triple(s).d0 <= d] == seed_grid(d), d


@pytest.mark.parametrize("d_max", [BOUND_TABLE_GUARD, 600])
def test_seed_pairs_carry_each_seeds_starting_degree(monkeypatch, d_max):
    # The grid is walked once, as (d0, seed) pairs read from the family d0
    # formulas; the walk validates no seed and builds no triple.
    with monkeypatch.context() as patch:
        patch.setattr(seed_families, "validate_seed", None)
        pairs = surface_counts._seed_pairs(d_max)
    assert pairs == [(seed_triple(s).d0, s) for s in seed_grid(d_max)]


def test_seed_grid_emits_valid_seeds_only():
    for seed in seed_grid(BOUND_TABLE_GUARD):
        validate_seed(seed)


def _clear_catalogue_caches():
    for fn in (surface_counts._table_index, surface_counts._constructions_at):
        fn.cache_clear()


def _counting_letters(monkeypatch, run):
    """(seed, prefix) of every letter that run() applies, caches as they are.

    The patch is undone on return, so letters the caller applies itself
    are not counted."""
    calls = []
    apply_letter = word_engine.apply_letter

    def counting(state, letter):
        calls.append((state.seed, state.word + letter))
        return apply_letter(state, letter)

    with monkeypatch.context() as patch:
        patch.setattr(word_engine, "apply_letter", counting)
        run()
    return calls


def _walk_counting_letters(monkeypatch, d_max):
    """(seed, prefix) of every letter a cold constructions_up_to(d_max) applies."""
    _clear_catalogue_caches()
    try:
        return _counting_letters(monkeypatch, lambda: constructions_up_to(d_max))
    finally:
        _clear_catalogue_caches()


def test_catalogue_applies_each_prefix_once(monkeypatch):
    # The walk applies a letter exactly when the prefix before it is
    # admissible and within the walk degree, the table guard.
    calls = _walk_counting_letters(monkeypatch, 60)
    prefixes = set()
    for seed in seed_grid(60):
        for w in word_engine._catalogue_words(seed, BOUND_TABLE_GUARD):
            for i in range(len(w)):
                parent = admissible_end(seed, w[:i])
                if parent is not None and parent.profile.degree <= BOUND_TABLE_GUARD:
                    prefixes.add((seed, w[: i + 1]))
    assert len(calls) == len(set(calls))
    assert set(calls) == prefixes


def test_cold_table_catalogue_letter_count(monkeypatch):
    # The walk stops each prefix at the table guard; without that it
    # applied 7,067 letters here.  With the families generated only up to
    # the walk degree it no longer applies beta to F2:0,1,1,4 (d0 = 198)
    # or alpha after beta to F2:1,0,4,4 (d0 = 195): both end past 200.
    assert len(_walk_counting_letters(monkeypatch, BOUND_TABLE_GUARD)) == 1492


def test_catalogue_lookups_after_the_table_apply_no_letter(monkeypatch):
    # The sweep of test_count_sweep_builds_each_degree_slice_once, after the
    # table's walk: each of its 30 misses reads the walked index.
    sweep = [(d, nu) for nu in range(3, 12) for d in range(3, 91, 3)]
    random.Random(0).shuffle(sweep)

    def count_sweep():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExistenceUnverifiedWarning)
            for d, nu in sweep:
                count_Anu(d, nu)

    _clear_catalogue_caches()
    try:
        constructions_up_to(BOUND_TABLE_GUARD)
        assert _counting_letters(monkeypatch, count_sweep) == []
    finally:
        _clear_catalogue_caches()


@pytest.mark.parametrize("d, letters", [(3, 0), (30, 107), (90, 760)])
def test_cold_lookup_walks_only_the_seeds_starting_at_or_below_it(monkeypatch, d, letters):
    # The letters the per-seed walks applied for the same lookup: a lookup
    # at d walks the seeds with d0 <= d, each to the table guard.
    _clear_catalogue_caches()
    try:
        calls = _counting_letters(monkeypatch, lambda: lowest_nu_construction(d))
    finally:
        _clear_catalogue_caches()
    assert len(calls) == letters
    assert all(seed_triple(seed).d0 <= d for seed, _ in calls)


def test_catalogue_survives_a_walk_that_raises(monkeypatch):
    d = 30
    _clear_catalogue_caches()
    expected = tuple(c for c in constructions_up_to(d) if c.profile.degree == d)
    # The seed at d that starts highest, so seeds below it are walked first.
    bad = max(expected, key=lambda c: seed_triple(c.seed).d0).seed
    assert seed_triple(bad).d0 > min(seed_triple(c.seed).d0 for c in expected)
    catalogue_ends = surface_counts.catalogue_ends
    raised = []

    def flaky(seed, d_max):
        if seed == bad and not raised:
            raised.append(seed)
            raise RuntimeError("walk interrupted")
        return catalogue_ends(seed, d_max)

    _clear_catalogue_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(surface_counts, "catalogue_ends", flaky)
            with pytest.raises(RuntimeError, match="walk interrupted"):
                lowest_nu_construction(d)
            assert raised == [bad]
            assert surface_counts._constructions_at(d) == expected
            full = constructions_up_to(BOUND_TABLE_GUARD)
    finally:
        _clear_catalogue_caches()
    assert full == constructions_up_to(BOUND_TABLE_GUARD)


def test_catalogue_lookups_do_not_depend_on_their_order():
    # Lookups at or below the table guard share its index, which each order
    # lists and walks differently; a lookup past it walks its own index.
    top = BOUND_TABLE_GUARD + 30
    shuffled = list(range(1, top + 1))
    random.Random(0).shuffle(shuffled)
    _clear_catalogue_caches()
    try:
        table = constructions_up_to(BOUND_TABLE_GUARD)
        expected = {d: tuple(c for c in table if c.profile.degree == d)
                    for d in range(1, BOUND_TABLE_GUARD + 1)}
        for d in range(BOUND_TABLE_GUARD + 1, top + 1):
            expected[d] = tuple(c for c in constructions_up_to(d) if c.profile.degree == d)
        for order in (range(top, 0, -1), range(1, top + 1), shuffled):
            _clear_catalogue_caches()
            got = {d: surface_counts._constructions_at(d) for d in order}
            assert got == expected
        csv_text = bound_table(BOUND_TABLE_GUARD).to_csv()
    finally:
        _clear_catalogue_caches()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == TABLE_200_SHA256


def _listing_degrees(monkeypatch, run):
    """The degrees up to which run() lists seeds, from cold caches."""
    listed = []
    seed_pairs = surface_counts._seed_pairs

    def recording(d_max):
        listed.append(d_max)
        return seed_pairs(d_max)

    _clear_catalogue_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(surface_counts, "_seed_pairs", recording)
            run()
    finally:
        _clear_catalogue_caches()
    return listed


@pytest.mark.parametrize(
    "run, listed",
    [
        (lambda: lowest_nu_construction(3), [3]),
        (lambda: lowest_nu_construction(30), [30]),
        (lambda: constructions_up_to(BOUND_TABLE_GUARD), [BOUND_TABLE_GUARD]),
        (lambda: constructions_up_to(BOUND_TABLE_GUARD + 5), [BOUND_TABLE_GUARD + 5]),
        (lambda: [lowest_nu_construction(d) for d in (9, 3, 30, 12)], [9, 30]),
        (lambda: [lowest_nu_construction(d) for d in range(1, BOUND_TABLE_GUARD + 1)],
         [1, 2, 4, 8, 16, 32, 64, 128, BOUND_TABLE_GUARD]),
    ],
    ids=["lookup 3", "lookup 30", "table", "past the guard", "four lookups", "ascending"],
)
def test_seeds_are_listed_only_up_to_the_degree_asked(monkeypatch, run, listed):
    # A cold lookup at d = 3 needs 1 seed of the table grid's 414; the table
    # asks for its top degree first, so it lists the seeds once, and a
    # listing at least doubles its reach, so ascending lookups list 9 times,
    # not 200.
    assert _listing_degrees(monkeypatch, run) == listed


def test_lookups_past_the_guard_walk_to_exactly_their_degree(monkeypatch):
    # A lookup past the table guard walks an index to exactly its degree and
    # keeps only its slice, in either order, and builds no table index; a
    # later lookup below the guard walks the table's index to the guard.
    past = range(BOUND_TABLE_GUARD + 1, BOUND_TABLE_GUARD + 31)
    _clear_catalogue_caches()
    try:
        expected = {d: tuple(c for c in constructions_up_to(d) if c.profile.degree == d)
                    for d in [150, *past]}
        walked_to = []
        catalogue_ends = surface_counts.catalogue_ends

        def recording(seed, d_max):
            walked_to.append(d_max)
            return catalogue_ends(seed, d_max)

        with monkeypatch.context() as patch:
            patch.setattr(surface_counts, "catalogue_ends", recording)
            for order in (past, reversed(past)):
                _clear_catalogue_caches()
                for d in order:
                    walked_to.clear()
                    assert surface_counts._constructions_at(d) == expected[d], d
                    assert set(walked_to) == {d}, d
                assert surface_counts._table_index.cache_info().currsize == 0
            walked_to.clear()
            assert surface_counts._constructions_at(150) == expected[150]
            assert set(walked_to) == {BOUND_TABLE_GUARD}
    finally:
        _clear_catalogue_caches()


def test_every_letter_raises_the_degree():
    # Why the walk may stop a prefix past its degree: no extension of it
    # comes back below.
    applied = 0
    for seed in seed_grid(60):
        for w in enumerate_LE(seed, 6):
            state = admissible_end(seed, w)
            for letter in alphabet_for(seed):
                try:
                    child = apply_letter(state, letter)
                except LetterNotApplicableError:
                    continue
                assert child.profile.degree > state.profile.degree, (seed, w, letter)
                applied += 1
    assert applied > 20000


def test_every_letter_raises_the_degree_by_its_least_step():
    # The length caps of _catalogue_words: a T13 letter adds nu + 1 to the
    # degree, a T2 letter at least 3 from a seed with a recorded family.
    # (Gamma adds nu, and F2:1,0,0,0, with nu = 1, has no family.)
    applied = 0
    for seed in seed_grid(60):
        nu = seed_triple(seed).nu
        if seed == F2(1, 0, 0, 0):
            with pytest.raises(NoFamilyRecordedError):
                paper_word_families(seed)
            continue
        for w in enumerate_LE(seed, 4):
            state = admissible_end(seed, w)
            for letter in alphabet_for(seed):
                try:
                    child = apply_letter(state, letter)
                except LetterNotApplicableError:
                    continue
                step = child.profile.degree - state.profile.degree
                if isinstance(seed, F2):
                    assert step >= 3, (seed, w, letter)
                else:
                    assert step == nu + 1, (seed, w, letter)
                applied += 1
    assert applied > 2000


def test_catalogue_words_are_the_families_up_to_the_length_cap():
    # Every second-family seed of the table grid: the walk's words are the
    # empty word and, each once, the catalogued words of at most
    # (200 - d0) // 3 letters.  The generator is exact at other length
    # bounds too, as walks past the table guard need.
    seeds = [s for s in seed_grid(BOUND_TABLE_GUARD) if isinstance(s, F2)]
    assert len(seeds) == 131
    kept = 0
    for seed in seeds:
        cap = (BOUND_TABLE_GUARD - seed_triple(seed).d0) // 3
        words = word_engine._catalogue_words(seed, BOUND_TABLE_GUARD)
        assert words[0] == "" and len(words) == len(set(words)), seed
        kept += len(words)
        try:
            family = paper_word_families(seed)
        except NoFamilyRecordedError:
            assert words == [""]
            with pytest.raises(NoFamilyRecordedError):
                word_engine._family_words(seed, cap)
            continue
        assert set(words[1:]) == {w for w in family if len(w) <= cap}, seed
        longest = max(map(len, family))
        for bound in {0, 1, cap + 1, longest - 1, longest}:
            capped = {w for w in family if len(w) <= bound}
            assert set(word_engine._family_words(seed, bound)) == capped, (seed, bound)
    assert kept == 1773


# sha256 of the rows (degree, nu, seed, word, profile) of
# constructions_up_to(200), recorded before the catalogue's words were capped
# by length.
CATALOGUE_200_SHA256 = "2731bd5250a743fc2a6fb6c88bb2723b1a980ed4fe99a43b8795b4ac25be5b26"


def test_catalogue_200_is_frozen():
    cons = constructions_up_to(BOUND_TABLE_GUARD)
    rows = "".join(
        f"{c.profile.degree},{c.nu},{format_seed(c.seed)},{c.word},{c.profile!r}\n"
        for c in cons
    )
    assert len(cons) == 1836
    assert hashlib.sha256(rows.encode()).hexdigest() == CATALOGUE_200_SHA256


def test_end_to_end_census_smallest_surface():
    census = singular_census_3d(9, shabat_for_derivation(F1(0, 1), ""))
    assert census.verified
    assert census.total == 127
    assert census.by_type == {2: 127}
    pair_keys = {
        (round(p.j_value), round(p.u_value)): p.pair_count for p in census.pairs
    }
    assert pair_keys == {(0, 0): 108, (-1, 1): 19}
    assert census.max_value_defect < 1e-6
    state = trajectory(F1(0, 1), "")[-1]
    assert census.by_type == spectrum(jstats(9), state.profile)


def test_paired_census_refuses_a_solution_of_another_degree():
    sol = shabat_for_derivation(F1(0, 1), "")
    with pytest.raises(ValueError, match="solution degree 9 does not match arrangement degree 12"):
        singular_census_3d(12, sol)


def test_pairing_is_complete():
    census = singular_census_3d(9, shabat_for_derivation(F1(0, 1), ""))
    assert sum(p.pair_count for p in census.pairs) == census.total
    assert sum(census.by_type.values()) == census.total


def test_end_to_end_census_nodal_surface():
    census = singular_census_3d(3)
    assert census.verified
    assert census.total == nodal_surface_count(3) == 4
    assert census.by_type == {1: 4}


def test_vertex_value_key_is_positive_zero():
    # At d=8 a vertex value rounds to -0.0; the pairing key must not carry
    # that sign into the report.
    census = singular_census_3d(8)
    assert census.verified
    zero_keys = [p.j_value for p in census.pairs if p.j_value == 0]
    assert zero_keys
    assert all(math.copysign(1.0, v) == 1.0 for v in zero_keys)


def test_surface_polynomial_evaluates():
    sol = shabat_for_derivation(F1(0, 1), "")
    u = UniPoly(sol.polynomial()).shift_constant(1).scale(0.5)

    def f(x, y, w):
        return jd_exact_values(9, [(x, y)])[0] + u(w)

    census = singular_census_3d(9, sol)
    assert census.verified
    # A paired point: a maximum of J at value -1 and a real critical point of
    # U at value 1.  The gradient the 2D census reads there matches central
    # differences of the surface, taken at rational points so that only the
    # float U part rounds; the 3D census reports J's Newton step there.
    j_cen = jd_census(9)
    k = np.flatnonzero(np.abs(j_cen.values + 1) < 1e-6)[0]
    (px, py), gradient = j_cen.positions[k].tolist(), j_cen.gradients[k].tolist()
    u_cen = vertex_u_census(sol)
    w = next(w.real for w, val in zip(u_cen.positions, u_cen.values)
             if abs(val - 1) < 1e-6 and abs(w.imag) < 1e-6)
    x, y, w, h = Fraction(px), Fraction(py), Fraction(w), Fraction(1, 10**6)
    fd = (
        (f(x + h, y, w) - f(x - h, y, w)) / (2 * h),
        (f(x, y + h, w) - f(x, y - h, w)) / (2 * h),
        (f(x, y, w + h) - f(x, y, w - h)) / (2 * h),
    )
    assert abs(fd[0] - gradient[0]) < 1e-6
    assert abs(fd[1] - gradient[1]) < 1e-6
    assert abs(fd[2]) < 1e-6
    assert j_cen.steps[k] <= census.max_gradient_defect


@pytest.mark.parametrize("d", [0, 1])
def test_nodal_census_refuses_a_degree_below_two(d):
    # d = 0 once divided by zero listing J's lattice.
    with pytest.raises(ValueError):
        singular_census_3d(d)


def test_nodal_census_past_the_old_guard():
    census = singular_census_3d(18)
    assert census.verified
    assert census.by_type == {1: nodal_surface_count(18)} == {1: 2105}


def axis_roots(d):
    normals, offsets, _ = _census_lines(d)
    return np.sort(-offsets / normals[:, 0])


def chebyshev_poly(d):
    """T_d by T_{n+1} = 2 z T_n - T_{n-1} on integer coefficients, constant first."""
    t0, t1 = [1], [0, 1]
    for _ in range(d - 1):
        t0, t1 = t1, [a - b for a, b in zip([0] + [2 * c for c in t1], t0 + [0, 0])]
    return t1


def nodal_unit_poly(d):
    """The nodal surface's U, (1 + T_d)/2, with exact coefficients."""
    t = chebyshev_poly(d)
    t[0] += 1
    return UniPoly(tuple(Fraction(c, 2) for c in t))


@pytest.mark.parametrize("d", [*range(3, 41), 200])
def test_nodal_unit_poly_is_one_plus_chebyshev_over_two(d):
    # J_d's lines cross the x-axis where T_d(z) = 1/2, at x = 2z + 1, so
    # the axis restriction (3 - J_d(2z + 1, 0))/4 is (1 + T_d)/2.  Both sides
    # have degree d, so equality at d + 1 distinct rational z proves it.
    zs = [Fraction(k - d // 2, 7) for k in range(d + 1)]
    axis = jd_exact_values(d, [(2 * z + 1, Fraction(0)) for z in zs])
    u = nodal_unit_poly(d)
    assert [(3 - j) / 4 for j in axis] == [u(z) for z in zs]


def path_tree(d):
    """The path with d edges, vertex k white for even k and black for odd k."""
    return PlaneTree(
        colors=tuple("black" if k % 2 else "white" for k in range(d + 1)),
        rotation=tuple(tuple(u for u in (k - 1, k + 1) if 0 <= u <= d) for k in range(d + 1)),
    )


@pytest.mark.parametrize("d", range(2, 17))
def test_shabat_solve_on_the_path_is_chebyshev(d):
    # The path as realize_profile builds it.  The solver's gauge differs
    # from chebyshev_solution's by the affine map that sends the two leaves
    # to 1 and -1, a white leaf to 1: both ends are white for even d, where
    # T_d is even.
    sol = shabat_solve(realize_profile(profile_of(path_tree(d))))
    cheb = chebyshev_solution(d)
    one, minus_one = [z for z, m in sol.white_points + sol.black_points if m == 0]
    a = 2 / (one - minus_one)

    def by_position(points, image=lambda z: z):
        return sorted(((image(z), m) for z, m in points), key=lambda zm: zm[0].real)

    for colour in ("black_points", "white_points"):
        mapped = by_position(getattr(sol, colour), lambda z: a * (z - minus_one) - 1)
        expected = by_position(getattr(cheb, colour))
        assert [m for _, m in mapped] == [m for _, m in expected]
        assert max(abs(z - w) for (z, _), (w, _) in zip(mapped, expected)) <= 1e-9
    # p(w) = T_d(a w + b), so the solver's scale is 2^(d-1) a^d.
    assert abs(sol.scale_constant / (cheb.scale_constant * a**d) - 1) <= 1e-9


@pytest.mark.parametrize("d", range(3, 25))
def test_nodal_u_census_matches_the_dense_census(d):
    u = nodal_unit_poly(d)
    du = u.derivative()
    ddu = du.derivative()
    dense = critical_census_uni(u.coeffs)
    census = vertex_u_census(chebyshev_solution(d))
    assert dense.reliable
    assert all(abs(e.value.imag) < 1e-12 for e in dense.entries)
    assert len(census.positions) == len(census.slopes) == d - 1
    assert not census.positions.imag.any() and not census.values.imag.any()
    # The points' values and multiplicities are the dense census's entries.
    grouped = Counter(
        (round(value, 6) + 0.0, mult) for value, mult in zip(census.values.real, census.mults)
    )
    assert grouped == {(round(e.value.real, 6) + 0.0, e.multiplicity): e.count
                       for e in dense.entries}
    # In exact arithmetic on U's rational coefficients, each of the d - 1
    # points is one Newton step of at most 1e-10 from a root of U', and its
    # value is U there.
    assert set(census.mults.tolist()) == {1}
    for z, value in zip(census.positions.real, census.values.real):
        w = Fraction(z)
        assert abs(du(w) / ddu(w)) <= 1e-10
        assert abs(value - u(w)) <= 1e-7


@pytest.mark.parametrize("d", [30, 60, 120, 200])
def test_nodal_u_census_past_the_census_guard(d):
    sol = chebyshev_solution(d)
    census = vertex_u_census(sol)
    x = np.sort(2 * census.positions.real + 1)
    roots = axis_roots(d)
    # d - 1 simple points, one strictly inside each gap of the axis roots.
    assert len(x) == d - 1
    assert set(census.mults.tolist()) == {1}
    assert np.all((roots[:-1] < x) & (x < roots[1:]))
    values = census.values.real
    at_zero, at_one = np.abs(values) <= 1e-11, np.abs(values - 1) <= 1e-11
    assert np.all(at_zero | at_one)
    # U = 0 is J = 3 and U = 1 is J = -1: at d=200, 100 and 99 points.
    assert (at_zero.sum(), at_one.sum()) == (d // 2, (d - 1) // 2)
    # Read from the float factors, the residual and |U'| grow with d: 7.6e-13
    # and 1.5e-9 at d=200.
    assert sol.residual <= 1e-11
    assert census.slopes.max() <= 1e-8


def test_chebyshev_solution_needs_an_edge():
    with pytest.raises(ValueError, match="at least one edge"):
        chebyshev_solution(0)


def axis_critical_points_by_bisection(d):
    """The critical point in each gap of the axis roots, by bisection on the
    sign of sum 1/(x - r_i) down to four rounding units of the largest
    |r_i|."""
    roots = axis_roots(d)
    width = 4 * np.finfo(float).eps * np.abs(roots).max()
    lo, hi = roots[:-1].copy(), roots[1:].copy()
    while np.any(live := hi - lo > width):
        mid = (lo[live] + hi[live]) / 2
        right = (1.0 / (mid[:, None] - roots)).sum(axis=1) > 0
        lo[np.flatnonzero(live)[right]] = mid[right]
        hi[np.flatnonzero(live)[~right]] = mid[~right]
    return (lo + hi) / 2


@pytest.mark.parametrize("d", [3, 9, 24, 30, 200])
def test_nodal_u_points_match_the_bisection(d):
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        census = vertex_u_census(chebyshev_solution(d))
    x = np.sort(2 * census.positions.real + 1)
    oracle = axis_critical_points_by_bisection(d)
    assert np.all(np.abs(x - oracle) <= 1e-14 * (1 + np.abs(oracle)))


@pytest.mark.parametrize("d", [3, 9, 24, 30, 200])
def test_nodal_u_values_agree_with_a_50_digit_line_product(d):
    census = vertex_u_census(chebyshev_solution(d))
    points = [(Fraction(2 * z + 1), Fraction(0)) for z in census.positions.real]
    with mp.workdps(50):
        bits = mp.mp.prec
        exact = [(3 - mp.ldexp(j, -bits)) / 4 for j in _line_product_fixed(d, points, bits)]
        for value, u in zip(census.values.real, exact):
            assert abs(value - u) <= 1e-11
            # cos(k pi/d), rounded, is a critical point to far below the
            # float product's rounding.
            assert min(abs(u), abs(u - 1)) <= 1e-20


def test_nodal_surface_census_skips_the_dense_u_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the nodal census took the dense U path")

    monkeypatch.setattr(belyi_numeric, "critical_census_uni", refuse)
    monkeypatch.setattr(belyi_numeric, "_aberth", refuse)
    monkeypatch.setattr(np, "roots", refuse)
    monkeypatch.setattr(belyi_numeric.ShabatSolution, "polynomial", refuse)
    census = singular_census_3d(12)
    assert census.verified
    assert census.by_type == {1: nodal_surface_count(12)}


def test_paired_census_never_expands_p(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the paired census expanded p")

    monkeypatch.setattr(belyi_numeric.ShabatSolution, "polynomial", refuse)
    monkeypatch.setattr(belyi_numeric, "critical_census_uni", refuse)
    census = singular_census_3d(9, shabat_for_derivation(F1(0, 1), ""))
    assert census.verified
    assert census.by_type == {2: 127}


@pytest.mark.parametrize(
    "seed, word, d",
    [
        (F2(1, 0, 0, 0), "", 3),
        (F1(0, 1), "", 9),
        (F1(0, 1), "a", 12),
        (F1(0, 1), "ab", 15),
        (F2(1, 1, 0, 0), "", 9),
        (F2(1, 2, 0, 0), "", 15),
    ],
    ids=lambda v: format_seed(v) if not isinstance(v, (str, int)) else repr(v),
)
def test_paired_census_reads_u_from_the_solved_vertices(seed, word, d):
    # U's critical points are the tree's internal vertices, so multiple
    # points (A4 at F2:1,1,0,0, A7 at F2:1,2,0,0) need no clustering.
    census = singular_census_3d(d, shabat_for_derivation(seed, word))
    assert census.by_type == spectrum(jstats(d), trajectory(seed, word)[-1].profile)
    assert census.verified


def grid_max_value_defect(d, solution=None):
    """The largest |J + U| over the full |J class| x |U class| grid of every
    value class: the pairing's old form, kept as the oracle of its class
    extremes."""
    j_cen = jd_census(d)
    u = vertex_u_census(chebyshev_solution(d) if solution is None else solution).values
    u_class = np.where(np.abs(u.imag) <= belyi_numeric.VALUE_TOL, value_classes(-u.real), -1)
    best = 0.0
    for c in set(u_class.tolist()) & set(j_cen.classes.tolist()):
        f = j_cen.values[j_cen.classes == c, None] + u[u_class == c]
        best = max(best, float(np.hypot(f.real, f.imag).max()))
    return best


@pytest.mark.parametrize("d", range(3, BOUND_TABLE_GUARD + 1))
def test_nodal_pairing_by_class_extremes_is_the_full_grid_bit_for_bit(d):
    census = singular_census_3d(d)
    assert census.max_value_defect.hex() == grid_max_value_defect(d).hex()
    assert census.verified and census.winding is None
    assert "winding_census" not in census.as_dict()


# The paired surfaces of CI's console-script step and tier-1's pins.
CI_PAIRED = [(d, None) for d in (3, 9, 12, 15, 18, 21, 24, 28)] + [
    (9, "F2:1,1,0,0"), (15, "F2:1,2,0,0"), (9, "F1:0,1"),
]


@pytest.mark.parametrize("d, seed", CI_PAIRED, ids=lambda v: str(v))
def test_paired_pairing_by_class_extremes_is_the_full_grid_bit_for_bit(d, seed):
    end = lowest_nu_construction(d) if seed is None else trajectory(parse_seed(seed), "")[-1]
    sol = shabat_for_derivation(end.seed, end.word, max_degree=d)
    census = singular_census_3d(d, sol)
    assert census.max_value_defect.hex() == grid_max_value_defect(d, sol).hex()
    assert census.verified and census.winding.matches


def test_a_failing_winding_census_leaves_a_paired_census_unverified(monkeypatch):
    # vertex_u_census reads the vertices as U's only critical points; the
    # winding census proves that, and the pairing is verified only with it.
    def failing(sol):
        return belyi_numeric.winding_census(sol)._replace(failures=("count",))

    monkeypatch.setattr(surface_counts, "winding_census", failing)
    census = singular_census_3d(9, shabat_for_derivation(F1(0, 1), ""))
    assert census.by_type == {2: 127}
    assert not census.verified
    assert census.as_dict()["winding_census"]["failed_tests"] == ["count"]


@pytest.mark.parametrize("colour", ["black_points", "white_points"])
def test_a_moved_vertex_leaves_the_census_unverified(colour):
    sol = shabat_for_derivation(F1(0, 1), "")
    points = list(getattr(sol, colour))
    i = next(i for i, (_, mult) in enumerate(points) if mult >= 1)
    points[i] = (points[i][0] + 1e-6, points[i][1])
    census = singular_census_3d(9, sol._replace(**{colour: tuple(points)}))
    # The other colour's U values move by about 2e-6 and pair with no J
    # value, while the points that do pair keep small defects.
    assert census.by_type in ({2: 19}, {2: 108})
    assert max(census.max_value_defect, census.max_gradient_defect) <= 1e-9
    assert not census.verified


def test_a_u_point_of_complex_value_leaves_the_census_unverified(monkeypatch):
    def with_a_complex_value(sol):
        cen = belyi_numeric.vertex_u_census(sol)
        return cen._replace(
            positions=np.append(cen.positions, cen.positions[0]),
            values=np.append(cen.values, cen.values[0] + 1e-5j),
            mults=np.append(cen.mults, cen.mults[0]),
            slopes=np.append(cen.slopes, cen.slopes[0]),
        )

    monkeypatch.setattr(surface_counts, "vertex_u_census", with_a_complex_value)
    census = singular_census_3d(9, shabat_for_derivation(F1(0, 1), ""))
    assert census.by_type == {2: 127}
    assert not census.verified


# 7e-7 from its target: inside VALUE_TOL, but 5e-7 or more from it, where
# rounding to six digits would tell the value from its target.
MOVED_J, MOVED_U = -1 + 7e-7, 1 - 7e-7


def test_a_j_value_off_its_target_within_tolerance_still_pairs(monkeypatch):
    # The 2D census counts the moved value at -1, and the 3D pairing takes
    # J's lattice classes, which the 2D census checks the values against.
    def with_a_moved_value(d):
        cen = jd_census(d)
        values = cen.values.copy()
        values[np.argmin(np.abs(values + 1))] = MOVED_J
        return cen._replace(values=values)

    assert abs(MOVED_J + 1) <= belyi_numeric.VALUE_TOL
    monkeypatch.setattr(surface_counts, "jd_census", with_a_moved_value)
    census = singular_census_3d(3)
    assert census.total == nodal_surface_count(3) == 4
    assert census.by_type == {1: 4}
    assert census.verified


def test_a_u_value_off_its_target_within_tolerance_still_pairs(monkeypatch):
    def with_a_moved_value(sol):
        cen = vertex_u_census(sol)
        values = cen.values.copy()
        values[np.argmin(np.abs(values - 1))] = MOVED_U
        return cen._replace(values=values)

    assert abs(MOVED_U - 1) <= belyi_numeric.VALUE_TOL
    monkeypatch.setattr(surface_counts, "vertex_u_census", with_a_moved_value)
    census = singular_census_3d(3)
    assert census.total == nodal_surface_count(3) == 4
    assert census.by_type == {1: 4}
    assert census.verified


def test_an_incomplete_j_census_leaves_the_census_unverified(monkeypatch):
    # A J census that lost a vertex and knows it: the pairing still
    # counts what it holds, but the surface census is not verified.
    def with_a_dropped_candidate(d):
        cen = jd_census(d)
        keep = np.arange(cen.total) != np.flatnonzero(cen.classes == 0)[0]
        return cen._replace(positions=cen.positions[keep], values=cen.values[keep],
                            gradients=cen.gradients[keep], steps=cen.steps[keep],
                            classes=cen.classes[keep], failures=("count",))

    monkeypatch.setattr(surface_counts, "jd_census", with_a_dropped_candidate)
    census = singular_census_3d(9)
    assert census.total < nodal_surface_count(9) == 220
    assert not census.verified
