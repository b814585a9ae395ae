"""Singularity counting: closed forms, spectra, bound tables, 3D censuses."""

import hashlib
import warnings

import pytest

from belyi_forge import F1, jstats, seed_profile, surface_counts
from belyi_forge.surface_counts import (
    BOUND_TABLE_GUARD,
    ExistenceUnverifiedWarning,
    bound_table,
    build_nodal_surface,
    build_surface,
    census_matches_spectrum,
    constructions_up_to,
    count_A2_family,
    count_Anu,
    find_construction,
    lowest_nu_construction,
    nodal_surface_count,
    nodal_threefold_count,
    singular_census_3d,
    spectrum,
)
from belyi_forge.word_engine import trajectory, word_from_str, word_to_str


def test_frozen_high_multiplicity_counts():
    assert count_Anu(21, 5) == 757
    with pytest.warns(ExistenceUnverifiedWarning):
        assert count_Anu(9, 8) == 55


def test_count_rejects_bad_domain():
    with pytest.raises(ValueError):
        count_Anu(10, 5)
    with pytest.raises(ValueError):
        count_Anu(9, 2)


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
    sp = spectrum(js, prof, seed=seed, word="")
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
            sp = c.spectrum()
            js = jstats(c.degree)
            assert sp[c.nu] == js.n0 * (c.degree // (c.nu + 1)) + js.nm1
            if c.degree % 3 == 0:
                assert sp[c.nu] == count_Anu(c.degree, c.nu), (c.seed, c.word)
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
    assert c.degree == 21 and c.nu == 5
    assert find_construction(9, 8) is None


def test_lowest_nu_construction_is_first_at_its_degree():
    for d in (9, 12, 21, 30):
        at_d = [c for c in constructions_up_to(d) if c.degree == d]
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
    full = constructions_up_to(90)
    for d in range(3, 91, 3):
        assert constructions_up_to(d) == tuple(c for c in full if c.degree <= d), d


def test_catalogue_applies_each_prefix_once(monkeypatch):
    calls = []
    apply_letter = surface_counts.apply_letter

    def counting(state, letter):
        calls.append((state.seed, word_to_str(state.word) + letter.value))
        return apply_letter(state, letter)

    monkeypatch.setattr(surface_counts, "apply_letter", counting)
    surface_counts._constructions_for_seed.cache_clear()
    try:
        constructions_up_to(60)
    finally:
        surface_counts._constructions_for_seed.cache_clear()
    prefixes = set()
    for seed in surface_counts.seed_grid(60):
        for w in surface_counts._words_for_seed(seed, BOUND_TABLE_GUARD):
            text = word_to_str(w)
            prefixes |= {(seed, text[:i]) for i in range(1, len(text) + 1)}
    assert len(calls) == len(set(calls))
    assert set(calls) == prefixes


def test_end_to_end_census_smallest_surface():
    surface = build_surface(9, F1(0, 1), ())
    census = singular_census_3d(surface)
    assert census.verified
    assert census.total == 127
    assert census.by_type == {2: 127}
    pair_keys = {
        (round(p.j_value), round(p.u_value)): p.pair_count for p in census.pairs
    }
    assert pair_keys == {(0, 0): 108, (-1, 1): 19}
    assert census.max_value_defect < 1e-6
    state = trajectory(F1(0, 1), ())[-1]
    sp = spectrum(jstats(9), state.profile)
    assert census_matches_spectrum(census, sp)


def test_pairing_is_complete():
    surface = build_surface(9, F1(0, 1), ())
    census = singular_census_3d(surface)
    assert sum(p.pair_count for p in census.pairs) == census.total
    assert sum(census.by_type.values()) == census.total


def test_end_to_end_census_nodal_surface():
    surface = build_nodal_surface(3)
    census = singular_census_3d(surface)
    assert census.verified
    assert census.total == nodal_surface_count(3) == 4
    assert census.by_type == {1: 4}


def test_surface_polynomial_evaluates():
    surface = build_surface(9, F1(0, 1), ())
    value = surface(0.25, -0.3, 0.5)
    gx, gy, gw = surface.gradient(0.25, -0.3, 0.5)
    h = 1e-7
    fd = (surface(0.25 + h, -0.3, 0.5) - surface(0.25 - h, -0.3, 0.5)) / (2 * h)
    assert abs(gx - fd) < 1e-4 * max(1.0, abs(value))
    fd = (surface(0.25, -0.3, 0.5 + h) - surface(0.25, -0.3, 0.5 - h)) / (2 * h)
    assert abs(gw - fd) < 1e-4 * max(1.0, abs(value))
