"""Acceptance suite: one test per shipped claim, at the stated tolerances.

Each test prints a single PASS line with its measured runtime when it
succeeds; under ``pytest -v`` the per-test PASSED/FAILED line doubles as
the per-criterion verdict.
"""

import time
from fractions import Fraction

import pytest

from belyi_forge import (
    F1,
    F2,
    F3,
    DegreeGuardError,
    census_matches_jstats,
    census_matches_profile,
    critical_census_uni,
    jd_census,
    jstats,
    seed_profile,
    seed_triple,
    shabat_for_derivation,
    validate_profile,
    verify_Jd_dual_path,
    verify_coincidences,
)
from belyi_forge.arrangement_jd import DUAL_PATH_POINTS, jd_exact_values
from belyi_forge.seed_families import seed_satisfies_E
from belyi_forge.surface_counts import (
    ExistenceUnverifiedWarning,
    count_A2_family,
    count_Anu,
    nodal_surface_count,
    nodal_threefold_count,
    singular_census_3d,
    spectrum,
)
from belyi_forge.word_engine import (
    alternating_word,
    enumerate_LE,
    is_E_admissible,
    max_h,
    paper_word_families,
    trajectory,
    word_from_str,
)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.limit = seconds
        self.t0 = time.perf_counter()

    def done(self, detail: str) -> None:
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit, f"{self.name} took {elapsed:.1f}s"
        print(f"{self.name} PASS ({elapsed:.2f}s): {detail}")


def seed_parameter_grid(bound: int = 6):
    for n in range(0, bound + 1):
        for m in range(1, bound + 1):
            yield F1(n, m)
    for n in range(1, bound + 1):
        for m in range(1, bound + 1):
            for l in range(m, bound + 1):
                yield F2(0, n, m, l)
    for n in range(0, bound + 1):
        for m in range(0, bound + 1):
            for l in range(m, bound + 1):
                yield F2(1, n, m, l)
    for x in (1, 2, 3):
        for j in (-1, 0, 1):
            for n in range(0, bound + 1):
                for m in range(1, bound + 1):
                    if 3 * m + j < 4:
                        continue
                    for l in [0] if m == 1 else range(0, m - 1):
                        yield F3(x, j, n, m, l)


def test_criterion_01_seed_validity_sweep():
    budget = Budget("criterion 01 seed-validity", 1.0)
    seeds = list(seed_parameter_grid(6))
    for seed in seeds:
        assert validate_profile(seed_profile(seed)).ok, seed
        assert seed_satisfies_E(seed), seed
    budget.done(f"{len(seeds)} seeds validate and satisfy the admissibility test")


def test_criterion_02_coincidence_identities():
    budget = Budget("criterion 02 coincidences", 1.0)
    report = verify_coincidences(5, 5)
    assert report.ok
    assert all(p.matches for p in report.pairs)
    budget.done(f"{len(report.pairs)}/{len(report.pairs)} pairs match")


def test_criterion_03_word_chains():
    budget = Budget("criterion 03 word-chains", 1.0)
    states = trajectory(F1(1, 1), word_from_str("ab", F1(1, 1)))
    assert [s.stats().d for s in states] == [21, 27, 33]
    assert [s.stats().n_minus1 for s in states] == [3, 4, 5]
    for n in range(0, 6):
        seed = F2(1, n, 0, 1)
        degrees = [
            s.stats().d for s in trajectory(seed, word_from_str("dB", seed))
        ]
        assert degrees == [15 * n + 21, 15 * n + 24, 18 * n + 27], n
    budget.done("21-27-33 chain and six 15n+21 chains exact")


def test_criterion_04_step_bounds():
    budget = Budget("criterion 04 step-bounds", 5.0)
    seeds = [
        F1(n, m) for n in range(0, 5) for m in range(1, 5) if (n, m) != (0, 1)
    ]
    for x in (1, 2, 3):
        for j in (-1, 0, 1):
            for n in range(0, 3):
                for m in (1, 2):
                    if 3 * m + j < 4:
                        continue
                    seeds.append(F3(x, j, n, m, 0))
    checked = 0
    for seed in seeds:
        bound = max_h(seed)
        if bound == float("inf") or seed_triple(seed).nu <= 2:
            continue
        assert is_E_admissible(seed, alternating_word(bound)), seed
        assert not is_E_admissible(seed, alternating_word(bound + 1)), seed
        checked += 1
    assert checked >= 50
    assert is_E_admissible(F1(0, 1), alternating_word(200))
    budget.done(f"{checked} boundary pairs exact; base seed runs 100 rounds")


def test_criterion_05_catalogued_families():
    budget = Budget("criterion 05 families", 10.0)
    seeds = []
    for n in range(1, 5):
        for m in range(1, 5):
            for s in range(0, 5):
                seeds.append(F2(0, n, m, m + s))
    for n in range(0, 5):
        for m in range(0, 5):
            for s in range(0, 5):
                seeds.append(F2(1, n, m, m + s))
    seeds += [F1(n, m) for n in range(0, 5) for m in range(1, 5)]
    seeds += [
        F3(x, j, n, m, 0)
        for x in (1, 2, 3)
        for j in (-1, 0, 1)
        for n in range(0, 5)
        for m in (1, 2)
        if 3 * m + j >= 4
    ]
    total = 0
    for seed in seeds:
        try:
            words = paper_word_families(seed, limit=10)
        except Exception:
            continue
        for w in words:
            assert is_E_admissible(seed, w), (seed, w)
            total += 1
    assert total >= 3000

    special = F2(0, 2, 1, 1)
    finals = {
        w: trajectory(special, w)[-1]
        for w in paper_word_families(special)
    }
    for text in ("BggggggggA", "BggAgggggg"):
        assert finals[text].stats().d == 123
    for text in ("BggggggggAA", "BggAggggggA", "BggAgggAggg"):
        assert finals[text].stats().d == 126

    for n in range(1, 5):
        seed = F2(0, n, 1, 1)
        t = seed_triple(seed)
        assert t.d0 == 12 * n + 15
        degrees = set()
        for w in paper_word_families(seed):
            s = trajectory(seed, w)[-1].stats()
            degrees.add(s.d)
            three_m = s.d - t.d0 - (s.n_minus1 - 3) * t.nu
            assert three_m >= 0 and three_m % 3 == 0
            assert s.n_minus1 - 3 - three_m // 3 >= 0
        assert max(degrees) == 2 * t.nu * (t.nu + 1)
    budget.done(f"{total} catalogued words admissible; d=123/126 and the"
                " 12n+15 series reproduce")


def test_criterion_06_arrangement_census():
    budget = Budget("criterion 06 arrangement-census", 120.0)
    frozen = {3: (3, 0, 1), 4: (6, 1, 2), 5: (10, 2, 4), 6: (15, 3, 7)}
    for d, triple in frozen.items():
        stats = jstats(d)
        assert (stats.n0, stats.n8, stats.nm1) == triple
        census = jd_census(d)
        assert census_matches_jstats(census, stats), census.as_dict()
        assert census.total == (d - 1) ** 2
        assert census.all_nondegenerate
    budget.done("rational censuses at d=3..6 match the closed-form triples")


def test_criterion_07_rationality():
    budget = Budget("criterion 07 rationality", 30.0)
    for d in range(3, 10):
        values = jd_exact_values(d, DUAL_PATH_POINTS)
        assert all(type(v) is Fraction for v in values), d
        diff = verify_Jd_dual_path(d)
        assert diff < 1e-20, (d, diff)
    budget.done("exact values at d=3..9; dual-path gap below 1e-20")


def test_criterion_08_shabat_realization():
    budget = Budget("criterion 08 shabat-realization", 120.0)
    seed = F1(0, 1)
    solved = 0
    for word in enumerate_LE(seed, 4):
        state = trajectory(seed, word)[-1]
        if state.profile.degree > 16:
            with pytest.raises(DegreeGuardError):
                shabat_for_derivation(seed, word, max_restarts=32)
            continue
        sol = shabat_for_derivation(seed, word, max_restarts=32)
        assert sol.converged
        assert sol.residual < 1e-8, word
        census = critical_census_uni(sol.polynomial(), cluster_tol=1e-4)
        assert census_matches_profile(census, state.profile), word
        solved += 1
    assert solved == 3
    for guard_seed in (F1(1, 1), F3(2, 1, 0, 1, 0)):
        assert seed_triple(guard_seed).d0 > 16
        with pytest.raises(DegreeGuardError):
            shabat_for_derivation(guard_seed, "")
    budget.done("degrees 9/12/15 solved to 1e-8 with matching censuses;"
                " larger trees stopped by the degree guard")


def test_criterion_09_count_formulas():
    budget = Budget("criterion 09 count-formulas", 1.0)
    series = [count_A2_family(h) for h in range(11)]
    assert series == [127, 301, 647, 1100, 1851, 2715, 4027, 5434, 7463, 9545, 12447]
    seed = F1(0, 1)
    for h in range(11):
        word = word_from_str("ab" * (h // 2) + "a" * (h % 2), seed)
        state = trajectory(seed, word)[-1]
        sp = spectrum(jstats(state.stats().d), state.profile)
        assert sp[2] == series[h], h
    assert count_Anu(21, 5) == 757
    with pytest.warns(ExistenceUnverifiedWarning):
        assert count_Anu(9, 8) == 55
    assert {d: nodal_surface_count(d) for d in (3, 6, 9)} == {3: 4, 6: 59, 9: 220}
    assert {d: nodal_threefold_count(d) for d in (3, 4, 6)} == {3: 10, 4: 41, 6: 283}
    budget.done("cusp series, 757/55, nodal and threefold counts all exact")


def test_criterion_10_end_to_end_census():
    budget = Budget("criterion 10 end-to-end", 600.0)
    census = singular_census_3d(9, shabat_for_derivation(F1(0, 1), ""))
    assert census.verified
    assert census.total == 127 == count_A2_family(0)
    pair_keys = {
        (round(p.j_value), round(p.u_value)): p.pair_count for p in census.pairs
    }
    assert pair_keys == {(0, 0): 108, (-1, 1): 19}
    state = trajectory(F1(0, 1), "")[-1]
    assert census.by_type == spectrum(jstats(9), state.profile)

    nodal = singular_census_3d(3)
    assert nodal.verified
    assert nodal.total == 4
    budget.done("127 = 108 + 19 singular points at d=9; 4 nodes at d=3")
