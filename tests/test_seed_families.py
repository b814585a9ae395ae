"""Seed families: domains, frozen starting data, and coincidence identities."""

import math
from fractions import Fraction

import pytest

from belyi_forge import (
    F1,
    F2,
    F3,
    SeedDomainError,
    condition_E,
    format_seed,
    parse_seed,
    seed_from_json,
    seed_profile,
    seed_to_json,
    seed_triple,
    validate_profile,
    verify_coincidences,
)
from belyi_forge.seed_families import seed_satisfies_E, seed_start
from belyi_forge.surface_counts import seed_grid


def parameter_grid(bound: int = 6):
    """Every seed with all parameters at most ``bound``, within the domains."""
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
                    l_values = [0] if m == 1 else range(0, m - 1)
                    for l in l_values:
                        yield F3(x, j, n, m, l)


GRID = list(parameter_grid())


def test_grid_is_nontrivial():
    assert len(GRID) == 1330


def test_every_grid_seed_profile_validates():
    for seed in GRID:
        report = validate_profile(seed_profile(seed))
        assert report.ok, (seed, report.violations)


def test_every_grid_seed_satisfies_admissibility():
    for seed in GRID:
        assert seed_satisfies_E(seed), seed


def test_seed_start_is_the_triple_and_the_profile():
    for seed in GRID:
        assert seed_start(seed) == (seed_triple(seed), seed_profile(seed)), seed


def test_grid_degrees_divisible_by_three():
    for seed in GRID:
        assert seed_triple(seed).d0 % 3 == 0, seed


def test_grid_eps_below_nu():
    for seed in GRID:
        t = seed_triple(seed)
        assert t.eps < t.nu, seed


def test_triple_consistent_with_profile():
    for seed in GRID[::7]:
        t = seed_triple(seed)
        p = seed_profile(seed)
        assert p.degree == t.d0
        assert condition_E(t.d0, t.nu, p.count_black(t.nu), p.count_white(t.nu))


FROZEN_TRIPLES = {
    F1(0, 1): (9, 2, 0),
    F1(1, 1): (21, 5, 0),
    F1(2, 3): (141, 14, 0),
    F2(0, 1, 1, 1): (27, 6, 2),
    F2(0, 2, 1, 3): (153, 15, 2),
    F2(1, 0, 0, 0): (3, 1, 0),
    F2(1, 2, 1, 2): (108, 13, 3),
    F3(2, 1, 1, 1, 0): (33, 8, 0),
    F3(3, -1, 0, 2, 0): (36, 7, 0),
}


@pytest.mark.parametrize("seed,expected", sorted(FROZEN_TRIPLES.items(), key=repr))
def test_frozen_triples(seed, expected):
    t = seed_triple(seed)
    assert (t.d0, t.nu, t.eps) == expected


def rational_eps(x, j, l):
    """The F3 secondary multiplicity as the family writes it, in Fractions."""
    inner = 1 + ((x - 1) // 2 - Fraction(1, 2)) * j
    return 3 * l + 2 * math.floor(inner) + j * math.floor(Fraction(1, x))


def test_f3_eps_equals_the_rational_floors():
    f3 = [s for s in seed_grid(600) if isinstance(s, F3)]
    assert {(s.x, s.j) for s in f3} == {(x, j) for x in (1, 2, 3) for j in (-1, 0, 1)}
    for seed in f3:
        eps = seed_triple(seed).eps
        assert type(eps) is int, seed
        assert eps == rational_eps(seed.x, seed.j, seed.l), seed


def test_frozen_base_profile():
    p = seed_profile(F1(0, 1))
    assert p.black_mults == (2, 2, 2)
    assert p.white_mults == (2,)
    assert (p.black_leaves, p.white_leaves) == (0, 6)
    assert p.degree == 9


@pytest.mark.parametrize(
    "bad",
    [
        lambda: seed_triple(F1(-1, 1)),
        lambda: seed_triple(F1(0, 0)),
        lambda: seed_triple(F2(2, 1, 1, 1)),
        lambda: seed_triple(F2(0, 0, 1, 1)),
        lambda: seed_triple(F2(1, 0, 2, 1)),
        lambda: seed_triple(F3(4, 0, 0, 2, 0)),
        lambda: seed_triple(F3(1, 2, 0, 2, 0)),
        lambda: seed_triple(F3(1, 0, 1, 0, 0)),
        lambda: seed_triple(F3(1, 0, 0, 1, 0)),
        lambda: seed_triple(F3(1, 0, 0, 3, 2)),
        lambda: seed_triple(F3(1, 0, 0, 1, 1)),
    ],
)
def test_domain_violations_raise(bad):
    with pytest.raises(SeedDomainError):
        bad()


def test_coincidences_all_match():
    report = verify_coincidences(5, 5)
    assert report.ok
    assert len(report.pairs) > 0
    for pair in report.pairs:
        assert pair.matches, (pair.left, pair.right)
        assert seed_triple(pair.left) == seed_triple(pair.right)
        assert seed_profile(pair.left) == seed_profile(pair.right)


def test_known_coincidence_instance():
    assert seed_triple(F1(1, 1)) == seed_triple(F3(2, 1, 0, 1, 0))
    assert seed_profile(F1(1, 1)) == seed_profile(F3(2, 1, 0, 1, 0))


def test_format_parse_round_trip():
    for seed in seed_grid(200):
        assert parse_seed(format_seed(seed)) == seed


def test_json_round_trip():
    for seed in seed_grid(200):
        assert seed_from_json(seed_to_json(seed)) == seed


def test_json_lists_the_family_then_its_fields_in_order():
    assert list(seed_to_json(F3(1, 1, 0, 1, 0)).items()) == [
        ("family", "F3"), ("x", 1), ("j", 1), ("n", 0), ("m", 1), ("l", 0)
    ]


def test_parse_rejects_garbage():
    for text in ["F9:1,1", "F1:1", "F1:a,b", "", "F3:1,0,0"]:
        with pytest.raises(SeedDomainError):
            parse_seed(text)


@pytest.mark.parametrize("text", ["F1:1_0,1", "F1:\u0661,1", "F1:1,", "F1:1.0,1"])
def test_parse_takes_only_ascii_integers(text):
    with pytest.raises(SeedDomainError, match="malformed seed string"):
        parse_seed(text)


def test_parse_takes_lower_case_and_padded_parameters():
    assert parse_seed("f1:1,1") == F1(1, 1)
    assert parse_seed("F1: 0 , 1") == F1(0, 1)


@pytest.mark.parametrize(
    "obj",
    [
        {"family": "F1", "n": 1.9, "m": 1},
        {"family": "F1", "n": 1, "m": True},
        {"family": "F1", "n": "1", "m": 1},
    ],
)
def test_json_takes_only_int_fields(obj):
    with pytest.raises(SeedDomainError):
        seed_from_json(obj)


def test_json_rejects_an_unknown_family():
    with pytest.raises(SeedDomainError, match="unknown seed family: 'F4'"):
        seed_from_json({"family": "F4"})


@pytest.mark.parametrize(
    "obj",
    [
        {"family": "F1", "n": 1},
        {"n": 1, "m": 1},
        {"family": "F1", "n": 1, "m": 1, "zz": 3},
    ],
    ids=["missing-field", "missing-family", "unknown-key"],
)
def test_json_takes_exactly_the_family_keys(obj):
    with pytest.raises(SeedDomainError):
        seed_from_json(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"family": "F1", "n": -1, "m": 1}, "F1 requires n >= 0"),
        ({"family": "F3", "x": 4, "j": 0, "n": 0, "m": 2, "l": 0}, r"F3 requires x in \{1,2,3\}"),
    ],
)
def test_json_validates_the_parameter_domain(obj, message):
    with pytest.raises(SeedDomainError, match=message):
        seed_from_json(obj)
