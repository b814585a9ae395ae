"""Profile arithmetic: validation identities and the admissibility test."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from belyi_forge import (
    CriticalProfile,
    condition_E,
    profile_from_json,
    profile_satisfies_E,
    profile_to_json,
    top_stats,
    validate_profile,
)


def brute_condition(d: int, nu: int, n_minus1: int, n_plus1: int) -> bool:
    # Independent re-statement with math.floor on exact fractions.
    return (
        math.floor(d / (nu + 1)) == n_minus1
        and math.floor((d - 1) / nu) - math.floor(d / (nu + 1)) == n_plus1
    )


@settings(max_examples=400)
@given(
    d=st.integers(min_value=1, max_value=10_000),
    nu=st.integers(min_value=1, max_value=50),
    n_minus1=st.integers(min_value=0, max_value=40),
    n_plus1=st.integers(min_value=0, max_value=40),
)
def test_condition_matches_bruteforce_floors(d, nu, n_minus1, n_plus1):
    assert condition_E(d, nu, n_minus1, n_plus1) == brute_condition(
        d, nu, n_minus1, n_plus1
    )


@settings(max_examples=200)
@given(
    d=st.integers(min_value=1, max_value=10_000),
    nu=st.integers(min_value=1, max_value=50),
)
def test_condition_accepts_its_own_floor_values(d, nu):
    q = d // (nu + 1)
    r = (d - 1) // nu - q
    assert condition_E(d, nu, q, r)
    assert not condition_E(d, nu, q + 1, r)
    assert not condition_E(d, nu, q, r + 1)


def test_condition_rejects_bad_domain():
    with pytest.raises(ValueError):
        condition_E(0, 2, 0, 0)
    with pytest.raises(ValueError):
        condition_E(5, 0, 0, 0)


def balanced_profiles():
    """Profiles built to satisfy all three linear identities by construction.

    The degree is forced by the multiplicity sum, and the leaf counts are
    whatever the two handshake identities leave over; draws where a leaf
    count would go negative are discarded.
    """

    def build(black, white):
        black = tuple(black)
        white = tuple(white)
        d = sum(black) + sum(white) + 1
        b_leaves = d - sum(m + 1 for m in black)
        w_leaves = d - sum(m + 1 for m in white)
        assume(b_leaves >= 0 and w_leaves >= 0)
        return CriticalProfile(black, white, b_leaves, w_leaves)

    mults = st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=5)
    return st.builds(build, mults, mults)


@settings(max_examples=200)
@given(balanced_profiles())
def test_balanced_profiles_validate(p):
    report = validate_profile(p)
    assert report.ok, report.violations
    assert sum(p.black_mults) + sum(p.white_mults) == p.degree - 1
    assert p.white_degree == p.degree
    assert p.vertex_count == p.degree + 1


@settings(max_examples=200)
@given(balanced_profiles())
def test_perturbed_leaf_count_fails_validation(p):
    broken = CriticalProfile(
        p.black_mults, p.white_mults, p.black_leaves + 1, p.white_leaves
    )
    report = validate_profile(broken)
    assert not report.ok
    assert report.violations


def test_validate_flags_each_identity():
    bad_handshake = CriticalProfile((2,), (), 0, 5)
    rep = validate_profile(bad_handshake)
    assert not rep.ok
    assert any("handshake" in v for v in rep.violations)

    bad_leaves = CriticalProfile((2,), (2,), -1, 1)
    rep = validate_profile(bad_leaves)
    assert not rep.ok
    assert any("leaf" in v for v in rep.violations)


def test_profile_multisets_are_canonical():
    a = CriticalProfile((2, 5, 2), (3,), 1, 4)
    b = CriticalProfile((5, 2, 2), (3,), 1, 4)
    assert a == b
    assert a.black_mults == (5, 2, 2)
    assert a.count_black(2) == 2
    assert a.black_counter()[5] == 1


@settings(max_examples=200)
@given(
    black=st.lists(st.integers(min_value=1, max_value=30), max_size=8),
    white=st.lists(st.integers(min_value=1, max_value=30), max_size=8),
    black_leaves=st.integers(min_value=0, max_value=50),
    white_leaves=st.integers(min_value=0, max_value=50),
    data=st.data(),
)
def test_degree_is_stored_at_construction_and_ignored_by_equality(
    black, white, black_leaves, white_leaves, data
):
    # degree is read once, from the black side, whatever order the
    # multisets come in; it is not part of the profile's identity.
    p = CriticalProfile(tuple(black), tuple(white), black_leaves, white_leaves)
    q = CriticalProfile(
        tuple(data.draw(st.permutations(black))),
        tuple(data.draw(st.permutations(white))),
        black_leaves,
        white_leaves,
    )
    assert p.degree == q.degree == sum(m + 1 for m in black) + black_leaves
    assert p == q
    assert hash(p) == hash(q)
    assert repr(p) == repr(q)
    assert "degree" not in repr(p)
    assert profile_to_json(p) == profile_to_json(q)
    assert "degree" not in profile_to_json(p)


@settings(max_examples=300)
@given(
    black=st.lists(st.integers(min_value=1, max_value=12), max_size=6),
    white=st.lists(st.integers(min_value=1, max_value=12), max_size=6),
    black_leaves=st.integers(min_value=0, max_value=6),
    white_leaves=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_raised_is_the_constructors_profile(black, white, black_leaves, white_leaves, data):
    # A raise keeps each tuple descending and adds its new - old edges to
    # the degree, so the child is, in all five fields, the profile the
    # constructor sorts and sums from the same multisets and leaf counts.
    p = CriticalProfile(tuple(black), tuple(white), black_leaves, white_leaves)
    leaves = {"black": black_leaves, "white": white_leaves}
    mults = {"black": list(black), "white": list(white)}
    raises = {}
    for colour, far in (("black", "white"), ("white", "black")):
        if data.draw(st.booleans(), label=f"raise {colour}"):
            old = data.draw(st.sampled_from([0, *mults[colour]]), label=f"{colour} old")
            new = data.draw(st.integers(min_value=old + 1, max_value=old + 12))
            raises[colour] = (old, new)
            if old:
                mults[colour].remove(old)
            else:
                leaves[colour] -= 1
            mults[colour].append(new)
            leaves[far] += new - old
    child = p.raised(**raises)
    expected = CriticalProfile(
        mults["black"], mults["white"], leaves["black"], leaves["white"]
    )
    assert tuple(child) == tuple(expected)


def test_degree_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        CriticalProfile((2,), (2,), 1, 1, degree=4)


def test_top_stats_counts_top_multiplicity():
    p = CriticalProfile((3, 3, 2), (3, 1), 1, 5)
    s = top_stats(p, 3)
    assert (s.d, s.nu, s.n_minus1, s.n_plus1) == (p.degree, 3, 2, 1)
    off = top_stats(p, 7)
    assert off.n_minus1 == 0 and off.n_plus1 == 0
    with pytest.raises(ValueError):
        top_stats(p, 0)


@settings(max_examples=200)
@given(balanced_profiles(), st.integers(min_value=1, max_value=9))
def test_profile_satisfies_E_reads_the_top_stats(p, nu):
    s = top_stats(p, nu)
    assert profile_satisfies_E(p, nu) == condition_E(s.d, s.nu, s.n_minus1, s.n_plus1)


def test_profile_satisfies_E_rejects_bad_domain():
    with pytest.raises(ValueError):
        profile_satisfies_E(CriticalProfile((2,), (2,), 1, 1), 0)


@settings(max_examples=100)
@given(balanced_profiles())
def test_profile_json_round_trip(p):
    assert profile_from_json(profile_to_json(p)) == p


@pytest.mark.parametrize(
    "key,value",
    [("black", [2.7]), ("black", [True]), ("white", ["3"]), ("black_leaves", 1.0),
     ("white_leaves", True), ("white_leaves", "3")],
    ids=repr,
)
def test_profile_from_json_refuses_values_that_are_not_ints(key, value):
    # int() would read 2.7 as 2, True as 1 and "3" as 3.
    obj = profile_to_json(CriticalProfile((2,), (1, 1), 3, 1))
    assert profile_from_json(obj) == CriticalProfile((2,), (1, 1), 3, 1)
    with pytest.raises(ValueError, match="must be ints"):
        profile_from_json({**obj, key: value})
