"""Plane-tree realization: profile round trips, rewrite surgeries, exports."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from belyi_forge import F1, F3, CriticalProfile, validate_profile
from belyi_forge.tree_realization import (
    PlaneTree,
    RealizationError,
    apply_letter_tree,
    check_tree,
    derive_tree,
    export_dot,
    export_json_adjacency,
    parse_dot,
    profile_of,
    realize_profile,
    tree_from_json,
)
from belyi_forge.word_engine import enumerate_LE, trajectory, word_from_str


def small_valid_profiles():
    def build(black, white):
        black = tuple(black)
        white = tuple(white)
        d = sum(black) + sum(white) + 1
        assume(d <= 40)
        b_leaves = d - sum(m + 1 for m in black)
        w_leaves = d - sum(m + 1 for m in white)
        assume(b_leaves >= 0 and w_leaves >= 0)
        return CriticalProfile(black, white, b_leaves, w_leaves)

    mults = st.lists(st.integers(min_value=1, max_value=7), min_size=0, max_size=5)
    return st.builds(build, mults, mults)


@settings(max_examples=200)
@given(small_valid_profiles())
def test_realize_then_read_back_is_identity(p):
    t = realize_profile(p)
    check_tree(t)
    assert profile_of(t) == p


@settings(max_examples=100)
@given(small_valid_profiles())
def test_realized_tree_shape(p):
    t = realize_profile(p)
    assert t.vertex_count == p.degree + 1
    assert t.edge_count == p.degree
    for v, u in t.edges():
        assert t.colors[v] != t.colors[u]


def test_realize_rejects_invalid_profile():
    broken = CriticalProfile((2,), (2,), 5, 0)
    assert not validate_profile(broken).ok
    with pytest.raises(RealizationError):
        realize_profile(broken)


SEEDS = [F1(0, 1), F1(1, 1), F1(0, 2), F3(2, 1, 1, 1, 0)]


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_tree_rewrites_commute_with_profile_rewrites(seed):
    """Replaying a word by tree surgery gives the same profile trajectory
    as the profile-level engine, for every admissible short word."""
    for word in enumerate_LE(seed, 6):
        states = trajectory(seed, word)
        t = derive_tree(seed, word)
        check_tree(t)
        assert profile_of(t) == states[-1].profile, word


def test_single_surgery_matches_engine_step():
    seed = F1(1, 1)
    t = derive_tree(seed, "")
    site = next(
        v
        for v in range(t.vertex_count)
        if t.colors[v] == "white" and t.degree(v) == 1
    )
    t2 = apply_letter_tree(t, "a", site)
    s2 = trajectory(seed, word_from_str("a", seed))[-1]
    assert profile_of(t2) == s2.profile


def test_surgery_site_validation():
    t = derive_tree(F1(0, 1), "")
    black = next(v for v in range(t.vertex_count) if t.colors[v] == "black")
    with pytest.raises(RealizationError):
        apply_letter_tree(t, "a", black)
    with pytest.raises(RealizationError):
        apply_letter_tree(t, "b", black)
    with pytest.raises(RealizationError):
        apply_letter_tree(t, "a", t.vertex_count)
    # beta with no pending simple white anywhere
    white_leaf = next(
        v
        for v in range(t.vertex_count)
        if t.colors[v] == "white" and t.degree(v) == 1
    )
    with pytest.raises(RealizationError):
        apply_letter_tree(t, "b", white_leaf)


@pytest.mark.parametrize("letter", ["ab", "", "A"])
def test_surgery_takes_exactly_one_two_letter_code(letter):
    # The site is a white leaf, where alpha applies, so only the letter is wrong.
    t = derive_tree(F1(0, 1), "")
    white_leaf = next(
        v
        for v in range(t.vertex_count)
        if t.colors[v] == "white" and t.degree(v) == 1
    )
    apply_letter_tree(t, "a", white_leaf)
    with pytest.raises(RealizationError):
        apply_letter_tree(t, letter, white_leaf)


def test_check_tree_rejects_malformed_inputs():
    with pytest.raises(RealizationError):
        check_tree(PlaneTree(colors=(), rotation=()))
    with pytest.raises(RealizationError):
        check_tree(
            PlaneTree(colors=("black", "black"), rotation=((1,), (0,)))
        )
    with pytest.raises(RealizationError):
        check_tree(
            PlaneTree(colors=("black", "white"), rotation=((1,), ()))
        )
    # cycle: 4 vertices in a square
    with pytest.raises(RealizationError):
        check_tree(
            PlaneTree(
                colors=("black", "white", "black", "white"),
                rotation=((1, 3), (0, 2), (1, 3), (2, 0)),
            )
        )


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_dot_round_trip(seed):
    t = derive_tree(seed, "")
    text = export_dot(t)
    back = parse_dot(text)
    assert back.colors == t.colors
    assert back.rotation == t.rotation


def test_json_round_trip():
    t = derive_tree(F1(1, 1), word_from_str("ab", F1(1, 1)))
    back = tree_from_json(export_json_adjacency(t))
    assert back == t


def test_tree_from_json_refuses_unknown_colors():
    # The solver reads any color but black as white, so "red" must not pass.
    with pytest.raises(RealizationError, match="vertex 0 has color 'red'"):
        tree_from_json({"colors": ["red", "blue"], "adjacency": [[1], [0]]})


def test_tree_from_json_refuses_a_neighbor_out_of_range():
    with pytest.raises(RealizationError, match="vertex 0 has neighbor 3 outside 0..1"):
        tree_from_json({"colors": ["black", "white"], "adjacency": [[3], [0]]})


@pytest.mark.parametrize("u", [1.9, 1.0, True, "1"], ids=repr)
def test_tree_from_json_refuses_a_neighbor_that_is_not_an_int(u):
    # int() would read 1.9 as vertex 1 and True as vertex 1.
    with pytest.raises(RealizationError, match="vertex 0 has neighbor"):
        tree_from_json({"colors": ["black", "white"], "adjacency": [[u], [0]]})


@pytest.mark.parametrize(
    "colors, adjacency, v",
    [
        # The edge count reads 3 // 2 = 1 edge, and 0 is in vertex 1's list.
        (["black", "white"], [[1, 1], [0]], 0),
        # The profile would read a white 2-point with two black leaves.
        (["black", "white", "black"], [[1], [0, 2, 2], [1]], 1),
    ],
)
def test_tree_from_json_refuses_a_neighbor_listed_twice(colors, adjacency, v):
    with pytest.raises(RealizationError, match=f"vertex {v} lists a neighbor twice"):
        tree_from_json({"colors": colors, "adjacency": adjacency})


def test_parse_dot_refuses_an_edge_to_an_undeclared_vertex():
    text = "graph tree {\n  v0 [color=black];\n  v1 [color=white];\n  v0 -- v5;\n}\n"
    with pytest.raises(RealizationError, match="v0 -- v5"):
        parse_dot(text)


def test_derived_tree_grows_by_word_length():
    seed = F1(0, 1)
    base = derive_tree(seed, "")
    grown = derive_tree(seed, word_from_str("abab", seed))
    # each letter adds one hub plus nu fresh leaves
    assert grown.vertex_count == base.vertex_count + 4 * 3
    assert grown.edge_count == base.edge_count + 4 * 3
