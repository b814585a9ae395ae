"""Rewriting words: admissibility language, step bounds, catalogued families."""

import hashlib
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_profile_core import balanced_profiles

from belyi_forge import (
    F1,
    F2,
    F3,
    format_seed,
    parse_seed,
    profile_core,
    seed_profile,
    seed_triple,
    word_engine,
)
from belyi_forge.profile_core import CriticalProfile, validate_profile
from belyi_forge.surface_counts import seed_grid
from belyi_forge.word_engine import (
    T2_ALPHABET,
    T13_ALPHABET,
    AlphabetMismatchError,
    DerivationState,
    LetterNotApplicableError,
    NoFamilyRecordedError,
    WordEngineError,
    admissible_end,
    admissible_ends,
    alphabet_for,
    alternating_word,
    apply_letter,
    catalogue_ends,
    enumerate_LE,
    initial_state,
    is_E_admissible,
    max_h,
    paper_word_families,
    trajectory,
    word_from_str,
)

T13_SEEDS = [F1(0, 1), F1(1, 1), F1(2, 1), F1(0, 3), F3(2, 1, 1, 1, 0), F3(3, -1, 0, 2, 0)]
T2_SEEDS = [F2(0, 1, 1, 1), F2(0, 1, 2, 3), F2(1, 1, 1, 1), F2(1, 0, 0, 1)]


@pytest.mark.parametrize("seed", T13_SEEDS + T2_SEEDS, ids=repr)
def test_enumeration_prefix_closed(seed):
    words = enumerate_LE(seed, 5)
    pool = set(words)
    assert "" in pool
    for w in words:
        for cut in range(len(w)):
            assert w[:cut] in pool, (w, cut)


@pytest.mark.parametrize("seed", T13_SEEDS + T2_SEEDS, ids=repr)
def test_enumeration_matches_brute_force(seed):
    letters = alphabet_for(seed)
    brute = [
        w
        for n in range(6)
        for w in map("".join, itertools.product(letters, repeat=n))
        if is_E_admissible(seed, w)
    ]
    assert enumerate_LE(seed, 5) == brute


def test_enumeration_reference_counts():
    assert len(enumerate_LE(F2(0, 2, 2, 2), 10)) == 70572
    assert len(enumerate_LE(F2(1, 2, 2, 2), 9)) == 45053


# sha256 of the "\n"-joined words of enumerate_LE(seed, length): the two
# second-family runs of the enumerate benchmark, and every first- and
# third-family seed of seed_grid(60) at length 12.  Recorded while words
# were still tuples of letter objects, so a reordered or wrong list fails,
# not just a wrong count.
ENUMERATION_SHA256 = {
    ("F1:0,1", 12): "38381dc2bc91a21617a2c3e2a0277dded2a12df2dff91453b20fc9a6ded72ede",
    ("F1:0,2", 12): "17e7e3dd4c02bd903eb89fce48d3e3fc5528ef4860583564a5ca4a676aff3d4f",
    ("F1:1,1", 12): "17e7e3dd4c02bd903eb89fce48d3e3fc5528ef4860583564a5ca4a676aff3d4f",
    ("F1:1,2", 12): "83c4aeb6272404f99899fc353ecfed0298ec30564bfa08bc94f86f0176682ee7",
    ("F1:2,1", 12): "83c4aeb6272404f99899fc353ecfed0298ec30564bfa08bc94f86f0176682ee7",
    ("F1:3,1", 12): "8d2866b20cce17ef51adbbf179c95f95df5ff8eac1e41394949dc5285936b121",
    ("F1:4,1", 12): "48adc405d64905c2e5aca3df6223ddc4fa65bbfcae3abdac2de36404660377c2",
    ("F2:0,2,2,2", 10): "709a99b274f654199648b0a01dddbaef05b9337a8f7ff5cf70320812e04f37e8",
    ("F2:1,2,2,2", 9): "503fbdd5f3fe62f0b3d7532230d337db36bd8995e5a3f1451567e5aa941f5865",
    ("F3:1,-1,0,2,0", 12): "87f3629e5846693be2ea1894be1fa3c0f369e7a1c926b47582e9327765c4cfe4",
    ("F3:1,-1,1,2,0", 12): "18ed6bb8fd5cb2b0bbd752e1e4df9c8a7dd32489f1326f3a98c4db11ab2cb789",
    ("F3:1,-1,2,2,0", 12): "7092142f07910ad87761a339fc0dbe0f180cfad74753f665388587abd86b2e14",
    ("F3:1,0,0,2,0", 12): "87f3629e5846693be2ea1894be1fa3c0f369e7a1c926b47582e9327765c4cfe4",
    ("F3:1,0,1,2,0", 12): "18ed6bb8fd5cb2b0bbd752e1e4df9c8a7dd32489f1326f3a98c4db11ab2cb789",
    ("F3:1,1,0,1,0", 12): "96f96dc530d3794ed4299baa886ad93aa54e8be50526b773b6e233711b92e6bb",
    ("F3:1,1,0,2,0", 12): "e98a8684577e42ca115db6ae651fdcd88b366a3158c8bc0595dbd2fcfd47cc55",
    ("F3:1,1,1,1,0", 12): "e98a8684577e42ca115db6ae651fdcd88b366a3158c8bc0595dbd2fcfd47cc55",
    ("F3:1,1,2,1,0", 12): "f4b11919cb1b8dd924235292c5c59dd3482886df62b5d765e746d930806f2e89",
    ("F3:1,1,3,1,0", 12): "9ffbbcfb391d6e3438fc106a6540c3102d6fc210be36ad379ba6db81d8e28215",
    ("F3:2,-1,0,2,0", 12): "87f3629e5846693be2ea1894be1fa3c0f369e7a1c926b47582e9327765c4cfe4",
    ("F3:2,-1,1,2,0", 12): "18ed6bb8fd5cb2b0bbd752e1e4df9c8a7dd32489f1326f3a98c4db11ab2cb789",
    ("F3:2,0,0,2,0", 12): "17e7e3dd4c02bd903eb89fce48d3e3fc5528ef4860583564a5ca4a676aff3d4f",
    ("F3:2,1,0,1,0", 12): "17e7e3dd4c02bd903eb89fce48d3e3fc5528ef4860583564a5ca4a676aff3d4f",
    ("F3:2,1,0,2,0", 12): "83c4aeb6272404f99899fc353ecfed0298ec30564bfa08bc94f86f0176682ee7",
    ("F3:2,1,1,1,0", 12): "83c4aeb6272404f99899fc353ecfed0298ec30564bfa08bc94f86f0176682ee7",
    ("F3:2,1,2,1,0", 12): "8d2866b20cce17ef51adbbf179c95f95df5ff8eac1e41394949dc5285936b121",
    ("F3:2,1,3,1,0", 12): "48adc405d64905c2e5aca3df6223ddc4fa65bbfcae3abdac2de36404660377c2",
    ("F3:3,-1,0,2,0", 12): "18ed6bb8fd5cb2b0bbd752e1e4df9c8a7dd32489f1326f3a98c4db11ab2cb789",
    ("F3:3,-1,1,2,0", 12): "7092142f07910ad87761a339fc0dbe0f180cfad74753f665388587abd86b2e14",
    ("F3:3,0,0,2,0", 12): "e98a8684577e42ca115db6ae651fdcd88b366a3158c8bc0595dbd2fcfd47cc55",
    ("F3:3,1,0,1,0", 12): "87f3629e5846693be2ea1894be1fa3c0f369e7a1c926b47582e9327765c4cfe4",
    ("F3:3,1,1,1,0", 12): "18ed6bb8fd5cb2b0bbd752e1e4df9c8a7dd32489f1326f3a98c4db11ab2cb789",
    ("F3:3,1,2,1,0", 12): "7092142f07910ad87761a339fc0dbe0f180cfad74753f665388587abd86b2e14",
}


@pytest.mark.parametrize("name, length", list(ENUMERATION_SHA256), ids=str)
def test_enumerated_word_lists_are_frozen(name, length):
    words = enumerate_LE(parse_seed(name), length)
    digest = hashlib.sha256("\n".join(words).encode()).hexdigest()
    assert digest == ENUMERATION_SHA256[(name, length)]


def test_enumeration_applies_each_profile_letter_pair_once(monkeypatch):
    seed, max_len = F2(0, 2, 2, 2), 8
    pairs = []
    apply_letter = word_engine.apply_letter

    def counting(state, letter):
        pairs.append((state.profile, letter))
        return apply_letter(state, letter)

    monkeypatch.setattr(word_engine, "apply_letter", counting)
    words = enumerate_LE(seed, max_len)
    monkeypatch.undo()
    expanded = {trajectory(seed, w)[-1].profile for w in words if len(w) < max_len}
    assert len(set(pairs)) == len(pairs)
    assert len(pairs) <= len(alphabet_for(seed)) * len(expanded)


def test_enumeration_expands_each_profile_once(monkeypatch):
    # 955 admissibility steps, the count before profiles were numbered:
    # each distinct profile reached below length 10 tries each letter once.
    calls = []
    admissible_child = word_engine._admissible_child

    def counting(state, letter):
        calls.append(letter)
        return admissible_child(state, letter)

    monkeypatch.setattr(word_engine, "_admissible_child", counting)
    words = enumerate_LE(F2(0, 2, 2, 2), 10)
    assert len(words) == 70572
    assert len(calls) == 955


def counter_replace(mults, old, new):
    """_replace by multiset arithmetic: one copy of old out, one of new in."""
    bag = Counter(mults)
    bag.subtract(Counter([old]))
    if any(c < 0 for c in bag.values()):
        raise LetterNotApplicableError("internal: removed a missing multiplicity")
    bag.update(Counter([new]))
    return tuple(bag.elements())


def letter_outcome(state, letter):
    """The child's profile and its degree, or the error's message."""
    try:
        child = apply_letter(state, letter).profile
    except LetterNotApplicableError as exc:
        return ("not applicable", str(exc))
    return (child, child.degree)


# The hand-built letter steps that _apply replaced, kept as its reference:
# each letter's child profile spelled out field by field, with multiplicities
# swapped by counter_replace.
def reference_t13(state, letter):
    p, nu = state.profile, state.nu
    if letter == "a":
        if p.white_leaves < 1:
            raise LetterNotApplicableError("alpha needs a white leaf to upgrade")
        return CriticalProfile(
            black_mults=p.black_mults + (nu,),
            white_mults=p.white_mults + (1,),
            black_leaves=p.black_leaves,
            white_leaves=p.white_leaves + nu - 1,
        )
    if 1 not in p.white_mults:
        raise LetterNotApplicableError(
            "beta needs the simple white point left by a preceding alpha"
        )
    return CriticalProfile(
        black_mults=p.black_mults + (nu,),
        white_mults=counter_replace(p.white_mults, 1, 2),
        black_leaves=p.black_leaves,
        white_leaves=p.white_leaves + nu,
    )


def reference_t2(state, letter):
    p, nu = state.profile, state.nu
    if letter == "A":
        if p.white_leaves < 1:
            raise LetterNotApplicableError("alpha needs a white leaf")
        if nu <= 3:
            raise LetterNotApplicableError("alpha would create a second top point")
        return CriticalProfile(
            black_mults=p.black_mults,
            white_mults=p.white_mults + (3,),
            black_leaves=p.black_leaves + 3,
            white_leaves=p.white_leaves - 1,
        )
    if letter == "B":
        if p.white_leaves < 1:
            raise LetterNotApplicableError("beta needs a white leaf")
        if nu <= 2:
            raise LetterNotApplicableError("beta would duplicate the white top point")
        res_black = [m for m in p.black_mults if m != nu]
        if res_black:
            eps = max(res_black)
            return CriticalProfile(
                black_mults=counter_replace(p.black_mults, eps, nu),
                white_mults=p.white_mults + (2,),
                black_leaves=p.black_leaves + 2,
                white_leaves=p.white_leaves + nu - eps - 1,
            )
        if p.black_leaves < 1:
            raise LetterNotApplicableError("beta needs a black leaf to promote")
        return CriticalProfile(
            black_mults=p.black_mults + (nu,),
            white_mults=p.white_mults + (2,),
            black_leaves=p.black_leaves + 1,
            white_leaves=p.white_leaves + nu - 1,
        )
    if letter == "g":
        if p.black_leaves < 1:
            raise LetterNotApplicableError("gamma needs a black leaf to promote")
        return CriticalProfile(
            black_mults=p.black_mults + (nu,),
            white_mults=p.white_mults,
            black_leaves=p.black_leaves - 1,
            white_leaves=p.white_leaves + nu,
        )
    if letter == "d":
        res_black = [m for m in p.black_mults if m != nu]
        if res_black:
            target = max(res_black)
            if target + 3 >= nu:
                raise LetterNotApplicableError(
                    "delta would push the secondary black point to the top multiplicity"
                )
            return CriticalProfile(
                black_mults=counter_replace(p.black_mults, target, target + 3),
                white_mults=p.white_mults,
                black_leaves=p.black_leaves,
                white_leaves=p.white_leaves + 3,
            )
        if p.black_leaves < 1:
            raise LetterNotApplicableError("delta needs a black leaf to promote")
        if 3 >= nu:
            raise LetterNotApplicableError("delta would reach the top multiplicity")
        return CriticalProfile(
            black_mults=p.black_mults + (3,),
            white_mults=p.white_mults,
            black_leaves=p.black_leaves - 1,
            white_leaves=p.white_leaves + 3,
        )
    res_white = [m for m in p.white_mults if m != nu]
    if res_white:
        target = min(res_white)
        if target + 3 >= nu:
            raise LetterNotApplicableError(
                "delta-bar would push a white point to the top multiplicity"
            )
        return CriticalProfile(
            black_mults=p.black_mults,
            white_mults=counter_replace(p.white_mults, target, target + 3),
            black_leaves=p.black_leaves + 3,
            white_leaves=p.white_leaves,
        )
    if p.white_leaves < 1:
        raise LetterNotApplicableError("delta-bar needs a white leaf to promote")
    if 3 >= nu:
        raise LetterNotApplicableError("delta-bar would reach the top multiplicity")
    return CriticalProfile(
        black_mults=p.black_mults,
        white_mults=p.white_mults + (3,),
        black_leaves=p.black_leaves + 3,
        white_leaves=p.white_leaves - 1,
    )


ALL_LETTERS = T13_ALPHABET + T2_ALPHABET


def step_outcomes(step, states):
    """step(state, letter) for every state and every letter of both
    alphabets: the child profile, or the refusal's message."""
    outcomes = []
    for state in states:
        for letter in ALL_LETTERS:
            try:
                outcomes.append(step(state, letter))
            except LetterNotApplicableError as exc:
                outcomes.append(("not applicable", str(exc)))
    return outcomes


def reference_step(state, letter):
    """The hand-built steps, with the one refusal they lacked: B when eps,
    the largest black multiplicity other than nu, exceeds nu, where their
    step lowered that vertex and could leave a negative leaf count."""
    child = (reference_t2 if letter in T2_ALPHABET else reference_t13)(state, letter)
    eps = max([m for m in state.profile.black_mults if m != state.nu], default=0)
    if letter == "B" and eps > state.nu:
        raise LetterNotApplicableError("beta would lower the secondary black point")
    return child


def reached_states(seed, max_len):
    """One state per distinct profile reached by enumerate_LE(seed, max_len),
    or by catalogue_ends(seed, 60) when max_len is None."""
    if max_len is None:
        states = catalogue_ends(seed, 60)
    else:
        by_word = {"": initial_state(seed)}
        for w in enumerate_LE(seed, max_len)[1:]:
            by_word[w] = apply_letter(by_word[w[:-1]], w[-1])
        states = by_word.values()
    return list({s.profile: s for s in states}.values())


REFERENCE_CASES = [(F2(0, 2, 2, 2), 8), (F2(1, 2, 2, 2), 7)] + [
    (s, None) for s in seed_grid(60)
]


@pytest.mark.parametrize(
    "seed, max_len",
    REFERENCE_CASES,
    ids=[
        f"{format_seed(s)}-{'catalogue' if n is None else f'LE{n}'}"
        for s, n in REFERENCE_CASES
    ],
)
def test_letter_steps_match_the_counter_reference(monkeypatch, seed, max_len):
    # Every letter of the alphabet from every profile reached: the one-slot
    # swap gives the same child, or refuses with the same message, as
    # multiset arithmetic on Counter bags.  So do the raises against the
    # hand-built steps, on every letter of both alphabets.
    states = reached_states(seed, max_len)
    assert states
    assert step_outcomes(word_engine._apply, states) == step_outcomes(reference_step, states)
    letters = alphabet_for(seed)
    fast = [letter_outcome(s, x) for s in states for x in letters]
    monkeypatch.setattr(word_engine, "_replace", counter_replace)
    reference = [letter_outcome(s, x) for s in states for x in letters]
    assert fast == reference
    for outcome in fast:
        if outcome[0] != "not applicable":
            child, degree = outcome
            assert degree == sum(m + 1 for m in child.black_mults) + child.black_leaves


def test_replace_swaps_one_copy():
    assert word_engine._replace((5, 2, 2, 1), 2, 5) == (5, 5, 2, 1)
    assert word_engine._replace((3,), 3, 6) == (6,)
    with pytest.raises(LetterNotApplicableError, match="missing multiplicity"):
        word_engine._replace((5, 2), 1, 2)


def random_states(count, rng_seed):
    """count seeded states of nu 1..9 whose multiplicities (1..nu+1, so
    nu and values past it occur) and leaf counts (0..3) are drawn freely:
    most are not valid profiles, and many letters are refused."""
    rng = random.Random(rng_seed)
    states = []
    for _ in range(count):
        nu = rng.randint(1, 9)
        black, white = (
            tuple(rng.randint(1, nu + 1) for _ in range(rng.randint(0, 4))) for _ in "bw"
        )
        profile = CriticalProfile(black, white, rng.randint(0, 3), rng.randint(0, 3))
        states.append(DerivationState(seed=F2(0, 1, 1, 1), word="", profile=profile, nu=nu))
    return states


@pytest.mark.parametrize("rng_seed", range(4))
def test_raises_match_the_hand_built_steps_on_random_states(rng_seed):
    # 4 x 25,000 states, every letter of both alphabets on each.
    states = random_states(25_000, rng_seed)
    assert step_outcomes(word_engine._apply, states) == step_outcomes(reference_step, states)


def raised_edges(profile, nu, letter):
    """The sum of new - old over the letter's raises, read off the table."""
    eps = max([m for m in profile.black_mults if m != nu], default=0)
    return {"a": 1 + nu, "b": 1 + nu, "A": 3, "B": nu - eps + 2, "g": nu, "d": 3, "D": 3}[letter]


@settings(max_examples=300)
@given(balanced_profiles(), st.integers(min_value=0, max_value=6))
def test_a_raise_keeps_a_profile_valid(profile, headroom):
    # Each raise adds new - old edges and as many far leaves, so the three
    # tree identities hold after every letter that applies.  nu is the top
    # multiplicity, at or above every multiplicity of the state, as in every
    # seed: B's black eps -> nu is a raise only when eps < nu.
    nu = max(profile.black_mults + profile.white_mults, default=1) + headroom
    for seed, letters in ((F1(0, 1), T13_ALPHABET), (F2(0, 1, 1, 1), T2_ALPHABET)):
        state = DerivationState(seed=seed, word="", profile=profile, nu=nu)
        for letter in letters:
            try:
                child = apply_letter(state, letter).profile
            except LetterNotApplicableError:
                continue
            assert validate_profile(child).ok, (letter, child)
            assert child.degree == profile.degree + raised_edges(profile, nu, letter)


def test_beta_refuses_to_lower_the_secondary_black_point():
    # eps = 4 above nu = 3: the step would take the black 4 down to 3 and
    # leave white_leaves at -1.
    profile = CriticalProfile((4, 1), (1, 1, 1, 1, 1), 4, 1)
    assert validate_profile(profile).ok
    state = DerivationState(seed=F2(0, 1, 1, 1), word="", profile=profile, nu=3)
    with pytest.raises(LetterNotApplicableError, match="lower the secondary black point"):
        apply_letter(state, "B")


@settings(max_examples=300)
@given(balanced_profiles(), st.integers(min_value=1, max_value=10))
def test_no_letter_returns_an_invalid_profile(profile, nu):
    # nu is drawn apart from the profile, so it may sit below the state's
    # top multiplicity: every letter of both alphabets either refuses or
    # returns a valid profile.
    for seed, letters in ((F1(0, 1), T13_ALPHABET), (F2(0, 1, 1, 1), T2_ALPHABET)):
        state = DerivationState(seed=seed, word="", profile=profile, nu=nu)
        for letter in letters:
            try:
                child = apply_letter(state, letter).profile
            except LetterNotApplicableError:
                continue
            assert validate_profile(child).ok, (letter, nu, child)


def test_enumeration_deterministic():
    a = enumerate_LE(F2(0, 1, 1, 1), 6)
    b = enumerate_LE(F2(0, 1, 1, 1), 6)
    assert a == b
    lengths = [len(w) for w in a]
    assert lengths == sorted(lengths)


@pytest.mark.parametrize("seed", T13_SEEDS, ids=repr)
def test_degree_and_count_closure_alternating_alphabet(seed):
    t = seed_triple(seed)
    base = seed_profile(seed)
    n_minus1_0 = base.count_black(t.nu)
    for w in enumerate_LE(seed, 6):
        h = len(w)
        s = trajectory(seed, w)[-1].stats()
        assert s.d == t.d0 + h * (t.nu + 1), w
        assert s.n_minus1 == n_minus1_0 + h, w
        expected_plus = 1 + (h // 2 if t.nu == 2 else 0)
        assert s.n_plus1 == expected_plus, w


def test_base_seed_language_is_alternating_chain():
    words = enumerate_LE(F1(0, 1), 8)
    assert words == [
        "",
        "a",
        "ab",
        "aba",
        "abab",
        "ababa",
        "ababab",
        "abababa",
        "abababab",
    ]


def test_bounded_seed_longest_word():
    words = enumerate_LE(F1(1, 1), 10)
    assert max(len(w) for w in words) == 4
    assert word_from_str("abab", F1(1, 1)) in words


@pytest.mark.parametrize("seed", T13_SEEDS + T2_SEEDS, ids=repr)
def test_zero_length_enumeration(seed):
    assert enumerate_LE(seed, 0) == [""]


def test_max_h_frozen_values():
    assert max_h(F1(1, 1)) == 4
    assert max_h(F3(2, 1, 2, 1, 0)) == 10
    assert max_h(F1(0, 1)) == math.inf
    with pytest.raises(WordEngineError):
        max_h(F2(0, 1, 1, 1))


def test_max_h_first_family_closed_form():
    for n in range(0, 5):
        for m in range(1, 5):
            if (n, m) == (0, 1):
                continue
            assert max_h(F1(n, m)) == 3 * (n + m) - 2, (n, m)


def alternating_seeds_with_finite_bound():
    seeds = [F1(n, m) for n in range(0, 4) for m in range(1, 4) if (n, m) != (0, 1)]
    for x in (1, 2, 3):
        for j in (-1, 0, 1):
            for m in (1, 2):
                if 3 * m + j < 4:
                    continue
                seeds.append(F3(x, j, 1, m, 0))
    return seeds


@pytest.mark.parametrize("seed", alternating_seeds_with_finite_bound(), ids=repr)
def test_alternating_words_pass_exactly_to_the_bound(seed):
    bound = max_h(seed)
    assert bound >= 0
    assert is_E_admissible(seed, alternating_word(bound))
    assert not is_E_admissible(seed, alternating_word(bound + 1))


def test_unbounded_seed_runs_very_long():
    assert is_E_admissible(F1(0, 1), alternating_word(200))


def test_word_string_round_trip():
    assert word_from_str("abab", F1(0, 1)) == "abab"
    assert word_from_str("BggAdD", F2(0, 1, 1, 1)) == "BggAdD"
    with pytest.raises(AlphabetMismatchError):
        word_from_str("ab", F2(0, 1, 1, 1))
    with pytest.raises(AlphabetMismatchError):
        word_from_str("Bg", F1(0, 1))
    with pytest.raises(WordEngineError):
        word_from_str("xyz", F1(0, 1))


@pytest.mark.parametrize("text", [("a", "b"), ["a"], ()], ids=repr)
def test_word_from_str_takes_only_a_str(text):
    # A tuple of valid letters would pass the letter check unchanged.
    with pytest.raises(TypeError):
        word_from_str(text, F1(0, 1))


@pytest.mark.parametrize("seed", [F1(0, 1), F2(0, 1, 1, 1)], ids=repr)
@pytest.mark.parametrize("letter", ["ab", "", "AB", "Bg", "x"])
def test_apply_letter_takes_exactly_one_letter(seed, letter):
    # A str `in` test against the alphabet string would let "ab" and "" in.
    with pytest.raises(AlphabetMismatchError):
        apply_letter(initial_state(seed), letter)


FAMILY_SEEDS = [
    F1(0, 1),
    F1(1, 2),
    F3(2, 1, 1, 1, 0),
    F2(0, 1, 1, 1),
    F2(0, 2, 1, 1),
    F2(0, 1, 2, 2),
    F2(0, 1, 2, 3),
    F2(1, 1, 1, 1),
    F2(1, 2, 1, 3),
]


@pytest.mark.parametrize("seed", FAMILY_SEEDS, ids=repr)
def test_catalogued_families_are_admissible(seed):
    words = paper_word_families(seed, limit=8)
    assert words
    for w in words:
        assert is_E_admissible(seed, w), (seed, w)


def test_families_are_a_sublanguage():
    seed = F2(0, 1, 1, 1)
    fam = set(paper_word_families(seed))
    assert fam
    pool = set(enumerate_LE(seed, max(len(w) for w in fam)))
    assert fam <= pool


# sha256 of "<seed> <words>" lines, one per seed of seed_grid(200), with the
# words of paper_word_families(seed) space-joined ("-" when none is recorded),
# recorded before the second-family generators took a length bound.
FAMILIES_200_SHA256 = "0ad3cbe2ca2bb6654966e17eac3e93423c0a9b8671d00f1ef35dfe47c7de0e31"


def test_families_of_the_table_grid_are_frozen():
    lines = []
    for seed in seed_grid(200):
        try:
            text = " ".join(paper_word_families(seed))
        except NoFamilyRecordedError:
            text = "-"
        lines.append(f"{format_seed(seed)} {text}\n")
    assert len(lines) == 414
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == FAMILIES_200_SHA256


@pytest.mark.parametrize("limit", [-1, 65])
def test_family_limit_outside_the_guard_is_rejected(limit):
    # Rejected for every seed, whether or not the limit would end its
    # family: a nu = 2 family has no end, and its 64th word already ends
    # at degree 201.
    for seed in (F1(0, 1), F1(1, 1), F2(0, 1, 1, 1), F2(1, 0, 0, 0)):
        with pytest.raises(ValueError, match="limit"):
            paper_word_families(seed, limit=limit)


def test_family_limit_truncates_only_an_endless_family():
    assert paper_word_families(F1(0, 1), limit=0) == []
    assert paper_word_families(F1(0, 1), limit=64) == [
        alternating_word(k) for k in range(1, 65)
    ]
    assert paper_word_families(F1(1, 1), limit=0) == paper_word_families(F1(1, 1))


def test_no_family_for_trivial_seed():
    with pytest.raises(NoFamilyRecordedError):
        paper_word_families(F2(1, 0, 0, 0))


def test_degree_123_coincidence():
    seed = F2(0, 2, 1, 1)
    fam = {w: trajectory(seed, w)[-1] for w in paper_word_families(seed)}
    assert "BggggggggA" in fam and "BggAgggggg" in fam
    states = [fam["BggggggggA"], fam["BggAgggggg"]]
    assert all(s.stats().d == 123 for s in states)
    assert all(s.stats().n_minus1 == 12 for s in states)


def test_degree_126_coincidence():
    seed = F2(0, 2, 1, 1)
    fam = {w: trajectory(seed, w)[-1] for w in paper_word_families(seed)}
    for text in ["BggggggggAA", "BggAggggggA", "BggAgggAggg"]:
        assert text in fam, text
        assert fam[text].stats().d == 126, text


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_matches_closed_form_lattice(n):
    """Every catalogued word's final (d, N) solves d = d0+(3m+k)nu+3m,
    N = 3+3m+k with integers m, k >= 0, and the top degree is 2nu(nu+1)."""
    seed = F2(0, n, 1, 1)
    t = seed_triple(seed)
    assert t.d0 == 12 * n + 15
    degrees = set()
    for w in paper_word_families(seed):
        s = trajectory(seed, w)[-1].stats()
        degrees.add(s.d)
        three_m = s.d - t.d0 - (s.n_minus1 - 3) * t.nu
        assert three_m >= 0 and three_m % 3 == 0, w
        assert s.n_minus1 - 3 - three_m // 3 >= 0, w
    assert max(degrees) == 2 * t.nu * (t.nu + 1)


def test_growth_chain_first_family():
    seed = F1(1, 1)
    states = trajectory(seed, word_from_str("ab", seed))
    stats = [s.stats() for s in states]
    assert [s.d for s in stats] == [21, 27, 33]
    assert [s.n_minus1 for s in stats] == [3, 4, 5]
    assert all(s.nu == 5 for s in stats)


@pytest.mark.parametrize("n", range(0, 6))
def test_growth_chain_second_family(n):
    seed = F2(1, n, 0, 1)
    states = trajectory(seed, word_from_str("dB", seed))
    degrees = [s.stats().d for s in states]
    assert degrees == [15 * n + 21, 15 * n + 24, 18 * n + 27]


def test_trajectory_prefix_consistency():
    seed = F2(0, 1, 1, 1)
    word = word_from_str("BggD", seed)
    states = trajectory(seed, word)
    assert len(states) == 5
    for i, st in enumerate(states):
        assert st.word == word[:i]
        assert st.satisfies_E()


def test_admissible_end_is_the_last_trajectory_state():
    seed = F2(0, 1, 1, 1)
    word = word_from_str("BggD", seed)
    assert admissible_end(seed, word) == trajectory(seed, word)[-1]
    assert admissible_end(F1(1, 1), alternating_word(5)) is None
    # The letter does not apply: the seed has no simple white point for beta.
    assert admissible_end(F1(0, 1), word_from_str("b", F1(0, 1))) is None


def _end_key(state):
    return None if state is None else (state.profile, state.word)


def _straight_end(seed, word):
    # The word read letter by letter from the seed, with no prefix memo:
    # None at the seed or the first letter that does not apply or whose
    # state fails the condition.
    state = initial_state(seed)
    for letter in word:
        if not state.satisfies_E():
            return None
        try:
            state = apply_letter(state, letter)
        except LetterNotApplicableError:
            return None
    return state if state.satisfies_E() else None


def _assert_ends_match(seed, words):
    expected = [_end_key(_straight_end(seed, w)) for w in words]
    assert [_end_key(e) for e in admissible_ends(seed, words)] == expected
    assert [_end_key(admissible_end(seed, w)) for w in words] == expected


@pytest.mark.parametrize("seed", seed_grid(60), ids=format_seed)
def test_admissible_ends_replays_the_catalogued_families(seed):
    try:
        words = paper_word_families(seed, limit=20)
    except NoFamilyRecordedError:
        words = []
    _assert_ends_match(seed, words)


def test_admissible_ends_needs_no_order_or_prefix_closure():
    seed = F2(0, 2, 1, 1)
    words = ["BggAg", "Bgg", "BggggggggA", "B", "BggAg", "BgggA", "Bg"]
    assert any(e is not None for e in admissible_ends(seed, words))
    _assert_ends_match(seed, words)
    _assert_ends_match(seed, words[::-1])


def test_admissible_ends_of_the_empty_word():
    for seed in (F1(0, 1), F2(0, 1, 1, 1)):
        ends = admissible_ends(seed, ["", alphabet_for(seed)[0], ""])
        assert ends[0] == ends[2] == initial_state(seed)
        _assert_ends_match(seed, ["", alphabet_for(seed)[0], ""])


def test_admissible_ends_stops_at_an_inadmissible_middle_letter():
    seed = F1(0, 1)
    # "b" needs the simple white point a preceding "a" leaves.
    words = ["aba", "abba", "abb", "ab", "abbab"]
    ends = admissible_ends(seed, words)
    assert [e is None for e in ends] == [False, True, True, False, True]
    _assert_ends_match(seed, words)


def test_admissible_ends_of_a_seed_failing_E(monkeypatch):
    # Every catalogued seed satisfies the condition, so it is made to fail
    # at the seed's degree alone: the words' own states would still pass.
    seed = F2(0, 1, 1, 1)
    words = ["", "B", "Bg", "BggD"]
    assert None not in admissible_ends(seed, words)
    d0 = initial_state(seed).profile.degree
    condition_E = profile_core.condition_E
    monkeypatch.setattr(
        profile_core, "condition_E", lambda d, *rest: d != d0 and condition_E(d, *rest)
    )
    assert admissible_ends(seed, words) == [None] * len(words)
    _assert_ends_match(seed, words)


@pytest.mark.parametrize("d_max", [60, 200])
@pytest.mark.parametrize("seed", seed_grid(60), ids=format_seed)
def test_catalogue_ends_match_the_straight_reference(seed, d_max):
    # Each catalogue word read on its own from the seed; every letter raises
    # the degree, so a word ends within d_max iff all its prefixes do.
    expected = []
    for w in word_engine._catalogue_words(seed, d_max):
        end = _straight_end(seed, w)
        if end is not None and end.profile.degree <= d_max:
            expected.append(end)
    assert catalogue_ends(seed, d_max) == expected
    assert expected[0].word == ""
    nu = seed_triple(seed).nu
    for end in expected:
        assert [s.nu for s in trajectory(seed, end.word)] == [nu] * (len(end.word) + 1)


def test_inadmissible_word_detected():
    # Too many alternating letters for a bounded seed.
    assert not is_E_admissible(F1(1, 1), alternating_word(5))
    # Letters from the wrong alphabet refuse to apply.
    with pytest.raises(WordEngineError):
        trajectory(F1(0, 1), word_from_str("Bg", F2(0, 1, 1, 1)))
