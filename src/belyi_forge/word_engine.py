"""Rewrite words acting on critical profiles, and their admissible language.

Two alphabets act on derivation states.  Seeds from the first and third
families use the two-letter alphabet {alpha, beta} ("T13"): alpha attaches a
new black nu-point whose hub upgrades a white leaf to a simple (multiplicity
one) critical point, and beta attaches a second black nu-point to that
pending simple point, raising it to multiplicity two.  Seeds from the second
family use the five-letter alphabet {alpha, beta, gamma, delta, delta-bar}
("T2"), whose letters adjust the degree and the count of black nu-points
while keeping exactly one white nu-point.

A word is the plain string of its letters' one-character codes: a, b for
T13 and A, B, g, d, D for T2, in the order listed.

Every letter is one or two raises.  A raise takes one vertex of a colour
from multiplicity old (0 for one of that colour's leaves) to new: the
vertex gains new - old edges, and their far ends are that many new leaves
of the other colour.  Each letter checks its preconditions, then raises:

    a  white 0 -> 1, then black 0 -> nu
    b  white 1 -> 2, then black 0 -> nu
    A  white 0 -> 3
    B  black eps -> nu, then white 0 -> 2
    g  black 0 -> nu
    d  black t -> t + 3
    D  white t -> t + 3

where eps and d's t are the largest black multiplicity other than nu, and
D's t the smallest white one, each 0 (a leaf) when there is none.  A raise
never lowers a vertex, so B refuses when eps exceeds nu.  A letter adds the
sum of its new - old edges to the degree.

A word is admissible when the seed and every prefix state satisfy the
floor-arithmetic admissibility condition at the seed's nu.  The admissible
language is prefix-closed by definition, so breadth-first enumeration with
pruning is exact.  Both a letter's action and the admissibility condition
read only the state's profile and the seed's nu, never the word, so the
enumeration works out the admissible moves of each distinct profile once and
reuses them for every word that reaches that profile.

The catalogued word families are listed and walked here too:
``paper_word_families`` lists a seed's family, ``admissible_ends`` reads a
list of words through one prefix memo, and ``catalogue_ends`` gives the
admissible states of the family words that end within a degree, the walk
the bound table's catalogue is read from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .profile_core import CriticalProfile, TopStats, profile_satisfies_E, top_stats
from .seed_families import F1, F2, F3, SeedSpec, seed_start, seed_triple


class WordEngineError(Exception):
    """Base class for rewrite-system errors."""


class AlphabetMismatchError(WordEngineError):
    """A letter from the wrong alphabet was applied to a state."""


class LetterNotApplicableError(WordEngineError):
    """The letter's surgery has no legal target in the current profile."""


class NoFamilyRecordedError(WordEngineError):
    """No catalogued word family covers the given seed."""


T13_ALPHABET = "ab"
T2_ALPHABET = "ABgdD"

# A str `in` test matches substrings ("ab" in "ab", "" in "ab"), so single
# letters are checked against sets.
_T13_LETTERS = frozenset(T13_ALPHABET)
_T2_LETTERS = frozenset(T2_ALPHABET)


def uses_t2(seed: SeedSpec) -> bool:
    return isinstance(seed, F2)


def alphabet_for(seed: SeedSpec) -> str:
    return T2_ALPHABET if uses_t2(seed) else T13_ALPHABET


def word_from_str(text: str, seed: SeedSpec) -> str:
    """The word text spells, once every letter is checked against the
    seed's alphabet.  Raises TypeError unless text is a str: a tuple of
    letters would pass the letter check and then stand in for a word."""
    if not isinstance(text, str):
        raise TypeError(f"a word is a str of letter codes, got {type(text).__name__}")
    letters = _T2_LETTERS if uses_t2(seed) else _T13_LETTERS
    for ch in text:
        if ch not in letters:
            raise AlphabetMismatchError(
                f"letter {ch!r} is not in the alphabet for {type(seed).__name__} seeds"
            )
    return text


@dataclass(frozen=True)
class DerivationState:
    """A seed together with the profile reached by a word, and the seed's
    top multiplicity nu, which every letter carries forward."""

    seed: SeedSpec
    word: str
    profile: CriticalProfile
    nu: int

    def stats(self) -> TopStats:
        return top_stats(self.profile, self.nu)

    def satisfies_E(self) -> bool:
        """The admissibility condition at the seed's nu: profile_satisfies_E,
        which every letter step calls with no TopStats built."""
        return profile_satisfies_E(self.profile, self.nu)


def initial_state(seed: SeedSpec) -> DerivationState:
    triple, profile = seed_start(seed)
    return DerivationState(seed=seed, word="", profile=profile, nu=triple.nu)


def _replace(mults: tuple[int, ...], old: int, new: int) -> tuple[int, ...]:
    """mults with one copy of old swapped for new, in old's slot.

    A raise changes exactly one multiplicity, so one index and two slices
    do it; CriticalProfile re-sorts the result.
    """
    try:
        i = mults.index(old)
    except ValueError:
        raise LetterNotApplicableError("internal: removed a missing multiplicity") from None
    return mults[:i] + (new,) + mults[i + 1 :]


def _raise(
    mults: tuple[int, ...], leaves: int, far: int, old: int, new: int
) -> tuple[tuple[int, ...], int, int]:
    """A vertex of one colour goes from multiplicity old to new (old = 0 is
    one of that colour's leaves).  Takes and returns that colour's
    multiplicities and leaf count and the other colour's leaf count far,
    which gains a leaf at the far end of each of the new - old new edges."""
    if old:
        return _replace(mults, old, new), leaves, far + new - old
    return mults + (new,), leaves - 1, far + new


def _apply(state: DerivationState, letter: str) -> CriticalProfile:
    """The profile one letter on: the letter's preconditions, then its
    raises, as the module docstring tabulates them."""
    p, nu = state.profile, state.nu
    black, white = p.black_mults, p.white_mults
    bl, wl = p.black_leaves, p.white_leaves
    if letter == "a":
        if wl < 1:
            raise LetterNotApplicableError("alpha needs a white leaf to upgrade")
        white, wl, bl = _raise(white, wl, bl, 0, 1)
        black, bl, wl = _raise(black, bl, wl, 0, nu)
    elif letter == "b":
        if 1 not in white:
            raise LetterNotApplicableError(
                "beta needs the simple white point left by a preceding alpha"
            )
        white, wl, bl = _raise(white, wl, bl, 1, 2)
        black, bl, wl = _raise(black, bl, wl, 0, nu)
    elif letter == "A":
        # The three black leaves are what later gamma steps consume: every
        # recorded gamma-run bound is exactly the running black-leaf budget.
        if wl < 1:
            raise LetterNotApplicableError("alpha needs a white leaf")
        if nu <= 3:
            raise LetterNotApplicableError("alpha would create a second top point")
        white, wl, bl = _raise(white, wl, bl, 0, 3)
    elif letter == "B":
        if wl < 1:
            raise LetterNotApplicableError("beta needs a white leaf")
        if nu <= 2:
            raise LetterNotApplicableError("beta would duplicate the white top point")
        eps = max([m for m in black if m != nu] or [0])
        if eps > nu:
            raise LetterNotApplicableError("beta would lower the secondary black point")
        if not eps and bl < 1:
            raise LetterNotApplicableError("beta needs a black leaf to promote")
        black, bl, wl = _raise(black, bl, wl, eps, nu)
        white, wl, bl = _raise(white, wl, bl, 0, 2)
    elif letter == "g":
        if bl < 1:
            raise LetterNotApplicableError("gamma needs a black leaf to promote")
        black, bl, wl = _raise(black, bl, wl, 0, nu)
    elif letter == "d":
        t = max([m for m in black if m != nu] or [0])
        if t:
            if t + 3 >= nu:
                raise LetterNotApplicableError(
                    "delta would push the secondary black point to the top multiplicity"
                )
        elif bl < 1:
            raise LetterNotApplicableError("delta needs a black leaf to promote")
        elif 3 >= nu:
            raise LetterNotApplicableError("delta would reach the top multiplicity")
        black, bl, wl = _raise(black, bl, wl, t, t + 3)
    else:  # D
        t = min([m for m in white if m != nu] or [0])
        if t:
            if t + 3 >= nu:
                raise LetterNotApplicableError(
                    "delta-bar would push a white point to the top multiplicity"
                )
        elif wl < 1:
            raise LetterNotApplicableError("delta-bar needs a white leaf to promote")
        elif 3 >= nu:
            raise LetterNotApplicableError("delta-bar would reach the top multiplicity")
        white, wl, bl = _raise(white, wl, bl, t, t + 3)
    return CriticalProfile(black, white, bl, wl)


def apply_letter(state: DerivationState, letter: str) -> DerivationState:
    """Apply one rewrite letter; raises if the alphabet or target is wrong."""
    if uses_t2(state.seed):
        if letter not in _T2_LETTERS:
            raise AlphabetMismatchError(
                f"{letter!r} is not a T2 letter; this seed uses the five-letter alphabet"
            )
    elif letter not in _T13_LETTERS:
        raise AlphabetMismatchError(
            f"{letter!r} is not a T13 letter; this seed uses the two-letter alphabet"
        )
    return DerivationState(
        seed=state.seed, word=state.word + letter, profile=_apply(state, letter), nu=state.nu
    )


def trajectory(seed: SeedSpec, word: str) -> list[DerivationState]:
    """States visited while reading the word, seed state included."""
    states = [initial_state(seed)]
    for letter in word:
        states.append(apply_letter(states[-1], letter))
    return states


def _kept(state: DerivationState, d_max: int | float) -> DerivationState | None:
    """The state if it is within degree d_max and admissible, else None."""
    return state if state.profile.degree <= d_max and state.satisfies_E() else None


def _admissible_child(
    state: DerivationState, letter: str, d_max: int | float = math.inf
) -> DerivationState | None:
    """The state one letter on, or None if the letter does not apply or
    the new state is past degree d_max or fails the condition."""
    try:
        child = apply_letter(state, letter)
    except LetterNotApplicableError:
        return None
    return _kept(child, d_max)


def admissible_end(seed: SeedSpec, word: str) -> DerivationState | None:
    """The state the word reaches, or None unless it is admissible: the
    prefix walk of admissible_ends over this one word, which tests the seed
    state first and stops at the first letter that does not apply or whose
    state fails the condition."""
    return _walk(seed, [word], math.inf)[0]


def _walk(
    seed: SeedSpec, words: Iterable[str], d_max: int | float
) -> list[DerivationState | None]:
    """For each word, the state it reaches, or None unless it is admissible
    and ends within degree d_max.

    A memo maps each word prefix to its state, or to None once the prefix
    fails or passes degree d_max, so each distinct prefix costs at most one
    letter application and one admissibility test however many words share
    it.  Every letter strictly raises the degree, so no extension of a
    prefix past d_max comes back within it.  A word whose prefixes are not
    all in the memo is read from its longest known one, so the words need
    not be sorted or prefix-closed.
    """
    memo = {"": _kept(initial_state(seed), d_max)}
    ends = []
    for w in words:
        known = len(w)
        while w[:known] not in memo:
            known -= 1
        for i in range(known, len(w)):
            state = memo[w[:i]]
            memo[w[: i + 1]] = (
                None if state is None else _admissible_child(state, w[i], d_max)
            )
        ends.append(memo[w])
    return ends


def admissible_ends(
    seed: SeedSpec, words: Iterable[str]
) -> list[DerivationState | None]:
    """For each word, the state it reaches, or None unless it is admissible:
    ``[admissible_end(seed, w) for w in words]``, read through one prefix
    memo, so each distinct prefix is applied at most once."""
    return _walk(seed, words, math.inf)


def is_E_admissible(seed: SeedSpec, word: str) -> bool:
    """True iff the seed and every prefix state satisfy the condition."""
    return admissible_end(seed, word) is not None


MAX_ENUM_LEN = 64


def enumerate_LE(seed: SeedSpec, max_len: int) -> list[str]:
    """All admissible words up to the given length, in canonical order.

    Order is breadth-first by length, then by alphabet order within each
    length.  The empty word is listed iff the seed itself is admissible.

    ``_apply`` and the admissibility condition read only the state's
    profile and the seed's nu, so whether a letter applies, the
    profile it yields and whether that profile is admissible depend on the
    profile alone.  Each distinct profile is numbered the first time a move
    reaches it, and its admissible moves, as (letter, profile number) pairs,
    are worked out once, from the first word that reaches it.  The frontier
    carries each word's profile number beside it, so a later word with that
    profile just extends itself by each move's letter, and a profile is
    hashed once per move rather than once per word.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if max_len > MAX_ENUM_LEN:
        raise ValueError(
            f"max_len {max_len} exceeds the enumeration guard {MAX_ENUM_LEN}"
        )
    start = initial_state(seed)
    if not start.satisfies_E():
        return []
    letters = alphabet_for(seed)
    ids = {start.profile: 0}
    profiles = [start.profile]
    # moves[i] is None until a word with profile i is expanded.
    moves: list[list[tuple[str, int]] | None] = [None]
    words = [""]
    frontier, frontier_ids = [""], [0]
    for _ in range(max_len):
        nxt, nxt_ids = [], []
        for word, pid in zip(frontier, frontier_ids):
            admissible = moves[pid]
            if admissible is None:
                state = DerivationState(
                    seed=seed, word=word, profile=profiles[pid], nu=start.nu
                )
                admissible = moves[pid] = []
                for letter in letters:
                    child = _admissible_child(state, letter)
                    if child is None:
                        continue
                    cid = ids.get(child.profile)
                    if cid is None:
                        cid = ids[child.profile] = len(profiles)
                        profiles.append(child.profile)
                        moves.append(None)
                    admissible.append((letter, cid))
            for letter, cid in admissible:
                nxt.append(word + letter)
                nxt_ids.append(cid)
        words.extend(nxt)
        frontier, frontier_ids = nxt, nxt_ids
    return words


def max_h(seed: SeedSpec) -> int | float:
    """Largest admissible alternating-word length for a T13 seed.

    Infinite (math.inf) exactly when nu = 2, which happens only for the
    first family with n = 0, m = 1.

    Each alternating letter adds nu+1 to the degree and one black
    nu-point, so floor(d/(nu+1)) and N_minus1 advance in lockstep and
    the binding constraint is N_plus1 = 1:

        floor((d0 - 1 + h)/nu) = floor(d0/(nu+1)) + 1

    whose largest solution is (floor(d0/(nu+1)) + 2)*nu - d0.  For the
    first family this collapses to 3(n+m)-2, and for the third family
    with x+j divisible by 3 to 3(n+m-l-1), 3(n+m-l)+1, 3(n+m-l)-1 at
    x = 1, 2, 3 respectively.
    """
    if not isinstance(seed, (F1, F3)):
        raise WordEngineError(
            "max_h applies to T13 seeds (first and third families)"
        )
    t = seed_triple(seed)
    if t.nu == 2:
        return math.inf
    return (t.d0 // (t.nu + 1) + 2) * t.nu - t.d0


def alternating_word(length: int) -> str:
    """alpha, beta, alpha, ... of the given length."""
    return ("ab" * length)[:length]


_Runs = tuple[tuple[str, int], ...]


def _run_family(
    max_len: int | float, runs: _Runs, letter: str, lo: int, hi: int
) -> Iterator[str]:
    """The words runs + letter^k for lo <= k <= hi of at most max_len letters.

    Lengths are counted before any word is built, so a word longer than
    max_len never is.
    """
    top = min(hi, max_len - sum(count for _, count in runs))
    if top < lo:
        return
    prefix = "".join(run_letter * count for run_letter, count in runs)
    for k in range(lo, top + 1):
        yield prefix + letter * k


def _families_t2_j0(seed: F2, max_len: int | float) -> Iterator[str]:
    A, B, G, DB = "A", "B", "g", "D"
    n, m, l = seed.n, seed.m, seed.l
    nu = seed_triple(seed).nu
    # The alpha-run bound is m-1 when l=m and m+s-1 when l=m+s, i.e. l-1.
    a_max = l - 1
    yield from _run_family(max_len, ((B, 1),), A, 0, a_max)
    yield from _run_family(max_len, ((B, 1), (A, a_max)), G, 1, nu - 1)
    yield from _run_family(max_len, ((B, 1), (A, a_max), (G, nu - 1)), A, 1, n)
    yield from _run_family(
        max_len, ((B, 1), (A, a_max), (G, nu - 1), (A, n)), G, 1, 3 * n
    )
    if m == 1 and l == 1:
        # Series reaching degree 2 nu (nu + 1): one delta-bar after beta
        # gamma^2, then gamma^3 delta-bar blocks, then a gamma tail.
        yield from _run_family(max_len, ((B, 1),), G, 1, nu - 1)
        for r in range(0, n):
            block = ((B, 1), (G, 2), (DB, 1)) + ((G, 3), (DB, 1)) * r
            yield from _run_family(max_len, block, G, 0, nu)
        if n == 2:
            yield from _families_t2_adhoc(max_len)


def _families_t2_adhoc(max_len: int | float) -> Iterator[str]:
    # Catalogued one-off list for the seed with j=0, n=2, m=1, l=1.
    A, B, G = "A", "B", "g"
    word_a: _Runs = ((B, 1), (G, 2))
    word_b: _Runs = ((B, 1), (G, 8))  # word_a gamma^6
    word_c: _Runs = word_a + ((A, 1), (G, 3))
    # beta, beta gamma, word_a, and word_a gamma^p for p = 1..6.
    yield from _run_family(max_len, ((B, 1),), G, 0, 8)
    yield from _run_family(max_len, word_a + ((A, 1),), G, 0, 3)
    yield from _run_family(max_len, word_b + ((A, 1),), G, 0, 3)
    yield from _run_family(max_len, word_c, G, 1, 2)
    yield from _run_family(max_len, word_c + ((A, 1),), G, 0, 9)
    # Words recorded for the degree coincidences: B-alpha and C-gamma^3
    # share d=123; B-alpha^2, C-gamma^3-alpha, C-alpha-gamma^3 share d=126.
    yield from _run_family(max_len, word_c, G, 3, 3)
    yield from _run_family(max_len, word_b, A, 2, 2)
    yield from _run_family(max_len, word_c + ((G, 3),), A, 1, 1)


def _families_t2_j1(seed: F2, max_len: int | float) -> Iterator[str]:
    A, B, G, D = "A", "B", "g", "d"
    n, m, l = seed.n, seed.m, seed.l
    # Recorded alpha-run sizes count added edges (three per letter), so the
    # run of letters after beta is at most l-1 long; longer runs leave the
    # admissibility window, whose slack after beta is exactly 3l.
    a_max = l - 1
    yield from _run_family(max_len, ((B, 1),), A, 0, a_max)
    # The two gamma words need n >= 1 when l = m; any n when l > m.
    if l > m or n >= 1:
        yield from _run_family(max_len, ((B, 1), (A, a_max)), G, 1, 2)
    if m == 0 and l == 1:
        yield from _run_family(max_len, ((D, 1),), B, 0, 1)


def _family_words(seed: SeedSpec, max_len: int | float) -> Iterator[str]:
    """The seed's catalogued words of at most max_len letters.

    For T13 seeds these are the alternating words up to max_h, by length;
    max_len must be finite when max_h is infinite (nu = 2).  Second-family
    words come in generation order, some more than once.  Raises
    NoFamilyRecordedError, whatever max_len, when no catalogue entry covers
    the seed: for a second-family seed with j = 1 that is l = 0, where the
    alpha run after beta would have to be shorter than empty.
    """
    if not uses_t2(seed):
        return map(alternating_word, range(1, min(max_h(seed), max_len) + 1))
    if seed.j == 0:
        return _families_t2_j0(seed, max_len)
    if seed.l < 1:
        raise NoFamilyRecordedError(f"no catalogued word family for {seed!r}")
    return _families_t2_j1(seed, max_len)


def paper_word_families(seed: SeedSpec, limit: int = 20) -> list[str]:
    """Catalogued admissible word families for the seed, in canonical order.

    For T13 seeds this is the alternating family up to max_h; when that
    bound is infinite (nu = 2) the family is truncated at ``limit``
    letters.  For second-family seeds the catalogue depends on (j, l - m)
    and includes the recorded one-off lists.  Raises ValueError unless
    0 <= limit <= MAX_ENUM_LEN, whatever the seed, and
    NoFamilyRecordedError when no catalogue entry covers the seed.
    """
    if not 0 <= limit <= MAX_ENUM_LEN:
        raise ValueError(f"limit must be in 0..{MAX_ENUM_LEN}, got {limit}")
    if not uses_t2(seed):
        cap = limit if max_h(seed) == math.inf else math.inf
        return list(_family_words(seed, cap))
    words = set(_family_words(seed, math.inf))
    return sorted(words, key=lambda w: (len(w), [T2_ALPHABET.index(x) for x in w]))


def _catalogue_words(seed: SeedSpec, d_max: int) -> list[str]:
    """The empty word and the seed's catalogued words that can end within
    degree d_max, each once.

    Every letter strictly raises the degree by the edges its raises add: a
    T13 letter by 1 + nu, a T2 letter by at least 3 (A, d and D by 3, g by
    nu, B by nu - eps + 2 with eps < nu, and nu = 3(n + l) + j >= 4 for
    every second-family seed with a recorded family).  So a word of more than (d_max - d0) // (nu + 1) letters, or
    (d_max - d0) // 3 for a second-family seed, ends past d_max, and no
    such word is generated.  The T2 words come in generation order, not in
    the canonical order of paper_word_families: the catalogue sorts its
    constructions itself.
    """
    tri = seed_triple(seed)
    step = 3 if uses_t2(seed) else tri.nu + 1
    try:
        family = _family_words(seed, (d_max - tri.d0) // step)
    except NoFamilyRecordedError:
        family = ()
    return ["", *dict.fromkeys(family)]


def catalogue_ends(seed: SeedSpec, d_max: int) -> list[DerivationState]:
    """The states of the seed's catalogued words, the empty word first,
    that are admissible and end within degree d_max, in the order of
    _catalogue_words.  Each distinct prefix is applied at most once, and a
    prefix past d_max is not extended."""
    return [end for end in _walk(seed, _catalogue_words(seed, d_max), d_max) if end is not None]
