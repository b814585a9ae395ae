"""Seed families of two-critical-value polynomials indexed by integer tuples.

Three families are available.  Each choice of in-domain parameters yields a
starting triple (d0, nu, eps) and a starting critical profile: d0 is the
degree, nu the top multiplicity over critical value -1, and eps the
multiplicity of an optional secondary black critical point (eps = 0 means no
such point).  Every seed satisfies the admissibility condition checked by
``profile_core.condition_E`` and is the entry point of the rewrite systems
in ``word_engine``.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping, NamedTuple

from .profile_core import CriticalProfile, profile_satisfies_E, validate_profile


class SeedDomainError(ValueError):
    """Raised when seed parameters violate the family's domain constraints."""


class F1(NamedTuple):
    """First family: parameters n >= 0, m >= 1."""

    n: int
    m: int


class F2(NamedTuple):
    """Second family: j in {0,1}; n,m >= 1 if j=0, n,m >= 0 if j=1; l >= m."""

    j: int
    n: int
    m: int
    l: int


class F3(NamedTuple):
    """Third family: x in {1,2,3}, j in {-1,0,1}, m >= 1, n >= 0, 3m+j >= 4,
    and l = 0 when m = 1, otherwise 0 <= l <= m-2."""

    x: int
    j: int
    n: int
    m: int
    l: int


SeedSpec = F1 | F2 | F3
_FAMILIES = {cls.__name__: cls for cls in (F1, F2, F3)}
# A seed parameter in text: an ASCII integer, optionally space-padded.
_PARAM = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


class SeedTriple(NamedTuple):
    d0: int
    nu: int
    eps: int


def validate_seed(seed: SeedSpec) -> None:
    """Raise SeedDomainError naming the violated constraint, if any."""
    if isinstance(seed, F1):
        if seed.n < 0:
            raise SeedDomainError(f"F1 requires n >= 0, got n={seed.n}")
        if seed.m < 1:
            raise SeedDomainError(f"F1 requires m >= 1, got m={seed.m}")
        return
    if isinstance(seed, F2):
        if seed.j not in (0, 1):
            raise SeedDomainError(f"F2 requires j in {{0,1}}, got j={seed.j}")
        low = 1 if seed.j == 0 else 0
        if seed.n < low or seed.m < low:
            raise SeedDomainError(
                f"F2 with j={seed.j} requires n,m >= {low}, got n={seed.n}, m={seed.m}"
            )
        if seed.l < seed.m:
            raise SeedDomainError(f"F2 requires l >= m, got l={seed.l}, m={seed.m}")
        return
    if isinstance(seed, F3):
        if seed.x not in (1, 2, 3):
            raise SeedDomainError(f"F3 requires x in {{1,2,3}}, got x={seed.x}")
        if seed.j not in (-1, 0, 1):
            raise SeedDomainError(f"F3 requires j in {{-1,0,1}}, got j={seed.j}")
        if seed.m < 1:
            raise SeedDomainError(f"F3 requires m >= 1, got m={seed.m}")
        if seed.n < 0:
            raise SeedDomainError(f"F3 requires n >= 0, got n={seed.n}")
        if 3 * seed.m + seed.j < 4:
            raise SeedDomainError(
                f"F3 requires 3m+j >= 4, got 3*{seed.m}+{seed.j} = {3 * seed.m + seed.j}"
            )
        if seed.m == 1:
            if seed.l != 0:
                raise SeedDomainError(f"F3 with m=1 requires l=0, got l={seed.l}")
        elif not 0 <= seed.l <= seed.m - 2:
            raise SeedDomainError(
                f"F3 requires 0 <= l <= m-2 for m >= 2, got l={seed.l}, m={seed.m}"
            )
        return
    raise SeedDomainError(f"unknown seed family: {seed!r}")


def f1_d0(n: int, m: int) -> int:
    """Starting degree of F1{n, m}, unvalidated, for walks over the domain."""
    return 3 * (n + 3 * m * (n + m))


def f2_d0(j: int, n: int, m: int, l: int) -> int:
    """Starting degree of F2{j, n, m, l}, unvalidated."""
    return 3 * (m + l * j + (n + l) * (3 * l + j + 1)) + j * (j + 2)


def f3_d0(x: int, j: int, n: int, m: int, l: int) -> int:
    """Starting degree of F3{x, j, n, m, l}, unvalidated."""
    return 3 * (m * (3 * (m + n) + x - 1) + j * (n + 2 * m + x // 3) + l + 1)


def seed_triple(seed: SeedSpec) -> SeedTriple:
    """(d0, nu, eps) of the seed, in integer arithmetic."""
    validate_seed(seed)
    if isinstance(seed, F1):
        n, m = seed.n, seed.m
        return SeedTriple(d0=f1_d0(n, m), nu=3 * (n + m) - 1, eps=0)
    if isinstance(seed, F2):
        j, n, m, l = seed.j, seed.n, seed.m, seed.l
        return SeedTriple(d0=f2_d0(j, n, m, l), nu=3 * (n + l) + j, eps=3 * m + j - 1)
    x, j, n, m, l = seed.x, seed.j, seed.n, seed.m, seed.l
    nu = 3 * (n + m) + j + x - 1
    # The secondary multiplicity 3l + 2 floor(1 + ((x-1)//2 - 1/2) j)
    # + j floor(1/x) mixes half-integer and reciprocal floors; both are
    # integer floors of integer quotients.
    eps = 3 * l + 2 * ((2 + (2 * ((x - 1) // 2) - 1) * j) // 2) + j * (1 // x)
    return SeedTriple(d0=f3_d0(x, j, n, m, l), nu=nu, eps=eps)


def seed_start(seed: SeedSpec) -> tuple[SeedTriple, CriticalProfile]:
    """The seed's triple and its starting critical profile, read from one
    seed_triple call.

    All families place one white point of multiplicity nu; the black side
    carries the family's count of nu-points plus, when eps > 0, one
    secondary point of multiplicity eps.  Remaining edge endpoints are
    leaves.
    """
    t = seed_triple(seed)
    if isinstance(seed, F1):
        top_count = 3 * seed.m
    elif isinstance(seed, F2):
        top_count = 3 * seed.l + seed.j
    else:
        top_count = 3 * seed.m + seed.j - 1
    black = [t.nu] * top_count
    black_degree_sum = top_count * (t.nu + 1)
    if t.eps > 0:
        black.append(t.eps)
        black_degree_sum += t.eps + 1
    black_leaves = t.d0 - black_degree_sum
    white_leaves = t.d0 - (t.nu + 1)
    if black_leaves < 0 or white_leaves < 0:
        raise SeedDomainError(
            f"profile infeasible for {seed!r}: leaf count would be negative"
        )
    profile = CriticalProfile(
        black_mults=tuple(black),
        white_mults=(t.nu,),
        black_leaves=black_leaves,
        white_leaves=white_leaves,
    )
    report = validate_profile(profile)
    if not report.ok:
        raise SeedDomainError(
            f"profile infeasible for {seed!r}: {'; '.join(report.violations)}"
        )
    return t, profile


def seed_profile(seed: SeedSpec) -> CriticalProfile:
    """Starting critical profile of the seed (see seed_start)."""
    return seed_start(seed)[1]


def seed_satisfies_E(seed: SeedSpec) -> bool:
    t, profile = seed_start(seed)
    return profile_satisfies_E(profile, t.nu)


class CoincidencePair(NamedTuple):
    left: SeedSpec
    right: SeedSpec
    matches: bool


class CoincidenceReport(NamedTuple):
    pairs: tuple[CoincidencePair, ...]

    @property
    def ok(self) -> bool:
        return all(p.matches for p in self.pairs)


def coincidence_pairs(n_max: int, m_max: int) -> Iterator[tuple[SeedSpec, SeedSpec]]:
    """Parameter identifications under which distinct families agree.

    Three identifications hold for all in-domain parameters:
      F1{n+1, m}          == F3{x=2, j=1, n, m, 0}
      F2{0, n+1, l+1, m}  == F3{x=3, j=1, n, m, l}
      F2{1, n+1, l, m-1}  == F3{x=3, j=-1, n, m, l}   (m >= 2)
    """
    for n in range(0, n_max + 1):
        for m in range(1, m_max + 1):
            yield F1(n + 1, m), F3(x=2, j=1, n=n, m=m, l=0)
            l_values = [0] if m == 1 else list(range(0, m - 1))
            for l in l_values:
                yield F2(j=0, n=n + 1, m=l + 1, l=m), F3(x=3, j=1, n=n, m=m, l=l)
                if m >= 2:
                    yield F2(j=1, n=n + 1, m=l, l=m - 1), F3(x=3, j=-1, n=n, m=m, l=l)


def verify_coincidences(n_max: int = 5, m_max: int = 5) -> CoincidenceReport:
    """Check both the triples and the full profiles on each identified pair."""
    pairs = []
    for left, right in coincidence_pairs(n_max, m_max):
        same = seed_triple(left) == seed_triple(right) and seed_profile(
            left
        ) == seed_profile(right)
        pairs.append(CoincidencePair(left=left, right=right, matches=same))
    return CoincidenceReport(pairs=tuple(pairs))


def seed_to_json(seed: SeedSpec) -> dict:
    return {"family": type(seed).__name__, **seed._asdict()}


def seed_from_json(obj: Mapping) -> SeedSpec:
    family = obj.get("family")
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise SeedDomainError(f"unknown seed family: {family!r}")
    names = list(cls._fields)
    nums = [obj.get(name) for name in names]
    # A missing key reads None; bool, an int subclass, fails the exact type test.
    if len(obj) != 1 + len(names) or any(type(v) is not int for v in nums):
        raise SeedDomainError(f"{family} takes integer keys {names}, got {dict(obj)!r}")
    seed = cls(*nums)
    validate_seed(seed)
    return seed


def format_seed(seed: SeedSpec) -> str:
    """Compact flag form: F1:n,m | F2:j,n,m,l | F3:x,j,n,m,l."""
    if isinstance(seed, F1):
        return f"F1:{seed.n},{seed.m}"
    if isinstance(seed, F2):
        return f"F2:{seed.j},{seed.n},{seed.m},{seed.l}"
    return f"F3:{seed.x},{seed.j},{seed.n},{seed.m},{seed.l}"


def parse_seed(text: str) -> SeedSpec:
    """Inverse of format_seed; validates the parameter domain."""
    family, _, rest = text.strip().partition(":")
    parts = rest.split(",") if rest else []
    if not all(_PARAM.fullmatch(p) for p in parts):
        raise SeedDomainError(f"malformed seed string: {text!r}")
    family = family.upper()
    if family not in _FAMILIES:
        raise SeedDomainError(f"unknown seed family in {text!r}")
    cls = _FAMILIES[family]
    arity = len(cls._fields)
    if len(parts) != arity:
        raise SeedDomainError(f"{family} takes {arity} parameters, got {len(parts)}")
    seed = cls(*map(int, parts))
    validate_seed(seed)
    return seed
