"""Singularity counts for surfaces pairing an arrangement polynomial with a
unit-interval polynomial.

A surface J(x,y) + U(w) = 0 is singular exactly where both summands sit at
critical points with opposite critical values; J contributes values
{0, 8, -1} with known counts and U contributes {0, 1}, so value 0 pairs
with 0 and value -1 pairs with 1.  Every count and lower-bound formula
here is that pairing arithmetic in closed form, and the desk-scale census
recomputes it from the actual polynomials.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

from .arrangement_jd import (
    DEFAULT_PRECISION,
    BiPoly,
    Census2D,
    JStats,
    build_Jd,
    census_with_retries,
    jd_default_box,
    jd_starts,
    jstats,
)
from .belyi_numeric import (
    CriticalCensus,
    UniPoly,
    critical_census_uni,
    shabat_for_derivation,
    to_unit_interval,
)
from .profile_core import CriticalProfile
from .seed_families import (
    F1,
    F2,
    F3,
    SeedDomainError,
    SeedSpec,
    format_seed,
    seed_triple,
    validate_seed,
)
from .word_engine import (
    DerivationState,
    Letter,
    LetterNotApplicableError,
    NoFamilyRecordedError,
    Word,
    alternating_word,
    apply_letter,
    initial_state,
    max_h,
    paper_word_families,
    trajectory,
    uses_t2,
    word_from_str,
    word_to_str,
)

BOUND_TABLE_GUARD = 200


class ExistenceUnverifiedWarning(UserWarning):
    """A count formula was evaluated at (d, nu) with no known construction."""


@dataclass(frozen=True)
class SingularitySpectrum:
    """Per-type singularity counts of one paired surface."""

    counts: dict
    d: int
    seed: SeedSpec | None = None
    word: str | None = None

    def __getitem__(self, k: int) -> int:
        return self.counts.get(k, 0)

    def total(self) -> int:
        return sum(self.counts.values())


def spectrum(
    js: JStats,
    g: CriticalProfile,
    seed: SeedSpec | None = None,
    word: str | None = None,
) -> SingularitySpectrum:
    """Pairing arithmetic: black k-points meet value-0 sheets, white k-points
    meet value -1 sheets; value-8 critical points pair with nothing."""
    if g.degree != js.d:
        raise ValueError(
            f"profile degree {g.degree} does not match arrangement degree {js.d}"
        )
    counts: dict[int, int] = {}
    for k, c in g.black_counter().items():
        counts[k] = counts.get(k, 0) + js.n0 * c
    for k, c in g.white_counter().items():
        counts[k] = counts.get(k, 0) + js.nm1 * c
    return SingularitySpectrum(
        counts=dict(sorted(counts.items())), d=js.d, seed=seed, word=word
    )


def count_Anu(d: int, nu: int) -> int:
    """Closed-form count of multiplicity-nu singular points at degree d.

    Warns when no catalogued construction reaches (d, nu); the value is
    still the formula's.
    """
    if d < 3 or d % 3 != 0:
        raise ValueError("count is defined for degrees divisible by 3")
    if nu <= 2:
        raise ValueError("count is defined for multiplicities above 2")
    st = jstats(d)
    value = st.n0 * (d // (nu + 1)) + st.nm1
    if find_construction(d, nu) is None:
        warnings.warn(
            f"no catalogued construction at (d={d}, nu={nu}); "
            "formula evaluated, existence unverified",
            ExistenceUnverifiedWarning,
            stacklevel=2,
        )
    return value


def count_A2_family(h: int) -> int:
    """Cusp count of the degree-3(h+3) family member after h rewrite steps."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    lead = 3 * (h + 3) ** 2 * (3 * h + 8)
    if lead % 2:
        raise ArithmeticError("cusp-count leading term must be even")
    return lead // 2 + (3 * (h + 3) * (h + 2) + 1) * (1 + h // 2)


def nodal_surface_count(d: int) -> int:
    """Node count of the degree-d surface built from the axis restriction."""
    st = jstats(d)
    return st.n0 * (d // 2) + st.nm1 * ((d - 1) // 2)


def nodal_threefold_count(d: int) -> int:
    """Node count of the threefold pairing the arrangement against itself."""
    st = jstats(d)
    return st.n0**2 + st.n8**2 + st.nm1**2


@dataclass(frozen=True)
class Construction:
    seed: SeedSpec
    word: Word
    degree: int
    nu: int
    profile: CriticalProfile

    def spectrum(self) -> SingularitySpectrum:
        return spectrum(
            jstats(self.degree),
            self.profile,
            seed=self.seed,
            word=word_to_str(self.word),
        )


def _f1_seeds(d_max: int) -> list[F1]:
    out = []
    n = 0
    while 3 * (n + 3 * (n + 1)) <= d_max:
        m = 1
        while 3 * (n + 3 * m * (n + m)) <= d_max:
            out.append(F1(n=n, m=m))
            m += 1
        n += 1
    return out


def _f2_seeds(d_max: int) -> list[F2]:
    out = []
    for j in (0, 1):
        lo = 1 if j == 0 else 0
        n = lo
        while seed_triple(F2(j=j, n=n, m=lo, l=lo)).d0 <= d_max:
            m = lo
            while seed_triple(F2(j=j, n=n, m=m, l=m)).d0 <= d_max:
                l = m
                while seed_triple(F2(j=j, n=n, m=m, l=l)).d0 <= d_max:
                    out.append(F2(j=j, n=n, m=m, l=l))
                    l += 1
                m += 1
            n += 1
    return out


def _f3_seeds(d_max: int) -> list[F3]:
    out = []
    for x in (1, 2, 3):
        for j in (-1, 0, 1):
            m_lo = (6 - j) // 3
            n = 0
            while seed_triple(F3(x=x, j=j, n=n, m=m_lo, l=0)).d0 <= d_max:
                m = m_lo
                while seed_triple(F3(x=x, j=j, n=n, m=m, l=0)).d0 <= d_max:
                    l_hi = 0 if m == 1 else m - 2
                    for l in range(l_hi + 1):
                        cand = F3(x=x, j=j, n=n, m=m, l=l)
                        if seed_triple(cand).d0 > d_max:
                            break
                        out.append(cand)
                    m += 1
                n += 1
    return out


def seed_grid(d_max: int) -> list[SeedSpec]:
    """Every valid seed whose starting degree is at most d_max."""
    seeds: list[SeedSpec] = []
    for cand in _f1_seeds(d_max) + _f2_seeds(d_max) + _f3_seeds(d_max):
        try:
            validate_seed(cand)
        except SeedDomainError:
            continue
        seeds.append(cand)
    return seeds


def _words_for_seed(seed: SeedSpec, d_max: int) -> list[Word]:
    tri = seed_triple(seed)
    words: list[Word] = [()]
    if uses_t2(seed):
        try:
            words.extend(paper_word_families(seed))
        except NoFamilyRecordedError:
            pass
    else:
        cap = (d_max - tri.d0) // (tri.nu + 1)
        bound = max_h(seed)
        if bound != math.inf:
            cap = min(cap, int(bound))
        words.extend(alternating_word(k) for k in range(1, cap + 1))
    return words


def _step(state: DerivationState | None, letter: Letter) -> DerivationState | None:
    """The state one letter on, or None once the prefix is inadmissible."""
    if state is None:
        return None
    try:
        child = apply_letter(state, letter)
    except LetterNotApplicableError:
        return None
    return child if child.satisfies_E() else None


@cache
def _constructions_for_seed(seed: SeedSpec, d_max: int) -> tuple[Construction, ...]:
    """The seed's admissible catalogued words up to degree d_max.

    A memo maps each word prefix to its state (None once inadmissible), so
    each distinct prefix costs one letter application and one admissibility
    test.
    """
    start = initial_state(seed)
    memo = {"": start if start.satisfies_E() else None}
    nu = seed_triple(seed).nu
    out = []
    for w in _words_for_seed(seed, d_max):
        text = word_to_str(w)
        known = len(text)
        while text[:known] not in memo:
            known -= 1
        for i in range(known, len(w)):
            memo[text[: i + 1]] = _step(memo[text[:i]], w[i])
        state = memo[text]
        if state is not None and state.profile.degree <= d_max:
            out.append(Construction(seed, w, state.profile.degree, nu, state.profile))
    return tuple(out)


def constructions_up_to(d_max: int) -> tuple[Construction, ...]:
    """Catalogued constructions (seed plus admissible word) up to degree d_max,
    in catalogue order, read from per-seed walks cached to the table guard."""
    walk_to = max(d_max, BOUND_TABLE_GUARD)
    cons = [c for s in seed_grid(d_max) for c in _constructions_for_seed(s, walk_to)]
    cons = [c for c in cons if c.degree <= d_max]
    cons.sort(key=lambda c: (c.degree, c.nu, format_seed(c.seed), word_to_str(c.word)))
    return tuple(cons)


def find_construction(d: int, nu: int) -> Construction | None:
    """Smallest catalogued construction at exactly (degree, nu), if any."""
    return next((c for c in constructions_up_to(d) if c.degree == d and c.nu == nu), None)


def lowest_nu_construction(d: int) -> Construction | None:
    """Smallest catalogued construction of lowest multiplicity at exactly degree d."""
    return next((c for c in constructions_up_to(d) if c.degree == d), None)


@dataclass(frozen=True)
class BoundRow:
    d: int
    nu: int
    bound: int
    seed: str
    word: str


@dataclass(frozen=True)
class BoundTable:
    rows: tuple[BoundRow, ...]

    def row(self, d: int, nu: int) -> BoundRow | None:
        for r in self.rows:
            if r.d == d and r.nu == nu:
                return r
        return None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "nu", "bound", "seed", "word"])
        for r in self.rows:
            writer.writerow([r.d, r.nu, r.bound, r.seed, r.word])
        return buf.getvalue()

    def to_json(self) -> list[dict]:
        return [
            {"d": r.d, "nu": r.nu, "bound": r.bound, "seed": r.seed, "word": r.word}
            for r in self.rows
        ]


def bound_table(d_max: int) -> BoundTable:
    """Best singular-point counts per (degree, multiplicity).

    Rows for nu=1 cover every degree via the nodal construction; rows for
    higher multiplicities take the maximum over catalogued constructions at
    degrees divisible by 3, with ties resolved toward the lexicographically
    smallest provenance.
    """
    if d_max > BOUND_TABLE_GUARD:
        raise ValueError(f"table guard is d_max <= {BOUND_TABLE_GUARD}")
    best: dict[tuple[int, int], tuple[int, str, str]] = {}
    for d in range(3, d_max + 1):
        best[(d, 1)] = (nodal_surface_count(d), "", "nodal")
    for c in constructions_up_to(d_max):
        if c.degree % 3 != 0:
            continue
        sp = c.spectrum()
        for k, cnt in sp.counts.items():
            if cnt == 0:
                continue
            key = (c.degree, k)
            cand = (cnt, format_seed(c.seed), word_to_str(c.word))
            cur = best.get(key)
            if cur is None or cand[0] > cur[0] or (cand[0] == cur[0] and cand[1:] < cur[1:]):
                best[key] = cand
    rows = [
        BoundRow(d=d, nu=nu, bound=v[0], seed=v[1], word=v[2])
        for (d, nu), v in sorted(best.items())
    ]
    return BoundTable(rows=tuple(rows))


@lru_cache(maxsize=8)
def _jd_cached(d: int, precision: int) -> BiPoly:
    return build_Jd(d, precision)


def nodal_unit_poly(d: int, precision: int = DEFAULT_PRECISION) -> UniPoly:
    """Exact axis restriction reparametrized to critical values {0, 1}.

    Substitutes x = 2z+1, y = 0 into the rational arrangement polynomial
    and applies the affine value map v -> (3-v)/4, all in exact rationals.
    """
    axis = _jd_cached(d, precision).restrict_y0()
    t = UniPoly((Fraction(1), Fraction(2)))
    g = UniPoly((axis[-1],))
    for c in reversed(axis[:-1]):
        g = (g * t).shift_constant(c)
    return g.scale(Fraction(-1, 4)).shift_constant(Fraction(3, 4))


@dataclass(frozen=True)
class SurfacePoly:
    """Structured trivariate polynomial J(x, y) + U(w)."""

    j_part: BiPoly
    u_part: UniPoly
    d: int
    seed: SeedSpec | None
    word: str | None
    label: str

    def __call__(self, x, y, w):
        return self.j_part(x, y) + self.u_part(w)

    def gradient(self, x, y, w):
        return (
            self.j_part.partial_x()(x, y),
            self.j_part.partial_y()(x, y),
            self.u_part.derivative()(w),
        )

    def to_dense(self) -> dict:
        out: dict[str, float] = {}
        for i, row in enumerate(self.j_part.grid):
            for j, c in enumerate(row):
                if c != 0:
                    out[f"{i},{j},0"] = float(c)
        for k, c in enumerate(self.u_part.coeffs):
            if c == 0:
                continue
            key = f"0,0,{k}"
            out[key] = out.get(key, 0.0) + complex(c).real
        return out


def build_surface(
    d: int,
    seed: SeedSpec,
    word: Word | str,
    precision: int = DEFAULT_PRECISION,
    tol: float = 1e-10,
    max_restarts: int = 32,
    rng_seed: int = 0,
    max_degree: int = 16,
) -> SurfacePoly:
    """Assemble J_d(x,y) + U(w) for the polynomial a word derives from a seed.

    The unit-interval part comes from an actual converged solve, so a
    failed solve propagates; the count formulas stay available either way.
    """
    if isinstance(word, str):
        word = word_from_str(word, seed)
    prof = trajectory(seed, word)[-1].profile
    if prof.degree != d:
        raise ValueError(
            f"word reaches degree {prof.degree}, arrangement degree is {d}"
        )
    sol = shabat_for_derivation(
        seed,
        word,
        tol=tol,
        max_restarts=max_restarts,
        rng_seed=rng_seed,
        max_degree=max_degree,
    )
    return SurfacePoly(
        j_part=_jd_cached(d, precision),
        u_part=to_unit_interval(sol.polynomial()),
        d=d,
        seed=seed,
        word=word_to_str(word),
        label="paired",
    )


def build_nodal_surface(d: int, precision: int = DEFAULT_PRECISION) -> SurfacePoly:
    """The all-nodes surface J_d(x,y) + u(z) from the exact axis restriction."""
    return SurfacePoly(
        j_part=_jd_cached(d, precision),
        u_part=nodal_unit_poly(d, precision),
        d=d,
        seed=None,
        word=None,
        label="nodal",
    )


@dataclass(frozen=True)
class PairClass:
    j_value: float
    u_value: float
    j_count: int
    u_count: int
    mult: int

    @property
    def pair_count(self) -> int:
        return self.j_count * self.u_count

    @property
    def singularity(self) -> str:
        return f"A{self.mult}"


@dataclass(frozen=True)
class Census3D:
    d: int
    label: str
    total: int
    pairs: tuple[PairClass, ...]
    by_type: dict
    real_total: int
    verified: bool
    max_value_defect: float
    max_gradient_defect: float
    j_census: Census2D
    u_census: CriticalCensus

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "label": self.label,
            "total": self.total,
            "real_total": self.real_total,
            "verified": self.verified,
            "by_type": {f"A{k}": v for k, v in sorted(self.by_type.items())},
            "pairs": [
                {
                    "j_value": p.j_value,
                    "u_value": p.u_value,
                    "count": p.pair_count,
                    "singularity": p.singularity,
                }
                for p in self.pairs
            ],
            "max_value_defect": self.max_value_defect,
            "max_gradient_defect": self.max_gradient_defect,
        }


def singular_census_3d(
    surface: SurfacePoly,
    tol: float = 1e-6,
    grid: int = 48,
    cluster_tol: float = 1e-6,
    max_rounds: int = 3,
) -> Census3D:
    """Count singular points of the surface by pairing the two censuses.

    The two-variable census supplies critical points of J by value; the
    one-variable census supplies critical points of U; a singular point is
    any combination whose values cancel.  Every paired triple is then
    verified directly: the surface value and full gradient are evaluated
    there and the worst defects are reported.
    """
    j_cen = census_with_retries(
        surface.j_part,
        jd_starts(surface.d),
        jd_default_box(),
        grid=grid,
        tol=tol,
        max_rounds=max_rounds,
    )
    u_cen = critical_census_uni(surface.u_part, cluster_tol)

    u_groups: Counter[tuple[float, int]] = Counter()
    u_reps: dict[tuple[float, int], complex] = {}
    for w, val, mult in u_cen.points:
        if abs(val.imag) > tol:
            continue
        key = (round(val.real, 6), mult)
        u_groups[key] += 1
        u_reps.setdefault(key, w)

    jx = surface.j_part.partial_x()
    jy = surface.j_part.partial_y()
    du = surface.u_part.derivative()

    pairs: list[PairClass] = []
    by_type: Counter[int] = Counter()
    total = 0
    real_total = 0
    max_f = 0.0
    max_g = 0.0
    for jv in sorted({round(p.value, 6) for p in j_cen.points}):
        j_pts = [p for p in j_cen.points if abs(p.value - jv) <= tol]
        for (uv, mult), u_count in sorted(u_groups.items()):
            if abs(jv + uv) > tol:
                continue
            pairs.append(
                PairClass(
                    j_value=jv,
                    u_value=uv,
                    j_count=len(j_pts),
                    u_count=u_count,
                    mult=mult,
                )
            )
            total += len(j_pts) * u_count
            by_type[mult] += len(j_pts) * u_count
            for w, val, m in u_cen.points:
                if (round(val.real, 6), m) != (uv, mult) or abs(val.imag) > tol:
                    continue
                if abs(w.imag) <= tol:
                    real_total += len(j_pts)
                for p in j_pts:
                    fval = abs(complex(p.value) + complex(surface.u_part(w)))
                    gval = max(
                        abs(float(jx(p.x, p.y))),
                        abs(float(jy(p.x, p.y))),
                        abs(complex(du(w))),
                    )
                    max_f = max(max_f, fval)
                    max_g = max(max_g, gval)
    verified = max_f <= 10 * tol and max_g <= 10 * tol
    return Census3D(
        d=surface.d,
        label=surface.label,
        total=total,
        pairs=tuple(pairs),
        by_type=dict(sorted(by_type.items())),
        real_total=real_total,
        verified=verified,
        max_value_defect=max_f,
        max_gradient_defect=max_g,
        j_census=j_cen,
        u_census=u_cen,
    )


def census_matches_spectrum(census: Census3D, sp: SingularitySpectrum) -> bool:
    return census.by_type == {k: v for k, v in sp.counts.items() if v}
