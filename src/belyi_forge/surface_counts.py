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
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .arrangement_jd import (
    JStats,
    build_Jd,
    jd_census,
    jd_lines,
    jstats,
    nodal_u_census,
    scale_constant,
)
from .belyi_numeric import (
    VALUE_TOL,
    ShabatSolution,
    UniPoly,
    vertex_u_census,
)
from .profile_core import CriticalProfile
from .seed_families import (
    F1,
    F2,
    F3,
    SeedSpec,
    format_seed,
    seed_triple,
)
from .word_engine import DerivationState, catalogue_ends

BOUND_TABLE_GUARD = 200


class ExistenceUnverifiedWarning(UserWarning):
    """A count formula was evaluated at (d, nu) with no known construction."""


def spectrum(js: JStats, g: CriticalProfile) -> Counter[int]:
    """Pairing arithmetic: black k-points meet value-0 sheets, white k-points
    meet value -1 sheets; value-8 critical points pair with nothing.

    The counts are per multiplicity k; a type that does not occur reads 0.
    """
    if g.degree != js.d:
        raise ValueError(
            f"profile degree {g.degree} does not match arrangement degree {js.d}"
        )
    counts: Counter[int] = Counter()
    for k, c in g.black_counter().items():
        counts[k] += js.n0 * c
    for k, c in g.white_counter().items():
        counts[k] += js.nm1 * c
    return counts


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
    """Every valid seed whose starting degree is at most d_max.

    The family generators walk each family's domain, so they emit valid
    seeds only.
    """
    return _f1_seeds(d_max) + _f2_seeds(d_max) + _f3_seeds(d_max)


@cache
def _constructions_for_seed(seed: SeedSpec, d_max: int) -> tuple[DerivationState, ...]:
    """The seed's admissible catalogued words up to degree d_max, as the
    states they reach, in the order of catalogue_ends."""
    return tuple(catalogue_ends(seed, d_max))


@cache
def _seeds_with_d0(d_max: int) -> tuple[tuple[int, SeedSpec], ...]:
    """seed_grid(d_max) with each seed's starting degree."""
    return tuple((seed_triple(s).d0, s) for s in seed_grid(d_max))


def _catalogue_order(c: DerivationState) -> tuple:
    return (c.profile.degree, c.nu, format_seed(c.seed), c.word)


def _catalogued(d_max: int, keep) -> tuple[DerivationState, ...]:
    """The constructions c up to degree d_max with keep(c), in catalogue order.

    They are read from per-seed walks cached to the table guard (or to
    d_max past it); the seeds of seed_grid(d_max) are those of the cached
    grid at the walk degree whose starting degree is at most d_max, and
    only those are walked.
    """
    walk_to = max(d_max, BOUND_TABLE_GUARD)
    cons = [
        c
        for d0, s in _seeds_with_d0(walk_to)
        if d0 <= d_max
        for c in _constructions_for_seed(s, walk_to)
        if keep(c)
    ]
    return tuple(sorted(cons, key=_catalogue_order))


def constructions_up_to(d_max: int) -> tuple[DerivationState, ...]:
    """Catalogued constructions (seed plus admissible word) up to degree d_max,
    in catalogue order: by degree, nu, seed and word."""
    return _catalogued(d_max, lambda c: c.profile.degree <= d_max)


@cache
def _constructions_at(d: int) -> tuple[DerivationState, ...]:
    """The catalogue's slice at exactly degree d, by nu, seed and word.

    Built on first use of each degree, so a lookup at a small degree walks
    only the seeds that start at or below it.
    """
    return _catalogued(d, lambda c: c.profile.degree == d)


def find_construction(d: int, nu: int) -> DerivationState | None:
    """Smallest catalogued construction at exactly (degree, nu), if any:
    the first of that nu in the degree's cached slice."""
    return next((c for c in _constructions_at(d) if c.nu == nu), None)


def lowest_nu_construction(d: int) -> DerivationState | None:
    """Smallest catalogued construction of lowest multiplicity at exactly degree d."""
    return next(iter(_constructions_at(d)), None)


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
        d = c.profile.degree
        if d % 3 != 0:
            continue
        for k, cnt in spectrum(jstats(d), c.profile).items():
            key = (d, k)
            cand = (cnt, format_seed(c.seed), c.word)
            cur = best.get(key)
            if cur is None or cand[0] > cur[0] or (cand[0] == cur[0] and cand[1:] < cur[1:]):
                best[key] = cand
    rows = [
        BoundRow(d=d, nu=nu, bound=v[0], seed=v[1], word=v[2])
        for (d, nu), v in sorted(best.items())
    ]
    return BoundTable(rows=tuple(rows))


def nodal_unit_poly(d: int) -> UniPoly:
    """Exact axis restriction reparametrized to critical values {0, 1}.

    Substitutes x = 2z+1, y = 0 into the rational arrangement polynomial
    and applies the affine value map v -> (3-v)/4, all in exact rationals.
    """
    axis = build_Jd(d).restrict_y0()
    t = UniPoly((Fraction(1), Fraction(2)))
    g = UniPoly((axis[-1],))
    for c in reversed(axis[:-1]):
        g = (g * t).shift_constant(c)
    return g.scale(Fraction(-1, 4)).shift_constant(Fraction(3, 4))


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


def singular_census_3d(d: int, solution: ShabatSolution | None = None) -> Census3D:
    """Count singular points of the surface J_d(x, y) + U(w) by pairing the
    two censuses.

    U = (p + 1)/2 for the Shabat solution p, or, when solution is None, the
    nodal surface's U: the axis restriction of J_d's lines (nodal_unit_poly
    expands it exactly).  The two-variable census of J_d, read in product
    form from its lines and cached per degree, supplies critical points of
    J by value with their values and gradients.  U's critical points, with
    U and |U'| there, come in product form too, with no clustering and no
    expanded coefficients.  For the nodal surface nodal_u_census reads them
    from the axis roots of the same lines: Rolle puts one in each gap, and
    each is simple because U' has degree d - 1.  For a paired surface
    vertex_u_census reads them from the solved tree: U's critical points
    are its internal vertices.  A singular point is any combination whose
    values cancel.  Every paired triple is then verified directly: the
    surface value and full gradient are formed there from the two
    censuses, and the worst defects are reported.  A U point whose value
    pairs with no J value (one with an imaginary part above VALUE_TOL
    included) leaves the census unverified.
    """
    if solution is not None and solution.degree != d:
        raise ValueError(
            f"solution degree {solution.degree} does not match arrangement degree {d}"
        )
    j_cen = jd_census(d)
    if solution is None:
        u_cen = nodal_u_census(jd_lines(d), scale_constant(d))
    else:
        u_cen = vertex_u_census(solution)

    # Each real-valued critical point of U, grouped by (value, multiplicity),
    # with U and |U'| there.  Adding 0.0 folds a rounding residual's -0.0
    # into 0.0, as for the vertex value below.
    u_groups: dict[tuple[float, int], list[tuple[complex, complex, float]]] = {}
    for (w, val, mult), slope in zip(u_cen.points, u_cen.slopes):
        if abs(val.imag) <= VALUE_TOL:
            u_groups.setdefault((round(val.real, 6) + 0.0, mult), []).append((w, val, slope))

    pairs: list[PairClass] = []
    by_type: Counter[int] = Counter()
    total = 0
    real_total = 0
    max_f = 0.0
    max_g = 0.0
    paired: set[tuple[float, int]] = set()
    # Adding 0.0 folds -0.0 into 0.0, so the key of the vertex value does
    # not depend on which vertex the census happens to list first.
    for jv in sorted({round(p.value, 6) + 0.0 for p in j_cen.points}):
        j_pts = [p for p in j_cen.points if abs(p.value - jv) <= VALUE_TOL]
        j_grad = max((abs(g) for p in j_pts for g in p.gradient), default=0.0)
        for (uv, mult), u_pts in sorted(u_groups.items()):
            if abs(jv + uv) > VALUE_TOL:
                continue
            paired.add((uv, mult))
            u_count = len(u_pts)
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
            for w, u_w, du_w in u_pts:
                if abs(w.imag) <= VALUE_TOL:
                    real_total += len(j_pts)
                max_f = max(max_f, *(abs(p.value + u_w) for p in j_pts))
                max_g = max(max_g, j_grad, du_w)
    unpaired = len(u_cen.points) - sum(len(u_groups[key]) for key in paired)
    verified = max_f <= 10 * VALUE_TOL and max_g <= 10 * VALUE_TOL and not unpaired
    return Census3D(
        d=d,
        label="nodal" if solution is None else "paired",
        total=total,
        pairs=tuple(pairs),
        by_type=dict(sorted(by_type.items())),
        real_total=real_total,
        verified=verified,
        max_value_defect=max_f,
        max_gradient_defect=max_g,
    )

