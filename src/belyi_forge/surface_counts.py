"""Singularity counts for surfaces pairing an arrangement polynomial with a
unit-interval polynomial.

A surface J(x,y) + U(w) = 0 is singular exactly where both summands sit at
critical points with opposite critical values; J contributes values
{0, 8, -1} with known counts and U contributes {0, 1}, so value 0 pairs
with 0 and value -1 pairs with 1.  Every count and lower-bound formula
here is that pairing arithmetic in closed form, and the desk-scale census
recomputes it from the actual polynomials.  The closed forms and the bound
table run on Python ints alone; numpy, bound lazily (lazy_numpy), executes
only when a census runs.
"""

from __future__ import annotations

import csv
import io
import threading
import warnings
from bisect import bisect_left
from collections import Counter
from functools import cache
from operator import attrgetter, index, itemgetter
from typing import NamedTuple

from .arrangement_jd import (
    VALUE_TARGETS,
    JStats,
    jd_census,
    jstats,
    value_classes,
)
from .belyi_numeric import (
    VALUE_TOL,
    ShabatSolution,
    WindingCensus,
    chebyshev_solution,
    lazy_numpy,
    vertex_u_census,
    winding_census,
)
from .profile_core import CriticalProfile
from .seed_families import (
    F1,
    F2,
    F3,
    SeedSpec,
    f1_d0,
    f2_d0,
    f3_d0,
    format_seed,
)
from .word_engine import DerivationState, catalogue_ends

np = lazy_numpy()

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
    d, nu = index(d), index(nu)
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
    d = index(d)
    st = jstats(d)
    return st.n0 * (d // 2) + st.nm1 * ((d - 1) // 2)


def nodal_threefold_count(d: int) -> int:
    """Node count of the threefold pairing the arrangement against itself."""
    st = jstats(d)
    return st.n0**2 + st.n8**2 + st.nm1**2


def _f1_seeds(d_max: int) -> list[tuple[int, F1]]:
    out = []
    n = 0
    while f1_d0(n, 1) <= d_max:
        m = 1
        while (d0 := f1_d0(n, m)) <= d_max:
            out.append((d0, F1(n=n, m=m)))
            m += 1
        n += 1
    return out


def _f2_seeds(d_max: int) -> list[tuple[int, F2]]:
    out = []
    for j in (0, 1):
        lo = 1 if j == 0 else 0
        n = lo
        while f2_d0(j, n, lo, lo) <= d_max:
            m = lo
            while f2_d0(j, n, m, m) <= d_max:
                l = m
                while (d0 := f2_d0(j, n, m, l)) <= d_max:
                    out.append((d0, F2(j=j, n=n, m=m, l=l)))
                    l += 1
                m += 1
            n += 1
    return out


def _f3_seeds(d_max: int) -> list[tuple[int, F3]]:
    out = []
    for x in (1, 2, 3):
        for j in (-1, 0, 1):
            m_lo = (6 - j) // 3
            n = 0
            while f3_d0(x, j, n, m_lo, 0) <= d_max:
                m = m_lo
                while f3_d0(x, j, n, m, 0) <= d_max:
                    l_hi = 0 if m == 1 else m - 2
                    for l in range(l_hi + 1):
                        d0 = f3_d0(x, j, n, m, l)
                        if d0 > d_max:
                            break
                        out.append((d0, F3(x=x, j=j, n=n, m=m, l=l)))
                    m += 1
                n += 1
    return out


def _seed_pairs(d_max: int) -> list[tuple[int, SeedSpec]]:
    """Every valid seed whose starting degree is at most d_max, with that
    degree, in one walk per family.

    Each walk runs over its family's domain and stops where the family's d0
    formula, the one seed_triple reads, passes d_max; so it emits valid
    seeds only, and validates and builds no triple.
    """
    return _f1_seeds(d_max) + _f2_seeds(d_max) + _f3_seeds(d_max)


def seed_grid(d_max: int) -> list[SeedSpec]:
    """Every valid seed whose starting degree is at most d_max, family by
    family (see _seed_pairs)."""
    return [s for _, s in _seed_pairs(d_max)]


def _catalogue_order(c: DerivationState) -> tuple:
    return (c.profile.degree, c.nu, format_seed(c.seed), c.word)


_CATALOGUE_LOCK = threading.Lock()


class _Index:
    """The catalogue walked to degree walk_to: the degree its seeds are listed
    to, the listed seeds not yet walked (by falling d0), and the walked
    states by degree."""

    __slots__ = ("walk_to", "listed_to", "pending", "filed")

    def __init__(self, walk_to: int) -> None:
        self.walk_to, self.listed_to = walk_to, -1
        self.pending: list[tuple[int, SeedSpec]] = []
        self.filed: dict[int, list[DerivationState]] = {}

    def slice(self, d: int) -> tuple[DerivationState, ...]:
        """The constructions at exactly degree d <= walk_to, in catalogue
        order.  Every letter raises the degree, so degree d is complete once
        every seed with d0 <= d is walked, and no other seed is; a cold index
        lists seeds only up to the degree asked, and a seed leaves the
        pending list only after all of its states are filed."""
        if d > self.listed_to:
            # The listing at least doubles its reach, so ascending lookups
            # list O(log d) times; a seed is walked only once asked for.
            to = min(max(d, 2 * self.listed_to), self.walk_to)
            fresh = [pair for pair in _seed_pairs(to) if pair[0] > self.listed_to]
            self.pending[:0] = sorted(fresh, key=itemgetter(0), reverse=True)
            self.listed_to = to
        pending = self.pending
        while pending and pending[-1][0] <= d:
            for c in catalogue_ends(pending[-1][1], self.walk_to):
                self.filed.setdefault(c.profile.degree, []).append(c)
            pending.pop()
        return tuple(sorted(self.filed.get(d, ()), key=_catalogue_order))


@cache
def _table_index() -> _Index:
    """The one index kept: the catalogue walked to the table guard."""
    return _Index(BOUND_TABLE_GUARD)


@cache
def _constructions_at(d: int) -> tuple[DerivationState, ...]:
    """The catalogue's slice at exactly degree d: the table index's, or past
    the guard one from an index walked to exactly d and not kept.  A lookup
    lists and walks only the seeds with d0 <= d."""
    with _CATALOGUE_LOCK:
        return (_table_index() if d <= BOUND_TABLE_GUARD else _Index(d)).slice(d)


def constructions_up_to(d_max: int) -> tuple[DerivationState, ...]:
    """Catalogued constructions (seed plus admissible word) up to degree d_max,
    in catalogue order: by degree, nu, seed and word.  The top degree is read
    first, so the seeds are listed and walked once; past the table guard
    they are walked to d_max in an index that is not kept."""
    at = _constructions_at if d_max <= BOUND_TABLE_GUARD else _Index(d_max).slice
    at(d_max)
    return tuple(c for d in range(d_max + 1) for c in at(d))


_NU = attrgetter("nu")


def find_construction(d: int, nu: int) -> DerivationState | None:
    """Smallest catalogued construction at exactly (degree, nu), if any:
    the first of that nu in the degree's cached slice, found by bisection,
    as catalogue order sorts a slice by nu.  Both are read with
    operator.index, as count_Anu reads them."""
    at, nu = _constructions_at(index(d)), index(nu)
    i = bisect_left(at, nu, key=_NU)
    return at[i] if i < len(at) and at[i].nu == nu else None


def lowest_nu_construction(d: int) -> DerivationState | None:
    """Smallest catalogued construction of lowest multiplicity at exactly degree d."""
    return next(iter(_constructions_at(index(d))), None)


class BoundRow(NamedTuple):
    d: int
    nu: int
    bound: int
    seed: str
    word: str


class BoundTable(NamedTuple):
    rows: tuple[BoundRow, ...]

    def row(self, d: int, nu: int) -> BoundRow | None:
        for r in self.rows:
            if r.d == d and r.nu == nu:
                return r
        return None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(BoundRow._fields)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> list[dict]:
        return [r._asdict() for r in self.rows]


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


class PairClass(NamedTuple):
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


class Census3D(NamedTuple):
    d: int
    label: str
    total: int
    pairs: tuple[PairClass, ...]
    by_type: dict
    real_total: int
    verified: bool
    max_value_defect: float
    max_gradient_defect: float
    winding: WindingCensus | None = None

    def as_dict(self) -> dict:
        out = {
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
        if self.winding is not None:
            out["winding_census"] = self.winding.as_dict()
        return out


def singular_census_3d(d: int, solution: ShabatSolution | None = None) -> Census3D:
    """Count singular points of the surface J_d(x, y) + U(w) by pairing the
    two censuses.

    U = (p + 1)/2 for the Shabat solution p.  When solution is None, p is
    the Chebyshev T_d (chebyshev_solution, the path tree in closed form):
    J_d's lines cross the x-axis where T_d = 1/2, so (1 + T_d)/2 is the
    nodal surface's U, the axis restriction (3 - J_d(2z + 1, 0))/4.  Both
    censuses read their critical points in product form, with no
    clustering and no expanded coefficients.  J's come from the cached
    two-variable census of J_d's lines, as arrays of values and gradients;
    U's come from the solved tree's internal vertices (vertex_u_census), with
    U and |U'| there.  Each of J's lattice classes pairs with the U points of
    the opposite value (value_classes, the rule the 2D census checks J's
    values by), per multiplicity.  Every paired triple is verified directly:
    the surface value is formed there from the two censuses, and its
    gradient defect is J's Newton step |H^-1 grad J| beside |U'|; the worst
    defects are reported.  The census is verified only when J's census is
    complete and the defects are small; a U point whose value pairs with no
    J class (one with an imaginary part above VALUE_TOL included) leaves it
    unverified.  U's census reads the vertices as U's only critical points.
    For a solved p the winding census (winding_census) proves it, and a
    paired census is verified only when that census matches; T_d's critical
    points are its interior vertices in closed form.  A degree below 2
    raises ValueError, from jd_census.
    """
    d = index(d)
    if solution is not None and solution.degree != d:
        raise ValueError(
            f"solution degree {solution.degree} does not match arrangement degree {d}"
        )
    j_cen = jd_census(d)
    u_cen = vertex_u_census(chebyshev_solution(d) if solution is None else solution)
    w, u, mult, slopes = u_cen.positions, u_cen.values, u_cen.mults, u_cen.slopes

    # J's classes are its lattice classes; a U point joins the class of the
    # opposite value if its imaginary part is within VALUE_TOL, and pairs
    # with nothing if that class holds no J point.
    j_class = j_cen.classes
    u_class = np.where(np.abs(np.imag(u)) <= VALUE_TOL, value_classes(-np.real(u)), -1)
    u_class[~np.isin(u_class, j_class)] = -1
    real_u = np.abs(np.imag(w)) <= VALUE_TOL
    pairs: list[PairClass] = []
    by_type: Counter[int] = Counter()
    real_total = 0
    max_f = max_g = 0.0
    for jv, c in sorted((t, c) for c, t in enumerate(VALUE_TARGETS)):
        j_pts = np.flatnonzero(j_class == c)
        j_vals = j_cen.values[j_pts]
        for m in sorted(set(mult[u_class == c].tolist())):
            u_pts = np.flatnonzero((u_class == c) & (mult == m))
            # 0.0 - jv is +0.0 opposite the vertex value.
            pairs.append(PairClass(jv, 0.0 - jv, len(j_pts), len(u_pts), m))
            by_type[m] += len(j_pts) * len(u_pts)
            real_total += len(j_pts) * int(np.count_nonzero(real_u[u_pts]))
            # J is real and fl(j + Re u) is monotone in j, so |J + U| over
            # the class is greatest at its least or its greatest J.  np.hypot
            # rounds as Python's complex abs does.
            f = np.array([j_vals.min(), j_vals.max()])[:, None] + u[u_pts]
            max_f = max(max_f, float(np.hypot(f.real, f.imag).max()))
            max_g = float(max(max_g, j_cen.steps[j_pts].max(), slopes[u_pts].max()))
    winding = None if solution is None else winding_census(solution)
    verified = (
        j_cen.complete and max_f <= 10 * VALUE_TOL and max_g <= 10 * VALUE_TOL
        and -1 not in u_class and (winding is None or winding.matches)
    )
    return Census3D(
        d=d,
        label="nodal" if solution is None else "paired",
        total=sum(by_type.values()),
        pairs=tuple(pairs),
        by_type=dict(sorted(by_type.items())),
        real_total=real_total,
        verified=verified,
        max_value_defect=max_f,
        max_gradient_defect=max_g,
        winding=winding,
    )

