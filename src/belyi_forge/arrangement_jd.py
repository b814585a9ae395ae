"""Line-arrangement polynomials with critical values {0, 8, -1}.

A degree-d member is a scaled product of d lines whose angles march in
steps of pi/d; all (d-1)^2 critical points are real with values in
{0, 8, -1} and known closed-form counts.  The lines
x sin(phi) - y cos(phi) = sin(3 phi) are tangent to the deltoid, and the
scaled product is Chmutov's folding polynomial

    2 - Re P_d(z) + sqrt(3) Im P_d(z),    z = x - iy,

where P_n is the A2 power sum: P_0 = 3, P_1 = z, P_2 = z^2 - 2 zbar and
P_n = z P_{n-1} - zbar P_{n-2} + P_{n-3} (Hoffman and Withers 1988).  The
recurrence has integer coefficients, so the y-axis rescaling by sqrt(3)
gives J_d exactly, with powers of 3 as denominators; the scaled line
product, evaluated in mpmath, is the independent second route of the
dual-path check.

The 2D census takes its candidate critical points from the arrangement
itself: every vertex (value 0) and, in each bounded chamber, the maximum of
sum(log|l_i|) (values 8 and -1), found by damped Newton ascent from the
centroid of the chamber's vertices, all chambers in one batch.  For lines in
general position these are all the critical points (Varchenko), one per
bounded chamber, and the bounded chambers number (d-1)(d-2)/2 (Zaslavsky),
so the census is complete by construction once every candidate passes its
tests.  It reads J_d, its gradient and its Hessian as one jet, carried
through the product of the lines by the product rule one line at a time and
scaled last; the factors keep a small relative error where the dense
coefficients would not, and the jet divides by nothing, so it stays exact at
a vertex.  The lines are arrays from the start (normals and offsets), and
the census returns its candidates as arrays.  The nodal surface's U census
(nodal_u_census) reads the same lines and jet on the x-axis, where the same
ascent, in one dimension, finds a critical point in each gap between the
axis roots.  The rational coefficients serve the dual-path check, which
evaluates them in Python ints, and the exact axis restriction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .belyi_numeric import VALUE_TOL, DegreeGuardError, UCensus

# Working precision of the dual-path check's line product, in bits, and the
# number and seed of its deterministic rational points.
DUAL_PATH_PRECISION = 256
DUAL_PATH_POINTS = 12
DUAL_PATH_SEED = 7
# The census's gradient test |grad J| < 1e-8 (1 + |J|), read in product
# form, is worst at the vertices, where it is |Hessian| times the rounding of
# the vertex position: 7.8e-10 at most for d <= 24, 5.4e-9 at d=28, and
# 4.2e-8 at d=35, where one vertex fails and the census is incomplete.  The
# guard keeps a factor of ten below the test.  The nodal 3D check reads its U
# side from the axis roots of the same lines, so with the guard lifted it
# verifies wherever this census is complete (d <= 34 and d = 36).
CENSUS_DEGREE_GUARD = 24
VALUE_TARGETS = (0.0, 8.0, -1.0)


@dataclass(frozen=True)
class BiPoly:
    """Dense bivariate polynomial; grid[i][j] is the coefficient of x^i y^j.

    The grid is square of side degree+1.  Calling it runs Horner in the
    coefficient type, a dense reference for the product-form census; exact
    values at rational points come from rational_values, in Python ints.
    """

    grid: tuple[tuple, ...]

    @property
    def degree(self) -> int:
        return len(self.grid) - 1

    def __call__(self, x, y):
        acc = None
        for row in reversed(self.grid):
            inner = None
            for c in reversed(row):
                inner = c if inner is None else inner * y + c
            acc = inner if acc is None else acc * x + inner
        return acc

    def rational_values(self, points) -> list[Fraction]:
        """Exact values at rational points (x, y), one Fraction per point.

        With D the common denominator of the coefficients (3^(d//2) for
        build_Jd) and x = p/q, y = r/s, the value times D q^d s^d is the
        integer sum of D c_ij p^i q^(d-i) r^j s^(d-j).  Homogeneous Horner
        computes it in Python ints, so the only gcd is the one the Fraction
        takes when it reduces the quotient.
        """
        n = self.degree
        den = math.lcm(*(c.denominator for row in self.grid for c in row))
        scaled = [[c.numerator * (den // c.denominator) for c in row] for row in self.grid]
        values = []
        for x, y in points:
            p, q = x.numerator, x.denominator
            r, s = y.numerator, y.denominator
            q_pows, s_pows = [1], [1]
            for _ in range(n):
                q_pows.append(q_pows[-1] * q)
                s_pows.append(s_pows[-1] * s)
            acc = 0
            for i in range(n, -1, -1):
                row = scaled[i]
                inner = row[n]
                for j in range(n - 1, -1, -1):
                    inner = inner * r + row[j] * s_pows[n - j]
                acc = acc * p + inner * q_pows[n - i]
            values.append(Fraction(acc, den * q_pows[n] * s_pows[n]))
        return values

    def restrict_y0(self) -> tuple:
        """Coefficients of p(x, 0), constant first."""
        return tuple(row[0] for row in self.grid)


def _mu_range(d: int) -> range:
    return range(-((d - 2) // 2), (d + 1) // 2 + 1)


def build_lines(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d lines a*x + b*y + c = 0 whose product (after scaling) has
    critical values {0,8,-1}: their normals (a, b) as rows, and offsets c.

    Angles are phi = (6*mu - 1)*pi/(6d), and a = -tan(phi), b = 1.  None is
    vertical: that would need 6*mu - 1 to be an odd multiple of 3d, and 3
    does not divide 6*mu - 1.
    """
    if d < 2:
        raise ValueError("need at least two lines")
    normals, offsets = [], []
    for mu in _mu_range(d):
        phi = (6 * mu - 1) * math.pi / (6 * d)
        t = math.tan(phi)
        normals.append((-t, 1.0))
        offsets.append(math.cos(2 * phi) * t + math.sin(2 * phi))
    return np.array(normals), np.array(offsets)


def scale_constant(d: int) -> float:
    """The prefactor 2cos(d pi/2 + 2 pi/3) of the line product."""
    return 2.0 * math.cos(d * math.pi / 2 + 2 * math.pi / 3)


def _a2_power_sum(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of P_d as integer grids over x^k y^m.

    Gaussian integers are pairs of Python ints (the grids have dtype
    object).  With z = x - iy, z (R + iI) = xR + yI + i(xI - yR) and
    zbar (R + iI) = xR - yI + i(xI + yR); the recurrence starts from
    P_{-1} = zbar, P_0 = 3, P_1 = z.
    """

    def monomial(k, m, c):
        g = np.zeros((d + 1, d + 1), dtype=object)
        g[k, m] = c
        return g

    def x(g):
        out = np.zeros_like(g)
        out[1:] = g[:-1]
        return out

    def y(g):
        out = np.zeros_like(g)
        out[:, 1:] = g[:, :-1]
        return out

    p3 = (monomial(1, 0, 1), monomial(0, 1, 1))  # P_{-1} = x + iy
    p2 = (monomial(0, 0, 3), monomial(0, 0, 0))  # P_0 = 3
    p1 = (monomial(1, 0, 1), monomial(0, 1, -1))  # P_1 = x - iy
    for _ in range(d - 1):
        (r1, i1), (r2, i2), (r3, i3) = p1, p2, p3
        p1, p2, p3 = (x(r1 - r2) + y(i1 + i2) + r3, x(i1 - i2) - y(r1 + r2) + i3), p1, p2
    return p1


@lru_cache(maxsize=8)
def build_Jd(d: int) -> BiPoly:
    """Exact rational form of the arrangement polynomial in x and Y = sqrt(3) y.

    J_d = 2 - Re P_d + sqrt(3) Im P_d, and a coefficient c of x^k y^m in
    P_d sits at x^k Y^m divided by sqrt(3)^m.  So the coefficient of
    x^k Y^m is -Re c / 3^(m/2) for even m and Im c / 3^((m-1)/2) for odd m,
    plus the constant 2; the other part of c vanishes, and is asserted to.
    The result is immutable and cached, so the dual-path check, the exact
    axis restriction (nodal_unit_poly) and surface evaluation of one degree
    share a single build.  The censuses never build it: they read J_d from
    its lines.
    """
    if d < 2:
        raise ValueError("need degree >= 2")
    re, im = _a2_power_sum(d)

    def coefficient(k: int, m: int) -> Fraction:
        rational, other = (-re[k, m], im[k, m]) if m % 2 == 0 else (im[k, m], re[k, m])
        assert other == 0, (d, k, m)
        return Fraction(rational, 3 ** (m // 2)) + (2 if k == m == 0 else 0)

    return BiPoly(tuple(tuple(coefficient(k, m) for m in range(d + 1)) for k in range(d + 1)))


def line_product_values(d: int, points) -> list:
    """J_d at rational points (x, Y) through the scaled line product.

    The lines meet (x, Y/sqrt(3)); every step runs at mpmath's working
    precision, so the caller sets it.
    """
    import mpmath as mp

    scale = 2 * mp.cos(d * mp.pi / 2 + 2 * mp.pi / 3)
    lines = []
    for mu in _mu_range(d):
        phi = (6 * mu - 1) * mp.pi / (6 * d)
        t = mp.tan(phi)
        lines.append((-t, mp.cos(2 * phi) * t + mp.sin(2 * phi)))
    s3 = mp.sqrt(3)
    values = []
    for px, py in points:
        x = mp.mpf(px.numerator) / px.denominator
        y = mp.mpf(py.numerator) / py.denominator / s3
        values.append(scale * mp.fprod(a * x + y + c for a, c in lines))
    return values


def _dual_path_points(n_points: int, seed: int) -> list[tuple[Fraction, Fraction]]:
    """Deterministic rational points k/1000 with |k| <= 4000."""
    rng = np.random.default_rng(seed)
    draws = [Fraction(int(rng.integers(-4000, 4000)), 1000) for _ in range(2 * n_points)]
    return list(zip(draws[::2], draws[1::2]))


def verify_Jd_dual_path(d: int) -> float:
    """Max disagreement between the rational polynomial and the line product.

    Evaluates J_d at DUAL_PATH_POINTS deterministic rational points both
    exactly, by integer Horner over one common denominator
    (BiPoly.rational_values), and through the scaled line product at
    DUAL_PATH_PRECISION bits; returns the largest absolute difference.
    """
    import mpmath as mp

    points = _dual_path_points(DUAL_PATH_POINTS, DUAL_PATH_SEED)
    exact_values = build_Jd(d).rational_values(points)
    with mp.workprec(DUAL_PATH_PRECISION):
        via_lines = line_product_values(d, points)
        diffs = [
            abs(mp.mpf(exact.numerator) / exact.denominator - v)
            for exact, v in zip(exact_values, via_lines)
        ]
        return float(max(diffs, default=0))


@dataclass(frozen=True)
class JStats:
    d: int
    n0: int
    n8: int
    nm1: int

    @property
    def total(self) -> int:
        return self.n0 + self.n8 + self.nm1

    def as_dict(self) -> dict:
        return {"d": self.d, "n0": self.n0, "n8": self.n8, "nm1": self.nm1}


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is indivisible by {den}")
    return q


def jstats(d: int) -> JStats:
    """Closed-form critical-point counts at values 0, 8, -1."""
    if d < 3:
        raise ValueError("counts are defined for d >= 3")
    n0 = _exact_div(d * (d - 1), 2)
    if d % 3 == 0:
        n8 = _exact_div(d * (d - 3), 6)
        nm1 = _exact_div(d * d, 3) - d + 1
    else:
        n8 = _exact_div((d - 1) * (d - 2), 6)
        nm1 = _exact_div((d - 1) * (d - 2), 3)
    return JStats(d=d, n0=n0, n8=n8, nm1=nm1)


def _vertices(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each crossing of line i with a later line j, by Cramer's rule.

    Returns the pairs (i, j) and the crossings (x, y) as rows, in the order
    of np.triu_indices (i, then j, increasing).  Pairs of parallel lines
    (|det| < 1e-12) are dropped before the division.
    """
    i, j = np.triu_indices(len(offsets), k=1)
    (a, b), c = normals.T, offsets
    det = a[i] * b[j] - a[j] * b[i]
    crossing = np.abs(det) >= 1e-12
    i, j, det = i[crossing], j[crossing], det[crossing]
    x = (-c[i] * b[j] + c[j] * b[i]) / det
    y = (-a[i] * c[j] + a[j] * c[i]) / det
    return np.stack([i, j], axis=1), np.stack([x, y], axis=1)


@dataclass(frozen=True, eq=False)
class Census2D:
    """The census's counts per value target, and the candidates that pass its
    gradient test as read-only arrays: positions and gradients as (x, y)
    rows, and values."""

    counts: Mapping
    positions: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    complete: bool
    all_nondegenerate: bool
    expected_total: int
    stray_values: tuple[float, ...]

    @property
    def total(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict:
        return {
            "counts": {str(k): v for k, v in self.counts.items()},
            "total": self.total,
            "expected_total": self.expected_total,
            "complete": self.complete,
            "all_nondegenerate": self.all_nondegenerate,
            "stray_values": list(self.stray_values),
        }


def value_classes(values: np.ndarray) -> np.ndarray:
    """For each value, the index of the target in VALUE_TARGETS it lies within
    VALUE_TOL of, or -1 for none; the targets are too far apart for two."""
    near = np.abs(values[:, None] - np.array(VALUE_TARGETS)) <= VALUE_TOL
    return np.where(near.any(axis=1), near.argmax(axis=1), -1)


def _bounded_chambers(
    normals: np.ndarray, offsets: np.ndarray, pairs: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """The vertex centroid of each bounded chamber of the arrangement.

    A chamber is named by its sign vector (the side of each line it lies
    on).  Each vertex touches the four chambers that differ only in the
    signs of its two lines.  A chamber is unbounded exactly when it holds
    the far points of some direction, and the directions strictly inside
    the 2n gaps between the n line directions and their opposites name all
    the unbounded chambers.  The vertices are given as _vertices returns
    them.  The sign rows are grouped by np.unique, and each centroid sums
    its vertices in vertex order, as a running mean would.
    """
    k = np.arange(len(at))
    sides = np.repeat((at @ normals.T + offsets > 0)[:, None], 4, axis=1)
    for c, (si, sj) in enumerate(itertools.product((True, False), repeat=2)):
        sides[k, c, pairs[:, 0]] = si
        sides[k, c, pairs[:, 1]] = sj
    along = np.arctan2(-normals[:, 0], normals[:, 1])
    cuts = np.sort(np.concatenate([along, along + math.pi]) % (2 * math.pi))
    between = (cuts + np.append(cuts[1:], cuts[0] + 2 * math.pi)) / 2
    far = np.stack([np.cos(between), np.sin(between)], axis=1) @ normals.T > 0
    rows = np.concatenate([sides.reshape(-1, len(offsets)), far])
    chambers, chamber_of = np.unique(rows, axis=0, return_inverse=True)
    chamber_of = chamber_of.ravel()
    touching, unbounded = chamber_of[: 4 * len(at)], chamber_of[4 * len(at) :]
    count = np.bincount(touching, minlength=len(chambers))
    bounded = count > 0
    bounded[unbounded] = False
    corners = np.repeat(at, 4, axis=0)
    sums = [np.bincount(touching, corners[:, i], len(chambers))[bounded] for i in (0, 1)]
    return np.stack(sums, axis=1) / count[bounded, None]


def _chamber_maxima(normals: np.ndarray, offsets: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Maximum of sum(log|l_i|) over the open chamber holding each start.

    The lines l_i = n_i . x + c_i and the starts may be of any dimension:
    the 2D census runs it on the arrangement's bounded chambers, and the
    nodal U census in one dimension, on the gaps between the axis roots.
    Damped Newton ascent, run on all chambers at once as stacked arrays;
    each chamber stops on its own.  The objective is strictly concave on a
    chamber, so the ascent converges.  With r_i = (n_i . step) / l_i, the
    scaled step t * step keeps every sign while all 1 + t*r_i > 0 and raises
    the objective by sum(log1p(t*r_i)); both read accurately however small
    the step, and each chamber halves its own t until both hold.  Once the
    Newton decrement is below 1e-20 the full step stays in the chamber (its
    Hessian norm is under 1) and lands at rounding level.  A chamber that
    has not converged in 50 steps keeps its last iterate, which the census's
    gradient test then rejects.
    """
    x = np.array(starts, dtype=float)
    todo = np.arange(len(x))
    for _ in range(50):
        if not todo.size:
            break
        scaled = normals / (x[todo] @ normals.T + offsets)[:, :, None]
        grad = scaled.sum(axis=1)
        step = np.linalg.solve(scaled.swapaxes(1, 2) @ scaled, grad[:, :, None])[:, :, 0]
        done = np.einsum("ki,ki->k", grad, step) < 1e-20
        x[todo[done]] += step[done]
        todo, scaled, step = todo[~done], scaled[~done], step[~done]
        r = np.einsum("kni,ki->kn", scaled, step)
        t = np.ones(len(todo))
        while True:
            tr = t[:, None] * r
            inside = tr > -1.0
            # log1p only where it is defined, so nothing warns.
            gain = np.log1p(np.where(inside, tr, 0.0)).sum(axis=1)
            halve = ~inside.all(axis=1) | (gain <= 0.0)
            if not halve.any():
                break
            t[halve] /= 2
        x[todo] += t[:, None] * step
    return x


def _product_jet(
    normals: np.ndarray, offsets: np.ndarray, scale: float, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Value, gradient and Hessian of scale * prod(l_i) at the points (x, y).

    Returns (value, gx, gy, hxx, hxy, hyy).  One jet (v, g, H), started at
    (1, 0, 0), takes the lines in order by the product rule: with
    l = a x + b y + c and normal n = (a, b), it becomes
    (v l, g l + v n, H l + n g^T + g n^T).  The scale multiplies last, so
    the value rounds as scale * prod(l_i) taken line by line does.  The jet
    divides by nothing, so it stays exact at a vertex, where two factors
    vanish, and it holds six arrays the size of the points.
    """
    value = np.ones_like(x)
    gx, gy, hxx, hxy, hyy = (np.zeros_like(x) for _ in range(5))
    for (a, b), c in zip(normals, offsets):
        l = a * x + b * y + c
        hxx, hxy, hyy = hxx * l + 2 * a * gx, hxy * l + a * gy + b * gx, hyy * l + 2 * b * gy
        gx, gy = gx * l + a * value, gy * l + b * value
        value = value * l
    return tuple(scale * q for q in (value, gx, gy, hxx, hxy, hyy))


def arrangement_census(normals: np.ndarray, offsets: np.ndarray, scale: float) -> Census2D:
    """Real critical points of J = scale * prod(l_i), read in product form.

    The lines l_i = n_i . (x, y) + c_i come as their normals n_i (rows) and
    offsets c_i.  For d lines in general position the critical points are
    the d(d-1)/2 vertices, where J vanishes to second order, and one maximum
    of sum(log|l_i|) in each bounded chamber (Varchenko), of which there are
    (d-1)(d-2)/2 (Zaslavsky); one batched damped-Newton ascent finds every
    chamber's maximum (_chamber_maxima).  J, its gradient and its Hessian
    come from one product-rule jet over the line factors (_product_jet),
    never from dense coefficients.  Each candidate must pass the gradient
    test |grad J| < 1e-8 (1 + |J|); it is then classified against the values
    {0, 8, -1} within VALUE_TOL (value_classes) and flagged nondegenerate by
    its Hessian determinant.  The census is complete when every candidate
    passes, no value strays and the bounded chambers number (d-1)(d-2)/2.
    """
    d = len(offsets)
    if d > CENSUS_DEGREE_GUARD:
        raise DegreeGuardError(f"degree {d} exceeds census guard {CENSUS_DEGREE_GUARD}")
    pairs, vertices = _vertices(normals, offsets)
    centroids = _bounded_chambers(normals, offsets, pairs, vertices)
    maxima = _chamber_maxima(normals, offsets, centroids)
    x, y = np.concatenate([vertices, maxima]).T
    val, fx, fy, hxx, hxy, hyy = _product_jet(normals, offsets, scale, x, y)
    det = hxx * hyy - hxy * hxy
    ok = np.hypot(fx, fy) < 1e-8 * (1.0 + np.abs(val))
    nondeg = np.abs(det) > VALUE_TOL * (1.0 + hxx * hxx + hxy * hxy + hyy * hyy)
    all_nondeg = bool(nondeg[ok].all())
    # The candidates that pass, one read-only row (x, y, J, J_x, J_y) each.
    rows = np.stack([x, y, val, fx, fy], axis=1)[ok]
    rows.flags.writeable = False
    classes = value_classes(rows[:, 2])
    counts = np.bincount(classes[classes >= 0], minlength=len(VALUE_TARGETS))
    strays = tuple(float(v) for v in rows[classes < 0, 2])
    bounded = (d - 1) * (d - 2) // 2
    complete = bool(ok.all()) and not strays and all_nondeg and len(centroids) == bounded
    return Census2D(
        counts=MappingProxyType(dict(zip(VALUE_TARGETS, counts.tolist()))),
        positions=rows[:, :2],
        values=rows[:, 2],
        gradients=rows[:, 3:],
        complete=complete,
        all_nondegenerate=all_nondeg,
        expected_total=(d - 1) ** 2,
        stray_values=strays,
    )


@lru_cache(maxsize=8)
def jd_census(d: int) -> Census2D:
    """Census of J_d from its lines, which carry the sqrt(3) y-scale.

    It depends on d alone, so it is cached: jd-verify, the nodal surface
    and the paired surfaces of one degree share one census.  The census is
    read-only: its counts are a mapping proxy and its arrays are not
    writeable.
    """
    return arrangement_census(*jd_lines(d), scale_constant(d))


def jd_lines(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The arrangement's normals and offsets in the rational polynomial's
    coordinates, where each b = 1 of build_lines is 1/sqrt(3)."""
    normals, offsets = build_lines(d)
    normals[:, 1] /= math.sqrt(3)
    return normals, offsets


class DegenerateAxisError(ArithmeticError):
    """The lines do not meet the x-axis at distinct real points, so the
    product-form census of the nodal U does not apply."""


def nodal_u_census(normals: np.ndarray, offsets: np.ndarray, scale: float) -> UCensus:
    """Critical points of U(z) = (3 - J(2z + 1, 0)) / 4, read from the lines.

    On the axis J is scale * prod(a_i x + c_i), of degree d = len(offsets),
    with roots r_i = -c_i / a_i.  When these are d distinct reals, Rolle
    puts a critical point of J in each of the d - 1 gaps between
    consecutive roots; J' has degree d - 1, so these are all of them and
    each is simple, with no clustering to decide.  Roots that are not
    distinct, or a line parallel to the axis, raise DegenerateAxisError;
    there is no fallback.

    Each gap is a bounded chamber of the lines restricted to the axis, and
    its critical point is the maximum of sum(log|a_i x + c_i|) there, so the
    2D census's ascent (_chamber_maxima), run in one dimension, finds it
    from the gap's midpoint.  Every gap must be wider than four rounding
    units of the largest |r_i|, so that midpoint lies strictly inside it.
    The point maps to the surface's variable by z = (x - 1) / 2.  There
    U = (3 - J) / 4 and |U'| = |J_x| / 2, with J and J_x read from the
    arrangement's product-rule jet (_product_jet) on the axis.
    """
    a = normals[:, 0]
    if np.any(a == 0):
        raise DegenerateAxisError("a line is parallel to the x-axis")
    roots = np.sort(-offsets / a)
    width = 4 * np.finfo(float).eps * np.abs(roots).max()
    gaps = np.diff(roots)
    if not np.all(gaps > width):
        raise DegenerateAxisError(
            f"axis roots are not distinct: smallest gap {gaps.min():.3e}, "
            f"rounding width {width:.3e}"
        )
    midpoints = (roots[:-1] + roots[1:]) / 2
    x = _chamber_maxima(a[:, None], offsets, midpoints[:, None])[:, 0]
    j, jx = _product_jet(normals, offsets, scale, x, np.zeros_like(x))[:2]
    z, u = (x - 1) / 2, (3 - j) / 4
    return UCensus(
        points=tuple((float(w), float(v), 1) for w, v in zip(z, u)),
        slopes=tuple(float(g) for g in np.abs(jx) / 2),
    )


def census_matches_jstats(census: Census2D, stats: JStats) -> bool:
    return (
        census.complete
        and census.counts.get(0.0, 0) == stats.n0
        and census.counts.get(8.0, 0) == stats.n8
        and census.counts.get(-1.0, 0) == stats.nm1
    )
