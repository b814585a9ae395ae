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
gives J_d exactly, as integers over the one denominator 3^(d//2); the
scaled line product, evaluated in Python-int fixed point from one root of
unity, is the independent second route of the dual-path check.  That root
comes from an integer Newton solve of z^(12d) = 1 and the check's points
are written out, so the check imports neither mpmath nor numpy.random.

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
the census returns its candidates as arrays.  The exact J_d, integers over
3^(d//2), serves the dual-path check, which evaluates it by integer Horner,
and the exact axis restriction.  numpy is bound lazily (lazy_numpy): the
closed-form counts of jstats need none of it, so only building J_d and the
census execute it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .belyi_numeric import VALUE_TOL, DegreeGuardError, lazy_numpy

np = lazy_numpy()

# Fractional bits of the dual-path check's fixed-point line product, at which
# the exact values are also read, and its 12 rational points k/1000 with
# |k| <= 4000, written out: the first 24 draws of numpy's
# default_rng(7).integers(-4000, 4000).
DUAL_PATH_PRECISION = 256
DUAL_PATH_POINTS = tuple(
    (Fraction(p, 1000), Fraction(q, 1000))
    for p, q in (
        (3559, 1000), (1473, 3177), (626, 2205), (2669, -2199),
        (-3556, -1599), (-1720, 2988), (3300, -3958), (-2, 2569),
        (-2949, 2376), (-3048, -257), (2531, -1576), (-1268, -1773),
    )
)
# The census's gradient test |grad J| < 1e-8 (1 + |J|), read in product
# form, is worst at the vertices, where it is |Hessian| times the rounding of
# the vertex position: 7.8e-10 at most for d <= 24, 5.4e-9 at d=28, and
# 4.2e-8 at d=35, where one vertex fails and the census is incomplete.  The
# guard keeps a factor of ten below the test.
CENSUS_DEGREE_GUARD = 24
VALUE_TARGETS = (0.0, 8.0, -1.0)


@dataclass(frozen=True)
class BiPoly:
    """Dense bivariate polynomial with rational coefficients over one
    denominator: grid[i][j] / den is the coefficient of x^i y^j.

    The grid is square of side degree+1 and holds Python ints, and
    rational_values evaluates it exactly.
    """

    grid: tuple[tuple[int, ...], ...]
    den: int

    @property
    def degree(self) -> int:
        return len(self.grid) - 1

    def rational_values(self, points) -> list[Fraction]:
        """Exact values at rational points (x, y), one Fraction per point.

        With x = p/q and y = r/s, the value times den q^d s^d is the integer
        sum of c_ij p^i q^(d-i) r^j s^(d-j) over the grid entries c_ij.
        Homogeneous Horner computes it in Python ints, so the only gcd is
        the one the Fraction takes when it reduces the quotient.
        """
        n = self.degree
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
                row = self.grid[i]
                inner = row[n]
                for j in range(n - 1, -1, -1):
                    inner = inner * r + row[j] * s_pows[n - j]
                acc = acc * p + inner * q_pows[n - i]
            values.append(Fraction(acc, self.den * q_pows[n] * s_pows[n]))
        return values


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
    """Exact form of the arrangement polynomial in x and Y = sqrt(3) y, as
    integers over the one denominator 3^(d//2).

    J_d = 2 - Re P_d + sqrt(3) Im P_d, and a coefficient c of x^k y^m in
    P_d sits at x^k Y^m divided by sqrt(3)^m.  So the coefficient of
    x^k Y^m is -Re c / 3^(m/2) for even m and Im c / 3^((m-1)/2) for odd m,
    plus the constant 2; the other part of c vanishes, and is asserted to.
    Over 3^(d//2), column m is that part of P_d times 3^(d//2 - m//2).  The
    result is immutable and cached, so the dual-path check and the exact axis
    restriction (nodal_unit_poly) of one degree share a single build; the
    censuses read J_d from its lines.
    """
    if d < 2:
        raise ValueError("need degree >= 2")
    re, im = _a2_power_sum(d)
    den = 3 ** (d // 2)
    even = np.arange(d + 1) % 2 == 0
    assert not np.any(im[:, even]) and not np.any(re[:, ~even]), d
    scale = np.array([den // 3 ** (m // 2) for m in range(d + 1)], dtype=object)
    grid = np.where(even, -re, im) * scale
    grid[0, 0] += 2 * den
    return BiPoly(tuple(map(tuple, grid.tolist())), den)


def _fixed_power(c: int, s: int, k: int, w: int) -> tuple[int, int]:
    """(c + is)^k by binary powering, in fixed point with w fractional bits."""
    rc, rs = 1 << w, 0
    while k:
        if k & 1:
            rc, rs = (rc * c - rs * s) >> w, (rc * s + rs * c) >> w
        c, s = (c * c - s * s) >> w, (2 * c * s) >> w
        k >>= 1
    return rc, rs


def _unit_roots(d: int, w: int) -> tuple[int, int, int, int]:
    """e^{i phi} at the first line's angle and the step e^{i pi/d}, as the
    ints (c, s, step_c, step_s) near 2^w times their parts.

    zeta = e^{i pi/(6d)} is the root of z^n = 1, n = 12d, nearest its float
    value.  Newton's step z - z (z^n - 1) conj(z^n)/n (near the unit circle
    conj(z^n) stands for 1/z^n) runs on Gaussian integers in fixed point, the
    precision nearly doubling per step, up to w + 40 guard bits; each step
    loses about log2(n) bits, which the schedule allows for.  Then the step
    is zeta^6 and e^{i phi} = conj(zeta)^(1 - 6 mu0), and each part is
    truncated toward zero at w bits.
    """
    n, guard = 12 * d, 40
    precisions = [w + guard]
    while precisions[-1] > 48:
        precisions.append((precisions[-1] + n.bit_length() + 8) // 2)
    p = precisions.pop()
    c = int(math.ldexp(math.cos(math.pi / (6 * d)), p))
    s = int(math.ldexp(math.sin(math.pi / (6 * d)), p))
    for q in reversed(precisions):
        c, s, p = c << (q - p), s << (q - p), q
        zc, zs = _fixed_power(c, s, n, p)
        # (z^n - 1) conj(z^n) = |z^n|^2 - conj(z^n).
        ec = ((zc * zc + zs * zs) >> p) - zc
        c, s = c - (c * ec - s * zs) // (n << p), s - (c * zs + s * ec) // (n << p)
    first = _fixed_power(c, -s, 1 - 6 * _mu_range(d)[0], p)
    step = _fixed_power(c, s, 6, p)
    return tuple(-(-v >> guard) if v < 0 else v >> guard for v in (*first, *step))


def _line_product_fixed(d: int, points, bits: int) -> list[int]:
    """J_d at rational points (x, Y) through the scaled line product, each
    value as a Python int near floor(J * 2^bits).

    The lines meet (x, Y/sqrt(3)), and their angles phi step by pi/d, so
    every line comes from one root of unity: e^{i phi} at the first angle,
    times e^{i pi/d} per line, in fixed point with 64 guard bits; both roots
    come from one integer Newton solve (_unit_roots).  Then t = tan(phi) is
    s/c and the offset sin(3 phi)/cos(phi) is t (3 - t^2)/(1 + t^2).  The
    scale 2cos((3d + 4) pi/6) is -1, -sqrt(3), 1 or sqrt(3) by d mod 4.  At
    x = p/q and Y = r/u each factor is taken times q u, as
    -t p u + r q/sqrt(3) + offset q u, so the product over the lines is exact
    in the rounded constants and is divided once, at the end.  The error is
    a few units while |J| < 2^50 and a relative 2^-(bits + 50) or so past
    that (7 units at d=24, where |J| reaches 2^55 on |x|, |Y| <= 4).
    """
    w = bits + 64
    one = 1 << w
    c, s, step_c, step_s = _unit_roots(d, w)
    slopes, offsets = [], []
    for _ in range(d):
        t = (s << w) // c
        t2 = (t * t) >> w
        slopes.append(t)
        offsets.append(t * (3 * one - t2) // (one + t2))
        c, s = (c * step_c - s * step_s) >> w, (c * step_s + s * step_c) >> w
    root3, inv_root3 = math.isqrt(3 << 2 * w), math.isqrt((1 << 2 * w) // 3)
    scale = (-one, -root3, one, root3)[d % 4]
    values = []
    for px, py in points:
        p, q = px.numerator, px.denominator
        r, u = py.numerator, py.denominator
        lead, qu = r * q * inv_root3, q * u
        acc = scale
        for t, off in zip(slopes, offsets):
            acc *= lead + off * qu - t * p * u
        values.append(acc // (qu**d << ((d + 1) * w - bits)))
    return values


def verify_Jd_dual_path(d: int) -> float:
    """Max disagreement between the rational polynomial and the line product.

    Evaluates J_d at the DUAL_PATH_POINTS rational points both
    exactly, by integer Horner over one common denominator
    (BiPoly.rational_values), and through the scaled line product in
    fixed point with DUAL_PATH_PRECISION fractional bits; each exact value
    num/den is read as the integer (num << DUAL_PATH_PRECISION) // den, and
    the largest absolute difference returns as a float.
    """
    exact_values = build_Jd(d).rational_values(DUAL_PATH_POINTS)
    via_lines = _line_product_fixed(d, DUAL_PATH_POINTS, DUAL_PATH_PRECISION)
    diffs = (
        abs((exact.numerator << DUAL_PATH_PRECISION) // exact.denominator - v)
        for exact, v in zip(exact_values, via_lines)
    )
    return max(diffs) / (1 << DUAL_PATH_PRECISION)


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

    The lines are l_i = n_i . x + c_i, and the starts lie in the
    arrangement's bounded chambers.  Damped Newton ascent, run on all
    chambers at once as stacked arrays; each chamber stops on its own.  The
    objective is strictly concave on a chamber, so the ascent converges.
    With r_i = (n_i . step) / l_i, the scaled step t * step keeps every sign
    while all 1 + t*r_i > 0 and raises the objective by sum(log1p(t*r_i));
    both read accurately however small the step, and each chamber halves
    its own t until both hold.  Once the Newton decrement is below 1e-20 the
    full step stays in the chamber (its Hessian norm is under 1) and lands
    at rounding level.  A chamber that has not converged in 50 steps keeps
    its last iterate, which the census's gradient test then rejects.
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


def census_matches_jstats(census: Census2D, stats: JStats) -> bool:
    return (
        census.complete
        and census.counts.get(0.0, 0) == stats.n0
        and census.counts.get(8.0, 0) == stats.n8
        and census.counts.get(-1.0, 0) == stats.nm1
    )
