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

The 2D census reads J_d's critical points from theory.  On the torus,
z = sum e^{i theta_j} with theta_1 + theta_2 + theta_3 = 0, J_d is
2 + 2 sum cos(d theta_j - 2 pi/3), and its critical points are four integer
lattices in theta_j = 2 pi X_j/(6d), one or two per critical value (Hoffman
and Withers 1988; Chmutov 1992).  The census lists their (d-1)^2 points and
checks each on the scaled line product: its value must lie on its lattice
class's target, one Newton step must not move it, and its Hessian must be
nondegenerate.  The gradient equations have degree d-1, so by Bezout those
(d-1)^2 points are every critical point, and the census is complete once all
pass.  It reads J_d, its gradient and its Hessian as one jet, carried
through the product of the lines by the product rule one line at a time and
scaled last; the factors keep a small relative error where the dense
coefficients would not, and the jet divides by nothing, so it stays exact at
a vertex.  The exact J_d, integers over 3^(d//2), serves the dual-path
check, which evaluates it by integer Horner, and the exact axis
restriction.  numpy is bound lazily (lazy_numpy): the closed-form counts of
jstats need none of it, so only building J_d and the census execute it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .belyi_numeric import VALUE_TOL, DegreeGuardError, lazy_numpy

np = lazy_numpy()

# Fractional bits of the dual-path check's fixed-point line product, at which
# the exact values are also read, unless the largest |J| at the check's
# points needs more (from d=90; verify_Jd_dual_path).  Its 12 rational points
# k/1000 with |k| <= 4000 are written out: the first 24 draws of numpy's
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
# The census lists (d-1)^2 points and carries the jet through d line factors
# at each, so its time grows as d^3 and its memory as d^2: at d=200 it takes
# about 80 ms and peaks at 5.2 MiB of traced memory, and jd-verify's exact J_d
# there takes 0.8 s.  The bound table stops at the same degree.
CENSUS_DEGREE_GUARD = 200
# Every lattice point must move less than this in one Newton step
# |H^-1 grad J|: the step is at most 3.4e-14 for d <= 200, where the least
# gap between two points is 2.8e-5.
NEWTON_STEP_TOL = 1e-9
VALUE_TARGETS = (0.0, 8.0, -1.0)
# The folding lattices of J_d's critical points: each one's index into
# VALUE_TARGETS, and the residue mod 6 that its X1 and X2 share.
_LATTICES = ((1, 2), (2, 4), (2, 0), (0, 5))


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
    fixed point; each exact value num/den is read as the integer
    (num << bits) // den, and the largest absolute difference returns as a
    float.  The line product's error is about |J| 2^-(bits + 50), so bits is
    DUAL_PATH_PRECISION, or 64 more than the bit length of the largest |J|
    if that is more: the difference stays near 2^-114 at every degree.
    """
    exact_values = build_Jd(d).rational_values(DUAL_PATH_POINTS)
    top = max((abs(v.numerator) // v.denominator).bit_length() for v in exact_values)
    bits = max(DUAL_PATH_PRECISION, top + 64)
    via_lines = _line_product_fixed(d, DUAL_PATH_POINTS, bits)
    diffs = (
        abs((exact.numerator << bits) // exact.denominator - v)
        for exact, v in zip(exact_values, via_lines)
    )
    return max(diffs) / (1 << bits)


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


@dataclass(frozen=True, eq=False)
class Census2D:
    """The census's counts per value target, and its points as read-only
    arrays: positions and gradients as (x, Y) rows, values, Newton step
    lengths and lattice classes (indices into VALUE_TARGETS).

    failures names the tests the points failed, in the order value,
    newton_step, nondegenerate, count; the census is complete when there
    are none.
    """

    counts: Mapping
    positions: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    steps: np.ndarray
    classes: np.ndarray
    expected_total: int
    stray_values: tuple[float, ...]
    failures: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def all_nondegenerate(self) -> bool:
        return "nondegenerate" not in self.failures

    @property
    def total(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict:
        out = {
            "counts": {str(k): v for k, v in self.counts.items()},
            "total": self.total,
            "expected_total": self.expected_total,
            "complete": self.complete,
            "all_nondegenerate": self.all_nondegenerate,
            "stray_values": list(self.stray_values),
        }
        if self.failures:
            out["failed_tests"] = list(self.failures)
        return out


def value_classes(values: np.ndarray) -> np.ndarray:
    """For each value, the index of the target in VALUE_TARGETS it lies within
    VALUE_TOL of, or -1 for none; the targets are too far apart for two."""
    near = np.abs(values[:, None] - np.array(VALUE_TARGETS)) <= VALUE_TOL
    return np.where(near.any(axis=1), near.argmax(axis=1), -1)


def _lattice_points(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_d's (d-1)^2 critical points from the A2 folding lattice: their
    classes (indices into VALUE_TARGETS) and their coordinates x and Y.

    On the torus theta_1 + theta_2 + theta_3 = 0, J_d is
    2 + 2 sum cos(d theta_j - 2 pi/3), critical exactly where the three
    sines sin(d theta_j - 2 pi/3) are equal.  With theta_j = 2 pi X_j/(6d)
    and X1 + X2 + X3 = 0 (mod 6d) that is four integer lattices (_LATTICES):
    every X_j = 2 (mod 6) gives 8, every X_j = 4 or every X_j = 0 gives -1,
    and X1 = X2 = 5 with X3 = 2 (mod 6) gives 0, the arrangement's
    vertices.  The folding z = sum e^{i theta_j} is a local diffeomorphism
    only where the X_j are distinct, and it identifies the permutations of
    (X1, X2, X3), so each orbit keeps the one point with X1 > X2 > X3, or
    X1 > X2 at a vertex.  One residue class is d^2 pairs (X1, X2) from
    arange(r, 6d, 6).  The census's coordinates are x = Re z and
    Y = -sqrt(3) Im z.
    """
    n = 6 * d
    classes, lattice = [], []
    for c, r in _LATTICES:
        x1, x2 = np.meshgrid(np.arange(r, n, 6), np.arange(r, n, 6), indexing="ij")
        x3 = (-x1 - x2) % n
        keep = (x1 > x2) & ((x2 > x3) | (c == 0))
        lattice.append(np.stack([x1[keep], x2[keep], x3[keep]], axis=1))
        classes.append(np.full(len(lattice[-1]), c))
    theta = np.concatenate(lattice) * (math.pi / (3 * d))
    x = np.cos(theta).sum(axis=1)
    y = -math.sqrt(3) * np.sin(theta).sum(axis=1)
    return np.concatenate(classes), x, y


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


@lru_cache(maxsize=8)
def jd_census(d: int) -> Census2D:
    """Real critical points of J_d, read from the folding lattice and checked
    on the scaled product of its lines.

    The points come from theory (_lattice_points); the census ties them to
    the polynomial.  J_d, its gradient and its Hessian at every point come
    from one product-rule jet over the line factors (_product_jet), never
    from dense coefficients.  Four tests must hold: each value lies within
    VALUE_TOL of its own class's target (value_classes), each Newton step
    |H^-1 grad J| is below NEWTON_STEP_TOL, far under the least gap between
    points, each Hessian is nondegenerate, and there are (d-1)^2 points.  The
    two gradient equations have degree d-1, so by Bezout (d-1)^2 distinct
    nondegenerate critical points leave no other in C^2: the census is then
    complete.  Each test that fails is named in failures.

    It depends on d alone, so it is cached: jd-verify, the nodal surface
    and the paired surfaces of one degree share one census.  The census is
    read-only: its counts are a mapping proxy and its arrays are not
    writeable.
    """
    if d > CENSUS_DEGREE_GUARD:
        raise DegreeGuardError(f"degree {d} exceeds census guard {CENSUS_DEGREE_GUARD}")
    classes, x, y = _lattice_points(d)
    val, fx, fy, hxx, hxy, hyy = _product_jet(*jd_lines(d), scale_constant(d), x, y)
    det = hxx * hyy - hxy * hxy
    nondeg = np.abs(det) > VALUE_TOL * (1.0 + hxx * hxx + hxy * hxy + hyy * hyy)
    # |H^-1 grad J| by Cramer's rule, infinite where H is degenerate.
    steps = np.divide(
        np.hypot(hyy * fx - hxy * fy, hxx * fy - hxy * fx), np.abs(det),
        out=np.full_like(det, np.inf), where=nondeg,
    )
    on_target = value_classes(val) == classes
    passed = {
        "value": on_target.all(),
        "newton_step": (steps < NEWTON_STEP_TOL).all(),
        "nondegenerate": nondeg.all(),
        "count": len(val) == (d - 1) ** 2,
    }
    arrays = np.stack([x, y], axis=1), val, np.stack([fx, fy], axis=1), steps, classes
    for a in arrays:
        a.flags.writeable = False
    counts = np.bincount(classes[on_target], minlength=len(VALUE_TARGETS))
    return Census2D(
        MappingProxyType(dict(zip(VALUE_TARGETS, counts.tolist()))),
        *arrays,
        expected_total=(d - 1) ** 2,
        stray_values=tuple(val[~on_target].tolist()),
        failures=tuple(name for name, ok in passed.items() if not ok),
    )


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
