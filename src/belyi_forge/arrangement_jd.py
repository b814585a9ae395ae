"""Line-arrangement polynomials with critical values {0, 8, -1}.

A degree-d member J_d is a scaled product of d lines whose angles phi march
in steps of pi/d; all (d-1)^2 critical points are real with values in
{0, 8, -1} and known closed-form counts.  In the coordinates (x, Y) used
throughout, the lines x sin(phi) - (Y/sqrt(3)) cos(phi) = sin(3 phi) are
tangent to the deltoid, and the scaled product is Chmutov's folding
polynomial

    2 - Re P_d(z) + sqrt(3) Im P_d(z),    z = x - iY/sqrt(3),

where P_n is the A2 power sum: P_0 = 3, P_1 = z, P_2 = z^2 - 2 zbar and
P_n = z P_{n-1} - zbar P_{n-2} + P_{n-3} (Hoffman and Withers 1988).  The
recurrence has integer coefficients, so run on the numbers of a rational
point (x, Y) it gives J_d there exactly in Python ints (jd_exact_values).

The lines have one construction (_jd_lines): their slopes, offsets and the
scale as Python ints in fixed point, all from one root of unity that an
integer Newton solve of z^(12d) = 1 gives.  The dual-path check multiplies
those ints exactly at 12 written-out rational points and compares the
product with the exact J_d there, so it imports neither mpmath nor numpy.
The 2D census reads the lines rounded to float; from d=90 the check builds
them wider, and both builds round to the same floats up to d=200.

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
a vertex.  Nothing expands J_d's coefficients.  numpy is bound lazily
(lazy_numpy): the closed-form counts of jstats and the dual-path check need
none of it, so only the census executes it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

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
# about 70 ms and peaks at 5.0 MiB of traced memory, and jd-verify's exact
# values at the 12 dual-path points take about 6 ms (CPython 3.11, numpy 2.4,
# one core of a 2-core x86-64 machine).  The bound table stops at the same
# degree.
CENSUS_DEGREE_GUARD = 200
# Every lattice point must move less than this in one Newton step
# |H^-1 grad J|: the step is at most 3.4e-14 for d <= 200, where the least
# gap between two points is 2.8e-5.
NEWTON_STEP_TOL = 1e-9
VALUE_TARGETS = (0.0, 8.0, -1.0)
# The folding lattices of J_d's critical points: each one's index into
# VALUE_TARGETS, and the residue mod 6 that its X1 and X2 share.
_LATTICES = ((1, 2), (2, 4), (2, 0), (0, 5))


def _mu_range(d: int) -> range:
    return range(-((d - 2) // 2), (d + 1) // 2 + 1)


def jd_exact_values(d: int, points) -> list[Fraction]:
    """J_d at rational points (x, Y), exactly, one Fraction per point.

    The A2 recurrence runs on each point's numbers.  With x = p/q, Y = r/u,
    s = sqrt(-3) and lam = 3qu, lam z = 3pu - rq s and lam zbar = 3pu + rq s;
    numbers a + b s are pairs of Python ints.  Q_n = lam^n P_n is then
    integral: Q_0 = 3, Q_1 = lam z, Q_2 = (lam z)^2 - 2 lam (lam zbar) and
    Q_n = (lam z) Q_{n-1} - lam (lam zbar) Q_{n-2} + lam^3 Q_{n-3}.  With
    Q_d = a + b s, Re P_d = a/lam^d and sqrt(3) Im P_d = 3b/lam^d, so
    J_d = (2 lam^d + 3b - a)/lam^d; the only gcd is the one the Fraction
    takes.  The recurrence keeps a and b of its last three terms as plain
    ints, with each product in Z[s] written out.  The degree is read by
    operator.index, so a float raises TypeError.
    """
    d = operator.index(d)
    if d < 2:
        raise ValueError("need degree >= 2")
    values = []
    for x, y in points:
        p, q = x.numerator, x.denominator
        r, u = y.numerator, y.denominator
        lam = 3 * q * u
        lam3, lam_d = lam**3, lam**d
        # lam z = zr + zi s and lam (lam zbar) = wr + wi s; Q_n = a_n + b_n s.
        zr, zi = 3 * p * u, -r * q
        wr, wi = zr * lam, r * q * lam
        zi3, wi3 = 3 * zi, 3 * wi
        a0, b0, a1, b1 = 3, 0, zr, zi
        a2, b2 = zr * zr - zi3 * zi - 2 * wr, 2 * zr * zi - 2 * wi
        for _ in range(d - 2):
            a0, b0, a1, b1, a2, b2 = (
                a1, b1, a2, b2,
                zr * a2 - zi3 * b2 - wr * a1 + wi3 * b1 + lam3 * a0,
                zr * b2 + zi * a2 - wr * b1 - wi * a1 + lam3 * b0,
            )
        values.append(Fraction(2 * lam_d + 3 * b2 - a2, lam_d))
    return values


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


@lru_cache(maxsize=8)
def _jd_lines(d: int, w: int) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """J_d's d lines and scale in fixed point, each an int near 2^w times its
    value: the slopes t, the offsets, 1/sqrt(3) and the scale.

    Line k is -t x + Y/sqrt(3) + offset at the angle phi = (6 mu - 1) pi/(6d),
    mu the k-th of _mu_range.  The angles step by pi/d, so every line comes
    from one root of unity: e^{i phi} at the first angle, times e^{i pi/d}
    per line, both from one integer Newton solve (_unit_roots).  Then
    t = tan(phi) is s/c and the offset sin(3 phi)/cos(phi) is
    t (3 - t^2)/(1 + t^2); no line is vertical, as 3 does not divide
    6 mu - 1.  The scale 2cos((3d + 4) pi/6) is -1, -sqrt(3), 1 or sqrt(3) by
    d mod 4.  It is cached: at d < 90 the census and the dual-path check
    read one build.
    """
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
    return tuple(slopes), tuple(offsets), inv_root3, scale


def _pairwise_product(factors: list[int], start: int = 1) -> int:
    """start times the product of the ints, halves first: each multiplication
    pairs two operands of about equal width, where a running product grows one
    operand by every factor in turn (O(d^2) in the width).  Up to 16 factors,
    math.prod.
    """
    if len(factors) <= 16:
        return math.prod(factors, start=start)
    half = len(factors) // 2
    return start * _pairwise_product(factors[:half]) * _pairwise_product(factors[half:])


def _line_product_fixed(d: int, points, bits: int) -> list[int]:
    """J_d at rational points (x, Y) through the scaled product of its lines
    (_jd_lines, with 64 guard bits), each value as a Python int near
    floor(J * 2^bits).

    At x = p/q and Y = r/u each factor is taken times q u, as
    -t p u + r q/sqrt(3) + offset q u, so the product over the lines, taken
    pairwise (_pairwise_product), is exact in the rounded constants and is
    divided once, at the end.  The error is a few units while |J| < 2^50 and
    a relative 2^-(bits + 50) or so past that (7 units at d=24, where |J|
    reaches 2^55 on |x|, |Y| <= 4).
    """
    w = bits + 64
    slopes, offsets, inv_root3, scale = _jd_lines(d, w)
    values = []
    for px, py in points:
        p, q = px.numerator, px.denominator
        r, u = py.numerator, py.denominator
        lead, qu, pu = r * q * inv_root3, q * u, p * u
        factors = [lead + off * qu - t * pu for t, off in zip(slopes, offsets)]
        values.append(_pairwise_product(factors, scale) // (qu**d << ((d + 1) * w - bits)))
    return values


def verify_Jd_dual_path(d: int) -> float:
    """Max disagreement between the exact J_d and the product of its lines.

    Evaluates J_d at the DUAL_PATH_POINTS both exactly, by the A2 recurrence
    on each point's numbers (jd_exact_values), and as the scaled product of
    the lines the census reads (_line_product_fixed); each exact value
    num/den is read as the integer (num << bits) // den, and the largest
    absolute difference returns as a float.  The product's error is about
    |J| 2^-(bits + 50), so bits is DUAL_PATH_PRECISION, or 64 more than the
    bit length of the largest |J| if that is more: the difference stays near
    2^-114 at every degree.
    """
    d = operator.index(d)
    exact_values = jd_exact_values(d, DUAL_PATH_POINTS)
    top = max((abs(v.numerator) // v.denominator).bit_length() for v in exact_values)
    bits = max(DUAL_PATH_PRECISION, top + 64)
    via_lines = _line_product_fixed(d, DUAL_PATH_POINTS, bits)
    diffs = (
        abs((exact.numerator << bits) // exact.denominator - v)
        for exact, v in zip(exact_values, via_lines)
    )
    return max(diffs) / (1 << bits)


class JStats(NamedTuple):
    d: int
    n0: int
    n8: int
    nm1: int

    @property
    def total(self) -> int:
        return self.n0 + self.n8 + self.nm1

    def as_dict(self) -> dict:
        return self._asdict()


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is indivisible by {den}")
    return q


def jstats(d: int) -> JStats:
    """Closed-form critical-point counts at values 0, 8, -1.

    They are cached per degree (_jstats), keyed on operator.index(d): a
    numpy integer reads the same plain-int counts as the int, and a float
    raises TypeError whatever is cached.
    """
    return _jstats(operator.index(d))


# 256 entries hold the 198 degrees that bound_table(200) reads.
@lru_cache(maxsize=256)
def _jstats(d: int) -> JStats:
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


class Census2D:
    """The census's counts per value target, as a read-only mapping, and its
    points as read-only arrays: positions and gradients as (x, Y) rows,
    values, Newton step lengths and lattice classes (indices into
    VALUE_TARGETS).  Arrays have no single truth value, so censuses compare
    by identity.

    failures names the tests the points failed, in the order value,
    newton_step, nondegenerate, count; the census is complete when there
    are none.
    """

    __slots__ = (
        "counts", "positions", "values", "gradients", "steps", "classes",
        "expected_total", "stray_values", "failures",
    )

    def __init__(
        self,
        counts: Mapping,
        positions: np.ndarray,
        values: np.ndarray,
        gradients: np.ndarray,
        steps: np.ndarray,
        classes: np.ndarray,
        expected_total: int,
        stray_values: tuple[float, ...],
        failures: tuple[str, ...],
    ) -> None:
        self.counts = MappingProxyType(dict(counts))
        self.positions, self.values = positions, values
        self.gradients, self.steps, self.classes = gradients, steps, classes
        self.expected_total, self.stray_values = expected_total, stray_values
        self.failures = failures

    def _replace(self, **changes) -> Census2D:
        """A copy with the named fields changed, as a NamedTuple's _replace."""
        return Census2D(**{**{name: getattr(self, name) for name in self.__slots__}, **changes})

    def __reduce__(self) -> tuple:
        # A mapping proxy does not pickle: copy and pickle rebuild the census
        # from its fields, the counts as a dict.
        return Census2D, (dict(self.counts), *(getattr(self, n) for n in self.__slots__[1:]))

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
    gaps = values[:, None] - np.array(VALUE_TARGETS)
    near = np.abs(gaps, out=gaps) <= VALUE_TOL
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
    X1 > X2 at a vertex.  The four lattices are one (4, d, d) grid: at
    [k, i, j], X1 = r + 6i and X2 = r + 6j for lattice k's residue r, so X2
    is X1 transposed.  Every X_j is an integer below 6d, so each angle's
    cosine and sine are read from one table over arange(6d).  The census's
    coordinates are x = Re z and Y = -sqrt(3) Im z.
    """
    n = 6 * d
    classes, residues = np.array(_LATTICES).T[..., None, None]
    x1 = (residues + np.arange(0, n, 6)[:, None]).repeat(d, axis=2)
    x2 = x1.transpose(0, 2, 1)
    x3 = -x1 - x2
    x3 %= n
    keep = (x1 > x2) & ((x2 > x3) | (classes == 0))
    lattice = np.stack([x1[keep], x2[keep], x3[keep]], axis=1)
    theta = np.arange(n) * (math.pi / (3 * d))
    x = np.cos(theta)[lattice].sum(axis=1)
    y = -math.sqrt(3) * np.sin(theta)[lattice].sum(axis=1)
    return np.broadcast_to(classes, keep.shape)[keep], x, y


def _census_lines(d: int) -> tuple[np.ndarray, np.ndarray, float]:
    """_jd_lines in float, int / 2^w rounding each correctly: normals (a, b)
    as rows, offsets c and the scale.  At d < 90 the check multiplies the
    very ints rounded here; from d=90 it multiplies a wider build, which
    rounds to these same floats up to d=200."""
    w = DUAL_PATH_PRECISION + 64
    slopes, offsets, inv_root3, scale = _jd_lines(d, w)
    one = 1 << w
    normals = np.array([(-t / one, inv_root3 / one) for t in slopes])
    return normals, np.array([c / one for c in offsets]), scale / one


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
    vanish.  Its six arrays, the size of the points, are updated in place
    through two scratch arrays (l and one product), H before g before v,
    each sum left to right: hxy becomes (hxy l + a gy) + b gx.
    """
    value = np.ones_like(x)
    gx, gy, hxx, hxy, hyy = (np.zeros_like(x) for _ in range(5))
    l, t = np.empty_like(x), np.empty_like(x)
    for (a, b), c in zip(normals.tolist(), offsets.tolist()):
        np.multiply(a, x, out=l)
        l += np.multiply(b, y, out=t)
        l += c
        hxx *= l
        hxx += np.multiply(2 * a, gx, out=t)
        hxy *= l
        hxy += np.multiply(a, gy, out=t)
        hxy += np.multiply(b, gx, out=t)
        hyy *= l
        hyy += np.multiply(2 * b, gy, out=t)
        gx *= l
        gx += np.multiply(a, value, out=t)
        gy *= l
        gy += np.multiply(b, value, out=t)
        value *= l
    jet = value, gx, gy, hxx, hxy, hyy
    for q in jet:
        q *= scale
    return jet


@lru_cache(maxsize=8, typed=True)
def jd_census(d: int) -> Census2D:
    """Real critical points of J_d, read from the folding lattice and checked
    on the scaled product of its lines.

    The points come from theory (_lattice_points); the census ties them to
    the polynomial.  J_d, its gradient and its Hessian at every point come
    from one product-rule jet (_product_jet) over the lines the dual-path
    check multiplies (_census_lines), never from dense coefficients.  Four
    tests must hold: each value lies within VALUE_TOL of its own class's
    target (value_classes), each Newton step |H^-1 grad J| is below
    NEWTON_STEP_TOL, far under the least gap between points, each Hessian is
    nondegenerate, and there are (d-1)^2 points.  The two gradient equations
    have degree d-1, so by Bezout (d-1)^2 distinct nondegenerate critical
    points leave no other in C^2: the census is then complete.  Each test
    that fails is named in failures.  The degree is read by operator.index:
    a float raises TypeError and a degree below 2 ValueError, before any
    work.

    It depends on d alone, so it is cached: jd-verify, the nodal surface
    and the paired surfaces of one degree share one census.  The cache is
    typed, so a float never reads an int's census; a numpy integer's census
    is built apart from the int's, with the same bytes.  The census is
    read-only: its counts are a mapping proxy and its arrays are not
    writeable.
    """
    d = operator.index(d)
    if d < 2:
        raise ValueError("need at least two lines")
    if d > CENSUS_DEGREE_GUARD:
        raise DegreeGuardError(f"degree {d} exceeds census guard {CENSUS_DEGREE_GUARD}")
    classes, x, y = _lattice_points(d)
    val, fx, fy, hxx, hxy, hyy = _product_jet(*_census_lines(d), x, y)
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
        dict(zip(VALUE_TARGETS, counts.tolist())),
        *arrays,
        expected_total=(d - 1) ** 2,
        stray_values=tuple(val[~on_target].tolist()),
        failures=tuple(name for name, ok in passed.items() if not ok),
    )


def census_matches_jstats(census: Census2D, stats: JStats) -> bool:
    return (
        census.complete
        and census.counts.get(0.0, 0) == stats.n0
        and census.counts.get(8.0, 0) == stats.n8
        and census.counts.get(-1.0, 0) == stats.nm1
    )
