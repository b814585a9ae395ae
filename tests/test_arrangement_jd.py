"""Line arrangements: exact coefficients, closed-form counts, 2D censuses.

The census reads J_d's critical points from the folding lattice.  The
arrangement's own candidates, every vertex and one maximum of sum(log|l_i|)
per bounded chamber found by damped Newton ascent, are the oracle it is
checked against at d <= 24, on lines built in float from math.tan, cos
and sin (tan_lines).  The census and the dual-path check read one fixed-point
construction of the lines, which mpmath checks.  J_d's exact values come
from the A2 recurrence run on each point's numbers; the expanded coefficient
grid (oracle_Jd) is their oracle.
"""

import hashlib
import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from belyi_forge import (
    DegreeGuardError,
    arrangement_jd,
    census_matches_jstats,
    jd_census,
    jd_exact_values,
    jstats,
    nodal_surface_count,
    singular_census_3d,
    verify_Jd_dual_path,
)
from belyi_forge.arrangement_jd import (
    CENSUS_DEGREE_GUARD,
    DUAL_PATH_POINTS,
    DUAL_PATH_PRECISION,
    VALUE_TARGETS,
    _census_lines,
    _line_product_fixed,
    _mu_range,
    _product_jet,
    _unit_roots,
    value_classes,
)
from belyi_forge.belyi_numeric import VALUE_TOL

# The degrees the oracles run at, the old census guard: past it, at d=35, a
# Cramer vertex fails the chamber oracle's gradient test, and the
# leave-two-out jet's n x n x K array grows as d^4 (689 MiB at d=98).
ORACLE_DEGREES = range(3, 25)
FROZEN_STATS = {3: (3, 0, 1), 4: (6, 1, 2), 5: (10, 2, 4), 6: (15, 3, 7)}


@pytest.mark.parametrize("d,expected", sorted(FROZEN_STATS.items()))
def test_frozen_count_triples(d, expected):
    s = jstats(d)
    assert (s.n0, s.n8, s.nm1) == expected


def test_counts_tile_the_critical_set():
    for d in range(3, 61):
        s = jstats(d)
        assert s.total == (d - 1) ** 2, d
        assert s.n0 == d * (d - 1) // 2


def test_counts_reject_tiny_degree():
    # An error is not cached: every call raises.
    for _ in range(2):
        with pytest.raises(ValueError):
            jstats(2)


def test_count_cache_is_keyed_on_the_index():
    # A numpy integer decides nothing about a later int lookup, and a float
    # raises the same error cold and with its degree cached.
    arrangement_jd._jstats.cache_clear()
    with pytest.raises(TypeError):
        jstats(9.0)
    assert jstats(np.int64(9)) == jstats(9) == (9, 36, 9, 19)
    assert all(type(v) is int for v in jstats(9))
    assert all(type(v) is int for v in jstats(np.int64(12)))
    with pytest.raises(TypeError):
        jstats(9.0)
    assert arrangement_jd._jstats.cache_info().currsize == 2


def test_count_cache_is_bounded():
    # It still holds the bound table's 198 degrees (test_surface_counts).
    assert arrangement_jd._jstats.cache_info().maxsize is not None


def tan_lines(d):
    """The d lines as the package once built them, in float from math.tan,
    cos and sin, in the unscaled coordinate y = Y/sqrt(3): normals (a, 1) as
    rows and offsets c of the lines a x + y + c = 0."""
    normals, offsets = [], []
    for mu in _mu_range(d):
        phi = (6 * mu - 1) * math.pi / (6 * d)
        t = math.tan(phi)
        normals.append((-t, 1.0))
        offsets.append(math.cos(2 * phi) * t + math.sin(2 * phi))
    return np.array(normals), np.array(offsets)


def chamber_lines(d):
    """tan_lines in the census's coordinates (x, Y): each b = 1 becomes
    1/sqrt(3).  The chamber oracle reads these."""
    normals, offsets = tan_lines(d)
    normals[:, 1] /= math.sqrt(3)
    return normals, offsets


def test_line_count_is_degree():
    for d in range(2, 61):
        normals, offsets, _ = _census_lines(d)
        assert normals.shape == (d, 2) and offsets.shape == (d,)
        # No line is vertical: every one is -t x + Y/sqrt(3) + c.
        assert np.all(normals[:, 1] == 3**-0.5)


def test_lines_have_distinct_angles():
    for d in (3, 4, 7, 12):
        normals, _, _ = _census_lines(d)
        angles = np.arctan2(-normals[:, 0], math.sqrt(3) * normals[:, 1]) % math.pi
        assert len({round(a, 9) for a in angles.tolist()}) == d


def test_scale_constant_nonzero_at_tau_zero():
    for d in range(2, 20):
        assert abs(_census_lines(d)[2]) > 1e-9


def within_one_ulp(got, want):
    return all(abs(mp.mpf(g) - w) <= math.ulp(g) for g, w in zip(got, want))


@pytest.mark.parametrize("d", [3, 24, 99, 192, 200])
def test_census_lines_are_the_exact_lines_to_one_ulp(d):
    # The float slopes, offsets, Y part and scale against the lines at 60
    # digits: t = tan(phi), offset sin(3 phi)/cos(phi) and the scale
    # 2cos(d pi/2 + 2 pi/3).  The lines of tan_lines miss by up to 3.0e-11
    # (d=192, where an offset nears 367), and that scale taken in float by
    # 4.8e-14 (d=176).
    normals, offsets, scale = _census_lines(d)
    with mp.workdps(60):
        phi = [(6 * mu - 1) * mp.pi / (6 * d) for mu in _mu_range(d)]
        assert within_one_ulp(normals[:, 0].tolist(), [-mp.tan(p) for p in phi])
        assert within_one_ulp(normals[:, 1].tolist(), [1 / mp.sqrt(3)] * d)
        assert within_one_ulp(offsets.tolist(), [mp.sin(3 * p) / mp.cos(p) for p in phi])
        assert within_one_ulp([scale], [2 * mp.cos(d * mp.pi / 2 + 2 * mp.pi / 3)])


def vertices_of(normals, offsets):
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


def bounded_chambers(normals, offsets, pairs, at):
    """The vertex centroid of each bounded chamber of the arrangement.

    A chamber is named by its sign vector (the side of each line it lies
    on).  Each vertex touches the four chambers that differ only in the
    signs of its two lines.  A chamber is unbounded exactly when it holds
    the far points of some direction, and the directions strictly inside
    the 2n gaps between the n line directions and their opposites name all
    the unbounded chambers.  The vertices are given as vertices_of returns
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


def chamber_maxima(normals, offsets, starts):
    """Maximum of sum(log|l_i|) over the open chamber holding each start.

    Damped Newton ascent, run on all chambers at once as stacked arrays;
    each chamber stops on its own.  The objective is strictly concave on a
    chamber, so the ascent converges.  With r_i = (n_i . step) / l_i, the
    scaled step t * step keeps every sign while all 1 + t*r_i > 0 and raises
    the objective by sum(log1p(t*r_i)); each chamber halves its own t until
    both hold.  Once the Newton decrement is below 1e-20 the full step lands
    at rounding level.  A chamber that has not converged in 50 steps keeps
    its last iterate.
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


def oracle_census(normals, offsets, scale):
    """Real critical points of scale * prod(l_i), as the package found them
    before the folding lattice.

    For d lines in general position the critical points are the d(d-1)/2
    vertices and one maximum of sum(log|l_i|) in each bounded chamber
    (Varchenko), of which there are (d-1)(d-2)/2 (Zaslavsky).  A candidate
    is kept when |grad J| < 1e-8 (1 + |J|), and classed by value_classes.
    The census is complete when every candidate passes, lies on a target and
    is nondegenerate, and the bounded chambers number (d-1)(d-2)/2.
    """
    d = len(offsets)
    pairs, vertices = vertices_of(normals, offsets)
    centroids = bounded_chambers(normals, offsets, pairs, vertices)
    x, y = np.concatenate([vertices, chamber_maxima(normals, offsets, centroids)]).T
    val, fx, fy, hxx, hxy, hyy = _product_jet(normals, offsets, scale, x, y)
    ok = np.hypot(fx, fy) < 1e-8 * (1.0 + np.abs(val))
    det = hxx * hyy - hxy * hxy
    nondeg = np.abs(det) > VALUE_TOL * (1.0 + hxx * hxx + hxy * hxy + hyy * hyy)
    classes = value_classes(val)[ok]
    counts = np.bincount(classes[classes >= 0], minlength=len(VALUE_TARGETS))
    return SimpleNamespace(
        counts=dict(zip(VALUE_TARGETS, counts.tolist())),
        positions=np.stack([x, y], axis=1)[ok],
        classes=classes,
        total=len(classes),
        all_nondegenerate=bool(nondeg[ok].all()),
        complete=bool(ok.all() and (classes >= 0).all() and nondeg.all())
        and len(centroids) == (d - 1) * (d - 2) // 2,
    )


def test_intersections_bounded_by_pair_count():
    for d in (3, 4, 5, 6):
        pairs, _ = vertices_of(*tan_lines(d))
        assert 1 <= len(pairs) <= d * (d - 1) // 2


def vertices_by_loop(normals, offsets):
    """(i, j, x, y) for each crossing, as the census found them before the
    vertices were arrays: Cramer's rule in a double loop over the lines."""
    lines = [(a, b, c) for (a, b), c in zip(normals.tolist(), offsets.tolist())]
    out = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (a1, b1, c1), (a2, b2, c2) = lines[i], lines[j]
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            x = (-c1 * b2 + c2 * b1) / det
            y = (-a1 * c2 + a2 * c1) / det
            out.append((i, j, x, y))
    return out


def assert_vertices_equal_the_loop(normals, offsets):
    pairs, at = vertices_of(normals, offsets)
    oracle = vertices_by_loop(normals, offsets)
    assert pairs.tolist() == [[i, j] for i, j, _, _ in oracle]
    # Bit for bit: equal int64 views also tell -0.0 from 0.0.
    want = np.array([(x, y) for _, _, x, y in oracle])
    assert np.array_equal(at.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", ORACLE_DEGREES)
def test_vertices_equal_the_double_loop(d):
    assert_vertices_equal_the_loop(*chamber_lines(d))


def test_vertices_skip_a_parallel_pair():
    normals, offsets = chamber_lines(5)
    # Line 1 shifted, inserted as line 3.
    normals = np.insert(normals, 3, normals[1], axis=0)
    offsets = np.insert(offsets, 3, offsets[1] + 1.0)
    assert_vertices_equal_the_loop(normals, offsets)
    pairs, _ = vertices_of(normals, offsets)
    assert len(pairs) == 6 * 5 // 2 - 1
    assert [1, 3] not in pairs.tolist()


def _falling(n, k):
    return math.prod(range(n - k + 1, n + 1)) if k <= n else 0


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
        sum of c_ij p^i q^(d-i) r^j s^(d-j) over the grid entries c_ij,
        taken by homogeneous Horner in Python ints.
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


def a2_power_sum(d):
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
def oracle_Jd(d):
    """The coefficient grid of J_d in x and Y = sqrt(3) y, as integers over
    the one denominator 3^(d//2): the expansion the package once built.

    A coefficient c of x^k y^m in P_d sits at x^k Y^m divided by
    sqrt(3)^m, so the coefficient of x^k Y^m is -Re c / 3^(m/2) for even m
    and Im c / 3^((m-1)/2) for odd m, plus the constant 2; the other part
    of c vanishes, and is asserted to.
    """
    re, im = a2_power_sum(d)
    den = 3 ** (d // 2)
    even = np.arange(d + 1) % 2 == 0
    assert not np.any(im[:, even]) and not np.any(re[:, ~even]), d
    scale = np.array([den // 3 ** (m // 2) for m in range(d + 1)], dtype=object)
    grid = np.where(even, -re, im) * scale
    grid[0, 0] += 2 * den
    return BiPoly(tuple(map(tuple, grid.tolist())), den)


def exact_jet(poly, x, y):
    """(value, gx, gy, hxx, hxy, hyy) of a BiPoly at Fractions x, y."""
    return tuple(
        sum(
            Fraction(c, poly.den)
            * _falling(i, di) * x ** max(i - di, 0) * _falling(j, dj) * y ** max(j - dj, 0)
            for i, row in enumerate(poly.grid)
            for j, c in enumerate(row)
        )
        for di, dj in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    )


def jet_errors(normals, offsets, scale, poly, points):
    """Worst error of the product form's value, gradient and Hessian of the
    lines against the exact polynomial, each relative to 1 + its exact
    size."""
    x = np.array([float(px) for px, _ in points])
    y = np.array([float(py) for _, py in points])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = np.array(_product_jet(normals, offsets, scale, x, y))
    assert np.isfinite(jet).all()
    worst = [0.0, 0.0, 0.0]
    for k, (px, py) in enumerate(zip(x, y)):
        exact = np.array([float(v) for v in exact_jet(poly, Fraction(px), Fraction(py))])
        for group, rows in enumerate((slice(0, 1), slice(1, 3), slice(3, 6))):
            err = np.abs(jet[rows, k] - exact[rows]).max()
            worst[group] = max(worst[group], err / (1.0 + np.abs(exact[rows]).max()))
    return worst


RATIONAL_POINTS = [
    (Fraction(n1, 7), Fraction(n2, 5))
    for n1, n2 in [(0, 0), (3, -2), (-5, 4), (8, 1), (-9, -6), (1, 7),
                   (12, -3), (-2, 9), (6, 6), (-11, 2), (4, -8), (10, 5)]
]


def test_product_jet_matches_exact_partials():
    for d in (3, 6, 9, 12):
        errors = jet_errors(*_census_lines(d), oracle_Jd(d), RATIONAL_POINTS)
        assert max(errors) < 1e-12, (d, errors)


def test_product_jet_at_vertices_is_exact_and_division_free():
    # Two factors vanish at each vertex of the arrangement.
    lines = _census_lines(5)
    vertices = vertices_of(*lines[:2])[1].tolist()
    assert max(jet_errors(*lines, oracle_Jd(5), vertices)) < 1e-12
    # x * y * (x + y - 1) at the origin: two factors are exactly zero.
    normals = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    with np.errstate(all="raise"):
        jet = _product_jet(normals, np.array([0.0, 0.0, -1.0]), 1.0, np.zeros(1), np.zeros(1))
    assert [float(v[0]) for v in jet] == [0.0, 0.0, 0.0, 0.0, -1.0, 0.0]


def leave_one_out(factors):
    """Product of all rows of factors but the k-th, for each row k."""
    ones = np.ones_like(factors[:1])
    pre = np.cumprod(np.concatenate([ones, factors[:-1]]), axis=0)
    suf = np.cumprod(np.concatenate([ones, factors[:0:-1]]), axis=0)[::-1]
    return pre * suf


def product_jet_leave_two_out(normals, factors, scale):
    """The jet as the census read it before the product rule, from the line
    factors (one row per line): leave-one-out products for the gradient, and
    an n x n x K array of leave-two-out products for the Hessian."""
    n = len(factors)
    value = scale * factors.prod(axis=0)
    gx, gy = scale * (normals.T @ leave_one_out(factors))
    all_but_i = np.repeat(factors[None], n, axis=0)
    all_but_i[np.arange(n), np.arange(n)] = 1.0
    pairs = leave_one_out(all_but_i.swapaxes(0, 1))
    pairs[np.arange(n), np.arange(n)] = 0.0
    a, b = normals[:, 0], normals[:, 1]
    hxx = scale * np.einsum("i,j,ijk->k", a, a, pairs)
    hxy = scale * np.einsum("i,j,ijk->k", a, b, pairs)
    hyy = scale * np.einsum("i,j,ijk->k", b, b, pairs)
    return value, gx, gy, hxx, hxy, hyy


@pytest.mark.parametrize("d", ORACLE_DEGREES)
def test_product_rule_jet_equals_the_leave_two_out_jet(d):
    # At every census point the values are equal, and each derivative
    # agrees to 1e-12 relative to the sum of its terms' sizes: the old jet
    # taken over |n_i|, |l_i| and |scale|.  The gradient itself vanishes
    # there, so it is no scale.
    normals, offsets, scale = _census_lines(d)
    x, y = jd_census(d).positions.T
    factors = np.outer(normals[:, 0], x) + np.outer(normals[:, 1], y) + offsets[:, None]
    jet = _product_jet(normals, offsets, scale, x, y)
    oracle = product_jet_leave_two_out(normals, factors, scale)
    size = product_jet_leave_two_out(np.abs(normals), np.abs(factors), abs(scale))
    assert np.array_equal(jet[0], oracle[0])
    for got, want, terms in zip(jet[1:], oracle[1:], size[1:]):
        assert np.all(np.abs(got - want) <= 1e-12 * terms), d


def test_product_jet_of_unscaled_lines_is_not_jd():
    # The unscaled lines are the factors of J_d in the y/sqrt(3) coordinate,
    # not in the rational polynomial's own.
    errors = jet_errors(*tan_lines(5), _census_lines(5)[2], oracle_Jd(5), RATIONAL_POINTS)
    assert min(errors) > 1e-3


def test_rational_coefficients_small_denominators():
    # 3^(d//2) is the least common denominator: no factor of 3 divides every
    # entry of the integer grid.
    for d in range(3, 61):
        jd = oracle_Jd(d)
        assert jd.den == 3 ** (d // 2), d
        assert math.gcd(jd.den, *(c for row in jd.grid for c in row)) == 1, d
        assert jd.degree == d


def _grid_sha256(poly):
    rows = ([Fraction(c, poly.den) for c in row] for row in poly.grid)
    text = ";".join(",".join(f"{f.numerator}/{f.denominator}" for f in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the coefficient grid of oracle_Jd(d), each entry over the
# denominator written row by row as a reduced "p/q" Fraction, recorded when
# J_d was expanded in 256-bit mpmath and rationalized by continued fractions.
JD_GRID_SHA256 = {
    3: "153bb44bfafe66edba1bd409d3911ba4bd311ca83d78fd28fd0418ed7eebcfc2",
    4: "6558338ef02060374c2a981c32f2a50d13da567d50e213b5a95f1487c635add4",
    5: "4113cbe247e3df93591f8b803765d28d2540e49ea13a35c3f9bf6ca5286de25f",
    6: "83338a5cbf6a2adc1f383aa1d45799abfbad5ed6b071e9379672c55f4e02fedf",
    7: "35e1306aa98294ba4f903ec5f1eb0adc7d64a0e050158b544e55f0368a49bcb6",
    8: "fa0b679eb2d12dbce81588debad6e1a92dcc49c36838c49a782a6769e7a7b2fc",
    9: "bcab476a20f892d15ca72285de0be96804c08595ec05d23aeb9b60d7f133752c",
    10: "4d432e82757a89498d1473c1434211b9f48c0c4a4733285e3d454301f7303087",
    11: "675b6534e94a2cf7529271d0907217d1570034645043221d44e9e0b543d997ab",
    12: "e0cad596402d7ac2696c95e5f77f3bed160ce38e071d3ddc6e3af9726f63a383",
    13: "e55d58094ffa50dac4c15c8f896b98de25b970079fd972a6ae95b3a21f3863ab",
    14: "d665bf2233dfa27df5cb467bfe10757aa45d55f30523dc0c09239a9f574baff9",
    15: "bde431640e2a649f5a81c70bff434b6b66510b8f44fe3e9ad1222a797183269d",
    16: "392f78420c92add35d65c02ca02f8678d8b5215f720d4edcbe5c431ad7a16400",
    17: "558a16817301e8b2d8557003a2d9fb213e691a1aa90cdf03d95569968d90eb63",
    18: "b5237f7108fbab80a992064ccdc00f85d039ed87e0a31550270b3f2acb2b48d3",
    19: "272efa20d409ad0313c820a9eb063fe45cb71778dbd6f19d2cef2ae0d0841f6a",
    20: "236f2bfa07397b180a59271ffbc92b94eff9a617753de1f5597cd1fbf2289396",
    21: "0b882b9722b43b5d59e762dffd1cfda5cce47056b7e903fdf1b297992911204a",
    22: "29e65516372e00b11a1391b322a7f586bdcc94a58e645a559176f182b1e48512",
    23: "f7f6f2309a017ac9fa4acbc6316bd5c2f53044ca3ac3b5264ecb8c4ba67151f0",
    24: "079a1233ae90e556a74dceea5222147b49c81f621e6ff764aabf295bea9eb021",
    25: "013493194c3a50a3f601aab9e1de3ca5c492e7c56b68e99ac82fb655c5488781",
    26: "2ac7b25cba03793ff78300754eea8a3df97abb3fb119e9706ef2b8832eceeea0",
    27: "df8653952ad31c9f44d8e27e9395a23b910cd426e26cbca9dcfd16280421bbf0",
    28: "19ff8e471fd0be2a56b78e6c64c7dd92e9c9cfd37501d4676fe8f34841f9583a",
    29: "01d8f732e9cc319a49a9ac4533a78e555a71acdc0278f86164f31696201c2059",
    30: "8d1e85c26de8696e330c95c71ae0a46e22aadab1fcee886d642c48aea514a2eb",
    31: "ff20067fbd3967683b02d662f7c9a2ff749a8090346adf99b87493c83467a46a",
    32: "52e2166e7d1d5c382ea6a1cf44c907925b2b4e1f347b133ee08af9ad58d86136",
    33: "72559184b63619361029f712341ab87ee41d758fd170b898345bfe5cf49b2232",
    34: "0a173455174d00adb9d8b371a5afec733f2ec62c109e5f97a001dad3fcc99605",
    35: "7cc6e3a319d37fc9da94d272644054ad788b7e216a0beaa9cd2099f67ef38a99",
    36: "8956ec7892474640d9325210bb3ffe40f8decd77b47f7b78e7c8e264186b22e5",
    37: "7f7c6d38149029eea546a06286f0132b7c00f594c500e00e90e571d6180505dd",
    38: "df94b45337221e4f90cb89518988799966e957fc677f8a82bdd5d292a1459a87",
    39: "69d4d0bc6beceaefab933c442cf503c1fb665fc32fff8de92d39931a28f328e5",
    40: "4bcbca32ede74921f4ebc547d6d2fcccc0689bc849d11af208003cc6a7029c99",
    41: "3ad91e79b227df839f74cf4d7bc7968e73928216bf5f03f568b22930777e0901",
    42: "881605a368f5f6a081ee62b92ec56d5f7e746ac6ae5cb8971f442eb1b899cbcd",
    43: "3a2a7d5e355099ab3fe31795add868600d1bee567e5178a988154f6ecb219d26",
    44: "a126c09d008f2594c46634511641260076570f7e076373ea2ca19bb91d7b5a17",
    45: "edad405d35ecda7934ab09cf4db1b2ec7eafc2cc256a050c3703cc9aee2bc98e",
}


@pytest.mark.parametrize("d", sorted(JD_GRID_SHA256))
def test_recurrence_reproduces_the_rationalized_build(d):
    jd = oracle_Jd(d)
    assert all(type(c) is int for row in jd.grid for c in row)
    assert _grid_sha256(jd) == JD_GRID_SHA256[d]


def test_degree_120_agrees_with_the_line_product():
    # Past the mpmath build's reach: its denominators, up to 3^60, would need
    # a rationalization bound far beyond any it used.
    points = [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(-9, 10), Fraction(5, 4)),
              (Fraction(3, 2), Fraction(1, 9)), (Fraction(-21, 10), Fraction(-13, 5))]
    with mp.workprec(512):
        for p, exact, via_lines in zip(
            points, jd_exact_values(120, points), _line_product_fixed(120, points, 512)
        ):
            exact = mp.mpf(exact.numerator) / exact.denominator
            assert abs(exact - mp.ldexp(via_lines, -512)) < 1e-100 * (1 + abs(exact)), p


def fraction_horner(poly, x, y):
    """Plain Horner in Fractions, one reduced Fraction per multiply-add."""
    acc = Fraction(0)
    for row in reversed(poly.grid):
        inner = Fraction(0)
        for c in reversed(row):
            inner = inner * y + Fraction(c, poly.den)
        acc = acc * x + inner
    return acc


# Denominators 1, 7, 3^5, 2^40 and 1000, with zero and negative coordinates.
EXACT_POINTS = [
    (Fraction(0), Fraction(0)),
    (Fraction(-3), Fraction(2)),
    (Fraction(-5, 7), Fraction(0)),
    (Fraction(0), Fraction(-13, 7)),
    (Fraction(200, 3**5), Fraction(-7, 3**5)),
    (Fraction(4, 7), Fraction(-1, 3**5)),
    (Fraction(3 - 2**40, 2**40), Fraction(1, 2**40)),
    (Fraction(-1, 2**40), Fraction(-617, 1000)),
    (Fraction(-1237, 1000), Fraction(2999, 1000)),
]


@pytest.mark.parametrize("d", range(3, 46))
def test_integer_horner_equals_fraction_horner(d):
    jd = oracle_Jd(d)
    points = [*DUAL_PATH_POINTS, *EXACT_POINTS]
    assert jd.rational_values(points) == [fraction_horner(jd, x, y) for x, y in points]


@pytest.mark.parametrize("d", [*range(2, 61), 120, 200])
def test_exact_values_equal_the_grid_oracle(d):
    # The recurrence run on each point's numbers against the expanded grid,
    # evaluated by integer Horner.
    points = [*DUAL_PATH_POINTS, *EXACT_POINTS]
    assert jd_exact_values(d, points) == oracle_Jd(d).rational_values(points)


def test_exact_values_refuse_a_tiny_degree():
    with pytest.raises(ValueError):
        jd_exact_values(1, DUAL_PATH_POINTS)


# Runs the dual-path check with numpy set to None, so any use of numpy fails.
NUMPY_FREE_PROBE = """
import sys
sys.modules["numpy"] = None
from belyi_forge.arrangement_jd import verify_Jd_dual_path
print(verify_Jd_dual_path(24) < 1e-20)
"""


def test_dual_path_check_runs_without_numpy():
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_PROBE], check=True, timeout=120,
        capture_output=True, text=True,
    )
    assert out.stdout == "True\n"


@pytest.mark.parametrize("d", range(3, 25))
def test_dual_path_agreement(d):
    assert verify_Jd_dual_path(d) < 1e-20


@pytest.mark.parametrize("d", [110, 150])
def test_dual_path_agreement_past_256_bits(d):
    # 256 fractional bits read 2.3e-21 at d=110 and 1.9e5 at d=150, where
    # |J| at the points nears 2^323; the check reads 64 bits above it.
    assert verify_Jd_dual_path(d) < 1e-30


@pytest.mark.parametrize("d, width", [(90, 322), (99, 342), (150, 451), (200, 558)])
def test_the_checked_lines_round_to_the_census_lines(monkeypatch, d, width):
    # From d=90 the check multiplies lines built wider than the census's
    # DUAL_PATH_PRECISION + 64 = 320 bits.  Both builds round to the same
    # floats, bit for bit, so the check still proves the lines the census
    # reads; this holds at every d from 2 to 200.
    normals, offsets, scale = _census_lines(d)
    lines, widths = arrangement_jd._jd_lines, []

    def recording(d, w):
        widths.append(w)
        return lines(d, w)

    monkeypatch.setattr(arrangement_jd, "_jd_lines", recording)
    verify_Jd_dual_path(d)
    assert widths == [width]
    slopes, wide_offsets, inv_root3, wide_scale = lines(d, width)
    one = 1 << width
    assert normals.tobytes() == np.array([(-t / one, inv_root3 / one) for t in slopes]).tobytes()
    assert offsets.tobytes() == np.array([c / one for c in wide_offsets]).tobytes()
    assert scale == wide_scale / one


def three_trig_line_product(d, points):
    """The line product as mpmath once took it: tan, cos and sin per line,
    and the scale 2cos(d pi/2 + 2 pi/3), at the working precision."""
    scale = 2 * mp.cos(d * mp.pi / 2 + 2 * mp.pi / 3)
    lines = []
    for mu in range(-((d - 2) // 2), (d + 1) // 2 + 1):
        phi = (6 * mu - 1) * mp.pi / (6 * d)
        t = mp.tan(phi)
        lines.append((-t, mp.cos(2 * phi) * t + mp.sin(2 * phi)))
    values = []
    for px, py in points:
        x = mp.mpf(px.numerator) / px.denominator
        y = mp.mpf(py.numerator) / py.denominator / mp.sqrt(3)
        values.append(scale * mp.fprod(a * x + y + c for a, c in lines))
    return values


@pytest.mark.parametrize("d", range(3, 25))
def test_fixed_point_line_product_agrees_with_three_trig_mpmath(d):
    points = [*DUAL_PATH_POINTS, *EXACT_POINTS]
    fixed = _line_product_fixed(d, points, DUAL_PATH_PRECISION)
    with mp.workprec(512):
        for p, k, ref in zip(points, fixed, three_trig_line_product(d, points)):
            value = mp.ldexp(k, -DUAL_PATH_PRECISION)
            assert abs(value - ref) < 1e-60 * (1 + abs(ref)), p


def test_dual_path_points_are_default_rng_7_draws():
    # The points were drawn once by numpy and are written out, so the check
    # needs no generator; this pins where they came from.
    rng = np.random.default_rng(7)
    draws = [Fraction(int(rng.integers(-4000, 4000)), 1000) for _ in range(24)]
    assert DUAL_PATH_POINTS == tuple(zip(draws[::2], draws[1::2]))


def mpmath_unit_roots(d, w):
    """The two roots of unity as mpmath gives them, truncated at w bits."""
    with mp.workprec(w + 16):
        first = mp.expjpi(mp.mpf(6 * _mu_range(d)[0] - 1) / (6 * d))
        step = mp.expjpi(mp.mpf(1) / d)
        return tuple(int(mp.ldexp(v, w)) for z in (first, step) for v in (z.real, z.imag))


def test_integer_unit_roots_equal_mpmath():
    w = DUAL_PATH_PRECISION + 64
    for d in range(2, 201):
        assert _unit_roots(d, w) == mpmath_unit_roots(d, w), d


def test_integer_unit_roots_are_exact_at_one_half():
    # The step at d=3 is e^{i pi/3} = (1 + i sqrt(3))/2, truncated.  mpmath
    # rounds the angle 1/3 before taking the cosine, and lands one unit below
    # 1/2 at 576 bits, so the oracle test above runs at the check's own width.
    assert _unit_roots(3, 576)[2:] == (1 << 575, math.isqrt(3 << 1150))


@pytest.mark.parametrize("d", [3, 9, 24])
@pytest.mark.parametrize("corner", ["constant", "x^d", "Y^d", "middle"])
def test_dual_path_catches_a_coefficient_moved_by_its_denominator(monkeypatch, d, corner):
    # A coefficient of x^k Y^m has denominator 3^(m//2); moving it by that
    # unit adds x^k Y^m / 3^(m//2) to J_d's exact values, and the fixed-point
    # check must see it.
    k, m = {"constant": (0, 0), "x^d": (d, 0), "Y^d": (0, d), "middle": (d // 2, d // 2)}[corner]
    exact = arrangement_jd.jd_exact_values

    def moved(degree, points):
        return [
            v + Fraction(x**k * y**m, 3 ** (m // 2))
            for v, (x, y) in zip(exact(degree, points), points)
        ]

    monkeypatch.setattr(arrangement_jd, "jd_exact_values", moved)
    assert verify_Jd_dual_path(d) > 1e-20


def test_rational_restriction_to_axis():
    # Column 0 of the grid over its denominator is J_d on the axis Y = 0.
    xs = [Fraction(7, 5), Fraction(-3, 4), Fraction(0), Fraction(2)]
    for d in (3, 4, 9):
        jd = oracle_Jd(d)
        axis = [Fraction(row[0], jd.den) for row in jd.grid]
        assert len(axis) == d + 1
        direct = jd_exact_values(d, [(x, Fraction(0)) for x in xs])
        assert direct == [sum(c * x**k for k, c in enumerate(axis)) for x in xs], d


def float_census(d):
    """The oracle's census of the unscaled-y arrangement polynomial."""
    return oracle_census(*tan_lines(d), _census_lines(d)[2])


def test_smallest_census_from_spec_example():
    census = float_census(3)
    assert census.counts == {0.0: 3, 8.0: 0, -1.0: 1}
    assert census.all_nondegenerate
    assert census.complete


@pytest.mark.parametrize("d", [3, 4, 5, 6, 12])
def test_float_census_matches_counts(d):
    census = float_census(d)
    assert census_matches_jstats(census, jstats(d)), census.as_dict()
    assert census.total == (d - 1) ** 2
    assert census.all_nondegenerate


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_rational_census_matches_counts(d):
    census = jd_census(d)
    assert census_matches_jstats(census, jstats(d)), census.as_dict()


@pytest.mark.parametrize("d", [10, 11, 12, 13, 18, 24])
def test_rational_census_matches_counts_past_nine(d):
    census = jd_census(d)
    assert census_matches_jstats(census, jstats(d)), census.as_dict()
    assert census.total == (d - 1) ** 2
    assert census.all_nondegenerate


@pytest.mark.parametrize("d", ORACLE_DEGREES)
def test_lattice_points_match_the_chamber_oracle(d):
    # One to one: each lattice point lies within 1e-12 of its own oracle
    # point, and both read the same value class there.
    census, oracle = jd_census(d), oracle_census(*chamber_lines(d), _census_lines(d)[2])
    assert census.complete and oracle.complete
    assert census.total == oracle.total == (d - 1) ** 2
    gaps = np.linalg.norm(census.positions[:, None] - oracle.positions[None], axis=2)
    nearest = gaps.argmin(axis=1)
    assert sorted(nearest.tolist()) == list(range(oracle.total))
    assert gaps.min(axis=1).max() < 1e-12
    assert np.array_equal(census.classes, oracle.classes[nearest])


@pytest.mark.parametrize("d", [25, 35, 48, 99, 200])
def test_census_is_complete_past_the_old_guard(d):
    # d=35 is where a Cramer vertex of the chamber census failed its
    # gradient test.  Every Newton step stays far under NEWTON_STEP_TOL.
    census = jd_census(d)
    assert census.failures == ()
    assert census_matches_jstats(census, jstats(d)), census.as_dict()
    assert census.steps.max() < 1e-13
    assert "failed_tests" not in census.as_dict()


# sha256 of the census's arrays (dtype, shape and bytes of positions,
# values, gradients, steps and classes, in that order) and of the exact
# values at DUAL_PATH_POINTS (numerator/denominator, space-separated), and
# verify_Jd_dual_path as float.hex().  The CLI pins drop every float; these
# hold each kernel bit for bit.  The census's floats read numpy's float64 cos
# and sin; the pins were recorded with numpy 2.4.6 on x86-64.
JD_KERNEL_PINS = {
    2: (
        "07f40975d3320cf3bebb799909edc0ab89cb94fe3915367047e0835f18b4e23c",
        "54942bca759cae830ea14caa77ee9f772334aa7154c3ececfa34b6cb10f72aae",
        "0x0.0p+0",
    ),
    3: (
        "9a61325444fb4b7ddd2a2de0f274391488a6c760933763fc618d3f24b51d220f",
        "30d2d4b8817be3a5f97eb9be4fd573d3e0044d0dcd228cb92240a0e62daf466d",
        "0x0.0p+0",
    ),
    4: (
        "1b726ec648ed41ca872c9d4baa66b1b516c3b2e039e76cb19cf57a5d3eea100e",
        "6f760179e324cc3aa2da4cf9001e933d479a239b03be0423415f2a8cd50c4991",
        "0x0.0p+0",
    ),
    5: (
        "fd349ab792a3790cc34d72143e416097fab460d79fc49bf526ca8a57aa02e8fe",
        "4847f7e953955daa26015713b7f9499dbf1cc52f24a6e2f10f3a5b9a5c742bb7",
        "0x0.0p+0",
    ),
    6: (
        "edfa03f092480a865d977447ed2e71d412dea05b7dd58fdd8d55578a312cd2d7",
        "d5a54b2457603de1764eb532c287fc7388f9f9d325bbaf244fe28ab6ed8f38ac",
        "0x0.0p+0",
    ),
    7: (
        "2d06b88885036104c726dbad66b208c7f09d5abc15cc8c957d1afc3ce5d57912",
        "0a000f790c1d7de265c47c41e7fa557b4a43ccdadd3a4c7502b86d4447db62e5",
        "0x0.0p+0",
    ),
    8: (
        "47f29ae5c3b914de4d5b395a78644ca010a6227f9eb1a0805d7cda07d981cf79",
        "22fd5d04edf29abb6512f0b47f34f9a66e4d1c888650dd3758780a5d5c48978d",
        "0x0.0p+0",
    ),
    9: (
        "fed1c160e5bdd21841d23db495f00f8ee5e8c1de7dd10933dc43eb8f6db6ad6c",
        "d3d59389196e63f896c2528282774f06ecdfe79b4bde09f50e04016c782e1a45",
        "0x0.0p+0",
    ),
    10: (
        "2c5ee2d114cd928abd4a3e02c55a8caef0791707768e7584be5d20b27688d431",
        "c3fc54ea70acdb8f46a04dfbe6f26505b86650e374286723513ef776aba9231b",
        "0x0.0p+0",
    ),
    11: (
        "72ae761cc18bcecb9e3966119c2d2d3ebb637d4a7ae4a7f1e5c9af20fef451e4",
        "53dcdf09df320f11d3814968aa5a46a0d3c4a63258820cec927056894402b86b",
        "0x0.0p+0",
    ),
    12: (
        "c43f58d55e6f4b116183436de01545b1e2dd44fa1ac150a04bab4cc78ea43f12",
        "6a39e25d82a5c8ea4ca2b259919b68c4f93ccb4310593fa406d5f2cff34afe49",
        "0x0.0p+0",
    ),
    24: (
        "eb645411481b088bbf07b115547cf6b3aa783b1243795b9250c26011f04cbadc",
        "d57ad1b17530e20b402914199eb636b6ba7fc324e297425156f003563f637287",
        "0x1.0000000000000p-256",
    ),
    48: (
        "e9d4da539ab911ed155db1f56cf7b1361b8a6be6b85606d6ee807b8ee24ccb15",
        "ae4930a719324169306a6b209b54c8c63630e700983c941d6d859d1c5d68aa69",
        "0x1.c89f8b2e3dbe4p-206",
    ),
    99: (
        "8178c95fa4970d64e832e0317b6e335cbf46b4a675537c387ced4e16d5b9c6d1",
        "84f63b8ea436235d6684dcd1c5455b8f1abc7881ac885658ee82e5c4043d322b",
        "0x1.0a3fd7ec69ec5p-117",
    ),
    200: (
        "6fa8cdb49235dee8c49b75ad701aee890520a2464e31234aea9a1d2b093c54f2",
        "97cdaaaa64e32c271f4527f5c57336b51cf33e3e86986c442486a7464259aa85",
        "0x1.a7f32451b7e68p-112",
    ),
}


def census_digest(census):
    h = hashlib.sha256()
    for a in (census.positions, census.values, census.gradients, census.steps, census.classes):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("d", sorted(JD_KERNEL_PINS))
def test_jd_kernels_are_pinned_bit_for_bit(d):
    census_sha, exact_sha, dual_hex = JD_KERNEL_PINS[d]
    assert census_digest(jd_census(d)) == census_sha
    exact = jd_exact_values(d, DUAL_PATH_POINTS)
    text = " ".join(f"{v.numerator}/{v.denominator}" for v in exact)
    assert hashlib.sha256(text.encode()).hexdigest() == exact_sha
    assert verify_Jd_dual_path(d).hex() == dual_hex


def with_moved_offset(line):
    lines = arrangement_jd._jd_lines

    def moved(d, w):
        slopes, offsets, inv_root3, scale = lines(d, w)
        offsets = list(offsets)
        offsets[line] += (1 << w) // 10**6
        return slopes, offsets, inv_root3, scale

    return moved


@pytest.mark.parametrize("d", [3, 24, 200])
@pytest.mark.parametrize("line", [0, -1])
def test_a_moved_line_fails_the_newton_step_test(monkeypatch, d, line):
    # One line's offset moved by 1e-6 in the one construction both checks
    # read leaves the lattice points off the polynomial's critical points,
    # and the line product off the exact J_d: the census names the test
    # that failed, and the dual-path check sees it.
    monkeypatch.setattr(arrangement_jd, "_jd_lines", with_moved_offset(line))
    census = jd_census.__wrapped__(d)
    assert not census.complete
    assert "newton_step" in census.failures
    assert census.as_dict()["failed_tests"] == list(census.failures)
    assert not census_matches_jstats(census, jstats(d))
    assert verify_Jd_dual_path(d) > 1e-20


def test_a_wrong_scale_fails_the_value_test_alone(monkeypatch):
    # Every point is still critical, but no value lies on its target.
    lines = arrangement_jd._jd_lines

    def wrong_scale(d, w):
        *rest, scale = lines(d, w)
        return *rest, scale * 3 // 2

    monkeypatch.setattr(arrangement_jd, "_jd_lines", wrong_scale)
    census = jd_census.__wrapped__(9)
    assert census.failures == ("value",)
    assert census.counts == {0.0: jstats(9).n0, 8.0: 0, -1.0: 0}
    assert len(census.stray_values) == jstats(9).n8 + jstats(9).nm1


def test_a_lost_point_fails_the_count_test_alone(monkeypatch):
    def one_short(d):
        classes, x, y = lattice(d)
        return classes[1:], x[1:], y[1:]

    lattice = arrangement_jd._lattice_points
    monkeypatch.setattr(arrangement_jd, "_lattice_points", one_short)
    assert jd_census.__wrapped__(9).failures == ("count",)


def test_census_guard_refuses_degree_past_guard():
    with pytest.raises(DegreeGuardError):
        jd_census(CENSUS_DEGREE_GUARD + 1)


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_census_refuses_a_degree_below_two_before_any_work(monkeypatch, d):
    # At d = 0 the lattice's angles would divide by 3d.
    def lattice_points(degree):
        raise AssertionError("the lattice was listed")

    monkeypatch.setattr(arrangement_jd, "_lattice_points", lattice_points)
    with pytest.raises(ValueError):
        jd_census(d)


def test_bounded_chambers_number_zaslavsky_count():
    for d in range(3, 13):
        normals, offsets = chamber_lines(d)
        chambers = bounded_chambers(normals, offsets, *vertices_of(normals, offsets))
        assert len(chambers) == (d - 1) * (d - 2) // 2, d


def bounded_chambers_by_dict(lines):
    """The chamber centroids as the census found them before the sign rows
    were grouped by np.unique: a dict keyed by sign tuples, one np.mean per
    chamber."""
    normals, offsets = lines
    chambers = {}
    pairs, at = vertices_of(normals, offsets)
    for (i, j), (x, y) in zip(pairs.tolist(), at.tolist()):
        side = normals @ (x, y) + offsets > 0
        for si, sj in itertools.product((True, False), repeat=2):
            side[i], side[j] = si, sj
            chambers.setdefault(tuple(side), []).append((x, y))
    along = np.arctan2(-normals[:, 0], normals[:, 1])
    cuts = np.sort(np.concatenate([along, along + math.pi]) % (2 * math.pi))
    between = (cuts + np.append(cuts[1:], cuts[0] + 2 * math.pi)) / 2
    far = np.stack([np.cos(between), np.sin(between)], axis=1) @ normals.T > 0
    unbounded = {tuple(s) for s in far}
    return [tuple(np.mean(v, axis=0)) for k, v in chambers.items() if k not in unbounded]


@pytest.mark.parametrize("d", ORACLE_DEGREES)
def test_grouped_chambers_equal_the_dict_grouping(d):
    # Each centroid sums its vertices in the same order as the running mean
    # did, so the two agree bit for bit; only the chamber order differs.
    lines = normals, offsets = chamber_lines(d)
    grouped = bounded_chambers(normals, offsets, *vertices_of(normals, offsets))
    assert sorted(map(tuple, grouped.tolist())) == sorted(bounded_chambers_by_dict(lines))


def test_cached_census_is_read_only():
    census = jd_census(5)
    assert jd_census(5) is census
    with pytest.raises(TypeError):
        census.counts[0.0] = 0
    for array in (census.positions, census.values, census.gradients):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_jd_census_has_one_call_form():
    # The census takes the degree alone, so each degree has one cache entry.
    jd_census(5)
    hits = jd_census.cache_info().hits
    jd_census(5)
    assert jd_census.cache_info().hits == hits + 1
    with pytest.raises(TypeError):
        jd_census(5, 1e-6)


def test_jd_entry_points_read_the_degree_as_an_index(monkeypatch):
    # A numpy integer gives the int's results as plain ints.  A float raises
    # TypeError before any work, cold and with its degree cached.
    jd_census.cache_clear()
    d = np.int64(5)
    census = jd_census(d)
    assert census_digest(census) == JD_KERNEL_PINS[5][0]
    assert all(type(v) is int for v in census.counts.values())
    surface = singular_census_3d(d)
    assert type(surface.d) is int and surface == singular_census_3d(5)
    count = nodal_surface_count(d)
    assert type(count) is int and count == nodal_surface_count(5)
    assert jd_exact_values(d, DUAL_PATH_POINTS) == jd_exact_values(5, DUAL_PATH_POINTS)
    assert verify_Jd_dual_path(d).hex() == JD_KERNEL_PINS[5][2]
    jd_census(5)

    def no_work(*args):
        raise AssertionError("the degree was used")

    monkeypatch.setattr(arrangement_jd, "_lattice_points", no_work)
    monkeypatch.setattr(arrangement_jd, "_jd_lines", no_work)
    for call in (jd_census, singular_census_3d, nodal_surface_count, verify_Jd_dual_path):
        with pytest.raises(TypeError):
            call(5.0)
    with pytest.raises(TypeError):
        jd_exact_values(5.0, DUAL_PATH_POINTS)


def census_peak_memory(d):
    jd_census.cache_clear()
    tracemalloc.start()
    try:
        jd_census(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_census_peak_memory_at_degree_24():
    # The jet holds six arrays the size of the points, so the census peaks
    # near 0.1 MiB; an n x n x K Hessian array would take 9.6 MiB.
    assert census_peak_memory(24) < 2 * 2**20


def test_census_peak_memory_at_the_guard():
    # About 5.2 MiB at d=200: the memory grows as (d-1)^2.
    assert census_peak_memory(CENSUS_DEGREE_GUARD) < 8 * 2**20


def chamber_maximum_one_at_a_time(lines, start):
    """The damped Newton ascent of one chamber, as the census ran it before
    the chambers were batched."""
    normals, offsets = lines
    x = np.array(start)
    for _ in range(50):
        scaled = normals / (normals @ x + offsets)[:, None]
        grad = scaled.sum(axis=0)
        step = np.linalg.solve(scaled.T @ scaled, grad)
        if grad @ step < 1e-20:
            return x + step
        r = scaled @ step
        t = 1.0
        while np.any(t * r <= -1.0) or np.log1p(t * r).sum() <= 0.0:
            t /= 2
        x = x + t * step
    return x


@pytest.mark.parametrize("d", ORACLE_DEGREES)
def test_batched_ascent_matches_the_per_chamber_ascent(d):
    lines = normals, offsets = chamber_lines(d)
    starts = bounded_chambers(normals, offsets, *vertices_of(normals, offsets))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        maxima = chamber_maxima(normals, offsets, starts)
    oracle = np.array([chamber_maximum_one_at_a_time(lines, s) for s in starts])
    assert np.all(np.abs(maxima - oracle) <= 1e-13 * (1 + np.abs(oracle)))
    sides = np.sign(starts @ normals.T + offsets)
    assert np.all(sides != 0)
    assert np.array_equal(np.sign(maxima @ normals.T + offsets), sides)


# Imports the package and runs the combinatorial commands, then prints the
# numpy submodules loaded so far: the lazily bound numpy sits in sys.modules
# from the import on, but only executing it loads submodules.  It prints
# which of dataclasses and inspect are loaded too: the package's records are
# NamedTuples, so nothing loads dataclasses, nor inspect, which dataclasses
# imports.  It then executes numpy, notes which of mpmath and numpy.random
# are loaded (numpy 1.x loads numpy.random with numpy itself, so only what
# the commands add counts), runs the numeric commands and prints the watched
# modules they loaded.  shabat draws its restarts from numpy.random, so it
# runs last and only its exit code is checked; then the probe prints whether
# dataclasses is loaded (numpy itself loads inspect).
IMPORT_PROBE = """
import contextlib, io, sys
import belyi_forge, belyi_forge.cli
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert belyi_forge.cli.main(list(argv)) == 0, argv
run("table", "--max-degree", "24")
run("table", "--max-degree", "24", "--format", "json")
run("seeds")
run("families", "--seed", "F1:0,1")
run("enumerate", "--seed", "F1:0,1", "--max-len", "4")
run("derive", "--seed", "F1:0,1", "--word", "ab")
run("export", "--seed", "F1:0,1", "--word", "ab")
run("export", "--seed", "F1:0,1", "--word", "ab", "--format", "json")
print(sorted(m for m in sys.modules if m.startswith("numpy.")))
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
import numpy
numpy.ndarray
watched = ("mpmath", "numpy.random")
before = {m for m in watched if m in sys.modules}
assert "mpmath" not in before
run("jd-verify", "--degree", "5")
run("surface-verify", "--degree", "5", "--nodal")
run("surface-verify", "--degree", "3")
print(sorted(m for m in watched if m in sys.modules and m not in before))
run("shabat", "--seed", "F1:0,1")
print("dataclasses" in sys.modules)
"""


def test_package_import_leaves_mpmath_unloaded():
    # numpy executes only for the numeric commands, and the dual-path check
    # runs in Python ints from literal points, so neither importing the
    # package nor running jd-verify or surface-verify loads mpmath or
    # numpy.random; no command loads dataclasses, and the combinatorial ones
    # load no inspect.
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], check=True, timeout=120,
        capture_output=True, text=True,
    )
    assert out.stdout == "[]\n[]\n[]\nFalse\n"
