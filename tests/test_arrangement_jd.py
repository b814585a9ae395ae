"""Line arrangements: exact coefficients, closed-form counts, 2D censuses."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from belyi_forge import (
    DegreeGuardError,
    arrangement_census,
    build_Jd,
    build_lines,
    census_matches_jstats,
    jd_census,
    jstats,
    verify_Jd_dual_path,
)
from belyi_forge.arrangement_jd import (
    CENSUS_DEGREE_GUARD,
    BiPoly,
    LineSpec,
    RationalizationError,
    _bounded_chambers,
    _product_jet,
    _vertices,
    jd_lines,
    scale_constant,
)

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
    with pytest.raises(ValueError):
        jstats(2)


def test_line_count_is_degree():
    for d in range(2, 61):
        lines = build_lines(d)
        assert len(lines) == d
        for line in lines:
            # normals are unit length up to the vertical special case
            if not line.is_vertical:
                assert abs(line.b - 1.0) < 1e-12


def test_lines_have_distinct_angles():
    for d in (3, 4, 7, 12):
        angles = [line.phi % math.pi for line in build_lines(d)]
        assert len({round(a, 9) for a in angles}) == d


def test_scale_constant_nonzero_at_tau_zero():
    for d in range(2, 20):
        assert abs(scale_constant(d, 0.0)) > 1e-9


def test_intersections_bounded_by_pair_count():
    for d in (3, 4, 5, 6):
        pts = _vertices(build_lines(d))
        assert 1 <= len(pts) <= d * (d - 1) // 2


def _falling(n, k):
    return math.prod(range(n - k + 1, n + 1)) if k <= n else 0


def exact_jet(poly, x, y):
    """(value, gx, gy, hxx, hxy, hyy) of a Fraction BiPoly at Fractions x, y."""
    return tuple(
        sum(
            c * _falling(i, di) * x ** max(i - di, 0) * _falling(j, dj) * y ** max(j - dj, 0)
            for i, row in enumerate(poly.grid)
            for j, c in enumerate(row)
        )
        for di, dj in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    )


def jet_errors(lines, scale, poly, points):
    """Worst error of the product form's value, gradient and Hessian against
    the exact polynomial, each relative to 1 + its exact size."""
    x = np.array([float(px) for px, _ in points])
    y = np.array([float(py) for _, py in points])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = np.array(_product_jet(lines, scale, x, y))
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
        errors = jet_errors(jd_lines(d), scale_constant(d), build_Jd(d), RATIONAL_POINTS)
        assert max(errors) < 1e-12, (d, errors)


def test_product_jet_at_vertices_is_exact_and_division_free():
    # Two factors vanish at each vertex of the arrangement.
    vertices = [(x, y) for _, _, x, y in _vertices(jd_lines(5))]
    assert max(jet_errors(jd_lines(5), scale_constant(5), build_Jd(5), vertices)) < 1e-12
    # x * y * (x + y - 1) at the origin: two factors are exactly zero.
    lines = [LineSpec(mu=0, phi=0.0, is_vertical=False, a=a, b=b, c=c)
             for a, b, c in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, -1.0)]]
    with np.errstate(all="raise"):
        jet = _product_jet(lines, 1.0, np.zeros(1), np.zeros(1))
    assert [float(v[0]) for v in jet] == [0.0, 0.0, 0.0, 0.0, -1.0, 0.0]


def test_product_jet_of_unscaled_lines_is_not_jd():
    # The unscaled lines are the factors of J_d in the y/sqrt(3) coordinate,
    # not in the rational polynomial's own.
    errors = jet_errors(build_lines(5), scale_constant(5), build_Jd(5), RATIONAL_POINTS)
    assert min(errors) > 1e-3


def test_rational_coefficients_small_denominators():
    frozen_max_den = {3: 3, 4: 9, 5: 9, 6: 27, 7: 27, 8: 81, 9: 81}
    for d, max_den in frozen_max_den.items():
        jd = build_Jd(d)
        dens = {
            c.denominator
            for row in jd.grid
            for c in row
            if isinstance(c, Fraction) and c != 0
        }
        assert max(dens) == max_den, d
        assert jd.degree == d


def test_rationalization_refuses_impossible_bound():
    with pytest.raises(RationalizationError):
        build_Jd(6, den_bound=2)


@pytest.mark.parametrize("d", range(3, 8))
def test_dual_path_agreement(d):
    assert verify_Jd_dual_path(d) < 1e-20


def test_rational_restriction_to_axis():
    jd = build_Jd(3)
    coeffs = jd.restrict_y0()
    assert len(coeffs) == 4
    x = Fraction(7, 5)
    direct = jd(x, Fraction(0))
    from_restriction = sum(c * x**k for k, c in enumerate(coeffs))
    assert direct == from_restriction


def float_census(d):
    """Census of the unscaled-y arrangement polynomial."""
    return arrangement_census(build_lines(d), scale_constant(d))


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


def test_census_guard_refuses_degree_past_guard():
    with pytest.raises(DegreeGuardError):
        jd_census(CENSUS_DEGREE_GUARD + 1)


def test_bounded_chambers_number_zaslavsky_count():
    for d in range(3, 13):
        assert len(_bounded_chambers(jd_lines(d))) == (d - 1) * (d - 2) // 2, d


def test_bipoly_mul_linear_degree_bump():
    p = BiPoly(((1.0,),))
    q = p.mul_linear(2.0, 0.0, 1.0)
    assert q.degree == 1
    assert q(3.0, 0.0) == 7.0
