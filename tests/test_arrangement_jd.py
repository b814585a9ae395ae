"""Line arrangements: exact coefficients, closed-form counts, 2D censuses."""

import math
from fractions import Fraction

import pytest

from belyi_forge import (
    DegreeGuardError,
    arrangement_census,
    build_Jd,
    build_lines,
    census_matches_jstats,
    jd_census,
    jhat_census,
    jstats,
    line_intersections,
    verify_Jd_dual_path,
)
from belyi_forge.arrangement_jd import (
    BiPoly,
    RationalizationError,
    _bounded_chambers,
    jd_lines,
    jd_starts,
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
        pts = line_intersections(build_lines(d))
        assert 1 <= len(pts) <= d * (d - 1) // 2


def test_bipoly_partials_match_finite_differences():
    jd = build_Jd(4)
    p = jd.map_coeffs(lambda c, i, j: float(c))
    px = p.partial_x()
    py = p.partial_y()
    h = 1e-7
    for x, y in [(0.3, -0.4), (-1.1, 0.9)]:
        fd_x = (p(x + h, y) - p(x - h, y)) / (2 * h)
        fd_y = (p(x, y + h) - p(x, y - h)) / (2 * h)
        assert abs(px(x, y) - fd_x) < 1e-5
        assert abs(py(x, y) - fd_y) < 1e-5


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


def test_smallest_census_from_spec_example():
    census = jhat_census(3)
    assert census.counts == {0.0: 3, 8.0: 0, -1.0: 1}
    assert census.all_nondegenerate
    assert census.complete


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_float_census_matches_counts(d):
    census = jhat_census(d)
    assert census_matches_jstats(census, jstats(d)), census.as_dict()
    assert census.total == (d - 1) ** 2
    assert census.all_nondegenerate


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_rational_census_matches_counts(d):
    census = jd_census(d)
    assert census_matches_jstats(census, jstats(d)), census.as_dict()


@pytest.mark.parametrize("d", [10, 11, 12])
def test_rational_census_matches_counts_past_nine(d):
    census = jd_census(d)
    assert census_matches_jstats(census, jstats(d)), census.as_dict()
    assert census.total == (d - 1) ** 2
    assert census.all_nondegenerate


def test_census_guard_refuses_degree_13():
    with pytest.raises(DegreeGuardError):
        jd_census(13)


def test_bounded_chambers_number_zaslavsky_count():
    for d in range(3, 13):
        assert len(_bounded_chambers(jd_lines(d))) == (d - 1) * (d - 2) // 2, d


def test_census_with_foreign_lines_is_incomplete():
    # Unscaled lines are not the factors of J_d in its coordinates, so
    # their vertices and chamber maxima fail the gradient test on J_d.
    census = arrangement_census(build_Jd(5), build_lines(5))
    assert not census.complete
    assert not census_matches_jstats(census, jstats(5))


def test_census_start_points_cover_vertices():
    assert len(jd_starts(4)) == len(line_intersections(build_lines(4)))


def test_bipoly_mul_linear_degree_bump():
    p = BiPoly(((1.0,),))
    q = p.mul_linear(2.0, 0.0, 1.0)
    assert q.degree == 1
    assert q(3.0, 0.0) == 7.0
