"""Numeric realization: polynomial helpers, the solver, and the census oracle."""

import collections
import hashlib
import inspect
import itertools
import math
import re
import struct
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from belyi_forge import (
    F1,
    F2,
    CriticalProfile,
    DegreeGuardError,
    NoConvergenceError,
    census_matches_profile,
    critical_census_uni,
    parse_seed,
    shabat_for_derivation,
    shabat_solve,
    tree_for_derivation,
)
from belyi_forge import belyi_numeric
from belyi_forge.belyi_numeric import (
    CensusEntry,
    census_to_json,
    chebyshev_solution,
    solution_to_json,
    winding_census,
)
from belyi_forge.surface_counts import constructions_up_to
from belyi_forge.tree_realization import BLACK, WHITE, PlaneTree, profile_of, realize_profile
from belyi_forge.word_engine import enumerate_LE, trajectory, word_from_str

import vertex_reference
from unipoly import UniPoly


def test_unipoly_basics():
    p = UniPoly((-1.0, 0.0, 2.0))
    assert p.degree == 2
    assert p(0) == -1
    assert p(1) == 1
    dp = p.derivative()
    assert dp.degree == 1
    assert dp(3) == 12
    q = UniPoly.from_roots([(1.0, 2)])
    assert q.degree == 2
    assert abs(q(1.0)) < 1e-15
    assert abs((p * q)(2.0) - p(2.0) * q(2.0)) < 1e-12


def _bits(coeffs):
    return [struct.pack("<dd", c.real, c.imag) for c in map(complex, coeffs)]


@lru_cache(maxsize=None)
def catalogue_solves_up_to_24():
    """Every converged solve of the catalogue up to degree 24, at rng_seeds 0
    and 1, with its construction.  F3:1,1,0,1,0 a (degree 23) converges at
    neither seed."""
    solves = []
    for c in constructions_up_to(24):
        for rng_seed in (0, 1):
            try:
                sol = shabat_for_derivation(c.seed, c.word, max_degree=24, rng_seed=rng_seed)
            except NoConvergenceError:
                continue
            solves.append((c, sol))
    return tuple(solves)


def test_polynomial_is_the_dense_product_bit_for_bit():
    # p's coefficients are those of UniPoly's schoolbook product, signed
    # zeros included, and the census reads both alike.
    for _, sol in catalogue_solves_up_to_24():
        p = sol.polynomial()
        oracle = UniPoly.from_roots([(a, m + 1) for a, m in sol.black_points])
        oracle = oracle.scale(sol.scale_constant).shift_constant(-1).coeffs
        assert all(type(x) is complex for x in p)
        assert _bits(p) == _bits(oracle)
        assert census_to_json(critical_census_uni(p)) == census_to_json(
            critical_census_uni(oracle)
        )
    assert len(catalogue_solves_up_to_24()) == 32


def test_winding_census_matches_the_catalogue_up_to_degree_24():
    # A tier-1 sample of the 209-solve sweep (constructions_up_to(45) at
    # rng_seeds 0..3), which the census matches in full.  Each circle holds
    # its vertex's multiplicity, the counts sum to B - 1, and the solution
    # carries the construction's passport.
    for c, sol in catalogue_solves_up_to_24():
        census = winding_census(sol)
        assert census.failures == (), (c, census)
        assert census.counts == census.mults and census.total == census.expected_total
        assert census.expected_total == len(sol.black_points) - 1
        assert sol.profile == c.profile
        assert census.max_phase_step < 0.5 and census.max_value_defect <= sol.residual
    assert len(catalogue_solves_up_to_24()) == 32


def _with_point(points, i, z=None, dm=0):
    """points with point i moved to z and its multiplicity raised by dm."""
    w, m = points[i]
    return points[:i] + ((w if z is None else z, m + dm),) + points[i + 1:]


# Broken copies of three solves, each with the tests it must fail: the first
# white vertex of multiplicity >= 1 raised by 1, black vertex 1 moved onto
# black vertex 0 and white vertex 1 onto white vertex 0, and black vertex 0
# moved by 1e-3.  A moved black vertex keeps every zero of S of these low
# multiplicities inside its circle, so only p's value there shows it; at
# F2:1,1,0,0 the 4-fold zero splits past the circle and the count fails too.
BROKEN = {
    "raised": {"F1:0,1 a": ("count", "value"), "F1:0,1 aba": ("count", "value"),
               "F2:1,1,0,0": ("count", "value")},
    "merged black": {"F1:0,1 a": ("separation", "count", "total", "value"),
                     "F1:0,1 aba": ("separation", "count", "total", "value"),
                     "F2:1,1,0,0": ("separation", "count", "total", "value")},
    "merged white": {"F1:0,1 a": ("separation", "count", "total", "value"),
                     "F1:0,1 aba": ("separation", "count", "total", "value"),
                     "F2:1,1,0,0": ("separation", "count", "total", "value")},
    "moved black": {"F1:0,1 a": ("value",), "F1:0,1 aba": ("value",),
                    "F2:1,1,0,0": ("value",)},
}


@pytest.mark.parametrize("construction", ["F1:0,1 a", "F1:0,1 aba", "F2:1,1,0,0"])
@pytest.mark.parametrize("broken", list(BROKEN))
def test_winding_census_names_the_test_a_broken_solution_fails(broken, construction):
    seed_text, _, word = construction.partition(" ")
    sol = shabat_for_derivation(parse_seed(seed_text), word, max_degree=18)
    assert winding_census(sol).matches
    black, white = sol.black_points, sol.white_points
    if broken == "raised":
        first = next(i for i, (_, m) in enumerate(white) if m >= 1)
        sol = sol._replace(white_points=_with_point(white, first, dm=1))
    elif broken == "merged black":
        sol = sol._replace(black_points=_with_point(black, 1, black[0][0]))
    elif broken == "merged white":
        sol = sol._replace(white_points=_with_point(white, 1, white[0][0]))
    else:
        sol = sol._replace(black_points=_with_point(black, 0, black[0][0] + 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        census = winding_census(sol)
    assert not census.matches
    assert census.failures == BROKEN[broken][construction]
    assert census.as_dict()["failed_tests"] == list(census.failures)


def test_winding_census_names_a_phase_step_it_cannot_trust(monkeypatch):
    # Eight samples around the 4-fold white vertex of F2:1,1,0,0 turn S by
    # about pi per step, where a step's direction is ambiguous.
    sol = shabat_for_derivation(parse_seed("F2:1,1,0,0"), "")
    monkeypatch.setattr(belyi_numeric, "_WINDING_SAMPLES", 8)
    census = winding_census(sol)
    assert "phase_step" in census.failures
    assert census.max_phase_step > belyi_numeric._MAX_PHASE_STEP


@pytest.mark.parametrize("d", [1, 2, 3, 50, 200])
def test_winding_census_matches_the_chebyshev_path(d):
    # T_d's critical points are its d - 1 interior vertices, all simple:
    # the white ones are the zeros of S, one per circle, B - 1 in all.
    census = winding_census(chebyshev_solution(d))
    assert census.failures == ()
    assert census.counts == census.mults == (1,) * ((d - 1) // 2)
    assert census.expected_total == (d + 1) // 2 - 1 == census.total


@pytest.mark.parametrize(
    "profile, counts",
    [
        (CriticalProfile([], [], 1, 1), ()),  # the single edge
        (CriticalProfile([5], [], 0, 6), ()),  # a black-centre star
        (CriticalProfile([], [5], 6, 0), (5,)),  # a white-centre star
    ],
    ids=["edge", "black star", "white star"],
)
def test_winding_census_of_the_smallest_trees(profile, counts):
    sol = shabat_solve(realize_profile(profile))
    census = winding_census(sol)
    assert (census.failures, census.counts, census.total) == ((), counts, sum(counts))
    assert sol.profile == profile


@pytest.mark.parametrize(
    "p", [(), (1.0,), (1.0, 2.0, 0.0), (0j, 1j, 0j)], ids=["empty", "constant", "real", "complex"]
)
def test_census_refuses_a_constant_or_a_zero_leading_coefficient(p):
    with pytest.raises(ValueError, match="census needs degree >= 1"):
        critical_census_uni(p)


def test_census_classical_cubic():
    census = critical_census_uni((0.0, -3.0, 0.0, 1.0))
    found = {
        (round(e.value.real), e.multiplicity, e.count) for e in census.entries
    }
    assert found == {(-2, 1, 1), (2, 1, 1)}
    assert census.total() == 2
    assert census.reliable


def test_census_squared_quadratic():
    # (w^2-1)^2: critical points at -1, 0, 1 with values 0, 1, 0.
    census = critical_census_uni((1.0, 0.0, -2.0, 0.0, 1.0))
    assert census.count_at(0.0) == 2
    assert census.count_at(1.0) == 1
    assert census.total() == 3
    assert all(e.multiplicity == 1 for e in census.entries)


def path_tree_profile():
    return CriticalProfile((), (1,), 2, 0)


def star_profile(d):
    return CriticalProfile((d - 1,), (), 0, d)


def test_degree_two_path():
    sol = shabat_solve(realize_profile(path_tree_profile()))
    assert sol.converged
    p = UniPoly(sol.polynomial())
    assert abs(p(0.0) + 1) < 1e-8
    assert abs(p(1.0) - 1) < 1e-8
    assert sol.degree == 2
    census = critical_census_uni(p.coeffs)
    assert census.count_at(1.0) == 1
    assert census.total() == 1


def test_degree_five_star():
    sol = shabat_solve(realize_profile(star_profile(5)))
    assert sol.converged
    p = UniPoly(sol.polynomial())
    census = critical_census_uni(p.coeffs)
    assert census.count_at(-1.0) == 1
    entry = [e for e in census.entries if abs(e.value + 1) < 1e-6][0]
    assert entry.multiplicity == 4
    # the gauge puts the black center at 0, so p + 1 = 2 w^5
    assert abs(p(0.0) + 1) < 1e-10
    assert abs(p(1.0) - 1) < 1e-10


def _one_internal_vertex_profiles():
    yield pytest.param(CriticalProfile((), (), 1, 1), id="edge")
    for d in range(2, 13):
        yield pytest.param(star_profile(d), id=f"black-centre-{d}")
        yield pytest.param(CriticalProfile((), (d - 1,), d, 0), id=f"white-centre-{d}")


@pytest.mark.parametrize("profile", _one_internal_vertex_profiles())
def test_trees_with_one_internal_vertex_land_in_closed_form(profile):
    # g = t_lo + (t_hi - t_lo)·z^e lands them at restart 0.  The gauge's top
    # black and white vertices stay pinned at 0 and 1, and the other leaves
    # of each colour are listed in sorted order.
    tree = realize_profile(profile)
    sol = shabat_solve(tree)
    assert (sol.converged, sol.restarts_used) == (True, 0)
    assert sol.residual <= 1e-13
    for black, pinned, points in ((True, 0, sol.black_points), (False, 1, sol.white_points)):
        ids = [v for v in range(tree.vertex_count) if (tree.colors[v] == BLACK) == black]
        top = max(ids, key=lambda v: (tree.degree(v), -v))
        at = dict(zip(ids, (z for z, _ in points)))
        assert at[top] == pinned
        leaves = [at[v] for v in ids if v != top and tree.degree(v) == 1]
        assert leaves == sorted(leaves, key=lambda w: (round(w.real, 9), w.imag))
    if profile.black_mults:
        # A black centre at 0 and a white leaf at 1: p + 1 = 2·w^d.
        d = profile.degree
        assert sol.black_points == ((0, d - 1),)
        assert abs(sol.scale_constant - 2) <= 1e-13


def solved_base_surface_poly():
    return shabat_for_derivation(F1(0, 1), "")


def test_base_tree_solution_certifies_profile():
    tree = tree_for_derivation(F1(0, 1), "")
    sol = shabat_solve(tree)
    assert sol.converged
    assert sol.residual < 1e-8
    p = UniPoly(sol.polynomial())
    for a, mult in sol.black_points:
        assert abs(p(a) + 1) < 1e-8, (a, mult)
    for b, mult in sol.white_points:
        assert abs(p(b) - 1) < 1e-8, (b, mult)
    census = critical_census_uni(p.coeffs)
    assert census_matches_profile(census, profile_of(tree))
    assert census.total() == tree.edge_count - 1
    values = sorted(
        {round(e.value.real, 6) for e in census.entries if e.multiplicity >= 1}
    )
    assert values == [-1.0, 1.0]
    assert census.count_at(-1.0) == 3
    assert census.count_at(1.0) == 1


def test_unit_interval_census_of_solved_tree():
    sol = solved_base_surface_poly()
    u = UniPoly(sol.polynomial()).shift_constant(1).scale(0.5)
    census = critical_census_uni(u.coeffs)
    assert census.count_at(0.0) == 3
    assert census.count_at(1.0) == 1


def test_gauge_census_stable_across_rng_seeds():
    tree = tree_for_derivation(F1(0, 1), "")
    reference = None
    for seed in (0, 7, 23):
        sol = shabat_solve(tree, rng_seed=seed)
        assert sol.converged
        census = critical_census_uni(sol.polynomial())
        key = sorted(
            (round(e.value.real, 6), e.multiplicity, e.count)
            for e in census.entries
        )
        if reference is None:
            reference = key
        assert key == reference


def vertex_defects(sol):
    """|p+1| at the black and |p-1| at the white vertices, in product form.

    p+1 = c·∏black (w-a)^(m+1) and p-1 = c·∏white (w-b)^(m+1) with one c, so
    each vertex is checked on the factorization it is not a root of.  The
    expanded coefficients of sol.polynomial() alone round by about 2e-8 at
    the far vertices of the degree-15 tree.  The products run at 40 digits,
    taking the float positions and c as exact, so the check adds no
    rounding of its own.
    """
    with mpmath.workdps(40):

        def scaled_product(z, points):
            return sol.scale_constant * mpmath.fprod(
                (mpmath.mpc(z) - q) ** (m + 1) for q, m in points
            )

        black = [float(abs(scaled_product(a, sol.white_points) + 2)) for a, _ in sol.black_points]
        white = [float(abs(scaled_product(b, sol.black_points) - 2)) for b, _ in sol.white_points]
    return black, white


@pytest.mark.parametrize("word, degree", [("a", 12), ("ab", 15)], ids=["a", "ab"])
def test_solver_first_growth_step(word, degree):
    # Both trees are accepted on the full vertex system, after the leaves are
    # read from the product form and refined with the internal vertices.
    seed = F1(0, 1)
    sol = shabat_solve(tree_for_derivation(seed, word_from_str(word, seed)))
    assert sol.converged
    assert sol.degree == degree
    assert sol.residual < 1e-8
    black, white = vertex_defects(sol)
    assert max(black) < 1e-8, black
    assert max(white) < 1e-8, white
    census = critical_census_uni(sol.polynomial(), cluster_tol=1e-4)
    prof = profile_of(tree_for_derivation(seed, word_from_str(word, seed)))
    assert census_matches_profile(census, prof)


@pytest.mark.parametrize("word", ["a", "ab"])
def test_derivation_is_one_direct_solve(monkeypatch, word):
    seed = F1(0, 1)
    w = word_from_str(word, seed)
    solve, calls = belyi_numeric.shabat_solve, []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(belyi_numeric, "shabat_solve", counting)
    sol = shabat_for_derivation(seed, w)
    assert len(calls) == 1
    assert sol == solve(tree_for_derivation(seed, w))


def test_diverging_restarts_do_not_warn():
    # Some of these degree-27 restarts of the full system overflow on the way
    # out (numpy warns "overflow encountered in dot" without the solver's
    # errstate); their steps are rejected, and numpy must not write a
    # warning for them.
    tree = tree_for_derivation(F1(1, 1), "a")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoConvergenceError, match="full system"):
            shabat_solve(tree, max_degree=27, rng_seed=0, max_restarts=5)


def test_degree_guard():
    with pytest.raises(DegreeGuardError):
        shabat_for_derivation(F1(1, 1), "")
    tree = tree_for_derivation(F1(0, 1), "")
    with pytest.raises(DegreeGuardError):
        shabat_solve(tree, max_degree=8)


def test_five_letter_seed_realizes_profile_directly():
    seed = F2(1, 0, 0, 0)
    for word in enumerate_LE(seed, 2):
        tree = tree_for_derivation(seed, word)
        assert profile_of(tree) == trajectory(seed, word)[-1].profile


def test_failure_raises_without_restarts():
    tree = tree_for_derivation(F1(0, 1), "")
    with pytest.raises(ValueError, match="max_restarts must be >= 1, got 0"):
        shabat_solve(tree, max_restarts=0)


def test_negative_rng_seed_is_refused_before_any_restart():
    # This tree lands at restart 0, which draws no random numbers, so a
    # negative seed was once accepted here and refused by numpy only on
    # trees that need a random restart.
    tree = tree_for_derivation(F1(0, 1), "")
    assert shabat_solve(tree).restarts_used == 0
    with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
        shabat_solve(tree, rng_seed=-1)


@pytest.mark.parametrize("cluster_tol", [math.nan, math.inf, 0.0, -1.0])
def test_census_refuses_a_cluster_tolerance_out_of_range(cluster_tol):
    with pytest.raises(ValueError, match="cluster_tol must be finite and > 0"):
        critical_census_uni((0.0, 0.0, 1.0), cluster_tol)


def test_failure_names_the_closest_restart_and_its_rejection():
    tree = tree_for_derivation(F1(0, 1), "")
    with pytest.raises(NoConvergenceError) as info:
        shabat_solve(tree, tol=1e-30, max_restarts=2)
    assert re.search(
        r"closest restart [01] \(fnorm \d\.\d\de[-+]\d+\) failed: "
        r"vertex residual \d\.\d\de-\d+ > tol 1e-30",
        str(info.value),
    ), str(info.value)


@pytest.mark.parametrize(
    "seed_text, word, system",
    [
        ("F1:0,1", "a", r"degree 12, perfect-power system k=3, 2 unknowns"),
        ("F1:0,1", "aba", r"degree 18, perfect-power system k=3, 3 unknowns"),
        ("F2:1,1,0,0", "", r"degree 9, full system, 2 unknowns"),
    ],
)
def test_failure_names_the_system_it_ran(seed_text, word, system):
    # Every black degree of F1:0,1 is 3, so Newton runs on g = (p + 1)^(1/3)
    # with only its critical vertices as unknowns; F2:1,1,0,0 has black
    # leaves (k = 1) and runs the full internal-vertex system.
    seed = parse_seed(seed_text)
    with pytest.raises(NoConvergenceError) as info:
        shabat_for_derivation(seed, word_from_str(word, seed), max_degree=18, tol=1e-30)
    assert re.search(
        r"no convergence after \d+ restarts \(" + system + r"\); closest restart \d+ "
        r"\(fnorm [^)]+\) failed: vertex residual \S+ > tol 1e-30",
        str(info.value),
    ), str(info.value)


def test_solution_serializes():
    sol = solved_base_surface_poly()
    obj = solution_to_json(sol)
    assert obj["residual"] < 1e-8
    assert len(obj["black"]) == len(sol.black_points)
    assert all({"re", "im", "mult"} <= set(pt) for pt in obj["black"])


def test_census_flags_never_lie_about_total():
    sol = solved_base_surface_poly()
    census = critical_census_uni(sol.polynomial(), cluster_tol=1e-12)
    # at an absurdly tight tolerance clustering may fail, but the total
    # critical-point count (with multiplicity) is still degree - 1
    assert census.total() == sol.degree - 1


# The solve workload's constructions, each solved for rng_seeds 0 and 1 at
# max_degree=18.  Expected: (restarts_used, census verdict), or the exception
# type when no restart is accepted.
SOLVE_PAIRS = {
    ("F2:1,0,0,0", "", 0): (0, True),
    ("F1:0,1", "", 0): (0, True),
    ("F1:0,1", "a", 0): (0, False),
    ("F1:0,1", "ab", 0): (0, False),
    ("F1:0,1", "aba", 0): (0, False),
    ("F2:1,1,0,0", "", 0): (0, False),
    ("F2:1,2,0,0", "", 0): (0, False),
    ("F3:1,1,0,1,0", "", 0): (0, False),
    ("F2:1,0,0,0", "", 1): (0, True),
    ("F1:0,1", "", 1): (0, True),
    ("F1:0,1", "a", 1): (0, False),
    ("F1:0,1", "ab", 1): (0, False),
    ("F1:0,1", "aba", 1): (0, False),
    ("F2:1,1,0,0", "", 1): (0, False),
    ("F2:1,2,0,0", "", 1): (0, False),
    ("F3:1,1,0,1,0", "", 1): (0, False),
}


def pair_id(pair):
    seed, word, rng_seed = pair
    return f"{seed}-{word or 'base'}-rng{rng_seed}"


@lru_cache(maxsize=None)
def solve_pair(seed_text, word_text, rng_seed):
    """The solution, or the exception the solve raised."""
    seed = parse_seed(seed_text)
    try:
        return shabat_for_derivation(
            seed, word_from_str(word_text, seed), max_degree=18, rng_seed=rng_seed
        )
    except NoConvergenceError as exc:
        return exc


@pytest.mark.parametrize("pair", list(SOLVE_PAIRS), ids=pair_id)
def test_solve_outcomes_are_pinned(pair):
    # A change to the Newton kernel that moves a restart into another basin
    # changes restarts_used, the census verdict or the exception.
    expected = SOLVE_PAIRS[pair]
    sol = solve_pair(*pair)
    if isinstance(expected, type):
        assert isinstance(sol, expected), sol
        return
    assert not isinstance(sol, Exception), sol
    seed = parse_seed(pair[0])
    profile = trajectory(seed, word_from_str(pair[1], seed))[-1].profile
    census = critical_census_uni(sol.polynomial())
    assert (sol.restarts_used, census_matches_profile(census, profile)) == expected


@pytest.mark.parametrize(
    "pair", [p for p, e in SOLVE_PAIRS.items() if isinstance(e, tuple)], ids=pair_id
)
def test_converged_solves_are_accurate_at_the_vertices(pair):
    black, white = vertex_defects(solve_pair(*pair))
    assert max(black + white) <= 1e-13


def exact_vertex_integrals(q, mults):
    """∫_0^{q_j} ∏_l (w − q_l)^m_l for each j, in exact Gaussian rationals."""
    zero = (Fraction(0), Fraction(0))
    qs = [(Fraction(z.real), Fraction(z.imag)) for z in q.tolist()]
    poly = [(Fraction(1), Fraction(0))]  # constant term first
    for (ar, ai), m in zip(qs, mults):
        for _ in range(int(m)):
            poly = [
                (s - ar * r + ai * i, t - ar * i - ai * r)
                for (s, t), (r, i) in zip([zero] + poly, poly + [zero])
            ]
    out = []
    for zr, zi in qs:
        acc = zero
        for k in range(len(poly) - 1, -1, -1):
            ar, ai = acc[0] + poly[k][0] / (k + 1), acc[1] + poly[k][1] / (k + 1)
            acc = (ar * zr - ai * zi, ar * zi + ai * zr)
        out.append(complex(float(acc[0]), float(acc[1])))
    return np.array(out)


def kernel_inputs(seed_text, word, rng_seed, degree):
    """Internal vertices of a solved tree at positions rounded to 1/1024, so
    the floats are exactly rational; their multiplicities; the rule."""
    seed = parse_seed(seed_text)
    sol = shabat_solve(
        tree_for_derivation(seed, word_from_str(word, seed)), max_degree=18, rng_seed=rng_seed
    )
    assert sol.degree == degree
    points = [(z, m) for z, m in sol.black_points + sol.white_points if m >= 1]
    q = np.array([complex(round(z.real * 1024), round(z.imag * 1024)) / 1024 for z, _ in points])
    mults = np.array([m for _, m in points])
    return q, mults, *belyi_numeric._gauss_legendre_01((degree + 1) // 2)


def kernel_jacobian(q, mults, nodes, weights):
    """∂S(q_j)/∂q_i for every i: −m_i times the sum without one copy of factor i."""
    rep = np.repeat(np.arange(len(q)), mults)
    drop = np.cumsum(mults) - mults
    factors = belyi_numeric._linear_factors(q, nodes, rep)
    pre = np.ones((len(rep) + 1,) + factors.shape[1:], dtype=complex)
    partials = belyi_numeric._antiderivative_partials(
        q, weights, factors, drop, drop + 1, pre, pre.copy()
    )
    return -mults * partials.T


def central_differences(q, mults, nodes, weights, h=1e-6):
    rep = np.repeat(np.arange(len(q)), mults)

    def integrals(x):
        factors = belyi_numeric._linear_factors(x, nodes, rep)
        return belyi_numeric._antiderivative_at_vertices(x, weights, factors)

    return np.stack(
        [(integrals(q + h * e) - integrals(q - h * e)) / (2 * h) for e in np.eye(len(q))],
        axis=1,
    )


KERNEL_CASES = {
    "d9": ("F1:0,1", "", 0, 9),
    "d15": ("F1:0,1", "ab", 0, 15),
    "d18": ("F1:0,1", "aba", 1, 18),
    # Four vertices of multiplicity 4: the Jacobian leaves out one of four
    # equal factors.
    "d18-mult4": ("F3:1,1,0,1,0", "", 0, 18),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES.values()), ids=list(KERNEL_CASES))
def test_quadrature_kernel_matches_exact_integration(case):
    q, mults, nodes, weights = kernel_inputs(*case)
    rep = np.repeat(np.arange(len(q)), mults)
    factors = belyi_numeric._linear_factors(q, nodes, rep)
    s_vals = belyi_numeric._antiderivative_at_vertices(q, weights, factors)
    exact = exact_vertex_integrals(q, mults)
    assert np.max(np.abs(s_vals - exact)) <= 1e-13 * np.max(np.abs(exact))

    jac = kernel_jacobian(q, mults, nodes, weights)
    central = central_differences(q, mults, nodes, weights)
    assert np.max(np.abs(jac - central)) <= 1e-7 * np.max(np.abs(jac))


def test_kernel_jacobian_is_finite_where_a_factor_vanishes():
    # Vertex 2 sits at t_1·q_1 with q_1 = 1, so the factor t_1·q_1 − q_2 is
    # exactly 0: a Jacobian that divided the full product by the left-out
    # factor would read 0/0 in row 1 of column 2.
    nodes, weights = belyi_numeric._gauss_legendre_01(5)
    q = np.array([0.25 + 0.5j, 1.0, nodes[1], 0.5 + 0.75j])
    mults = np.array([2, 2, 2, 2])
    rep = np.repeat(np.arange(len(q)), mults)
    factors = belyi_numeric._linear_factors(q, nodes, rep)
    assert np.count_nonzero(factors == 0) == 2  # both copies of factor 2, node 1, row 1
    assert np.all(factors[rep == 2][:, 1, 1] == 0)
    jac = kernel_jacobian(q, mults, nodes, weights)
    assert np.all(np.isfinite(jac))
    central = central_differences(q, mults, nodes, weights)
    assert np.max(np.abs(jac - central)) <= 1e-7 * np.max(np.abs(jac))


# sha256 of the bytes of the nodes, then the weights, of
# _gauss_legendre_01(n) for n = 1..60.
GAUSS_LEGENDRE_1_60_SHA256 = "07925a27eb4d9164c859db76daf25bbc6c571145f085ffd71571fb54c322f4e9"


def test_gauss_legendre_rules_are_frozen():
    digest = hashlib.sha256()
    for n in range(1, 61):
        nodes, weights = belyi_numeric._gauss_legendre_01(n)
        assert nodes.dtype == weights.dtype == np.float64
        assert nodes.shape == weights.shape == (n,)
        digest.update(nodes.tobytes())
        digest.update(weights.tobytes())
    assert digest.hexdigest() == GAUSS_LEGENDRE_1_60_SHA256


def reference_aberth(c, roots, iters=30):
    """Aberth iteration with c and c' evaluated by separate Horner loops."""

    def polyval(coeffs, z):
        r = np.full_like(z, coeffs[-1])
        for k in range(len(coeffs) - 2, -1, -1):
            r = r * z + coeffs[k]
        return r

    if len(roots) == 0:
        return roots
    dc = np.array([k * c[k] for k in range(1, len(c))], dtype=complex)
    z = roots.astype(complex).copy()
    best = z.copy()
    best_err = np.max(np.abs(polyval(c, z)))
    for _ in range(iters):
        f = polyval(c, z)
        fp = polyval(dc, z) if len(dc) else np.ones_like(z)
        fp = np.where(np.abs(fp) < 1e-300, 1e-300, fp)
        newton = f / fp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            repel = np.sum(1.0 / diff, axis=1)
            repel = np.where(np.isfinite(repel), repel, 0.0)
            denom = 1.0 - newton * repel
            step = np.where(np.abs(denom) > 1e-12, newton / denom, newton)
            step = np.where(np.isfinite(step), step, 0.0)
        mag = np.abs(step)
        step = np.where(mag > 0.5, step * (0.5 / np.maximum(mag, 1e-300)), step)
        z = z - step
        err = np.max(np.abs(polyval(c, z)))
        if err < best_err:
            best, best_err = z.copy(), err
    return best


def aberth_inputs():
    """Coefficients (constant term first) and np.roots starts: random
    polynomials, and polynomials whose roots are all double or all triple."""
    rng = np.random.default_rng(2024)
    for trial in range(60):
        deg = int(rng.integers(1, 25))
        if trial % 3 == 0:
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        else:
            r = rng.normal(size=max(1, deg // 3)) + 1j * rng.normal(size=max(1, deg // 3))
            c = np.poly(np.repeat(r, 2 + trial % 3))[::-1].astype(complex)
        yield c, np.roots(c[::-1])


def test_census_polish_lands_on_the_unfused_loop():
    # The census polishes with the leaves' Aberth iteration, which stops once
    # its steps reach rounding level and takes no 0.5 step clamp; the
    # reference runs every one of the census's _CENSUS_ITERS steps, so the
    # two agree to rounding.
    for c, roots in aberth_inputs():
        got = belyi_numeric._critical_points(c)
        want = reference_aberth(c, roots, iters=belyi_numeric._CENSUS_ITERS)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1, np.abs(want))), c


@pytest.mark.parametrize("seed_text, word", [("F1:0,1", "ab"), ("F2:1,2,0,0", "")])
def test_residual_and_scale_are_the_exact_defect_of_the_returned_points(seed_text, word):
    # The residual is the largest vertex defect at the returned points and
    # scale, up to the rounding of the solver's float products: each of their
    # d factors rounds once, relative to |ℓ·∏| = 2.
    seed = parse_seed(seed_text)
    sol = shabat_for_derivation(seed, word_from_str(word, seed))
    black, white = vertex_defects(sol)
    assert abs(sol.residual - max(black + white)) <= 2 * sol.degree * np.finfo(float).eps


def test_census_and_leaves_run_aberth_at_their_own_caps(monkeypatch):
    aberth, calls = belyi_numeric._aberth, []

    def counting(z, correction, repel, steps):
        calls.append((inspect.currentframe().f_back.f_code.co_name, steps))
        return aberth(z, correction, repel, steps)

    monkeypatch.setattr(belyi_numeric, "_aberth", counting)
    # An earlier solve of the tree would have left its restart 0 cached.
    belyi_numeric._tree_system.cache_clear()
    sol = shabat_solve(tree_for_derivation(F1(0, 1), word_from_str("ab", F1(0, 1))))
    assert calls and set(calls) == {("assemble", 64)}
    calls.clear()
    critical_census_uni(sol.polynomial())
    assert calls == [("_critical_points", belyi_numeric._CENSUS_ITERS)]


def test_aberth_builds_no_step_past_its_cap():
    # Each step sums the repulsions once, through np.where on the repel
    # mask.  At the cap the last iterate's error is read and no step follows
    # it: steps=2 reads three errors and sums the repulsions twice.  A
    # triple root converges linearly, so the stop rule does not fire first.
    repel_sums = []

    class CountingMask(np.ndarray):
        def __array_function__(self, func, types, args, kwargs):
            if func is np.where:
                repel_sums.append(func)
            return super().__array_function__(func, types, args, kwargs)

    errors = []

    def correction(w):
        errors.append(w)
        return np.abs(w - 1) ** 3, (w - 1) / 3

    z = np.array([2 + 1j, -1.5 - 0.5j, 0.3j])
    repel = (~np.eye(3, dtype=bool)).view(CountingMask)
    belyi_numeric._aberth(z, correction, repel, 2)
    assert (len(errors), len(repel_sums)) == (3, 2)


# Census of each solve-workload construction at max_degree 18 and the
# default cluster_tol, recorded before the census shared the leaves' Aberth
# iteration: (census_matches_profile, reliable, notes, entries as (value to
# 6 digits, multiplicity, count)), or None where the solve does not converge.
# The F1:0,1 solves run the perfect-power system (k = 3) and agree with the
# full system's to 1e-15 (test_perfect_power_solve_agrees_with_the_full_system),
# but the clustered census splits a double critical point by about 1e-6, so
# which ones it splits follows the last bits of the solution: `a` now splits
# one of them where the full system's solution split two.
CLOSE = "root clusters closer than 10x cluster_tol"
CENSUS_PINS = {
    ("F2:1,0,0,0", "", 0): (True, True, (), ((-1, 1, 1), (1, 1, 1))),
    ("F2:1,0,0,0", "", 1): (True, True, (), ((-1, 1, 1), (1, 1, 1))),
    ("F1:0,1", "", 0): (True, True, (), ((-1, 2, 3), (1, 2, 1))),
    ("F1:0,1", "", 1): (True, True, (), ((-1, 2, 3), (1, 2, 1))),
    ("F1:0,1", "a", 0): (False, False, (CLOSE,), ((-1, 1, 2), (-1, 2, 3), (1, 1, 1), (1, 2, 1))),
    ("F1:0,1", "a", 1): (False, False, (CLOSE,), ((-1, 1, 2), (-1, 2, 3), (1, 1, 1), (1, 2, 1))),
    ("F1:0,1", "ab", 0): (False, False, (CLOSE,), ((-1, 1, 6), (-1, 2, 2), (1, 1, 2), (1, 2, 1))),
    ("F1:0,1", "ab", 1): (False, False, (CLOSE,), ((-1, 1, 6), (-1, 2, 2), (1, 1, 2), (1, 2, 1))),
    ("F1:0,1", "aba", 0): (False, True, (), ((-1, 1, 8), (-1, 2, 2), (1, 1, 3), (1, 2, 1))),
    ("F1:0,1", "aba", 1): (False, True, (), ((-1, 1, 8), (-1, 2, 2), (1, 1, 3), (1, 2, 1))),
    ("F2:1,1,0,0", "", 0): (False, True, (), ((-1, 4, 1), (1, 1, 4))),
    ("F2:1,1,0,0", "", 1): (False, True, (), ((-1, 4, 1), (1, 1, 4))),
    ("F2:1,2,0,0", "", 0): (False, True, (), ((-1, 7, 1), (1, 1, 7))),
    ("F2:1,2,0,0", "", 1): (False, True, (), ((-1, 7, 1), (1, 1, 7))),
    ("F3:1,1,0,1,0", "", 0): (False, True, (), ((-1, 1, 9), (-1, 4, 1), (1, 1, 4))),
    ("F3:1,1,0,1,0", "", 1): (False, True, (), ((-1, 1, 9), (-1, 4, 1), (1, 1, 4))),
}


@pytest.mark.parametrize("key", list(CENSUS_PINS), ids=lambda k: f"{k[0]}-{k[1] or 'e'}-{k[2]}")
def test_solve_workload_censuses_are_pinned(key):
    seed_text, word_text, rng_seed = key
    seed = parse_seed(seed_text)
    word = word_from_str(word_text, seed)
    try:
        sol = shabat_for_derivation(seed, word, max_degree=18, rng_seed=rng_seed)
    except NoConvergenceError:
        assert CENSUS_PINS[key] is None
        return
    census = critical_census_uni(sol.polynomial())
    entries = tuple(
        (complex(round(e.value.real, 6), round(e.value.imag, 6)), e.multiplicity, e.count)
        for e in census.entries
    )
    profile = trajectory(seed, word)[-1].profile
    got = (census_matches_profile(census, profile), census.reliable, census.notes, entries)
    assert got == CENSUS_PINS[key]


@pytest.mark.parametrize("key", list(CENSUS_PINS), ids=lambda k: f"{k[0]}-{k[1] or 'e'}-{k[2]}")
def test_census_verdicts_do_not_depend_on_the_polish_budget(key, monkeypatch):
    # A multiple root of p′ converges only linearly, so the census runs to
    # its step cap; the steps past _CENSUS_ITERS only resample rounding, and
    # no verdict moves at any of the README's cluster tolerances.
    seed_text, word_text, rng_seed = key
    seed = parse_seed(seed_text)
    word = word_from_str(word_text, seed)
    p = shabat_for_derivation(seed, word, max_degree=18, rng_seed=rng_seed).polynomial()
    profile = trajectory(seed, word)[-1].profile

    def verdicts():
        tols = (1e-6, 1e-4, 1e-3)
        return [census_matches_profile(critical_census_uni(p, tol), profile) for tol in tols]

    capped = verdicts()
    monkeypatch.setattr(belyi_numeric, "_CENSUS_ITERS", 30)
    assert capped == verdicts()


def test_census_of_an_exact_triple_zero_is_one_point():
    # np.roots returns three exact copies of 0 for p' = 4z³; they must not
    # repel each other, as 1/(z_i − z_j) would be infinite.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        census = critical_census_uni((0, 0, 0, 0, 1.0))
    assert census.entries == (CensusEntry(value=0j, multiplicity=3, count=1),)


def test_degree_21_tree_within_tol_of_its_exact_defect_lands_at_once():
    # This tree's vertex products, expanded in the monomial basis, round to
    # a residual of 1.97e-10, above tol; in product form they stay at
    # rounding level.
    sol = shabat_solve(tree_for_derivation(parse_seed("F2:1,0,0,1"), ""), max_degree=21)
    assert (sol.degree, sol.restarts_used) == (21, 0)
    assert sol.residual <= belyi_numeric.DEFAULT_TOL


def test_vertex_residual_rejects_a_pseudo_solution():
    # Restart 1 lands Newton on a pseudo-solution at fnorm 2.4e-15, where the
    # internal-vertex and leaf equations hold and the vertex products of the
    # two colours do not share one ℓ: its vertex residual is 1.67e4.
    seed = parse_seed("F3:1,-1,0,2,0")
    with pytest.raises(NoConvergenceError) as info:
        shabat_solve(tree_for_derivation(seed, "a"), max_degree=33, rng_seed=1, max_restarts=2)
    found = re.search(
        r"closest restart 1 \(fnorm [^)]+\) failed: vertex residual (\S+) > tol", str(info.value)
    )
    assert found and float(found.group(1)) > 1e3, str(info.value)


@pytest.mark.parametrize("n", [3, 5, 12])
def test_second_family_lands_at_once_past_the_guard(n):
    # F2:1,n,0,0 has degree 6n + 3: 21, 33 and 75.
    sol = shabat_solve(tree_for_derivation(F2(1, n, 0, 0), ""), max_degree=6 * n + 3)
    assert (sol.degree, sol.restarts_used) == (6 * n + 3, 0)
    assert sol.residual <= 1e-10
    black, white = vertex_defects(sol)
    assert max(black + white) <= 1e-10


@pytest.mark.parametrize("seed_text", ["F1:1,1", "F2:1,3,0,0"])
def test_degree_21_constructions_are_accepted_at_the_default_tol(seed_text):
    sol = shabat_solve(tree_for_derivation(parse_seed(seed_text), ""), max_degree=21)
    assert sol.degree == 21
    assert sol.converged and sol.residual <= belyi_numeric.DEFAULT_TOL


def test_refinement_takes_a_moved_solution_back_to_rounding_level():
    # Gauss–Newton on the full vertex system needs the column of each row's
    # own vertex: without it the steps stall near the moved points.
    seed = F1(0, 1)
    sol = shabat_for_derivation(seed, word_from_str("ab", seed))
    points = sol.black_points + sol.white_points
    positions = np.array([z for z, _ in points])
    degs = np.array([m + 1 for _, m in points], dtype=float)
    black = np.arange(len(points)) < len(sol.black_points)
    free = [v for v, z in enumerate(positions) if z not in (0, 1)]  # the gauge pins 0 and 1
    rng = np.random.default_rng(0)
    moved = positions.copy()
    moved[free] += 1e-9 * (rng.normal(size=len(free)) + 1j * rng.normal(size=len(free)))
    plan = belyi_numeric._VertexPlan(black, degs, free)
    _, ell, residual = belyi_numeric._refine(plan, moved, sol.scale_constant)
    assert residual <= 1e-13
    assert abs(ell - sol.scale_constant) <= 1e-12 * abs(sol.scale_constant)


def test_same_color_gap_below_the_separation_is_rejected(monkeypatch):
    monkeypatch.setattr(belyi_numeric, "_MIN_SEPARATION", 10.0)
    belyi_numeric._tree_system.cache_clear()
    with pytest.raises(NoConvergenceError, match="same-color vertex gap"):
        shabat_solve(tree_for_derivation(F1(0, 1), ""), max_restarts=2)


def test_lone_critical_vertex_fails_after_its_one_restart(monkeypatch):
    # A lone critical vertex has one start, so a rejected landing ends the
    # solve whatever max_restarts allows, and the message counts one restart.
    monkeypatch.setattr(belyi_numeric, "_MIN_SEPARATION", 10.0)
    belyi_numeric._tree_system.cache_clear()
    with pytest.raises(NoConvergenceError) as info:
        shabat_solve(realize_profile(star_profile(5)), max_restarts=32)
    assert str(info.value) == (
        "no convergence after 1 restarts (degree 5, perfect-power system k=5, 1 unknown); "
        "closest restart 0 (fnorm 0.00e+00) failed: same-color vertex gap 1.18e+00 < 1e+01"
    )


def counting_refines(monkeypatch) -> list:
    """The list that grows by one per _refine call, from a cleared cache."""
    refine, calls = belyi_numeric._refine, []

    def counting(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(belyi_numeric, "_refine", counting)
    belyi_numeric._tree_system.cache_clear()
    return calls


def solve_bits(tree, **kwargs) -> bytes:
    """The solve's positions, ℓ, residual and restarts_used, packed, or its error."""
    try:
        sol = shabat_solve(tree, **kwargs)
    except NoConvergenceError as exc:
        return str(exc).encode()
    values = [z for z, _ in sol.black_points + sol.white_points] + [sol.scale_constant]
    return b"".join(_bits(values)) + struct.pack("<di", sol.residual, sol.restarts_used)


def test_restart_zero_of_a_solved_tree_is_not_solved_again(monkeypatch):
    tree = tree_for_derivation(F1(0, 1), word_from_str("ab", F1(0, 1)))
    refines = counting_refines(monkeypatch)
    cold = solve_bits(tree, rng_seed=1)
    assert len(refines) == 1
    belyi_numeric._tree_system.cache_clear()
    solve_bits(tree, rng_seed=0)
    refines.clear()
    assert solve_bits(tree, rng_seed=1) == cold
    assert refines == []


def test_each_solve_judges_the_stored_restart_zero_by_its_own_tol():
    tree = tree_for_derivation(F1(0, 1), word_from_str("ab", F1(0, 1)))
    belyi_numeric._tree_system.cache_clear()
    strict = shabat_solve(tree).residual / 2
    assert strict > 0
    warm = solve_bits(tree, tol=strict, max_restarts=3)
    belyi_numeric._tree_system.cache_clear()
    cold = solve_bits(tree, tol=strict, max_restarts=3)
    assert warm == cold
    assert cold.startswith(b"no convergence after 3 restarts")
    # The cached restart 0 that this tol rejected still lands at the default tol.
    assert shabat_solve(tree).restarts_used == 0


def test_later_restarts_draw_as_they_do_from_a_cleared_memo():
    # Restart 2 lands at rng_seed 0; seeds 1 to 3 exhaust their 32 restarts.
    tree = tree_for_derivation(parse_seed("F3:1,1,0,1,0"), "ab")
    cold = []
    for rng_seed in range(4):
        belyi_numeric._tree_system.cache_clear()
        cold.append(solve_bits(tree, max_degree=28, rng_seed=rng_seed))
    warm = [solve_bits(tree, max_degree=28, rng_seed=rng_seed) for rng_seed in range(4)]
    assert warm == cold
    assert shabat_solve(tree, max_degree=28).restarts_used == 2


def test_a_tree_of_lists_solves_and_shares_the_memo(monkeypatch):
    tree = tree_for_derivation(F1(0, 1), word_from_str("a", F1(0, 1)))
    listed = PlaneTree(list(tree.colors), [list(nbrs) for nbrs in tree.rotation])
    refines = counting_refines(monkeypatch)
    assert solve_bits(listed) == solve_bits(tree)
    assert len(refines) == 1


def test_the_memo_holds_at_most_its_bound(monkeypatch):
    # Relabelled black-centre stars with five leaves: each is another key.
    bound = belyi_numeric._tree_system.cache_info().maxsize
    refines = counting_refines(monkeypatch)
    stars = []
    for centre, *leaves in itertools.islice(itertools.permutations(range(6)), bound + 20):
        colors, rotation = [WHITE] * 6, [(centre,)] * 6
        colors[centre], rotation[centre] = BLACK, tuple(leaves)
        stars.append(PlaneTree(tuple(colors), tuple(rotation)))
    for star in stars:
        shabat_solve(star)
    assert len(refines) == bound + 20
    assert belyi_numeric._tree_system.cache_info().currsize == bound
    # The first star was dropped, the last one is still held.
    shabat_solve(stars[-1])
    shabat_solve(stars[0])
    assert len(refines) == bound + 21


# The solve workload's 18 solver inputs, (seed, word, max_degree, rng_seed):
# eight constructions at rng_seeds 0 and 1, then the two shabat commands.
SOLVE_WORKLOAD_INPUTS = [
    (seed_text, word, 18, rng_seed)
    for rng_seed in (0, 1)
    for seed_text, word in (
        ("F2:1,0,0,0", ""), ("F1:0,1", ""), ("F1:0,1", "a"), ("F1:0,1", "ab"),
        ("F1:0,1", "aba"), ("F2:1,1,0,0", ""), ("F2:1,2,0,0", ""), ("F3:1,1,0,1,0", ""),
    )
] + [("F1:0,1", "", 60, 0), ("F1:0,1", "a", 60, 0)]


def test_solve_workload_refines_each_tree_once(monkeypatch):
    # Every one of the 18 lands at restart 0, and 8 trees are distinct:
    # without the memo each solve refines, 18 calls.
    refines = counting_refines(monkeypatch)
    for seed_text, word, max_degree, rng_seed in SOLVE_WORKLOAD_INPUTS:
        seed = parse_seed(seed_text)
        sol = shabat_for_derivation(
            seed, word_from_str(word, seed), max_degree=max_degree, rng_seed=rng_seed
        )
        assert sol.restarts_used == 0
    assert len(refines) == 8


def counting_systems(monkeypatch) -> list:
    """The list that grows by one per _ShabatSystem built, from a cleared cache."""
    built = []

    class CountingSystem(belyi_numeric._ShabatSystem):
        def __init__(self, t):
            built.append(t)
            super().__init__(t)

    monkeypatch.setattr(belyi_numeric, "_ShabatSystem", CountingSystem)
    belyi_numeric._tree_system.cache_clear()
    return built


def test_solve_workload_builds_each_system_once(monkeypatch):
    # A memo hit that passes its tol returns before Newton's system is built:
    # 8 systems for the 18 inputs, where each solve built one before.
    built = counting_systems(monkeypatch)
    for seed_text, word, max_degree, rng_seed in SOLVE_WORKLOAD_INPUTS:
        seed = parse_seed(seed_text)
        shabat_for_derivation(
            seed, word_from_str(word, seed), max_degree=max_degree, rng_seed=rng_seed
        )
    assert len(built) == 8


def test_a_stored_restart_zero_that_fails_its_tol_builds_no_system(monkeypatch):
    # The cached system serves the later restarts of a rejected cache hit.
    tree = tree_for_derivation(F1(0, 1), word_from_str("ab", F1(0, 1)))
    built = counting_systems(monkeypatch)
    strict = shabat_solve(tree).residual / 2
    assert len(built) == 1
    belyi_numeric._tree_system.cache_clear()
    cold = solve_bits(tree, tol=strict, max_restarts=3)
    assert cold.startswith(b"no convergence after 3 restarts")
    built.clear()
    assert shabat_solve(tree).restarts_used == 0
    assert solve_bits(tree, tol=strict, max_restarts=3) == cold
    assert built == []


def test_later_restarts_of_every_rng_seed_share_one_system(monkeypatch):
    # Restart 2 lands at rng_seed 0; seeds 1 to 3 exhaust their 4 restarts,
    # each reading the one cached system.
    tree = tree_for_derivation(parse_seed("F3:1,1,0,1,0"), "ab")
    built = counting_systems(monkeypatch)
    got = [solve_bits(tree, max_degree=28, rng_seed=s, max_restarts=4) for s in range(4)]
    assert not got[0].startswith(b"no convergence")
    assert all(g.startswith(b"no convergence after 4 restarts") for g in got[1:])
    assert len(built) == 1


def test_a_cached_system_is_read_only():
    tree = tree_for_derivation(F1(0, 1), word_from_str("ab", F1(0, 1)))
    system = belyi_numeric._tree_system(tree.colors, tree.rotation)
    with pytest.raises(ValueError, match="read-only"):
        system.base[0] = 1.0


# The solver's work on fixed inputs, solved in this order from a cleared cache:
# (seed, word, max_degree, rng_seed, max_restarts).  The solve workload's 8
# constructions land at restart 0; F3:1,1,0,1,0 ab lands at restart 2 at
# rng_seed 0 and exhausts its 8 restarts at rng_seed 1, and F2:1,1,0,1
# exhausts its 8.
WORK_PIN_INPUTS = [
    (seed_text, word, 18, 0, 32) for seed_text, word, *_ in SOLVE_WORKLOAD_INPUTS[:8]
] + [
    ("F3:1,1,0,1,0", "ab", 28, 0, 8),
    ("F3:1,1,0,1,0", "ab", 28, 1, 8),
    ("F2:1,1,0,1", "", 36, 0, 8),
]
# Per input: Newton steps, line-search trials (the _s_at calls after each
# Newton run's first), _refine's Gauss–Newton steps (its _pull calls) and the
# leaf Aberth corrections.  A change that saves steps updates these; one that
# adds steps fails here.
WORK_PINS = {
    "F2:1,0,0,0 - 0": (0, 0, 3, 3),
    "F1:0,1 - 0": (0, 0, 3, 5),
    "F1:0,1 a 0": (0, 0, 3, 5),
    "F1:0,1 ab 0": (0, 0, 2, 5),
    "F1:0,1 aba 0": (6, 6, 3, 5),
    "F2:1,1,0,0 - 0": (0, 0, 4, 6),
    "F2:1,2,0,0 - 0": (0, 0, 2, 7),
    "F3:1,1,0,1,0 - 0": (15, 30, 2, 8),
    "F3:1,1,0,1,0 ab 0": (140, 444, 2, 11),
    "F3:1,1,0,1,0 ab 1": (457, 1698, 1, 11),
    "F2:1,1,0,1 - 0": (128, 361, 1, 42),
}


def counting_work(monkeypatch) -> collections.Counter:
    """The counter of the solver's steps, by kind, from a cleared cache."""
    work, system = collections.Counter(), belyi_numeric._ShabatSystem
    newton, s_at = system.newton, system._s_at
    pull, aberth = belyi_numeric._pull, belyi_numeric._aberth

    def counting_newton(self, q0):
        out = newton(self, q0)
        work["newton steps"] += out[1]
        work["line-search trials"] -= len(self.crit) > 1  # its first _s_at is no trial
        return out

    def counting_s_at(self, q):
        work["line-search trials"] += 1
        return s_at(self, q)

    def counting_pull(*args, **kwargs):
        work["refine steps"] += 1
        return pull(*args, **kwargs)

    def counting_aberth(z, correction, *args):
        def counted(z):
            work["leaf corrections"] += 1
            return correction(z)

        return aberth(z, counted, *args)

    monkeypatch.setattr(system, "newton", counting_newton)
    monkeypatch.setattr(system, "_s_at", counting_s_at)
    monkeypatch.setattr(belyi_numeric, "_pull", counting_pull)
    monkeypatch.setattr(belyi_numeric, "_aberth", counting_aberth)
    belyi_numeric._tree_system.cache_clear()
    return work


def solving_the_work_pin_inputs():
    """Solve each work-pin input in turn, yielding its key once it is done."""
    for seed_text, word, max_degree, rng_seed, max_restarts in WORK_PIN_INPUTS:
        seed = parse_seed(seed_text)
        try:
            shabat_for_derivation(
                seed, word_from_str(word, seed), max_degree=max_degree, rng_seed=rng_seed,
                max_restarts=max_restarts,
            )
        except NoConvergenceError:
            pass
        yield f"{seed_text} {word or '-'} {rng_seed}"


def test_the_solver_work_on_the_pinned_inputs_is_pinned(monkeypatch):
    work, got = counting_work(monkeypatch), {}
    for key in solving_the_work_pin_inputs():
        got[key] = tuple(
            work[kind] for kind in
            ("newton steps", "line-search trials", "refine steps", "leaf corrections")
        )
        work.clear()
    assert got == WORK_PINS


def packed(*values) -> bytes:
    """Every entry of each value, in order, packed as _bits packs it."""
    return b"".join(b for value in values for b in _bits(np.atleast_1d(value).tolist()))


def test_the_vertex_system_gives_its_reference_results_bit_for_bit(monkeypatch):
    # On every landing of the work-pin inputs, and on every product the
    # landings take, the solver's helpers and the reference reduce the same
    # operands in the same layout, in one process, so the bytes agree on any
    # BLAS.
    compared = collections.Counter()
    opposite = belyi_numeric._opposite_products
    refine, gap = belyi_numeric._refine, belyi_numeric._min_same_color_gap

    def checked_opposite(plan, positions):
        out = opposite(plan, positions)
        assert packed(out) == packed(
            vertex_reference.opposite_products(positions, plan.black, plan.degs)
        )
        compared["products"] += 1
        return out

    def checked_refine(plan, positions, ell):
        out = refine(plan, positions, ell)
        expected = vertex_reference.refine(
            positions, ell, plan.black, plan.degs, plan.free.tolist()
        )
        assert packed(*out) == packed(*expected)
        compared["landings"] += 1
        return out

    def checked_gap(plan, positions):
        out = gap(plan, positions)
        assert packed(out) == packed(vertex_reference.min_same_color_gap(positions, plan.black))
        compared["gaps"] += 1
        return out

    monkeypatch.setattr(belyi_numeric, "_opposite_products", checked_opposite)
    monkeypatch.setattr(belyi_numeric, "_refine", checked_refine)
    monkeypatch.setattr(belyi_numeric, "_min_same_color_gap", checked_gap)
    belyi_numeric._tree_system.cache_clear()
    for _ in solving_the_work_pin_inputs():
        pass
    assert compared["gaps"] == compared["landings"] >= len(WORK_PIN_INPUTS)
    assert compared["products"] > 2 * compared["landings"]


# sha256 of the starts of restarts 0 to 3 at rng_seed 0, each critical
# vertex's start packed as two little-endian doubles, recorded from the
# solver before it was split into system, starts and acceptance.
PARENT_STARTS = {
    ("F3:1,1,0,1,0", "ab"): "f206b8692b7bee2bc0b4e50e6c5c68b3514d6590172058451b3a6e2a53af3099",
    ("F1:0,1", "ab"): "529000039944e59d0dcd939f139807746dd14e708630a8b862b58bd54e6a1cf4",
}


@pytest.mark.parametrize("key", list(PARENT_STARTS), ids=" ".join)
def test_starts_are_the_parents_draws(key):
    seed = parse_seed(key[0])
    system = belyi_numeric._ShabatSystem(tree_for_derivation(seed, word_from_str(key[1], seed)))
    starts = list(itertools.islice(belyi_numeric._starts(system, 0), 4))
    packed = b"".join(b"".join(_bits(q)) for q in starts)
    assert hashlib.sha256(packed).hexdigest() == PARENT_STARTS[key]


def test_a_lone_critical_vertex_has_one_start_and_no_newton():
    # F1:0,1 has k = 3, and its only critical vertex of g is the centre.
    system = belyi_numeric._ShabatSystem(tree_for_derivation(F1(0, 1), ""))
    assert (system.k, len(system.crit)) == (3, 1)
    (start,) = belyi_numeric._starts(system, 0)
    fnorm, steps, verdict, _ = system.newton(start)
    assert (fnorm, steps, verdict) == (0.0, 0, None)


def test_accept_names_the_test_that_rejects_a_landing():
    landing = belyi_numeric._Restart(1e-14, 5, residual=3e-9, gap=0.5)
    assert belyi_numeric._accept(landing, 1e-10) == "vertex residual 3.00e-09 > tol 1e-10"
    assert belyi_numeric._accept(landing, 1e-8) is None
    close = landing._replace(residual=1e-12, gap=2e-7)
    assert belyi_numeric._accept(close, 1e-10) == "same-color vertex gap 2.00e-07 < 1e-06"
    stalled = belyi_numeric._Restart(3e-5, 120, verdict="fnorm 3.00e-05 > 1e-6")
    assert belyi_numeric._accept(stalled, 1e-10) == "fnorm 3.00e-05 > 1e-6"


def test_a_landing_is_judged_by_each_tol():
    # F3:1,1,0,1,0 has 5 critical vertices, so Newton moves 3 of them.
    system = belyi_numeric._ShabatSystem(tree_for_derivation(parse_seed("F3:1,1,0,1,0"), ""))
    landing = belyi_numeric._land(system, next(belyi_numeric._starts(system, 0)))
    assert landing.verdict is None and landing.steps > 0
    assert belyi_numeric._accept(landing, belyi_numeric.DEFAULT_TOL) is None
    strict = landing.residual / 2
    assert belyi_numeric._accept(landing, strict) == (
        f"vertex residual {landing.residual:.2e} > tol {strict:.0e}"
    )


def test_census_off_the_profile_values_does_not_match():
    profile = profile_of(tree_for_derivation(F1(0, 1), ""))
    p = solved_base_surface_poly().polynomial()
    assert census_matches_profile(critical_census_uni(p), profile)
    # Critical values -0.5 and 1.5 are off target; -1 + 0.5i and 1 + 0.5i are not real.
    for shift in (0.5, 0.5j):
        shifted = UniPoly(p).shift_constant(shift).coeffs
        assert not census_matches_profile(critical_census_uni(shifted), profile)


# F1:0,1 solved by the full internal-vertex system, before its black degrees
# (all 3) put it on the perfect-power system: (ℓ, the black then the white
# positions, in vertex order), at rng_seed 0, and at rng_seed 1 for aba,
# which the full system landed at restart 2 and missed at rng_seed 0.
PARENT_SOLUTIONS = {
    ('', 0): (
        (2+1.016786676518997e-16j),
        (
            0j, (1.5-0.8660254037844387j),
            (1.5+0.8660254037844386j), (1+0j),
            (-0.18269202433620207-0.2085405137591849j), (-0.1826920243362021+0.2085405137591849j),
            (1.4107446295343886-1.128511594807987j), (1.4107446295343886+1.128511594807987j),
            (1.7719473948018134-0.9199710810488021j), (1.7719473948018134+0.9199710810488021j),
        ),
    ),
    ('a', 0): (
        (0.047608184442995534-0.032528873740543904j),
        (
            0j, (1.8283687745739268-1.0045904144505218j),
            (1.3467894121898067+0.9172561650264884j), (1.9835901617095408-2.357173219324021j),
            (1+0j), (-0.18759512444846144-0.17724548055119077j),
            (-0.1539509910247745+0.2014474597399311j), (1.869061261354956-1.8333806015610408j),
            (1.2214003501262458+1.1304195774954415j), (1.5745768167881373+1.0208062746340962j),
            (1.8693113771729482-2.51836756182877j), (2.1587483484732743-2.4445074687480544j),
            (2.255631745622542-0.879314003863535j),
        ),
    ),
    ('ab', 0): (
        (0.0001902116729925119-0.0003103358345791225j),
        (
            0j, (2.0281914156408036-1.0599737794139312j),
            (1.272825341641998+0.9324287157122096j), (1.7648357389635323-3.333242047587742j),
            (3.251469596751049-2.804633087116398j), (1+0j),
            (-0.18973384471608057-0.1624814349701705j), (-0.14059447881365394+0.1982775791677596j),
            (2.3269288371989534-2.5061680793623444j), (1.134743960064173+1.1212066997059962j),
            (1.4771300602141775+1.0548064605134126j), (1.5238034891632166-3.398836278255612j),
            (1.849798776984776-3.5609745398757573j), (2.5185201269794-0.8003617796683563j),
            (3.329988361506674-3.024947405217719j), (3.467523316012607-2.704445658530104j),
        ),
    ),
    ('aba', 1): (
        (6.24627231963778e-07-5.583463057778041e-07j),
        (
            0j, (2.148699127921106-1.0457028677508255j),
            (1.2312643640644494+0.9285922577900209j), (2.314600712506021-4.14433503642495j),
            (3.9460146116325348-2.695896178417646j), (1.4595098579760695-5.1577950922251325j),
            (1+0j), (-0.19303858092807868-0.15436275713396044j),
            (-0.13266559571666042+0.19837019141832263j), (2.763836502234812-2.682620615145812j),
            (1.090430291588936+1.1028483705399508j), (1.2848738895985286-5.196399592624379j),
            (1.4205404104201378+1.0568778797388187j), (1.7224008906138595-4.7307062005654865j),
            (1.5207043526922663-5.322523142748238j), (2.6387116466633844-0.7026104081604866j),
            (2.677354528676129-4.411861333672669j), (4.1191835355482205-2.899599721143064j),
            (4.137860255825522-2.506875990731485j),
        ),
    ),
}


@pytest.mark.parametrize("key", list(PARENT_SOLUTIONS), ids=lambda k: k[0] or "base")
def test_perfect_power_solve_agrees_with_the_full_system(key):
    word, rng_seed = key
    scale, positions = PARENT_SOLUTIONS[key]
    sol = shabat_solve(tree_for_derivation(F1(0, 1), word), max_degree=18, rng_seed=rng_seed)
    assert sol.restarts_used == 0
    got = [z for z, _ in sol.black_points + sol.white_points]
    assert max(abs(a - b) for a, b in zip(got, positions, strict=True)) <= 1e-12
    assert abs(sol.scale_constant - scale) <= 1e-12 * abs(scale)


@pytest.mark.parametrize("seed_text, word, k", [("F1:0,1", "ab", 3), ("F2:1,0,1,2", "", 4)])
def test_labels_turn_by_a_kth_root_of_unity_around_each_black_vertex(seed_text, word, k):
    tree = tree_for_derivation(parse_seed(seed_text), word)
    label = belyi_numeric._power_labels(tree, k, 0)
    for v, nbrs in enumerate(tree.rotation):
        if tree.colors[v] == "black":
            assert label[v] == 0
            turns = [label[b] / label[a] for a, b in zip(nbrs, nbrs[1:] + nbrs[:1])]
            assert np.allclose(turns, np.exp(2j * np.pi / k), atol=1e-15)
    full = belyi_numeric._power_labels(tree, 1, 0)
    assert set(full.tolist()) == {-1, 1}


@pytest.mark.parametrize(
    "seed_text, word, degree",
    [("F1:0,1", w, 9 + 3 * len(w)) for w in ("", "a", "ab", "aba", "abab", "ababa")]
    + [("F1:0,2", w, 36 + 6 * len(w)) for w in ("", "a", "ab", "aba", "abab")]
    # Black hubs of degrees 4 and 8: k = 4, and the degree-8 hubs are
    # critical points of g with target 0.
    + [("F2:1,0,1,2", "", 60)],
)
def test_perfect_power_passports_land_at_once_past_the_guard(seed_text, word, degree):
    seed = parse_seed(seed_text)
    sol = shabat_solve(tree_for_derivation(seed, word_from_str(word, seed)), max_degree=degree)
    assert (sol.degree, sol.restarts_used) == (degree, 0)
    black, white = vertex_defects(sol)
    assert max(black + white) <= 1e-10
