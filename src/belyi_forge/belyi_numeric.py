"""Numeric realization of plane trees as polynomials with critical values ±1.

The solver exploits the factorization p+1 = ℓ·∏_black (w-a)^deg and
p-1 = ℓ·∏_white (w-b)^deg.  When every black degree is a multiple of
k > 1, p + 1 = 2·g^k with deg g = d/k (Ritt 1922; Adrianov & Zvonkin
1998), and Newton runs on g's critical vertices (see _ShabatSystem); for
k = 1 it is the same loop on g = p.  The solver, the winding census of p's
critical points and the U census of the surfaces (vertex_u_census) all read
products of linear factors; only ShabatSolution.polynomial() expands
coefficients, for the older root census critical_census_uni, which the
benchmark harness still reads.  numpy is bound by lazy_numpy, here and in
the other two numeric modules, so it executes on the first numeric call,
never on import.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import sys
from collections.abc import Iterator
from functools import cache, lru_cache
from itertools import combinations, count
from types import ModuleType
from typing import NamedTuple

from .profile_core import CriticalProfile
from .seed_families import SeedSpec
from .tree_realization import BLACK, PlaneTree, dfs_order, derive_tree, realize_profile
from .word_engine import trajectory, uses_t2


def lazy_numpy() -> ModuleType:
    """numpy, bound now and executed on its first attribute access.

    The numeric modules bind ``np = lazy_numpy()``, so importing the package
    or running a combinatorial command (table, seeds, families, enumerate,
    derive, export) never executes numpy; shabat, jd-verify and
    surface-verify execute it on their first ``np.`` lookup.  After that the
    module is a plain module again and lookups cost nothing extra.  If numpy
    is already imported, that module is returned as it is.  LazyLoader is not
    thread-safe on first access on Python 3.10 and 3.11; the package starts
    no threads, so no two threads can race to execute numpy.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = lazy_numpy()

DEGREE_GUARD = 16
DEFAULT_TOL = 1e-10
DEFAULT_CLUSTER_TOL = 1e-6
# Every census compares a critical value with its target within this.
VALUE_TOL = 1e-6

_MIN_SEPARATION = 1e-6
_NEWTON_ITERS = 120
_LEAF_ITERS = 64  # the leaves of F2:1,20,0,0 (d=123) take 31
# Steps past 8 only resample rounding: over the 209 censuses of
# constructions_up_to(45), the best max|p′| of 9 iterates is 1.3x that of 31
# at the median, and no census_matches_profile verdict moves at any cap from
# 5 to 30 tried (cluster_tol 1e-6, 1e-4 and 1e-3).
_CENSUS_ITERS = 8
_REFINE_STEPS = 4
# winding_census: samples per circle, circle radius over the distance to the
# nearest other vertex, and the largest phase step it trusts a count across.
_WINDING_SAMPLES = 256
_WINDING_RADIUS = 0.4
_MAX_PHASE_STEP = math.pi / 2


class NoConvergenceError(RuntimeError):
    """All restarts exhausted without meeting the residual tolerance."""


class DegreeGuardError(ValueError):
    """Requested degree exceeds the solver's scope guard."""


class ShabatSolution(NamedTuple):
    """Solved vertex positions for a plane tree.

    black_points and white_points are (position, multiplicity) pairs;
    leaves appear with multiplicity 0.  scale_constant is the ℓ in
    p+1 = ℓ·∏_black (w-a)^(mult+1) and p-1 = ℓ·∏_white (w-b)^(mult+1);
    residual is the largest vertex defect at the returned points, in float
    products of linear factors: |ℓ·∏_white (a-b)^(mult+1) + 2| at each
    black vertex a and |ℓ·∏_black (b-a)^(mult+1) - 2| at each white vertex b.
    """

    black_points: tuple[tuple[complex, int], ...]
    white_points: tuple[tuple[complex, int], ...]
    scale_constant: complex
    residual: float
    converged: bool
    restarts_used: int = 0

    @property
    def degree(self) -> int:
        return sum(m + 1 for _, m in self.black_points)

    @property
    def profile(self) -> CriticalProfile:
        """The passport the points carry: multiplicities m ≥ 1, and leaves."""
        black = [m for _, m in self.black_points]
        white = [m for _, m in self.white_points]
        return CriticalProfile(
            [m for m in black if m], [m for m in white if m], black.count(0), white.count(0)
        )

    def polynomial(self) -> tuple[complex, ...]:
        """p = ℓ·∏_black (w-a)^(mult+1) - 1 as complex coefficients, constant term first.

        Each linear factor w − a maps the coefficients term by term in the
        order of the schoolbook product, int 0 and 1 included, so every bit
        (signed zeros too) is that product's.  The expansion is
        ill-conditioned at high degree: its coefficients span many orders of
        magnitude and round far above the residual.  It is kept for the
        univariate census only; the solver and the surface census never form it.
        """
        cs = [1]
        for a, m in self.black_points:
            for _ in range(m + 1):
                middle = ((0 + x * 1) + y * -a for x, y in zip(cs, cs[1:]))
                cs = [0 + cs[0] * -a, *middle, 0 + cs[-1] * 1]
        cs = [c * self.scale_constant for c in cs]
        cs[0] = cs[0] + -1
        return tuple(cs)


def solution_to_json(s: ShabatSolution) -> dict:
    def pts(items):
        return [{"re": p.real, "im": p.imag, "mult": m} for p, m in items]

    return {
        "black": pts(s.black_points),
        "white": pts(s.white_points),
        "c": {"re": s.scale_constant.real, "im": s.scale_constant.imag},
        "residual": s.residual,
        "converged": s.converged,
        "degree": s.degree,
    }


@cache
def _gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss–Legendre rule on [0, 1], exact to degree 2n-1.

    Newton on P_n, run by the three-term recurrence, from the classical
    guesses cos(π(i - 1/4)/(n + 1/2)).  Six steps reach rounding level:
    the fourth correction is already below 1e-14 for every n up to 60.
    The weights are 2/((1-x²)·P_n'(x)²), halved for the unit interval.
    The rule is worked out once per n and shared by every solve, so both
    arrays are read-only.
    """
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p_prev, p, dp = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
        for j in range(1, n + 1):
            p_prev, p, dp = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j, x * dp + j * p
        x = x - p / dp
    nodes, weights = (x + 1) / 2, 1 / ((1 - x) * (1 + x) * dp * dp)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _linear_factors(
    q: np.ndarray, nodes: np.ndarray, rep: np.ndarray, at: np.ndarray | None = None
) -> np.ndarray:
    """t_k·z_j − q_rep[r] at the points z = at (q by default), factor-major.

    Shape (len(rep), len(nodes), len(z)).
    """
    z = q if at is None else at
    return (nodes[:, None] * z)[None] - q[rep][:, None, None]


def _antiderivative_at_vertices(
    q: np.ndarray, weights: np.ndarray, factors: np.ndarray
) -> np.ndarray:
    """q_j·Σ_k w_k·∏_r (t_k·q_j − q_rep[r]), the integral of ∏_r (w − q_rep[r]) over [0, q_j].

    factors is _linear_factors(·, nodes, rep, q): q may be any points, not
    only the vertices the factors are built from.  rep lists each vertex once
    per power of its linear factor, so the product needs no complex power.
    (t_k, w_k) is a quadrature rule on [0, 1]; the sum is the integral when
    the rule is exact to the integrand's degree, len(rep).  The products of
    linear factors keep each term's relative error at rounding level;
    Horner on the expanded coefficients loses digits at the far vertices.
    """
    return q * (weights @ np.multiply.reduce(factors, axis=0))


def _antiderivative_partials(
    q: np.ndarray, weights: np.ndarray, factors: np.ndarray, drop: np.ndarray
) -> np.ndarray:
    """_antiderivative_at_vertices with factor drop[i] left out, one row per i.

    The product without factor r is the product of the factors before it
    times the product of those after it, read off cumulative products taken
    forward and backward.  Dividing the full product by t_k·q_j − q_i
    instead would fail where that factor vanishes.
    """
    pre = np.ones((len(factors) + 1,) + factors.shape[1:], dtype=complex)
    suf = pre.copy()
    np.cumprod(factors, axis=0, out=pre[1:])
    np.cumprod(factors[::-1], axis=0, out=suf[-2::-1])
    return q * (weights @ (pre[drop] * suf[drop + 1]))


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a complex vector, by numpy.linalg.norm's own arithmetic."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _radial_layout(t: PlaneTree) -> np.ndarray:
    """Unit-edge radial plane-tree drawing, sectors sized by leaf count.

    Rooted at the highest-degree vertex; each child sits one unit step
    from its parent in the middle of its angular sector, and children
    keep their rotation order.  Unit edges with angular sibling
    separation approximate the geometry the vertex equations settle
    into; drawings that put sibling same-color vertices close together
    feed Newton into the basin where they merge and p degenerates.
    """
    rotation = t.rotation
    n = len(rotation)
    root = max(range(n), key=lambda v: (len(rotation[v]), -v))
    parent: dict[int, int | None] = {root: None}
    order = dfs_order(t, root)
    for v in order:
        for u in rotation[v]:
            if u not in parent:
                parent[u] = v
    children = {v: [u for u in rotation[v] if parent.get(u) == v] for v in order}
    weight = {v: 1 for v in order}
    for v in reversed(order):
        if children[v]:
            weight[v] = sum(weight[u] for u in children[v])
    pos = np.zeros(n, dtype=complex)

    def assign(v: int, a0: float, a1: float) -> None:
        if parent[v] is not None:
            pos[v] = pos[parent[v]] + cmath.exp(1j * (a0 + a1) / 2)
        a = a0
        for u in children[v]:
            da = (a1 - a0) * weight[u] / weight[v]
            assign(u, a, a + da)
            a += da

    assign(root, 0.0, 2 * math.pi)
    return pos


def _min_same_color_gap(positions: np.ndarray, black: np.ndarray) -> float:
    pairs = (pq for side in (black, ~black) for pq in combinations(positions[side], 2))
    return min((abs(p - q) for p, q in pairs), default=math.inf)


def _aberth(z: np.ndarray, correction, repel: np.ndarray, steps: int) -> np.ndarray:
    """Roots found together by Aberth's iteration: the best iterate by max error.

    correction(z) gives each root's error and its Newton correction f/f′.
    Roots i and j repel only where repel[i, j].  Steps stop after steps of
    them, whose last iterate's error is read but no step is built from it,
    or after a step below 1e-12 of every root's modulus: at simple
    roots the iteration converges cubically, so the iterate that step
    reaches is at rounding level.  It has two callers.  Shabat's leaves
    (steps _LEAF_ITERS) are simple roots, and leaves of one colour repel.
    The census polishes np.roots' roots of p′ (steps _CENSUS_ITERS), where
    only starts that differ repel (see _critical_points).
    """
    best, best_err, step = z, math.inf, np.inf
    for taken in range(steps + 1):
        err, newton = correction(z)
        if np.max(err) < best_err:
            best, best_err = z, np.max(err)
        if taken == steps or np.all(np.abs(step) <= 1e-12 * np.abs(z)):
            break
        pull = np.sum(1 / np.where(repel, z[:, None] - z, np.inf), axis=1)
        step = newton / (1 - newton * pull)
        z = z - step
        if not np.all(np.isfinite(z)):
            break
    return best


def _opposite_products(positions: np.ndarray, black: np.ndarray, degs) -> np.ndarray:
    """∏ (v − u)^deg_u over the vertices u of the other colour, at every vertex v.

    Each u is repeated deg_u times as a linear factor, so no complex power
    is taken.
    """
    out = np.empty(len(positions), dtype=complex)
    black_idx, white_idx = np.flatnonzero(black), np.flatnonzero(~black)
    for rows, cols in ((black_idx, white_idx), (white_idx, black_idx)):
        rep = np.repeat(cols, degs[cols].astype(int))
        out[rows] = np.multiply.reduce(positions[rows][:, None] - positions[rep], axis=1)
    return out


def _pull(positions: np.ndarray, black: np.ndarray, degs, rows=slice(None)) -> np.ndarray:
    """deg_u/(v − u), one row per vertex v of rows: 0 where u has v's colour."""
    other = np.where(black[rows, None] != black, degs, 0.0)
    return other / np.where(other > 0, positions[rows, None] - positions, 1.0)


def _solution(positions, degs, black, ell, residual) -> ShabatSolution:
    """The converged solution at these vertices, each colour in index order."""
    points = [(complex(z), int(m) - 1) for z, m in zip(positions, degs)]
    return ShabatSolution(
        black_points=tuple(points[v] for v in np.flatnonzero(black)),
        white_points=tuple(points[v] for v in np.flatnonzero(~black)),
        scale_constant=complex(ell), residual=residual, converged=True,
    )


def _refine(
    positions: np.ndarray, ell: complex, black: np.ndarray, degs, free
) -> tuple[np.ndarray, complex, float]:
    """Gauss–Newton on the full vertex system: best iterate, its ℓ and max|r|.

    r(v) = ℓ·∏_black (v − a)^deg − 2 at each white vertex v, and
    ℓ·∏_white (v − b)^deg + 2 at each black one.  The unknowns are the free
    positions and log ℓ.  Moving the evaluation vertex v itself changes its
    row by ℓ·∏·Σ deg/(v − u); moving a vertex u of the other colour, by
    −deg_u·ℓ·∏/(v − u).  Steps stop at _REFINE_STEPS or once max|r| stops
    falling.
    """
    target = np.where(black, -2.0, 2.0)
    vals = ell * _opposite_products(positions, black, degs)
    best = (positions, ell, float(np.max(np.abs(vals - target))))
    for _ in range(_REFINE_STEPS):
        pull = _pull(positions, black, degs)
        jac = -vals[:, None] * pull
        jac[np.diag_indices_from(jac)] = vals * pull.sum(axis=1)
        jac = np.column_stack([jac[:, free], vals])
        if not np.all(np.isfinite(jac)):
            break
        delta = np.linalg.lstsq(jac, target - vals, rcond=None)[0]
        positions = positions.copy()
        positions[free] += delta[:-1]
        ell = ell * np.exp(delta[-1])
        vals = ell * _opposite_products(positions, black, degs)
        residual = float(np.max(np.abs(vals - target)))
        if not residual < best[2]:
            break
        best = (positions, complex(ell), residual)
    return best


def _power_labels(t: PlaneTree, k: int, root: int) -> np.ndarray:
    """Each vertex's value of g, where p + 1 = 2·g^k for k > 1 and g = p for k = 1.

    g is 0 at the black vertices (p = −1 for k = 1) and a k-th root of unity
    at the white ones: counter-clockwise around a black vertex, consecutive
    neighbours differ by the factor e^(2πi/k), as g turns by 2π/k between
    consecutive edges.  The walk labels each black vertex's neighbours from
    its parent, the one already labelled, so on a tree the labels agree.
    """
    colors, rotation = t.colors, t.rotation
    out = np.full(len(colors), -1.0 if k == 1 else 0.0, dtype=complex)
    turns: dict[int, int] = {}
    for b in dfs_order(t, root):
        if colors[b] == BLACK:
            nbrs = rotation[b]
            i = next((i for i, w in enumerate(nbrs) if w in turns), 0)
            first = turns.get(nbrs[i], 0) - i
            for j, w in enumerate(nbrs):
                turns.setdefault(w, (first + j) % k)
    out[list(turns)] = np.exp(2j * np.pi * np.array(list(turns.values())) / k)
    return out


class _ShabatSystem:
    """Newton's system for one plane tree: what every restart shares.

    Gauge: the highest-degree black vertex is pinned at 0 and the
    highest-degree white vertex at 1 (ties by lowest vertex id).  k is the
    gcd of the black degrees, leaves counting as degree 1.  Newton solves for
    g, with p + 1 = 2·g^k for k > 1 and g = p for k = 1, whose value at each
    vertex is its label (see _power_labels).  The unknowns are g's critical
    vertices crit (white of degree ≥ 2, black of degree ≥ 2k) plus c and K of
    g = c·S + K, S the antiderivative of g's critical divisor; every other
    vertex is a simple root of g − t_v.  This keeps the system small (F1:0,1
    aba, k = 3: 3 unknowns, not 9) and removes the spurious branch where the
    black and white products collide coefficient by coefficient.
    """

    def __init__(self, t: PlaneTree) -> None:
        rotation = t.rotation
        self.d, self.nvert = d, nvert = t.edge_count, len(rotation)
        self.degs = degs = np.array([len(nbrs) for nbrs in rotation], dtype=float)
        self.black = black = np.array([c == BLACK for c in t.colors])
        top_black = max(np.flatnonzero(black), key=lambda v: (degs[v], -v))
        top_white = max(np.flatnonzero(~black), key=lambda v: (degs[v], -v))
        self.tops = top_black, top_white
        self.free = [v for v in range(nvert) if v not in self.tops]
        self.leaves = [v for v in self.free if degs[v] < 2]
        self.base = base = _radial_layout(t)

        # Newton's gauge pins lo at 0 and hi at 1: the top black and white
        # vertices when both are critical, else two critical vertices of
        # distinct targets, or a lone one and its first neighbour.  A tree with
        # no critical vertex of g (the single edge, a black-centre star) takes
        # top_black as its lone one, a simple root of g − t_lo.
        self.k = k = math.gcd(*degs[black].astype(int))
        self.label = label = _power_labels(t, k, top_black)
        crit = [v for v in range(nvert) if degs[v] >= (2 * k if black[v] else 2)] or [top_black]
        others = [v for v in range(nvert) if v not in crit]
        lo = max(crit, key=lambda v: (black[v], degs[v], -v))
        hi = max(crit, key=lambda v: (label[v] != label[lo], degs[v], -v))
        hi = rotation[lo][0] if hi == lo else hi
        self.lo, self.hi = lo, hi
        frame = (base - base[lo]) / (base[hi] - base[lo])
        idx_of = {v: i for i, v in enumerate(crit)}
        self.pins = [idx_of[v] for v in (lo, hi) if v in idx_of]  # hi's only if critical
        self.free_cols = free_cols = [idx_of[v] for v in crit if v not in (lo, hi)]
        self.crit, self.targets = crit, label[crit]

        # The integrand ∏_l (w − q_l)^m_l, with m_l = deg_l − 1 at a white vertex
        # and deg_l/k − 1 at a black one, has degree d/k − 1, so (d/k + 1)//2
        # Gauss–Legendre nodes integrate it exactly.  It is kept as linear
        # factors, vertex l repeated m_l times.  ∂S(q_j)/∂q_i is −m_i times the
        # integral with one copy of factor i left out (the first one, at
        # drop_at[i]); the upper limit adds nothing, as q_j is a root of the
        # integrand.
        self.nodes, self.weights = _gauss_legendre_01((d // k + 1) // 2)
        mults = np.array([int(degs[v]) // (k if black[v] else 1) - 1 for v in crit], dtype=int)
        self.mults, self.rep = mults, np.repeat(np.arange(len(crit)), mults)
        self.drop_at = (np.cumsum(mults) - mults)[free_cols]
        self.col_scale = -mults[free_cols]

        # Vertex i of `others` is a root of g − own_target[i]; own[i] holds the
        # multiplicities of the critical vertices that g − own_target[i] shares,
        # which f divides out, and roots of one g − t repel each other in
        # Aberth's iteration.  Each starts from a hub: its first critical
        # neighbour, or else a relay, its first neighbour, itself a simple root.
        own_target = label[others]
        self.others, self.own_target = others, own_target
        self.own = (mults + 1) * (own_target[:, None] == self.targets)
        self.repel = (own_target[:, None] == own_target) & ~np.eye(len(others), dtype=bool)
        hub = [next((u for u in rotation[v] if u in idx_of), rotation[v][0]) for v in others]
        self.hub = hub = np.array(hub)
        self.relay = np.array([u not in idx_of for u in hub])
        self.heading = (frame[others] - frame[hub]) / np.abs(frame[others] - frame[hub])
        self.rise = abs(label[top_white] - label[top_black])
        self.own_copy = self.rep == np.arange(len(crit))[:, None]

    def _s_at(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The linear factors at q, kept for the Jacobian once q is accepted, and S(q)."""
        factors = _linear_factors(q, self.nodes, self.rep)
        return factors, _antiderivative_at_vertices(q, self.weights, factors)

    def newton(self, q0: np.ndarray) -> tuple[float, int, str | None, tuple]:
        """Damped Newton from q0: fnorm, steps taken, the failed test (None
        once it lands) and the last (q, c, K).  S(q_j), the integral of ∏_l (w − q_l)^m_l from 0 to q_j, is a
        Gauss–Legendre sum of products of d/k − 1 linear factors.  Each
        Jacobian column leaves out one copy of one factor, as the product of
        the factors before it times the product of those after it, so no
        factor, which can vanish at a node, is divided out.  The factors of
        the line-search trial Newton accepts serve the next Jacobian.  A lone
        critical vertex needs no Newton: it is a root of g − t_lo of
        multiplicity e, and g = t_lo + (t_hi − t_lo)·z^e puts it at 0 and its
        first neighbour hi at 1.
        """
        label, targets, free_cols = self.label, self.targets, self.free_cols
        if len(self.crit) == 1:
            c = (self.mults[0] + 1) * (label[self.hi] - label[self.lo])
            return 0.0, 0, None, (q0, c, label[self.lo])
        q, steps = q0, 0
        factors, s_vals = self._s_at(q)
        # Fit c and K through the two pinned vertices exactly; a least-squares
        # fit over all vertices tends to start c near zero, and Newton then
        # creeps down the flat c -> 0 valley instead of converging.
        i, j = self.pins
        a, b = s_vals[i], s_vals[j]
        if abs(b - a) > 1e-9:
            c = (targets[j] - targets[i]) / (b - a)
            c, K = complex(c), complex(targets[i] - c * a)
        else:
            fit = np.stack([s_vals, np.ones_like(s_vals)], axis=1)
            c, K = map(complex, np.linalg.lstsq(fit, targets, rcond=None)[0])
        for _ in range(_NEWTON_ITERS):
            fvec = c * s_vals + K - targets
            fnorm = _norm(fvec)
            if fnorm < 1e-13:
                break
            jac = np.empty((len(q), len(free_cols) + 2), dtype=complex)
            partials = _antiderivative_partials(q, self.weights, factors, self.drop_at)
            jac[:, :-2] = (c * self.col_scale) * partials.T
            jac[:, -2] = s_vals
            jac[:, -1] = 1.0
            try:
                delta = np.linalg.solve(jac, -fvec)
            except np.linalg.LinAlgError:
                delta, *_ = np.linalg.lstsq(jac, -fvec, rcond=None)
            if not np.all(np.isfinite(delta)):
                return _norm(fvec), steps, "a non-finite Newton step", (q, c, K)
            lam = 1.0
            while lam >= 1 / 4096:
                q_t = q.copy()
                q_t[free_cols] = q[free_cols] + lam * delta[:-2]
                c_t = c + lam * delta[-2]
                K_t = K + lam * delta[-1]
                f_t, s_t = self._s_at(q_t)
                if _norm(c_t * s_t + K_t - targets) <= (1 - 1e-4 * lam) * fnorm:
                    q, c, K, s_vals, factors = q_t, c_t, K_t, s_t, f_t
                    break
                lam /= 2
            else:
                break
            steps += 1
        # Stalled-but-close states are still worth refining: the full vertex
        # system converges them, while pseudo-solutions (critical points
        # clustered where p is flat, so Newton's equations hold to 1e-14
        # without p being Shabat) fail its residual however small fnorm is.
        fnorm = _norm(c * s_vals + K - targets)
        if fnorm > 1e-6:
            return fnorm, steps, f"fnorm {fnorm:.2e} > 1e-6", (q, c, K)
        if abs(c) < 1e-12:
            return fnorm, steps, f"scale |c| = {abs(c):.2e} < 1e-12", (q, c, K)
        return fnorm, steps, None, (q, c, K)

    def assemble(self, q: np.ndarray, c: complex, K: complex) -> tuple[np.ndarray, complex]:
        """Every vertex and ℓ in the gauge top_black → 0, top_white → 1.

        The others are the simple roots of f = (g − t)/∏ (z − q)^(m+1), over
        the critical q with the same target t, found together by Aberth's
        iteration, with g = c·S + K read by the same quadrature and
        f′/f = g′/(g − t) − Σ (m+1)/(z − q).  ℓ is c/d for k = 1 and
        2·(c·k/d)^k for k > 1.  Leaves other than the two tops are sorted
        within each colour, as they are interchangeable."""
        nodes, weights, rep, own_target = self.nodes, self.weights, self.rep, self.own_target
        hub, relay, mults, crit = self.hub, self.relay, self.mults, self.crit

        def correction(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            value = c * _antiderivative_at_vertices(
                z, weights, _linear_factors(q, nodes, rep, z)
            ) + K - own_target
            slope = c * np.multiply.reduce(z - q[rep][:, None], axis=0)
            # The Newton correction is 1/(f′/f), and 0 at an exact root.
            log_slope = slope / value - np.sum(self.own / (z[:, None] - q), axis=1)
            return np.abs(value), np.divide(1, log_slope, out=np.zeros_like(z), where=value != 0)

        # Each vertex starts one local edge length from its hub, in the
        # drawing's direction: near a critical vertex q, a root of
        # multiplicity e of g − g(q), g ≈ g(q) + A·(z − q)^e, with
        # e·A = c·∏ of the other vertices' factors at q (own_copy marks q's
        # own), and its neighbours sit where |A|·r^e = rise, the change of g
        # along an edge.  A vertex whose hub is a relay starts where the hub
        # starts: Aberth's first step from there is a Newton step along it.
        positions = np.zeros(self.nvert, dtype=complex)
        positions[crit] = q
        reach = np.zeros(self.nvert)
        local = c * np.multiply.reduce(np.where(self.own_copy, 1, q[:, None] - q[rep]), axis=1)
        reach[crit] = (self.rise * (mults + 1) / np.abs(local)) ** (1 / (mults + 1))
        z = positions[hub] + reach[hub] * self.heading
        if relay.any():
            positions[self.others] = z
            z[relay] = positions[hub[relay]]
        positions[self.others] = _aberth(z, correction, self.repel, _LEAF_ITERS)
        d, k, (top_black, top_white) = self.d, self.k, self.tops
        ell = c / d if k == 1 else 2 * (c * k / d) ** k
        span = positions[top_white] - positions[top_black]
        if positions[top_black] != 0 or positions[top_white] != 1:
            positions = (positions - positions[top_black]) / span
            positions[[top_black, top_white]] = 0, 1
            ell = ell * span**d
        for colour in (True, False):
            ids = [v for v in self.leaves if self.black[v] == colour]
            positions[ids] = sorted(positions[ids], key=lambda w: (round(w.real, 9), w.imag))
        return positions, ell


def _starts(system: _ShabatSystem, rng_seed: int) -> Iterator[np.ndarray | str]:
    """Each restart's Newton start, in restart order, or the reason it has none.

    Restart 0 starts from the radial drawing and draws no random number, the
    other even restarts from copies of it jittered by 0.08·(restart//2), and
    odd restarts from gaussian scatters keyed by (rng_seed, restart).  A lone
    critical vertex has one start, 0, which newton leaves where it is."""
    s, n = system, len(system.crit)
    if n == 1:
        yield np.zeros(1, complex)
        return
    for restart in count():
        if restart % 2 == 0:
            # The radial drawing, plain first and then jittered.  It
            # separates sibling vertices angularly, which is where the
            # true basins live.
            pos = s.base
            if restart:
                rng = np.random.default_rng([rng_seed, restart])
                jit = 0.08 * (restart // 2)
                pos = s.base + jit * (rng.normal(size=s.nvert) + 1j * rng.normal(size=s.nvert))
            span = pos[s.hi] - pos[s.lo]
            if abs(span) < 1e-9:
                yield "a degenerate start"
                continue
            q = ((pos - pos[s.lo]) / span)[s.crit].astype(complex)
        else:
            # Plain gaussian scatter for basins the drawing misses.
            rng = np.random.default_rng([rng_seed, restart])
            spread = 1.0 + 0.25 * (restart % 4)
            q = rng.normal(scale=spread, size=n) + 1j * rng.normal(scale=spread, size=n)
        q[s.pins] = 0.0, 1.0
        yield q


class _Restart(NamedTuple):
    """One restart's record: Newton's fnorm and steps, the refined residual and
    gap, the test that rejected it (if any) and the solution it would return."""

    fnorm: float
    steps: int
    residual: float = math.inf
    gap: float = math.inf
    verdict: str | None = None
    solution: ShabatSolution | None = None


def _land(system: _ShabatSystem, start: np.ndarray | str) -> _Restart:
    """Newton from start, then assemble and _refine on the full vertex system:
    the tree's and the start's alone, judged by each call in _accept."""
    if isinstance(start, str):
        return _Restart(math.inf, 0, verdict=start)
    # A diverging restart overflows; the tests below already reject its
    # non-finite steps and norms, so numpy need not warn on stderr.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fnorm, steps, verdict, qck = system.newton(start)
        if verdict is not None:
            return _Restart(fnorm, steps, verdict=verdict)
        positions, ell = system.assemble(*qck)
        black, degs = system.black, system.degs
        positions, ell, residual = _refine(positions, ell, black, degs, system.free)
        sol = _solution(positions, degs, black, ell, residual)
        return _Restart(fnorm, steps, residual, _min_same_color_gap(positions, black), None, sol)


def _accept(landing: _Restart, tol: float) -> str | None:
    """The test that rejects the landing under tol, or None to accept it:
    its vertex residual max|r| ≤ tol, and no two same-colour vertices within
    _MIN_SEPARATION.  Together these are the Shabat condition:
    ℓ·(∏black − ∏white) − 2 has degree at most d − 1 and vanishes, up to r,
    at the d + 1 distinct vertices.  Newton's equations alone admit
    pseudo-solutions whose vertex residual is far above tol."""
    if landing.verdict is not None:
        return landing.verdict
    if not landing.residual <= tol:
        return f"vertex residual {landing.residual:.2e} > tol {tol:.0e}"
    if landing.gap < _MIN_SEPARATION:
        return f"same-color vertex gap {landing.gap:.2e} < {_MIN_SEPARATION:.0e}"
    return None


@lru_cache(maxsize=256)
def _first_landing(colors: tuple[str, ...], rotation: tuple[tuple[int, ...], ...]) -> list:
    """The slot that holds one tree's restart-0 _land record once a solve
    fills it.  Restart 0 draws no random number, and tol, max_restarts and
    max_degree only judge or bound it, so each solve of the tree would repeat
    it bit for bit.  The bound holds the 249 witnesses of the d ≤ 120 sweep,
    and cache_clear empties every slot."""
    return []


def shabat_solve(
    t: PlaneTree,
    tol: float = DEFAULT_TOL,
    max_restarts: int = 32,
    rng_seed: int = 0,
    max_degree: int = DEGREE_GUARD,
) -> ShabatSolution:
    """Solve for vertex positions giving critical values -1 (black), +1 (white).

    A loop over restarts of Newton's system (_ShabatSystem): _starts gives
    each start, _land runs Newton from it, finds the other vertices and
    refines them all on the full vertex system, and _accept judges the
    landing by tol and the same-colour separation.  The first restart
    accepted wins; a lone critical vertex has one.  If none is, the
    NoConvergenceError names the system (full, or perfect-power with its k),
    its unknowns, and from the per-restart records the closest restart
    (least max|r|, then least fnorm) and the test that rejected it.

    Restart 0's landing is memoized per tree, keyed by the colours and
    rotation as tuples, for up to 256 trees (_first_landing): repeat solves
    of a tree in one process land it once.  After its argument checks, a
    call whose stored restart 0 passes its tol returns before Newton's system
    is built; restarts 1 and up run as from a cold memo.
    """
    d = t.edge_count
    if d > max_degree:
        raise DegreeGuardError(f"degree {d} exceeds guard {max_degree}")
    if d < 1:
        raise ValueError("tree must have at least one edge")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_restarts < 1:
        raise ValueError(f"max_restarts must be >= 1, got {max_restarts}")
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {rng_seed}")
    slot = _first_landing(tuple(t.colors), tuple(map(tuple, t.rotation)))
    if slot and _accept(slot[0], tol) is None:
        return slot[0].solution
    system = _ShabatSystem(t)
    records = []
    for restart, start in zip(range(max_restarts), _starts(system, rng_seed)):
        if not slot:
            slot.append(_land(system, start))
        landing = _land(system, start) if restart else slot[0]
        verdict = _accept(landing, tol)
        if verdict is None:
            return landing.solution._replace(restarts_used=restart)
        records.append(landing._replace(verdict=verdict))
    restart, closest = min(enumerate(records), key=lambda r: (r[1].residual, r[1].fnorm))
    kind = "full system" if system.k == 1 else f"perfect-power system k={system.k}"
    raise NoConvergenceError(
        f"no convergence after {len(records)} restarts (degree {d}, {kind}, {len(system.crit)} "
        f"unknown{'s' * (len(system.crit) != 1)}); closest restart {restart} "
        f"(fnorm {closest.fnorm:.2e}) failed: {closest.verdict}"
    )


def tree_for_derivation(seed: SeedSpec, word: str) -> PlaneTree:
    """Tree realizing the profile a word derives from a seed.

    Two-letter seeds replay the word as tree surgeries; five-letter seeds
    have profile-level rewrites only, so the final profile is realized
    directly.
    """
    if uses_t2(seed):
        return realize_profile(trajectory(seed, word)[-1].profile)
    return derive_tree(seed, word)


def shabat_for_derivation(seed: SeedSpec, word: str, **kwargs) -> ShabatSolution:
    """Solve the tree a word derives from a seed: shabat_solve on tree_for_derivation.

    Keyword arguments go to shabat_solve unchanged.
    """
    return shabat_solve(tree_for_derivation(seed, word), **kwargs)


def chebyshev_solution(d: int) -> ShabatSolution:
    """The path with d edges, solved in closed form: p is the Chebyshev T_d.

    Vertex k sits at cos(kπ/d), where T_d = (−1)^k, so even k is white, odd
    k is black and the two ends are the leaves; ℓ = 2^(d−1) is T_d's
    leading coefficient.  The residual is read as shabat_solve reads it,
    from the other colour's factors (_opposite_products), so it is not zero
    by construction.  Nothing is solved, so no degree guard applies.
    """
    if d < 1:
        raise ValueError("the path needs at least one edge")
    positions = np.cos(np.arange(d + 1) * np.pi / d).astype(complex)
    degs = np.full(d + 1, 2.0)
    degs[[0, d]] = 1.0
    black = np.arange(d + 1) % 2 == 1
    ell = 2.0 ** (d - 1)
    vals = ell * _opposite_products(positions, black, degs)
    residual = float(np.max(np.abs(vals - np.where(black, -2.0, 2.0))))
    return _solution(positions, degs, black, ell, residual)


class UCensus:
    """Critical points of a surface's U as read-only arrays: positions w,
    values U(w), multiplicities, and |U'(w)| in slopes, all read from linear
    factors.  Arrays have no single truth value, so censuses compare by
    identity."""

    __slots__ = ("positions", "values", "mults", "slopes")

    def __init__(
        self, positions: np.ndarray, values: np.ndarray, mults: np.ndarray, slopes: np.ndarray
    ) -> None:
        self.positions, self.values, self.mults, self.slopes = positions, values, mults, slopes

    def _replace(self, **changes) -> UCensus:
        """A copy with the named fields changed, as a NamedTuple's _replace."""
        return UCensus(**{**{name: getattr(self, name) for name in self.__slots__}, **changes})


def _vertices(sol: ShabatSolution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solution's positions, degrees and black mask, black vertices first."""
    pts = sol.black_points + sol.white_points
    positions = np.array([z for z, _ in pts], dtype=complex)
    degs = np.array([m + 1 for _, m in pts], dtype=float)
    return positions, degs, np.arange(len(pts)) < len(sol.black_points)


def vertex_u_census(sol: ShabatSolution) -> UCensus:
    """Critical points of U = (p + 1)/2 read from the solved vertices.

    They are the internal vertices of the tree, each of multiplicity
    deg − 1, listed black first in the solution's order.  U and U′ are read
    from the other colour's factor (_opposite_products), so neither defect
    is zero by construction: at a white vertex b, U = ℓ·∏_black (b − a)^deg / 2
    and U′ = U·Σ deg_a/(b − a); at a black vertex a, U − 1 = ℓ·∏_white
    (a − b)^deg / 2 and U′ = (U − 1)·Σ deg_b/(a − b).  It assumes p has no
    critical point away from the vertices; winding_census proves that.
    """
    positions, degs, black = _vertices(sol)
    half = sol.scale_constant / 2 * _opposite_products(positions, black, degs)
    inner = np.flatnonzero(degs > 1)
    pull = _pull(positions, black, degs, inner).sum(axis=1)
    arrays = (positions[inner], half[inner] + black[inner], degs[inner].astype(int) - 1,
              np.abs(half[inner] * pull))
    for a in arrays:
        a.flags.writeable = False
    return UCensus(*arrays)


class WindingCensus(NamedTuple):
    """The critical points of p away from its black vertices, counted by
    winding number around each white vertex of multiplicity m ≥ 1.

    Per circle, in the solution's white order: the vertex's multiplicity,
    the zeros of S counted inside, and the least |S| on the circle over its
    largest (small where a zero lies near the circle).  expected_total
    is B − 1, the number of zeros S has.  failures names the tests that
    failed, in the order separation, phase_step, count, total, value; the
    census matches when there are none.
    """

    mults: tuple[int, ...]
    counts: tuple[int, ...]
    modulus_ratios: tuple[float, ...]
    expected_total: int
    max_phase_step: float
    max_value_defect: float
    failures: tuple[str, ...]

    @property
    def matches(self) -> bool:
        return not self.failures

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict:
        out = {
            "circles": [
                {"mult": m, "count": n, "modulus_ratio": r}
                for m, n, r in zip(self.mults, self.counts, self.modulus_ratios)
            ],
            "total": self.total,
            "expected_total": self.expected_total,
            "max_phase_step": self.max_phase_step,
            "max_value_defect": self.max_value_defect,
            "matches": self.matches,
        }
        if self.failures:
            out["failed_tests"] = list(self.failures)
        return out


def winding_census(sol: ShabatSolution) -> WindingCensus:
    """Count p's critical points by the argument principle, in product form.

    p + 1 = ℓ·∏_black (w − a)^(m_a+1), so p′ = (p + 1)·S with
    S(w) = Σ_black (m_a + 1)/(w − a).  The black critical points are the
    product's own factors; every other critical point is a zero of S, a
    ratio whose numerator has degree B − 1 over B distinct black vertices.
    Around each white vertex of multiplicity m ≥ 1 the census draws a circle
    of radius _WINDING_RADIUS = 0.4 times its distance to the nearest other
    vertex, so no pole of S lies inside and no two circles meet, and counts
    the zeros of S inside by the winding number of S over _WINDING_SAMPLES
    = 256 fixed samples.  Five tests must hold: no two vertices lie within
    _MIN_SEPARATION (separation), no phase step between samples exceeds
    _MAX_PHASE_STEP = π/2, well inside the π at which a step's turn becomes
    ambiguous (phase_step), each circle holds m zeros (count), and the
    counts sum to B − 1 (total), so S has no zero outside them and p no
    critical point away from the vertices.  Last, p at each critical vertex
    is read from the other colour's factors as the solver reads its
    residual, and the worst |p ∓ 1| must be within VALUE_TOL (value).  S is
    a sum of simple fractions: nothing is expanded or eigensolved, so the
    count is as well conditioned at degree 200 as at 9.  It proves the
    critical points and their multiplicities given the float positions; it
    does not prove that an exact Shabat polynomial lies nearby, nor which
    plane tree of the passport p draws.
    """
    positions, degs, black = _vertices(sol)
    gaps = np.abs(positions[:, None] - positions)
    np.fill_diagonal(gaps, np.inf)
    nearest = gaps.min(axis=1)
    inner = np.flatnonzero(degs > 1)
    circles = inner[~black[inner]]
    ring = np.exp(2j * np.pi * np.arange(_WINDING_SAMPLES) / _WINDING_SAMPLES)
    z = positions[circles, None] + (_WINDING_RADIUS * nearest[circles, None]) * ring
    s = np.zeros_like(z)
    # Coincident vertices (a separation failure) may divide by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, order in zip(positions[black], degs[black]):
            s += order / (z - a)
        turns = np.angle(np.roll(s, -1, axis=1) / s)
    steps = np.abs(turns)
    max_step = float(steps.max(initial=0.0)) if np.isfinite(steps).all() else math.inf
    counts = np.rint(np.nan_to_num(turns.sum(axis=1) / (2 * np.pi))).astype(int)
    modulus = np.abs(s)
    ratios = modulus.min(axis=1) / modulus.max(axis=1)
    mults = degs[circles].astype(int) - 1
    vals = sol.scale_constant * _opposite_products(positions, black, degs)
    defect = float(np.abs(vals - np.where(black, -2.0, 2.0))[inner].max(initial=0.0))
    expected_total = int(np.count_nonzero(black)) - 1
    passed = {
        "separation": nearest.min() >= _MIN_SEPARATION,
        "phase_step": max_step <= _MAX_PHASE_STEP,
        "count": np.array_equal(counts, mults),
        "total": int(counts.sum()) == expected_total,
        "value": defect <= VALUE_TOL,
    }
    return WindingCensus(
        mults=tuple(mults.tolist()),
        counts=tuple(counts.tolist()),
        modulus_ratios=tuple(ratios.tolist()),
        expected_total=expected_total,
        max_phase_step=max_step,
        max_value_defect=defect,
        failures=tuple(name for name, ok in passed.items() if not ok),
    )


class CensusEntry(NamedTuple):
    value: complex
    multiplicity: int
    count: int


class CriticalCensus(NamedTuple):
    """Entries aggregate the critical points by (value, multiplicity)."""

    entries: tuple[CensusEntry, ...]
    reliable: bool
    notes: tuple[str, ...] = ()

    def total(self) -> int:
        return sum(e.multiplicity * e.count for e in self.entries)

    def count_at(self, value: complex) -> int:
        return sum(e.count for e in self.entries if abs(e.value - value) <= VALUE_TOL)


def _polyval_rows(cs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each row of cs (constant term first) at every z, by one Horner pass."""
    r = np.repeat(cs[:, -1:], len(z), axis=1)
    for k in range(cs.shape[1] - 2, -1, -1):
        r *= z
        r += cs[:, k : k + 1]
    return r


def _critical_points(dp: np.ndarray) -> np.ndarray:
    """Roots of p′ (dp, constant term first): np.roots' starts, polished by _aberth.

    One Horner pass over p′ and p″ gives the error |p′| and the Newton
    correction p′/p″, read as 0 where p″ = 0.  np.roots returns exact copies
    of a root at an exact zero, so only starts that differ repel.  At a
    multiple root the steps gain only linearly, so the polish stops at
    _CENSUS_ITERS = 8: later steps move the best iterate only within
    rounding, and no census_matches_profile verdict with it.
    """
    cs = np.zeros((2, len(dp)), dtype=complex)
    cs[0] = dp
    cs[1, :-1] = dp[1:] * np.arange(1, len(dp))

    def correction(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f, fp = _polyval_rows(cs, z)
        return np.abs(f), np.divide(f, fp, out=np.zeros_like(f), where=fp != 0)

    roots = np.roots(dp[::-1])
    return _aberth(roots, correction, roots[:, None] != roots, _CENSUS_ITERS)


def _single_linkage(points: np.ndarray, tol: float) -> list[list[int]]:
    n = len(points)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in combinations(range(n), 2):
        if abs(points[i] - points[j]) <= tol:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def critical_census_uni(
    p: tuple[complex, ...], cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> CriticalCensus:
    """Census of p's critical points grouped by value and multiplicity.

    p is its coefficients, constant term first, as ShabatSolution.polynomial()
    gives them.  ValueError refuses fewer than two coefficients or a zero
    leading one, and a cluster_tol that is not finite and > 0.  Roots of p'
    come from the companion matrix and are polished by the Aberth iteration
    that reads the solver's leaves (_aberth), in at most _CENSUS_ITERS = 8
    steps (see _critical_points).  Roots
    within cluster_tol merge into one critical point whose multiplicity is
    the cluster size; p is read at its centre by Horner's rule.  Clusters
    whose separation or spread is marginal at cluster_tol mark the census
    unreliable rather than failing.  Multiplicities above ~3 in double
    precision need a looser cluster_tol because the root cluster radius
    scales like eps^(1/mult).
    """
    if not 0 < cluster_tol < math.inf:
        raise ValueError(f"cluster_tol must be finite and > 0, got {cluster_tol}")
    if len(p) < 2 or p[-1] == 0:
        raise ValueError("census needs degree >= 1 and a nonzero leading coefficient")
    dp = np.array([k * c for k, c in enumerate(p)][1:], complex)
    if len(dp) == 1:
        return CriticalCensus(entries=(), reliable=True)
    roots = _critical_points(dp)

    def at(z):
        r = p[-1]
        for c in p[-2::-1]:
            r = r * z + c
        return complex(r)

    notes: list[str] = []
    reliable = True
    clusters = _single_linkage(roots, cluster_tol)
    centers = np.array([np.mean(roots[idx]) for idx in clusters])
    mults = [len(idx) for idx in clusters]
    for idx, center in zip(clusters, centers):
        spread = max(abs(roots[i] - center) for i in idx)
        if spread > cluster_tol:
            reliable = False
            notes.append(f"chained root cluster of spread {spread:.2e}")
    if any(abs(a - b) < 10 * cluster_tol for a, b in combinations(centers, 2)):
        reliable = False
        notes.append("root clusters closer than 10x cluster_tol")

    values = np.array([at(z) for z in centers])
    vclusters = _single_linkage(values, cluster_tol)
    entries: list[CensusEntry] = []
    for vidx in vclusters:
        vcenter = complex(np.mean(values[vidx]))
        vspread = max(abs(values[i] - vcenter) for i in vidx)
        if vspread > cluster_tol:
            reliable = False
            notes.append(f"chained value cluster of spread {vspread:.2e}")
        by_mult: dict[int, int] = {}
        for i in vidx:
            by_mult[mults[i]] = by_mult.get(mults[i], 0) + 1
        for m, count in sorted(by_mult.items()):
            entries.append(CensusEntry(value=vcenter, multiplicity=m, count=count))
    entries.sort(key=lambda e: (e.value.real, e.value.imag, e.multiplicity))
    return CriticalCensus(
        entries=tuple(entries), reliable=reliable, notes=tuple(dict.fromkeys(notes))
    )


def census_matches_profile(census: CriticalCensus, profile: CriticalProfile) -> bool:
    """True iff the census is exactly the profile's ±1 critical structure."""
    expected: dict[tuple[int, int], int] = {}
    for m, count in profile.black_counter().items():
        expected[(-1, m)] = count
    for m, count in profile.white_counter().items():
        expected[(1, m)] = count
    seen: dict[tuple[int, int], int] = {}
    for e in census.entries:
        if abs(e.value.imag) > VALUE_TOL:
            return False
        if abs(e.value.real + 1) <= VALUE_TOL:
            key = (-1, e.multiplicity)
        elif abs(e.value.real - 1) <= VALUE_TOL:
            key = (1, e.multiplicity)
        else:
            return False
        seen[key] = seen.get(key, 0) + e.count
    return seen == expected


def census_to_json(census: CriticalCensus) -> dict:
    return {
        "entries": [
            {
                "value": {"re": e.value.real, "im": e.value.imag},
                "multiplicity": e.multiplicity,
                "count": e.count,
            }
            for e in census.entries
        ],
        "reliable": census.reliable,
        "notes": list(census.notes),
    }
