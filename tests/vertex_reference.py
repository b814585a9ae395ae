"""The vertex-system helpers as the solver had them before it read per-tree
plans, kept as the tests' reference.

On every landing, the solver's _opposite_products, _refine and
_min_same_color_gap must give these functions' results bit for bit.  Each
one rebuilds from the colours and degrees what the plans now hold, and
reduces over the same operand layout.
"""

import math
from itertools import combinations

import numpy as np

REFINE_STEPS = 4


def opposite_products(positions, black, degs):
    """∏ (v − u)^deg_u over the vertices u of the other colour, at every vertex v."""
    out = np.empty(len(positions), dtype=complex)
    black_idx, white_idx = np.flatnonzero(black), np.flatnonzero(~black)
    for rows, cols in ((black_idx, white_idx), (white_idx, black_idx)):
        rep = np.repeat(cols, degs[cols].astype(int))
        out[rows] = np.multiply.reduce(positions[rows][:, None] - positions[rep], axis=1)
    return out


def pull(positions, black, degs, rows=slice(None)):
    """deg_u/(v − u), one row per vertex v of rows: 0 where u has v's colour."""
    other = np.where(black[rows, None] != black, degs, 0.0)
    return other / np.where(other > 0, positions[rows, None] - positions, 1.0)


def refine(positions, ell, black, degs, free):
    """Gauss–Newton on the full vertex system: best iterate, its ℓ and max|r|."""
    target = np.where(black, -2.0, 2.0)
    vals = ell * opposite_products(positions, black, degs)
    best = (positions, ell, float(np.max(np.abs(vals - target))))
    for _ in range(REFINE_STEPS):
        p = pull(positions, black, degs)
        jac = -vals[:, None] * p
        jac[np.diag_indices_from(jac)] = vals * p.sum(axis=1)
        jac = np.column_stack([jac[:, free], vals])
        if not np.all(np.isfinite(jac)):
            break
        delta = np.linalg.lstsq(jac, target - vals, rcond=None)[0]
        positions = positions.copy()
        positions[free] += delta[:-1]
        ell = ell * np.exp(delta[-1])
        vals = ell * opposite_products(positions, black, degs)
        residual = float(np.max(np.abs(vals - target)))
        if not residual < best[2]:
            break
        best = (positions, complex(ell), residual)
    return best


def min_same_color_gap(positions, black):
    pairs = (pq for side in (black, ~black) for pq in combinations(positions[side], 2))
    return min((abs(p - q) for p, q in pairs), default=math.inf)
