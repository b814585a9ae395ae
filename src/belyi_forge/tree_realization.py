"""Bicolored plane trees realizing critical profiles.

A plane tree is stored as a vertex coloring plus a rotation system: the
neighbor list of each vertex in counterclockwise order.  ``realize_profile``
builds a canonical tree for any valid profile, ``profile_of`` reads the
profile back off a tree, and ``apply_letter_tree`` performs the two-letter
rewrite surgeries at explicit sites so that tree-level and profile-level
derivations can be compared.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .profile_core import CriticalProfile, ValidationReport, validate_profile
from .seed_families import SeedSpec, seed_profile
from .word_engine import uses_t2

BLACK = "black"
WHITE = "white"


class RealizationError(ValueError):
    """Raised when a profile admits no tree or a surgery site is invalid."""


class PlaneTree(NamedTuple):
    """Bicolored tree with a rotation system.

    ``colors[v]`` is "black" or "white"; ``rotation[v]`` lists the neighbors
    of v in cyclic order.  Vertex ids are 0..n-1.
    """

    colors: tuple[str, ...]
    rotation: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.colors)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.rotation) // 2

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v, nbrs in enumerate(self.rotation):
            for u in nbrs:
                if v < u:
                    out.append((v, u))
        return out


def check_tree(t: PlaneTree) -> None:
    """Assert known colors and in-range, distinct neighbor ids, then
    connectivity, acyclicity, and proper bicoloring."""
    colors, rotation = t.colors, t.rotation
    n = len(colors)
    if n == 0:
        raise RealizationError("empty tree")
    if len(rotation) != n:
        raise RealizationError(f"{len(rotation)} neighbor lists for {n} vertices")
    for v, (color, nbrs) in enumerate(zip(colors, rotation)):
        if color not in (BLACK, WHITE):
            raise RealizationError(f"vertex {v} has color {color!r}, not {BLACK!r} or {WHITE!r}")
        if len(set(nbrs)) != len(nbrs):
            raise RealizationError(f"vertex {v} lists a neighbor twice: {list(nbrs)}")
        for u in nbrs:
            if not 0 <= u < n:
                raise RealizationError(f"vertex {v} has neighbor {u} outside 0..{n - 1}")
            if colors[u] == color:
                raise RealizationError(f"edge {v}-{u} joins two {color} vertices")
            if v not in rotation[u]:
                raise RealizationError(f"edge {v}-{u} not symmetric")
    if t.edge_count != n - 1:
        raise RealizationError(f"{t.edge_count} edges on {n} vertices is not a tree")
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in rotation[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise RealizationError("tree is not connected")


def realize_profile(p: CriticalProfile) -> PlaneTree:
    """Canonical tree for a valid profile.

    Vertices are placed largest-degree-first: the queue starts at the
    largest vertex overall and each open slot takes the largest unplaced
    vertex of the opposite color.  The construction is followed by a full
    consistency check, so an infeasible profile raises rather than
    returning a broken tree.
    """
    report: ValidationReport = validate_profile(p)
    if not report.ok:
        raise RealizationError(f"invalid profile: {'; '.join(report.violations)}")
    black_degs = sorted([m + 1 for m in p.black_mults], reverse=True) + [1] * p.black_leaves
    white_degs = sorted([m + 1 for m in p.white_mults], reverse=True) + [1] * p.white_leaves

    colors: list[str] = []
    degrees: list[int] = []
    pools = {BLACK: black_degs, WHITE: white_degs}

    def place(color: str) -> int:
        deg = pools[color].pop(0)
        colors.append(color)
        degrees.append(deg)
        return len(colors) - 1

    root_color = BLACK if (black_degs and black_degs[0] >= (white_degs[0] if white_degs else 0)) else WHITE
    if not pools[root_color]:
        raise RealizationError("profile has no vertices to root")
    adjacency: list[list[int]] = []
    root = place(root_color)
    adjacency.append([])
    queue = [root]
    while queue:
        v = queue.pop(0)
        other = WHITE if colors[v] == BLACK else BLACK
        open_slots = degrees[v] - len(adjacency[v])
        for _ in range(open_slots):
            if not pools[other]:
                raise RealizationError(
                    "greedy realization ran out of vertices; profile is infeasible"
                )
            u = place(other)
            adjacency.append([v])
            adjacency[v].append(u)
            queue.append(u)
    if pools[BLACK] or pools[WHITE]:
        raise RealizationError(
            "greedy realization left unplaced vertices; profile is infeasible"
        )
    tree = PlaneTree(
        colors=tuple(colors),
        rotation=tuple(tuple(nbrs) for nbrs in adjacency),
    )
    check_tree(tree)
    if profile_of(tree) != p:
        raise RealizationError("realized tree does not match the requested profile")
    return tree


def profile_of(t: PlaneTree) -> CriticalProfile:
    """Read the critical profile off a tree."""
    black_mults, white_mults = [], []
    black_leaves = white_leaves = 0
    for color, nbrs in zip(t.colors, t.rotation):
        deg = len(nbrs)
        if color == BLACK:
            if deg == 1:
                black_leaves += 1
            else:
                black_mults.append(deg - 1)
        else:
            if deg == 1:
                white_leaves += 1
            else:
                white_mults.append(deg - 1)
    return CriticalProfile(
        black_mults=tuple(black_mults),
        white_mults=tuple(white_mults),
        black_leaves=black_leaves,
        white_leaves=white_leaves,
    )


def top_black_multiplicity(t: PlaneTree) -> int:
    mults = [len(nbrs) - 1 for color, nbrs in zip(t.colors, t.rotation) if color == BLACK]
    mults = [m for m in mults if m >= 1]
    if not mults:
        raise RealizationError("tree has no black critical point")
    return max(mults)


def apply_letter_tree(t: PlaneTree, letter: str, site: int) -> PlaneTree:
    """Two-letter rewrite surgery at an explicit site.

    alpha: site must be a white leaf; a new black hub of degree nu+1 is
    attached to it together with nu fresh white leaves.  beta: site must be
    a white vertex of degree 2 (the simple point left by an alpha); it
    receives a second black hub of degree nu+1.  nu is read off the tree as
    its top black multiplicity.
    """
    if letter not in ("a", "b"):
        raise RealizationError("tree surgeries are defined for the two-letter alphabet")
    if not 0 <= site < t.vertex_count:
        raise RealizationError(f"site {site} out of range")
    if t.colors[site] != WHITE:
        raise RealizationError(f"site {site} must be white")
    nu = top_black_multiplicity(t)
    if letter == "a" and t.degree(site) != 1:
        raise RealizationError("alpha site must be a white leaf")
    if letter == "b" and t.degree(site) != 2:
        raise RealizationError("beta site must be a white vertex of degree 2")
    colors = list(t.colors)
    rotation = [list(nbrs) for nbrs in t.rotation]
    hub = len(colors)
    colors.append(BLACK)
    rotation.append([site])
    rotation[site].append(hub)
    for _ in range(nu):
        leaf = len(colors)
        colors.append(WHITE)
        rotation.append([hub])
        rotation[hub].append(leaf)
    out = PlaneTree(colors=tuple(colors), rotation=tuple(tuple(r) for r in rotation))
    check_tree(out)
    return out


def dfs_order(t: PlaneTree, root: int) -> list[int]:
    """Vertices in depth-first preorder from root, children in rotation order.

    derive_tree picks its alpha sites in this order, and the solver's radial
    drawing and its root-of-unity labels walk the tree in it.
    """
    rotation = t.rotation
    order, seen, stack = [], {root}, [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in reversed(rotation[v]):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return order


def derive_tree(seed: SeedSpec, word: str) -> PlaneTree:
    """Realize the seed profile and replay a two-letter word on the tree.

    alpha sites are chosen canonically as the first white leaf in
    depth-first order; beta upgrades the most recently created still-simple
    alpha site.  The resulting profile is independent of these choices.
    """
    if uses_t2(seed):
        raise RealizationError("tree derivations are defined for T13 seeds only")
    tree = realize_profile(seed_profile(seed))
    pending: list[int] = []
    for letter in word:
        if letter == "a":
            colors, rotation = tree.colors, tree.rotation
            site = next(
                (
                    v
                    for v in dfs_order(tree, 0)
                    if colors[v] == WHITE and len(rotation[v]) == 1
                ),
                None,
            )
            if site is None:
                raise RealizationError("no white leaf available for alpha")
            tree = apply_letter_tree(tree, letter, site)
            pending.append(site)
        else:
            if not pending:
                raise RealizationError("beta needs the site of a preceding alpha")
            tree = apply_letter_tree(tree, letter, pending.pop())
    return tree


def export_dot(t: PlaneTree) -> str:
    """DOT text with color attributes; edge order follows the rotation."""
    lines = ["graph tree {"]
    for v, color in enumerate(t.colors):
        fill = "black" if color == BLACK else "white"
        lines.append(f'  v{v} [color={fill}];')
    for v, nbrs in enumerate(t.rotation):
        for u in nbrs:
            if v < u:
                lines.append(f"  v{v} -- v{u};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_NODE = re.compile(r"^\s*v(\d+)\s*\[color=(black|white)\];\s*$")
_DOT_EDGE = re.compile(r"^\s*v(\d+)\s*--\s*v(\d+);\s*$")


def parse_dot(text: str) -> PlaneTree:
    """Parse the subset of DOT emitted by export_dot (round-trip inverse)."""
    colors: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for line in text.splitlines():
        node = _DOT_NODE.match(line)
        if node:
            colors[int(node.group(1))] = node.group(2)
            continue
        edge = _DOT_EDGE.match(line)
        if edge:
            edges.append((int(edge.group(1)), int(edge.group(2))))
    if not colors:
        raise RealizationError("no vertices found in DOT input")
    n = max(colors) + 1
    if sorted(colors) != list(range(n)):
        raise RealizationError("vertex ids must be contiguous from 0")
    rotation: list[list[int]] = [[] for _ in range(n)]
    for v, u in edges:
        if max(v, u) >= n:
            raise RealizationError(f"edge v{v} -- v{u} names an undeclared vertex")
        rotation[v].append(u)
        rotation[u].append(v)
    tree = PlaneTree(
        colors=tuple(colors[v] for v in range(n)),
        rotation=tuple(tuple(r) for r in rotation),
    )
    check_tree(tree)
    return tree


def export_json_adjacency(t: PlaneTree) -> dict:
    return {
        "colors": list(t.colors),
        "adjacency": [list(nbrs) for nbrs in t.rotation],
    }


def tree_from_json(obj: dict) -> PlaneTree:
    """Inverse of export_json_adjacency; refuses any neighbor id whose type is not int."""
    rotation = tuple(tuple(nbrs) for nbrs in obj["adjacency"])
    for v, nbrs in enumerate(rotation):
        for u in nbrs:
            if type(u) is not int:
                raise RealizationError(f"vertex {v} has neighbor {u!r}, not an int")
    tree = PlaneTree(colors=tuple(obj["colors"]), rotation=rotation)
    check_tree(tree)
    return tree
