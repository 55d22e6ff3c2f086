"""Hanan grids for d-dimensional rectilinear point sets.

The grid vertex set is the Cartesian product of the distinct coordinate
values per axis; axis-adjacent grid points are joined by an edge costing
their coordinate difference.  An optimum rectilinear Steiner tree lives on
this grid, so solving the graph instance solves the geometric one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .errors import DEFAULT_MEM_LIMIT, GridTooLarge
from .graph import Graph, SteinerInstance

# Bytes a built grid holds per vertex and per edge, measured with
# tracemalloc on CPython 3.11 over d = 2..8: a vertex is its coordinate tuple
# and list slot, an edge its cost-dict entry with key tuple and cost.  Per
# item this read 135-178 B, while per vertex it grows with d (400 B at d=2,
# 1.2 KB at d=8), so the cap counts vertices plus edges.
GRID_ITEM_BYTES = 200
# a grid at the cap fits the CLI's default 4 GiB memory limit
MAX_GRID_ITEMS = DEFAULT_MEM_LIMIT // GRID_ITEM_BYTES


@dataclass
class PointSet:
    dimension: int
    points: list[tuple[int, ...]]

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError(f"dimension {self.dimension} < 2")
        if not self.points:
            raise ValueError("empty point set")
        for p in self.points:
            if len(p) != self.dimension:
                raise ValueError(f"point {p} is not {self.dimension}-dimensional")


def build_hanan_grid(
    points: PointSet,
) -> tuple[SteinerInstance, dict[tuple[int, ...], int]]:
    """Build the Hanan-grid Steiner instance for a point set.

    Returns the instance and a map from input point to its grid vertex id.
    Duplicate input points collapse to one terminal; terminal order follows
    first occurrence in the point list.  Vertex ids are row-major over the
    per-axis coordinate ranks, so instances are reproducible byte-for-byte.
    """
    d = points.dimension
    axes = [sorted({p[i] for p in points.points}) for i in range(d)]
    counts = [len(a) for a in axes]
    total = 1
    for c in counts:
        total *= c
    items = total + sum((c - 1) * (total // c) for c in counts)
    if items > MAX_GRID_ITEMS:
        raise GridTooLarge(
            f"grid would have {items} vertices and edges, over {MAX_GRID_ITEMS} "
            f"(about {GRID_ITEM_BYTES} B each)")

    # strides for row-major rank indexing: last axis varies fastest
    strides = [0] * d
    acc = 1
    for i in range(d - 1, -1, -1):
        strides[i] = acc
        acc *= counts[i]

    rank = [{val: r for r, val in enumerate(axis)} for axis in axes]

    def vertex_id(point: tuple[int, ...]) -> int:
        return sum(strides[i] * rank[i][point[i]] for i in range(d))

    # each vertex joins its successor along every axis, so every pair is
    # listed once, lower id first; product runs the rank vectors in
    # row-major order, so vertex vid has the vid-th rank vector
    cost: dict[tuple[int, int], int] = {}
    for vid, ranks in enumerate(product(*map(range, counts))):
        for i, r in enumerate(ranks):
            if r + 1 < counts[i]:
                cost[vid, vid + strides[i]] = axes[i][r + 1] - axes[i][r]

    point_to_vertex: dict[tuple[int, ...], int] = {}
    terminals: list[int] = []
    seen: set[int] = set()
    for p in points.points:
        vid = vertex_id(p)
        point_to_vertex[p] = vid
        if vid not in seen:
            seen.add(vid)
            terminals.append(vid)

    instance = SteinerInstance(
        graph=Graph._from_costs(total, cost), terminals=terminals,
        coords=list(product(*axes))
    )
    return instance, point_to_vertex


def generate_random_points(d: int, k: int, coord_max: int, seed: int) -> PointSet:
    """k points with coordinates uniform on {0, ..., coord_max}; seeded."""
    if coord_max < 1:
        raise ValueError("coord_max must be >= 1")
    rng = random.Random(seed)
    pts = [tuple(rng.randint(0, coord_max) for _ in range(d)) for _ in range(k)]
    return PointSet(dimension=d, points=pts)


def parse_points(text: str) -> PointSet:
    """Point file: first line "d k", then k lines of d integers."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty point file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'd k', got {lines[0]!r}")
    d, k = int(head[0]), int(head[1])
    if len(lines) - 1 != k:
        raise ValueError(f"declared {k} points but found {len(lines) - 1}")
    pts = []
    for ln in lines[1:]:
        vals = [int(t) for t in ln.split()]
        if len(vals) != d:
            raise ValueError(f"point line {ln!r} is not {d}-dimensional")
        pts.append(tuple(vals))
    return PointSet(dimension=d, points=pts)
