"""Terminal-to-all shortest path rows and distance-graph spanning trees.

One solver run owns one DistanceOracle.  Its rows grow on demand: each is a
resumable Dijkstra from one terminal.  Readers see them only through
``columns``, one tuple of exact distances per vertex, which grows the rows
as far as the vertex needs on its first read; only ``complete()`` hands out
whole rows, run out as far as an upper bound U >= opt.  The oracle keeps no
per-set state: its set queries are pure.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .bitsets import iter_bits
from .errors import NO_LIMITS, Limits
from .graph import INF, Graph, ResumableDijkstra

# Bytes per distance-row slot, for the memory-limit checks of the oracle and
# the jterm tables: full rows and jterm tables on lattices and Hanan grids
# (n = 144..3728) grew 38-42 B per slot under tracemalloc on CPython 3.11,
# an 8 B list pointer plus a 32 B int object per distance.  A row holds an
# int of its own only where its search has reached, and one shared INF
# elsewhere: the rows ended at 9-22 B per slot on the 24 seed-1 lattice_cli
# solves and at 40 B on 30 hanan3d solves.
ROW_SLOT_BYTES = 40
# Bytes per entry of the frontiers the rows keep between growths, counted
# once per vertex: a (distance, vertex) tuple and its heap slot grew 64 B
# under tracemalloc on CPython 3.11, and a stale entry (21-31% of them at the
# peak on lattices) also keeps its own 32 B int.  Summed over the rows, the
# frontiers peaked at 0.12-0.94 entries per vertex over the 24 seed-1
# lattice_cli solves and at 0.31-1.48 over 30 hanan3d solves, there while
# the terminals' columns were built and the rows were short: the oracle as
# a whole then peaked at 64-74% of its check.
FRONTIER_ENTRY_BYTES = 72
# Bytes a read column holds: on 2D-4D Hanan grids, k = 8..16, n = 64..20736,
# tracemalloc (CPython 3.11) read 8 B per terminal (tuple slots) plus 58-106
# B per vertex (tuple header, dict entry, int key) with every column read.
COLUMN_SLOT_BYTES = 8
COLUMN_BYTES = 104
_GROWING = "while growing the distance oracle's rows"


class _Columns(dict):
    """Vertex -> tuple of the exact distances from every terminal, built on
    first read by growing each row that is not yet exact at the vertex."""

    def __init__(self, searches: list[ResumableDijkstra], limits: Limits):
        self._searches = searches
        self._limits = limits

    def __missing__(self, v: int) -> tuple[int, ...]:
        col = []
        for search in self._searches:
            heap, dist = search.heap, search.dist
            if heap and heap[0][0] < dist[v]:
                search.settle(v)
                self._limits.check_time(_GROWING)
            col.append(dist[v])
        col = self[v] = tuple(col)
        return col


class DistanceOracle:
    """Shortest-path distances from every terminal, plus terminal-set queries.

    Terminal sets are int masks over terminal indices 0..k-1 (file order).
    ``columns[v]`` is the tuple of distances from every terminal to vertex
    ``v``, indexed by terminal; its first read grows one resumable Dijkstra
    per terminal as far as ``v`` needs.  ``pair`` and ``mst_cost`` read the
    terminals' columns, built at construction, so each row starts settled
    up to the terminals; no row is ever rewritten.  ``complete()`` runs
    the rows out.  ``limits`` is checked for the size of k full rows,
    their frontiers and the columns before the build, and for time after
    each row's growth.
    """

    def __init__(self, graph: Graph, terminals: Sequence[int], *,
                 limits: Limits = NO_LIMITS):
        self.terminals = list(terminals)
        self.k = len(self.terminals)
        limits.check_memory(
            ((ROW_SLOT_BYTES + COLUMN_SLOT_BYTES) * self.k
             + FRONTIER_ENTRY_BYTES + COLUMN_BYTES) * graph.n, "distance-row")
        self._limits = limits
        self._searches = [ResumableDijkstra(graph, [(t, 0)]) for t in self.terminals]
        self.columns: Mapping[int, tuple[int, ...]] = _Columns(self._searches, limits)
        # k x k matrix of pairwise terminal distances (metric closure on T)
        self.pair = [list(row) for row in
                     zip(*[self.columns[t] for t in self.terminals])]

    def complete(self, horizon: int = INF) -> list[list[int]]:
        """Run every row out as far as ``horizon``; returns the rows,
        indexed by terminal, with every entry beyond it INF."""
        rows = []
        for search in self._searches:
            rows.append(search.drain(horizon))
            self._limits.check_time(_GROWING)
        return rows

    def mst_cost(self, mask: int) -> int:
        """MST cost of the distance graph spanned by the terminals of ``mask``.

        Empty and singleton sets cost 0; INF if some terminal is unreachable.
        """
        idx = list(iter_bits(mask))
        if len(idx) <= 1:
            return 0
        pair = self.pair
        # Prim: best[i] is terminal i's cheapest link into the tree so far
        best = {i: pair[idx[0]][i] for i in idx[1:]}
        total = 0
        while best:
            u = min(best, key=best.get)
            d = best.pop(u)
            if d >= INF:
                return INF  # some terminal unreachable
            total += d
            row = pair[u]
            for i in best:
                if row[i] < best[i]:
                    best[i] = row[i]
        return total

    def set_cut_distance(self, label_mask: int) -> tuple[int, int]:
        """(min distance, achieving outside terminal) across the cut between
        the terminals inside ``label_mask`` and those outside it.

        Ties go to the first pair in (inside, outside) index order; (INF, -1)
        when no pair across the cut is connected.
        """
        outside = list(iter_bits(((1 << self.k) - 1) & ~label_mask))
        best, best_y = INF, -1
        pair = self.pair
        for x in iter_bits(label_mask):
            row = pair[x]
            for y in outside:
                if row[y] < best:
                    best, best_y = row[y], y
        return best, best_y

    def vertex_to_set_distance(self, vertex: int,
                               terminals: Sequence[int]) -> tuple[int, int]:
        """(min distance, achieving terminal) from a vertex into the given
        terminal indices, which come in increasing order.

        Ties go to the smallest terminal index; (INF, -1) when none of them
        is reachable.
        """
        col = self.columns[vertex]
        best, best_y = INF, -1
        for y in terminals:
            if col[y] < best:
                best, best_y = col[y], y
        return best, best_y
