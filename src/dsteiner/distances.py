"""Terminal-to-all shortest path rows and distance-graph spanning trees.

One solver run owns one DistanceOracle: the rows are immutable after
construction, the set-distance caches are single-writer.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bitsets import iter_bits
from .errors import NO_LIMITS, Limits
from .graph import INF, Graph, multi_source_dijkstra

# Bytes per distance-row slot, for the memory-limit checks of the oracle and
# the jterm tables: full rows and jterm tables on lattices and Hanan grids
# (n = 144..3728) grew 38-42 B per slot under tracemalloc on CPython 3.11,
# an 8 B list pointer plus a 32 B int object per distance.  Rows capped at a
# horizon share one INF object beyond it, so the check errs high for them.
ROW_SLOT_BYTES = 40


class DistanceOracle:
    """Shortest-path distances from every terminal, plus terminal-set queries.

    Terminal sets are int masks over terminal indices 0..k-1 (file order).
    Rows stop at ``horizon``: a farther vertex reads INF.  ``limits`` is
    checked for the size of k full rows before the build and for time after
    each of the k Dijkstra runs.
    """

    def __init__(self, graph: Graph, terminals: Sequence[int], *,
                 horizon: int = INF, limits: Limits = NO_LIMITS):
        self.terminals = list(terminals)
        self.k = len(self.terminals)
        self.horizon = horizon
        limits.check_memory(self.k * graph.n * ROW_SLOT_BYTES, "distance-row")
        self.rows: list[list[int]] = []
        for t in self.terminals:
            self.rows.append(multi_source_dijkstra(graph, [(t, 0)], horizon))
            limits.check_time("while building the distance oracle")
        # k x k matrix of pairwise terminal distances (metric closure on T)
        self.pair = [[self.rows[i][self.terminals[j]] for j in range(self.k)]
                     for i in range(self.k)]
        self._cut_cache: dict[int, int] = {}
        # per vertex, built on first query: sorted reachable (distance, terminal)
        self._nearest: list[Optional[list[tuple[int, int]]]] = [None] * graph.n

    def mst_cost(self, mask: int) -> int:
        """MST cost of the distance graph spanned by the terminals of ``mask``.

        Empty and singleton sets cost 0; INF if some terminal is unreachable.
        """
        idx = list(iter_bits(mask))
        if len(idx) <= 1:
            return 0
        pair = self.pair
        in_tree = [False] * len(idx)
        best = [INF] * len(idx)
        best[0] = 0
        total = 0
        for _ in range(len(idx)):
            u = -1
            ub = INF
            for i in range(len(idx)):
                if not in_tree[i] and best[i] < ub:
                    ub = best[i]
                    u = i
            if u < 0:
                return INF  # some terminal unreachable
            in_tree[u] = True
            total += best[u]
            row = pair[idx[u]]
            for i in range(len(idx)):
                if not in_tree[i]:
                    duv = row[idx[i]]
                    if duv < best[i]:
                        best[i] = duv
        return total

    def set_cut_distance(self, label_mask: int, full_mask: int) -> tuple[int, int]:
        """(min distance, achieving outside terminal) across the cut.

        The minimum runs over terminals inside ``label_mask`` and terminals
        outside it; computed once per occurring set and cached.
        """
        cached = self._cut_cache.get(label_mask)
        if cached is not None:
            return cached
        outside = full_mask & ~label_mask
        best = INF
        best_y = -1
        pair = self.pair
        for x in iter_bits(label_mask):
            row = pair[x]
            for y in iter_bits(outside):
                if row[y] < best:
                    best = row[y]
                    best_y = y
        result = (best, best_y)
        self._cut_cache[label_mask] = result
        return result

    def vertex_to_set_distance(self, vertex: int, term_mask: int) -> tuple[int, int]:
        """(min distance, achieving terminal) from a vertex into a terminal set.

        Ties go to the smallest terminal index; (INF, -1) when no terminal
        of the set is reachable.
        """
        order = self._nearest[vertex]
        if order is None:
            order = self._nearest[vertex] = sorted(
                (row[vertex], y) for y, row in enumerate(self.rows)
                if row[vertex] < INF
            )
        for d, y in order:
            if term_mask >> y & 1:
                return d, y
        return INF, -1
