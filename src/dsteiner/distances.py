"""Terminal-to-all shortest path rows and distance-graph spanning trees.

One solver run owns one DistanceOracle.  Its rows grow on demand: each is a
resumable Dijkstra from one terminal, and an entry is read only at a vertex
the oracle has settled, where every row's entry is exact.  The set-distance
caches are single-writer.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .bitsets import iter_bits
from .errors import NO_LIMITS, Limits
from .graph import INF, Graph, ResumableDijkstra

# Bytes per distance-row slot, for the memory-limit checks of the oracle and
# the jterm tables: full rows and jterm tables on lattices and Hanan grids
# (n = 144..3728) grew 38-42 B per slot under tracemalloc on CPython 3.11,
# an 8 B list pointer plus a 32 B int object per distance.  Rows capped at a
# horizon share one INF object beyond it, so the check errs high for them.
ROW_SLOT_BYTES = 40
# Bytes per entry of the frontiers the rows keep between growths, counted
# once per vertex: a (distance, vertex) tuple and its heap slot grew 64 B
# under tracemalloc on CPython 3.11, and a stale entry (21-31% of them at the
# peak on lattices) also keeps its own 32 B int.  Summed over the rows, the
# frontiers peaked at 0.11-0.94 entries per vertex over the 24 seed-1
# lattice_cli solves and at 0.19-0.55 over 30 hanan3d solves.
FRONTIER_ENTRY_BYTES = 72
_GROWING = "while growing the distance oracle's rows"


class DistanceOracle:
    """Shortest-path distances from every terminal, plus terminal-set queries.

    Terminal sets are int masks over terminal indices 0..k-1 (file order).
    Rows stop at ``horizon``: a farther vertex reads INF.  Row ``i`` is
    ``rows[i]``, grown by one resumable Dijkstra from terminal ``i``; an
    entry may be read where ``settled`` is set.  Construction settles the
    terminals, which ``pair`` and ``mst_cost`` read; ``settle(v)`` grows the
    rows as far as vertex ``v`` needs, and ``complete()`` runs them out.
    ``started`` hands over searches already run partway from some
    terminals (by index) with no horizon; they are capped at ``horizon``
    and resumed.  ``limits`` is checked for the size of k full rows and
    their frontiers before the build, and for time after each row's growth.
    """

    def __init__(self, graph: Graph, terminals: Sequence[int], *,
                 horizon: int = INF, limits: Limits = NO_LIMITS,
                 started: Optional[Mapping[int, ResumableDijkstra]] = None):
        self.terminals = list(terminals)
        self.k = len(self.terminals)
        self.horizon = horizon
        n = graph.n
        limits.check_memory((self.k * ROW_SLOT_BYTES + FRONTIER_ENTRY_BYTES) * n,
                            "distance-row")
        self._limits = limits
        searches = []
        for i, t in enumerate(self.terminals):
            search = started.get(i) if started else None
            if search is None:
                search = ResumableDijkstra(graph, [(t, 0)], horizon)
            else:
                search.cap(horizon)
            searches.append(search)
        self.rows: list[list[int]] = [s.dist for s in searches]
        self.settled = bytearray(n)
        self._growing = searches
        self._drop_finished()
        for t in self.terminals:
            self.settle(t)
        # k x k matrix of pairwise terminal distances (metric closure on T)
        self.pair = [[self.rows[i][self.terminals[j]] for j in range(self.k)]
                     for i in range(self.k)]
        self._cut_cache: dict[int, int] = {}
        # per vertex, built on first query: sorted reachable (distance, terminal)
        self._nearest: list[Optional[list[tuple[int, int]]]] = [None] * n

    def settle(self, v: int) -> None:
        """Grow every unfinished row until its entry at ``v`` is exact."""
        grew = False
        for search in self._growing:
            # an unfinished row has a frontier; it may already reach v
            if search.heap[0][0] < search.dist[v]:
                search.settle(v)
                self._limits.check_time(_GROWING)
                grew = True
        self.settled[v] = 1
        if grew:
            self._drop_finished()

    def complete(self) -> None:
        """Run every row out, so that every entry is exact."""
        for search in self._growing:
            search.drain()
            self._limits.check_time(_GROWING)
        self._drop_finished()

    def _drop_finished(self) -> None:
        growing = self._growing = [s for s in self._growing if s.heap]
        if not growing:
            settled = self.settled
            settled[:] = b"\x01" * len(settled)

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
            if not self.settled[vertex]:
                self.settle(vertex)
            order = self._nearest[vertex] = sorted(
                (row[vertex], y) for y, row in enumerate(self.rows)
                if row[vertex] < INF
            )
        for d, y in order:
            if term_mask >> y & 1:
                return d, y
        return INF, -1
