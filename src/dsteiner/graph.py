"""Graph representation, shortest paths, zero-edge contraction, tree validation.

Edge costs are nonnegative integers; unreachable distances are the INF
sentinel, so cost arithmetic is exact everywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from .errors import NO_LIMITS, ContainsCycle, Limits, MissingTerminal, NotConnected

# Reserved "unreachable"/"unset" sentinel.
INF = (1 << 63) - 1
# Bytes the adjacency lists hold per edge, for the memory-limit check made
# before they are built: lattices and 2D-4D Hanan grids of 3,120 to 189,000
# edges grew 146-162 B per edge under tracemalloc on CPython 3.11 (two
# (neighbour, cost) tuples and their list slots, plus the per-vertex lists).
ADJ_EDGE_BYTES = 160
# Bytes zero-edge contraction holds at its peak per input edge, for the
# memory-limit check made before it allocates: lattices of 3,120 to 28,560
# edges, 5-10% of them zero-cost, peaked at 97-142 B per edge under
# tracemalloc on CPython 3.11 (mostly the copied cost dict, plus the
# union-find array, the vertex map and the witness dict); half-zero
# lattices peaked at 107-124 B.
CONTRACT_EDGE_BYTES = 144


class Graph:
    """Undirected graph with integer edge costs.

    The cost dict, keyed by ``(u, v)`` with ``u < v``, is the one structure
    built eagerly; the adjacency lists are built on first read of ``adj``.
    """

    __slots__ = ("n", "m", "_adj", "_edge_cost")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()):
        """Build from (u, v, cost) triples in one pass: parallel edges keep
        the cheaper cost, and pairs keep the order their edges first occur."""
        self.n = n
        cost: dict[tuple[int, int], int] = {}
        get = cost.get
        for u, v, c in edges:
            if u > v:
                u, v = v, u
            if u < 0 or v >= n or u == v or c < 0:
                self._check_edge(u, v, c)
            key = (u, v)
            old = get(key)
            if old is None or c < old:
                cost[key] = c
        self._edge_cost = cost
        self.m = len(cost)
        self._adj = None

    @classmethod
    def _from_costs(cls, n: int, cost: dict[tuple[int, int], int]) -> "Graph":
        """Wrap a finished cost dict: keys ``(u, v)`` with ``0 <= u < v < n``,
        costs nonnegative; the dict is shared, not copied."""
        graph = cls.__new__(cls)
        graph.n = n
        graph._edge_cost = cost
        graph.m = len(cost)
        graph._adj = None
        return graph

    @property
    def adj(self) -> list[list[tuple[int, int]]]:
        """Per vertex, its ``(neighbour, cost)`` pairs in edge order."""
        adj = self._adj
        if adj is None:
            adj = [[] for _ in range(self.n)]
            for (u, v), c in self._edge_cost.items():
                adj[u].append((v, c))
                adj[v].append((u, c))
            self._adj = adj
        return adj

    def _check_edge(self, u: int, v: int, cost: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if cost < 0:
            raise ValueError(f"negative cost {cost} on edge ({u}, {v})")

    def edge_cost(self, u: int, v: int) -> Optional[int]:
        return self._edge_cost.get((u, v) if u < v else (v, u))

    def has_zero_edge(self) -> bool:
        return 0 in self._edge_cost.values()


@dataclass
class SteinerInstance:
    """A graph plus an ordered terminal list; order drives root selection."""

    graph: Graph
    terminals: list[int]
    name: str = ""
    # one integer coordinate vector per vertex; entries may be None when the
    # instance file only carries coordinates for some vertices
    coords: Optional[list[Optional[tuple[int, ...]]]] = None

    def __post_init__(self):
        if not self.terminals:
            raise ValueError("no terminals")
        seen = set()
        for t in self.terminals:
            if not (0 <= t < self.graph.n):
                raise ValueError(f"terminal {t} out of range")
            if t in seen:
                raise ValueError(f"duplicate terminal {t}")
            seen.add(t)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def k(self) -> int:
        return len(self.terminals)


class ResumableDijkstra:
    """Dijkstra from seeded (vertex, initial cost) pairs that runs only as far
    as its reader asks, and resumes from its frontier on the next request.

    ``dist`` is the distance row, every entry starting at INF, and ``heap``
    the frontier (a binary heap with lazy deletion).
    """

    __slots__ = ("dist", "heap", "_adj")

    def __init__(self, graph: Graph, seeds: Sequence[tuple[int, int]]):
        dist = [INF] * graph.n
        heap = []
        for v, d0 in seeds:
            if d0 < dist[v]:
                dist[v] = d0
                heap.append((d0, v))
        heapq.heapify(heap)
        self.dist = dist
        self.heap = heap
        self._adj = graph.adj

    def settle(self, target: int) -> None:
        """Grow the row until its entry at ``target`` is exact."""
        self._grow(INF, self.dist, target)

    def drain(self, horizon: int = INF) -> list[int]:
        """Run the search out as far as ``horizon``; returns a copy of the
        row with every entry beyond ``horizon`` INF.  No key above it is
        popped, so those entries stay upper bounds that a later request may
        lower."""
        # every key is below INF, so only the horizon stops the growth
        self._grow(horizon, (INF,), 0)
        return [d if d <= horizon else INF for d in self.dist]

    def _grow(self, horizon: int, stop: Sequence[int], i: int) -> None:
        """Pop every frontier key at or below ``horizon`` and below
        ``stop[i]``, which may be an entry the growth itself lowers."""
        heap = self.heap
        dist = self.dist
        adj = self._adj
        heappush, heappop = heapq.heappush, heapq.heappop
        while heap and horizon >= heap[0][0] < stop[i]:
            d, u = heappop(heap)
            if d != dist[u]:
                continue
            for v, c in adj[u]:
                nd = d + c
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))


def multi_source_dijkstra(graph: Graph, seeds: Sequence[tuple[int, int]],
                          horizon: int = INF) -> list[int]:
    """Dijkstra seeded with (vertex, initial cost) pairs; returns the
    distance array, INF where a vertex is unreachable or beyond ``horizon``."""
    return ResumableDijkstra(graph, seeds).drain(horizon)


def _find(parent, x: int) -> int:
    """Union-find root of ``x`` in ``parent`` (a list or a dict), compressing
    the path from ``x``."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def validate_tree(instance: SteinerInstance, edges: Sequence[tuple[int, int]]) -> int:
    """Check that ``edges`` forms a tree spanning all terminals; return its cost.

    Raises ContainsCycle / NotConnected / MissingTerminal naming the violation,
    ValueError if an edge is not present in the graph.
    """
    if not edges:
        if instance.k == 1:
            return 0
        raise MissingTerminal("empty edge set but more than one terminal")
    cost = 0
    parent: dict[int, int] = {}
    for u, v in edges:
        c = instance.graph.edge_cost(u, v)
        if c is None:
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        cost += c
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            raise ContainsCycle(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
    for t in instance.terminals:
        if t not in parent:
            raise MissingTerminal(f"terminal {t} not covered by the tree")
    roots = {_find(parent, t) for t in instance.terminals}
    if len(roots) > 1 or any(_find(parent, x) not in roots for x in parent):
        raise NotConnected("edge set has more than one component")
    return cost


@dataclass
class ContractionMap:
    """Maps a zero-edge-contracted instance back to the original one.

    Contraction keeps vertex ids: each zero-cost component is the vertex
    of its least member, and its other members are left isolated.
    """

    old_to_new: list[int]  # per vertex, its component's least member
    # per kept vertex of a merged component: the zero-cost original edges
    # spanning that component
    component_edges: dict[int, list[tuple[int, int]]]
    # per re-keyed edge (u', v'): a cheapest original edge realizing it; an
    # edge missing here is its own original
    edge_witness: dict[tuple[int, int], tuple[int, int]]

    def lift_edges(
        self, edges: Sequence[tuple[int, int]], root: int
    ) -> list[tuple[int, int]]:
        """Translate a contracted tree containing ``root`` (possibly ``root``
        alone) into original-graph tree edges."""
        lifted: list[tuple[int, int]] = []
        touched: set[int] = set()
        for u, v in edges:
            key = (u, v) if u < v else (v, u)
            lifted.append(self.edge_witness.get(key, key))
            touched.add(u)
            touched.add(v)
        touched.add(root)
        for comp in touched:
            lifted.extend(self.component_edges.get(comp, ()))
        return lifted


def contract_zero_edges(
    instance: SteinerInstance, *, limits: Limits = NO_LIMITS,
) -> tuple[SteinerInstance, Optional[ContractionMap]]:
    """Contract all zero-cost edges; the result has strictly positive costs.

    Vertex ids, ``n`` and ``coords`` stay as they are: each zero-cost
    component keeps the id of its least member, so the kept ids stand in
    the order a renumbering in vertex order would give, which the label
    heap's tie-break on the vertex reads; its other members are left
    isolated.  Only the edges at those members are re-keyed to the kept
    ids, parallel ones keeping the cheaper cost.  A component holding a
    terminal is a terminal, and
    terminal order follows the first occurrence in the original order.
    The returned map lifts any contracted tree back to an original tree of
    the same cost (zero edges re-inserted).  Without a zero-cost edge the
    result is the same instance on a new ``Graph`` sharing the cost dict,
    with no map, so the adjacency a solve builds is the solve's own.
    ``limits`` is checked for memory before a contraction allocates.
    """
    g = instance.graph
    if not g.has_zero_edge():
        return replace(instance, graph=Graph._from_costs(g.n, g._edge_cost)), None
    limits.check_memory(g.m * CONTRACT_EDGE_BYTES, "zero-edge contraction")
    parent = list(range(g.n))
    # the zero edges that merge two components span the merged ones; the
    # smaller root wins, so each root is its component's least vertex
    zero_span: list[tuple[int, int]] = []
    for (u, v), c in g._edge_cost.items():
        if c == 0:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
                zero_span.append((u, v))
    rep = [_find(parent, v) for v in range(g.n)]

    # only edges at a non-kept member move: each re-keyed pair keeps the
    # cheapest cost, with an original edge of that cost as its witness
    cost = dict(g._edge_cost)
    edge_witness: dict[tuple[int, int], tuple[int, int]] = {}
    get = cost.get
    for edge, c in g._edge_cost.items():
        u, v = edge
        ru, rv = rep[u], rep[v]
        if ru == u and rv == v:
            continue
        del cost[edge]
        if ru == rv:
            continue
        key = (ru, rv) if ru < rv else (rv, ru)
        prev = get(key)
        if prev is None or c < prev:
            cost[key] = c
            edge_witness[key] = edge

    component_edges: dict[int, list[tuple[int, int]]] = {}
    for u, v in zero_span:
        component_edges.setdefault(rep[u], []).append((u, v))

    reduced = replace(
        instance, graph=Graph._from_costs(g.n, cost),
        terminals=list(dict.fromkeys(rep[t] for t in instance.terminals)))
    return reduced, ContractionMap(rep, component_edges, edge_witness)
