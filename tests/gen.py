"""Shared instance generators and independent oracles for the test suite.

The oracles here are deliberately naive (enumeration, Bellman-Ford,
permutations) so they share no logic with the code under test.  The
exception is ``BaselineOracle``, which reads the tables of the reference
subset DP in ``dsteiner.baseline``.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

from dsteiner import DistanceOracle, Graph, SteinerInstance, contract_zero_edges
from dsteiner.baseline import ORACLE_TERMINAL_CAP, _emv_tables
from dsteiner.errors import TooManyTerminalsForOracle
from dsteiner.graph import INF


def edges_of(graph: Graph) -> list[tuple[tuple[int, int], int]]:
    """The graph's ``((u, v), cost)`` pairs, ``u < v``, in edge order."""
    return list(graph._edge_cost.items())


def random_instance(
    seed: int,
    n_range=(5, 25),
    extra_edge_cap=35,
    k_range=(2, 7),
    cost_range=(1, 20),
    zero_edges=0,
    name=None,
) -> SteinerInstance:
    """Connected random instance: random spanning tree plus extra edges."""
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    edges = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[(u, v)] = rng.randint(*cost_range)
    for _ in range(rng.randint(0, extra_edge_cap)):
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if key not in edges and len(edges) < 60:
            edges[key] = rng.randint(*cost_range)
    if zero_edges:
        for key in rng.sample(list(edges), min(zero_edges, len(edges))):
            edges[key] = 0
    g = Graph(n, [(u, v, c) for (u, v), c in edges.items()])
    k = rng.randint(k_range[0], min(k_range[1], n))
    terminals = rng.sample(range(n), k)
    return SteinerInstance(
        graph=g, terminals=terminals, name=name or f"rand{seed}"
    )


def lattice_instance(side: int, k: int, seed: int, cost_range=(1, 100),
                     window=None) -> SteinerInstance:
    """side x side grid graph with k random terminals, all inside the top
    left window x window square when ``window`` is given."""
    rng = random.Random(seed)
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, rng.randint(*cost_range)))
            if r + 1 < side:
                edges.append((v, v + side, rng.randint(*cost_range)))
    win = window or side
    terminals = [(x // win) * side + x % win for x in rng.sample(range(win * win), k)]
    return SteinerInstance(graph=Graph(side * side, edges), terminals=terminals,
                           name=f"lattice{side}")


def capped_cases(zero_edges: int):
    """(contracted instance, U) pairs for checking preprocessing capped at
    the U that ``solve`` uses, the MST cost of the terminals' distance
    graph: random graphs, and lattices whose clustered terminals leave much
    of the grid beyond U."""
    cases = [random_instance(seed + 1200, zero_edges=zero_edges) for seed in range(30)]
    cases += [lattice_instance(12, 5, seed, cost_range=(0 if zero_edges else 1, 9),
                               window=4) for seed in range(4)]
    for inst in cases:
        reduced, _ = contract_zero_edges(inst)
        if reduced.k > 1:
            yield reduced, DistanceOracle(reduced.graph, reduced.terminals).mst_cost(
                (1 << reduced.k) - 1)


def bellman_ford(graph: Graph, source: int) -> list[int]:
    dist = [INF] * graph.n
    dist[source] = 0
    pairs = [(u, v, c) for (u, v), c in edges_of(graph)]
    for _ in range(graph.n - 1):
        changed = False
        for u, v, c in pairs:
            if dist[u] < INF and dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                changed = True
            if dist[v] < INF and dist[v] + c < dist[u]:
                dist[u] = dist[v] + c
                changed = True
        if not changed:
            break
    return dist


def mst_by_prufer_enumeration(dist_matrix: list[list[int]]) -> int:
    """Minimum over all labeled spanning trees, via Prufer sequences."""
    p = len(dist_matrix)
    if p <= 1:
        return 0
    if p == 2:
        return dist_matrix[0][1]
    best = None
    for seq in itertools.product(range(p), repeat=p - 2):
        degree = [1] * p
        for x in seq:
            degree[x] += 1
        cost = 0
        deg = list(degree)
        seq_list = list(seq)
        ptr = sorted(i for i in range(p) if deg[i] == 1)
        # standard Prufer decode with a sorted leaf list
        leaves = ptr
        for x in seq_list:
            leaf = leaves.pop(0)
            deg[leaf] = 0
            cost += dist_matrix[leaf][x]
            deg[x] -= 1
            if deg[x] == 1:
                leaves.append(x)
                leaves.sort()
        a, b = [i for i in range(p) if deg[i] == 1]
        cost += dist_matrix[a][b]
        if best is None or cost < best:
            best = cost
    return best


def tsp_by_permutations(dist_matrix: list[list[int]], members: list[int]) -> int:
    """Exact tour cost by enumerating all (|X|-1)! cyclic orders."""
    if len(members) <= 1:
        return 0
    if len(members) == 2:
        return 2 * dist_matrix[members[0]][members[1]]
    first, rest = members[0], members[1:]
    best = None
    for perm in itertools.permutations(rest):
        order = (first,) + perm
        cost = sum(
            dist_matrix[order[i]][order[(i + 1) % len(order)]]
            for i in range(len(order))
        )
        if best is None or cost < best:
            best = cost
    return best


def path_by_permutations(
    dist_matrix: list[list[int]], members: list[int], a: int, b: int
) -> int:
    """Cheapest path from a to b through every member, by enumerating the
    orders of the members other than a and b."""
    inner = [x for x in members if x != a and x != b]
    best = None
    for perm in itertools.permutations(inner):
        order = (a,) + perm + (b,)
        cost = sum(dist_matrix[order[i]][order[i + 1]] for i in range(len(order) - 1))
        if best is None or cost < best:
            best = cost
    return best


def steiner_by_subtree_enumeration(graph: Graph, terminals: list[int]) -> int:
    """Exact smt by enumerating every edge subset that forms a tree.

    Exponential in the edge count; only for graphs with a handful of edges.
    """
    all_edges = [(u, v, c) for (u, v), c in edges_of(graph)]
    if len(all_edges) > 18:
        raise ValueError("enumeration oracle limited to tiny graphs")
    best = None
    term_set = set(terminals)
    if len(term_set) == 1:
        return 0
    for bits in range(1, 1 << len(all_edges)):
        combo = [all_edges[i] for i in range(len(all_edges)) if bits >> i & 1]
        vertices = set()
        for u, v, _ in combo:
            vertices.add(u)
            vertices.add(v)
        if not term_set <= vertices:
            continue
        parent = {x: x for x in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v, _ in combo:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if not acyclic:
            continue
        if len({find(x) for x in vertices}) != 1:
            continue
        cost = sum(c for _, _, c in combo)
        if best is None or cost < best:
            best = cost
    return best


def rectilinear_smt_bruteforce(points: list[tuple[int, int]]) -> int:
    """Rectilinear SMT by minimizing the L1 MST over every subset of
    Hanan-grid Steiner point candidates (valid for planar point sets)."""
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})
    grid = [(x, y) for x in xs for y in ys]
    term_set = set(points)
    candidates = [p for p in grid if p not in term_set]
    terms = list(term_set)

    def l1_mst(nodes: list[tuple[int, int]]) -> int:
        if len(nodes) <= 1:
            return 0
        in_tree = [False] * len(nodes)
        best = [None] * len(nodes)
        best[0] = 0
        total = 0
        for _ in range(len(nodes)):
            u = min(
                (i for i in range(len(nodes)) if not in_tree[i]),
                key=lambda i: best[i] if best[i] is not None else 1 << 60,
            )
            in_tree[u] = True
            total += best[u]
            for i in range(len(nodes)):
                if not in_tree[i]:
                    d = abs(nodes[u][0] - nodes[i][0]) + abs(nodes[u][1] - nodes[i][1])
                    if best[i] is None or d < best[i]:
                        best[i] = d
        return total

    best = l1_mst(terms)
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            cost = l1_mst(terms + list(combo))
            if cost < best:
                best = cost
    return best


class BaselineOracle:
    """smt() lookups over arbitrary root-containing terminal subsets.

    Builds the full-terminal-set table once (cap k <= 16) and answers
    smt(X | {v}) queries by table lookup.
    """

    def __init__(self, instance: SteinerInstance):
        if instance.k > ORACLE_TERMINAL_CAP:
            raise TooManyTerminalsForOracle(
                f"k={instance.k} exceeds oracle cap {ORACLE_TERMINAL_CAP}"
            )
        self.instance = instance
        self._dp = None

    def _tables(self):
        if self._dp is None:
            self._dp = _emv_tables(self.instance.graph, self.instance.terminals)[0]
        return self._dp

    def smt_mask(self, term_mask: int, extra_vertex: Optional[int] = None) -> int:
        """smt over the terminals in ``term_mask`` plus an optional vertex."""
        if term_mask == 0:
            return 0
        dp = self._tables()
        if extra_vertex is None:
            low = term_mask & -term_mask
            anchor = self.instance.terminals[low.bit_length() - 1]
            rest = term_mask ^ low
            if rest == 0:
                return 0
            return dp[rest][anchor]
        return dp[term_mask][extra_vertex]

    def smt_subset(
        self,
        terminal_vertices: Sequence[int],
        extra_vertex: Optional[int] = None,
    ) -> int:
        """smt for a set given by terminal vertex ids plus an optional vertex."""
        index_of = {t: i for i, t in enumerate(self.instance.terminals)}
        mask = 0
        for t in terminal_vertices:
            mask |= 1 << index_of[t]
        if mask == 0 and extra_vertex is not None:
            return 0
        return self.smt_mask(mask, extra_vertex)
