"""Independent exact reference solver used as ground truth in tests.

Classic subset dynamic program: tables smt({v} | I) are completed for all
terminal sets I of cardinality i before cardinality i+1 starts, each round
being a merge sweep followed by a Dijkstra closure pass.  Deliberately no
bounds, no pruning, no shared code with the labeling solver.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from .errors import Infeasible, TooManyTerminalsForOracle
from .graph import INF, Graph, SteinerInstance

ORACLE_TERMINAL_CAP = 16


def _emv_tables(graph: Graph, term_vertices: Sequence[int]):
    """dp[mask][v] = smt({v} | terms(mask)) plus per-entry decisions.

    Decisions: ('e', u) came via edge {u, v}; ('m', sub) merged sub with
    mask ^ sub at v; None is a base seed.
    """
    p = len(term_vertices)
    n = graph.n
    adj = graph.adj
    dp: dict[int, list[int]] = {}
    dec: dict[int, list] = {}

    order = sorted(range(1, 1 << p), key=lambda m: m.bit_count())
    for mask in order:
        if mask & (mask - 1) == 0:
            arr = [INF] * n
            choices = [None] * n
            arr[term_vertices[mask.bit_length() - 1]] = 0
        else:
            arr = [INF] * n
            choices = [None] * n
            low = mask & -mask
            sub = (mask - 1) & mask
            # canonical splits: sub contains the lowest bit, sub != mask
            while sub:
                if sub & low and sub != mask:
                    da = dp[sub]
                    db = dp[mask ^ sub]
                    for v in range(n):
                        c = da[v] + db[v]
                        if c < arr[v]:
                            arr[v] = c
                            choices[v] = ("m", sub)
                sub = (sub - 1) & mask
        # closure: propagate along graph edges
        heap = [(c, v) for v, c in enumerate(arr) if c < INF]
        heapq.heapify(heap)
        while heap:
            c, u = heapq.heappop(heap)
            if c != arr[u]:
                continue
            for v, w in adj[u]:
                nc = c + w
                if nc < arr[v]:
                    arr[v] = nc
                    choices[v] = ("e", u)
                    heapq.heappush(heap, (nc, v))
        dp[mask] = arr
        dec[mask] = choices
    return dp, dec


def _reconstruct(dec, term_vertices, mask: int, vertex: int) -> list[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    stack = [(mask, vertex)]
    while stack:
        m, v = stack.pop()
        if m == 0:
            continue
        choice = dec[m][v]
        if choice is None:
            continue
        kind, arg = choice
        if kind == "e":
            u = arg
            edges.add((u, v) if u < v else (v, u))
            stack.append((m, u))
        else:
            stack.append((arg, v))
            stack.append((m ^ arg, v))
    return sorted(edges)


def solve_baseline(instance: SteinerInstance, root_index: Optional[int] = None) -> tuple[int, list[tuple[int, int]]]:
    """Exact optimum cost and tree, straight subset DP over the sources.

    ``root_index`` indexes into the terminal list; defaults to the last
    terminal.
    """
    k = instance.k
    if k > ORACLE_TERMINAL_CAP:
        raise TooManyTerminalsForOracle(f"k={k} exceeds oracle cap {ORACLE_TERMINAL_CAP}")
    if k == 1:
        return 0, []
    if root_index is None:
        root_index = k - 1
    root_vertex = instance.terminals[root_index]
    sources = [t for i, t in enumerate(instance.terminals) if i != root_index]
    dp, dec = _emv_tables(instance.graph, sources)
    full = (1 << len(sources)) - 1
    cost = dp[full][root_vertex]
    if cost >= INF:
        raise Infeasible("some terminal is unreachable from the root")
    return cost, _reconstruct(dec, sources, full, root_vertex)

