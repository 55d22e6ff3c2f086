import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsteiner import (
    Graph,
    SteinerInstance,
    contract_zero_edges,
    multi_source_dijkstra,
    solve,
    solve_baseline,
    validate_tree,
)
from dsteiner.errors import ContainsCycle, Limits, MemoryLimit, MissingTerminal, NotConnected
from dsteiner.graph import ADJ_EDGE_BYTES, CONTRACT_EDGE_BYTES, INF, ResumableDijkstra

from gen import (
    bellman_ford,
    edges_of,
    lattice_instance,
    random_instance,
)


def test_single_edge_distance():
    g = Graph(2, [(0, 1, 5)])
    dist = multi_source_dijkstra(g, [(0, 0)])
    assert dist == [0, 5]


def test_triangle_forces_relaxation():
    g = Graph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 5)])
    dist = multi_source_dijkstra(g, [(0, 0)])
    assert dist[2] == 4


def test_unreachable_is_infinite():
    g = Graph(3, [(0, 1, 1)])
    dist = multi_source_dijkstra(g, [(0, 0)])
    assert dist[2] == INF


@pytest.mark.parametrize("seed", range(12))
def test_dijkstra_matches_bellman_ford(seed):
    inst = random_instance(seed, n_range=(20, 20))
    dist = multi_source_dijkstra(inst.graph, [(0, 0)])
    assert dist == bellman_ford(inst.graph, 0)


@pytest.mark.parametrize("seed", range(6))
def test_triangle_inequality_on_terminal_rows(seed):
    inst = random_instance(seed)
    rows = [multi_source_dijkstra(inst.graph, [(t, 0)]) for t in inst.terminals]
    for i, ti in enumerate(inst.terminals):
        for j in range(len(inst.terminals)):
            for v in range(inst.n):
                if rows[i][v] < INF and rows[j][v] < INF:
                    assert rows[i][inst.terminals[j]] <= rows[i][v] + rows[j][v]


def test_parallel_edges_keep_cheaper():
    g = Graph(2, [(0, 1, 9), (0, 1, 4), (1, 0, 7)])
    assert g.m == 1
    assert g.edge_cost(0, 1) == 4


@pytest.mark.parametrize("seed", range(8))
def test_dijkstra_horizon_caps_distances(seed):
    inst = random_instance(seed, zero_edges=2)
    seeds = [(inst.terminals[0], 0), (inst.terminals[-1], 7)]
    full = multi_source_dijkstra(inst.graph, seeds)
    finite = sorted({d for d in full if d < INF})
    for horizon in (0, 6, finite[len(finite) // 2], finite[-1]):
        capped = multi_source_dijkstra(inst.graph, seeds, horizon)
        assert capped == [d if d <= horizon else INF for d in full], horizon


# --- resumable search ---

@pytest.mark.parametrize("seed", range(8))
def test_settled_entries_are_exact_and_the_search_resumes(seed):
    # an entry is final once settle() returns, in any order of vertices and
    # also after a drain that stopped at a horizon, and a drain afterwards
    # yields the row a single run would
    rng = random.Random(seed)
    inst = random_instance(seed + 60, n_range=(15, 25), zero_edges=seed % 3)
    source = inst.terminals[0]
    full = multi_source_dijkstra(inst.graph, [(source, 0)])
    finite = sorted(d for d in full if d < INF)
    for v in range(inst.n):
        fresh = ResumableDijkstra(inst.graph, [(source, 0)])
        fresh.settle(v)
        assert fresh.dist[v] == full[v], v
    search = ResumableDijkstra(inst.graph, [(source, 0)])
    row = search.dist
    order = rng.sample(range(inst.n), inst.n)
    for i, v in enumerate(order):
        if i == inst.n // 2:
            search.drain(finite[len(finite) // 2])
        search.settle(v)
        assert row[v] == full[v], v
    assert search.drain() == row == full and not search.heap


@pytest.mark.parametrize("seed", range(8))
def test_capped_partial_search_equals_search_started_capped(seed):
    # drain(h) reads the full row with every entry beyond h as INF, both on
    # a fresh search and on one run partway with no horizon, and leaves the
    # search able to grow past h
    inst = random_instance(seed + 80, n_range=(15, 25))
    source = inst.terminals[0]
    full = multi_source_dijkstra(inst.graph, [(source, 0)])
    finite = sorted(d for d in full if d < INF)
    for stop in (None, 0, len(finite) // 3, len(finite) - 1):
        for horizon in (0, finite[len(finite) // 3], finite[-1] - 1, finite[-1]):
            search = ResumableDijkstra(inst.graph, [(source, 0)])
            if stop is not None:
                search.settle(full.index(finite[stop]))
            want = [d if d <= horizon else INF for d in full]
            assert search.drain(horizon) == want, (stop, horizon)
            assert all(d > horizon for d, _ in search.heap)
            assert search.drain() == full


def test_search_with_no_seed_within_the_horizon_is_finished():
    # the seed lies beyond the horizon: the drain pops nothing, and every
    # entry reads as INF
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    assert multi_source_dijkstra(g, [(0, 5)], 4) == [INF] * 3
    search = ResumableDijkstra(g, [(0, 5)])
    assert search.drain(4) == [INF] * 3
    assert search.heap == [(5, 0)] and search.dist == [5, INF, INF]


# --- bulk construction ---

def _assert_built_from(graph, n, edges):
    """``graph`` is what inserting ``edges`` one at a time gives: the
    cheapest cost per vertex pair, pairs in the order they first occur, and
    each vertex listing its neighbours in that order."""
    cheapest = {}
    for u, v, c in edges:
        key = (min(u, v), max(u, v))
        cheapest[key] = min(c, cheapest.get(key, c))
    adj = [[] for _ in range(n)]
    for (u, v), c in cheapest.items():
        adj[u].append((v, c))
        adj[v].append((u, c))
    assert edges_of(graph) == list(cheapest.items())
    assert graph.adj == adj
    assert graph.m == len(cheapest)


def test_bulk_build_parallel_edges_in_both_cost_orders():
    for edges in ([(0, 1, 9), (1, 2, 3), (1, 0, 4)],
                  [(1, 0, 4), (1, 2, 3), (0, 1, 9)]):
        bulk = Graph(3, edges)
        _assert_built_from(bulk, 3, edges)
        assert bulk.edge_cost(0, 1) == 4 and bulk.m == 2
        assert bulk.adj[1] == [(0, 4), (2, 3)]


def _random_edges(rng, n):
    edges = []
    for _ in range(rng.randint(0, 40)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(0, 9)))
    return edges


@pytest.mark.parametrize("seed", range(30))
def test_bulk_build_matches_add_edge_loop(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = _random_edges(rng, n)
    # repeat pairs reversed, cheaper or dearer, before or after the original
    for u, v, c in rng.sample(edges, min(8, len(edges))):
        edges.insert(rng.randrange(len(edges) + 1),
                     (v, u, max(0, c + rng.choice((-2, -1, 1, 2)))))
    _assert_built_from(Graph(n, edges), n, edges)


@pytest.mark.parametrize("seed", range(30))
def test_from_costs_and_lazy_adj_match_eager_build(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = _random_edges(rng, n)
    built = Graph(n, edges)
    cheapest = {}
    for u, v, c in edges:
        key = (min(u, v), max(u, v))
        cheapest[key] = min(c, cheapest.get(key, c))
    wrapped = Graph._from_costs(n, cheapest)
    for graph in (built, wrapped):
        assert graph._adj is None  # nothing built before the first read
        _assert_built_from(graph, n, edges)
        assert graph.adj is graph.adj  # built once


def test_adjacency_estimate_tracks_measured_growth():
    # traced memory the adjacency lists add, against the estimate the
    # memory limit is checked with before they are built
    import tracemalloc

    from dsteiner import build_hanan_grid, generate_random_points

    grids = [lattice_instance(40, 5, seed=1),
             build_hanan_grid(generate_random_points(3, 20, 10**6, 1))[0]]
    for inst in grids:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            inst.graph.adj
            growth = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        est = inst.m * ADJ_EDGE_BYTES
        assert growth / 1.25 <= est <= 1.25 * growth, (inst.m, growth)


@pytest.mark.parametrize("edges, message", [
    ([(0, 3, 1)], "out of range"),
    ([(-1, 0, 1)], "out of range"),
    ([(1, 1, 2)], "self-loop"),
    ([(0, 1, -1)], "negative cost"),
    ([(0, 1, 2), (1, 0, -1)], "negative cost"),
])
def test_bulk_build_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, edges)


# --- validate_tree ---

def test_validate_single_terminal_empty_tree():
    g = Graph(1)
    inst = SteinerInstance(graph=g, terminals=[0])
    assert validate_tree(inst, []) == 0


def test_validate_star():
    g = Graph(4, [(0, 3, 2), (1, 3, 3), (2, 3, 4)])
    inst = SteinerInstance(graph=g, terminals=[0, 1, 2])
    assert validate_tree(inst, [(0, 3), (1, 3), (2, 3)]) == 9


def test_validate_rejects_cycle():
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    inst = SteinerInstance(graph=g, terminals=[0, 1, 2])
    with pytest.raises(ContainsCycle):
        validate_tree(inst, [(0, 1), (1, 2), (0, 2)])


def test_validate_rejects_disconnected():
    g = Graph(4, [(0, 1, 1), (2, 3, 1), (1, 2, 1)])
    inst = SteinerInstance(graph=g, terminals=[0, 1, 2, 3])
    with pytest.raises(NotConnected):
        validate_tree(inst, [(0, 1), (2, 3)])


def test_validate_rejects_missing_terminal():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    inst = SteinerInstance(graph=g, terminals=[0, 1, 2])
    with pytest.raises(MissingTerminal):
        validate_tree(inst, [(0, 1)])


def test_validate_rejects_unknown_edge():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    inst = SteinerInstance(graph=g, terminals=[0, 2])
    with pytest.raises(ValueError):
        validate_tree(inst, [(0, 2)])


def test_validate_rejects_duplicate_edge():
    g = Graph(2, [(0, 1, 1)])
    inst = SteinerInstance(graph=g, terminals=[0, 1])
    with pytest.raises(ContainsCycle):
        validate_tree(inst, [(0, 1), (0, 1)])


# --- zero-edge contraction ---

def _same_instance_on_shared_costs(reduced, inst):
    """``reduced`` is a new instance over a new graph that shares
    ``inst``'s cost dict, with the same terminals, name and coordinates."""
    return (reduced is not inst and reduced.graph is not inst.graph
            and reduced.graph._edge_cost is inst.graph._edge_cost
            and (reduced.n, reduced.m) == (inst.n, inst.m)
            and reduced.terminals == inst.terminals
            and reduced.name == inst.name and reduced.coords is inst.coords)


def test_contract_identity_without_zero_edges():
    inst = random_instance(3)
    reduced, cmap = contract_zero_edges(inst)
    assert _same_instance_on_shared_costs(reduced, inst)
    assert cmap is None


def test_contract_without_zero_edges_returns_instance():
    # the same instance on the shared cost dict: no map is built and
    # nothing is copied, so nothing is allocated per edge.  The peak is a
    # constant, under 1.5 KB: the new instance and graph, and what building
    # them takes, most of it the set that checks the 5 terminals (the
    # lattices have 3,120 and 12,640 edges)
    import tracemalloc

    for size in (40, 80):
        inst = lattice_instance(size, 5, seed=size)
        tracemalloc.start()
        try:
            reduced, cmap = contract_zero_edges(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_instance_on_shared_costs(reduced, inst) and cmap is None
        assert peak < 2048, (size, peak)


def test_contract_merges_zero_joined_terminals():
    g = Graph(3, [(0, 1, 0), (1, 2, 4)])
    inst = SteinerInstance(graph=g, terminals=[0, 1, 2])
    reduced, _ = contract_zero_edges(inst)
    # vertex ids are kept: the component {0, 1} is vertex 0, and 1 is isolated
    assert reduced.n == 3
    assert reduced.terminals == [0, 2]
    assert edges_of(reduced.graph) == [((0, 2), 4)]
    assert reduced.graph.adj[1] == []


@pytest.mark.parametrize("seed", range(15))
def test_contract_preserves_optimum(seed):
    inst = random_instance(seed, zero_edges=3)
    base_cost, _ = solve_baseline(inst)  # handles zero costs directly
    rec = solve(inst)  # contracts internally, lifts the tree back
    assert rec.opt == base_cost
    assert validate_tree(inst, rec.edges) == rec.opt


def _least_zero_component_member(graph):
    """Per vertex, the least vertex of its zero-cost component, by a BFS
    over the zero-cost edges from each vertex in increasing order."""
    zero_adj = [[] for _ in range(graph.n)]
    for (u, v), c in edges_of(graph):
        if c == 0:
            zero_adj[u].append(v)
            zero_adj[v].append(u)
    least = [None] * graph.n
    for s in range(graph.n):
        if least[s] is None:
            least[s] = s
            queue = [s]
            for x in queue:
                for y in zero_adj[x]:
                    if least[y] is None:
                        least[y] = s
                        queue.append(y)
    return least


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_contract_output_always_positive(seed):
    side = 6 + seed % 5
    lattice = replace(lattice_instance(side, 4, seed, cost_range=(0, 9)),
                      coords=[divmod(v, side) for v in range(side * side)])
    for inst in (random_instance(seed % 97, zero_edges=4), lattice):
        reduced, cmap = contract_zero_edges(inst)
        assert (cmap is not None) == inst.graph.has_zero_edge()
        old_to_new = cmap.old_to_new if cmap else list(range(inst.n))
        witness = cmap.edge_witness if cmap else {}
        assert all(c > 0 for _, c in edges_of(reduced.graph))
        # vertex ids are kept, and each vertex maps to the least member of
        # its zero-cost component
        assert reduced.n == inst.n and reduced.coords is inst.coords
        least = _least_zero_component_member(inst.graph)
        assert old_to_new == least
        # every member but the kept one is isolated
        ends = {x for key, _ in edges_of(reduced.graph) for x in key}
        assert all(least[v] == v for v in ends)
        # the cheapest original edge between each two components, realized
        # by its witness
        cheapest = {}
        for (u, v), c in edges_of(inst.graph):
            a, b = sorted((least[u], least[v]))
            if a != b and c < cheapest.get((a, b), INF):
                cheapest[a, b] = c
        assert dict(edges_of(reduced.graph)) == cheapest
        for key, c in edges_of(reduced.graph):
            u, v = witness.get(key, key)
            assert inst.graph.edge_cost(u, v) == c
            assert tuple(sorted((least[u], least[v]))) == key
        # every original terminal lands on a reduced terminal
        reduced_terms = set(reduced.terminals)
        for t in inst.terminals:
            assert old_to_new[t] in reduced_terms


def test_contract_long_zero_components_in_linear_time():
    # a zero path 0..L and a zero star around c, joined by one edge of cost 3
    length, leaves = 50_000, 2_000
    c = length + 1
    path = [(i, i + 1, 0) for i in range(length)]
    star = [(c, c + 1 + i, 0) for i in range(leaves)]
    inst = SteinerInstance(graph=Graph(c + 1 + leaves, path + star + [(length, c, 3)]),
                           terminals=[0, c + leaves])
    start = time.perf_counter()
    reduced, cmap = contract_zero_edges(inst)
    assert time.perf_counter() - start < 1.0
    assert (reduced.n, reduced.m, reduced.k) == (inst.n, 1, 2)
    lifted = cmap.lift_edges([(0, c)], 0)
    assert sorted(lifted) == sorted([(u, v) for u, v, _ in path + star] + [(length, c)])
    assert validate_tree(inst, lifted) == 3


def test_contraction_estimate_tracks_measured_peak():
    # traced peak of a contraction, against the estimate the memory limit
    # is checked with before it allocates
    import tracemalloc

    for inst in (lattice_instance(40, 5, seed=1, cost_range=(0, 20)),
                 lattice_instance(80, 5, seed=2, cost_range=(0, 9))):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            reduced, cmap = contract_zero_edges(inst)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert cmap is not None and reduced.m < inst.m
        est = inst.m * CONTRACT_EDGE_BYTES
        assert peak / 2 <= est <= 2 * peak, (inst.m, peak)


def test_memory_limit_refuses_contraction_before_it_allocates(monkeypatch):
    import dsteiner.graph as graph

    inst = lattice_instance(20, 4, seed=3, cost_range=(0, 9))
    est = inst.m * CONTRACT_EDGE_BYTES
    with monkeypatch.context() as m:
        m.setattr(graph, "_find", lambda *a: pytest.fail("contraction started"))
        with pytest.raises(MemoryLimit, match="zero-edge contraction"):
            contract_zero_edges(inst, limits=Limits(mem_limit=est - 1))
    reduced, cmap = contract_zero_edges(inst, limits=Limits(mem_limit=est))
    assert cmap is not None and reduced.m < inst.m
    # without a zero-cost edge nothing is contracted, so nothing is checked
    positive = lattice_instance(20, 4, seed=3)
    reduced, cmap = contract_zero_edges(positive, limits=Limits(mem_limit=1))
    assert _same_instance_on_shared_costs(reduced, positive) and cmap is None
