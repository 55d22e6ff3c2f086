import gc
import heapq
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import dsteiner
from dsteiner import solver
from dsteiner import (
    Graph,
    SteinerInstance,
    build_hanan_grid,
    choose_root,
    generate_random_points,
    multi_source_dijkstra,
    solve,
    solve_baseline,
    validate_tree,
)
from dsteiner.bitsets import iter_bits
from dsteiner.bounds import LEAF_SPECS, BoundOracle, JTermBound, TspBound, make_bound
from dsteiner.distances import DistanceOracle
from dsteiner.errors import (
    CenterRuleNeedsCoordinates,
    Infeasible,
    InternalError,
    Limits,
    MemoryLimit,
    TimeLimit,
)
from dsteiner.graph import (
    ADJ_EDGE_BYTES,
    CONTRACT_EDGE_BYTES,
    ContractionMap,
    contract_zero_edges,
)
from dsteiner.solver import heuristic_upper_bound

from gen import (
    BaselineOracle,
    bellman_ford,
    edges_of,
    lattice_instance,
    random_instance,
)

BOUNDS = ["zero", "jterm:2", "onetree", "max(jterm:2,onetree)"]
PRUNES = ["off", "bound", "full"]


def test_single_terminal():
    g = Graph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1)])
    inst = SteinerInstance(graph=g, terminals=[2], name="one")
    rec = solve(inst)
    assert rec.opt == 0
    assert rec.edges == []
    assert validate_tree(inst, rec.edges) == 0


@pytest.mark.parametrize("seed", range(5))
def test_two_terminals_degenerates_to_dijkstra(seed):
    inst = random_instance(seed, k_range=(2, 2))
    rec = solve(inst)
    dist = multi_source_dijkstra(inst.graph, [(inst.terminals[0], 0)])
    assert rec.opt == dist[inst.terminals[1]]
    assert validate_tree(inst, rec.edges) == rec.opt


def test_star_merges_at_center():
    g = Graph(4, [(0, 3, 2), (1, 3, 3), (2, 3, 4)])
    inst = SteinerInstance(graph=g, terminals=[0, 1, 2], name="star")
    rec = solve(inst)
    assert rec.opt == 9
    assert sorted(rec.edges) == [(0, 3), (1, 3), (2, 3)]


def _permanent_labels(inst, bound, monkeypatch):
    """Solve with prune off, check the optimum, and return (key, v, mask,
    cost) of each label in the order it became permanent.

    Prune off discards nothing at a pop, and a label's cheapest heap entry
    pops first, so the first pop of each (v, mask) makes it permanent."""
    pops = []

    def heappop(heap):
        pops.append(heapq.heappop(heap))
        return pops[-1]

    monkeypatch.setattr(solver, "heapq",
                        SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    assert solve(inst, bound=bound, prune="off").opt == solve_baseline(inst)[0]
    seen = set()
    events = []
    for key, cost, v, mask in pops:
        if (v, mask) not in seen:
            seen.add((v, mask))
            events.append((key, v, mask, cost))
    return events


def _permanent_keys(inst, bound, monkeypatch):
    return [key for key, _, _, _ in _permanent_labels(inst, bound, monkeypatch)]


@pytest.mark.parametrize("bound", BOUNDS + ["tsp"])
def test_popped_keys_nondecreasing(bound, monkeypatch):
    keys = _permanent_keys(random_instance(17, k_range=(5, 7)), bound, monkeypatch)
    assert all(a <= b for a, b in zip(keys, keys[1:]))


def test_zero_bound_pop_order_is_dijkstra_monotone(monkeypatch):
    # with the zero bound the popped key is exactly 2*l
    keys = _permanent_keys(random_instance(21, k_range=(4, 6)), "zero", monkeypatch)
    assert all(a <= b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("seed", range(25))
def test_matches_baseline_all_configs(seed):
    inst = random_instance(seed + 200)
    expected, _ = solve_baseline(inst)
    for bound in BOUNDS:
        for prune in PRUNES:
            rec = solve(inst, bound=bound, prune=prune)
            assert rec.opt == expected, (seed, bound, prune)
            assert validate_tree(inst, rec.edges) == rec.opt


@pytest.mark.parametrize("seed", range(10))
def test_zero_edge_instances_all_configs(seed):
    # contraction happens inside solve; every bound/prune pair must agree
    # with the oracle run on the uncontracted instance
    inst = random_instance(seed + 3000, zero_edges=4)
    expected, _ = solve_baseline(inst)
    for bound in BOUNDS + ["tsp"]:
        for prune in PRUNES:
            rec = solve(inst, bound=bound, prune=prune)
            assert rec.opt == expected, (seed, bound, prune)
            assert validate_tree(inst, rec.edges) == rec.opt


def test_root_merged_by_contraction():
    # root "last" (vertex 0) collapses into an earlier terminal
    g = Graph(5, [(0, 1, 0), (1, 2, 3), (2, 3, 0), (3, 4, 5)])
    inst = SteinerInstance(graph=g, terminals=[4, 3, 1, 0])
    for prune in PRUNES:
        rec = solve(inst, prune=prune, root_rule="last")
        assert rec.opt == 8
        assert validate_tree(inst, rec.edges) == 8


@pytest.mark.parametrize("seed", range(8))
def test_root_choice_does_not_change_optimum(seed):
    inst = random_instance(seed + 300, k_range=(2, 6))
    rules = [f"index:{i}" for i in range(inst.k)] + ["medoid"]
    costs = {solve(inst, root_rule=rule).opt for rule in rules}
    assert len(costs) == 1


@pytest.mark.parametrize("seed", range(8))
def test_prune_never_increases_permanents(seed):
    inst = random_instance(seed + 400, k_range=(4, 7))
    off = solve(inst, prune="off")
    bound = solve(inst, prune="bound")
    full = solve(inst, prune="full")
    assert off.opt == bound.opt == full.opt
    assert full.stats.permanents <= off.stats.permanents
    assert bound.stats.permanents <= off.stats.permanents


def _two_cluster_instance():
    # two tight terminal clusters joined by a long bridge: labels spanning a
    # whole cluster plus bridge cost exceed the per-set upper bound that the
    # witness terminals on the other side certify
    edges = (
        # cluster A: 0-1-2-3 around hub 4
        [(v, 4, c) for v, c in ((0, 2), (1, 3), (2, 2), (3, 3))]
        # cluster B: 6-7-8-9 around hub 10
        + [(v, 10, c) for v, c in ((6, 2), (7, 3), (8, 2), (9, 3))]
        # bridge 4 - 5 - 10
        + [(4, 5, 20), (5, 10, 20)]
        # detour edges make expensive alternative labels possible
        + [(0, 5, 30), (6, 5, 30)]
    )
    return SteinerInstance(
        graph=Graph(12, edges), terminals=[0, 1, 2, 3, 6, 7, 8, 9], name="clusters"
    )


def test_set_prune_discards_labels_on_cluster_instance():
    inst = _two_cluster_instance()
    bound_only = solve(inst, bound="onetree", prune="bound")
    full = solve(inst, bound="onetree", prune="full")
    assert bound_only.opt == full.opt
    expected, _ = solve_baseline(inst)
    assert full.opt == expected
    assert full.stats.permanents < bound_only.stats.permanents


def test_tsp_bound_solves_correctly():
    inst = random_instance(77, k_range=(5, 7))
    expected, _ = solve_baseline(inst)
    rec = solve(inst, bound="tsp", prune="full")
    assert rec.opt == expected


def _tracked_solves(monkeypatch, insts, **kwargs):
    """Solve each instance under prune "full"; returns the ``_Search`` and
    the permanent labels of each label loop, read by wrapping it."""
    runs = []
    loop = solver._label_loop

    def tracked(search, *args):
        cost, perm = loop(search, *args)
        runs.append((search, perm))
        return cost, perm

    monkeypatch.setattr(solver, "_label_loop", tracked)
    for inst in insts:
        solve(inst, prune="full", **kwargs)
    return runs


def _per_set_cases():
    """Random instances, with and without zero-cost edges, and lattices with
    costs from 0, all with k <= 6."""
    return ([random_instance(seed + 900, k_range=(3, 6)) for seed in range(10)]
            + [random_instance(seed + 920, k_range=(3, 6), zero_edges=4)
               for seed in range(6)]
            + [lattice_instance(5, 5, seed, cost_range=(0, 9)) for seed in range(4)])


def test_pop_rule_bounds_the_set_of_every_permanent_label(monkeypatch):
    # U(I) <= cost + min(cut(I), d(v, y) for y outside I) for every permanent
    # (v, I); the root's label ends the loop and is not among them
    for search, perm in _tracked_solves(monkeypatch, _per_set_cases()):
        reduced = search.reduced
        terms = reduced.terminals
        dist = [bellman_ford(reduced.graph, t) for t in terms]
        full = (1 << reduced.k) - 1
        assert any(perm)
        for v, labels in enumerate(perm):
            for mask, cost in labels.items():
                outside = list(iter_bits(full ^ mask))
                cut = min(dist[x][terms[y]] for x in iter_bits(mask) for y in outside)
                near = min(dist[y][v] for y in outside)
                assert search.upper[mask] <= cost + min(cut, near)


def test_witnesses_bound_the_cheapest_forest_reaching_them(monkeypatch):
    # U(I) is the cost of a forest spanning I whose every tree holds a
    # terminal of S(I): at least the optimum for I | S(I) once S(I)'s
    # terminals are joined by zero-cost edges
    for search, _ in _tracked_solves(monkeypatch, _per_set_cases()):
        reduced = search.reduced
        terms = reduced.terminals
        assert search.witness.keys() == search.upper.keys()
        for mask, witness in search.witness.items():
            assert witness and not witness & mask
            joined = [terms[y] for y in iter_bits(witness)]
            edges = [(u, v, c) for (u, v), c in edges_of(reduced.graph)]
            edges += [(a, b, 0) for a, b in zip(joined, joined[1:])]
            forest = SteinerInstance(graph=Graph(reduced.n, edges),
                                     terminals=[terms[x] for x in iter_bits(mask | witness)])
            assert search.upper[mask] >= solve_baseline(forest)[0]


@pytest.mark.parametrize("inst", [
    random_instance(91, k_range=(6, 6)),
    lattice_instance(6, 6, 3, cost_range=(0, 9)),
], ids=["random", "zero_edge_lattice"])
def test_each_popped_set_queries_its_cut_once(inst, monkeypatch):
    cuts = []
    set_cut_distance = DistanceOracle.set_cut_distance

    def counted_cut(self, mask):
        cuts.append(mask)
        return set_cut_distance(self, mask)

    monkeypatch.setattr(DistanceOracle, "set_cut_distance", counted_cut)
    (search, perm), = _tracked_solves(monkeypatch, [inst])
    sets = [mask for labels in perm for mask in labels]
    assert len(sets) > len(set(sets))  # some set is permanent at two vertices
    assert sorted(cuts) == sorted(search.sets) == sorted(set(sets))


def test_pop_rule_tie_keeps_the_cut_witness(monkeypatch):
    # terminals 0..3 at vertices 1..4.  I = {0, 1} is first permanent at
    # vertex 0: its labels at vertices 0, 1 and 2 all cost 2, and the zero
    # bound's equal keys pop the smallest vertex first.  The cut of I is 5,
    # from terminal 0 to terminal 3, and vertex 0 is at 5 from terminal 2
    # (and 6 from terminal 3): the tie keeps terminal 3
    g = Graph(5, [(0, 1, 1), (0, 2, 1), (1, 4, 5), (0, 3, 5)])
    inst = SteinerInstance(graph=g, terminals=[1, 2, 3, 4])
    (search, perm), = _tracked_solves(monkeypatch, [inst], bound="zero",
                                      root_rule="index:3")
    assert perm[0][0b0011] == 2
    assert search.sets[0b0011][:2] == (5, 3)
    assert search.oracle.columns[0][2:] == (5, 6)
    assert search.upper[0b0011] == 7
    assert search.witness[0b0011] == 0b1000


def test_merge_rule_stores_only_what_the_witnesses_allow(monkeypatch):
    # a star: terminals 0..3 at vertices 1..4, joined to the centre 0 by
    # edges of cost 1, 2, 4 and 20; terminal 3 is the root.  The first pops
    # give U({0}) = 3 with S = {1}, U({1}) = 3 with S = {0}, and U({2}) = 5
    # with S = {0}.  At the centre {1} merges with {0} first: each witness
    # lies in the other set, so the rule stores nothing.  Then {2} merges
    # with {0}, whose witness lies outside {2}: U({0, 2}) = 5 + 3 with
    # S = {1}, the witnesses less the union; and {2} with {1} stores 5 + 3
    # with S = {0}.  Each union's first bound query comes right after the
    # merge that makes it, so it sees what the rule stored
    g = Graph(5, [(0, 1, 1), (0, 2, 2), (0, 3, 4), (0, 4, 20)])
    inst = SteinerInstance(graph=g, terminals=[1, 2, 3, 4])
    searches, first = [], {}
    loop, value2 = solver._label_loop, BoundOracle.value2

    def watched(search, *args):
        searches.append(search)
        return loop(search, *args)

    def query(bound, v, jmask):
        union = 0b1111 ^ jmask
        search, = searches
        first.setdefault(union, (v, search.upper.get(union), search.witness.get(union)))
        return value2(bound, v, jmask)

    monkeypatch.setattr(solver, "_label_loop", watched)
    monkeypatch.setattr(BoundOracle, "value2", query)
    assert solve(inst, bound="zero", root_rule="index:3").opt == 27
    search, = searches
    assert [search.upper[m] for m in (0b0001, 0b0010, 0b0100)] == [3, 3, 5]
    assert first[0b0011] == (0, None, None)
    assert first[0b0101] == (0, 8, 0b0010)
    assert first[0b0110] == (0, 8, 0b0001)


@pytest.mark.parametrize("seed", range(10))
def test_permanent_labels_are_partial_optima(seed, monkeypatch):
    # every permanence event equals the independent oracle's optimum for
    # its vertex-plus-sources set
    inst = random_instance(seed + 500, n_range=(6, 15), k_range=(2, 5))
    events = _permanent_labels(inst, "onetree", monkeypatch)
    oracle = BaselineOracle(inst)
    # contraction is the identity here (no zero edges), so label masks index
    # the instance terminal list directly
    for _, v, mask, cost in events:
        assert cost == oracle.smt_mask(mask, v), (v, bin(mask), cost)


def test_iteration_bound_holds():
    inst = random_instance(31, k_range=(5, 7))
    rec = solve(inst, prune="off")
    assert rec.stats.permanents <= inst.n * (1 << (inst.k - 1))


def _unit_path(n, k):
    """A unit-cost path on n vertices, its first k the terminals: the
    optimum is the path through them, k - 1 edges."""
    return SteinerInstance(Graph(n, [(i, i + 1, 1) for i in range(n - 1)]),
                           list(range(k)))


@pytest.mark.parametrize("n, k, bound, prune", [
    *((70, 64, "jterm:2", prune) for prune in PRUNES),
    *((110, 100, "jterm:2", prune) for prune in PRUNES),
    (70, 64, "zero", "full"),
])
def test_terminal_sets_wider_than_63_bits(n, k, bound, prune):
    inst = _unit_path(n, k)
    rec = solve(inst, bound=bound, prune=prune)
    assert rec.opt == k - 1
    assert validate_tree(inst, rec.edges) == k - 1


# --- upper bound ---

def _upper_bound_cases():
    """Random graphs, lattices with zero-cost edges and 2D/3D Hanan grids;
    the first six random graphs have two terminals."""
    for seed in range(24):
        yield random_instance(seed + 600, k_range=(2, 2) if seed < 6 else (3, 7))
    for seed in range(6):
        yield lattice_instance(10, seed + 2, seed, cost_range=(0, 9), window=5)
    for d, k in ((2, 8), (3, 6)):
        for seed in range(3):
            yield build_hanan_grid(generate_random_points(d, k, 100, seed))[0]


def test_upper_bound_is_the_mst_of_the_terminals_distance_graph():
    # opt <= U <= 2(1 - 1/k) opt on the contracted k, and U is the optimum
    # for two terminals
    loose = pairs = 0
    for inst in _upper_bound_cases():
        reduced, _ = contract_zero_edges(inst)
        k = reduced.k
        oracle = DistanceOracle(reduced.graph, reduced.terminals)
        upper = oracle.mst_cost((1 << k) - 1)
        assert heuristic_upper_bound(oracle) == upper
        assert solve(inst).stats.upper_bound == upper, inst.name
        # prune "off" reads no U
        opt = solve(inst, prune="off").opt
        assert opt <= upper and k * upper <= 2 * (k - 1) * opt, inst.name
        if k == 2:
            assert upper == opt, inst.name
            pairs += 1
        loose += upper > opt
    assert pairs and loose


# --- root rules ---

def test_choose_root_last_and_index():
    inst = random_instance(51, k_range=(4, 4))
    assert choose_root(inst, "last") == 3
    assert choose_root(inst, "index:0") == 0
    assert choose_root(inst, "index:2") == 2
    with pytest.raises(ValueError):
        choose_root(inst, "index:9")
    with pytest.raises(ValueError):
        choose_root(inst, "bogus")


def test_choose_root_center():
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    inst = SteinerInstance(
        graph=g,
        terminals=[0, 1, 3],
        coords=[(0, 0), (2, 2), (9, 9), (4, 4)],
    )
    # mean of (0,0), (2,2), (4,4) is (2,2): terminal vertex 1 wins
    assert choose_root(inst, "center") == 1


def test_choose_root_center_tie_breaks_by_smaller_vertex():
    g = Graph(2, [(0, 1, 1)])
    inst = SteinerInstance(
        graph=g, terminals=[0, 1], coords=[(0, 0), (2, 0)]
    )
    assert choose_root(inst, "center") == 0


@pytest.mark.parametrize("seed", range(6))
def test_choose_root_medoid_takes_least_row_sum(seed):
    inst = random_instance(seed + 70, k_range=(3, 8))
    sums = [sum(multi_source_dijkstra(inst.graph, [(t, 0)])[u] for u in inst.terminals)
            for t in inst.terminals]
    assert choose_root(inst, "medoid") == min(range(inst.k), key=lambda i: (sums[i], i))


def test_choose_root_medoid_tie_breaks_by_smaller_index():
    # on the path 0 - 1 - 2 the two ends tie at 2, and the smaller index
    # wins, not the smaller vertex; with the middle in, it sums 2 against 3
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    assert choose_root(SteinerInstance(graph=g, terminals=[2, 0]), "medoid") == 0
    assert choose_root(SteinerInstance(graph=g, terminals=[2, 1, 0]), "medoid") == 1
    # a given pair matrix is read as it is
    inst = SteinerInstance(graph=g, terminals=[0, 1, 2])
    assert choose_root(inst, "medoid", [[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 0
    assert choose_root(inst, "medoid", [[0, 2, 1], [2, 0, 1], [1, 1, 0]]) == 2


def test_medoid_counts_terminals_merged_by_contraction_once(monkeypatch):
    # terminals 0 and 1 merge; on the contracted path A=0, B=4, C=6 the sums
    # are 10, 6 and 8, so B wins.  Counting A twice would tie A, A' and B
    # at 10 and pick A.
    g = Graph(4, [(0, 1, 0), (1, 2, 4), (2, 3, 2)])
    inst = SteinerInstance(graph=g, terminals=[0, 1, 2, 3])
    assert choose_root(inst, "medoid") == 2
    roots = []
    make = solver.make_bound

    def recorded(spec, reduced, root_idx, *args, **kwargs):
        roots.append(reduced.terminals[root_idx])
        return make(spec, reduced, root_idx, *args, **kwargs)

    monkeypatch.setattr(solver, "make_bound", recorded)
    rec = solve(inst)
    _, cmap = contract_zero_edges(inst)
    assert roots == [cmap.old_to_new[2]]
    assert rec.opt == validate_tree(inst, rec.edges) == 6


def test_center_requires_coordinates():
    inst = random_instance(61)
    with pytest.raises(CenterRuleNeedsCoordinates):
        choose_root(inst, "center")


def test_single_terminal_any_rule():
    g = Graph(2, [(0, 1, 1)])
    inst = SteinerInstance(graph=g, terminals=[1])
    assert choose_root(inst, "last") == 0
    assert choose_root(inst, "medoid") == 0
    assert choose_root(inst, "index:0") == 0


# --- failure modes ---

def test_infeasible_when_terminal_unreachable():
    g = Graph(4, [(0, 1, 1), (2, 3, 1)])
    inst = SteinerInstance(graph=g, terminals=[0, 3])
    with pytest.raises(Infeasible):
        solve(inst)


def test_unknown_bound_is_refused_before_any_phase(monkeypatch):
    # one terminal needs no bound, and the phases of a larger instance run
    # before the bound is built: the spec is checked before either
    one = SteinerInstance(graph=Graph(2, [(0, 1, 1)]), terminals=[1])
    with pytest.raises(ValueError, match="unknown bound spec 'bogus'"):
        solve(one, bound="bogus")
    monkeypatch.setattr(solver, "contract_zero_edges",
                        lambda *a, **kw: pytest.fail("contraction ran"))
    for spec in ("onetre", "max(zero,max(onetree))"):
        with pytest.raises(ValueError, match="unknown bound spec"):
            solve(random_instance(75), bound=spec)


def test_time_limit():
    inst = random_instance(71, n_range=(25, 25), k_range=(7, 7))
    with pytest.raises(TimeLimit):
        solve(inst, bound="zero", prune="off", time_limit=1e-9)


def test_memory_limit():
    inst = random_instance(73, n_range=(25, 25), k_range=(7, 7))
    with pytest.raises(MemoryLimit):
        solve(inst, bound="zero", prune="off", mem_limit=1)


@pytest.mark.parametrize("bound", ["onetree", "jterm:3"])
def test_memory_limit_covers_preprocessing(monkeypatch, bound):
    # the adjacency lists of a 72x72 lattice are refused before any is
    # built, so the label loop's own check (every 1024 pops) is never reached
    inst = lattice_instance(72, 10, seed=4, window=12)

    def loop(*args):
        pytest.fail("the label loop started")

    monkeypatch.setattr(solver, "_label_loop", loop)
    with pytest.raises(MemoryLimit, match="adjacency"):
        solve(inst, bound=bound, mem_limit=1)


def test_memory_limit_just_above_adjacency_refuses_rows(monkeypatch):
    # here the adjacency lists cost less than the k distance rows, so a
    # limit between the two passes the first check and stops at the second
    inst = lattice_instance(72, 10, seed=4, window=12)
    adjacency = contract_zero_edges(inst)[0].m * ADJ_EDGE_BYTES
    monkeypatch.setattr(solver, "_label_loop", lambda *a: pytest.fail("loop"))
    with pytest.raises(MemoryLimit, match="distance-row"):
        solve(inst, mem_limit=adjacency + 1)


def test_memory_limit_covers_jterm_tables(monkeypatch):
    from dsteiner.distances import (
        COLUMN_BYTES,
        COLUMN_SLOT_BYTES,
        FRONTIER_ENTRY_BYTES,
        ROW_SLOT_BYTES,
    )

    inst = lattice_instance(30, 6, seed=5)
    # enough for the adjacency lists and the rows with their frontiers and
    # columns, not for the jterm tables
    rows = ((ROW_SLOT_BYTES + COLUMN_SLOT_BYTES) * inst.k + FRONTIER_ENTRY_BYTES
            + COLUMN_BYTES) * inst.n
    fits = max(rows, inst.m * ADJ_EDGE_BYTES)
    monkeypatch.setattr(solver, "_label_loop", lambda *a: pytest.fail("loop"))
    with pytest.raises(MemoryLimit, match="jterm"):
        solve(inst, bound="jterm:3", mem_limit=fits)


def test_memory_limit_covers_zero_edge_contraction(monkeypatch):
    inst = lattice_instance(30, 6, seed=5, cost_range=(0, 9))
    monkeypatch.setattr(solver, "_label_loop", lambda *a: pytest.fail("loop"))
    with pytest.raises(MemoryLimit, match="zero-edge contraction"):
        solve(inst, mem_limit=inst.m * CONTRACT_EDGE_BYTES - 1)


def _tsp_k15_instance():
    inst, _ = build_hanan_grid(generate_random_points(2, 15, 10**6, 1))
    assert inst.k == 15
    return inst


def test_time_limit_rejects_nan_and_nonpositive():
    inst = random_instance(71)
    for bad in (float("nan"), 0, -1.0):
        with pytest.raises(ValueError, match="time limit"):
            solve(inst, time_limit=bad)
    for bad in (float("nan"), 0, -1):
        with pytest.raises(ValueError, match="memory limit"):
            solve(inst, mem_limit=bad)


def test_time_limit_covers_distance_oracle(monkeypatch):
    # one Dijkstra on this lattice takes tens of milliseconds, so the
    # deadline passes while the oracle's rows grow to the terminals, and
    # the heuristic, which runs after the oracle, never starts
    inst = lattice_instance(150, 8, seed=1)

    def fail(*args, **kwargs):
        pytest.fail("the heuristic or the label loop started")

    monkeypatch.setattr(solver, "heuristic_upper_bound", fail)
    monkeypatch.setattr(solver, "_label_loop", fail)
    for prune in ("off", "full"):
        t0 = time.perf_counter()
        with pytest.raises(TimeLimit, match="distance oracle"):
            solve(inst, bound="jterm:2", prune=prune, time_limit=1e-3)
        assert time.perf_counter() - t0 < 1.0


def test_time_limit_covers_jterm_tables():
    inst = lattice_instance(40, 6, seed=2)
    oracle = DistanceOracle(inst.graph, inst.terminals)
    with pytest.raises(TimeLimit, match="jterm tables"):
        JTermBound(inst, oracle, inst.k - 1, 3, limits=Limits(time_limit=1e-9))


def test_time_limit_covers_tsp_table_build():
    inst = _tsp_k15_instance()
    t0 = time.perf_counter()
    with pytest.raises(TimeLimit, match="TSP table"):
        solve(inst, bound="tsp", time_limit=0.05)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("spec", ["zero", "onetree"])
def test_time_limit_covers_each_sets_evaluator(spec):
    # a onetree evaluator costs the set's MST, O(k^2): with hundreds of
    # terminals the label loop builds many between its own time checks
    inst = random_instance(31, k_range=(6, 6), n_range=(15, 25))
    oracle = DistanceOracle(inst.graph, inst.terminals)
    bound = make_bound(spec, inst, 0, oracle, limits=Limits(time_limit=1e-9))
    with pytest.raises(TimeLimit, match="set's bound"):
        bound.value2(inst.terminals[0], (1 << inst.k) - 1)


def test_memory_limit_refuses_tsp_table_before_building(monkeypatch):
    def build(*args):
        pytest.fail("the TSP table was built")

    monkeypatch.setattr(TspBound, "_build_paths", build)
    with pytest.raises(MemoryLimit, match="TSP table"):
        solve(_tsp_k15_instance(), bound="tsp", mem_limit=1 << 20)


class InconsistentBound(BoundOracle):
    """Large at vertex 0 and zero elsewhere, so keys drop one edge away."""

    def _for_set(self, jmask):
        return lambda v: 10**6 if v == 0 else 0


def path_instance():
    # 0 - 1 - 2 with a costlier direct edge 0 - 2
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
    return SteinerInstance(graph=g, terminals=[0, 2])


def test_inconsistent_bound_raises_internal_error(monkeypatch):
    monkeypatch.setattr(solver, "make_bound", lambda *args, **kwargs: InconsistentBound())
    with pytest.raises(InternalError, match="not consistent"):
        solve(path_instance(), prune="off", root_rule="last")


def test_inconsistent_bound_raises_internal_error_under_python_O():
    code = (
        "import sys, test_solver as t\n"
        "if __debug__: sys.exit('assertions are enabled')\n"
        "t.solver.make_bound = lambda *args, **kwargs: t.InconsistentBound()\n"
        "t.solve(t.path_instance(), prune='off', root_rule='last')\n"
    )
    src = os.path.dirname(os.path.dirname(dsteiner.__file__))
    tests = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "dsteiner.errors.InternalError" in proc.stderr


def _drop_first_backtracked(monkeypatch):
    backtrack = solver._backtrack
    monkeypatch.setattr(solver, "_backtrack", lambda *args: backtrack(*args)[1:])


def _drop_first_lifted(monkeypatch):
    lift = ContractionMap.lift_edges
    monkeypatch.setattr(ContractionMap, "lift_edges",
                        lambda self, *args: lift(self, *args)[1:])


def _return_costlier_tree(monkeypatch):
    monkeypatch.setattr(solver, "_backtrack", lambda *args: [(0, 2)])


def zero_leaf_instance():
    # path_instance with a zero-cost leaf 3 at vertex 2, which contraction
    # merges into 2 and the lift puts back
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 3, 0)])
    return SteinerInstance(graph=g, terminals=[0, 2])


@pytest.mark.parametrize("corrupt", [
    _drop_first_backtracked, _drop_first_lifted, _return_costlier_tree,
])
def test_corrupted_reconstruction_raises_internal_error(monkeypatch, corrupt):
    assert sorted(solve(zero_leaf_instance()).edges) == [(0, 1), (1, 2), (2, 3)]
    corrupt(monkeypatch)
    with pytest.raises(InternalError):
        solve(zero_leaf_instance())


def test_broken_backtrack_walk_raises_internal_error(monkeypatch):
    # the label at vertex 1, the middle of the only optimum tree 0 - 1 - 2,
    # is dropped from the permanent labels the tree is read back from, so
    # no edge and no split leads on from the label next to it
    loop = solver._label_loop

    def drop_middle(*args):
        cost, perm = loop(*args)
        (mask, _), = perm[1].items()
        del perm[1][mask]
        return cost, perm

    assert sorted(solve(path_instance()).edges) == [(0, 1), (1, 2)]
    monkeypatch.setattr(solver, "_label_loop", drop_middle)
    with pytest.raises(InternalError, match="no permanent labels"):
        solve(path_instance())


def tied_corners_instance():
    # a unit-cost 6 x 6 lattice with terminals at its corners, so that many
    # trees tie for the optimum, and a terminal 36 hung off vertex 15 at
    # cost 0, which contraction merges and the lift puts back
    side = 6
    edges = [(r * side + c, r * side + c + 1, 1)
             for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c, 1)
              for r in range(side - 1) for c in range(side)]
    edges.append((15, 36, 0))
    return SteinerInstance(graph=Graph(37, edges), terminals=[0, 5, 30, 35, 36])


@pytest.mark.parametrize("prune", solver.PRUNE_MODES)
@pytest.mark.parametrize("bound", LEAF_SPECS + ("max(jterm:2,onetree)",))
def test_tied_optima_read_back_as_one_optimum_tree(bound, prune):
    inst = tied_corners_instance()
    rec = solve(inst, bound=bound, prune=prune)
    assert validate_tree(inst, rec.edges) == rec.opt == solve_baseline(inst)[0]


# (seed, bound) -> (opt, labels_created, pops, heap_pushes) under prune="full"
# and root "last" on random_instance(seed, n_range=(15, 25), k_range=(5, 7)).
# A hot-path change must keep these; only a change to pruning, bounds or the
# root may move them.  Recorded when U became the MST cost of the terminals'
# distance graph, which prunes fewer labels at creation than the earlier
# construction heuristic's tree: labels and pushes rose, opt and pops held.
PINNED_COUNTERS = {
    (300, "zero"): (91, 121, 121, 151),
    (300, "onetree"): (91, 107, 90, 121),
    (300, "jterm:2"): (91, 62, 44, 64),
    (301, "zero"): (60, 68, 68, 77),
    (301, "onetree"): (60, 56, 41, 64),
    (301, "jterm:2"): (60, 53, 38, 58),
    (302, "zero"): (80, 75, 74, 81),
    (302, "onetree"): (80, 53, 53, 55),
    (302, "jterm:2"): (80, 29, 29, 29),
    (303, "zero"): (46, 71, 70, 77),
    (303, "onetree"): (46, 45, 45, 45),
    (303, "jterm:2"): (46, 19, 19, 19),
    (304, "zero"): (37, 94, 94, 114),
    (304, "onetree"): (37, 60, 53, 63),
    (304, "jterm:2"): (37, 34, 22, 35),
    (305, "zero"): (49, 58, 58, 61),
    (305, "onetree"): (49, 55, 51, 59),
    (305, "jterm:2"): (49, 49, 42, 51),
}


@pytest.mark.parametrize("seed, bound", list(PINNED_COUNTERS))
def test_pinned_counters(seed, bound):
    inst = random_instance(seed, n_range=(15, 25), k_range=(5, 7))
    rec = solve(inst, bound=bound, prune="full", root_rule="last")
    st = rec.stats
    got = (rec.opt, st.labels_created, st.pops, st.heap_pushes)
    assert got == PINNED_COUNTERS[seed, bound]


# (seed, bound, prune) -> (opt, labels_created, pops, heap_pushes,
# pruned_at_creation, pruned_at_pop, distinct (v, J) bound queries) on the
# instances of PINNED_COUNTERS, under both pruning modes that read the
# bound and root "last".  The last column dates from when a per-vertex cache
# made bound_evaluations count the distinct queries.  Recorded when U became
# the MST cost of the terminals' distance graph: labels, pushes,
# pruned_at_creation and the distinct queries moved, most under prune
# "bound", where U is the only prune; opt, pops and pruned_at_pop held.
PINNED_COUNTERS_ALL_MODES = {
    (300, "zero", "bound"): (91, 1483, 1397, 2832, 757, 0, 1483),
    (300, "zero", "full"): (91, 121, 121, 151, 240, 0, 121),
    (300, "onetree", "bound"): (91, 533, 204, 685, 75, 0, 594),
    (300, "onetree", "full"): (91, 107, 90, 121, 195, 0, 108),
    (300, "jterm:2", "bound"): (91, 280, 101, 305, 10, 0, 290),
    (300, "jterm:2", "full"): (91, 62, 44, 64, 84, 0, 62),
    (301, "zero", "bound"): (60, 308, 283, 475, 112, 0, 308),
    (301, "zero", "full"): (60, 68, 68, 77, 104, 5, 68),
    (301, "onetree", "bound"): (60, 111, 53, 139, 49, 0, 148),
    (301, "onetree", "full"): (60, 56, 41, 64, 75, 0, 57),
    (301, "jterm:2", "bound"): (60, 78, 41, 89, 28, 0, 103),
    (301, "jterm:2", "full"): (60, 53, 38, 58, 62, 0, 59),
    (302, "zero", "bound"): (80, 654, 652, 916, 569, 0, 654),
    (302, "zero", "full"): (80, 75, 74, 81, 145, 0, 75),
    (302, "onetree", "bound"): (80, 177, 177, 205, 494, 0, 443),
    (302, "onetree", "full"): (80, 53, 53, 55, 123, 0, 66),
    (302, "jterm:2", "bound"): (80, 29, 29, 29, 81, 0, 92),
    (302, "jterm:2", "full"): (80, 29, 29, 29, 81, 0, 46),
    (303, "zero", "bound"): (46, 825, 825, 1150, 1494, 0, 825),
    (303, "zero", "full"): (46, 71, 70, 77, 189, 0, 71),
    (303, "onetree", "bound"): (46, 151, 151, 191, 406, 0, 341),
    (303, "onetree", "full"): (46, 45, 45, 45, 156, 0, 61),
    (303, "jterm:2", "bound"): (46, 19, 19, 19, 74, 0, 66),
    (303, "jterm:2", "full"): (46, 19, 19, 19, 74, 0, 34),
    (304, "zero", "bound"): (37, 493, 488, 782, 48, 0, 493),
    (304, "zero", "full"): (37, 94, 94, 114, 208, 1, 94),
    (304, "onetree", "bound"): (37, 181, 165, 244, 572, 0, 427),
    (304, "onetree", "full"): (37, 60, 53, 63, 178, 0, 72),
    (304, "jterm:2", "bound"): (37, 44, 23, 45, 56, 0, 93),
    (304, "jterm:2", "full"): (37, 34, 22, 35, 65, 0, 37),
    (305, "zero", "bound"): (49, 524, 511, 903, 183, 0, 524),
    (305, "zero", "full"): (49, 58, 58, 61, 145, 0, 58),
    (305, "onetree", "bound"): (49, 232, 165, 294, 416, 0, 402),
    (305, "onetree", "full"): (49, 55, 51, 59, 127, 0, 58),
    (305, "jterm:2", "bound"): (49, 114, 66, 119, 114, 0, 182),
    (305, "jterm:2", "full"): (49, 49, 42, 51, 102, 0, 54),
}


def _pinned_outcome(monkeypatch, inst, **kwargs):
    """The counters of the pinned tables; their last column counts the
    distinct (v, J) bound queries, which a wrapper on value2 records."""
    queries = []
    value2 = BoundOracle.value2

    def recorded(self, v, jmask):
        queries.append((v, jmask))
        return value2(self, v, jmask)

    monkeypatch.setattr(BoundOracle, "value2", recorded)
    rec = solve(inst, **kwargs)
    st = rec.stats
    assert st.bound_evaluations == len(queries)
    return (rec.opt, st.labels_created, st.pops, st.heap_pushes,
            st.pruned_at_creation, st.pruned_at_pop, len(set(queries)))


@pytest.mark.parametrize("seed, bound, prune", list(PINNED_COUNTERS_ALL_MODES))
def test_pinned_counters_all_modes(seed, bound, prune, monkeypatch):
    inst = random_instance(seed, n_range=(15, 25), k_range=(5, 7))
    got = _pinned_outcome(monkeypatch, inst, bound=bound, prune=prune,
                          root_rule="last")
    assert got == PINNED_COUNTERS_ALL_MODES[seed, bound, prune]


# (seed, prune) -> (opt, labels_created, pops, heap_pushes, pruned_at_creation,
# pruned_at_pop, distinct (v, J) bound queries) under the tsp bound and root
# "last" on the instances of PINNED_COUNTERS; recorded when U became the MST
# cost of the terminals' distance graph, with the columns that moved as in
# PINNED_COUNTERS_ALL_MODES.
PINNED_COUNTERS_TSP = {
    (300, "bound"): (91, 128, 41, 137, 13, 0, 141),
    (300, "full"): (91, 58, 37, 60, 76, 0, 58),
    (301, "bound"): (60, 56, 21, 58, 29, 0, 83),
    (301, "full"): (60, 44, 21, 44, 45, 0, 47),
    (302, "bound"): (80, 34, 34, 35, 86, 0, 102),
    (302, "full"): (80, 32, 32, 33, 84, 0, 48),
    (303, "bound"): (46, 19, 19, 19, 74, 0, 66),
    (303, "full"): (46, 19, 19, 19, 74, 0, 34),
    (304, "bound"): (37, 41, 25, 42, 66, 0, 99),
    (304, "full"): (37, 34, 25, 35, 76, 0, 39),
    (305, "bound"): (49, 113, 63, 125, 113, 0, 188),
    (305, "full"): (49, 50, 40, 54, 96, 0, 53),
}


@pytest.mark.parametrize("seed, prune", list(PINNED_COUNTERS_TSP))
def test_pinned_counters_tsp(seed, prune, monkeypatch):
    inst = random_instance(seed, n_range=(15, 25), k_range=(5, 7))
    got = _pinned_outcome(monkeypatch, inst, bound="tsp", prune=prune,
                          root_rule="last")
    assert got == PINNED_COUNTERS_TSP[seed, prune]


# (seed, bound) -> the columns of PINNED_COUNTERS_ALL_MODES under prune "full"
# and the default root rule, "medoid", on the instances of PINNED_COUNTERS;
# recorded when U became the MST cost of the terminals' distance graph.
PINNED_COUNTERS_MEDOID = {
    (300, "zero"): (91, 81, 81, 99, 206, 0, 81),
    (300, "onetree"): (91, 79, 67, 90, 166, 0, 80),
    (300, "jterm:2"): (91, 71, 54, 76, 119, 0, 74),
    (300, "tsp"): (91, 55, 36, 56, 74, 0, 55),
    (301, "zero"): (60, 68, 68, 77, 104, 5, 68),
    (301, "onetree"): (60, 56, 41, 64, 75, 0, 57),
    (301, "jterm:2"): (60, 53, 38, 58, 62, 0, 59),
    (301, "tsp"): (60, 44, 21, 44, 45, 0, 47),
    (302, "zero"): (80, 45, 45, 47, 95, 0, 45),
    (302, "onetree"): (80, 38, 38, 39, 88, 0, 43),
    (302, "jterm:2"): (80, 34, 34, 34, 74, 0, 40),
    (302, "tsp"): (80, 24, 24, 24, 61, 0, 33),
    (303, "zero"): (46, 48, 48, 54, 133, 0, 48),
    (303, "onetree"): (46, 38, 38, 38, 128, 0, 48),
    (303, "jterm:2"): (46, 19, 19, 19, 72, 0, 33),
    (303, "tsp"): (46, 19, 19, 19, 72, 0, 33),
    (304, "zero"): (37, 42, 42, 47, 125, 0, 42),
    (304, "onetree"): (37, 42, 40, 45, 113, 0, 42),
    (304, "jterm:2"): (37, 39, 36, 43, 101, 0, 40),
    (304, "tsp"): (37, 30, 23, 31, 71, 0, 31),
    (305, "zero"): (49, 95, 95, 105, 212, 0, 95),
    (305, "onetree"): (49, 79, 67, 83, 166, 0, 88),
    (305, "jterm:2"): (49, 69, 56, 72, 151, 0, 80),
    (305, "tsp"): (49, 61, 43, 65, 112, 0, 67),
}


@pytest.mark.parametrize("seed, bound", list(PINNED_COUNTERS_MEDOID))
def test_pinned_counters_medoid(seed, bound, monkeypatch):
    inst = random_instance(seed, n_range=(15, 25), k_range=(5, 7))
    got = _pinned_outcome(monkeypatch, inst, bound=bound, prune="full")
    assert got == PINNED_COUNTERS_MEDOID[seed, bound]


@pytest.mark.parametrize("inst", [
    build_hanan_grid(generate_random_points(3, 7, 10**6, 2))[0],
    # few labels per set: what each set holds is most of the loop's growth
    _unit_path(30, 30),
], ids=["3d-k7", "path-all-terminals"])
def test_memory_estimate_tracks_measured_growth(inst):
    # traced memory held at the end of the label loop, against the estimate
    # the memory limit is checked with, read from the loop's own locals
    import tracemalloc

    code = solver._label_loop.__code__
    seen = {}

    def on_return(frame, event, arg):
        if event == "return":
            seen["growth"] = tracemalloc.get_traced_memory()[0] - seen["start"]
            seen["heap"] = len(frame.f_locals["heap"])
            seen["bound"] = frame.f_locals["search"].bound
            seen["k"] = frame.f_locals["reduced"].k

    def on_call(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_lines = False
        seen["start"] = tracemalloc.get_traced_memory()[0]
        return on_return

    tracemalloc.start()
    sys.settrace(on_call)
    try:
        rec = solve(inst, bound="onetree", prune="full")
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    bound = seen["bound"]
    est = (rec.stats.labels_created * solver.LABEL_BYTES
           + seen["heap"] * solver.HEAP_ENTRY_BYTES
           + len(bound.evaluators) * (solver.SET_BYTES + solver.SLOT_BYTES * seen["k"])
           + bound.slots * solver.SLOT_BYTES)
    assert rec.stats.labels_created > 1000
    assert seen["growth"] / 2 <= est <= 2 * seen["growth"]


@pytest.mark.parametrize("bound", ["onetree", "max(jterm:2,onetree)", "tsp"])
def test_label_memory_check_prices_each_sets_evaluator(bound, monkeypatch):
    # the estimate the loop checks, against its parts read from the loop's
    # locals at each check
    checks = []
    check = Limits.check_memory

    def spy(self, est, what):
        if what == "label":
            loop = sys._getframe(1).f_locals
            search, k = loop["search"], loop["reduced"].k
            checks.append((est, loop["stats"].labels_created * solver.LABEL_BYTES
                           + len(loop["heap"]) * solver.HEAP_ENTRY_BYTES
                           + len(search.bound.evaluators)
                           * (solver.SET_BYTES + solver.SLOT_BYTES * k)
                           + search.bound.slots * solver.SLOT_BYTES,
                           search.bound.slots))
        return check(self, est, what)

    monkeypatch.setattr(Limits, "check_memory", spy)
    solve(build_hanan_grid(generate_random_points(3, 7, 10**6, 2))[0], bound=bound)
    assert checks and all(est == parts for est, parts, _ in checks)
    assert checks[-1][2] > 0


def _solve_with_full_rows(monkeypatch, inst, **kwargs):
    """solve() with the bound's tables never capped at U."""
    make = solver.make_bound

    def uncapped(*args, upper, **kw):
        return make(*args, **kw)

    with monkeypatch.context() as m:
        m.setattr(solver, "make_bound", uncapped)
        return solve(inst, **kwargs)


def _outcome(rec):
    st = rec.stats
    return (rec.opt, sorted(rec.edges), st.pops, st.permanents, st.labels_created,
            st.heap_pushes, st.pruned_at_creation, st.pruned_at_pop,
            st.bound_evaluations, st.upper_bound)


@pytest.mark.parametrize("zero_edges", [0, 3])
def test_capped_preprocessing_changes_no_counter(monkeypatch, zero_edges):
    cases = [random_instance(seed + 1400, zero_edges=zero_edges) for seed in range(12)]
    cases += [lattice_instance(16, 5, seed, cost_range=(0 if zero_edges else 1, 9),
                               window=5) for seed in range(4)]
    for i, inst in enumerate(cases):
        for bound in ("onetree", "jterm:2", "jterm:3", "tsp", "max(jterm:2,onetree)"):
            for prune in ("bound", "full"):
                got = solve(inst, bound=bound, prune=prune)
                want = _solve_with_full_rows(monkeypatch, inst, bound=bound, prune=prune)
                assert _outcome(got) == _outcome(want), (i, bound, prune)


def test_phase_times_cover_the_solve():
    inst = lattice_instance(20, 5, seed=6, cost_range=(0, 9))
    rec = solve(inst, bound="jterm:2")
    phases = rec.stats.phase_ms
    assert tuple(phases) == solver.PHASES == (
        "contract", "oracle", "heuristic", "bound", "loop", "reconstruct")
    assert all(ms > 0 for ms in phases.values())
    assert sum(phases.values()) <= rec.time_ms
    # prune "off" runs no heuristic; one terminal needs no search at all
    assert solve(inst, prune="off").stats.phase_ms["heuristic"] == 0.0
    one = SteinerInstance(graph=inst.graph, terminals=[0])
    assert [p for p, ms in solve(one).stats.phase_ms.items() if ms > 0] == [
        "contract", "reconstruct"]


def test_record_carries_instance_shape():
    inst = random_instance(81, name="shaped")
    rec = solve(inst)
    assert (rec.instance, rec.n, rec.m, rec.k) == (
        "shaped", inst.n, inst.m, inst.k
    )
    assert rec.labels == rec.stats.labels_created
    assert rec.time_ms > 0
    assert rec.config == "bound=onetree;prune=full;root=medoid"


# --- the cyclic garbage collector ---

def _stopped(**kw):
    """Solve a 7-terminal random graph under the limits ``kw``; returns the
    error the solve raised."""
    inst = random_instance(71, n_range=(25, 25), k_range=(7, 7))
    try:
        solve(inst, bound="zero", prune="off", **kw)
    except (TimeLimit, MemoryLimit) as err:
        return type(err)
    return None


def test_solve_pauses_the_cycle_collector_and_restores_it(monkeypatch):
    seen = []
    make_bound = solver.make_bound

    def record(*args, **kw):
        seen.append(gc.isenabled())
        return make_bound(*args, **kw)

    monkeypatch.setattr(solver, "make_bound", record)
    assert gc.isenabled()
    solve(random_instance(72))
    assert seen == [False] and gc.isenabled()
    assert _stopped(time_limit=1e-9) is TimeLimit and gc.isenabled()
    assert _stopped(mem_limit=1) is MemoryLimit and gc.isenabled()
    cut = SteinerInstance(graph=Graph(4, [(0, 1, 1), (2, 3, 1)]), terminals=[0, 3])
    with pytest.raises(Infeasible):
        solve(cut)
    assert gc.isenabled()
    with pytest.raises(ValueError, match="unknown bound spec"):
        solve(random_instance(72), bound="bogus")
    assert gc.isenabled()


def test_solve_leaves_the_collector_off_when_the_caller_turned_it_off():
    gc.disable()
    try:
        solve(random_instance(72))
        assert not gc.isenabled()
        assert _stopped(time_limit=1e-9) is TimeLimit and not gc.isenabled()
    finally:
        gc.enable()


def test_no_collector_pass_runs_inside_solve():
    # the solve's objects are freed when solve() returns, before the
    # collector is back on; a pass made while they were alive would walk them
    passes = []

    def record(phase, info):
        passes.append(info["generation"])

    inst = lattice_instance(30, 6, seed=5)
    gc.collect()
    gc.callbacks.append(record)
    try:
        solve(inst)
        made = len(passes)
    finally:
        gc.callbacks.remove(record)
    assert made == 0, passes


NO_CYCLE_INSTANCES = {
    # zero-cost edges, so contraction merges vertices and lifting adds edges
    "zero-lattice": lambda: lattice_instance(12, 5, seed=2, cost_range=(0, 9)),
    "hanan": lambda: build_hanan_grid(generate_random_points(2, 7, 100, 3))[0],
}


def _cycle_objects(run) -> int:
    """Objects the cycle collector finds unreachable after ``run()`` made
    them with the collector off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("prune", solver.PRUNE_MODES)
@pytest.mark.parametrize("bound", LEAF_SPECS + ("max(jterm:2,onetree)",))
@pytest.mark.parametrize("name", sorted(NO_CYCLE_INSTANCES))
def test_solve_leaves_nothing_for_the_cycle_collector(name, bound, prune):
    # solve() pauses the collector, which is safe only because reference
    # counting alone frees everything a solve builds
    inst = NO_CYCLE_INSTANCES[name]()
    assert _cycle_objects(lambda: solve(inst, bound=bound, prune=prune)) == 0


@pytest.mark.parametrize("limit", [{"time_limit": 1e-9}, {"mem_limit": 1}])
def test_stopped_solve_leaves_nothing_for_the_cycle_collector(limit):
    assert _cycle_objects(lambda: _stopped(**limit)) == 0


@pytest.mark.parametrize("prune", solver.PRUNE_MODES)
@pytest.mark.parametrize("bound", LEAF_SPECS + ("max(jterm:2,onetree)",))
@pytest.mark.parametrize("name", sorted(NO_CYCLE_INSTANCES))
def test_solve_builds_no_adjacency_on_the_callers_graph(name, bound, prune):
    # the solve's adjacency lists live on its own graph and go with it, so
    # the first collector pass after a return does not walk them
    inst = NO_CYCLE_INSTANCES[name]()
    assert inst.graph.has_zero_edge() == (name == "zero-lattice")
    fresh = solve(NO_CYCLE_INSTANCES[name](), bound=bound, prune=prune)
    for _ in range(2):  # and again, on the graph the first solve was given
        rec = solve(inst, bound=bound, prune=prune)
        assert inst.graph._adj is None
        assert (rec.opt, rec.edges) == (fresh.opt, fresh.edges)
