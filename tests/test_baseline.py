import pytest

from dsteiner import (
    Graph,
    SteinerInstance,
    multi_source_dijkstra,
    solve_baseline,
    validate_tree,
)
from dsteiner.errors import TooManyTerminalsForOracle

from gen import BaselineOracle, random_instance, steiner_by_subtree_enumeration


def test_single_terminal_is_zero():
    g = Graph(3, [(0, 1, 2), (1, 2, 3)])
    inst = SteinerInstance(graph=g, terminals=[1])
    assert solve_baseline(inst) == (0, [])


def test_two_terminals_is_shortest_path():
    inst = random_instance(5, k_range=(2, 2))
    cost, edges = solve_baseline(inst)
    dist = multi_source_dijkstra(inst.graph, [(inst.terminals[0], 0)])
    assert cost == dist[inst.terminals[1]]
    assert validate_tree(inst, edges) == cost


def test_three_corners_of_unit_four_cycle():
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    inst = SteinerInstance(graph=g, terminals=[0, 1, 2])
    expected = steiner_by_subtree_enumeration(g, [0, 1, 2])
    cost, edges = solve_baseline(inst)
    assert cost == expected == 2
    assert validate_tree(inst, edges) == cost


@pytest.mark.parametrize("seed", range(6))
def test_matches_subtree_enumeration_on_tiny_graphs(seed):
    inst = random_instance(seed, n_range=(5, 6), extra_edge_cap=3, k_range=(2, 4))
    cost, edges = solve_baseline(inst)
    assert cost == steiner_by_subtree_enumeration(inst.graph, inst.terminals)
    assert validate_tree(inst, edges) == cost


def test_smt_subset_trivia():
    inst = random_instance(9, k_range=(5, 5))
    oracle = BaselineOracle(inst)
    t = inst.terminals
    assert oracle.smt_subset([t[0]]) == 0
    assert oracle.smt_subset([], extra_vertex=3) == 0
    dist = multi_source_dijkstra(inst.graph, [(t[0], 0)])
    assert oracle.smt_subset([t[0], t[1]]) == dist[t[1]]
    assert oracle.smt_subset([t[0]], extra_vertex=t[1]) == dist[t[1]]


@pytest.mark.parametrize("seed", range(5))
def test_smt_subset_monotone(seed):
    inst = random_instance(seed, k_range=(6, 6))
    oracle = BaselineOracle(inst)
    full = (1 << 6) - 1
    for x in range(1, full + 1):
        for y in range(x, full + 1):
            if x & ~y:
                continue
            assert oracle.smt_mask(x) <= oracle.smt_mask(y)


def test_full_set_matches_solve_baseline():
    inst = random_instance(23, k_range=(5, 5))
    oracle = BaselineOracle(inst)
    cost, _ = solve_baseline(inst)
    assert oracle.smt_mask((1 << 5) - 1) == cost


def test_oracle_cap():
    inst = random_instance(1, n_range=(25, 25), k_range=(7, 7))
    inst.terminals = list(range(17))  # bypass generator bound on purpose
    with pytest.raises(TooManyTerminalsForOracle):
        solve_baseline(inst)
    with pytest.raises(TooManyTerminalsForOracle):
        BaselineOracle(inst)
