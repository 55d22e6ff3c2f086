import pytest

from dsteiner import DistanceOracle
from dsteiner.distances import ROW_SLOT_BYTES
from dsteiner.errors import Limits, MemoryLimit
from dsteiner.graph import INF

from gen import (
    capped_cases,
    lattice_instance,
    mst_by_prufer_enumeration,
    random_instance,
)


def _oracle(seed, k):
    inst = random_instance(seed, k_range=(k, k), n_range=(8, 20))
    return inst, DistanceOracle(inst.graph, inst.terminals)


def test_mst_empty_and_singleton_are_zero():
    inst, oracle = _oracle(0, 3)
    assert oracle.mst_cost(0) == 0
    assert oracle.mst_cost(1 << 1) == 0


def test_mst_pair_is_their_distance():
    inst, oracle = _oracle(1, 4)
    assert oracle.mst_cost(0b101) == oracle.pair[0][2]


@pytest.mark.parametrize("seed", range(8))
def test_mst_matches_prufer_enumeration(seed):
    inst, oracle = _oracle(seed, 6)
    full = (1 << 6) - 1
    got = oracle.mst_cost(full)
    expected = mst_by_prufer_enumeration(oracle.pair)
    assert got == expected


@pytest.mark.parametrize("seed", range(8))
def test_mst_insertion_and_deletion_bounds(seed):
    # adding a terminal costs at most its cheapest attachment; removing one
    # at most doubles the value (double-tree shortcut argument)
    inst, oracle = _oracle(seed, 6)
    full = (1 << 6) - 1
    for y in range(6):
        rest = full ^ (1 << y)
        with_y = oracle.mst_cost(full)
        without_y = oracle.mst_cost(rest)
        attach = min(oracle.pair[x][y] for x in range(6) if x != y)
        assert with_y <= without_y + attach
        assert without_y <= 2 * with_y


def test_rows_are_symmetric_between_terminals():
    inst, oracle = _oracle(3, 5)
    for i in range(5):
        assert oracle.pair[i][i] == 0
        for j in range(5):
            assert oracle.pair[i][j] == oracle.pair[j][i]


def test_set_cut_distance_reports_witness():
    inst, oracle = _oracle(4, 5)
    full = (1 << 5) - 1
    mask = 0b00011
    d, y = oracle.set_cut_distance(mask, full)
    assert d < INF
    assert y >= 2  # witness lies outside the set
    assert d == min(oracle.pair[x][z] for x in (0, 1) for z in (2, 3, 4))


def _brute_nearest(oracle, v, mask):
    best = (INF, -1)
    for y in range(oracle.k):
        if mask >> y & 1 and oracle.rows[y][v] < INF:
            best = min(best, (oracle.rows[y][v], y))
    return best


@pytest.mark.parametrize("seed", range(6))
def test_vertex_to_set_distance_matches_brute_force(seed):
    # costs 1..2 make equal distances common, so the tie-break is exercised
    inst = random_instance(seed + 700, n_range=(8, 16), k_range=(5, 6),
                           cost_range=(1, 2))
    oracle = DistanceOracle(inst.graph, inst.terminals)
    ties = 0
    for v in range(inst.n):
        dists = [row[v] for row in oracle.rows]
        ties += len(dists) != len(set(dists))
        assert oracle.vertex_to_set_distance(v, 0) == (INF, -1)
        for mask in range(1, 1 << oracle.k):
            assert oracle.vertex_to_set_distance(v, mask) == _brute_nearest(oracle, v, mask)
    assert ties


def test_vertex_to_set_distance_skips_unreachable_terminals():
    from dsteiner import Graph

    g = Graph(4, [(0, 1, 3), (2, 3, 1)])
    oracle = DistanceOracle(g, [0, 1, 3])
    assert oracle.vertex_to_set_distance(0, 0b111) == (0, 0)
    assert oracle.vertex_to_set_distance(1, 0b101) == (3, 0)
    assert oracle.vertex_to_set_distance(0, 0b100) == (INF, -1)
    assert oracle.vertex_to_set_distance(2, 0b011) == (INF, -1)
    assert oracle.vertex_to_set_distance(2, 0b111) == (1, 2)


# --- rows capped at the heuristic's upper bound ---

@pytest.mark.parametrize("zero_edges", [0, 3])
def test_capped_rows_are_full_rows_up_to_upper_bound(zero_edges):
    beyond = 0
    for inst, upper in capped_cases(zero_edges):
        full = DistanceOracle(inst.graph, inst.terminals)
        capped = DistanceOracle(inst.graph, inst.terminals, horizon=upper)
        for full_row, row in zip(full.rows, capped.rows):
            assert row == [d if d <= upper else INF for d in full_row]
            beyond += row.count(INF)
        # the heuristic tree joins every terminal pair at cost <= U
        assert capped.pair == full.pair
    assert beyond > 0


def test_row_estimate_tracks_measured_growth():
    import tracemalloc

    inst = lattice_instance(40, 6, seed=3)
    inst.graph.adj  # built on first read; keep it out of the measured window
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        oracle = DistanceOracle(inst.graph, inst.terminals)
        growth = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    est = len(oracle.rows) * inst.n * ROW_SLOT_BYTES
    assert growth / 2 <= est <= 2 * growth


def test_memory_limit_refuses_rows_before_building(monkeypatch):
    import dsteiner.distances as distances

    inst = lattice_instance(20, 4, seed=1)
    est = inst.k * inst.n * ROW_SLOT_BYTES

    def dijkstra(*args):
        pytest.fail("a row was built")

    monkeypatch.setattr(distances, "multi_source_dijkstra", dijkstra)
    with pytest.raises(MemoryLimit, match="distance-row"):
        DistanceOracle(inst.graph, inst.terminals, limits=Limits(mem_limit=est - 1))
    monkeypatch.undo()
    DistanceOracle(inst.graph, inst.terminals, limits=Limits(mem_limit=est))
