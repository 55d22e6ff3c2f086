import random

import pytest

from dsteiner import DistanceOracle, multi_source_dijkstra, solve, solver
from dsteiner.bitsets import iter_bits
from dsteiner.distances import (
    COLUMN_BYTES,
    COLUMN_SLOT_BYTES,
    FRONTIER_ENTRY_BYTES,
    ROW_SLOT_BYTES,
)
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
    mask = 0b00011
    d, y = oracle.set_cut_distance(mask)
    assert d < INF
    assert y >= 2  # witness lies outside the set
    assert d == min(oracle.pair[x][z] for x in (0, 1) for z in (2, 3, 4))


def _brute_nearest(oracle, v, mask):
    best = (INF, -1)
    for y in range(oracle.k):
        if mask >> y & 1 and oracle.columns[v][y] < INF:
            best = min(best, (oracle.columns[v][y], y))
    return best


@pytest.mark.parametrize("seed", range(6))
def test_vertex_to_set_distance_matches_brute_force(seed):
    # costs 1..2 make equal distances common, so the tie-break is exercised
    inst = random_instance(seed + 700, n_range=(8, 16), k_range=(5, 6),
                           cost_range=(1, 2))
    oracle = DistanceOracle(inst.graph, inst.terminals)
    ties = 0
    for v in range(inst.n):
        assert oracle.vertex_to_set_distance(v, ()) == (INF, -1)
        dists = oracle.columns[v]
        ties += len(dists) != len(set(dists))
        for mask in range(1, 1 << oracle.k):
            assert (oracle.vertex_to_set_distance(v, tuple(iter_bits(mask)))
                    == _brute_nearest(oracle, v, mask))
    assert ties


def test_vertex_to_set_distance_skips_unreachable_terminals():
    from dsteiner import Graph

    g = Graph(4, [(0, 1, 3), (2, 3, 1)])
    oracle = DistanceOracle(g, [0, 1, 3])
    assert oracle.vertex_to_set_distance(0, (0, 1, 2)) == (0, 0)
    assert oracle.vertex_to_set_distance(1, (0, 2)) == (3, 0)
    assert oracle.vertex_to_set_distance(0, (2,)) == (INF, -1)
    assert oracle.vertex_to_set_distance(2, (0, 1)) == (INF, -1)
    assert oracle.vertex_to_set_distance(2, (0, 1, 2)) == (1, 2)


# --- rows run out as far as the upper bound U ---

@pytest.mark.parametrize("zero_edges", [0, 3])
def test_capped_rows_are_full_rows_up_to_upper_bound(zero_edges):
    beyond = 0
    for inst, upper in capped_cases(zero_edges):
        full = DistanceOracle(inst.graph, inst.terminals)
        capped = DistanceOracle(inst.graph, inst.terminals)
        for full_row, row in zip(full.complete(), capped.complete(upper)):
            assert row == [d if d <= upper else INF for d in full_row]
            beyond += row.count(INF)
            # the MST's path joins every terminal pair at cost <= U
            assert all(row[t] <= upper for t in inst.terminals)
    assert beyond > 0


@pytest.mark.parametrize("zero_edges", [0, 3])
def test_columns_read_before_completion_are_final(zero_edges):
    # a column read while the rows are still growing already holds the
    # full rows' entries, and so does one read after the rows were run out
    # only as far as U, as the jterm build does
    rng = random.Random(zero_edges)
    read = 0
    for inst, upper in capped_cases(zero_edges):
        oracle = DistanceOracle(inst.graph, inst.terminals)
        order = rng.sample(range(inst.n), inst.n // 2)
        early = {v: oracle.columns[v] for v in order}
        oracle.complete(upper)
        rows = [multi_source_dijkstra(inst.graph, [(t, 0)]) for t in inst.terminals]
        for v in range(inst.n):
            col = oracle.columns[v]
            assert col == tuple(row[v] for row in rows), v
            if v in early:
                assert early[v] == col, v
        read += len(early)
    assert read


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
    est = oracle.k * inst.n * ROW_SLOT_BYTES
    assert growth / 2 <= est <= 2 * growth


def _oracle_estimate(k, n):
    """What the oracle's memory check counts: k full rows, their frontiers
    and every column."""
    return ((ROW_SLOT_BYTES + COLUMN_SLOT_BYTES) * k + FRONTIER_ENTRY_BYTES
            + COLUMN_BYTES) * n


def test_memory_limit_refuses_rows_before_building(monkeypatch):
    import dsteiner.distances as distances

    inst = lattice_instance(20, 4, seed=1)
    est = _oracle_estimate(inst.k, inst.n)

    def dijkstra(*args):
        pytest.fail("a row was built")

    monkeypatch.setattr(distances, "ResumableDijkstra", dijkstra)
    with pytest.raises(MemoryLimit, match="distance-row"):
        DistanceOracle(inst.graph, inst.terminals, limits=Limits(mem_limit=est - 1))
    monkeypatch.undo()
    DistanceOracle(inst.graph, inst.terminals, limits=Limits(mem_limit=est))


# --- rows grown on demand ---

def _solve_keeping_oracle(monkeypatch, inst, **kwargs):
    """solve() plus the distance oracle it built, as the solve left it."""
    built = []

    def keep(*args, **kw):
        built.append(DistanceOracle(*args, **kw))
        return built[-1]

    with monkeypatch.context() as m:
        m.setattr(solver, "DistanceOracle", keep)
        rec = solve(inst, **kwargs)
    return rec, built[0]


SPECS = ["zero", "jterm:2", "jterm:3", "onetree", "tsp", "max(jterm:2,onetree)"]


@pytest.mark.parametrize("zero_edges", [0, 3])
def test_settled_entries_equal_full_rows_after_solves(monkeypatch, zero_edges):
    cases = [random_instance(seed + 1500, zero_edges=zero_edges) for seed in range(10)]
    cases += [lattice_instance(16, 5, seed, cost_range=(0 if zero_edges else 1, 9),
                               window=5) for seed in range(3)]
    checked = 0
    for inst in cases:
        for spec in SPECS:
            for prune in ("bound", "full"):
                rec, oracle = _solve_keeping_oracle(monkeypatch, inst, bound=spec,
                                                    prune=prune)
                graph = solver.contract_zero_edges(inst)[0].graph
                for i, t in enumerate(oracle.terminals):
                    full = multi_source_dijkstra(graph, [(t, 0)])
                    for v, col in oracle.columns.items():
                        assert col[i] == full[v], (spec, prune, v)
                        checked += 1
    assert checked


def test_solve_frees_its_oracle_without_the_cycle_collector(monkeypatch):
    # nothing a solve builds refers back to itself, so the oracle with its
    # rows and columns goes when the solve returns, not at a later gc pass
    import gc
    import weakref

    refs = []

    def keep(*args, **kw):
        oracle = DistanceOracle(*args, **kw)
        refs.append(weakref.ref(oracle))
        return oracle

    inst = lattice_instance(16, 5, seed=1, window=5)
    monkeypatch.setattr(solver, "DistanceOracle", keep)
    gc.disable()
    try:
        for spec in SPECS:
            solve(inst, bound=spec)
        # read before gc is back on: its first pass would free a cycle
        alive = [r for r in refs if r() is not None]
    finally:
        gc.enable()
    assert len(refs) == len(SPECS) and not alive


def test_clustered_lattice_solve_leaves_most_entries_ungrown(monkeypatch):
    # terminals in a 6x6 corner of a 48x48 lattice: the label loop reads
    # the columns of only vertices near them, and the rows stay short of
    # most of the grid
    inst = lattice_instance(48, 8, seed=2, window=6)
    rec, oracle = _solve_keeping_oracle(monkeypatch, inst)
    ungrown = sum(s.dist.count(INF) for s in oracle._searches)
    assert ungrown > 0.5 * oracle.k * inst.n
    assert len(oracle.columns) < 0.5 * inst.n


def test_row_and_frontier_estimate_tracks_measured_peak():
    # traced peak while columns are read outward from a terminal, as the
    # label loop does, and after the rows are run out and every column is
    # read (rows run out only as far as the jterm build's horizon hold
    # fewer distances, and the check errs high for them)
    import tracemalloc

    inst = lattice_instance(40, 6, seed=3, window=10)
    inst.graph.adj  # built on first read; keep it out of the measured window
    near = multi_source_dijkstra(inst.graph, [(inst.terminals[0], 0)])
    order = sorted(range(inst.n), key=near.__getitem__)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        oracle = DistanceOracle(inst.graph, inst.terminals)
        frontier = 0
        for v in order[: inst.n // 4]:
            oracle.columns[v]
            frontier = max(frontier, sum(len(s.heap) for s in oracle._searches))
        oracle.complete()
        for v in order:
            oracle.columns[v]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert frontier > inst.n // 8
    est = _oracle_estimate(oracle.k, inst.n)
    assert peak / 2 <= est <= 2 * peak, (peak, est)
