import io
import random
from dataclasses import replace

import pytest

from dsteiner import (
    DistanceOracle,
    Graph,
    build_hanan_grid,
    contract_zero_edges,
    generate_random_points,
    multi_source_dijkstra,
    parse_stp,
    solve,
    solver,
    write_stp,
)
from dsteiner.bitsets import iter_bits
from dsteiner.distances import (
    COLUMN_BYTES,
    COLUMN_SLOT_BYTES,
    FRONTIER_ENTRY_BYTES,
    GRID_SLOT_BYTES,
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


# --- Hanan grids: columns from coordinates ---

def _unmarked(graph):
    """The same graph, sharing its cost dict, without ``grid_coords``."""
    return Graph._from_costs(graph.n, graph._edge_cost)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_grid_columns_equal_dijkstra_columns(d):
    for seed in range(6):
        # coordinates from 0..3, so axes share values, and a repeated
        # point, which collapses into its first copy's terminal
        points = generate_random_points(d, 3 + seed % 5, 3, seed)
        points.points.append(points.points[0])
        inst = build_hanan_grid(points)[0]
        assert inst.k < len(points.points)
        grid = DistanceOracle(inst.graph, inst.terminals)
        plain = DistanceOracle(_unmarked(inst.graph), inst.terminals)
        assert grid._searches is None and plain._searches is not None
        for v in range(inst.n):
            assert grid.columns[v] == plain.columns[v], (seed, v)
        assert grid.pair == plain.pair
        for h in (0, 1, 3, 5, INF):
            assert grid.complete(h) == plain.complete(h), (seed, h)
        # fewer terminals than points: some coordinate values are no
        # terminal's own
        some = inst.terminals[:2]
        assert (DistanceOracle(inst.graph, some).complete()
                == DistanceOracle(_unmarked(inst.graph), some).complete())


@pytest.mark.parametrize("d", [2, 3, 4])
def test_grid_and_its_stp_round_trip_solve_alike(d):
    # the round trip drops the mark, so the parsed graph grows Dijkstra rows
    for seed in range(3):
        inst = build_hanan_grid(generate_random_points(d, 6, 10**6, seed))[0]
        out = io.StringIO()
        write_stp(inst, out)
        parsed = parse_stp(out.getvalue())
        assert parsed.graph.grid_coords is None
        for bound in ("onetree", "jterm:3", "tsp"):
            recs = [solve(x, bound=bound) for x in (inst, parsed)]
            a, b = ({"opt": r.opt, "edges": sorted(r.edges),
                     **{f: v for f, v in vars(r.stats).items() if type(v) is int}}
                    for r in recs)
            assert a == b, (seed, bound)


def test_only_hanan_grids_take_the_grid_path():
    from test_holed import _holed

    inst = build_hanan_grid(generate_random_points(3, 5, 10**6, 1))[0]
    assert inst.graph.grid_coords is inst.coords
    # contraction without a zero-cost edge keeps the mark
    assert contract_zero_edges(inst)[0].graph.grid_coords is inst.coords
    holed = _holed().holed_instance(30, 6, 8, 1)
    rebuilt = replace(inst, graph=Graph(inst.n, [
        (u, v, c) for (u, v), c in inst.graph._edge_cost.items()]))
    # a zero-cost edge on a marked graph: the contracted graph has no mark
    cost = dict(inst.graph._edge_cost)
    cost[next(iter(cost))] = 0
    zeroed = Graph._from_costs(inst.n, cost)
    zeroed.grid_coords = inst.coords
    contracted = contract_zero_edges(replace(inst, graph=zeroed))[0]
    for case in (holed, rebuilt, contracted):
        assert case.graph.grid_coords is None
        assert DistanceOracle(case.graph, case.terminals)._searches is not None


def _grid_estimate(k, n):
    """What the oracle's memory check counts on a grid: every column."""
    return (GRID_SLOT_BYTES * k + COLUMN_BYTES) * n


def test_memory_limit_refuses_grid_columns_before_building(monkeypatch):
    import dsteiner.distances as distances

    inst = build_hanan_grid(generate_random_points(3, 6, 10**6, 1))[0]
    est = _grid_estimate(inst.k, inst.n)

    def columns(*args):
        pytest.fail("a column was built")

    monkeypatch.setattr(distances, "_GridColumns", columns)
    with pytest.raises(MemoryLimit, match="distance-column"):
        DistanceOracle(inst.graph, inst.terminals, limits=Limits(mem_limit=est - 1))
    monkeypatch.undo()
    oracle = DistanceOracle(inst.graph, inst.terminals, limits=Limits(mem_limit=est))
    # complete() checks its rows before it reads a column beyond the
    # terminals' own
    rows = inst.k * inst.n * ROW_SLOT_BYTES
    oracle._limits = Limits(mem_limit=rows - 1)
    with pytest.raises(MemoryLimit, match="distance-row"):
        oracle.complete()
    assert len(oracle.columns) == inst.k
    oracle._limits = Limits(mem_limit=rows)
    assert len(oracle.complete()) == inst.k


@pytest.mark.parametrize("d, k", [(2, 16), (3, 12), (4, 8), (5, 6)])
def test_grid_column_estimate_tracks_measured_peak(d, k):
    # every column read, then the rows run out: the columns' check is
    # within 2x of the traced peak, and the rows' check errs high, since
    # the rows share the columns' ints
    import tracemalloc

    inst = build_hanan_grid(generate_random_points(d, k, 10**6, 1))[0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        oracle = DistanceOracle(inst.graph, inst.terminals)
        for v in range(inst.n):
            oracle.columns[v]
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        oracle.complete()
        rows_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    est = _grid_estimate(inst.k, inst.n)
    assert (peak - start) / 2 <= est <= 2 * (peak - start), (peak - start, est)
    assert rows_peak <= inst.k * inst.n * ROW_SLOT_BYTES
