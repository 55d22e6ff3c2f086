import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsteiner import (
    INF,
    DistanceOracle,
    Graph,
    SteinerInstance,
    build_hanan_grid,
    generate_random_points,
    make_bound,
    solve,
    solve_baseline,
)
from dsteiner import solver
from dsteiner.bitsets import iter_bits, iter_subsets_of_size_at_most
from dsteiner.bounds import (
    TSP_SLOT_BYTES,
    JTermBound,
    MaxBound,
    OneTreeBound,
    TspBound,
    ZeroBound,
)
from dsteiner.distances import ROW_SLOT_BYTES
from dsteiner.errors import Limits, MemoryLimit, TspTableTooLarge

from gen import (
    BaselineOracle,
    capped_cases,
    edges_of,
    lattice_instance,
    path_by_permutations,
    random_instance,
    tsp_by_permutations,
)

ALL_SPECS = ["zero", "jterm:2", "onetree", "tsp", "max(jterm:2,onetree)"]


def setup(seed, k, kmax=None):
    inst = random_instance(seed, k_range=(k, kmax or k), n_range=(8, 20))
    root = inst.k - 1
    oracle = DistanceOracle(inst.graph, inst.terminals)
    return inst, root, oracle


def all_bounds(inst, root, oracle):
    return {name: make_bound(name, inst, root, oracle) for name in ALL_SPECS}


# --- bitset helpers the set machinery relies on ---

@given(st.integers(min_value=0, max_value=(1 << 10) - 1))
@settings(max_examples=40, deadline=None)
def test_iter_bits_roundtrip(mask):
    bits = list(iter_bits(mask))
    assert sum(1 << b for b in bits) == mask
    assert bits == sorted(bits)


@given(st.integers(min_value=0, max_value=(1 << 10) - 1), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_subsets_of_size_at_most_are_each_yielded_once(mask, limit):
    got = list(iter_subsets_of_size_at_most(mask, limit))
    assert sorted(got) == [s for s in range(mask + 1)
                           if s & mask == s and s.bit_count() <= limit]


def test_subset_walk_leaves_nothing_for_the_cycle_collector():
    # the jterm bound walks subsets once per set it meets; a walk that
    # built a reference cycle would leave work for every later gc pass
    gc.collect()
    gc.disable()
    try:
        for limit in range(4):
            for _ in iter_subsets_of_size_at_most(0b1101101, limit):
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- zero bound ---

def test_zero_bound_is_zero_everywhere():
    inst, root, oracle = setup(0, 4)
    b = ZeroBound()
    for v in range(inst.n):
        assert b.value2(v, (1 << inst.k) - 1) == 0
        assert b.value2(v, 0) == 0


# --- shared contracts for every bound ---

@pytest.mark.parametrize("spec", ALL_SPECS)
def test_root_anchor_is_zero(spec):
    inst, root, oracle = setup(1, 5)
    b = make_bound(spec, inst, root, oracle)
    assert b.value2(inst.terminals[root], 1 << root) == 0


@pytest.mark.parametrize("seed", range(6))
def test_soundness_against_oracle(seed):
    # 2*B(v, J) <= 2*smt(J | {v}) for every root-containing J
    inst, root, oracle = setup(seed, 2, kmax=6)
    base = BaselineOracle(inst)
    bounds = all_bounds(inst, root, oracle)
    root_bit = 1 << root
    for jmask in range(1, 1 << inst.k):
        if not jmask & root_bit:
            continue
        for v in range(inst.n):
            smt2 = 2 * base.smt_mask(jmask, v)
            for name, b in bounds.items():
                assert b.value2(v, jmask) <= smt2, (name, v, bin(jmask))


@pytest.mark.parametrize("seed", range(6))
def test_edge_consistency(seed):
    # B(v, J) <= B(w, J) + c({v, w}) on every edge, both directions
    inst, root, oracle = setup(seed + 50, 2, kmax=6)
    bounds = all_bounds(inst, root, oracle)
    root_bit = 1 << root
    for jmask in range(1, 1 << inst.k):
        if not jmask & root_bit:
            continue
        for (u, v), c in edges_of(inst.graph):
            for name, b in bounds.items():
                bu = b.value2(u, jmask)
                bv = b.value2(v, jmask)
                assert abs(bu - bv) <= 2 * c, (name, u, v, bin(jmask))


# --- j-terminal bound ---

@pytest.mark.parametrize("seed", range(5))
def test_jterm2_tables_match_baseline_three_terminal_optima(seed):
    inst, root, oracle = setup(seed + 10, 4)
    b = JTermBound(inst, oracle, root, 2)
    base = BaselineOracle(inst)
    root_bit = 1 << root
    for s in range(inst.k):
        if s == root:
            continue
        table = b.tables[(1 << s) | root_bit]
        for v in range(inst.n):
            assert table[v] == base.smt_mask((1 << s) | root_bit, v)


def test_jterm_rejects_large_j():
    inst, root, oracle = setup(6, 4)
    for j in (1, 4):
        with pytest.raises(ValueError):
            JTermBound(inst, oracle, root, j)


# --- 1-tree bound ---

def test_onetree_singleton_set_is_root_distance():
    inst, root, oracle = setup(7, 5)
    b = OneTreeBound(oracle)
    for v in range(inst.n):
        assert b.value2(v, 1 << root) == 2 * oracle.columns[v][root]


def test_onetree_hand_path_graph():
    # r -- v -- s with costs 3 and 4: bound reaches the true optimum 7
    g = Graph(3, [(0, 1, 3), (1, 2, 4)])
    inst = SteinerInstance(graph=g, terminals=[2, 0])  # root = vertex 0
    oracle = DistanceOracle(g, inst.terminals)
    b = OneTreeBound(oracle)
    jmask = 0b11  # {s, r}
    assert b.value2(1, jmask) == (3 + 4) + 7  # doubled: pair sum + mst
    assert b.value2(1, jmask) == 14


@pytest.mark.parametrize("seed", range(5))
def test_onetree_dominates_half_mst(seed):
    inst, root, oracle = setup(seed + 20, 6)
    b = OneTreeBound(oracle)
    root_bit = 1 << root
    for jmask in range(1, 1 << inst.k):
        if not jmask & root_bit:
            continue
        for v in range(0, inst.n, 2):
            assert b.value2(v, jmask) >= oracle.mst_cost(jmask)


# --- tsp bound ---

def test_tsp_path_table_matches_permutations():
    # every stored entry against brute force, only root-holding sets with at
    # least two members are stored, and a non-member's row is None
    for seed, root in ((8, 6), (14, 0), (15, 3)):
        inst = random_instance(seed, k_range=(7, 7), n_range=(8, 20))
        oracle = DistanceOracle(inst.graph, inst.terminals)
        b = TspBound(inst, oracle, root)
        k, root_bit = inst.k, 1 << root
        assert k == 7
        assert set(b.paths) == {m for m in range(1 << k)
                                if m & root_bit and m != root_bit}
        for mask, rows in b.paths.items():
            assert len(rows) == k
            members = list(iter_bits(mask))
            for a in range(k):
                if a not in members:
                    assert rows[a] is None, (seed, bin(mask), a)
                    continue
                expected = [INF if c == a else
                            path_by_permutations(oracle.pair, members, a, c)
                            for c in members]
                assert rows[a] == expected, (seed, bin(mask), a)


def _tsp_entries(k):
    return (1 << (k - 3)) * k * (k + 3) - 1


def test_tsp_memory_check_prices_every_stored_entry():
    # the check refuses a limit one byte below the stored entries' price
    for k in range(2, 8):
        inst, root, oracle = setup(50 + k, k)
        b = TspBound(inst, oracle, root)
        entries = sum(len(row) for rows in b.paths.values()
                      for row in rows if row is not None)
        price = entries * TSP_SLOT_BYTES
        TspBound(inst, oracle, root, limits=Limits(mem_limit=price))
        with pytest.raises(MemoryLimit, match="TSP table"):
            TspBound(inst, oracle, root, limits=Limits(mem_limit=price - 1))


def test_tsp_table_estimate_tracks_measured_growth():
    import tracemalloc

    # 2D k=12 is the benchmark's size
    for k, seed in ((10, 4), (12, 1)):
        inst, _ = build_hanan_grid(generate_random_points(2, k, 10**6, seed))
        oracle = DistanceOracle(inst.graph, inst.terminals)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            b = TspBound(inst, oracle, inst.k - 1)
            growth = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        est = _tsp_entries(inst.k) * TSP_SLOT_BYTES
        assert len(b.paths) == (1 << (inst.k - 1)) - 1
        assert growth / 2 <= est <= 2 * growth, (k, est, growth)


def test_tsp_entries_between_components_are_inf():
    # two components {0,1,2} and {3,4,5}, terminals on both sides: every path
    # that crosses between them costs exactly INF, never a sum above it
    g = Graph(6, [(0, 1, 3), (1, 2, 4), (3, 4, 5), (4, 5, 2)])
    inst = SteinerInstance(graph=g, terminals=[0, 2, 3, 5, 1])
    left = {0, 1, 4}  # terminal indices in the first component
    oracle = DistanceOracle(inst.graph, inst.terminals)
    for root in range(inst.k):
        b = TspBound(inst, oracle, root)
        for mask, rows in b.paths.items():
            members = list(iter_bits(mask))
            crosses = len({i in left for i in members}) == 2
            for a in members:
                for c, cost in zip(members, rows[a]):
                    if crosses or c == a:
                        assert cost == INF, (root, bin(mask), a, c)
                    else:
                        assert cost == path_by_permutations(oracle.pair, members, a, c)


@pytest.mark.parametrize("seed", range(4))
def test_tsp_full_tour_matches_permutations(seed):
    inst, root, oracle = setup(seed + 30, 7)
    b = TspBound(inst, oracle, root)
    full = (1 << 7) - 1
    # at a terminal's own vertex the bound is the tour through the set
    expected = tsp_by_permutations(oracle.pair, list(range(7)))
    for t in inst.terminals:
        assert b.value2(t, full) == expected


def test_tsp_singleton_complement_is_root_distance():
    inst, root, oracle = setup(9, 5)
    b = TspBound(inst, oracle, root)
    for v in range(inst.n):
        if v == inst.terminals[root]:
            continue
        assert b.value2(v, 1 << root) == 2 * oracle.columns[v][root]


def test_tsp_absorbs_vertex_already_in_set():
    inst, root, oracle = setup(10, 6)
    b = TspBound(inst, oracle, root)
    jmask = (1 << inst.k) - 1
    tour = tsp_by_permutations(oracle.pair, list(range(inst.k)))
    for i in range(inst.k):
        assert b.value2(inst.terminals[i], jmask) == tour


@pytest.mark.parametrize("seed", range(4))
def test_tsp_insertion_matches_permutations(seed):
    # tour through J plus an outside vertex, checked by brute force on the
    # extended distance matrix
    inst, root, oracle = setup(seed + 40, 6)
    b = TspBound(inst, oracle, root)
    jmask = (1 << inst.k) - 1
    term_set = set(inst.terminals)
    outside = [v for v in range(inst.n) if v not in term_set][:3]
    for v in outside:
        got = b.value2(v, jmask)
        col = oracle.columns[v]
        ext = [row[:] + [col[i]] for i, row in enumerate(oracle.pair)]
        ext.append(list(col) + [0])
        expected = tsp_by_permutations(ext, list(range(inst.k + 1)))
        assert got == expected


def test_tsp_cap_enforced():
    # 21 terminals, one over the cap: refused before any table slot is built
    inst = random_instance(11, n_range=(30, 30), k_range=(21, 21))
    oracle = DistanceOracle(inst.graph, inst.terminals)
    with pytest.raises(TspTableTooLarge, match="k=21"):
        TspBound(inst, oracle, inst.k - 1)


# --- max combination ---

def test_max_is_pointwise_max_and_idempotent():
    inst, root, oracle = setup(12, 5)
    lt = OneTreeBound(oracle)
    jt = JTermBound(inst, oracle, root, 2)
    mx = MaxBound([JTermBound(inst, oracle, root, 2),
                   OneTreeBound(oracle)])
    same = MaxBound([OneTreeBound(oracle),
                     OneTreeBound(oracle)])
    root_bit = 1 << root
    for jmask in range(1, 1 << inst.k):
        if not jmask & root_bit:
            continue
        for v in range(0, inst.n, 3):
            combined = mx.value2(v, jmask)
            assert combined == max(jt.value2(v, jmask), lt.value2(v, jmask))
            assert same.value2(v, jmask) == lt.value2(v, jmask)
    # the max bound combines its parts' evaluators; the parts keep none
    assert all(not p.evaluators and p.evaluations == 0 for p in mx.parts + same.parts)


# --- per-set evaluators ---

@pytest.mark.parametrize("spec", ["zero", "onetree", "jterm:2", "jterm:3", "tsp",
                                  "max(jterm:2,onetree)"])
def test_for_set_runs_once_per_set_and_matches_a_fresh_evaluator(spec, monkeypatch):
    built = []

    def make_counted(*args, **kwargs):
        bound = make_bound(*args, **kwargs)
        calls, answers = [], []
        for_set, value2 = bound._for_set, bound.value2

        def counted(jmask):
            calls.append(jmask)
            return for_set(jmask)

        def recorded(v, jmask):
            val = value2(v, jmask)
            answers.append((v, jmask, val))
            return val

        bound._for_set = counted
        bound.value2 = recorded
        built.append((args, kwargs, bound, calls, answers))
        return bound

    monkeypatch.setattr(solver, "make_bound", make_counted)
    inst = random_instance(31, k_range=(6, 6), n_range=(15, 25))
    assert solve(inst, bound=spec).opt == solve_baseline(inst)[0]
    (args, kwargs, bound, calls, answers), = built
    assert len(calls) == len(set(calls)) == len(bound.evaluators) > 1
    assert {jmask for _, jmask, _ in answers} == set(calls)
    assert len(answers) == bound.evaluations
    # a second bound built from the same oracle answers every query alike
    fresh = make_bound(*args, **kwargs)
    evaluators = {jmask: fresh._for_set(jmask) for jmask in calls}
    for v, jmask, val in answers:
        assert val == evaluators[jmask](v), (spec, v, bin(jmask))


def test_bound_grammar():
    inst, root, oracle = setup(13, 5)
    b = make_bound("max(jterm:2,onetree,zero)", inst, root, oracle)
    assert isinstance(b, MaxBound)
    assert len(b.parts) == 3
    spaced = make_bound(" max( zero , jterm:3 ) ", inst, root, oracle)
    assert [type(p) for p in spaced.parts] == [ZeroBound, JTermBound]
    # one spelling per bound: jterm:2 has no bare alias; max is associative,
    # so the grammar is flat and a nested max is refused
    for bad in ("bogus", "jterm", "jterm:9", "jterm:1", "jterm3", "jtermX", "JTERM", "jterm:",
                "jterm:x", "ONETREE", "max(zero,jterm2)", "max()", "max(zero,)",
                "max(zero,max(onetree,jterm:3))", "max(max(zero))"):
        with pytest.raises(ValueError, match="unknown bound spec"):
            make_bound(bad, inst, root, oracle)


# --- preprocessing capped at the upper bound U ---

@pytest.mark.parametrize("zero_edges", [0, 3])
def test_capped_jterm_tables_are_full_tables_up_to_upper_bound(zero_edges):
    beyond = 0
    for inst, upper in capped_cases(zero_edges):
        full_oracle = DistanceOracle(inst.graph, inst.terminals)
        oracle = DistanceOracle(inst.graph, inst.terminals)
        for j in (2, 3):
            full = JTermBound(inst, full_oracle, inst.k - 1, j)
            capped = JTermBound(inst, oracle, inst.k - 1, j, upper=upper)
            assert capped.tables.keys() == full.tables.keys()
            for mask, table in full.tables.items():
                row = list(capped.tables[mask])
                assert row == [d if d <= upper else INF for d in table], (j, bin(mask))
                beyond += row.count(INF)
    assert beyond > 0


def test_solve_caps_jterm_tables_at_its_upper_bound(monkeypatch):
    # terminals in a 6x6 corner of a 48x48 lattice: a solve's jterm:3
    # tables stop at the upper bound U, so most of their entries, far
    # from the terminals, are never reached (94% measured; full tables
    # have none)
    inst = lattice_instance(48, 8, seed=2, window=6)
    built = []
    make = solver.make_bound

    def keep(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(solver, "make_bound", keep)
    solve(inst, bound="jterm:3")
    tables = built[0].tables.values()
    entries = sum(len(table) for table in tables)
    assert sum(list(table).count(INF) for table in tables) > 0.8 * entries


@pytest.mark.parametrize("zero_edges", [0, 3])
def test_capped_bounds_prune_exactly_as_full_bounds(zero_edges):
    # a label is pruned when its key 2*cost + 2*B exceeds 2*U: every bound
    # built with U must equal the full-table value wherever that is at
    # most 2*U, and exceed 2*U wherever the full-table value does
    specs = ALL_SPECS + ["jterm:3"]
    for inst, upper in capped_cases(zero_edges):
        root = inst.k - 1
        full_oracle = DistanceOracle(inst.graph, inst.terminals)
        oracle = DistanceOracle(inst.graph, inst.terminals)
        for spec in specs:
            full = make_bound(spec, inst, root, full_oracle)
            capped = make_bound(spec, inst, root, oracle, upper=upper)
            for jmask in range(1 << root, 1 << inst.k):
                for v in range(inst.n):
                    want = full.value2(v, jmask)
                    got = capped.value2(v, jmask)
                    if want <= 2 * upper:
                        assert got == want, (spec, v, bin(jmask))
                    else:
                        assert got > 2 * upper, (spec, v, bin(jmask))


def test_jterm_table_estimate_tracks_measured_growth():
    import tracemalloc

    inst = lattice_instance(30, 6, seed=4)
    oracle = DistanceOracle(inst.graph, inst.terminals)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        b = JTermBound(inst, oracle, inst.k - 1, 3)
        growth = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    built = sum(1 for mask in b.tables if mask & (mask - 1))
    est = built * inst.n * ROW_SLOT_BYTES
    assert growth / 2 <= est <= 2 * growth


def test_memory_limit_refuses_jterm_tables_before_building(monkeypatch):
    import dsteiner.bounds as bounds

    inst = lattice_instance(20, 5, seed=2)
    oracle = DistanceOracle(inst.graph, inst.terminals)
    # j = 2 builds one table per source terminal s, for {s, root}
    est = (inst.k - 1) * inst.n * ROW_SLOT_BYTES
    with pytest.raises(MemoryLimit, match="jterm"):
        monkeypatch.setattr(bounds, "multi_source_dijkstra",
                            lambda *a: pytest.fail("a table was built"))
        make_bound("jterm:2", inst, inst.k - 1, oracle, limits=Limits(mem_limit=est - 1))
    monkeypatch.undo()
    make_bound("jterm:2", inst, inst.k - 1, oracle, limits=Limits(mem_limit=est))
