import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsteiner import (
    PointSet,
    build_hanan_grid,
    generate_random_points,
    solve,
    validate_tree,
)
from dsteiner.errors import DEFAULT_MEM_LIMIT, GridTooLarge
from dsteiner.hanan import GRID_ITEM_BYTES, MAX_GRID_ITEMS, parse_points

from gen import edges_of, rectilinear_smt_bruteforce


def grid_counts(points: PointSet) -> tuple[int, int]:
    counts = [len({p[i] for p in points.points}) for i in range(points.dimension)]
    v = 1
    for c in counts:
        v *= c
    e = sum((c - 1) * (v // c) for c in counts)
    return v, e


def test_single_point_grid():
    inst, mapping = build_hanan_grid(PointSet(3, [(5, 5, 5)]))
    assert (inst.n, inst.m, inst.k) == (1, 0, 1)
    assert mapping[(5, 5, 5)] == 0


def test_two_points_2d():
    inst, _ = build_hanan_grid(PointSet(2, [(0, 0), (3, 4)]))
    assert (inst.n, inst.m) == (4, 4)
    rec = solve(inst)
    assert rec.opt == 7  # L1 distance


def test_duplicate_points_one_terminal():
    inst, mapping = build_hanan_grid(PointSet(2, [(1, 2), (1, 2), (4, 6)]))
    assert inst.k == 2
    assert mapping[(1, 2)] == mapping[(1, 2)]


def test_counts_formula_with_repeats():
    pts = PointSet(3, [(0, 0, 0), (0, 1, 2), (1, 0, 2), (1, 1, 0)])
    inst, _ = build_hanan_grid(pts)
    v, e = grid_counts(pts)
    assert (inst.n, inst.m) == (v, e) == (8, 12)


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_counts_formula_property(raw_points):
    pts = PointSet(3, raw_points)
    inst, mapping = build_hanan_grid(pts)
    assert (inst.n, inst.m) == grid_counts(pts)
    # every input point maps onto a terminal with matching coordinates
    for p in raw_points:
        vid = mapping[p]
        assert inst.coords[vid] == p
        assert vid in inst.terminals


@pytest.mark.parametrize("seed", range(6))
def test_grid_optimum_matches_rectilinear_bruteforce(seed):
    pts = generate_random_points(2, 4, 9, seed)
    unique = list(dict.fromkeys(pts.points))
    inst, _ = build_hanan_grid(pts)
    rec = solve(inst)
    assert validate_tree(inst, rec.edges) == rec.opt
    assert rec.opt == rectilinear_smt_bruteforce(unique)


def test_random_points_deterministic():
    a = generate_random_points(3, 40, 999, 11)
    b = generate_random_points(3, 40, 999, 11)
    assert a.points == b.points
    assert generate_random_points(3, 40, 999, 12).points != a.points


def test_random_points_grid_at_most_k_cubed():
    pts = generate_random_points(3, 40, 999, 5)
    v, _ = grid_counts(pts)
    assert v <= 40 ** 3


def test_grid_too_large():
    # about 410^3 = 69M grid vertices, over the cap, which is checked before
    # any vertex is built
    pts = generate_random_points(3, 410, 10 ** 6, 1)
    assert sum(grid_counts(pts)) > MAX_GRID_ITEMS
    with pytest.raises(GridTooLarge):
        build_hanan_grid(pts)


def _axis_points(counts):
    """max(counts) points whose grid has counts[i] values on axis i."""
    return PointSet(len(counts), [tuple(min(j, c - 1) for c in counts)
                                  for j in range(max(counts))])


def _refused_peak(pts, error):
    """Traced peak bytes of a build_hanan_grid call that raises ``error``."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(error):
            build_hanan_grid(pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_just_over_the_cap_is_refused_before_building():
    # a grid at the cap fits the CLI's default memory limit
    assert MAX_GRID_ITEMS * GRID_ITEM_BYTES <= DEFAULT_MEM_LIMIT
    # 5D, 48 distinct points: 28 vertices and edges over the cap
    pts = _axis_points((3, 18, 34, 44, 48))
    assert sum(grid_counts(pts)) == MAX_GRID_ITEMS + 28
    assert _refused_peak(pts, GridTooLarge) < 100_000


def test_grid_item_bytes_tracks_measured_growth():
    import tracemalloc

    pts = generate_random_points(3, 20, 10 ** 6, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        inst, _ = build_hanan_grid(pts)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    items = inst.n + inst.m
    assert items * GRID_ITEM_BYTES / 2 <= peak <= items * GRID_ITEM_BYTES


def test_dimension_must_be_at_least_two():
    with pytest.raises(ValueError):
        PointSet(1, [(3,)])


def test_point_file_roundtrip():
    text = "4 2\n1 2 3 4\n-5 6 7 80\n"
    pts = parse_points(text)
    assert pts.dimension == 4
    assert pts.points == [(1, 2, 3, 4), (-5, 6, 7, 80)]
    lines = [f"4 {len(pts.points)}"] + [" ".join(map(str, p)) for p in pts.points]
    assert "\n".join(lines) + "\n" == text


def test_point_file_count_checked():
    with pytest.raises(ValueError):
        parse_points("2 3\n1 2\n3 4\n")


def test_vertex_ids_row_major_deterministic():
    pts = PointSet(2, [(0, 0), (2, 1)])
    inst1, m1 = build_hanan_grid(pts)
    inst2, m2 = build_hanan_grid(PointSet(2, [(2, 1), (0, 0)]))
    # same geometry, same ids, terminal order follows input order
    assert m1 == m2
    assert dict(edges_of(inst1.graph)) == dict(edges_of(inst2.graph))
    assert inst1.terminals == list(reversed(inst2.terminals))
