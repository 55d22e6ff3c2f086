"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1, 2 and 6 need the benchmark corpus under data/ (fetched by
scripts/fetch_corpus.py; the files cannot be redistributed here).  They
skip with an explicit message when the corpus is absent and run unmodified
once it is fetched.  Criteria 3, 4, 5 and 7 are self-contained.
"""

import time
from pathlib import Path

import pytest

from dsteiner import (
    DistanceOracle,
    build_hanan_grid,
    make_bound,
    parse_stp_file,
    solve,
    solve_baseline,
    validate_tree,
)
from dsteiner.hanan import parse_points

from conftest import corpus_file
from gen import BaselineOracle, edges_of, random_instance, tsp_by_permutations

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


# name -> (n, m, k, opt); shapes cross-checked against the published tables
GOLDEN = {
    "b01": (50, 63, 9, 82),
    "b02": (50, 63, 13, 83),
    "b04": (50, 100, 9, 59),
    "b05": (50, 100, 13, 61),
    "cc3-4p": (64, 288, 8, 2338),
    "cc3-4u": (64, 288, 8, 23),
    "cc6-2p": (64, 192, 12, 3271),
    "cc6-2u": (64, 192, 12, 32),
    "diw0250": (353, 608, 11, 350),
    "diw0393": (212, 381, 11, 302),
    "es10fst01": (18, 20, 10, 22920745),
    "es10fst02": (14, 13, 10, 19134104),
    "es10fst03": (17, 20, 10, 26003678),
    "es10fst04": (18, 20, 10, 20461116),
    "es10fst05": (12, 11, 10, 18818916),
    "es10fst06": (17, 20, 10, 26540768),
    "es10fst07": (14, 13, 10, 26025072),
    "es10fst08": (21, 28, 10, 25056214),
    "es10fst09": (21, 29, 10, 22062355),
    "es10fst10": (18, 21, 10, 23936095),
    "es10fst11": (14, 13, 10, 22239535),
    "es10fst12": (13, 12, 10, 19626318),
    "es10fst13": (18, 21, 10, 19483914),
    "es10fst14": (24, 32, 10, 21856128),
    "es10fst15": (16, 18, 10, 18641924),
    "ind1": (18, 31, 10, 604),
    "rc01": (21, 35, 10, 25980),
}

LIN = {
    "lin01": (53, 80, 4, 503),
    "lin02": (55, 82, 6, 557),
    "lin03": (57, 84, 8, 926),
    "lin04": (157, 266, 6, 1239),
    "lin05": (160, 269, 9, 1703),
    "lin06": (165, 274, 14, 1348),
    "lin07": (307, 526, 6, 1885),
    "lin08": (311, 530, 10, 2248),
    "lin09": (313, 532, 12, 2752),
    "lin10": (321, 540, 20, 4132),
}

CARIOCA_COUNTS = {
    "carioca_3_11_01": (1331, 3630, 11),
    "carioca_4_11_01": (14641, 53240, 11),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_criterion_1_golden_optima(name):
    n, m, k, opt = GOLDEN[name]
    path = corpus_file(f"steinlib/{name}.stp")
    inst = parse_stp_file(path)
    assert (inst.n, inst.m, inst.k) == (n, m, k), "published instance shape"
    rec = solve(inst, bound="onetree", prune="full")
    assert rec.opt == opt
    assert validate_tree(inst, rec.edges) == opt
    if k <= 12:
        assert solve_baseline(inst)[0] == opt
    report(1, f"{name}: opt={opt} in {rec.time_ms:.0f} ms")


@pytest.mark.parametrize("name", sorted(CARIOCA_COUNTS))
def test_criterion_2_hanan_counts(name):
    v, e, k = CARIOCA_COUNTS[name]
    path = corpus_file(f"carioca/{name}.pts")
    points = parse_points(path.read_text())
    inst, _ = build_hanan_grid(points)
    assert (inst.n, inst.m, inst.k) == (v, e, k)
    report(2, f"{name}: |V|={v} |E|={e}")


def test_criterion_2_carioca_3_11_01_optimum():
    path = corpus_file("carioca/carioca_3_11_01.pts")
    inst, _ = build_hanan_grid(parse_points(path.read_text()))
    t0 = time.perf_counter()
    rec = solve(inst, bound="onetree", prune="full", root_rule="center",
                time_limit=60)
    elapsed = time.perf_counter() - t0
    assert rec.opt == 311221222
    assert elapsed <= 60
    assert validate_tree(inst, rec.edges) == rec.opt
    report(2, f"carioca_3_11_01: opt=311221222 in {elapsed:.1f} s")


CONFIGS = [
    (bound, prune)
    for bound in ["zero", "jterm:2", "onetree", "max(jterm:2,onetree)"]
    for prune in ["off", "bound", "full"]
]


def test_criterion_3_oracle_equivalence_500_instances():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(500):
        inst = random_instance(seed)
        expected, base_edges = solve_baseline(inst)
        assert validate_tree(inst, base_edges) == expected
        for bound, prune in CONFIGS:
            rec = solve(inst, bound=bound, prune=prune)
            assert rec.opt == expected, (seed, bound, prune)
            assert validate_tree(inst, rec.edges) == rec.opt
            checked += 1
    elapsed = time.perf_counter() - t0
    report(3, f"{checked} solves across 500 instances agree with the "
              f"baseline in {elapsed:.0f} s")


SOUNDNESS_BOUNDS = ["zero", "jterm:2", "onetree", "tsp",
                    "max(jterm:2,onetree)"]


def test_criterion_4_bound_soundness_suite():
    t0 = time.perf_counter()
    violations = 0
    evaluated = 0
    for seed in range(100):
        inst = random_instance(seed)
        root = inst.k - 1
        root_bit = 1 << root
        oracle = DistanceOracle(inst.graph, inst.terminals)
        base = BaselineOracle(inst)
        bounds = {
            name: make_bound(name, inst, root, oracle)
            for name in SOUNDNESS_BOUNDS
        }
        edges = edges_of(inst.graph)
        for jmask in range(1, 1 << inst.k):
            if not jmask & root_bit or jmask.bit_count() > 6:
                continue
            for name, b in bounds.items():
                vals = [b.value2(v, jmask) for v in range(inst.n)]
                for v in range(inst.n):
                    evaluated += 1
                    if vals[v] > 2 * base.smt_mask(jmask, v):
                        violations += 1
                for (u, v), c in edges:
                    if abs(vals[u] - vals[v]) > 2 * c:
                        violations += 1
    assert violations == 0
    report(4, f"{evaluated} bound values sound and edge-consistent on "
              f"100 instances in {time.perf_counter() - t0:.0f} s")


def test_criterion_5_tsp_table_exact_on_k7():
    count = 0
    seed = 0
    while count < 20:
        inst = random_instance(seed, k_range=(7, 7), n_range=(10, 25))
        seed += 1
        if inst.k != 7:
            continue
        oracle = DistanceOracle(inst.graph, inst.terminals)
        bound = make_bound("tsp", inst, 6, oracle)
        expected = tsp_by_permutations(oracle.pair, list(range(7)))
        # at a terminal's own vertex the bound reads the whole table's tour
        assert bound.value2(inst.terminals[0], (1 << 7) - 1) == expected
        count += 1
    report(5, "Held-Karp table equals 6! brute force on 20 instances")


@pytest.mark.parametrize("name", sorted(LIN))
def test_criterion_6_prune_effectiveness_on_lin(name):
    n, m, k, opt = LIN[name]
    path = corpus_file(f"steinlib/{name}.stp")
    inst = parse_stp_file(path)
    assert (inst.n, inst.m, inst.k) == (n, m, k)
    full = solve(inst, bound="onetree", prune="full")
    off = solve(inst, bound="onetree", prune="off")
    assert full.opt == opt
    assert off.opt == opt
    assert full.stats.permanents <= off.stats.permanents
    report(6, f"{name}: opt={opt}, permanents {full.stats.permanents} "
              f"(full) <= {off.stats.permanents} (off)")


def test_criterion_7_long_running_targets_excluded():
    # the k >= ~25 table rows and memory/timeout-marked instances are not
    # desk-scale: they live in an explicit exclusion manifest and nothing
    # in the acceptance corpus overlaps it
    manifests = REPO_ROOT / "scripts" / "paper_manifests"

    def names(path):
        return [
            ln.strip() for ln in path.read_text().splitlines()
            if ln.strip() and not ln.startswith("#")
        ]

    desk = names(manifests / "desk_scale.txt")
    excluded = names(manifests / "long_running.txt")
    assert set(GOLDEN) | set(LIN) <= set(desk)
    assert not set(desk) & set(excluded)
    assert len(excluded) > 0
    report(7, f"{len(excluded)} long-running instances excluded from CI")
