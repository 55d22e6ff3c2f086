"""Goal-oriented label-setting solver for Steiner minimal trees.

Labels (v, I) carry the cheapest known tree connecting vertex v with the
source-terminal set I; selection always takes the label minimizing
2*l(v,I) + 2*L(v, T \\ I) for the configured valid lower bound L, so the
run degenerates to Dijkstra with potentials for two terminals.  Two prune
rules can discard labels proven absent from every optimum: the global
upper-bound test and the per-set upper-bound test with witness terminals.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass, field
from typing import Optional

from .bitsets import iter_bits
from .bounds import BoundOracle, make_bound, parse_bound_spec
from .distances import DistanceOracle
from .errors import (
    CenterRuleNeedsCoordinates,
    Infeasible,
    InternalError,
    InvalidTree,
    Limits,
)
from .graph import (
    ADJ_EDGE_BYTES,
    INF,
    ContractionMap,
    SteinerInstance,
    contract_zero_edges,
    validate_tree,
)
from .stp import SolutionRecord

# Memory-limit footprints, measured with tracemalloc on CPython 3.11: a heap
# of 10^5 (key, cost, v, mask) tuples of fresh large ints grew 160 B per entry;
# less that for the heap left at its end, the label loop grew 78-228 B per
# label (median 128) on 40 3D Hanan grids with k=8 (onetree/full), and
# 174-251 B (median 195) on 6 2D grids with k=12, each under onetree and tsp,
# for the two label maps, the prune tracker and the rows grown on demand; all
# under the default root, "medoid" ("last": 73-235 and 152-245 B).
LABEL_BYTES = 200
HEAP_ENTRY_BYTES = 160
LIMIT_CHECK_INTERVAL = 1024

PRUNE_MODES = ("off", "bound", "full")
# solve() phases, in run order, timed into SolveStats.phase_ms
PHASES = ("contract", "oracle", "heuristic", "bound", "loop", "reconstruct")


@dataclass
class SolveStats:
    pops: int = 0
    permanents: int = 0
    labels_created: int = 0
    heap_pushes: int = 0
    pruned_at_creation: int = 0
    pruned_at_pop: int = 0
    bound_evaluations: int = 0
    upper_bound: int = 0
    # wall milliseconds per phase; a phase that did not run stays at 0.0
    phase_ms: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0))


class PruneTracker:
    """Per-set upper bounds U(I) with witness terminals S(I) outside I.

    The tracker holds the per-set state and the merge rule; the label loop
    applies the pop rule to it in place (see ``_label_loop``).  ``sets``
    holds what every pop of I reads, recorded on its first pop: the cut
    distance and witness, and the terminals outside I in increasing order.
    """

    def __init__(self, oracle: DistanceOracle):
        self.oracle = oracle
        self.upper: dict[int, int] = {}
        self.witness: dict[int, int] = {}
        self.sets: dict[int, tuple[int, int, tuple[int, ...]]] = {}

    def on_merge(self, m1: int, m2: int) -> None:
        """Combine U(m1) + U(m2) into U(m1 | m2) when the witnesses allow it;
        both sets have been popped, so both have a U and a witness."""
        s1 = self.witness[m1]
        s2 = self.witness[m2]
        if s1 & m2 and s2 & m1:
            return
        union = m1 | m2
        cand = self.upper[m1] + self.upper[m2]
        if cand < self.upper.get(union, INF):
            new_s = (s1 | s2) & ~union
            if new_s:
                self.upper[union] = cand
                self.witness[union] = new_s


# the named root rules, besides "index:<i>"; the first is the default
ROOT_RULES = ("medoid", "last", "center")
DEFAULT_ROOT_RULE = ROOT_RULES[0]


def parse_root_rule(rule: str) -> Optional[int]:
    """The i of an ``index:<i>`` rule, None for a named rule in ROOT_RULES;
    ValueError for any other spelling."""
    if rule in ROOT_RULES:
        return None
    if rule.startswith("index:") and rule[6:].isdecimal():
        return int(rule[6:])
    raise ValueError(f"unknown root rule {rule!r}")


def choose_root(
    instance: SteinerInstance, rule: str = DEFAULT_ROOT_RULE,
    pair: Optional[list[list[int]]] = None,
) -> int:
    """Pick the root terminal per rule; returns an index into the terminal list.

    "medoid" takes the least summed distance to the other terminals, read
    from ``pair`` (``DistanceOracle.pair`` of ``instance``, built here when
    None), with ties to the smaller index.  Terminals at distance 0 are the
    ones zero-edge contraction merges, so each group counts once and the
    first of the chosen group is returned: the root ``solve`` picks on the
    contracted instance, mapped back.
    """
    index = parse_root_rule(rule)
    terminals = instance.terminals
    k = len(terminals)
    if rule == "medoid":
        if pair is None:
            pair = DistanceOracle(instance.graph, terminals).pair
        firsts = [j for j in range(k) if all(pair[i][j] for i in range(j))]
        return min(range(k), key=lambda i: (sum(pair[i][j] for j in firsts), i))
    if rule == "last":
        return k - 1
    if rule == "center":
        coords = instance.coords
        if coords is None or any(coords[t] is None for t in terminals):
            raise CenterRuleNeedsCoordinates(
                "root rule 'center' needs coordinates for every terminal")
        sums = [sum(axis) for axis in zip(*(coords[t] for t in terminals))]
        # nearest to the coordinate mean in k-scaled L1 distance, exactly;
        # ties go to the smaller vertex
        return min(range(k), key=lambda i: (
            sum(abs(k * x - s) for x, s in zip(coords[terminals[i]], sums)),
            terminals[i]))
    if index >= k:
        raise ValueError(f"root index {index} outside 0..{k - 1}")
    return index


def heuristic_upper_bound(oracle: DistanceOracle) -> int:
    """An upper bound U >= opt: the MST cost of the terminals' distance graph.

    Each MST edge is a shortest path between two terminals, so the union of
    the paths is a connected subgraph spanning every terminal, and any
    spanning tree of it costs at most U.  An optimum tree's Euler tour,
    shortcut at the terminals, is a Hamiltonian cycle of the distance graph
    costing at most 2*opt; dropping its longest edge leaves a spanning tree
    of at most 2(1 - 1/k)*opt, so opt <= U <= 2(1 - 1/k)*opt.  With two
    terminals U is their distance, the optimum.  Prim's algorithm reads the
    oracle's ``pair`` in O(k^2) and grows no row.
    """
    return oracle.mst_cost((1 << oracle.k) - 1)


def solve(
    instance: SteinerInstance,
    bound: str = "onetree",
    prune: str = "full",
    root_rule: str = DEFAULT_ROOT_RULE,
    time_limit: Optional[float] = None,
    mem_limit: Optional[int] = None,
) -> SolutionRecord:
    """Compute an optimum Steiner tree; returns a validated SolutionRecord.

    ``prune``: "off", "bound" (global upper-bound test) or "full" (adds the
    per-set test).  Reported time excludes parsing; edges are in original
    vertex ids even though solving happens on the zero-edge-contracted graph
    and are validated against ``instance`` before returning; a failed
    internal check raises InternalError.

    Python's cyclic garbage collector is paused while the solve runs and
    restored to the caller's setting on every exit: nothing a solve builds
    forms a reference cycle, so reference counting frees all of it and a
    collector pass, which walks every live object, would free nothing.
    """
    if prune not in PRUNE_MODES:
        raise ValueError(f"prune mode {prune!r} not one of {PRUNE_MODES}")
    parse_bound_spec(bound)
    limits = Limits(time_limit, mem_limit)
    t_start = time.perf_counter()
    stats = SolveStats()
    collecting = gc.isenabled()
    gc.disable()
    try:
        search = _prepare(instance, bound, prune, root_rule, stats, limits)
        cost, perm = 0, None
        t = time.perf_counter()
        if search.bound is not None:
            cost, perm = _label_loop(search, stats, limits)
            t = _lap(stats, "loop", t)
        edges = _reconstruct(instance, search, cost, perm)
        _lap(stats, "reconstruct", t)
        # built before the collector is back on, so that the first pass it
        # makes comes after the return has freed ``search``, not over it
        return SolutionRecord(
            instance=instance.name,
            n=instance.n,
            m=instance.m,
            k=instance.k,
            opt=cost,
            edges=edges,
            config=f"bound={bound};prune={prune};root={root_rule}",
            time_ms=(time.perf_counter() - t_start) * 1000.0,
            labels=stats.labels_created,
            stats=stats,
        )
    finally:
        if collecting:
            gc.enable()


@dataclass
class _Search:
    """The contracted instance and everything the label loop reads."""

    reduced: SteinerInstance
    cmap: Optional[ContractionMap]  # None when nothing was contracted
    root: int  # root vertex of ``reduced``
    sources_mask: int  # all terminal bits but the root's: the root label's set
    bound: Optional[BoundOracle] = None  # None when the root is the only terminal
    upper2: int = INF  # doubled global upper bound; INF when prune is "off"
    tracker: Optional[PruneTracker] = None  # set when prune is "full"


def _lap(stats: SolveStats, phase: str, since: float) -> float:
    """Record the time since ``since`` as ``phase``; returns the time now."""
    now = time.perf_counter()
    stats.phase_ms[phase] = (now - since) * 1000.0
    return now


def _prepare(
    instance: SteinerInstance, bound: str, prune: str, root_rule: str,
    stats: SolveStats, limits: Limits,
) -> _Search:
    """Zero-edge contraction, distance oracle, root choice, upper bound, bound.

    The upper bound U >= opt, read from the oracle's ``pair``, is the
    horizon of the jterm tables, the one bound that runs whole rows out: an
    entry beyond U is INF, a value that prunes the label (see
    ``JTermBound``).  Prune "off" has no U, so the tables run out in full.

    The root rule "medoid" reads the oracle's ``pair``, so it chooses on the
    contracted instance; every other rule chooses on the original terminal
    list, before contraction.
    """
    t = time.perf_counter()
    root = (None if root_rule == "medoid"
            else instance.terminals[choose_root(instance, root_rule)])
    reduced, cmap = contract_zero_edges(instance, limits=limits)
    # checked before the oracle first reads ``adj``
    limits.check_memory(reduced.m * ADJ_EDGE_BYTES, "adjacency")
    terminals = reduced.terminals
    t = _lap(stats, "contract", t)
    if reduced.k == 1:
        return _Search(reduced, cmap, terminals[0], 0)

    oracle = DistanceOracle(reduced.graph, terminals, limits=limits)
    if root is None:
        root_idx = choose_root(reduced, root_rule, oracle.pair)
    else:
        root_idx = terminals.index(root if cmap is None else cmap.old_to_new[root])
    full_mask = (1 << reduced.k) - 1
    search = _Search(reduced, cmap, terminals[root_idx], full_mask ^ (1 << root_idx))
    for v, d in zip(terminals, oracle.pair[root_idx]):
        if d >= INF:
            raise Infeasible(f"terminal {v} unreachable from the root")
    t = _lap(stats, "oracle", t)
    upper = INF
    if prune != "off":
        upper = heuristic_upper_bound(oracle)
        stats.upper_bound = upper
        search.upper2 = 2 * upper
        t = _lap(stats, "heuristic", t)
    search.bound = make_bound(bound, reduced, root_idx, oracle, upper=upper,
                              limits=limits)
    if prune == "full":
        search.tracker = PruneTracker(oracle)
    _lap(stats, "bound", t)
    return search


def _label_loop(
    search: _Search, stats: SolveStats, limits: Limits,
) -> tuple[int, list[dict[int, int]]]:
    """Run labels until the root label is permanent; returns its cost and the
    permanent labels' costs by vertex and set, which ``_backtrack`` reads.

    Under prune "full" every permanent label (v, I) but the root's applies
    the pop rule.  Let d be the cut distance of I, the least d(x, y) over
    terminals x in I and y outside it, with y its witness; the least d(v, y')
    over terminals y' outside I replaces both if it is strictly smaller, the
    smaller index winning a tie among the y'.  A d(v, y') that only ties d
    keeps the cut's witness.  If cost + d is below U(I), U(I) becomes
    cost + d and S(I) becomes {y}.  The rule runs in the loop rather than
    behind a call: the call cost about 3% of a ``hanan3d`` solve.
    """
    reduced = search.reduced
    n = reduced.graph.n
    adj = reduced.graph.adj
    terminals = reduced.terminals
    full_mask = (1 << reduced.k) - 1
    sources_mask = search.sources_mask
    target_v = search.root
    value2 = search.bound.value2
    upper2 = search.upper2
    tracker = search.tracker
    upper: dict[int, int] = {}
    if tracker is not None:
        upper, witness, sets = tracker.upper, tracker.witness, tracker.sets
        set_cut_distance = tracker.oracle.set_cut_distance
        columns = tracker.oracle.columns
    upper_get = upper.get
    # per vertex: the cost of every label, and of the permanent ones; a
    # label is permanent iff its mask is in ``perm``
    cost_of: list[dict[int, int]] = [{} for _ in range(n)]
    perm: list[dict[int, int]] = [{} for _ in range(n)]
    heap: list[tuple[int, int, int, int]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    iteration_cap = n * (1 << (reduced.k - 1))

    for s in iter_bits(sources_mask):
        v, mask = terminals[s], 1 << s
        cost_of[v][mask] = 0
        heappush(heap, (value2(v, full_mask ^ mask), 0, v, mask))
    stats.labels_created = stats.heap_pushes = len(heap)

    last_key = -1

    while heap:
        key, cost, v, mask = heappop(heap)
        perm_v = perm[v]
        cost_v = cost_of[v]
        # each (v, mask) is pushed only at strictly lower cost, and never
        # once permanent, so a cost mismatch marks every stale entry
        if cost_v[mask] != cost:
            continue

        # popped keys are nondecreasing for any consistent bound
        if key < last_key:
            raise InternalError(
                f"popped key {key} below the previous key {last_key}; "
                "the lower bound is not consistent"
            )
        last_key = key
        stats.pops += 1
        if stats.pops % LIMIT_CHECK_INTERVAL == 0:
            limits.check_time("in the label loop")
            limits.check_memory(stats.labels_created * LABEL_BYTES
                                + len(heap) * HEAP_ENTRY_BYTES, "label")

        # re-prune on selection: only U(I) can have improved since the
        # label was created
        set_upper = upper_get(mask, INF)
        if cost > set_upper:
            stats.pruned_at_pop += 1
            continue

        stats.permanents += 1
        if stats.permanents > iteration_cap:
            raise InternalError("permanence events exceeded n * 2^(k-1)")
        if v == target_v and mask == sources_mask:
            stats.bound_evaluations = search.bound.evaluations
            return cost, perm
        if tracker is not None:
            # the pop rule (see the docstring); I's cut is queried once
            record = sets.get(mask)
            if record is None:
                outside = tuple(iter_bits(full_mask & ~mask))
                record = sets[mask] = (*set_cut_distance(mask), outside)
            d, y, outside = record
            col = columns[v]
            for z in outside:
                if col[z] < d:
                    d, y = col[z], z
            if cost + d < set_upper:
                set_upper = upper[mask] = cost + d
                witness[mask] = 1 << y

        # relax all edges incident to v; cheap discards first: cost alone
        # (L >= 0), the per-set bound, and only then the lower bound
        jmask_same = full_mask ^ mask
        for w, ec in adj[v]:
            nc = cost + ec
            cost_w = cost_of[w]
            tc = cost_w.get(mask)
            if tc is not None and (nc >= tc or mask in perm[w]):
                continue
            if (2 * nc > upper2 or nc > set_upper
                    or (nkey := 2 * nc + value2(w, jmask_same)) > upper2):
                stats.pruned_at_creation += 1
                continue
            if tc is None:
                stats.labels_created += 1
            cost_w[mask] = nc
            heappush(heap, (nkey, nc, w, mask))
            stats.heap_pushes += 1

        # merge with the disjoint permanent labels at v
        for j, cj in perm_v.items():
            if j & mask:
                continue
            union = mask | j
            nc = cost + cj
            tc = cost_v.get(union)
            if tc is not None and (nc >= tc or union in perm_v):
                continue
            if tracker is not None:
                tracker.on_merge(mask, j)
            if (2 * nc > upper2 or nc > upper_get(union, INF)
                    or (nkey := 2 * nc + value2(v, full_mask ^ union)) > upper2):
                stats.pruned_at_creation += 1
                continue
            if tc is None:
                stats.labels_created += 1
            cost_v[union] = nc
            heappush(heap, (nkey, nc, v, union))
            stats.heap_pushes += 1
        perm_v[mask] = cost

    raise InternalError(
        "label heap exhausted before the root label became permanent; "
        "this indicates an invalid lower bound"
    )


def _reconstruct(
    instance: SteinerInstance, search: _Search, cost: int,
    perm: Optional[list[dict[int, int]]],
) -> list[tuple[int, int]]:
    """Backtrack the root label, lift the tree to ``instance`` and validate it."""
    edges = [] if perm is None else _backtrack(
        perm, search.reduced.graph.adj, search.root, search.sources_mask, cost)
    if search.cmap is not None:
        edges = search.cmap.lift_edges(edges, search.root)
    try:
        tree_cost = validate_tree(instance, edges)
    except (InvalidTree, ValueError) as exc:
        raise InternalError(f"reconstructed tree is invalid: {exc}") from exc
    if tree_cost != cost:
        raise InternalError(f"tree cost {tree_cost} != label cost {cost}")
    return edges


def _backtrack(perm: list[dict[int, int]], adj: list[list[tuple[int, int]]],
               v: int, mask: int, cost: int) -> list[tuple[int, int]]:
    """A tree of cost ``cost`` for label (v, mask), read from the permanent
    labels' costs.  Edges cost more than 0, so a label of cost 0 is a source,
    and any other extends a permanent label of its set by an edge or merges
    two at its vertex that split its set.  At the optimum no edge repeats."""
    edges: list[tuple[int, int]] = []
    stack = [(v, mask, cost)]
    while stack:
        x, m, c = stack.pop()
        if not c:
            continue
        for w, ec in adj[x]:
            if perm[w].get(m) == c - ec:
                edges.append((w, x) if w < x else (x, w))
                stack.append((w, m, c - ec))
                break
        else:
            for j, cj in perm[x].items():
                if j != m and j | m == m and perm[x].get(m ^ j) == c - cj:
                    stack += (x, j, cj), (x, m ^ j, c - cj)
                    break
            else:
                raise InternalError(f"no permanent labels make ({x}, {m}) of cost {c}")
    return edges
