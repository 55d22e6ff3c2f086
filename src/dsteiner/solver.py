"""Goal-oriented label-setting solver for Steiner minimal trees.

Labels (v, I) carry the cheapest known tree connecting vertex v with the
source-terminal set I; selection always takes the label minimizing
2*l(v,I) + 2*L(v, T \\ I) for the configured valid lower bound L, so the
run degenerates to Dijkstra with potentials for two terminals.  Two prune
rules can discard labels proven absent from every optimum: the global
upper-bound test and the per-set upper-bound test with witness terminals.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Optional

from .bitsets import iter_bits, iter_nonempty_subsets
from .bounds import BoundOracle, make_bound
from .distances import DistanceOracle
from .errors import (
    CenterRuleNeedsCoordinates,
    Infeasible,
    InternalError,
    InvalidTree,
    MemoryLimit,
    TimeLimit,
)
from .graph import (
    INF,
    ContractionMap,
    SteinerInstance,
    contract_zero_edges,
    multi_source_dijkstra,
    validate_tree,
)
from .stp import SolutionRecord

# rough CPython footprints used for the memory-limit estimate
LABEL_BYTES = 120
HEAP_ENTRY_BYTES = 80
LIMIT_CHECK_INTERVAL = 1024

PRUNE_MODES = ("off", "bound", "full")


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
    popped_keys: Optional[list[int]] = None
    permanent_events: Optional[list[tuple[int, int, int]]] = None


class _Label:
    __slots__ = ("cost", "back", "permanent")

    def __init__(self, cost, back):
        self.cost = cost
        self.back = back
        self.permanent = False


class PruneTracker:
    """Per-set upper bounds U(I) with witness terminals S(I) outside I."""

    def __init__(self, oracle: DistanceOracle, full_mask: int):
        self.oracle = oracle
        self.full_mask = full_mask
        self.upper: dict[int, int] = {}
        self.witness: dict[int, int] = {}

    def bound_for(self, mask: int) -> int:
        return self.upper.get(mask, INF)

    def on_pop(self, vertex: int, mask: int, cost: int) -> None:
        d_set, y_set = self.oracle.set_cut_distance(mask, self.full_mask)
        d_v, y_v = self.oracle.vertex_to_set_distance(
            vertex, self.full_mask & ~mask
        )
        if d_v < d_set:
            d, y = d_v, y_v
        else:
            d, y = d_set, y_set
        if d >= INF or y < 0:
            return
        cand = cost + d
        if cand < self.upper.get(mask, INF):
            self.upper[mask] = cand
            self.witness[mask] = 1 << y

    def on_merge(self, m1: int, m2: int) -> None:
        """Combine U(m1) + U(m2) into U(m1 | m2) when the witnesses allow it."""
        u1 = self.upper.get(m1)
        u2 = self.upper.get(m2)
        if u1 is None or u2 is None:
            return
        s1 = self.witness[m1]
        s2 = self.witness[m2]
        if s1 & m2 and s2 & m1:
            return
        union = m1 | m2
        cand = u1 + u2
        if cand < self.upper.get(union, INF):
            new_s = (s1 | s2) & ~union
            if new_s:
                self.upper[union] = cand
                self.witness[union] = new_s


def choose_root(instance: SteinerInstance, rule: str = "last") -> int:
    """Pick the root terminal per rule; returns an index into the terminal list."""
    k = instance.k
    if rule == "last":
        return k - 1
    if rule == "center":
        coords = instance.coords
        if coords is None or any(coords[t] is None for t in instance.terminals):
            raise CenterRuleNeedsCoordinates(
                "root rule 'center' needs coordinates for every terminal"
            )
        dim = len(coords[instance.terminals[0]])
        sums = [0] * dim
        for t in instance.terminals:
            for i in range(dim):
                sums[i] += coords[t][i]
        # compare k-scaled L1 distances to the coordinate mean exactly
        best = None
        for idx, t in enumerate(instance.terminals):
            dist = sum(abs(k * coords[t][i] - sums[i]) for i in range(dim))
            key = (dist, t)
            if best is None or key < best[0]:
                best = (key, idx)
        return best[1]
    if rule.startswith("index:"):
        i = int(rule.split(":", 1)[1])
        if not (0 <= i < k):
            raise ValueError(f"root index {i} outside 0..{k - 1}")
        return i
    raise ValueError(f"unknown root rule {rule!r}")


def heuristic_upper_bound(
    instance: SteinerInstance, root_index: int
) -> tuple[int, list[tuple[int, int]]]:
    """Feasible tree by repeatedly attaching the nearest terminal via a
    shortest path to the component grown from the root."""
    graph = instance.graph
    terminals = instance.terminals
    comp = {terminals[root_index]}
    remaining = set(terminals) - comp
    edges: list[tuple[int, int]] = []
    total = 0
    while remaining:
        dist, pred = multi_source_dijkstra(graph, [(v, 0) for v in sorted(comp)])
        t = min(remaining, key=lambda x: (dist[x], x))
        if dist[t] >= INF:
            raise Infeasible(f"terminal {t} unreachable from the root component")
        x = t
        while x not in comp:
            p = pred[x]
            edges.append((p, x) if p < x else (x, p))
            total += dist[x] - dist[p]
            comp.add(x)
            if x in remaining:
                remaining.discard(x)
            x = p
        remaining.discard(t)
    return total, edges


def solve(
    instance: SteinerInstance,
    bound: str = "onetree",
    prune: str = "full",
    root_rule: str = "last",
    time_limit: Optional[float] = None,
    mem_limit: Optional[int] = None,
    record_pops: bool = False,
    record_permanents: bool = False,
) -> SolutionRecord:
    """Compute an optimum Steiner tree; returns a validated SolutionRecord.

    ``prune``: "off", "bound" (global upper-bound test) or "full" (adds the
    per-set test).  Reported time excludes parsing; edges are in original
    vertex ids even though solving happens on the zero-edge-contracted graph
    and are validated against ``instance`` before returning; a failed
    internal check raises InternalError.
    """
    if prune not in PRUNE_MODES:
        raise ValueError(f"prune mode {prune!r} not one of {PRUNE_MODES}")
    t_start = time.perf_counter()
    stats = SolveStats(
        popped_keys=[] if record_pops else None,
        permanent_events=[] if record_permanents else None,
    )
    search = _prepare(instance, bound, prune, root_rule, stats)
    store = None
    if search.bound is not None:
        store = _label_loop(search, stats, t_start, time_limit, mem_limit)
    cost, edges = _reconstruct(instance, search, store)
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


@dataclass
class _Search:
    """The contracted instance and everything the label loop reads."""

    reduced: SteinerInstance
    cmap: ContractionMap
    root: int  # root vertex of ``reduced``
    sources_mask: int  # all terminal bits but the root's: the root label's set
    bound: Optional[BoundOracle] = None  # None when the root is the only terminal
    upper2: int = INF  # doubled global upper bound; INF when prune is "off"
    tracker: Optional[PruneTracker] = None  # set when prune is "full"


def _prepare(
    instance: SteinerInstance, bound: str, prune: str, root_rule: str,
    stats: SolveStats,
) -> _Search:
    """Root choice, zero-edge contraction, distance oracle, bound, heuristic UB."""
    root_vertex_orig = instance.terminals[choose_root(instance, root_rule)]
    reduced, cmap = contract_zero_edges(instance)
    root = cmap.old_to_new[root_vertex_orig]
    root_idx = reduced.terminals.index(root)
    full_mask = (1 << reduced.k) - 1
    search = _Search(reduced, cmap, root, full_mask ^ (1 << root_idx))
    if not search.sources_mask:
        return search

    oracle = DistanceOracle(reduced.graph, reduced.terminals)
    root_row = oracle.rows[root_idx]
    for t in reduced.terminals:
        if root_row[t] >= INF:
            raise Infeasible(f"terminal {t} unreachable from the root")
    search.bound = make_bound(bound, reduced, root_idx, oracle)
    if prune != "off":
        upper, _ = heuristic_upper_bound(reduced, root_idx)
        stats.upper_bound = upper
        search.upper2 = 2 * upper
        if prune == "full":
            search.tracker = PruneTracker(oracle, full_mask)
    return search


def _label_loop(
    search: _Search, stats: SolveStats, t_start: float,
    time_limit: Optional[float], mem_limit: Optional[int],
) -> list[dict[int, _Label]]:
    """Run labels until the root label is permanent; returns the label store."""
    reduced = search.reduced
    n = reduced.graph.n
    adj = reduced.graph.adj
    terminals = reduced.terminals
    k = reduced.k
    full_mask = (1 << k) - 1
    sources_mask = search.sources_mask
    target_v = search.root
    value2 = search.bound.value2
    upper2 = search.upper2
    tracker = search.tracker
    store: list[dict[int, _Label]] = [dict() for _ in range(n)]
    heap: list[tuple[int, int, int, int]] = []
    iteration_cap = n * (1 << (k - 1))

    for s in iter_bits(sources_mask):
        v = terminals[s]
        mask = 1 << s
        store[v][mask] = _Label(0, None)
        stats.labels_created += 1
        key = value2(v, full_mask ^ mask)
        heapq.heappush(heap, (key, 0, v, mask))
        stats.heap_pushes += 1

    last_key = -1
    ticks = 0

    while True:
        if not heap:
            raise InternalError(
                "label heap exhausted before the root label became permanent; "
                "this indicates an invalid lower bound"
            )
        key, cost, v, mask = heapq.heappop(heap)
        label = store[v].get(mask)
        # each (v, mask) is pushed only at strictly lower cost, so a cost
        # mismatch marks a stale entry
        if label is None or label.permanent or label.cost != cost:
            continue

        ticks += 1
        if ticks % LIMIT_CHECK_INTERVAL == 0:
            if time_limit is not None and time.perf_counter() - t_start > time_limit:
                raise TimeLimit(f"time limit {time_limit}s exceeded")
            if mem_limit is not None:
                est = stats.labels_created * LABEL_BYTES + len(heap) * HEAP_ENTRY_BYTES
                if est > mem_limit:
                    raise MemoryLimit(
                        f"estimated label memory {est} exceeds limit {mem_limit}"
                    )

        # popped keys are nondecreasing for any consistent bound
        if key < last_key:
            raise InternalError(
                f"popped key {key} below the previous key {last_key}; "
                "the lower bound is not consistent"
            )
        last_key = key
        stats.pops += 1
        if stats.popped_keys is not None:
            stats.popped_keys.append(key)

        # re-prune on selection: bounds may have improved since creation
        if key > upper2 or (tracker is not None and cost > tracker.bound_for(mask)):
            stats.pruned_at_pop += 1
            continue

        label.permanent = True
        stats.permanents += 1
        if stats.permanents > iteration_cap:
            raise InternalError("permanence events exceeded n * 2^(k-1)")
        if stats.permanent_events is not None:
            stats.permanent_events.append((v, mask, cost))
        if v == target_v and mask == sources_mask:
            break
        if tracker is not None:
            tracker.on_pop(v, mask, cost)

        # relax all edges incident to v
        store_v = store[v]
        jmask_same = full_mask ^ mask
        for w, ec in adj[v]:
            nc = cost + ec
            tgt = store[w].get(mask)
            if tgt is not None and (tgt.permanent or nc >= tgt.cost):
                continue
            # cheap discards first: cost alone (L >= 0), the per-set bound,
            # and only then the lower bound
            if (2 * nc > upper2
                    or (tracker is not None and nc > tracker.bound_for(mask))
                    or (nkey := 2 * nc + value2(w, jmask_same)) > upper2):
                stats.pruned_at_creation += 1
                continue
            if tgt is None:
                store[w][mask] = _Label(nc, ("e", v))
                stats.labels_created += 1
            else:
                tgt.cost = nc
                tgt.back = ("e", v)
            heapq.heappush(heap, (nkey, nc, w, mask))
            stats.heap_pushes += 1

        # merge with disjoint permanent labels at v; walk whichever is
        # smaller, the subset lattice of the complement or v's label list
        free = sources_mask & ~mask
        if free:
            if (1 << free.bit_count()) - 1 <= len(store_v):
                candidates = [
                    j for j in iter_nonempty_subsets(free)
                    if (lj := store_v.get(j)) is not None and lj.permanent
                ]
            else:
                candidates = [
                    j for j, lj in store_v.items()
                    if lj.permanent and not j & mask and j != 0
                ]
            for j in candidates:
                partner = store_v[j]
                union = mask | j
                nc = cost + partner.cost
                tgt = store_v.get(union)
                if tgt is not None and (tgt.permanent or nc >= tgt.cost):
                    continue
                if tracker is not None:
                    tracker.on_merge(mask, j)
                if (2 * nc > upper2
                        or (tracker is not None and nc > tracker.bound_for(union))
                        or (nkey := 2 * nc + value2(v, full_mask ^ union)) > upper2):
                    stats.pruned_at_creation += 1
                    continue
                if tgt is None:
                    store_v[union] = _Label(nc, ("m", mask))
                    stats.labels_created += 1
                else:
                    tgt.cost = nc
                    tgt.back = ("m", mask)
                heapq.heappush(heap, (nkey, nc, v, union))
                stats.heap_pushes += 1

    stats.bound_evaluations = search.bound.evaluations
    return store


def _reconstruct(
    instance: SteinerInstance, search: _Search,
    store: Optional[list[dict[int, _Label]]],
) -> tuple[int, list[tuple[int, int]]]:
    """Backtrack the root label, lift the tree to ``instance`` and validate it."""
    root, target = search.root, search.sources_mask
    cost, reduced_edges = 0, []
    if store is not None:
        cost = store[root][target].cost
        reduced_edges = _backtrack(store, root, target)
    edges = search.cmap.lift_edges(reduced_edges, root)
    try:
        tree_cost = validate_tree(instance, edges)
    except (InvalidTree, ValueError) as exc:
        raise InternalError(f"reconstructed tree is invalid: {exc}") from exc
    if tree_cost != cost:
        raise InternalError(f"tree cost {tree_cost} != label cost {cost}")
    return cost, edges


def _backtrack(store, v: int, mask: int) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    stack = [(v, mask)]
    while stack:
        x, m = stack.pop()
        back = store[x][m].back
        if back is None:
            continue
        kind, arg = back
        if kind == "e":
            w = arg
            edges.append((w, x) if w < x else (x, w))
            stack.append((w, m))
        else:
            stack.append((x, arg))
            stack.append((x, m ^ arg))
    return edges
