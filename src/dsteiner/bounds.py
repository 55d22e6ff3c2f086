"""Valid lower bounds used as future-cost estimates by the solver.

Every bound B satisfies B(root, {root}) = 0 and the consistency inequality
B(v, J) <= B(w, J') + smt((J \\ J') | {v, w}) for root-containing J' <= J,
which makes the labeling algorithm's goal-oriented selection exact.

All values are handled doubled (2*B) so the halved 1-tree and TSP bounds
stay in exact integer arithmetic; the solver compares 2*l + 2*L uniformly.
Terminal sets are int masks over terminal indices; the root's bit must be
present for a nonzero value (sets without the root evaluate to 0).
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Optional, Sequence

from .bitsets import iter_bits, iter_subsets_of_size_at_most
from .distances import ROW_SLOT_BYTES, DistanceOracle
from .errors import MemoryLimit, TimeLimit, TspTableTooLarge
from .graph import INF, SteinerInstance, multi_source_dijkstra

DEFAULT_TSP_CAP = 20
# Bytes per TSP path-table slot, for the memory-limit check: building the
# table for 2D Hanan grids with k = 12..14 grew 12.9-13.1 B per slot under
# tracemalloc on CPython 3.11 (an 8 B list pointer, plus an int object for
# each finite entry).
TSP_SLOT_BYTES = 13


class BoundOracle:
    """Base class: per-argument cache plus the doubled-value contract."""

    name = "bound"

    def __init__(self):
        self._cache: dict[int, dict[int, int]] = {}  # jmask -> v -> value
        self.evaluations = 0

    def value2(self, v: int, jmask: int) -> int:
        """2 * B(v, set(jmask)); cached so each argument is computed once."""
        by_vertex = self._cache.get(jmask)
        if by_vertex is None:
            by_vertex = self._cache[jmask] = {}
        else:
            cached = by_vertex.get(v)
            if cached is not None:
                return cached
        self.evaluations += 1
        val = by_vertex[v] = self._evaluate2(v, jmask)
        return val

    def _evaluate2(self, v: int, jmask: int) -> int:
        raise NotImplementedError


class ZeroBound(BoundOracle):
    name = "zero"

    def _evaluate2(self, v, jmask):
        return 0


class OneTreeBound(BoundOracle):
    """Half of (cheapest 1-tree through v over the distance graph of J).

    Doubled value: min over i, j in J (distinct unless |J| = 1) of
    d(v,i) + d(v,j), plus mst(J); spanning tree costs are cached per set
    and computed on first sight of a set.  Over rows capped at a horizon U
    the value is exact or INF: when the second-nearest terminal b of J lies
    beyond U, mst(J) >= d(a,b) >= d(v,b) - d(v,a) puts the true value at
    2*d(v,b) > 2*U or more, which prunes the label just the same.
    """

    name = "onetree"

    def __init__(self, oracle: DistanceOracle, root_bit: int):
        super().__init__()
        self.oracle = oracle
        self.root_bit = root_bit
        # per-set distance-row lists and mst values; sets repeat across
        # thousands of vertices, so this dominates evaluation cost
        self._set_rows: dict[int, tuple[list, int]] = {}

    def _evaluate2(self, v, jmask):
        if not jmask & self.root_bit:
            return 0
        cached = self._set_rows.get(jmask)
        if cached is None:
            rows = self.oracle.rows
            cached = (
                [rows[t] for t in iter_bits(jmask)],
                self.oracle.mst_cost(jmask),
            )
            self._set_rows[jmask] = cached
        set_rows, mst = cached
        best1 = best2 = INF
        for row in set_rows:
            dv = row[v]
            if dv < best1:
                best2 = best1
                best1 = dv
            elif dv < best2:
                best2 = dv
        if len(set_rows) == 1:
            pair_sum = best1 + best1 if best1 < INF else INF
        else:
            pair_sum = best1 + best2 if best2 < INF else INF
        if pair_sum >= INF or mst >= INF:
            return INF
        return pair_sum + mst


class JTermBound(BoundOracle):
    """Best optimum over root-containing terminal subsets of size <= j+1.

    Preprocessing stores smt({v} | S) arrays for every terminal set S with
    at most j-1 non-root members, built by a rootless, boundless run over
    terminal sets of increasing cardinality.  Evaluation splits into a
    v-dependent scan over the stored arrays and a per-set maximum that is
    memoized the first time a set is queried.

    The arrays stop at the oracle's horizon U, as its rows do: an entry is
    exact wherever smt({v} | S) <= U, since every tree that cheap is built
    from parts no costlier, and INF elsewhere.  An INF entry makes the value
    INF: the true value 2*B(v, J) >= 2*smt({v} | S) > 2*U prunes the label
    anyway.  The sizes of the arrays are checked against ``mem_limit``
    (bytes) before the build and ``deadline`` (a ``time.perf_counter``
    value) after each array's Dijkstra run.
    """

    name = "jterm"

    def __init__(self, instance: SteinerInstance, oracle: DistanceOracle,
                 root_index: int, j: int, *, deadline: Optional[float] = None,
                 mem_limit: Optional[int] = None):
        super().__init__()
        if j not in (1, 2, 3):
            raise ValueError(f"jterm bound supports j in 1..3, got {j}")
        self.j = j
        self.oracle = oracle
        self.root_bit = 1 << root_index
        self.terminals = instance.terminals
        k = len(self.terminals)
        sources_mask = ((1 << k) - 1) ^ self.root_bit
        self._per_set_max: dict[int, int] = {}
        self._scan_tables: dict[int, list] = {}
        # tables[mask][v] = smt({v} | terms(mask)) for every mask with at
        # most j-1 source bits (root bit optional); singletons reuse the
        # distance rows.
        family: list[int] = []
        for src in iter_subsets_of_size_at_most(sources_mask, j - 1):
            if src:
                family.append(src)
            family.append(src | self.root_bit)
        family.sort(key=lambda m: m.bit_count())
        graph = instance.graph
        n = graph.n
        built = sum(1 for mask in family if mask & (mask - 1))
        est = built * n * ROW_SLOT_BYTES
        if mem_limit is not None and est > mem_limit:
            raise MemoryLimit(
                f"estimated jterm table memory {est} exceeds limit {mem_limit}"
            )
        horizon = oracle.horizon
        tables: dict[int, Sequence[int]] = {}
        for mask in family:
            if mask & (mask - 1) == 0:
                tables[mask] = oracle.rows[mask.bit_length() - 1]
                continue
            arr = [INF] * n
            low = mask & -mask
            sub = (mask - 1) & mask
            while sub:
                if sub & low and sub != mask:
                    da = tables[sub]
                    db = tables[mask ^ sub]
                    for v in range(n):
                        c = da[v] + db[v]
                        if c < arr[v]:
                            arr[v] = c
                sub = (sub - 1) & mask
            seeds = [(v, c) for v, c in enumerate(arr) if c < INF]
            tables[mask] = multi_source_dijkstra(graph, seeds, horizon)[0]
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeLimit("time limit exceeded while building the jterm tables")
        self.tables = tables

    def _set_max(self, jmask: int) -> int:
        """max of smt(S | {root}) over S <= sources(jmask), |S| <= j."""
        cached = self._per_set_max.get(jmask)
        if cached is not None:
            return cached
        src_part = jmask & ~self.root_bit
        best = 0
        for s in iter_subsets_of_size_at_most(src_part, self.j):
            if s == 0:
                continue
            low = s & -s
            anchor = self.terminals[low.bit_length() - 1]
            # a terminal set's optimum is at most U, so this entry is exact
            val = self.tables[(s ^ low) | self.root_bit][anchor]
            if val > best:
                best = val
        self._per_set_max[jmask] = best
        return best

    def _evaluate2(self, v, jmask):
        if not jmask & self.root_bit:
            return 0
        scan = self._scan_tables.get(jmask)
        if scan is None:
            src_part = jmask & ~self.root_bit
            scan = [
                self.tables[s | self.root_bit]
                for s in iter_subsets_of_size_at_most(src_part, self.j - 1)
            ]
            self._scan_tables[jmask] = scan
        best = 0
        for table in scan:
            val = table[v]
            if val > best:
                if val >= INF:
                    return INF
                best = val
        per_set = self._set_max(jmask)
        if per_set > best:
            best = per_set
        return 2 * best


class TspBound(BoundOracle):
    """Half the optimum tour through J and v in the distance graph.

    Preprocessing tabulates shortest Hamiltonian paths between every end
    pair for each terminal set holding the root, the only sets queries
    read; a query inserts v between every pair of potential tour neighbors
    in O(|J|^2).  The table has 2^(k-1) * k^2 slots: its size is checked
    against ``mem_limit`` before the build and ``deadline`` (a
    ``time.perf_counter`` value) once per set size during it.  Over rows
    capped at a horizon U, an end pair with an INF row drops out; if some
    terminal t of J lies beyond U, every candidate left is still a tour
    through v and t, so the value stays above 2*d(v,t) > 2*U and prunes.
    """

    name = "tsp"

    def __init__(self, instance: SteinerInstance, oracle: DistanceOracle,
                 root_index: int, cap: int = DEFAULT_TSP_CAP, *,
                 deadline: Optional[float] = None,
                 mem_limit: Optional[int] = None):
        super().__init__()
        k = instance.k
        if k > cap:
            raise TspTableTooLarge(f"k={k} exceeds the TSP table cap {cap}")
        est = (1 << (k - 1)) * k * k * TSP_SLOT_BYTES
        if mem_limit is not None and est > mem_limit:
            raise MemoryLimit(
                f"estimated TSP table memory {est} exceeds limit {mem_limit}"
            )
        self.oracle = oracle
        self.k = k
        self.root_bit = 1 << root_index
        self.term_index = {t: i for i, t in enumerate(instance.terminals)}
        self.paths = self._build_paths(root_index, deadline)
        self._ends: dict[int, list[tuple[int, int, int]]] = {}
        self._tour_cache: dict[int, int] = {}

    def _build_paths(self, r: int, deadline: Optional[float]) -> dict[int, list[int]]:
        """paths[mask][a*k + b] = cheapest Hamiltonian path on terms(mask)
        from a to b, for every mask holding the root r and another terminal;
        INF on the diagonal and off the mask, and for values >= INF.

        Pull recurrence, always peeling the end b != r: the path ends in an
        edge c-b with c in mask - {a, b}, so it reads only root-holding sets.
        Each pair is computed with a = r or a < b and mirrored.
        """
        k = self.k
        kk = k * k
        pair = self.oracle.pair
        root_bit = self.root_bit
        others = [i for i in range(k) if i != r]
        paths: dict[int, list[int]] = {}
        for b in others:
            row = [INF] * kk
            row[r * k + b] = row[b * k + r] = pair[r][b]
            paths[root_bit | 1 << b] = row
        for size in range(2, k):
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeLimit("time limit exceeded while building the TSP table")
            for combo in combinations(others, size):
                mask = root_bit
                for i in combo:
                    mask |= 1 << i
                row = [INF] * kk
                for j, b in enumerate(combo):
                    sub = paths[mask ^ (1 << b)]
                    pb = pair[b]
                    rest = (r,) + combo[:j] + combo[j + 1:]  # mask - {b}
                    # a is r or below b; c == a reads the diagonal (INF), so
                    # it never wins
                    for a in rest[:j + 1]:
                        ak = a * k
                        best = min([sub[ak + c] + pb[c] for c in rest])
                        row[ak + b] = row[b * k + a] = best if best < INF else INF
                paths[mask] = row
        return paths

    def _end_pairs(self, mask: int) -> list[tuple[int, int, int]]:
        """(a, b, path cost) for every end pair a < b of a mask with >= 2 members."""
        ends = self._ends.get(mask)
        if ends is None:
            k = self.k
            row = self.paths[mask]
            bits = list(iter_bits(mask))
            ends = self._ends[mask] = [
                (a, b, row[a * k + b])
                for i, a in enumerate(bits) for b in bits[i + 1:]
            ]
        return ends

    def _tour(self, mask: int) -> int:
        """Exact optimum tour cost on the terminals of a root-holding ``mask``."""
        cached = self._tour_cache.get(mask)
        if cached is not None:
            return cached
        val = 0
        if mask & (mask - 1):
            pair = self.oracle.pair
            val = INF
            for a, b, cost in self._end_pairs(mask):
                c = cost + pair[a][b]
                if c < val:
                    val = c
        self._tour_cache[mask] = val
        return val

    def _evaluate2(self, v, jmask):
        if not jmask & self.root_bit:
            return 0
        ti = self.term_index.get(v)
        if ti is not None and jmask & (1 << ti):
            return self._tour(jmask)
        rows = self.oracle.rows
        if not jmask & (jmask - 1):
            d = rows[jmask.bit_length() - 1][v]
            return 2 * d if d < INF else INF
        best = INF
        for a, b, cost in self._end_pairs(jmask):
            c = cost + rows[a][v] + rows[b][v]
            if c < best:
                best = c
        return best


class MaxBound(BoundOracle):
    name = "max"

    def __init__(self, parts: list[BoundOracle]):
        super().__init__()
        if not parts:
            raise ValueError("max bound needs at least one component")
        self.parts = parts

    def _evaluate2(self, v, jmask):
        # this bound's own cache answers repeats, so the parts' caches never
        # would: evaluate them directly
        return max(p._evaluate2(v, jmask) for p in self.parts)


# --- bound selection grammar: zero | jterm:<j> | onetree | tsp | max(a,b,...) ---

def _split_args(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def make_bound(spec: str, instance: SteinerInstance, root_index: int,
               oracle: DistanceOracle, *, deadline: Optional[float] = None,
               mem_limit: Optional[int] = None) -> BoundOracle:
    """Build a bound evaluator from its selection string.

    ``deadline`` (a ``time.perf_counter`` value) and ``mem_limit`` (bytes)
    bound the jterm and TSP table builds: they raise TimeLimit or
    MemoryLimit.  The jterm tables stop at the oracle's horizon.
    """
    spec = spec.strip()
    low = spec.lower()
    if low == "zero":
        return ZeroBound()
    if low == "onetree":
        return OneTreeBound(oracle, 1 << root_index)
    if low == "tsp":
        return TspBound(instance, oracle, root_index,
                        deadline=deadline, mem_limit=mem_limit)
    if low.startswith("jterm"):
        j = 2 if ":" not in spec else int(spec.split(":", 1)[1])
        return JTermBound(instance, oracle, root_index, j,
                          deadline=deadline, mem_limit=mem_limit)
    if low.startswith("max(") and spec.endswith(")"):
        parts = [make_bound(p, instance, root_index, oracle,
                            deadline=deadline, mem_limit=mem_limit)
                 for p in _split_args(spec[4:-1])]
        return MaxBound(parts)
    raise ValueError(f"unknown bound spec {spec!r}")
