"""Valid lower bounds used as future-cost estimates by the solver.

Every bound B satisfies B(root, {root}) = 0 and the consistency inequality
B(v, J) <= B(w, J') + smt((J \\ J') | {v, w}) for root-containing J' <= J,
which makes the labeling algorithm's goal-oriented selection exact.

All values are handled doubled (2*B) so the halved 1-tree and TSP bounds
stay in exact integer arithmetic; the solver compares 2*l + 2*L uniformly.
Terminal sets are int masks over terminal indices, and every queried set J
holds the root's bit: the solver asks only for the complement of a label's
source set, which never holds the root.

Work that depends only on the set is done once per set: on the first query
of a set, ``BoundOracle.value2`` keeps a record of J, ``sets[J]``: the tuple
of J's members, the evaluator ``v -> 2*B(v, J)`` that the bound's
``_for_set`` builds with them, and a slot where the solver's pop rule keeps
the cut distance of I = T \\ J, with its witness, from I's first pop.
An evaluator reads terminal distances as ``oracle.columns[v]``, one tuple
per vertex indexed by terminal; the oracle grows its rows on the first
read of a vertex.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, itemgetter
from typing import Callable, Sequence

from .bitsets import iter_bits, iter_subsets_of_size_at_most
from .distances import ROW_SLOT_BYTES, DistanceOracle
from .errors import NO_LIMITS, Limits, TspTableTooLarge
from .graph import INF, SteinerInstance, multi_source_dijkstra

MAX_TSP_TERMINALS = 20
# Bytes per TSP path-table entry, for the memory-limit check: building the
# table for 2D and 3D Hanan grids with k = 12..15 grew 33.0-34.6 B per entry
# under tracemalloc on CPython 3.11 (an 8 B list pointer, the row lists'
# headers, and an int object shared by each finite entry and its mirror).
TSP_SLOT_BYTES = 34


Evaluator = Callable[[int], int]


def _zero(v: int) -> int:
    return 0


class BoundOracle:
    """Base class: per-set records, and the doubled-value contract."""

    # pointer slots of the evaluators' own lists and tuples, for the label
    # loop's memory estimate; each _for_set adds what it builds
    slots = 0

    def __init__(self, limits: Limits = NO_LIMITS):
        # jmask -> [the set's evaluator, its members in increasing order,
        # the pop rule's (cut distance, witness) or None before I's first pop]
        self.sets: dict[int, list] = {}
        self.evaluations = 0
        self.limits = limits

    def value2(self, v: int, jmask: int) -> int:
        """2 * B(v, set(jmask)) for a set holding the root; counts the query."""
        record = self.sets.get(jmask)
        if record is None:
            members = tuple(iter_bits(jmask))
            record = self.sets[jmask] = [self._for_set(jmask, members), members, None]
            self.limits.check_time("while building a set's bound")
        self.evaluations += 1
        return record[0](v)

    def _for_set(self, jmask: int, members: tuple[int, ...]) -> Evaluator:
        """The evaluator v -> 2 * B(v, set(jmask)), built once per set;
        ``members`` is the record's tuple of the set's terminals."""
        raise NotImplementedError


class ZeroBound(BoundOracle):
    def _for_set(self, jmask, members):
        return _zero


class OneTreeBound(BoundOracle):
    """Half of (cheapest 1-tree through v over the distance graph of J).

    Doubled value: min over i, j in J (distinct unless |J| = 1) of
    d(v,i) + d(v,j), plus mst(J), which is computed once per set.
    """

    def __init__(self, oracle: DistanceOracle, limits: Limits = NO_LIMITS):
        super().__init__(limits)
        self.oracle = oracle

    def _for_set(self, jmask, members):
        oracle = self.oracle
        if len(members) == 1:
            members *= 2
        mst = oracle.mst_cost(jmask)
        columns = oracle.columns

        def evaluate(v):
            col = columns[v]
            best1 = best2 = INF
            for i in members:
                dv = col[i]
                if dv < best1:
                    best2 = best1
                    best1 = dv
                elif dv < best2:
                    best2 = dv
            pair_sum = best1 + best2 if best2 < INF else INF
            if pair_sum >= INF or mst >= INF:
                return INF
            return pair_sum + mst
        return evaluate


class JTermBound(BoundOracle):
    """Best optimum over root-containing terminal subsets of size <= j+1.

    Preprocessing stores smt({v} | S) arrays for every terminal set S with
    at most j-1 non-root members, built by a rootless, boundless run over
    terminal sets of increasing cardinality.  Evaluation splits into a
    v-dependent scan over the stored arrays and a per-set maximum, which is
    computed with the set's list of arrays to scan on its first query.

    The arrays stop at ``upper``, an upper bound U >= opt (INF for
    none): an entry is exact wherever smt({v} | S) <= U, since every tree
    that cheap is built from parts no costlier, and INF elsewhere.  An INF
    entry makes the value INF: the true value 2*B(v, J) >= 2*smt({v} | S)
    > 2*U prunes the label anyway.  The arrays read whole rows, which
    ``oracle.complete(upper)`` runs out as far as U, each array's Dijkstra
    stopping there too.  ``limits`` is checked for the sizes of the arrays
    before the build and for time after each array's Dijkstra run.
    """

    def __init__(self, instance: SteinerInstance, oracle: DistanceOracle,
                 root_index: int, j: int, *, upper: int = INF,
                 limits: Limits = NO_LIMITS):
        super().__init__(limits)
        if j not in (2, 3):
            raise ValueError(f"jterm bound supports j in 2..3, got {j}")
        self.j = j
        self.root_bit = 1 << root_index
        self.terminals = instance.terminals
        k = len(self.terminals)
        sources_mask = ((1 << k) - 1) ^ self.root_bit
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
        limits.check_memory(built * n * ROW_SLOT_BYTES, "jterm table")
        rows = oracle.complete(upper)
        # an isolated vertex, such as a member that zero-edge contraction
        # merged away, reaches only itself: no two disjoint sets' entries
        # are both finite there, so the merge below skips it
        linked = [v for v, nbrs in enumerate(graph.adj) if nbrs]
        tables: dict[int, Sequence[int]] = {}
        for mask in family:
            if mask & (mask - 1) == 0:
                tables[mask] = rows[mask.bit_length() - 1]
                continue
            arr = [INF] * n
            low = mask & -mask
            sub = (mask - 1) & mask
            while sub:
                if sub & low and sub != mask:
                    da = tables[sub]
                    db = tables[mask ^ sub]
                    for v in linked:
                        c = da[v] + db[v]
                        if c < arr[v]:
                            arr[v] = c
                sub = (sub - 1) & mask
            seeds = [(v, c) for v, c in enumerate(arr) if c < INF]
            tables[mask] = multi_source_dijkstra(graph, seeds, upper)
            limits.check_time("while building the jterm tables")
        self.tables = tables

    def _for_set(self, jmask, members):
        src_part = jmask & ~self.root_bit
        scan = [self.tables[s | self.root_bit]
                for s in iter_subsets_of_size_at_most(src_part, self.j - 1)]
        self.slots += len(scan)
        # max of smt(S | {root}) over nonempty S <= sources(jmask), |S| <= j
        per_set = 0
        for s in iter_subsets_of_size_at_most(src_part, self.j):
            if s == 0:
                continue
            low = s & -s
            anchor = self.terminals[low.bit_length() - 1]
            # a terminal set's optimum is at most U, so this entry is exact
            val = self.tables[(s ^ low) | self.root_bit][anchor]
            if val > per_set:
                per_set = val

        def evaluate(v):
            # an INF entry beats any finite per-set maximum
            best = per_set
            for table in scan:
                val = table[v]
                if val > best:
                    if val >= INF:
                        return INF
                    best = val
            return 2 * best
        return evaluate


class TspBound(BoundOracle):
    """Half the optimum tour through J and v in the distance graph.

    Preprocessing tabulates shortest Hamiltonian paths between every end
    pair for each terminal set holding the root, the only sets queries
    read; a query inserts v between every pair of potential tour neighbors
    in O(|J|^2).  At a vertex of J's own terminal i the insertion is the
    optimum tour: d(v,i) = 0, so the pairs ending at i close the paths into
    every tour, and any other pair closes a walk through J, no shorter by
    the triangle inequality.  The root alone is the end pair (r, r) of an
    empty path.  Each set with m members keeps one row of m path costs per
    member, 2^(k-3) * k * (k+3) - 1 entries over all sets: ``limits`` is
    checked for that size before the build and for time once per set
    during it.
    """

    def __init__(self, instance: SteinerInstance, oracle: DistanceOracle,
                 root_index: int, *, limits: Limits = NO_LIMITS):
        super().__init__(limits)
        k = instance.k
        if k > MAX_TSP_TERMINALS:
            raise TspTableTooLarge(f"k={k} exceeds the TSP table cap {MAX_TSP_TERMINALS}")
        entries = ((1 << k) * k * (k + 3) >> 3) - 1
        limits.check_memory(entries * TSP_SLOT_BYTES, "TSP table")
        self.oracle = oracle
        self.k = k
        self.paths = self._build_paths(root_index, limits)

    def _build_paths(self, r: int, limits: Limits) -> dict[int, list]:
        """paths[mask][a][j] = cheapest Hamiltonian path on terms(mask) from
        member a to the mask's j-th member in increasing index order, for
        every mask holding the root r and another terminal; INF at a itself
        and for values >= INF, and paths[mask][a] is None for a non-member.

        Pull recurrence, always peeling the end b != r: the path ends in an
        edge c-b with c in mask - {a, b}, so it reads only root-holding sets.
        Each pair is computed with a = r or a < b and mirrored.  A set's
        ``itemgetter`` reads a row of ``pair`` at the set's members, so the
        next size's step over c is one ``min`` of pairwise sums.
        """
        k = self.k
        pair = self.oracle.pair
        root_bit = 1 << r
        others = [i for i in range(k) if i != r]
        paths: dict[int, list] = {}
        # mask -> itemgetter of the mask's members, for the last size built
        getters = {}
        for b in others:
            rows = [None] * k
            rows[r] = [INF, pair[r][b]] if r < b else [pair[r][b], INF]
            rows[b] = rows[r][::-1]
            paths[root_bit | 1 << b] = rows
            getters[root_bit | 1 << b] = itemgetter(*sorted((r, b)))
        for size in range(2, k):
            last, getters = getters, {}
            for combo in combinations(others, size):
                limits.check_time("while building the TSP table")
                members = tuple(sorted(combo + (r,)))
                mask = 0
                for i in members:
                    mask |= 1 << i
                rows = [None] * k
                for a in members:
                    rows[a] = [INF] * len(members)
                for j, b in enumerate(members):
                    if b == r:
                        continue
                    sub = mask ^ (1 << b)
                    sub_rows = paths[sub]
                    pb = last[sub](pair[b])  # pair[b] at sub's members
                    row_b = rows[b]
                    # a is r or below b; c == a reads a's own INF, so it
                    # never wins
                    for i, a in enumerate(members):
                        if a >= b and a != r:
                            continue
                        best = min(map(add, sub_rows[a], pb))
                        if best >= INF:
                            best = INF
                        row_b[i] = rows[a][j] = best
                paths[mask] = rows
                getters[mask] = itemgetter(*members)
        return paths

    def _for_set(self, jmask, members):
        if len(members) == 1:
            ends = [(members[0], members[0], 0)]
        else:
            rows = self.paths[jmask]
            ends = [(a, b, rows[a][j]) for i, a in enumerate(members)
                    for j, b in enumerate(members[i + 1:], i + 1)]
        # a list slot and a 3-tuple (64 B) per end pair
        self.slots += 9 * len(ends)
        columns = self.oracle.columns

        def evaluate(v):
            col = columns[v]
            best = INF
            for a, b, cost in ends:
                c = cost + col[a] + col[b]
                if c < best:
                    best = c
            return best
        return evaluate


class MaxBound(BoundOracle):
    def __init__(self, parts: list[BoundOracle], limits: Limits = NO_LIMITS):
        super().__init__(limits)
        self.parts = parts

    @property
    def slots(self):
        # the parts' lists, and per set an evaluator of each part: a closure
        # with its cells, about 350 B (44 slots) under tracemalloc
        return (sum(p.slots for p in self.parts)
                + 44 * len(self.parts) * len(self.sets))

    def _for_set(self, jmask, members):
        # the parts' evaluators are called directly, so a query counts once,
        # here, and the parts keep no records
        first, *rest = [p._for_set(jmask, members) for p in self.parts]

        def evaluate(v):
            best = first(v)
            for f in rest:
                val = f(v)
                if val > best:
                    best = val
            return best
        return evaluate


# --- bound selection grammar: <leaf> | max(<leaf>,<leaf>,...) ---

LEAF_SPECS = ("zero", "onetree", "tsp", "jterm:2", "jterm:3")


def parse_bound_spec(spec: str):
    """A leaf spec with its blanks stripped, or for ``max(a,b,...)`` the
    list of its leaf specs; ValueError for a spec outside the grammar,
    nested ``max`` included (max is associative, so a flat list says all)."""
    spec = spec.strip()
    if spec.startswith("max(") and spec.endswith(")"):
        return [_leaf(part) for part in spec[4:-1].split(",")]
    return _leaf(spec)


def _leaf(spec: str) -> str:
    spec = spec.strip()
    if spec not in LEAF_SPECS:
        raise ValueError(f"unknown bound spec {spec!r}")
    return spec


def make_bound(spec: str, instance: SteinerInstance, root_index: int,
               oracle: DistanceOracle, *, upper: int = INF,
               limits: Limits = NO_LIMITS) -> BoundOracle:
    """Build a bound evaluator from its selection string.

    ``limits`` bounds the jterm and TSP table builds, and the time limit is
    checked after each set's evaluator is built.  The jterm tables stop
    at the horizon ``upper``, an upper bound U >= opt (INF for none).
    """
    parsed = parse_bound_spec(spec)
    if isinstance(parsed, list):
        return MaxBound([_build(leaf, instance, root_index, oracle, upper, limits)
                         for leaf in parsed], limits)
    return _build(parsed, instance, root_index, oracle, upper, limits)


def _build(leaf, instance, root_index, oracle, upper, limits) -> BoundOracle:
    if leaf == "zero":
        return ZeroBound(limits)
    if leaf == "onetree":
        return OneTreeBound(oracle, limits)
    if leaf == "tsp":
        return TspBound(instance, oracle, root_index, limits=limits)
    return JTermBound(instance, oracle, root_index, int(leaf[6:]), upper=upper,
                      limits=limits)
