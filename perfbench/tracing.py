"""Spans and counters recorded from outside the program, for the traced run.

``install`` replaces the public names the layers call each other through
with timing wrappers, and ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited, and the untraced passes never call ``install``.

A span is a dict: name, start, dur, calls, parent (index of the enclosing
span or None), solve (id of the benchmark solve it belongs to) and counts.
Calls made tens of thousands of times per solve (``value2`` and the
distance-oracle queries) would drown the trace as one span each, so they are
accumulated instead: all such calls between two span boundaries become one
span with ``calls`` > 1 under the innermost span open at the time.
"""

from __future__ import annotations

import os
import time

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.solve_id = -1
        self._hot: dict[str, list] = {}   # name -> [seconds, calls] since last boundary
        self._bound = None                # bound oracle of the solve in progress
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _flush_hot(self) -> None:
        parent = self.stack[-1] if self.stack else None
        for name, acc in self._hot.items():
            if acc[1]:
                self.spans.append({"name": name, "start": None, "dur": acc[0],
                                   "calls": acc[1], "parent": parent,
                                   "solve": self.solve_id, "counts": {}})
                acc[0] = 0.0
                acc[1] = 0

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(span, args, result)``
        may add counts once the call has returned."""
        def wrapper(*args, **kwargs):
            self._flush_hot()
            rec = {"name": name, "start": 0.0, "dur": 0.0, "calls": 1,
                   "parent": self.stack[-1] if self.stack else None,
                   "solve": self.solve_id, "counts": {}}
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._flush_hot()
                rec["dur"] = perf() - rec["start"]
                self.stack.pop()
            if after is not None:
                after(rec, args, result)
            return result
        return wrapper

    def hot(self, name: str, fn):
        acc = self._hot.setdefault(name, [0.0, 0])

        def wrapper(*args):
            t0 = perf()
            result = fn(*args)
            acc[0] += perf() - t0
            acc[1] += 1
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        import dsteiner
        import dsteiner.cli as cli
        import dsteiner.solver as solver

        def after_contract(rec, args, result):
            rec["counts"]["vertices_removed"] = args[0].n - result[0].n

        def after_oracle(rec, args, oracle):
            oracle.set_cut_distance = self.hot("distances.query", oracle.set_cut_distance)
            oracle.vertex_to_set_distance = self.hot("distances.query",
                                                     oracle.vertex_to_set_distance)

        def after_bound(rec, args, bound):
            bound.value2 = self.hot("bounds.eval", bound.value2)
            self._bound = bound

        def after_solve(rec, args, record):
            st = record.stats
            rec["counts"].update(
                labels=st.labels_created, pops=st.pops, permanents=st.permanents,
                pushes=st.heap_pushes, pruned=st.pruned_at_creation + st.pruned_at_pop,
                opt=record.opt, upper_bound=st.upper_bound,
                evaluations=self._bound.evaluations if self._bound is not None else 0,
            )
            self._bound = None

        def after_parse(rec, args, result):
            rec["counts"]["bytes"] = os.path.getsize(args[0])

        for module, attr, name, after in (
            (solver, "contract_zero_edges", "graph.contract", after_contract),
            (solver, "DistanceOracle", "distances.oracle", after_oracle),
            (solver, "make_bound", "bounds.build", after_bound),
            (solver, "heuristic_upper_bound", "solver.heuristic", None),
            (cli, "parse_stp_file", "stp.parse", after_parse),
            (cli, "solve", "solver.solve", after_solve),
            (cli, "validate_tree", "graph.validate", None),
            (cli, "write_solution", "stp.write", None),
            (dsteiner, "build_hanan_grid", "hanan.build", None),
            (dsteiner, "solve", "solver.solve", after_solve),
            (dsteiner, "validate_tree", "graph.validate", None),
        ):
            self._patch(module, attr, self.span(name, getattr(module, attr), after))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["dur"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["dur"]
    return own


def layer_metrics(spans: list[dict], root: str) -> dict:
    """Per-layer metrics, as means per solve, from the spans of a traced pass.

    ``root`` names the span the benchmark opens around each whole solve.
    """
    own = self_times(spans)
    total = {}      # span name -> summed duration
    self_sum = {}   # span name -> summed self time
    calls = {}
    counts = {}
    for s, t in zip(spans, own):
        name = s["name"]
        total[name] = total.get(name, 0.0) + s["dur"]
        self_sum[name] = self_sum.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + s["calls"]
        for key, val in s["counts"].items():
            counts[name + "." + key] = counts.get(name + "." + key, 0) + val
    solves = calls.get(root, 0)
    wall = total.get(root, 0.0)
    n = max(solves, 1)

    def per_solve(value):
        return value / n

    def c(key):
        return counts.get(key, 0)

    pops = c("solver.solve.pops")
    bound_calls = calls.get("bounds.eval", 0)
    ub_gaps = [
        (s["counts"]["upper_bound"] - s["counts"]["opt"]) / s["counts"]["opt"]
        for s in spans
        if s["name"] == "solver.solve" and s["counts"].get("opt")
    ]
    metrics = {
        "solver.loop_s": (per_solve(self_sum.get("solver.solve", 0.0)), "s"),
        "solver.labels": (per_solve(c("solver.solve.labels")), "count"),
        "solver.pops": (per_solve(pops), "count"),
        "solver.pushes": (per_solve(c("solver.solve.pushes")), "count"),
        "solver.pruned": (per_solve(c("solver.solve.pruned")), "count"),
        "solver.pop_yield": (c("solver.solve.permanents") / pops if pops else 0.0, "ratio"),
        "solver.heuristic_s": (per_solve(total.get("solver.heuristic", 0.0)), "s"),
        "solver.ub_gap": (sum(ub_gaps) / len(ub_gaps) if ub_gaps else 0.0, "ratio"),
        "bounds.build_s": (per_solve(total.get("bounds.build", 0.0)), "s"),
        "bounds.eval_s": (per_solve(total.get("bounds.eval", 0.0)), "s"),
        "bounds.calls": (per_solve(bound_calls), "count"),
        "bounds.evaluations": (per_solve(c("solver.solve.evaluations")), "count"),
        "bounds.cache_hit_ratio": (
            1.0 - c("solver.solve.evaluations") / bound_calls if bound_calls else 0.0,
            "ratio"),
        "distances.oracle_s": (per_solve(total.get("distances.oracle", 0.0)), "s"),
        "distances.query_s": (per_solve(total.get("distances.query", 0.0)), "s"),
        "distances.queries": (per_solve(calls.get("distances.query", 0)), "count"),
        "graph.contract_s": (per_solve(total.get("graph.contract", 0.0)), "s"),
        "graph.vertices_removed": (per_solve(c("graph.contract.vertices_removed")), "count"),
        "graph.validate_s": (per_solve(total.get("graph.validate", 0.0)), "s"),
        "stp.parse_s": (per_solve(total.get("stp.parse", 0.0)), "s"),
        "stp.parse_bytes": (per_solve(c("stp.parse.bytes")), "B"),
        "cli.self_s": (per_solve(self_sum.get("cli.main", 0.0)), "s"),
        "hanan.build_s": (per_solve(total.get("hanan.build", 0.0)), "s"),
        "solver.loop_share": (self_sum.get("solver.solve", 0.0) / wall if wall else 0.0,
                              "ratio"),
        "bounds.build_share": (total.get("bounds.build", 0.0) / wall if wall else 0.0,
                               "ratio"),
    }
    layers = {}
    for name, t in self_sum.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + t
    shares = {layer: (t / wall if wall else 0.0) for layer, t in sorted(layers.items())}
    return {"solves": solves, "wall_s": wall, "metrics": metrics,
            "self_s_by_span": self_sum, "self_share_by_layer": shares}
