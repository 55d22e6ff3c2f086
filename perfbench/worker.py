"""Child process of the benchmark: one pass over a workload's inputs.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names a mode:

* ``timed``: solve units (instance, bound) round-robin until ``seconds``
  have passed, timing each one and the speed kernel of ``speed.py`` between
  them; no wrapper is installed.
* ``traced``: for ``seconds``, each unit twice in a row, once plain and once
  with the wrappers of ``tracing.py`` installed; reports per-layer metrics and
  the tracing overhead, and writes the spans to ``trace_path``.
* ``reference``: solve each instance once with the reference configuration
  and validate every distinct tree the timed pass returned for it.

Each solve runs under its own SIGALRM deadline; the parent also kills the
whole process at a hard deadline.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

# A different bound and root than any timed solve, so a defect in the timed
# configuration is unlikely to reproduce the same wrong cost here.
REFERENCE_CONFIG = {"bound": "zero", "prune": "full", "root_rule": "index:0"}


class SolveDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise SolveDeadline("solve exceeded its deadline")


def with_deadline(seconds: float, fn, *args, **kwargs):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _norm_edges(edges) -> list:
    return sorted([min(u, v), max(u, v)] for u, v in edges)


class Runner:
    """Runs one unit of a workload through the package's public entry."""

    def __init__(self, job: dict):
        import dsteiner
        import dsteiner.cli
        from dsteiner.hanan import parse_points

        self.ds = dsteiner
        self.cli = dsteiner.cli
        self.kind = job["workload"]["kind"]
        self.bounds = job["workload"]["bounds"]
        self.paths = job["inputs"]
        self.deadline = job["solve_deadline"]
        self.out_path = os.path.join(job["work_dir"], "solution.json")
        self.count = len(self.paths)
        if self.kind == "hanan":
            with open(self.paths[0]) as fh:
                self.points = [parse_points(block) for block in fh.read().split("\n\n")]
            self.count = len(self.points)
        self.root_name = "cli.main" if self.kind == "lattice" else "bench.solve"

    def entry(self, idx: int, b: int):
        """The timed part of one solve; returns what ``collect`` needs."""
        if self.kind == "lattice":
            return self.cli.main(["solve", self.paths[idx], "-o", self.out_path])
        inst, _ = self.ds.build_hanan_grid(self.points[idx])
        record = self.ds.solve(inst, bound=self.bounds[b], prune="full")
        cost = self.ds.validate_tree(inst, record.edges)
        if cost != record.opt:
            raise ValueError(f"tree cost {cost} != reported opt {record.opt}")
        return record

    def collect(self, result) -> tuple[int, list]:
        """(opt, tree) of a finished solve, read outside the timed part."""
        if self.kind == "lattice":
            if result != 0:
                raise RuntimeError(f"dsteiner solve exited {result}")
            with open(self.out_path) as fh:
                payload = json.load(fh)
            return payload["opt"], payload["edges"]
        return result.opt, result.edges

    def run(self, idx: int, b: int, entry=None) -> tuple:
        """One solve: (seconds, opt, edges, error)."""
        t0 = time.perf_counter()
        try:
            result = with_deadline(self.deadline, entry or self.entry, idx, b)
            elapsed = time.perf_counter() - t0
            opt, edges = self.collect(result)
            return elapsed, opt, _norm_edges(edges), None
        except Exception as exc:  # any failure of the program fails the solve
            return time.perf_counter() - t0, None, None, f"{type(exc).__name__}: {exc}"


def _units(n_instances: int, n_bounds: int):
    while True:
        for idx in range(n_instances):
            for b in range(n_bounds):
                yield idx, b


class Log:
    """Solves of a pass, with each distinct tree stored once per instance."""

    def __init__(self):
        self.solves: list = []
        self.trees: dict[str, list] = {}

    def add(self, idx: int, b: int, seconds: float, opt, edges, error) -> None:
        tree_id = None
        if edges is not None:
            known = self.trees.setdefault(str(idx), [])
            if edges not in known:
                known.append(edges)
            tree_id = known.index(edges)
        self.solves.append([idx, b, seconds, opt, tree_id, error])


def mode_timed(job: dict) -> dict:
    from speed import Calibrator

    runner = Runner(job)
    calibrator = Calibrator()
    runner.run(0, 0)   # warm-up, not recorded
    log = Log()
    raw_s = []
    units = _units(runner.count, len(runner.bounds))
    before = calibrator.sample()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < job["seconds"]:
        idx, b = next(units)
        seconds, opt, edges, error = runner.run(idx, b)
        after = calibrator.sample()
        # solve times are kept in nominal seconds; see speed.py
        log.add(idx, b, Calibrator.scale(seconds, before, after), opt, edges, error)
        raw_s.append(seconds)
        before = after
    return {"solves": log.solves, "trees": log.trees, "raw_s": raw_s,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def mode_traced(job: dict) -> dict:
    from tracing import Tracer, layer_metrics

    runner = Runner(job)
    log = Log()
    tracer = Tracer()
    root = tracer.span(runner.root_name, runner.entry)
    units = _units(runner.count, len(runner.bounds))
    untraced_s = 0.0
    solve_id = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < job["seconds"]:
        idx, b = next(units)
        # untraced and traced run back to back, in alternating order, so the
        # machine's drift cancels out of the overhead estimate
        for traced in (False, True) if solve_id % 2 == 0 else (True, False):
            if traced:
                tracer.solve_id = solve_id
                tracer.install()
                try:
                    outcome = runner.run(idx, b, entry=root)
                finally:
                    tracer.uninstall()
            else:
                outcome = runner.run(idx, b)
                untraced_s += outcome[0]
            log.add(idx, b, *outcome)
        solve_id += 1
    summary = layer_metrics(tracer.spans, runner.root_name)
    traced_s = summary["wall_s"]
    overhead = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    summary["metrics"]["trace.overhead_frac"] = (overhead, "ratio")
    with open(job["trace_path"], "w") as fh:
        json.dump({"workload": job["workload"]["name"], "seed": job["seed"],
                   "solves": summary["solves"], "untraced_s": untraced_s,
                   "traced_s": traced_s, "overhead_frac": overhead,
                   "metrics": summary["metrics"],
                   "self_share_by_layer": summary["self_share_by_layer"],
                   "self_s_by_span": summary["self_s_by_span"],
                   "spans": tracer.spans}, fh)
    return {"solves": log.solves, "trees": log.trees, "metrics": summary["metrics"],
            "self_share_by_layer": summary["self_share_by_layer"]}


def mode_reference(job: dict) -> dict:
    import dsteiner

    runner = Runner(job)
    ref: dict[str, object] = {}
    tree_costs: dict[str, list] = {}
    for key, trees in job["trees"].items():
        idx = int(key)
        try:
            if runner.kind == "hanan":
                inst, _ = dsteiner.build_hanan_grid(runner.points[idx])
            else:
                inst = dsteiner.parse_stp_file(runner.paths[idx])
            record = with_deadline(runner.deadline, dsteiner.solve, inst, **REFERENCE_CONFIG)
            cost = dsteiner.validate_tree(inst, record.edges)
            ref[key] = record.opt if cost == record.opt else f"tree cost {cost} != opt {record.opt}"
        except Exception as exc:  # a reference that cannot be made fails its solves
            ref[key] = f"{type(exc).__name__}: {exc}"
            tree_costs[key] = [ref[key]] * len(trees)
            continue
        costs = []
        for edges in trees:
            try:
                costs.append(dsteiner.validate_tree(inst, [tuple(e) for e in edges]))
            except Exception as exc:  # rejected tree, whatever the reason
                costs.append(f"{type(exc).__name__}: {exc}")
        tree_costs[key] = costs
    return {"ref": ref, "tree_costs": tree_costs}


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import dsteiner

    if not os.path.abspath(dsteiner.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"dsteiner imported from {dsteiner.__file__}, not {src}")
    signal.signal(signal.SIGALRM, _on_alarm)
    mode = {"timed": mode_timed, "traced": mode_traced, "reference": mode_reference}
    result = mode[job["mode"]](job)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
