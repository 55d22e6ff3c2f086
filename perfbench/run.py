"""Offline benchmark of dsteiner: time to a proven optimum on generated inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hanan3d --seed 1 --seconds 30 --trace 0

One client in a closed loop: a single child process solves the workload's
instances one after another, each through the package's public entry, and
the next solve starts when the previous one has returned.  Every solve is
checked against a reference optimum computed by a second child with another
solver configuration, and, for the default seed, against the optima
committed in ``reference.json``.  Solve and set-up times are reported in
nominal seconds, scaled by the speed kernel of ``speed.py`` timed next to
them, so that the host's speed drift cancels out.  ``--trace 1`` runs the traced pass of
``worker.py`` instead and reports per-layer metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs
from speed import Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 9
SOLVE_DEADLINE_S = 10.0     # one solve; far above the slowest solve seen
BUDGET_S = 170.0            # the whole run, children included
TAIL_PERCENTILE = 90        # fixed, so it does not shift when solves get faster


def run_child(job: dict, work_dir: str, timeout: float) -> tuple:
    """Run worker.py on ``job`` with a hard deadline; (result or None, note)."""
    job_path = os.path.join(work_dir, job["mode"] + "-job.json")
    result_path = os.path.join(work_dir, job["mode"] + "-result.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
        cwd=ROOT, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None, f"{job['mode']} child killed at its {timeout:.0f} s deadline"
    if code != 0 or not os.path.exists(result_path):
        return None, f"{job['mode']} child exited {code}"
    with open(result_path) as fh:
        return json.load(fh), ""


def percentile(sorted_values: list, p: float) -> float:
    """Linear interpolation between closest ranks."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def committed_optima(workload: str, seed: int, tiny: bool):
    if tiny or seed != inputs.DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["optima"].get(workload)


def check(solves: list, reference: dict, committed) -> list:
    """One verdict per solve: '' if correct, else the reason it failed."""
    ref = reference["ref"]
    tree_costs = reference["tree_costs"]
    verdicts = []
    for idx, _b, _secs, opt, tree_id, error in solves:
        key = str(idx)
        want = ref.get(key)
        if error:
            verdicts.append(error)
        elif not isinstance(want, int):
            verdicts.append(f"no reference optimum: {want}")
        elif committed is not None and committed[idx] != want:
            verdicts.append(f"reference {want} != committed optimum {committed[idx]}")
        elif opt != want:
            verdicts.append(f"opt {opt} != reference {want}")
        elif tree_costs[key][tree_id] != opt:
            verdicts.append(f"tree rejected or costs {tree_costs[key][tree_id]}, not {opt}")
        else:
            verdicts.append("")
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dsteiner", "__init__.py")):
        print(f"error: no dsteiner sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    workload = (inputs.TINY if args.tiny else inputs.WORKLOADS)[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, workload, work_dir, started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workload, work_dir: str, started: float) -> int:
    # The machine's speed drifts over seconds, so set-up reps taken back to
    # back would all sample one moment of it: a third of the reps run before
    # the timed pass, a third after it and a third after the reference pass.
    # Each rep is also scaled to nominal seconds by the speed kernel.
    calibrator = Calibrator()
    setup_times = []
    raw_setup_times = []

    def set_up(reps: int) -> list:
        for _ in range(reps):
            before = calibrator.sample()
            t0 = time.perf_counter()
            paths = inputs.write_inputs(workload, args.seed,
                                        os.path.join(work_dir, f"setup{len(setup_times)}"))
            seconds = time.perf_counter() - t0
            setup_times.append(Calibrator.scale(seconds, before, calibrator.sample()))
            raw_setup_times.append(seconds)
        return paths

    pool = set_up(SETUP_REPS // 3)
    mode = "traced" if args.trace else "timed"
    trace_path = os.path.join(ROOT, ".perfbench_work",
                              f"trace-{workload.name}-{args.seed}.json")
    job = {"mode": mode, "root": ROOT, "workload": vars(workload), "seed": args.seed,
           "inputs": pool, "seconds": args.seconds, "solve_deadline": SOLVE_DEADLINE_S,
           "work_dir": work_dir, "trace_path": trace_path}
    result, note = run_child(job, work_dir, args.seconds + SOLVE_DEADLINE_S + 20.0)
    set_up(SETUP_REPS // 3)
    solves = result["solves"] if result else []
    reference = {"ref": {}, "tree_costs": {}}
    if result:
        ref_job = dict(job, mode="reference", trees=result["trees"])
        remaining = BUDGET_S - (time.perf_counter() - started)
        reference, note = run_child(ref_job, work_dir, remaining)
        reference = reference or {"ref": {}, "tree_costs": {}}
    set_up(SETUP_REPS - len(setup_times))
    setup_s = statistics.median(setup_times)
    verdicts = check(solves, reference,
                     committed_optima(workload.name, args.seed, args.tiny))
    attempted = max(len(solves), 1)
    failed = sum(1 for v in verdicts if v) if solves else 1
    for solve, verdict in zip(solves, verdicts):
        if verdict:
            print(f"FAILED instance {solve[0]} bound {workload.bounds[solve[1]]}: {verdict}")
    if note:
        print(f"FAILED {note}")

    ok_times = sorted(s[2] for s, v in zip(solves, verdicts) if not v)
    print(f"{workload.name} seed {args.seed} ({mode}): {attempted} solves attempted, "
          f"{failed} failed, failed_frac {failed / attempted:.4f}")
    if args.trace:
        metrics = result["metrics"] if result else {}
        for layer, share in (result or {}).get("self_share_by_layer", {}).items():
            print(f"  self-time share {layer:10s} {share:7.1%}")
        print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        tail = percentile(ok_times, TAIL_PERCENTILE)
        beyond = sum(1 for t in ok_times if t > tail)
        busy_s = sum(s[2] for s in solves)
        metrics = {
            "solve_s.p50": (percentile(ok_times, 50), "s"),
            "solve_s.tail": (tail, "s"),
            "solves_per_s": (len(ok_times) / busy_s if busy_s else 0.0, "1/s"),
            "peak_rss_mb": ((result["maxrss_kb"] if result else 0) / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"  solve_s.tail is p{TAIL_PERCENTILE}: {beyond} of {len(ok_times)} "
              f"solves lie beyond it" + ("" if beyond >= 10 else " (fewer than ten)"))
        raw = sorted(result["raw_s"] if result else [])
        print(f"  times are nominal seconds (speed.py); raw wall time: solve p50 "
              f"{percentile(raw, 50):.6g} s, p{TAIL_PERCENTILE} "
              f"{percentile(raw, TAIL_PERCENTILE):.6g} s, set-up "
              f"{statistics.median(raw_setup_times):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:12.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
