"""Regenerate reference.json: optimum costs of the default seed's instances.

Usage, from the root of a checkout:  python3 perfbench/make_reference.py

Each optimum is the reference configuration's cost (see worker.py), accepted
only if independent checks agree with it:

* hanan3d and hanan2d_bounds: ``solve_baseline``, the subset-DP solver that
  shares no search code with the labeling solver;
* hanan2d_bounds: also all six bound specs the workload times;
* lattice_cli: the timed configuration and ``jterm:2`` with another root
  (the baseline is unaffordable on up to 5184 vertices and 10 terminals).

Takes about three minutes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import dsteiner  # noqa: E402
from dsteiner.hanan import parse_points  # noqa: E402

import inputs  # noqa: E402
from worker import REFERENCE_CONFIG  # noqa: E402

CHECKS = {
    "hanan3d": "solve_baseline",
    "hanan2d_bounds": "solve_baseline and all six bound specs",
    "lattice_cli": "onetree/full/last and jterm:2/full/index:1",
}


def optimum(workload, index: int) -> int:
    seed = inputs.DEFAULT_SEED
    if workload.kind == "hanan":
        inst, _ = dsteiner.build_hanan_grid(parse_points(inputs.points_text(workload, seed, index)))
    else:
        inst = dsteiner.parse_stp(inputs.lattice_stp_text(workload, seed, index))
    opt = dsteiner.solve(inst, **REFERENCE_CONFIG).opt
    others = {}
    if workload.kind == "hanan":
        others["baseline"] = dsteiner.solve_baseline(inst)[0]
    if workload.name == "hanan2d_bounds":
        for bound in inputs.SIX_BOUNDS:
            others[bound] = dsteiner.solve(inst, bound=bound, prune="full").opt
    if workload.kind == "lattice":
        others["onetree"] = dsteiner.solve(inst).opt
        others["jterm:2"] = dsteiner.solve(inst, bound="jterm:2", root_rule="index:1").opt
    wrong = {name: cost for name, cost in others.items() if cost != opt}
    if wrong:
        raise SystemExit(f"{workload.name} instance {index}: reference {opt} but {wrong}")
    return opt


def main() -> int:
    optima = {}
    for name, workload in inputs.WORKLOADS.items():
        optima[name] = [optimum(workload, i) for i in range(workload.pool)]
        print(f"{name}: {workload.pool} optima agree ({CHECKS[name]})", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"seed": inputs.DEFAULT_SEED, "checked_by": CHECKS, "optima": optima},
                  fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
