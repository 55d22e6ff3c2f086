#!/usr/bin/env python3
"""Counter equivalence between two solver trees, on the benchmark's units.

A unit is one instance of a perfbench workload, generated for seed 1 by
``perfbench/inputs.py``, solved under one of that workload's bounds with
prune ``full``: 200 on ``hanan3d``, 48 x 6 on ``hanan2d_bounds`` and 24 on
``lattice_cli``.  For each unit ``dump`` records opt, the sorted tree edges
and every integer ``SolveStats`` field; ``diff`` compares two dumps.

    python3 scripts/counters.py dump OUT.json [--src DIR] [--root R] [--family F]
    python3 scripts/counters.py diff A.json B.json

``--family holed`` solves, in place of the benchmark's units, 24 units with
many terminals, where the per-set code does most of the work: the holed
instances 60/12 of ``scripts/holed.py`` with k = 24, 40, 63 and 90 and
seeds 1 and 3, each under ``onetree``, ``jterm:2`` and
``max(jterm:2,onetree)``.  Seed 2 is left out for its time alone: at k = 63
it took 26-35 s per bound, and at k = 90 it ran past 60 s under all three.

``--src`` solves with the package under DIR/src, for example a parent
commit unpacked with ``git archive``; the inputs always come from this
checkout's ``perfbench/inputs.py`` and ``scripts/holed.py``, which are
imported, not changed.
``--root`` is the root rule every unit is solved under; without it each
unit is solved under the tree's own default rule, as the benchmark does.
``diff`` prints one line per differing unit and field, then one summary
line per differing field: how many units differ in it and, for a counter,
each side's sum over each workload's units and the change between them.
It exits 1 if any unit differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 1
FAMILIES = ("bench", "holed")
# instance name -> the width, holes, k and seed of ``holed.holed_instance``
HOLED = {f"60-12-{k}-s{seed}": (60, 12, k, seed)
         for k in (24, 40, 63, 90) for seed in (1, 3)}
HOLED_BOUNDS = ("onetree", "jterm:2", "max(jterm:2,onetree)")


def _inputs():
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.remove(str(REPO_ROOT / "perfbench"))
    return inputs


def _holed():
    # holed.py puts this checkout's src/ first on sys.path; the dsteiner
    # already imported, from --src, stays the one every solve uses
    saved = list(sys.path)
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import holed
    finally:
        sys.path[:] = saved
    return holed


def units() -> list[tuple[str, int, str]]:
    """Every (workload, instance index, bound) unit, in benchmark order."""
    return [(w.name, i, bound) for w in _inputs().WORKLOADS.values()
            for i in range(w.pool) for bound in w.bounds]


def holed_units() -> list[tuple[str, str, str]]:
    """Every ("holed", instance name in ``HOLED``, bound) unit."""
    return [("holed", name, bound) for name in HOLED for bound in HOLED_BOUNDS]


def unit_key(unit: tuple[str, int | str, str]) -> str:
    return "{}/{}/{}".format(*unit)


def solve_units(selected, root_rule: Optional[str] = None) -> dict[str, dict]:
    """Solve each unit with the ``dsteiner`` on ``sys.path``, under
    ``root_rule`` or, when None, that package's default rule; returns the
    record of each unit by its key."""
    import dsteiner
    from dsteiner.hanan import parse_points

    inputs, holed = _inputs(), _holed()
    opts = {} if root_rule is None else {"root_rule": root_rule}
    records = {}
    for name, i, bound in selected:
        workload = inputs.WORKLOADS.get(name)
        if name == "holed":
            inst = holed.holed_instance(*HOLED[i])
        elif workload.kind == "hanan":
            inst, _ = dsteiner.build_hanan_grid(
                parse_points(inputs.points_text(workload, SEED, i)))
        else:
            inst = dsteiner.parse_stp(inputs.lattice_stp_text(workload, SEED, i))
        rec = dsteiner.solve(inst, bound=bound, prune="full", **opts)
        out = {"opt": rec.opt, "edges": sorted(sorted(e) for e in rec.edges)}
        out.update((field, value) for field, value in vars(rec.stats).items()
                   if type(value) is int)
        records[unit_key((name, i, bound))] = out
    return records


def dump(path: str, selected, root_rule: Optional[str] = None) -> int:
    t0 = time.perf_counter()
    records = solve_units(selected, root_rule)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=0, sort_keys=True)
    print(f"{len(records)} units solved in {time.perf_counter() - t0:.1f} s -> {path}")
    return 0


def diff(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    differing = 0
    units_per_field: dict[str, int] = {}
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            print(f"{key}: only in {path_a if key in a else path_b}")
            differing += 1
            continue
        fields = [f for f in sorted(a[key].keys() | b[key].keys())
                  if a[key].get(f) != b[key].get(f)]
        for f in fields:
            if f == "edges":
                print(f"{key} edges: the trees differ")
            else:
                print(f"{key} {f}: {a[key].get(f)} != {b[key].get(f)}")
            units_per_field[f] = units_per_field.get(f, 0) + 1
        differing += bool(fields)
    if not differing:
        print(f"{len(a)} units identical")
        return 0
    total = len(a.keys() | b.keys())
    print(f"{differing} of {total} units differ")
    for f, count in sorted(units_per_field.items()):
        line = f"summary {f}: {count} of {total} units differ"
        if f != "edges":
            line += "; " + ", ".join(
                f"{name} {sa} != {sb}" + (f" ({(sb - sa) / sa:+.1%})" if sa else "")
                for name, (sa, sb) in _sums(a, b, f).items())
        print(line)
    return 1


def _sums(a: dict, b: dict, field: str) -> dict[str, list[int]]:
    """Each side's sum of ``field`` over each workload's units, by workload
    name."""
    sums: dict[str, list[int]] = {}
    for side, records in enumerate((a, b)):
        for key, rec in records.items():
            sums.setdefault(key.split("/")[0], [0, 0])[side] += rec.get(field, 0)
    return dict(sorted(sums.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="solve every unit and write the records")
    p_dump.add_argument("out")
    p_dump.add_argument("--src", default=str(REPO_ROOT),
                        help="tree whose src/ holds the package to solve with")
    p_dump.add_argument("--root", help="root rule every unit is solved under "
                                       "(default: the tree's own default)")
    p_dump.add_argument("--family", choices=FAMILIES, default="bench",
                        help="units to solve: the benchmark's (default) or "
                             "the holed instances with many terminals")
    p_diff = sub.add_parser("diff", help="name every unit and field that differ")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = ap.parse_args(argv)
    if args.command == "diff":
        return diff(args.a, args.b)
    src = Path(args.src).resolve() / "src"
    sys.path.insert(0, str(src))
    import dsteiner
    if not Path(dsteiner.__file__).resolve().is_relative_to(src):
        ap.error(f"dsteiner was imported from {dsteiner.__file__}, not {src}")
    return dump(args.out, holed_units() if args.family == "holed" else units(),
                args.root)


if __name__ == "__main__":
    sys.exit(main())
