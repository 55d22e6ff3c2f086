"""Command-line driver: solve, hanan, bench, validate.

Exit codes: 0 success, then one code per error class, in every command
(``EXIT_CODES``).  Errors are emitted as one-line JSON objects so
harnesses can triage outcomes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .bounds import LEAF_SPECS, parse_bound_spec
from .errors import (
    DEFAULT_MEM_LIMIT,
    DsteinerError,
    Infeasible,
    Limits,
    MemoryLimit,
    StpError,
    TimeLimit,
)
from .graph import validate_tree
from .hanan import build_hanan_grid, generate_random_points, parse_points
from .solver import DEFAULT_ROOT_RULE, PRUNE_MODES, ROOT_RULES, parse_root_rule, solve
from .stp import (
    CSV_HEADER,
    instance_name,
    parse_stp_file,
    read_solution,
    write_solution,
    write_stp,
)

# (error class, JSON "error" kind, exit code); the first class that matches
# wins, and any other error exits 1 under its class name
EXIT_CODES = (
    (StpError, "parse", 2),
    (Infeasible, "infeasible", 3),
    (TimeLimit, "timeout", 4),
    (MemoryLimit, "memory", 5),
)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}))


def _run_options(args) -> dict:
    """solve()'s keywords from the run options; a bad limit, bound spec or
    root rule is refused here, before any file is read.  A root index that
    does not fit an instance's k is that instance's error."""
    Limits(args.time_limit, args.mem_limit)
    parse_bound_spec(args.bound)
    parse_root_rule(args.root)
    return dict(bound=args.bound, prune=args.prune, root_rule=args.root,
                time_limit=args.time_limit, mem_limit=args.mem_limit)


def cmd_solve(args) -> int:
    opts = _run_options(args)
    record = solve(parse_stp_file(args.stp), **opts)
    text = write_solution(record, args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_hanan(args) -> int:
    if args.points:
        with open(args.points) as fh:
            points = parse_points(fh.read())
    else:
        d, k, coord_max = args.random
        points = generate_random_points(d, k, coord_max, args.seed)
    instance, _ = build_hanan_grid(points)
    instance.name = instance_name(args.out)
    with open(args.out, "w") as fh:
        write_stp(instance, fh)
    print(f"{instance.n} {instance.m} {instance.k}")
    return 0


def _bench_row(task):
    path, opts = task
    # ValueError: a root rule such as index:<i> that does not fit this row
    try:
        return solve(parse_stp_file(path), **opts).summary_row() + [""]
    except (DsteinerError, OSError, ValueError) as exc:
        return ([instance_name(path)] + [""] * (len(CSV_HEADER) - 1)
                + [f"{type(exc).__name__}: {exc}"])


def cmd_bench(args) -> int:
    opts = _run_options(args)
    with open(args.manifest) as fh:
        paths = [ln.strip() for ln in fh if ln.strip()]
    tasks = [(p, opts) for p in paths]
    # the pool starts all its workers at the first submit, so never ask for
    # more than there are tasks or CPUs
    workers = min(args.parallel, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_row, tasks))
    else:
        rows = [_bench_row(t) for t in tasks]
    out = sys.stdout if not args.output else open(args.output, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER + ["error"])
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return 0


def cmd_validate(args) -> int:
    instance = parse_stp_file(args.stp)
    with open(args.solution) as fh:
        record = read_solution(fh.read())
    # the instance name is not compared: solve takes it from the file name,
    # so a renamed copy of the instance is still the same instance
    differ = [f"{f}: record {getattr(record, f)} != instance {getattr(instance, f)}"
              for f in ("n", "m", "k") if getattr(record, f) != getattr(instance, f)]
    if differ:
        _emit_error("mismatch", "; ".join(differ))
        return 1
    cost = validate_tree(instance, record.edges)
    print(cost)
    if cost != record.opt:
        _emit_error("mismatch", f"tree cost {cost} != recorded opt {record.opt}")
        return 1
    return 0


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", default="onetree",
                   help=" | ".join(LEAF_SPECS + ("max(b1,b2,...)",)))
    p.add_argument("--prune", default="full", choices=PRUNE_MODES)
    p.add_argument("--root", default=DEFAULT_ROOT_RULE,
                   help=" | ".join(ROOT_RULES + ("index:<i>",)))
    p.add_argument("--time-limit", type=float, default=7200.0, metavar="SECONDS")
    p.add_argument("--mem-limit", type=int, default=DEFAULT_MEM_LIMIT, metavar="BYTES")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsteiner", description="Exact Steiner tree solver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one STP instance")
    p_solve.add_argument("stp")
    p_solve.add_argument("-o", "--output", default=None)
    p_solve.add_argument("--format", default="json", choices=["json", "csv"])
    _add_run_options(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_hanan = sub.add_parser(
        "hanan", help="build a Hanan-grid STP instance from points"
    )
    p_hanan.add_argument("out", help="output .stp path")
    src = p_hanan.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", default=None, help="point file: 'd k' header")
    src.add_argument("--random", nargs=3, type=int, metavar=("D", "K", "MAX"),
                     help="generate K random D-dim points in {0..MAX}")
    p_hanan.add_argument("--seed", type=int, default=0)
    p_hanan.set_defaults(func=cmd_hanan)

    p_bench = sub.add_parser("bench", help="solve a manifest of instances to CSV")
    p_bench.add_argument("manifest", help="text file with one .stp path per line")
    p_bench.add_argument("-o", "--output", default=None)
    p_bench.add_argument("--parallel", type=int, default=1)
    _add_run_options(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_val = sub.add_parser("validate", help="check a solution record")
    p_val.add_argument("stp")
    p_val.add_argument("solution", help="solution JSON file")
    p_val.set_defaults(func=cmd_validate)

    return parser


# built once: a parser's objects form reference cycles, left for the collector
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    # OSError: an input file that cannot be read or an output that cannot
    # be written
    except (DsteinerError, ValueError, OSError) as exc:
        kind, code = next(((kind, code) for cls, kind, code in EXIT_CODES
                           if isinstance(exc, cls)), (type(exc).__name__, 1))
        _emit_error(kind, str(exc))
        return code


if __name__ == "__main__":
    sys.exit(main())
