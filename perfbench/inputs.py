"""Workload table and seeded input generators for the benchmark.

The generators live here, not in the package, so a change to the solver
cannot change the inputs it is measured on.  Every instance is drawn from
its own ``random.Random`` keyed by (workload, seed, index): the same seed
gives byte-identical files, and a smaller pool is a prefix of a larger one.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

COORD_MAX = 10**6
DEFAULT_SEED = 1

SIX_BOUNDS = ("zero", "onetree", "jterm:2", "jterm:3", "tsp", "max(jterm:2,onetree)")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "hanan": point files; "lattice": STP files via the CLI
    pool: int              # distinct instances generated per seed
    ks: tuple              # terminal counts, cycled over the pool
    bounds: tuple          # bound specs each instance is solved under
    dim: int = 0           # hanan: point dimension
    sides: tuple = ()      # lattice: vertices per side, cycled over the pool
    window: int = 0        # lattice: terminals fall in a window x window square


# Sizes are chosen so one 30 s pass makes well over 100 solves, so that ten
# lie beyond the p90 tail, and so the layer each workload is meant to stress
# takes most of its time (see README.md).  Lattice sizes vary so that the
# solve times spread out: with one size they bunch up, and their median
# jumps whenever the machine's speed changes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hanan3d", "hanan", pool=200, ks=(8,), bounds=("onetree",), dim=3),
        Workload("hanan2d_bounds", "hanan", pool=48, ks=(12,), bounds=SIX_BOUNDS, dim=2),
        Workload("lattice_cli", "lattice", pool=24, ks=(8, 9, 10), bounds=("onetree",),
                 sides=(40, 48, 56, 64, 72), window=12),
    )
}

# Same pipelines at toy sizes, for the smoke test.
TINY = {
    "hanan3d": Workload("hanan3d", "hanan", pool=3, ks=(5,), bounds=("onetree",), dim=3),
    "hanan2d_bounds": Workload("hanan2d_bounds", "hanan", pool=2, ks=(6,),
                               bounds=SIX_BOUNDS, dim=2),
    "lattice_cli": Workload("lattice_cli", "lattice", pool=2, ks=(4, 5),
                            bounds=("onetree",), sides=(8, 10), window=4),
}


def _rng(workload: Workload, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload.name}/{seed}/{index}")


def points_text(workload: Workload, seed: int, index: int) -> str:
    """k uniform points in {0..COORD_MAX}^dim, in the 'd k' point-file format."""
    rng = _rng(workload, seed, index)
    k = workload.ks[index % len(workload.ks)]
    lines = [f"{workload.dim} {k}"]
    for _ in range(k):
        lines.append(" ".join(str(rng.randint(0, COORD_MAX)) for _ in range(workload.dim)))
    return "\n".join(lines) + "\n"


def lattice_stp_text(workload: Workload, seed: int, index: int) -> str:
    """side x side grid graph with costs 1..100, about 5% of them zero, and
    k terminals clustered in a small window."""
    rng = _rng(workload, seed, index)
    k = workload.ks[index % len(workload.ks)]
    side = workload.sides[index % len(workload.sides)]
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c + 1
            if c + 1 < side:
                edges.append((v, v + 1, 0 if rng.random() < 0.05 else rng.randint(1, 100)))
            if r + 1 < side:
                edges.append((v, v + side, 0 if rng.random() < 0.05 else rng.randint(1, 100)))
    win = workload.window
    r0 = rng.randrange(side - win + 1)
    c0 = rng.randrange(side - win + 1)
    cells = rng.sample(range(win * win), k)
    terminals = [(r0 + x // win) * side + c0 + x % win + 1 for x in cells]
    out = [
        "33D32945 STP File, STP Format Version 1.0",
        "SECTION Graph",
        f"Nodes {side * side}",
        f"Edges {len(edges)}",
    ]
    out.extend(f"E {u} {v} {c}" for u, v, c in edges)
    out += ["END", "SECTION Terminals", f"Terminals {k}"]
    out.extend(f"T {t}" for t in terminals)
    out += ["END", "EOF"]
    return "\n".join(out) + "\n"


def write_inputs(workload: Workload, seed: int, directory: str) -> list[str]:
    """Generate the workload's pool for ``seed`` into ``directory``; returns paths.

    A hanan pool is one file of point sets separated by blank lines (one
    file keeps set-up time about generation, not file creation); a lattice
    pool is one STP file per instance, as the CLI reads them.
    """
    os.makedirs(directory, exist_ok=True)
    if workload.kind == "hanan":
        path = os.path.join(directory, f"{workload.name}-{seed}.pts")
        with open(path, "w") as fh:
            fh.write("\n".join(points_text(workload, seed, i) for i in range(workload.pool)))
        return [path]
    paths = []
    for i in range(workload.pool):
        path = os.path.join(directory, f"{workload.name}-{seed}-{i:03d}.stp")
        with open(path, "w") as fh:
            fh.write(lattice_stp_text(workload, seed, i))
        paths.append(path)
    return paths
