#!/usr/bin/env python3
"""Seeded VLSI-shaped instances: a unit grid with rectangular holes.

"holed W/H/K sS" is a W x W grid graph with unit edge costs from which H
axis-parallel rectangles are removed, each with sides 3..W/6 and placed
uniformly, all drawn from ``random.Random(S)``.  The K terminals stand in
for pins on the edge of an obstacle: they are drawn, with the same
generator, from the free vertices next to a removed one inside the largest
connected component, so every instance is feasible.  The free vertices are
numbered row-major and carry their grid coordinates.

    python3 scripts/holed.py W H K S OUT.stp

writes the instance as an STP file named ``holed-W-H-K-sS``.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from dsteiner.graph import Graph, SteinerInstance  # noqa: E402
from dsteiner.stp import write_stp  # noqa: E402


def holed_instance(width: int, holes: int, k: int, seed: int) -> SteinerInstance:
    """The instance "holed width/holes/k s<seed>"; ValueError if the largest
    component has fewer than k vertices next to a hole."""
    if width < 18:
        raise ValueError(f"width {width} below 18: holes need sides 3..width/6")
    rng = random.Random(seed)
    free = [[True] * width for _ in range(width)]
    for _ in range(holes):
        w, h = rng.randint(3, width // 6), rng.randint(3, width // 6)
        x0, y0 = rng.randrange(width - w + 1), rng.randrange(width - h + 1)
        for y in range(y0, y0 + h):
            free[y][x0:x0 + w] = [False] * w

    ids: dict[tuple[int, int], int] = {}
    for y in range(width):
        for x in range(width):
            if free[y][x]:
                ids[x, y] = len(ids)

    def neighbours(x, y):
        return [(a, b) for a, b in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
                if 0 <= a < width and 0 <= b < width]

    # each free vertex joins its free right and lower neighbours
    edges = [(v, ids[q], 1) for (x, y), v in ids.items()
             for q in ((x + 1, y), (x, y + 1)) if q in ids]
    largest: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for start in ids:
        if start in seen:
            continue
        seen.add(start)
        component, stack = [], [start]
        while stack:
            p = stack.pop()
            component.append(p)
            for q in neighbours(*p):
                if q in ids and q not in seen:
                    seen.add(q)
                    stack.append(q)
        if len(component) > len(largest):
            largest = component
    pins = sorted(ids[p] for p in largest
                  if any(q not in ids for q in neighbours(*p)))
    if len(pins) < k:
        raise ValueError(f"{len(pins)} vertices next to a hole in the largest "
                         f"component, fewer than k = {k}")
    return SteinerInstance(
        Graph(len(ids), edges), rng.sample(pins, k),
        name=f"holed-{width}-{holes}-{k}-s{seed}", coords=list(ids))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("width", type=int)
    ap.add_argument("holes", type=int)
    ap.add_argument("k", type=int)
    ap.add_argument("seed", type=int)
    ap.add_argument("out")
    args = ap.parse_args(argv)
    instance = holed_instance(args.width, args.holes, args.k, args.seed)
    with open(args.out, "w") as out:
        write_stp(instance, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
