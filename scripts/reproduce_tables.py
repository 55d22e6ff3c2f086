#!/usr/bin/env python3
"""Reproduce the desk-scale benchmark rows as a CSV table.

Runs the solver (onetree bound, full pruning) over every fetched corpus
instance listed in paper_manifests/desk_scale.txt and prints one CSV row
per instance, mirroring the published optimum columns.

    python3 scripts/reproduce_tables.py [--parallel N] [--out results.csv]

Requires the corpus (scripts/fetch_corpus.py).  Instances that are not
fetched are reported in the error column and do not abort the sweep.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from dsteiner.cli import main as cli_main  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--parallel", type=int, default=1)
    ap.add_argument("--out", default=None)
    ap.add_argument("--data-dir", default=str(REPO_ROOT / "data"))
    args = ap.parse_args()

    names = [
        ln.strip()
        for ln in (REPO_ROOT / "scripts/paper_manifests/desk_scale.txt")
        .read_text()
        .splitlines()
        if ln.strip() and not ln.startswith("#")
    ]
    data = Path(args.data_dir)
    # bench writes an error row for each path that cannot be read
    paths = [str(data / "steinlib" / f"{name}.stp") for name in names]
    if not any(Path(p).exists() for p in paths):
        print("no corpus files found; run scripts/fetch_corpus.py first",
              file=sys.stderr)
        return 1

    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
        fh.write("\n".join(paths) + "\n")
        manifest = fh.name
    argv = ["bench", manifest, "--parallel", str(args.parallel)]
    if args.out:
        argv += ["-o", args.out]
    try:
        return cli_main(argv)
    finally:
        os.unlink(manifest)


if __name__ == "__main__":
    sys.exit(main())
