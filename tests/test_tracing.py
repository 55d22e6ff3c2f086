"""perfbench's tracer still finds every name it hooks into the package.

The traced benchmark pass reads each layer's time from spans the tracer
records by wrapping public names (``perfbench/tracing.py``).  A name that
stays defined but is no longer called reads 0 there; these tests fail
instead.  One such name passes: the oracle's ``vertex_to_set_distance``,
which the label loop no longer calls, records under ``distances.query``,
the span name it shares with ``set_cut_distance``, which is still called
once per popped set.
"""

import sys
from pathlib import Path

import dsteiner
import dsteiner.cli as cli
import dsteiner.solver as solver
from dsteiner import write_stp

from gen import lattice_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_tracer_records_every_layer_and_uninstalls(tmp_path):
    tracing = _tracing()
    modules = (dsteiner, cli, solver)
    before = [dict(vars(m)) for m in modules]
    stp = tmp_path / "lattice.stp"
    with open(stp, "w") as fh:
        write_stp(lattice_instance(6, 4, seed=1), fh)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert [dict(vars(m)) for m in modules] != before
        points = dsteiner.generate_random_points(3, 5, 9, seed=1)
        instance, _ = dsteiner.build_hanan_grid(points)
        assert dsteiner.solve(instance, prune="full").opt > 0
        assert cli.main(["solve", str(stp), "-o", str(tmp_path / "out.json")]) == 0
    finally:
        tracer.uninstall()

    calls = {}
    for span in tracer.spans:
        calls[span["name"]] = calls.get(span["name"], 0) + span["calls"]
    for name in ("graph.contract", "distances.oracle", "solver.heuristic",
                 "bounds.build", "bounds.eval", "distances.query", "stp.parse"):
        assert calls.get(name, 0) > 0, name
    assert [dict(vars(m)) for m in modules] == before
