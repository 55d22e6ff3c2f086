import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from dsteiner import solve
from dsteiner.solver import DEFAULT_ROOT_RULE

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "counters.py"


def _counters():
    spec = importlib.util.spec_from_file_location("counters", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _diff(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "diff", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_counter_diff_names_each_differing_unit_and_field(tmp_path):
    counters = _counters()
    units = counters.units()
    assert len(units) == 512
    # the first unit of each workload
    picked = [next(u for u in units if u[0] == name)
              for name in ("hanan3d", "hanan2d_bounds", "lattice_cli")]
    dumped = tmp_path / "a.json"
    assert counters.dump(str(dumped), picked) == 0
    records = json.loads(dumped.read_text())
    assert len(records) == 3
    for rec in records.values():
        assert rec["opt"] > 0 and rec["edges"] == sorted(rec["edges"])
        assert rec["pops"] > 0 and rec["upper_bound"] >= rec["opt"]
    same = _diff(dumped, dumped)
    assert same.returncode == 0, same.stdout

    hanan, _, lattice = map(counters.unit_key, picked)
    records[hanan]["pops"] += 1
    records[lattice]["edges"] = records[lattice]["edges"][1:]
    edited = tmp_path / "b.json"
    edited.write_text(json.dumps(records))
    changed = _diff(dumped, edited)
    assert changed.returncode == 1
    # each workload's pops as edited
    pops = {u[0]: records[counters.unit_key(u)]["pops"] for u in picked}
    assert changed.stdout.splitlines() == [
        f"{hanan} pops: {pops['hanan3d'] - 1} != {pops['hanan3d']}",
        f"{lattice} edges: the trees differ",
        "2 of 3 units differ",
        # then one line per differing field, with each workload's sums
        "summary edges: 1 of 3 units differ",
        "summary pops: 1 of 3 units differ; "
        f"hanan2d_bounds {pops['hanan2d_bounds']} != {pops['hanan2d_bounds']} (+0.0%), "
        f"hanan3d {pops['hanan3d'] - 1} != {pops['hanan3d']} "
        f"({1 / (pops['hanan3d'] - 1):+.1%}), "
        f"lattice_cli {pops['lattice_cli']} != {pops['lattice_cli']} (+0.0%)"]


def test_dump_root_moves_the_counters_but_not_opt(tmp_path, monkeypatch):
    counters = _counters()
    unit = counters.units()[0]
    key = counters.unit_key(unit)
    monkeypatch.setattr(counters, "units", lambda: [unit])
    # main puts this checkout's src/ first on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    dumps = {}
    for rule in ("last", "medoid"):
        out = tmp_path / f"{rule}.json"
        assert counters.main(["dump", str(out), "--root", rule]) == 0
        dumps[rule] = json.loads(out.read_text())[key]
    assert dumps["medoid"]["opt"] == dumps["last"]["opt"]
    assert dumps["medoid"]["pops"] != dumps["last"]["pops"]
    # a plain dump solves under the tree's own default rule
    default = tmp_path / "default.json"
    assert counters.main(["dump", str(default)]) == 0
    assert json.loads(default.read_text())[key] == dumps[DEFAULT_ROOT_RULE]


def test_holed_family_dumps_large_k_units(tmp_path, monkeypatch):
    counters = _counters()
    units = counters.holed_units()
    assert len(units) == 24
    assert {counters.HOLED[name][2] for _, name, _ in units} == {24, 40, 63, 90}
    unit = ("holed", "60-12-24-s1", "onetree")
    assert unit in units
    monkeypatch.setattr(counters, "holed_units", lambda: [unit])
    # main puts this checkout's src/ first on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "holed.json"
    assert counters.main(["dump", str(out), "--family", "holed"]) == 0
    rec, = json.loads(out.read_text()).values()
    # the instance scripts/holed.py builds, with its 24 terminals
    inst = counters._holed().holed_instance(60, 12, 24, 1)
    assert rec["opt"] == solve(inst, bound="jterm:2").opt
    assert len(rec["edges"]) >= inst.k - 1 and rec["upper_bound"] >= rec["opt"]
    assert rec["pops"] > 1000
