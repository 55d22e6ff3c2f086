import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from dsteiner import parse_stp_file, solve, validate_tree

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "holed.py"


def _holed():
    spec = importlib.util.spec_from_file_location("holed", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_terminals_sit_next_to_a_hole_in_one_component():
    inst = _holed().holed_instance(30, 6, 12, 1)
    coords = inst.coords
    free = set(coords)
    assert inst.k == 12 and len(free) == inst.n < 30 * 30
    for t in inst.terminals:
        x, y = coords[t]
        assert any((a, b) not in free for a, b in
                   ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
                   if 0 <= a < 30 and 0 <= b < 30)
    # unit edges join exactly the free grid neighbours
    assert inst.m == sum((x + 1, y) in free for x, y in free) + sum(
        (x, y + 1) in free for x, y in free)
    rec = solve(inst, bound="jterm:2")
    assert validate_tree(inst, rec.edges) == rec.opt


def test_script_writes_the_seeded_instance(tmp_path):
    paths = [tmp_path / f"{i}.stp" for i in range(3)]
    for path, seed in zip(paths, (1, 1, 2)):
        subprocess.run([sys.executable, str(SCRIPT), "30", "6", "12", str(seed),
                        str(path)], check=True, timeout=60)
    assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()
    inst = parse_stp_file(paths[0])
    expected = _holed().holed_instance(30, 6, 12, 1)
    assert (inst.n, inst.m, inst.terminals) == (expected.n, expected.m,
                                                expected.terminals)


def test_too_few_pins_is_refused():
    with pytest.raises(ValueError, match="fewer than k"):
        _holed().holed_instance(30, 6, 10**4, 1)
