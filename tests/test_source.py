"""Checks on the package source itself."""

import ast
from pathlib import Path

import dsteiner

SRC = Path(dsteiner.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # vanish; the package raises its errors instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.rglob("*.py")) and not found, found


def _limit_violations(src: Path) -> list[str]:
    """Places outside ``errors.Limits`` that construct TimeLimit or
    MemoryLimit or compare against ``perf_counter()``."""
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed: set[int] = set()
        if path.name == "errors.py":
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "Limits":
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in ("TimeLimit", "MemoryLimit"):
                    found.append(f"{path.name}:{node.lineno} {name}(")
            elif isinstance(node, ast.Compare):
                for part in [node.left, *node.comparators]:
                    if (isinstance(part, ast.Call)
                            and getattr(part.func, "attr", "") == "perf_counter"):
                        found.append(f"{path.name}:{node.lineno} perf_counter() compare")
    return found


def test_limits_are_raised_only_by_limits_class():
    # every time and memory stop goes through errors.Limits, so its
    # messages and any report made at a stop live in one place
    assert _limit_violations(SRC) == []


def test_limit_check_finds_a_hand_written_check(tmp_path):
    (tmp_path / "errors.py").write_text((SRC / "errors.py").read_text())
    (tmp_path / "phase.py").write_text(
        "import time\n"
        "from .errors import MemoryLimit, TimeLimit\n"
        "def run(deadline, est, limit):\n"
        "    if time.perf_counter() > deadline:\n"
        "        raise TimeLimit('late')\n"
        "    if est > limit:\n"
        "        raise MemoryLimit('big')\n")
    assert sorted(_limit_violations(tmp_path)) == [
        "phase.py:4 perf_counter() compare", "phase.py:5 TimeLimit(",
        "phase.py:7 MemoryLimit("]
