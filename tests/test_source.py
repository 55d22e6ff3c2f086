"""Checks on the package source itself."""

import ast
from pathlib import Path

import dsteiner
from dsteiner.distances import DistanceOracle

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


def _inside(tree: ast.Module, name: str) -> set[int]:
    """Ids of the nodes of the top-level class or function ``name``."""
    return {id(n) for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
            for n in ast.walk(node)}


def _limit_violations(src: Path) -> list[str]:
    """Places outside ``errors.Limits`` that construct TimeLimit or
    MemoryLimit or compare against ``perf_counter()``."""
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = _inside(tree, "Limits") if path.name == "errors.py" else set()
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


def _heap_loops(src: Path) -> list[str]:
    """Places that name ``heappop`` outside graph.py (the one resumable
    Dijkstra), baseline.py (the reference DP) and solver._label_loop."""
    found = []
    for path in sorted(src.rglob("*.py")):
        if path.name in ("graph.py", "baseline.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = _inside(tree, "_label_loop") if path.name == "solver.py" else set()
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "heappop":
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_shortest_paths_run_only_on_resumable_dijkstra():
    # the oracle and the bound tables grow their distances through
    # graph.ResumableDijkstra, so neither keeps a Dijkstra of its own
    assert _heap_loops(SRC) == []


def test_heap_check_finds_a_hand_written_loop(tmp_path):
    loop = ("    while heap:\n"
            "        d, u = heapq.heappop(heap)\n"
            "        for v, c in adj[u]:\n"
            "            heapq.heappush(heap, (d + c, v))\n")
    for name in ("graph.py", "baseline.py", "bounds.py"):
        (tmp_path / name).write_text(f"import heapq\ndef run(heap, adj):\n{loop}")
    (tmp_path / "solver.py").write_text(
        "from heapq import heappop\n"
        f"def _label_loop(heap, adj):\n{loop}"
        f"def _prepare(heap, adj):\n{loop}")
    assert _heap_loops(tmp_path) == ["bounds.py:4", "solver.py:1", "solver.py:9"]


def _row_readers(src: Path) -> list[str]:
    """Places that name a search's growth attributes (settle, drain, _grow,
    cap, heap, dist) outside graph.py and distances.py, and places anywhere
    that name the oracle's former ``settled`` or ``rows``."""
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = path.name in ("graph.py", "distances.py")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in ("settled", "rows") or (
                    node.attr in ("settle", "drain", "_grow", "cap", "heap", "dist")
                    and not owner):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    return found


def test_distance_rows_grow_only_inside_the_oracle():
    # bounds and the solver read terminal distances as oracle.columns[v]
    # or oracle.pair, which are exact wherever they are read, so neither
    # tests or grows a row itself
    assert _row_readers(SRC) == []


def test_row_check_finds_hand_written_reads(tmp_path):
    (tmp_path / "graph.py").write_text(
        "def settle(search, v):\n"
        "    search.settle(v)\n"
        "    return search.dist[v], search.heap\n")
    (tmp_path / "distances.py").write_text(
        "def complete(self):\n"
        "    self.search.drain()\n"
        "    return self.rows\n")
    (tmp_path / "bounds.py").write_text(
        "def evaluate(oracle, v):\n"
        "    if not oracle.settled[v]:\n"
        "        oracle.settle(v)\n"
        "    return oracle.rows[0][v]\n")
    (tmp_path / "solver.py").write_text(
        "def heuristic_upper_bound(search, x):\n"
        "    search.settle(x)\n"
        "    return search.dist[x]\n"
        "def _prepare(search):\n"
        "    search.cap(3)\n"
        "    search._grow(3, [0], 0)\n"
        "    return search.heap\n")
    assert sorted(_row_readers(tmp_path)) == [
        "bounds.py:2 .settled", "bounds.py:3 .settle", "bounds.py:4 .rows",
        "distances.py:3 .rows", "solver.py:2 .settle", "solver.py:3 .dist",
        "solver.py:5 .cap", "solver.py:6 ._grow", "solver.py:7 .heap"]


def _per_pop_queries(src: Path) -> list[str]:
    """Places that name ``vertex_to_set_distance`` other than its ``def``:
    as a name, an attribute or a string, the ways a call can reach it."""
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant) else None)
            if name == "vertex_to_set_distance":
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_calls_the_per_pop_vertex_query():
    # the label loop scans oracle.columns[v] itself: the call per pop cost
    # about 3% of a hanan3d solve.  The method stays, because
    # perfbench/tracing.py wraps it by name
    assert _per_pop_queries(SRC) == []
    assert callable(DistanceOracle.vertex_to_set_distance)


def test_query_check_finds_a_call(tmp_path):
    (tmp_path / "distances.py").write_text(
        "class DistanceOracle:\n"
        "    def vertex_to_set_distance(self, v, ts):\n"
        "        return min(ts)\n")
    (tmp_path / "solver.py").write_text(
        "def _label_loop(oracle, v, ts):\n"
        "    query = oracle.vertex_to_set_distance\n"
        "    return getattr(oracle, 'vertex_to_set_distance')(v, ts)\n")
    assert _per_pop_queries(tmp_path) == ["solver.py:2", "solver.py:3"]


def _self_referring_closures(src: Path) -> list[str]:
    """Functions nested in a function that name themselves: each call of
    the outer function then builds a function and a cell that refer to
    each other, a cycle that only the cycle collector frees."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if (inner is not outer
                        and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and any(isinstance(n, ast.Name) and n.id == inner.name
                                and isinstance(n.ctx, ast.Load) for n in ast.walk(inner))):
                    found[id(inner)] = f"{path.name}:{inner.lineno} {inner.name}"
    return sorted(found.values())


def test_no_nested_function_refers_to_itself():
    # a solve's objects must be freed by reference counting alone: a
    # recursive closure, built per call, lived until a gc pass and slowed
    # the solves that followed
    assert _self_referring_closures(SRC) == []


def test_closure_check_finds_a_recursive_inner_function(tmp_path):
    (tmp_path / "walk.py").write_text(
        "def walk(bits):\n"
        "    def rec(prefix, start):\n"
        "        yield prefix\n"
        "        for i in range(start, len(bits)):\n"
        "            yield from rec(prefix | bits[i], i + 1)\n"
        "    return rec(0, 0)\n"
        "def depth(tree):\n"
        "    return 1 + max(map(depth, tree), default=0)\n"
        "class Node:\n"
        "    def size(self):\n"
        "        def one(child):\n"
        "            return child.size()\n"
        "        return 1 + sum(map(one, self.children))\n"
        "def build(spec):\n"
        "    def part(p):\n"
        "        def sub(q):\n"
        "            return [sub(x) for x in q]\n"
        "        return sub(p)\n"
        "    return part(spec)\n")
    assert _self_referring_closures(tmp_path) == ["walk.py:16 sub", "walk.py:2 rec"]


GC_SWITCHES = ("disable", "enable", "set_threshold", "freeze")


def _gc_switches(src: Path) -> list[str]:
    """Places outside ``solver.solve`` that name one of ``GC_SWITCHES`` on
    the gc module or import one from it."""
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = _inside(tree, "solve") if path.name == "solver.py" else set()
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.Attribute) and node.attr in GC_SWITCHES
                    and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                found.append(f"{path.name}:{node.lineno} gc.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found += [f"{path.name}:{node.lineno} gc.{alias.name}"
                          for alias in node.names if alias.name in GC_SWITCHES]
    return found


def test_only_solve_switches_the_cycle_collector():
    # solve() pauses the collector and restores the caller's setting; a
    # second place that switched it could leave it off, or on mid-solve
    assert _gc_switches(SRC) == []


def test_gc_check_finds_a_switch_outside_solve(tmp_path):
    (tmp_path / "solver.py").write_text(
        "import gc\n"
        "def solve(x):\n"
        "    gc.disable()\n"
        "    gc.enable()\n"
        "def _label_loop(x):\n"
        "    gc.freeze()\n"
        "    return gc.isenabled()\n")
    (tmp_path / "stp.py").write_text(
        "from gc import disable, collect\n"
        "import gc\n"
        "def parse_stp(text):\n"
        "    gc.set_threshold(10**6)\n")
    assert _gc_switches(tmp_path) == [
        "solver.py:6 gc.freeze", "stp.py:1 gc.disable", "stp.py:4 gc.set_threshold"]
