import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsteiner import Graph, SteinerInstance, cli, parse_stp_file, solve, write_stp
from dsteiner.cli import main

from gen import lattice_instance, random_instance


def stp_text(inst) -> str:
    buf = io.StringIO()
    write_stp(inst, buf)
    return buf.getvalue()


def write_instance(tmp_path, seed, name):
    inst = random_instance(seed, name=name)
    path = tmp_path / f"{name}.stp"
    path.write_text(stp_text(inst))
    return inst, path


BAD_EDGE_LINE = "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\nE 1 x 1\nEND\n"


def test_solve_json_roundtrips_through_validate(tmp_path, capsys):
    inst, path = write_instance(tmp_path, 1, "a")
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["opt"] == solve(inst).opt
    assert main(["validate", str(path), str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(payload["opt"])


def test_solve_leaves_no_parser_for_the_cycle_collector(tmp_path, capsys):
    # argparse objects refer to each other, so a parser built on every call
    # would be freed only by a collector pass
    _, path = write_instance(tmp_path, 7, "p")
    gc.collect()
    flags, before = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert main(["solve", str(path)]) == 0
        gc.collect()
        left = [o for o in gc.garbage[before:] if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
    assert left == []


def test_solve_json_carries_stats(tmp_path, capsys):
    inst, path = write_instance(tmp_path, 3, "s")
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "-o", str(out)]) == 0
    stats = json.loads(out.read_text())["stats"]
    expect = solve(inst).stats
    phase_ms = stats.pop("phase_ms")
    assert stats == {k: v for k, v in vars(expect).items() if k != "phase_ms"}
    assert all(type(v) is int for v in stats.values())
    assert stats["labels_created"] > 0 and stats["upper_bound"] > 0
    assert set(phase_ms) == set(expect.phase_ms)
    assert all(type(v) is float and v >= 0 for v in phase_ms.values())
    assert main(["validate", str(path), str(out)]) == 0
    assert main(["solve", str(path), "--format", "csv"]) == 0
    assert "stats" not in capsys.readouterr().out


def test_solve_csv_to_stdout(tmp_path, capsys):
    inst, path = write_instance(tmp_path, 2, "b")
    assert main(["solve", str(path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "instance,n,m,k,opt,time_ms,labels,config"
    row = lines[1].split(",")
    assert row[0] == "b"
    assert int(row[4]) == solve(inst).opt


def test_solve_single_terminal(tmp_path, capsys):
    text = (
        "33D32945 STP File, STP Format Version 1.0\n"
        "SECTION Graph\nNodes 1\nEdges 0\nEND\n"
        "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
    )
    path = tmp_path / "one.stp"
    path.write_text(text)
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["opt"] == 0


def test_bound_choices_agree(tmp_path, capsys):
    _, path = write_instance(tmp_path, 3, "c")
    opts = []
    for bound in ["zero", "max(jterm:2,onetree)"]:
        assert main(["solve", str(path), "--bound", bound]) == 0
        opts.append(json.loads(capsys.readouterr().out)["opt"])
    assert opts[0] == opts[1]


def test_bad_root_and_bound_report_cleanly(tmp_path, capsys):
    _, path = write_instance(tmp_path, 19, "cfg")
    assert main(["solve", str(path), "--root", "index:99"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "ValueError"
    for bound in ("nope", "jterm3", "jtermX", "JTERM", "jterm:1"):
        assert main(["solve", str(path), "--bound", bound]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ValueError" and "unknown bound spec" in payload["message"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.stp"
    bad.write_text(BAD_EDGE_LINE)
    assert main(["solve", str(bad)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "parse"


NODES_WITHOUT_COUNT = (
    "33D32945 STP File, STP Format Version 1.0\n"
    "SECTION Graph\nNodes\nEdges 1\nE 1 2 1\nEND\n"
    "SECTION Terminals\nTerminals 2\nT 1\nT 2\nEND\nEOF\n"
)


def test_line_without_argument_exit_code(tmp_path, capsys):
    path = tmp_path / "bare.stp"
    path.write_text(NODES_WITHOUT_COUNT)
    assert main(["solve", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "parse"


@pytest.mark.parametrize("costs", [[2**64], [2**62, 2**62]])
def test_edge_cost_overflow_exit_code(tmp_path, capsys, costs):
    # a connected instance whose path costs reach graph.INF used to solve
    # as "infeasible" (exit 3)
    n = len(costs) + 1
    text = (
        "33D32945 STP File, STP Format Version 1.0\n"
        f"SECTION Graph\nNodes {n}\nEdges {len(costs)}\n"
        + "".join(f"E {i + 1} {i + 2} {c}\n" for i, c in enumerate(costs))
        + f"END\nSECTION Terminals\nTerminals 2\nT 1\nT {n}\nEND\nEOF\n"
    )
    path = tmp_path / "huge.stp"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "parse"


@pytest.mark.parametrize("value", ["nan", "-nan", "0", "-1"])
def test_nonpositive_or_nan_time_limit_is_refused(tmp_path, capsys, value):
    _, path = write_instance(tmp_path, 7, "nanlimit")
    assert main(["solve", str(path), f"--time-limit={value}"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ValueError"
    assert "time limit" in payload["message"]


def test_bench_refuses_a_bad_limit_before_solving_any_row(tmp_path, capsys,
                                                         monkeypatch):
    _, path = write_instance(tmp_path, 7, "row")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{path}\n")
    monkeypatch.setattr(cli, "parse_stp_file", lambda p: pytest.fail("a row was read"))
    assert main(["bench", str(manifest), "--mem-limit", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload == {"error": "ValueError",
                       "message": "memory limit 0 is not positive"}


@pytest.mark.parametrize("option, message", [
    (["--bound", "bogus"], "unknown bound spec 'bogus'"),
    (["--bound", "max(onetree,jterm4)"], "unknown bound spec 'jterm4'"),
    (["--root", "centre"], "unknown root rule 'centre'"),
    (["--root", "index:x"], "unknown root rule 'index:x'"),
    (["--root", "medoids"], "unknown root rule 'medoids'"),
])
@pytest.mark.parametrize("command", ["bench", "solve"])
def test_misspelled_bound_or_root_is_refused_before_reading(tmp_path, capsys,
                                                            option, message, command):
    # the input does not exist: reading it first would report an OSError
    assert main([command, str(tmp_path / "absent.txt"), *option]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ValueError", "message": message}


def test_infeasible_exit_code(tmp_path, capsys):
    text = (
        "33D32945 STP File, STP Format Version 1.0\n"
        "SECTION Graph\nNodes 4\nEdges 2\nE 1 2 1\nE 3 4 1\nEND\n"
        "SECTION Terminals\nTerminals 2\nT 1\nT 4\nEND\nEOF\n"
    )
    path = tmp_path / "inf.stp"
    path.write_text(text)
    assert main(["solve", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "infeasible"


def _write_big_instance(tmp_path, name):
    inst = random_instance(71, n_range=(25, 25), k_range=(7, 7), name=name)
    path = tmp_path / f"{name}.stp"
    path.write_text(stp_text(inst))
    return path


def test_timeout_exit_code(tmp_path, capsys):
    path = _write_big_instance(tmp_path, "slow")
    code = main(["solve", str(path), "--bound", "zero", "--prune", "off",
                 "--time-limit", "1e-9"])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["error"] == "timeout"


def test_memory_exit_code(tmp_path, capsys):
    path = _write_big_instance(tmp_path, "fat")
    code = main(["solve", str(path), "--bound", "zero", "--prune", "off",
                 "--mem-limit", "1"])
    assert code == 5
    assert json.loads(capsys.readouterr().out)["error"] == "memory"


@pytest.mark.parametrize("bound", ["onetree", "jterm:3"])
def test_memory_limit_refuses_preprocessing(tmp_path, capsys, monkeypatch, bound):
    # n = 5184: the distance rows alone outgrow 1 byte, before the first pop
    import dsteiner.solver

    monkeypatch.setattr(dsteiner.solver, "_label_loop",
                        lambda *a: pytest.fail("the label loop started"))
    path = tmp_path / "lattice.stp"
    path.write_text(stp_text(lattice_instance(72, 10, seed=1, window=12)))
    code = main(["solve", str(path), "--bound", bound, "--mem-limit", "1"])
    assert code == 5
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "memory"


def test_missing_files_report_cleanly(tmp_path, capsys):
    _, path = write_instance(tmp_path, 7, "m")
    missing = str(tmp_path / "missing.stp")
    for argv in (["solve", missing],
                 ["validate", missing, str(tmp_path / "sol.json")],
                 ["validate", str(path), str(tmp_path / "missing.json")],
                 ["solve", str(path), "-o", str(tmp_path / "no" / "sol.json")]):
        assert main(argv) == 1, argv
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "FileNotFoundError"


@pytest.mark.parametrize("payload", ["{}", '{"instance": "v", "n": 1}', "[]"])
def test_validate_incomplete_record_reports_cleanly(tmp_path, capsys, payload):
    _, path = write_instance(tmp_path, 8, "v")
    sol = tmp_path / "sol.json"
    sol.write_text(payload)
    assert main(["validate", str(path), str(sol)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    if payload != "[]":
        assert ("'instance'" if payload == "{}" else "'m'") in err["message"]


@pytest.mark.parametrize("edges", [5, [5], [[0, [1]]], [[0, "1"]], [[True, 1]]])
def test_validate_malformed_edges_reports_cleanly(tmp_path, capsys, edges):
    _, path = write_instance(tmp_path, 8, "v")
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"instance": "v", "n": 1, "m": 0, "k": 1, "opt": 0,
                               "edges": edges}))
    assert main(["validate", str(path), str(sol)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert "'edges'" in err["message"]


@pytest.mark.parametrize("field, value", [
    ("opt", "12"), ("opt", 12.0), ("opt", True), ("n", None), ("k", [1]), ("m", "0"),
    ("instance", 7),
])
def test_validate_mistyped_field_reports_cleanly(tmp_path, capsys, field, value):
    # a record whose opt is the string "12" must not reach the cost check,
    # whose message would read "tree cost 12 != recorded opt 12"
    _, path = write_instance(tmp_path, 5, "t")
    out = tmp_path / "sol.json"
    main(["solve", str(path), "-o", str(out)])
    payload = json.loads(out.read_text())
    payload[field] = value
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["validate", str(path), str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert f"{field!r} is not " in err["message"]


def test_validate_detects_tampered_cost(tmp_path, capsys):
    _, path = write_instance(tmp_path, 5, "t")
    out = tmp_path / "sol.json"
    main(["solve", str(path), "-o", str(out)])
    payload = json.loads(out.read_text())
    payload["opt"] += 1
    out.write_text(json.dumps(payload))
    assert main(["validate", str(path), str(out)]) != 0
    assert "mismatch" in capsys.readouterr().out


def test_validate_detects_removed_edge(tmp_path, capsys):
    inst, path = write_instance(tmp_path, 6, "r")
    rec = solve(inst)
    if len(rec.edges) < 2:
        pytest.skip("tree too small to break")
    out = tmp_path / "sol.json"
    main(["solve", str(path), "-o", str(out)])
    payload = json.loads(out.read_text())
    payload["edges"] = payload["edges"][1:]
    out.write_text(json.dumps(payload))
    assert main(["validate", str(path), str(out)]) == 1
    err = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert err["error"] in ("NotConnected", "MissingTerminal")


def test_validate_compares_the_record_header_with_the_instance(tmp_path, capsys):
    _, path = write_instance(tmp_path, 5, "t")
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    n, k = payload["n"], payload["k"]
    # the instance name comes from the file name, so a renamed copy of the
    # instance still validates
    out.write_text(json.dumps(dict(payload, instance="other")))
    assert main(["validate", str(path), str(out)]) == 0
    capsys.readouterr()
    out.write_text(json.dumps(dict(payload, n=999, k=42, instance="other")))
    assert main(["validate", str(path), str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "mismatch",
        "message": f"n: record 999 != instance {n}; k: record 42 != instance {k}"}


def _points_file(tmp_path, points):
    path = tmp_path / "p.txt"
    path.write_text(f"{len(points[0])} {len(points)}\n"
                    + "".join(" ".join(map(str, p)) + "\n" for p in points))
    return path


@pytest.mark.parametrize("command, points, code, kind", [
    # the instance file was corrupted after the solve
    ("validate", None, 2, "parse"),
    # 20^6 vertices: over MAX_GRID_ITEMS, refused unbuilt
    ("hanan", [(i,) * 6 for i in range(20)], 1, "GridTooLarge"),
])
def test_each_error_class_has_one_exit_code_in_every_command(tmp_path, capsys,
                                                             command, points,
                                                             code, kind):
    # solve's codes, and validate's success, mismatch and ValueError, are
    # pinned by the tests above; these are the pairs no other test reaches
    if command == "validate":
        _, path = write_instance(tmp_path, 5, "t")
        sol = tmp_path / "sol.json"
        assert main(["solve", str(path), "-o", str(sol)]) == 0
        path.write_text(BAD_EDGE_LINE)
        argv = ["validate", str(path), str(sol)]
    else:
        argv = ["hanan", str(tmp_path / "g.stp"),
                "--points", str(_points_file(tmp_path, points))]
    capsys.readouterr()
    assert main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == kind


def test_solve_then_validate_past_63_terminals(tmp_path, capsys):
    # a 70-vertex unit path with 64 terminals at one end: the optimum is the
    # path through them, 63 edges
    inst = SteinerInstance(Graph(70, [(i, i + 1, 1) for i in range(69)]),
                           list(range(64)))
    path = tmp_path / "wide.stp"
    path.write_text(stp_text(inst))
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--bound", "jterm:2", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["k"], payload["opt"], len(payload["edges"])) == (64, 63, 63)
    capsys.readouterr()
    assert main(["validate", str(path), str(out)]) == 0


def test_hanan_single_point(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    pts.write_text("2 1\n4 7\n")
    out = tmp_path / "g.stp"
    assert main(["hanan", str(out), "--points", str(pts)]) == 0
    assert capsys.readouterr().out.strip() == "1 0 1"


def test_hanan_counts_and_solvable_output(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    pts.write_text("2 3\n0 0\n5 2\n3 9\n")
    out = tmp_path / "g.stp"
    assert main(["hanan", str(out), "--points", str(pts)]) == 0
    v, e, k = map(int, capsys.readouterr().out.split())
    assert (v, e, k) == (9, 12, 3)
    inst = parse_stp_file(out)
    assert (inst.n, inst.m, inst.k) == (9, 12, 3)
    assert main(["solve", str(out)]) == 0


def test_hanan_random_seeded_counts(tmp_path, capsys):
    out = tmp_path / "g.stp"
    assert main(["hanan", str(out), "--random", "3", "21", "999",
                 "--seed", "9"]) == 0
    v, e, k = map(int, capsys.readouterr().out.split())
    from dsteiner import generate_random_points
    pts = generate_random_points(3, 21, 999, 9).points
    counts = [len({p[i] for p in pts}) for i in range(3)]
    assert v == counts[0] * counts[1] * counts[2]
    assert e == sum((c - 1) * (v // c) for c in counts)
    assert k <= 21


def _write_manifest(tmp_path, seeds):
    paths = []
    for i, seed in enumerate(seeds):
        _, p = write_instance(tmp_path, seed, f"m{i}")
        paths.append(str(p))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(paths) + "\n")
    return manifest, paths


def test_bench_rows_in_manifest_order(tmp_path, capsys):
    manifest, paths = _write_manifest(tmp_path, [7, 8, 9])
    assert main(["bench", str(manifest)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["instance"] for r in rows] == ["m0", "m1", "m2"]
    assert all(r["error"] == "" for r in rows)


def test_bench_empty_manifest_is_header_only(tmp_path, capsys):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("")
    assert main(["bench", str(manifest)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["instance,n,m,k,opt,time_ms,labels,config,error"]


def test_bench_deterministic_and_parallel_invariant(tmp_path):
    manifest, _ = _write_manifest(tmp_path, [10, 11, 12, 13])
    outs = []
    for par in ("1", "2", "1"):
        out = tmp_path / f"bench{par}_{len(outs)}.csv"
        assert main(["bench", str(manifest), "--parallel", par,
                     "-o", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        outs.append([(r["instance"], r["opt"]) for r in rows])
    assert outs[0] == outs[1] == outs[2]


REPRODUCE = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"


def test_reproduce_tables_reports_missing_instances(tmp_path):
    names = [ln.strip() for ln in (REPRODUCE.parent / "paper_manifests" / "desk_scale.txt")
             .read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    data, tmpdir = tmp_path / "data", tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    run = [sys.executable, str(REPRODUCE), "--data-dir", str(data)]
    # no instance at all: nothing to report
    proc = subprocess.run(run, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "no corpus files found" in proc.stderr
    (data / "steinlib").mkdir(parents=True)
    inst, _ = write_instance(data / "steinlib", 5, names[0])
    out = tmp_path / "rows.csv"
    proc = subprocess.run(run + ["--out", str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["instance"] for r in rows] == names
    assert rows[0]["error"] == ""
    assert int(rows[0]["opt"]) == solve(inst).opt
    assert all(r["error"].startswith("FileNotFoundError") for r in rows[1:])
    assert not any(tmpdir.iterdir())  # the temporary manifest is gone


@pytest.mark.parametrize("cpus, workers", [(64, [2]), (1, []), (None, [])])
def test_bench_caps_workers_at_tasks_and_cpus(tmp_path, monkeypatch, cpus, workers):
    # a fake pool records the worker count it was asked for and runs the
    # tasks in this process, so no worker is ever started
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    manifest, _ = _write_manifest(tmp_path, [10, 11])
    out = tmp_path / "bench.csv"
    assert main(["bench", str(manifest), "--parallel", "1000", "-o", str(out)]) == 0
    assert seen == workers
    with out.open() as fh:
        assert [r["error"] for r in csv.DictReader(fh)] == ["", ""]


def test_bench_bad_row_does_not_abort(tmp_path, capsys):
    manifest, paths = _write_manifest(tmp_path, [14])
    manifest.write_text(str(tmp_path / "missing.stp") + "\n" + paths[0] + "\n")
    assert main(["bench", str(manifest)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["error"] != ""
    assert rows[1]["error"] == ""
    assert rows[1]["instance"] == "m0"


def test_bench_unparsable_row_does_not_abort(tmp_path, capsys):
    manifest, paths = _write_manifest(tmp_path, [15, 16])
    bare = tmp_path / "bare.stp"
    bare.write_text(NODES_WITHOUT_COUNT)
    manifest.write_text("\n".join([paths[0], str(bare), paths[1]]) + "\n")
    assert main(["bench", str(manifest)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["instance"] for r in rows] == ["m0", "bare", "m1"]
    assert rows[1]["error"].startswith("StpSyntaxError")
    assert rows[0]["error"] == rows[2]["error"] == ""
    assert rows[0]["opt"] and rows[2]["opt"]


def test_bench_rows_match_header_width(tmp_path, capsys):
    # a comma inside the bound spec must stay inside the config field
    manifest, paths = _write_manifest(tmp_path, [17, 18])
    manifest.write_text("\n".join([paths[0], str(tmp_path / "missing.stp"), paths[1]]))
    assert main(["bench", str(manifest), "--bound", "max(jterm:2,onetree)"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(rows) == 3
    assert all(len(row) == len(header) for row in rows)
    configs = [dict(zip(header, row))["config"] for row in rows]
    assert configs[0] == configs[2] == (
        "bound=max(jterm:2,onetree);prune=full;root=medoid")


def test_bench_root_index_out_of_range_does_not_abort(tmp_path, capsys):
    # index:6 fits the k=7 instance but not the k=6 one
    paths = []
    for name, k in (("k7", 7), ("k6", 6)):
        inst = random_instance(40 + k, n_range=(10, 20), k_range=(k, k), name=name)
        path = tmp_path / f"{name}.stp"
        path.write_text(stp_text(inst))
        paths.append(str(path))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(paths) + "\n")
    assert main(["bench", str(manifest), "--root", "index:6"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["instance"] for r in rows] == ["k7", "k6"]
    assert rows[0]["error"] == "" and rows[0]["opt"] != ""
    assert rows[1]["error"].startswith("ValueError")
    assert rows[1]["opt"] == ""


# Mutated STP files for the exit-code property: the lines of a real file
# (coordinates included, so the center root rule can apply) with lines
# dropped, replaced and inserted.
_CLI_DOC = stp_text(random_instance(20, n_range=(6, 12), k_range=(3, 5))).splitlines()
_CLI_DOC[-1:-1] = ["SECTION Coordinates"] + [
    f"DD {v} {3 * v % 7} {v * v % 5}" for v in range(1, 13)] + ["END"]
_CLI_TOKENS = st.one_of(
    st.sampled_from(["SECTION", "Graph", "Terminals", "Coordinates", "END", "EOF",
                     "Nodes", "Edges", "E", "T", "DD", "DDD"]),
    st.integers(-2, 14).map(str),
    st.integers(2**62, 2**70).map(str),
    st.sampled_from(["1.5", "nan", "x", "\x00"]),
)
_CLI_LINES = st.one_of(
    st.sampled_from(_CLI_DOC),
    st.lists(_CLI_TOKENS, min_size=1, max_size=4).map(" ".join),
)


@st.composite
def _mutated_doc(draw):
    lines = list(_CLI_DOC)
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["drop", "replace", "insert"]))
        if action == "insert" or i == len(lines):
            lines.insert(i, draw(_CLI_LINES))
        elif action == "replace":
            lines[i] = draw(_CLI_LINES)
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


@given(
    doc=_mutated_doc(),
    bound=st.sampled_from(["zero", "jterm:2", "onetree", "tsp",
                           "max(jterm:2,onetree)", "jterm:7", "max(", "tsp,zero"]),
    prune=st.sampled_from(["off", "bound", "full"]),
    root=st.sampled_from(["medoid", "last", "center", "index:0", "index:3", "index:-1",
                          "index:x"]),
)
@settings(max_examples=150, deadline=None)
def test_solve_mutated_files_returns_documented_exit_codes(doc, bound, prune, root):
    fd, path = tempfile.mkstemp(suffix=".stp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(doc)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["solve", path, "--bound", bound, "--prune", prune,
                         "--root", root, "--time-limit", "10"])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2, 3, 4, 5)
    payload = json.loads(out.getvalue())
    assert ("error" in payload) == (code != 0)
