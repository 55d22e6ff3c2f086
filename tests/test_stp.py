import csv
import io
import json
import warnings
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsteiner import parse_stp, solve, write_solution, write_stp
from dsteiner.errors import (
    CountMismatch,
    NonIntegralCost,
    StpError,
    StpSyntaxError,
)
from dsteiner.stp import (
    CSV_HEADER,
    MAGIC,
    SolutionRecord,
    StpFormatWarning,
    read_solution,
)

from gen import edges_of, lattice_instance, random_instance

MINIMAL = """33D32945 STP File, STP Format Version 1.0
SECTION Comment
Name "two"
END
SECTION Graph
Nodes 2
Edges 1
E 1 2 7
END
SECTION Terminals
Terminals 2
T 1
T 2
END
EOF
"""


def test_minimal_file():
    inst = parse_stp(MINIMAL)
    assert (inst.n, inst.m, inst.k) == (2, 1, 2)
    assert inst.graph.edge_cost(0, 1) == 7
    assert inst.terminals == [0, 1]


def test_keywords_case_and_whitespace_insensitive():
    text = MINIMAL.replace("SECTION Graph", "  section   GRAPH ")
    text = text.replace("E 1 2 7", "\te   1\t2    7")
    text = text.replace("Nodes 2", "nODES 2")
    inst = parse_stp(text)
    assert (inst.n, inst.m, inst.k) == (2, 1, 2)


def test_missing_magic_warns_but_parses():
    body = MINIMAL.split("\n", 1)[1]
    with pytest.warns(StpFormatWarning):
        inst = parse_stp(body)
    assert inst.k == 2


def test_bytes_input():
    assert parse_stp(MINIMAL.encode()).m == 1


def test_duplicate_edges_keep_cheaper():
    text = MINIMAL.replace("Edges 1", "Edges 2").replace(
        "E 1 2 7", "E 1 2 7\nE 2 1 3"
    )
    inst = parse_stp(text)
    assert inst.m == 1
    assert inst.graph.edge_cost(0, 1) == 3


def test_count_mismatch_edges():
    with pytest.raises(CountMismatch):
        parse_stp(MINIMAL.replace("Edges 1", "Edges 2"))


def test_count_mismatch_terminals():
    with pytest.raises(CountMismatch):
        parse_stp(MINIMAL.replace("Terminals 2", "Terminals 3"))


def test_non_integral_cost_rejected():
    with pytest.raises(NonIntegralCost):
        parse_stp(MINIMAL.replace("E 1 2 7", "E 1 2 7.5"))


def test_bad_token_is_syntax_error():
    with pytest.raises(StpSyntaxError):
        parse_stp(MINIMAL.replace("E 1 2 7", "E 1 x 7"))


@pytest.mark.parametrize("line, bare", [
    ("Nodes 2", "Nodes"),
    ("Edges 1", "Edges"),
    ("Edges 1", "Arcs"),
    ("Terminals 2", "Terminals"),
    ("T 2", "T"),
])
def test_line_without_argument_is_syntax_error(line, bare):
    text = MINIMAL.replace(line, bare)
    with pytest.raises(StpSyntaxError) as info:
        parse_stp(text)
    assert info.value.line_no == text.splitlines().index(bare) + 1


@pytest.mark.parametrize("k", [64, 100])
def test_terminal_sets_wider_than_63_bits_are_parsed(k):
    n = k + 10
    lines = [
        "SECTION Graph",
        f"Nodes {n}",
        f"Edges {n - 1}",
    ]
    lines += [f"E {i} {i + 1} 1" for i in range(1, n)]
    lines += ["END", "SECTION Terminals", f"Terminals {k}"]
    lines += [f"T {i}" for i in range(1, k + 1)]
    lines += ["END", "EOF"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = parse_stp("\n".join(lines))
    assert (inst.n, inst.m, inst.terminals) == (n, n - 1, list(range(k)))


def test_coordinates_parsed():
    text = MINIMAL.replace(
        "EOF",
        "SECTION Coordinates\nDD 1 10 20\nDD 2 30 40\nEND\nEOF",
    )
    inst = parse_stp(text)
    assert inst.coords[0] == (10, 20)
    assert inst.coords[1] == (30, 40)


def test_three_dimensional_coordinates():
    text = MINIMAL.replace(
        "EOF",
        "SECTION Coordinates\nDDD 1 1 2 3\nDDD 2 4 5 6\nEND\nEOF",
    )
    inst = parse_stp(text)
    assert inst.coords[1] == (4, 5, 6)


@pytest.mark.parametrize("seed", range(10))
def test_roundtrip_is_isomorphic(seed):
    inst = random_instance(seed, name=f"rt{seed}")
    buf = io.StringIO()
    write_stp(inst, buf)
    again = parse_stp(buf.getvalue(), name=inst.name)
    assert (again.n, again.m, again.k) == (inst.n, inst.m, inst.k)
    assert again.terminals == inst.terminals
    assert sorted(c for _, c in edges_of(again.graph)) == sorted(
        c for _, c in edges_of(inst.graph)
    )
    assert dict(edges_of(again.graph)) == dict(edges_of(inst.graph))


def test_write_stp_streams_lines(tmp_path):
    # each line goes to the stream as it is formed: the text is never held
    # whole, so writing adds little to the traced peak beyond the grid
    import tracemalloc

    from dsteiner import build_hanan_grid, generate_random_points

    inst, _ = build_hanan_grid(generate_random_points(3, 20, 10**6, 1))
    assert inst.n == 8000
    with open(tmp_path / "grid.stp", "w") as fh:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write_stp(inst, fh)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peak < 100 * inst.n, peak
    again = parse_stp((tmp_path / "grid.stp").read_bytes())
    assert dict(edges_of(again.graph)) == dict(edges_of(inst.graph))


# --- solution records ---

def _record():
    return SolutionRecord(
        instance="b01",
        n=50,
        m=63,
        k=9,
        opt=82,
        edges=[(0, 1), (1, 7)],
        config="bound=onetree;prune=full;root=last",
        time_ms=1.25,
        labels=321,
    )


def test_solution_json_roundtrip():
    rec = _record()
    again = read_solution(write_solution(rec, "json"))
    rec.stats = None
    assert again == rec


def test_solution_csv_header_and_row():
    text = write_solution(_record(), "csv")
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("b01,50,63,9,82,")


def test_solution_csv_roundtrip_summary_fields():
    rec = _record()
    row, = csv.DictReader(io.StringIO(write_solution(rec, "csv")))
    assert [row[f] for f in ("instance", "n", "m", "k", "opt")] == [
        "b01", "50", "63", "9", "82",
    ]
    assert row["config"] == rec.config
    assert int(row["labels"]) == rec.labels


@pytest.mark.parametrize("fmt, field", [("json", "instance"), ("json", "opt")])
def test_solution_missing_field_names_it(fmt, field):
    payload = json.loads(write_solution(_record(), fmt))
    del payload[field]
    with pytest.raises(ValueError, match=repr(field)):
        read_solution(json.dumps(payload))


@pytest.mark.parametrize("text", ["{}", "[]", "3"])
def test_solution_not_a_record_is_value_error(text):
    with pytest.raises(ValueError):
        read_solution(text)


def test_empty_edge_list_record_is_valid():
    rec = SolutionRecord(instance="one", n=1, m=0, k=1, opt=0)
    again = read_solution(write_solution(rec, "json"))
    assert again.opt == 0
    assert again.edges == []


def _records():
    with_stats = _record()
    with_stats.instance = 'b\u00e901 "quoted"'
    with_stats.stats = solve(lattice_instance(5, 4, seed=3)).stats
    empty = SolutionRecord(instance="one", n=1, m=0, k=1, opt=0)
    return [with_stats, _record(), empty]


def test_solution_json_is_byte_identical_to_indented_json_dumps():
    # records with stats, without stats, and with empty edges
    for rec in _records():
        payload = asdict(rec)
        if rec.stats is None:
            del payload["stats"]
        assert write_solution(rec, "json") == json.dumps(payload, indent=2) + "\n"


@given(st.text(alphabet="ab ,\n\t", max_size=40))
@settings(max_examples=40, deadline=None)
def test_parser_never_hangs_on_garbage(junk):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parse_stp(junk)
    except (StpSyntaxError, CountMismatch, NonIntegralCost):
        pass


# Building blocks for token-stream documents: the lines of real files, STP
# keywords, small integers (ids and counts near the ones that occur),
# integers far beyond any node count, and junk.
_DOC_LINES = MINIMAL.replace(
    "EOF", "SECTION Coordinates\nDD 1 10 20\nDD 2 30 40\nEND\nEOF").splitlines()
_KEYWORDS = ["SECTION", "Graph", "Terminals", "Coordinates", "Comment", "END",
             "EOF", "Nodes", "Edges", "Arcs", "E", "A", "T", "DD", "DDD", "Name"]
_TOKENS = st.one_of(
    st.sampled_from(_KEYWORDS),
    st.integers(-3, 70).map(str),
    st.integers(10**12, 10**40).map(str),
    st.sampled_from(["1.5", "-0", "nan", "inf", "1e3", "0x1f", "1_0", '"x"', "\x00", "é"]),
    st.text(max_size=4),
)
_LINES = st.one_of(
    st.sampled_from(_DOC_LINES),
    st.lists(_TOKENS, min_size=1, max_size=5).map(" ".join),
)


@st.composite
def _documents(draw):
    """A real file with lines dropped, replaced and inserted, or pure noise."""
    if draw(st.booleans()):
        return draw(st.lists(_LINES, max_size=30))
    lines = list(_DOC_LINES)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["drop", "replace", "insert"]))
        if action == "insert" or i == len(lines):
            lines.insert(i, draw(_LINES))
        elif action == "replace":
            lines[i] = draw(_LINES)
        else:
            del lines[i]
    return lines


@given(_documents())
@settings(max_examples=300, deadline=None)
def test_token_streams_parse_or_raise_stp_error(lines):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = parse_stp("\n".join(lines))
    except StpError:
        return
    assert 1 <= inst.k <= inst.n


@pytest.mark.parametrize("count", ["0", "-4", str(10**30)])
def test_node_count_out_of_range_is_syntax_error(count):
    text = MINIMAL.replace("Nodes 2", f"Nodes {count}")
    with pytest.raises(StpSyntaxError) as info:
        parse_stp(text)
    assert info.value.line_no == text.splitlines().index(f"Nodes {count}") + 1


@pytest.mark.parametrize("edges, bad", [
    (["E 1 2 18446744073709551616"], 0),                             # 2^64
    (["E 1 2 4611686018427387904", "E 2 3 4611686018427387904"], 0),  # 2^62 twice
    (["E 1 2 576460752303423488", "E 2 3 576460752303423488"], 1),    # 2^59 twice
])
def test_edge_cost_sum_beyond_limit_is_syntax_error(edges, bad):
    text = MINIMAL.replace("Nodes 2", "Nodes 3").replace(
        "Edges 1\nE 1 2 7", f"Edges {len(edges)}\n" + "\n".join(edges))
    with pytest.raises(StpSyntaxError, match="2\\^60") as info:
        parse_stp(text)
    assert info.value.line_no == text.splitlines().index(edges[bad]) + 1


def test_edge_cost_sum_below_limit_parses():
    big = (1 << 59) - 1
    text = MINIMAL.replace("Nodes 2", "Nodes 3").replace(
        "Edges 1\nE 1 2 7", f"Edges 2\nE 1 2 {big}\nE 2 3 {big}")
    inst = parse_stp(text)
    assert inst.graph.edge_cost(0, 1) == big


# --- E lines: one handler, wherever the Nodes line stands ---

def _graph_doc(edge_lines, nodes="before"):
    """A three-node document whose Graph section holds ``edge_lines``, with
    the Nodes line before them, after them, or between the first and the
    rest."""
    head = ["Nodes 3", f"Edges {len(edge_lines)}"]
    if nodes == "before":
        body = head + edge_lines
    elif nodes == "after":
        body = edge_lines + head
    else:
        body = edge_lines[:1] + head + edge_lines[1:]
    return "\n".join([MAGIC, "SECTION Graph", *body, "END",
                      "SECTION Terminals", "Terminals 2", "T 1", "T 3", "END", "EOF"])


_2_59 = str(1 << 59)


@pytest.mark.parametrize("nodes", ["before", "after", "between"])
@pytest.mark.parametrize("edge_lines, expect", [
    (["e 1 2 7", "E 2 3 1"], [((0, 1), 7), ((1, 2), 1)]),
    (["\t E\t1  2\t7", "   E 2 3 1  "], [((0, 1), 7), ((1, 2), 1)]),
    (["E 1 2 +5", "E 2 3 1"], [((0, 1), 5), ((1, 2), 1)]),
    (["E 1 2 7", "E 2 3 1", "E 2 1 3"], [((0, 1), 3), ((1, 2), 1)]),
    (["E 1 2 3", "E 2 3 1", "E 2 1 7"], [((0, 1), 3), ((1, 2), 1)]),
    (["E 1 1 4", "E 1 2 7", "E 3 3 0", "E 2 3 1"], [((0, 1), 7), ((1, 2), 1)]),
    (["E 1 2 2.5", "E 2 3 1"], (NonIntegralCost, 0)),
    (["E 1 2 7", "E 2 3 -3"], (StpSyntaxError, 1)),
    (["E 1 2", "E 2 3 1"], (StpSyntaxError, 0)),
    (["E 1 2 7", "E 2 3 1 9"], (StpSyntaxError, 1)),
    (["E 1 2 " + _2_59, "E 2 3 " + _2_59], (StpSyntaxError, 1)),
    (["E 1 2 7", "E 2 4 1"], (StpSyntaxError, 1)),
    (["E 0 2 7", "E 2 3 1"], (StpSyntaxError, 0)),
])
def test_edge_line_variants(edge_lines, expect, nodes):
    text = _graph_doc(edge_lines, nodes)
    if isinstance(expect, list):
        assert edges_of(parse_stp(text).graph) == expect
        return
    error, bad = expect
    with pytest.raises(error) as info:
        parse_stp(text)
    line_no = text.splitlines().index(edge_lines[bad]) + 1
    assert str(info.value).startswith(f"line {line_no}:")


def test_edge_outside_node_range_waits_for_a_later_nodes_line():
    # before Nodes the range is unknown: the check runs after the loop, so
    # an error on a later line is reported first
    text = _graph_doc(["E 1 4 7", "E 2 3 1"], "after").replace("T 3", "T x")
    with pytest.raises(StpSyntaxError, match="terminal id") as info:
        parse_stp(text)
    assert info.value.line_no == text.splitlines().index("T x") + 1
    # with Nodes first, the edge's own line is reported at once
    text = _graph_doc(["E 1 4 7", "E 2 3 1"], "before").replace("T 3", "T x")
    with pytest.raises(StpSyntaxError, match="outside") as info:
        parse_stp(text)
    assert info.value.line_no == text.splitlines().index("E 1 4 7") + 1


@pytest.mark.parametrize("old, new, bad, match", [
    ("T 3", "T 7", "T 7", "terminal 7 outside 1..3"),
    ("EOF", "SECTION Coordinates\nDD 1 0 0\nDD 9 1 1\nEND\nEOF", "DD 9 1 1",
     "coordinate node 9 outside 1..3"),
], ids=["terminal", "coordinate"])
def test_id_outside_node_range_names_its_line(old, new, bad, match):
    # the range is checked after the loop, since Nodes may come later, but
    # the error still names the line the id stands on
    text = _graph_doc(["E 1 2 7", "E 2 3 1"]).replace(old, new)
    with pytest.raises(StpSyntaxError, match=match) as info:
        parse_stp(text)
    assert info.value.line_no == text.splitlines().index(bad) + 1 > 1


def test_conflicting_nodes_lines_are_refused():
    text = _graph_doc(["E 1 2 7", "E 2 3 1"]).replace("END", "Nodes 2\nEND", 1)
    with pytest.raises(StpSyntaxError, match="node count 2") as info:
        parse_stp(text)
    assert info.value.line_no == text.splitlines().index("Nodes 2") + 1
    # repeating the same count is harmless
    text = _graph_doc(["E 1 2 7", "E 2 3 1"]).replace("END", "Nodes 3\nEND", 1)
    assert parse_stp(text).m == 2
