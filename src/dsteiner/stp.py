"""SteinLib STP instance files and machine-readable solution records.

All I/O is byte-exact ASCII decimal; keywords are matched case-insensitively
and whitespace is free-form.  Node ids are 1-based in files, 0-based in
memory.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional, TextIO, Union

from .errors import CountMismatch, NonIntegralCost, StpSyntaxError
from .graph import Graph, SteinerInstance

MAGIC = "33D32945 STP File, STP Format Version 1.0"

# a graph's adjacency and each distance row hold n entries (n lists alone
# take over 0.5 GB here): refuse larger counts
MAX_NODES = 10**7

# Distances at or above graph.INF = 2^63 - 1 read as unreachable, and the
# solver compares doubled sums (keys, bounds) with it.  Refusing files whose
# edge costs sum to 2^60 or more keeps every distance, and every doubled key
# and bound of a tree no costlier than all edges together, below INF.
MAX_TOTAL_COST = 1 << 60

CSV_HEADER = ["instance", "n", "m", "k", "opt", "time_ms", "labels", "config"]


class StpFormatWarning(UserWarning):
    pass


def _int_token(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        try:
            float(token)
        except ValueError:
            raise StpSyntaxError(line_no, f"bad {what}: {token!r}") from None
        raise NonIntegralCost(f"line {line_no}: non-integral {what}: {token!r}") from None


def _arg_token(tokens: list[str], line_no: int, what: str) -> int:
    """The integer argument of a one-argument line such as ``Nodes 12``."""
    if len(tokens) < 2:
        raise StpSyntaxError(line_no, f"{tokens[0]} line without a {what}")
    return _int_token(tokens[1], line_no, what)


def parse_stp(text: Union[str, bytes], name: str = "") -> SteinerInstance:
    """Parse an STP document into a SteinerInstance.

    Terminals keep file order (root selection depends on it).  Duplicate
    edges keep the cheaper cost; self-loop lines are dropped.  A missing
    magic line is tolerated with a warning.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    lines = text.splitlines()

    n = None
    declared_edges = None
    declared_terminals = None
    # cheapest cost per 0-based pair (u, v), u < v, in order of first occurrence
    cost: dict[tuple[int, int], int] = {}
    get = cost.get
    edge_count = 0  # E lines, self-loops and repeats included
    # ids range checked after the loop, each with its line number: E lines
    # met before the Nodes line as (line, u, v), T lines as (line, id), and
    # coordinates as id -> (line, vector)
    unranged: list[tuple[int, int, int]] = []
    term_lines: list[tuple[int, int]] = []
    coord_lines: dict[int, tuple[int, tuple[int, ...]]] = {}
    coord_dim = None
    total_cost = 0
    section = None
    saw_any = False

    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if section == "GRAPH" and tokens[0] in ("E", "e"):
            if len(tokens) != 4:
                raise StpSyntaxError(line_no, f"E line needs 3 fields, got {len(tokens) - 1}")
            try:
                u, v, c = int(tokens[1]), int(tokens[2]), int(tokens[3])
            except ValueError:
                # the same conversions again, now raising the named error
                u = _int_token(tokens[1], line_no, "node id")
                v = _int_token(tokens[2], line_no, "node id")
                c = _int_token(tokens[3], line_no, "edge cost")
            if c < 0:
                raise StpSyntaxError(line_no, f"negative edge cost {c}")
            total_cost += c
            if total_cost >= MAX_TOTAL_COST:
                raise StpSyntaxError(line_no, "edge costs sum to 2^60 or more")
            if n is None:
                unranged.append((line_no, u, v))
            elif not (0 < u <= n and 0 < v <= n):
                raise StpSyntaxError(line_no, f"edge ({u}, {v}) outside 1..{n}")
            edge_count += 1
            if u != v:
                pair = (u - 1, v - 1) if u < v else (v - 1, u - 1)
                old = get(pair)
                if old is None or c < old:
                    cost[pair] = c
            continue
        key = tokens[0].upper()
        if not saw_any:
            saw_any = True
            if key.startswith("33D32945"):
                continue
            warnings.warn("missing STP magic line, parsing anyway", StpFormatWarning)
        if key == "SECTION":
            if len(tokens) < 2:
                raise StpSyntaxError(line_no, "SECTION without a name")
            section = tokens[1].upper()
            continue
        if key == "END":
            section = None
            continue
        if key == "EOF":
            break
        if section == "COMMENT" or section is None:
            continue
        if section == "GRAPH":
            if key == "NODES":
                count = _arg_token(tokens, line_no, "node count")
                if not 1 <= count <= MAX_NODES:
                    raise StpSyntaxError(line_no, f"node count {count} outside 1..{MAX_NODES}")
                if n is not None and count != n:
                    raise StpSyntaxError(line_no, f"node count {count} differs from the earlier {n}")
                n = count
            elif key == "EDGES" or key == "ARCS":
                declared_edges = _arg_token(tokens, line_no, "edge count")
            else:
                raise StpSyntaxError(line_no, f"unexpected keyword {tokens[0]!r} in Graph section")
        elif section == "TERMINALS":
            if key == "TERMINALS":
                declared_terminals = _arg_token(tokens, line_no, "terminal count")
            elif key == "T":
                term_lines.append((line_no, _arg_token(tokens, line_no, "terminal id")))
            else:
                raise StpSyntaxError(line_no, f"unexpected keyword {tokens[0]!r} in Terminals section")
        elif section == "COORDINATES":
            if set(key) == {"D"} and len(key) >= 2:
                dim = len(key)
                if coord_dim is None:
                    coord_dim = dim
                elif coord_dim != dim:
                    raise StpSyntaxError(line_no, "mixed coordinate dimensions")
                if len(tokens) != dim + 2:
                    raise StpSyntaxError(line_no, f"{key} line needs {dim + 1} fields")
                vid = _int_token(tokens[1], line_no, "node id")
                coord_lines[vid] = (line_no, tuple(
                    _int_token(t, line_no, "coordinate") for t in tokens[2:]
                ))
            else:
                raise StpSyntaxError(line_no, f"unexpected keyword {tokens[0]!r} in Coordinates section")
        # unknown sections are skipped wholesale

    if n is None:
        raise StpSyntaxError(0, "no Nodes declaration found")
    if declared_edges is not None and declared_edges != edge_count:
        raise CountMismatch(
            f"declared {declared_edges} edges but found {edge_count} E lines"
        )
    if declared_terminals is not None and declared_terminals != len(term_lines):
        raise CountMismatch(
            f"declared {declared_terminals} terminals but found {len(term_lines)} T lines"
        )
    if not term_lines:
        raise StpSyntaxError(0, "no terminals")

    for line_no, u, v in unranged:
        if not (1 <= u <= n and 1 <= v <= n):
            raise StpSyntaxError(line_no, f"edge ({u}, {v}) outside 1..{n}")
    graph = Graph._from_costs(n, cost)

    terminals = []
    seen = set()
    for line_no, t in term_lines:
        if not (1 <= t <= n):
            raise StpSyntaxError(line_no, f"terminal {t} outside 1..{n}")
        if t - 1 not in seen:
            seen.add(t - 1)
            terminals.append(t - 1)

    coords = None
    if coord_lines:
        coords = [None] * n
        for vid, (line_no, vec) in coord_lines.items():
            if not (1 <= vid <= n):
                raise StpSyntaxError(line_no, f"coordinate node {vid} outside 1..{n}")
            coords[vid - 1] = vec
        missing = coords.count(None)
        if missing:
            # partial coordinates: only usable if every terminal has one
            if any(coords[t] is None for t in terminals):
                coords = None
    return SteinerInstance(graph=graph, terminals=terminals, name=name, coords=coords)


def instance_name(path) -> str:
    """An instance's name: its file name without the ``.stp`` suffix."""
    name = str(path).rsplit("/", 1)[-1]
    return name[:-4] if name.endswith(".stp") else name


def parse_stp_file(path) -> SteinerInstance:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_stp(data, name=instance_name(path))


def write_stp(instance: SteinerInstance, out: TextIO) -> None:
    """Write an instance as STP text (always with the magic line) to a text
    stream, each line as it is formed, so the text is never held whole."""
    write = out.write
    write(f'{MAGIC}\n\nSECTION Comment\nName    "{instance.name or "unnamed"}"\n'
          f"END\n\nSECTION Graph\nNodes {instance.n}\nEdges {instance.m}\n")
    # the cost dict is read in place, not copied
    for (u, v), c in instance.graph._edge_cost.items():
        write(f"E {u + 1} {v + 1} {c}\n")
    write(f"END\n\nSECTION Terminals\nTerminals {instance.k}\n")
    for t in instance.terminals:
        write(f"T {t + 1}\n")
    write("END\n")
    coords = instance.coords
    if coords is not None and any(vec is not None for vec in coords):
        prefix = "D" * len(next(vec for vec in coords if vec is not None))
        write("\nSECTION Coordinates\n")
        for v, vec in enumerate(coords):
            if vec is not None:
                write(f"{prefix} {v + 1} " + " ".join(str(x) for x in vec) + "\n")
        write("END\n")
    write("\nEOF\n")


@dataclass
class SolutionRecord:
    """One solved instance: optimum cost, tree, and run configuration."""

    instance: str
    n: int
    m: int
    k: int
    opt: int
    edges: list[tuple[int, int]] = field(default_factory=list)
    config: str = ""
    time_ms: float = 0.0
    labels: int = 0
    stats: Optional[object] = None  # SolveStats; JSON only, never read back

    def summary_row(self) -> list[str]:
        return [f"{self.time_ms:.3f}" if f == "time_ms" else str(getattr(self, f))
                for f in CSV_HEADER]


def write_solution(record: SolutionRecord, format: str = "json") -> str:
    """Serialize a record.  JSON holds the fields in their declared order,
    ``stats`` (the SolveStats counters and ``phase_ms``) only when the record
    has stats; CSV holds the ``CSV_HEADER`` fields, never the stats."""
    if format == "json":
        payload = asdict(record)
        if record.stats is None:
            del payload["stats"]
        return json.dumps(payload, indent=2) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerow(record.summary_row())
        return buf.getvalue()
    raise ValueError(f"unknown format {format!r}")


def _field(record: dict, name: str, kind: type):
    try:
        value = record[name]
    except KeyError:
        raise ValueError(f"solution record has no {name!r} field") from None
    # type() rather than isinstance(): JSON true/false are not counts
    if type(value) is not kind:
        raise ValueError(f"solution record's {name!r} is not {kind.__name__}")
    return value


def read_solution(text: str) -> SolutionRecord:
    """Parse a JSON record written by ``write_solution``; a missing required
    field, one of the wrong type, or ``edges`` that is not a list of
    two-int pairs, raises ValueError naming it."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("solution record is not a JSON object")
    edges = payload.get("edges", [])
    # type() rather than isinstance(): JSON true/false are not vertices
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2
            and type(e[0]) is int and type(e[1]) is int for e in edges):
        raise ValueError("solution record's 'edges' is not a list of [u, v] int pairs")
    return SolutionRecord(
        instance=_field(payload, "instance", str),
        n=_field(payload, "n", int),
        m=_field(payload, "m", int),
        k=_field(payload, "k", int),
        opt=_field(payload, "opt", int),
        edges=[(u, v) for u, v in edges],
        config=payload.get("config", ""),
        time_ms=payload.get("time_ms", 0.0),
        labels=payload.get("labels", 0),
    )
