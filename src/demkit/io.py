"""Edge-list text format, label remapping, and DOT export.

Format: optional `# key=value` comment lines, then a header `n m`, then m
lines `u v`.  Labels may be arbitrary whitespace-free tokens; they are
remapped to dense 0-based ids at ingestion and the mapping is retained so
reports can speak the caller's vocabulary.  The header's n and m are held
to the size cap that the generators use too (graph._SIZE_CAP vertices and
edges) before any list n long is built.  Canonical output sorts edges
lexicographically by id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import FormatError
from .graph import Graph, _check_size, _outside

_RESERVED_KEYS = {"family", "params", "seed"}


@dataclass
class LoadedGraph:
    """A parsed graph plus its label table and any designated roles."""

    graph: Graph
    labels: Optional[list] = None  # id -> original token; None means identity
    roles: dict = field(default_factory=dict)

    def label(self, v: int):
        return self.labels[v] if self.labels is not None else v

    def resolve(self, token: str) -> int:
        """Map an input token back to a vertex id.

        On a labelled graph only a label names a vertex, so a number that is
        no label is rejected rather than read as an internal id.
        """
        if self.labels is not None:
            v = self._ids.get(token)
            if v is None:
                raise FormatError(f"unknown vertex label {token!r}")
            return v
        try:
            v = int(token)
        except ValueError:
            raise FormatError(f"unknown vertex label {token!r}")
        if not (0 <= v < self.graph.n):
            raise FormatError(_outside(f"vertex {v}", self.graph.n))
        return v

    @cached_property
    def _ids(self) -> dict:
        """label -> id.  A label held twice (a token that reads like a
        synthetic `_isolated<id>` label) maps to its first id, as
        list.index would."""
        ids: dict = {}
        for v, label in enumerate(self.labels):
            ids.setdefault(label, v)
        return ids


_ID = "(?:0|[1-9][0-9]*)"
# demkit's own form, as format_edgelist writes it: `#` comment lines, the
# header `n m`, then `u v` lines of decimal ids, each line ended by one
# "\n".  A comment holds none of the other line breaks that str.splitlines
# knows, so that the lines read here are the lines the line reader reads.
_CANONICAL = re.compile(
    rf"((?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*\n)*)({_ID}) ({_ID})\n((?:{_ID} {_ID}\n)*)"
)


def parse_edgelist(text: str) -> LoadedGraph:
    """Parse the edge-list format; raises FormatError on malformed input.

    demkit's own form is read in one pass.  Any other text goes to the
    line reader, and so does a canonical text whose header miscounts the
    edges or whose ids are labels (one is n or more): that reader alone
    reads labels and words the errors.
    """
    match = _CANONICAL.fullmatch(text)
    if match is not None:
        comments, n, m, body = match.groups()
        try:
            n, m, ids = int(n), int(m), list(map(int, body.split()))
        except ValueError:  # more digits than int() converts
            return _parse_lines(text)
        _check_size("edge-list", n, m)
        if len(ids) == 2 * m and (not ids or max(ids) < n):
            comments = [line[1:].strip() for line in comments.splitlines()]
            return _loaded(n, list(zip(ids[::2], ids[1::2])), None, comments)
    return _parse_lines(text)


def _parse_lines(text: str) -> LoadedGraph:
    """The line reader: any line breaks, blank lines, comments anywhere,
    runs of whitespace and labels."""
    comments = []
    data_lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        else:
            data_lines.append(line)
    if not data_lines:
        raise FormatError("missing 'n m' header line")
    head = data_lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {data_lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"header must be two integers, got {data_lines[0]!r}")
    if n < 0 or m < 0:
        raise FormatError("header counts must be nonnegative")
    _check_size("edge-list", n, m)
    if len(data_lines) - 1 != m:
        raise FormatError(f"header declares {m} edges but {len(data_lines) - 1} lines follow")
    tokens = []
    for line in data_lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must be 'u v', got {line!r}")
        tokens += parts

    labels, id_edges = _map_labels(n, tokens)
    return _loaded(n, id_edges, labels, comments)


def _loaded(n: int, id_edges: list, labels, comments: list) -> LoadedGraph:
    loaded = LoadedGraph(graph=Graph(n, id_edges), labels=labels)
    loaded.roles = _parse_roles(comments, loaded)
    return loaded


def _map_labels(n: int, tokens: list):
    """Identity mapping when all tokens are canonical ids, else first-seen order.

    tokens lists the endpoints of the edges, two per edge.  A token is a
    canonical id when it is the decimal form of an int in 0..n-1, so `007`,
    `+1`, `1_0` and `-0` are labels, though int() reads them.
    """
    try:
        ids = list(map(int, tokens))
    except ValueError:
        ids = None
    if ids is not None and list(map(str, ids)) == tokens and (
        not ids or (min(ids) >= 0 and max(ids) < n)
    ):
        return None, list(zip(ids[::2], ids[1::2]))
    table: dict = {}
    for tok in tokens:
        if tok not in table:
            if len(table) == n:
                raise FormatError(f"more than {n} distinct labels in edge list")
            table[tok] = len(table)
    labels = [None] * n
    for tok, idx in table.items():
        labels[idx] = tok
    # Unreferenced (isolated) vertices get synthetic labels.
    for idx in range(n):
        if labels[idx] is None:
            labels[idx] = f"_isolated{idx}"
    ids = list(map(table.__getitem__, tokens))
    return labels, list(zip(ids[::2], ids[1::2]))


def _parse_roles(comments, loaded: LoadedGraph) -> dict:
    """The `key=value` comments whose value names a vertex of `loaded`, as
    LoadedGraph.resolve reads it: key -> id.  Reserved keys, keys with a
    space and values that name no vertex are skipped."""
    roles = {}
    for c in comments:
        if "=" not in c:
            continue
        key, _, value = c.partition("=")
        key = key.strip()
        if not key or key in _RESERVED_KEYS or " " in key:
            continue
        try:
            roles[key] = loaded.resolve(value.strip())
        except FormatError:
            continue
    return roles


def load_edgelist(path) -> LoadedGraph:
    """Read and parse an edge-list file, which must be UTF-8 text.

    The bytes are decoded whole, so a decoding error names its offset in
    the file.  Line breaks are left to the parser, which reads CR LF and a
    lone CR as line ends too.
    """
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: byte {exc.start} is not UTF-8") from None
    return parse_edgelist(text)


def format_edgelist(g: Graph, header_comments=(), roles=None) -> str:
    """Canonical serialization: comments, roles, 'n m', edges in id order."""
    lines = [f"# {c}" for c in header_comments]
    for role in sorted(roles or {}):
        lines.append(f"# {role}={roles[role]}")
    lines.append(f"{g.n} {g.m}")
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def write_edgelist(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(format_edgelist(g))


def _dot_id(name) -> str:
    """name as a quoted DOT ID: a backslash or quote in it is escaped, so
    the ID ends at its own closing quote."""
    return '"' + str(name).replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(
    g: Graph,
    label=lambda v: v,
    monitors=(),
    highlight_edges=(),
    uncovered_edges=(),
) -> str:
    """Graphviz output with monitor vertices filled and uncovered edges dashed.

    label maps a vertex id to the name drawn, as in the to_json serializers.
    """
    monitors = set(monitors)
    highlight = {tuple(sorted(e)) for e in highlight_edges}
    uncovered = {tuple(sorted(e)) for e in uncovered_edges}
    lines = ["graph G {"]
    for v in range(g.n):
        attrs = []
        if v in monitors:
            attrs.append('style=filled fillcolor="lightblue"')
        attr_str = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_id(label(v))}{attr_str};")
    for e in g.edges():
        attrs = []
        if e in uncovered:
            attrs.append('color="red" style=dashed')
        elif e in highlight:
            attrs.append("penwidth=2")
        attr_str = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_id(label(e[0]))} -- {_dot_id(label(e[1]))}{attr_str};")
    lines.append("}")
    return "\n".join(lines) + "\n"
