import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import FormatError, Graph
from demkit import generators as gen
from demkit import io as demkit_io
from demkit.cli import main
from demkit.io import format_edgelist, load_edgelist, parse_edgelist, to_dot, write_edgelist

from oracles import graph_reference, parse_edgelist_reference


class TestParse:
    def test_roundtrip(self, tmp_path):
        g = gen.petersen().graph
        path = tmp_path / "petersen.el"
        write_edgelist(path, g)
        loaded = load_edgelist(path)
        assert loaded.graph == g
        assert loaded.labels is None

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n3 2\n0 1\n\n1 2\n"
        assert parse_edgelist(text).graph.m == 2

    def test_arbitrary_labels_remapped(self):
        text = "3 3\nalpha beta\nbeta gamma\ngamma alpha\n"
        loaded = parse_edgelist(text)
        assert loaded.graph.n == 3 and loaded.graph.m == 3
        assert loaded.labels == ["alpha", "beta", "gamma"]
        assert loaded.resolve("gamma") == 2

    def test_roles_parsed(self):
        text = "# family=double_star\n# center1=0\n# center2=1\n4 3\n0 1\n0 2\n1 3\n"
        loaded = parse_edgelist(text)
        assert loaded.roles == {"center1": 0, "center2": 1}

    def test_roles_with_labels(self):
        text = "# hub=b\n3 2\na b\nb c\n"
        loaded = parse_edgelist(text)
        assert loaded.roles == {"hub": loaded.resolve("b")}

    def test_header_mismatch(self):
        with pytest.raises(FormatError):
            parse_edgelist("2 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_edgelist("two vertices\n0 1\n")
        with pytest.raises(FormatError):
            parse_edgelist("")

    def test_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_bytes(b"3 2\n0 1\n1 \xff2\n")
        with pytest.raises(FormatError, match="bad.el: byte 10 is not UTF-8"):
            load_edgelist(path)

    def test_bad_edge_line(self):
        with pytest.raises(FormatError):
            parse_edgelist("2 1\n0 1 2\n")

    def test_too_many_labels(self):
        with pytest.raises(FormatError):
            parse_edgelist("2 2\na b\nc d\n")

    def test_numeric_out_of_range_becomes_label(self):
        # "5" is not a canonical id for n=3, so it is treated as a label
        loaded = parse_edgelist("3 2\n5 1\n1 2\n")
        assert loaded.labels == ["5", "1", "2"]

    def test_number_that_is_no_label_is_rejected(self):
        # On a labelled graph a number names a vertex only as its label,
        # never as the internal id; plain ids resolve as ids.
        loaded = parse_edgelist("3 2\n2 1\n1 x\n")
        assert loaded.labels == ["2", "1", "x"]
        assert [loaded.resolve(t) for t in ("2", "1", "x")] == [0, 1, 2]
        for token in ("0", "3", "01", "y"):
            with pytest.raises(FormatError, match=f"unknown vertex label '{token}'"):
                loaded.resolve(token)
        plain = parse_edgelist("3 2\n0 1\n1 2\n")
        assert plain.labels is None and plain.resolve("2") == 2
        with pytest.raises(FormatError, match="vertex 3 outside 0..2"):
            plain.resolve("3")

    def test_labels_resolve_like_list_index(self):
        # A path on 2,000 labelled vertices, named in a shuffled order.
        n = 2000
        names = [f"v{i}" for i in random.Random(8).sample(range(n), n)]
        body = "".join(f"{a} {b}\n" for a, b in zip(names, names[1:]))
        loaded = parse_edgelist(f"# hub={names[1234]}\n{n} {n - 1}\n{body}")
        assert [loaded.resolve(t) for t in names] == [loaded.labels.index(t) for t in names]
        assert loaded.roles == {"hub": 1234}
        # A token that reads like a synthetic label names its first holder.
        loaded = parse_edgelist("# hub=_isolated3\n4 1\na _isolated3\n")
        assert loaded.labels == ["a", "_isolated3", "_isolated2", "_isolated3"]
        assert loaded.resolve("_isolated3") == 1 == loaded.roles["hub"]

    @pytest.mark.parametrize(
        "comment,roles",
        [
            ("hub=+1", {"hub": 1}),
            ("hub=٣", {"hub": 3}),
            ("hub=04", {"hub": 4}),
            ("hub = 2", {"hub": 2}),
            ("hub=-1", {}),
            ("hub=5", {}),
            ("hub=1_0", {}),
            ("hub=", {}),
            ("hub", {}),
            ("=1", {}),
            ("a b=1", {}),
            ("family=1", {}),
            ("params=1", {}),
            ("seed=1", {}),
        ],
    )
    def test_role_values_on_ids(self, comment, roles):
        # An id role is read as int() reads it, in range; reserved keys,
        # keys with a space and values naming no vertex are dropped.
        assert parse_edgelist(f"# {comment}\n5 4\n0 1\n1 2\n2 3\n3 4\n").roles == roles

    @pytest.mark.parametrize(
        "text,roles",
        [
            ("# hub=2\n3 2\n2 1\n1 x\n", {"hub": 0}),
            ("# hub=x\n3 2\n2 1\n1 x\n", {"hub": 2}),
            ("# hub=0\n3 2\n2 1\n1 x\n", {}),
            ("# hub=3\n3 2\n2 1\n1 x\n", {}),
            ("# hub=02\n3 2\n2 1\n1 x\n", {}),
            ("# hub=_isolated3\n4 1\na b\n", {"hub": 3}),
            ("# hub=_isolated1\n4 1\na b\n", {}),
            ("# hub=3\n4 1\na b\n", {}),
        ],
    )
    def test_role_values_on_labels(self, text, roles):
        # On a labelled graph a role names a vertex only by its label: a
        # number that is no label is dropped, not read as an id.
        assert parse_edgelist(text).roles == roles

    def test_later_role_wins_unless_dropped(self):
        text = "# hub=1\n# hub=9\n# rim=4\n# hub=2\n5 4\n0 1\n1 2\n2 3\n3 4\n"
        assert parse_edgelist(text).roles == {"hub": 2, "rim": 4}


class TestFormat:
    def test_canonical_sorting(self):
        g = gen.cycle(4).graph
        text = format_edgelist(g)
        lines = text.strip().splitlines()
        assert lines[0] == "4 4"
        assert lines[1:] == ["0 1", "0 3", "1 2", "2 3"]

    def test_roles_and_comments_emitted(self):
        inst = gen.double_star(1, 1)
        text = format_edgelist(
            inst.graph, header_comments=["family=double_star"], roles=inst.designated
        )
        assert "# family=double_star" in text
        assert "# center1=0" in text
        # and it parses back
        loaded = parse_edgelist(text)
        assert loaded.roles == {"center1": 0, "center2": 1}
        assert loaded.graph == inst.graph

    def test_dot_output(self):
        g = gen.cycle(4).graph
        dot = to_dot(g, monitors=[0], uncovered_edges=[(1, 2)], highlight_edges=[(0, 1)])
        assert "graph G {" in dot
        assert 'fillcolor="lightblue"' in dot
        assert 'color="red" style=dashed' in dot
        assert "penwidth=2" in dot

    def test_dot_escapes_quotes_and_backslashes(self, capsys, tmp_path):
        # A label may hold `"` or `\`: each quoted ID must end at its own
        # closing quote and read back as the label.
        f = tmp_path / "quotes.el"
        f.write_text('3 3\na"b c\nc d\\e\nd\\e a"b\n')
        assert main(["em", str(f), "--vertex", 'a"b', "--format", "dot"]) == 0
        out = capsys.readouterr().out
        quoted = r'"((?:[^"\\]|\\.)*)"'
        statement = re.compile(rf"  {quoted}(?: -- {quoted})?(?: \[[^\]]*\])?;")
        names = set()
        for line in out.splitlines()[1:-1]:
            match = statement.fullmatch(line)
            assert match, line
            names.update(re.sub(r"\\(.)", r"\1", g) for g in match.groups() if g is not None)
        assert names == {'a"b', "c", "d\\e"}


class TestOnePassReader:
    # Every text that demkit writes is read without the line reader, so a
    # writer that strays from the one-pass form fails here rather than
    # silently slowing every load.
    @pytest.fixture
    def no_line_reader(self, monkeypatch):
        def refuse(text):
            raise AssertionError(f"line reader called on {text[:40]!r}")

        monkeypatch.setattr(demkit_io, "_parse_lines", refuse)

    def test_format_edgelist_texts(self, no_line_reader):
        tree = gen.random_tree(800, 5)
        chords = [(0, 400), (17, 799), (250, 612), (3, 4)]
        star = gen.double_star(3, 2)
        cases = [
            (Graph(0), (), {}),
            (Graph(3), ("no edges",), {}),
            (gen.grid(35, 35).graph, (), {}),
            (Graph(800, list(tree.edges()) + chords), ("tree:800 seed=5 chords=4",), {}),
            (star.graph, ("family=double_star", "# nested", ""), star.designated),
        ]
        for g, comments, roles in cases:
            loaded = parse_edgelist(format_edgelist(g, comments, roles))
            assert (loaded.graph, loaded.labels, loaded.roles) == (g, None, roles)

    @pytest.mark.parametrize("spec", ["grid:35,35", "tree:800", "doublestar:3,2", "ad:3,2,1"])
    def test_gen_files(self, no_line_reader, tmp_path, spec):
        path = tmp_path / "g.el"
        assert main(["gen", spec, "--seed", "3", "--output", str(path)]) == 0
        loaded = load_edgelist(path)
        assert loaded.labels is None and loaded.graph.n > 0


def _outcome(parse, text):
    """What parse makes of text: the loaded graph, labels and roles, or the
    type and message of the error it raises."""
    try:
        loaded = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    g = loaded.graph
    return g.n, g._adj, g.m, loaded.labels, loaded.roles


# Tokens that int() reads but that are not the decimal form of an id, ids
# inside and outside small ranges, and plain labels.
_TOKENS = st.one_of(
    st.sampled_from(["007", "+1", "1_0", "-0", "\u0663", "-1", "10", "99", "a", "b", "c"]),
    st.integers(0, 7).map(str),
)
_SPACE = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _edge_list_texts(draw):
    """Edge-list texts: mostly well formed, with 1- and 3-token lines,
    duplicate, reversed and self-loop edges, blank and comment lines, and
    bad or wrong headers."""
    n = draw(st.integers(0, 12))
    kinds = ["edge"] * 8 + ["repeat"] * 2 + ["blank", "comment"]
    if draw(st.sampled_from([False] * 3 + [True])):
        kinds += ["one", "three"]
    body = []  # (is a data line, the line)
    pairs = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "edge" or (kind == "repeat" and not pairs):
            pairs.append((draw(_TOKENS), draw(_TOKENS)))
            body.append((True, " ".join(pairs[-1])))
        elif kind == "repeat":
            # An earlier edge again, either way round.
            u, v = draw(st.sampled_from(pairs))
            body.append((True, draw(st.sampled_from([f"{u} {v}", f"{v} {u}"]))))
        elif kind == "one":
            body.append((True, draw(_TOKENS)))
        elif kind == "three":
            body.append((True, " ".join(draw(st.lists(_TOKENS, min_size=3, max_size=3)))))
        elif kind == "blank":
            body.append((False, draw(_SPACE)))
        else:
            key = draw(st.sampled_from(["hub", "family", "a b", "", "seed"]))
            body.append((False, f"# {key}={draw(_TOKENS)}"))
    m = sum(edge for edge, _ in body)
    header = draw(st.sampled_from([f"{n} {m}"] * 14 + [
        f"{n} {m + 1}", f"{n}", f"{n} {m} 0", "two vertices", f"-1 {m}", f"{n} -1", f"{n} 0x1",
    ]))
    lines = [header] + [line for _, line in body]
    if draw(st.booleans()):
        lines.insert(0, "# " + draw(st.sampled_from(["comment", "hub=0", "x=\u0663"])))
    if draw(st.sampled_from([False] * 20 + [True])):
        lines = []
    return "\n".join(draw(_SPACE) + line + draw(_SPACE) for line in lines) + "\n"


@st.composite
def _canonical_texts(draw):
    """What format_edgelist writes: random graphs on 0-10 vertices, with
    and without header comments and roles."""
    n = draw(st.integers(0, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v and max(u, v) < n}
    comments = draw(st.lists(
        st.sampled_from(["family=tree", "params=n=5", "seed=1", "a comment", "", " hub = 1 "]),
        max_size=3,
    ))
    roles = draw(st.dictionaries(
        st.sampled_from(["hub", "center1", "rim"]), st.integers(0, max(n - 1, 0)), max_size=2,
    )) if n else {}
    return format_edgelist(Graph(n, edges), header_comments=comments, roles=roles)


# Line breaks that str.splitlines honours besides "\n".
_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def _mutated_texts(draw):
    """A canonical text with one mutation: another line break, a tab or a
    double space, a token with a leading zero or sign, no final newline, a
    blank line, a comment in the body, a duplicate edge, a self-loop, an
    out-of-range id, or m off by one."""
    lines = draw(_canonical_texts()).split("\n")[:-1]
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    n, m = map(int, lines[head].split())
    body = lines[head + 1:]
    line = draw(st.integers(0, len(lines) - 1))
    data = draw(st.integers(head, len(lines) - 1))
    kind = draw(st.sampled_from(
        _BREAKS + ["\t", "  ", "007", "+1", "final", "blank", "comment",
                   "duplicate", "self-loop", "range", "m+1", "m-1"]
    ))
    added = None
    if kind in _BREAKS:
        return "\n".join(lines[:line + 1]) + kind + "\n".join(lines[line + 1:]) + "\n"
    if kind in ("\t", "  "):
        lines[data] = lines[data].replace(" ", kind, 1)
    elif kind in ("007", "+1"):
        tokens = lines[data].split(" ")
        at = draw(st.integers(0, 1))
        tokens[at] = ("00" if kind == "007" else "+") + tokens[at]
        lines[data] = " ".join(tokens)
    elif kind == "final":
        return "\n".join(lines)
    elif kind == "blank":
        lines.insert(line + 1, "")
    elif kind == "comment":
        lines.insert(draw(st.integers(head + 1, len(lines))), "# hub=0")
    elif kind == "duplicate":
        added = draw(st.sampled_from(body)) if body else "0 1"
    elif kind == "self-loop":
        v = draw(st.integers(0, max(n - 1, 0)))
        added = f"{v} {v}"
    elif kind == "range":
        added = f"0 {n + draw(st.integers(0, 2))}"
    else:
        lines[head] = f"{n} {m + (1 if kind == 'm+1' else -1)}"
    if added is not None:
        lines[head] = f"{n} {m + 1}"
        lines.insert(draw(st.integers(head + 1, len(lines))), added)
    return "\n".join(lines) + "\n"


class TestLoaderParity:
    # The loader reads the tokens and builds the graph in bulk; it must load
    # what the line-by-line loader loaded, or fail with its error.
    @settings(max_examples=600, deadline=None)
    @given(_edge_list_texts())
    def test_same_graph_labels_roles_or_error(self, text):
        assert _outcome(parse_edgelist, text) == _outcome(parse_edgelist_reference, text)

    @settings(max_examples=100, deadline=None)
    @given(_canonical_texts())
    def test_canonical_texts(self, text):
        assert _outcome(parse_edgelist, text) == _outcome(parse_edgelist_reference, text)

    @settings(max_examples=300, deadline=None)
    @given(_mutated_texts())
    def test_mutated_canonical_texts(self, text):
        assert _outcome(parse_edgelist, text) == _outcome(parse_edgelist_reference, text)

    @pytest.mark.parametrize("text", [
        "3 2\n007 1\n1 2\n",
        "3 1\n+1 1_0\n",
        "2 1\n-0 0\n",
        "4 1\n\u0663 0\n",
        "3 2\n0 1\n1 1\n",
        "3 1\n1 1\n",
        "3 3\n0 1\n1 0\n0 1\n",
        "2 1\n0 1 2\n",
        "2 2\na b\nc d\n",
        "x y\n0 1\n",
        "# hub=1\n\n  3 2  \n0 1\n\n# a comment\n1 2\n",
        "0 0\n",
        # str.splitlines ends a line at each of these breaks, not only at "\n".
        "# hub=4\x852 1\n5 1\n1 2\n",
        *[f"# c{brk}3 1\n5 1\n1 2\n" for brk in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"],
    ])
    def test_named_texts(self, text):
        assert _outcome(parse_edgelist, text) == _outcome(parse_edgelist_reference, text)

    def test_more_digits_than_int_reads(self):
        # int() refuses a decimal string past 4,300 digits, in the header
        # or as an id.
        big = "1" + "0" * 5000
        for text in (f"{big} 0\n", f"3 1\n0 {big}\n"):
            assert _outcome(parse_edgelist, text) == _outcome(parse_edgelist_reference, text)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 6),
        st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=12),
    )
    def test_graph_same_adjacency_or_error(self, n, edges):
        # Range first, then self-loops, edge by edge: the first bad edge
        # decides the error and its message.
        def build(make):
            try:
                g = make(n, edges)
            except Exception as exc:
                return type(exc), str(exc)
            return g.n, g._adj, g.m

        assert build(Graph) == build(graph_reference)
