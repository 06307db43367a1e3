import contextlib
import hashlib
import io
import json
import random
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demkit import cli, solvers, structural
from demkit.cli import FORMATS, _build_parser, main
from demkit.io import parse_edgelist

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate_report(payload: dict) -> None:
    """Check a JSON report against its command's schema."""
    schema = dict(SCHEMA["commands"][payload["command"]])
    schema["$defs"] = SCHEMA["$defs"]
    jsonschema.validate(payload, schema)


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code in (0, 4)
    payload = json.loads(out)
    validate_report(payload)
    return code, payload


class TestDemCommand:
    def test_complete7(self, capsys):
        code, payload = run_json(capsys, "dem", "--gen", "complete:7")
        assert code == 0
        assert payload["results"]["exact"]["value"] == 6

    def test_path9_tree(self, capsys):
        _, payload = run_json(capsys, "dem", "--gen", "path:9")
        assert payload["results"]["exact"]["value"] == 1

    def test_grid_both_methods(self, capsys):
        _, payload = run_json(capsys, "dem", "--gen", "grid:4,4", "--method", "both")
        exact = payload["results"]["exact"]["value"]
        greedy = payload["results"]["greedy"]["value"]
        assert exact == 4 and greedy >= exact

    def test_budget_exit_code(self, capsys):
        code, payload = run_json(capsys, "dem", "--gen", "complete:8", "--budget", "1")
        assert code == 4
        assert payload["results"]["exact"]["stats"]["budget_exhausted"] is True

    def test_negative_budget_is_parameter_error(self, capsys):
        code, out = run_cli(capsys, "dem", "--gen", "cycle:5", "--budget", "-5")
        assert code == 2 and out == ""

    def test_malformed_gen_params_are_parameter_errors(self, capsys):
        for spec in ("ad:x,2", "random:10,abc", "tree:x"):
            code, out = run_cli(capsys, "dem", "--gen", spec)
            assert code == 2 and out == "", spec

    def test_hopeless_random_spec_exits_2_at_once(self, capsys, monkeypatch):
        # One sample of G(30, 0.01) has the 29 edges a connected graph
        # needs with probability under 1e-13, so no sample is drawn.
        monkeypatch.setattr(random.Random, "random", lambda self: pytest.fail("sampled"))
        code = main(["dem", "--gen", "random:30,0.01"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "could not sample a connected graph with n=30, p=0.01" in captured.err

    def test_no_timing_in_output(self, capsys):
        _, payload = run_json(capsys, "dem", "--gen", "cycle:5")
        assert "millis" not in payload["results"]["exact"]["stats"]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_builds_no_certificate(self, capsys, monkeypatch, fmt):
        # Every answer monitors every edge, so no format, dot included,
        # asks is_monitoring_set which edges are left uncovered.
        calls = []
        for module in (cli, solvers, structural):
            monkeypatch.setattr(module, "is_monitoring_set", lambda g, ms: calls.append(ms))
        code, _ = run_cli(capsys, "dem", "--gen", "grid:4,4", "--method", "both", "--format", fmt)
        assert (code, calls) == (0, [])

    @pytest.mark.parametrize(
        "spec, digest",
        [
            ("grid:4,4", "0a5a3607104cf44e23bff69fe574c62ab9fe1ff5b349755c30dbab8f2a6188db"),
            ("petersen", "05d55143c305b64e558ff853f8da6378437ddb78bb8ba23d2a0c8a7be1b31147"),
        ],
    )
    def test_dot_golden(self, capsys, spec, digest):
        code, out = run_cli(capsys, "dem", "--gen", spec, "--format", "dot")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOtherCommands:
    def test_em_cycle(self, capsys):
        _, payload = run_json(capsys, "em", "--gen", "cycle:4", "--vertex", "0")
        assert payload["edges"] == [[0, 1], [0, 3]] and payload["size"] == 2

    def test_verify_k4(self, capsys):
        _, payload = run_json(capsys, "verify", "--gen", "complete:4", "--monitors", "0,1")
        assert payload["certificate"]["uncovered"] == [[2, 3]]
        assert payload["is_monitoring"] is False

    def test_verify_witnesses_golden(self, capsys):
        # SHA-256 of the full stdout; pins every witness pair verify prints.
        cases = {
            ("--gen", "grid:8,8", "--monitors", "all"): (
                "bd7fffc4c7c5156ec9ce078990a615be26cd7b3220dd463e74ef355721f26e48"
            ),
            (
                "--gen",
                "random:40,0.08",
                "--seed",
                "7",
                "--monitors",
                "0,3,5,8,11,13,17,19,22,25,28,31,34,37",
            ): "968c520fc54080f2e7b9e2e1271b7a30568c602ca075ed5b4d3561727dc4ff83",
        }
        for args, digest in cases.items():
            code, out = run_cli(capsys, "verify", *args)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, args

    def test_pset_double_star_centers(self, capsys):
        _, payload = run_json(
            capsys, "pset", "--gen", "doublestar:3,3", "--monitors", "all", "--edge", "centers"
        )
        assert payload["size"] == 32

    def test_bounds(self, capsys):
        _, payload = run_json(capsys, "bounds", "--gen", "complete:6")
        assert payload["density_lb"] == 3 and payload["vertex_cover_ub"] == 5

    def test_char_target1(self, capsys):
        _, payload = run_json(capsys, "char", "--gen", "path:6", "--target", "1")
        assert payload["is_tree"] and payload["dem_is_1"]

    def test_char_target2(self, capsys):
        _, payload = run_json(capsys, "char", "--gen", "cycle:6", "--target", "2")
        assert payload["found"] is True
        assert payload["report"]["tuple"] == [0, 2]
        assert payload["report"]["discrepancy"] is False

    def test_char_target2_explicit_tuple(self, capsys):
        _, payload = run_json(
            capsys, "char", "--gen", "cycle:6", "--target", "2", "--tuple", "0,1"
        )
        assert payload["found"] is True  # a report exists for the requested tuple
        assert payload["report"]["direct_check"] is False

    def test_char_tuple_skips_empty_items(self, capsys):
        # --tuple reads a comma list as --monitors and --edge do.
        expected = run_cli(capsys, "char", "--gen", "petersen", "--target", "2", "--tuple", "0,1")
        assert expected[0] == 0
        for text in ("0,1,", ",0,1", "0,,1", " 0 , 1 "):
            got = run_cli(capsys, "char", "--gen", "petersen", "--target", "2", "--tuple", text)
            assert got == expected, text

    @pytest.mark.parametrize("target, text", [("2", "0,1,2"), ("3", "0,1")])
    def test_char_tuple_size_follows_target(self, capsys, target, text):
        code = main(["char", "--gen", "petersen", "--target", target, "--tuple", text])
        assert code == 2
        assert capsys.readouterr().err == f"error: --tuple needs {target} vertices\n"

    def test_char_target3_emits_discrepancy(self, capsys):
        _, payload = run_json(capsys, "char", "--gen", "complete:4", "--target", "3")
        assert "discrepancy" in payload
        assert payload["report"]["direct_check"] is True

    def test_char_target3_tuple_golden(self, capsys):
        # SHA-256 of the full stdout for a triple that fails four rules, on a
        # graph whose base-graph ids differ from its input ids.
        code, out = run_cli(
            capsys, "char", "--gen", "random:14,0.2", "--seed", "3",
            "--target", "3", "--tuple", "0,6,12",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ec0f4c12ef9524a704dabdd1fefbc5b2a5e6b241a25af0c47ad973a789c3fdde"
        )

    def test_char_target3_no_triple(self, capsys):
        # base graph of cycle:3 has only 3 vertices; the one triple monitors
        _, payload = run_json(capsys, "char", "--gen", "cycle:3", "--target", "3")
        assert payload["found"] is True


class TestGenAndFiles:
    def test_gen_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "ds.el"
        code, _ = run_cli(capsys, "gen", "doublestar:2,2", "--output", str(out))
        assert code == 0
        text = out.read_text()
        assert "# family=double_star" in text and "# center1=0" in text
        code, payload = run_json(capsys, "dem", str(out))
        assert payload["results"]["exact"]["value"] == 1

    def test_gen_to_stdout_then_pset_centers(self, capsys, tmp_path):
        out = tmp_path / "ds.el"
        run_cli(capsys, "gen", "doublestar:3,2", "--output", str(out))
        _, payload = run_json(
            capsys, "pset", str(out), "--monitors", "all", "--edge", "centers"
        )
        assert payload["size"] == 24

    def test_vertex_of_empty_file_named_as_such(self, capsys, tmp_path):
        path = tmp_path / "empty.el"
        path.write_text("0 0\n")
        for argv in (["em", "--vertex", "0"], ["pset", "--monitors", "all", "--edge", "0,1"]):
            assert main([argv[0], str(path), *argv[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: vertex 0: the graph has no vertices\n"

    def test_header_past_the_cap_at_every_file_command(self, capsys, tmp_path):
        # A 20-digit n on a labelled file: one error line naming the cap,
        # where the label table used to end in an OverflowError.
        path = tmp_path / "huge.el"
        path.write_text("99999999999999999999 1\na b\n")
        for argv in (["dem"], ["em", "--vertex", "a"], ["pset", "--monitors", "all", "--edge", "a,b"],
                     ["verify", "--monitors", "all"], ["bounds"], ["char", "--target", "3"]):
            assert main([argv[0], str(path), *argv[1:]]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: edge-list graph too large"), argv
            assert captured.err.count("\n") == 1, argv

    def test_labelled_file(self, capsys, tmp_path):
        f = tmp_path / "lab.el"
        f.write_text("# hub=b\n3 2\na b\nb c\n")
        _, payload = run_json(capsys, "em", str(f), "--vertex", "b")
        assert payload["monitor"] == "b"
        assert payload["edges"] == [["a", "b"], ["b", "c"]]

    @pytest.mark.parametrize(
        "text, vertex",
        [("3 2\n2 1\n1 x\n", "0"), ("3 2\n10 20\n20 30\n", "1")],
        ids=["mixed", "numeric"],
    )
    def test_number_that_is_no_label_exits_2(self, capsys, tmp_path, text, vertex):
        # A labelled file names its vertices by label only: "0" and "1"
        # are not internal ids there.
        f = tmp_path / "lab.el"
        f.write_text(text)
        assert main(["em", str(f), "--vertex", vertex]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unknown vertex label '{vertex}'" in err

    def test_other_shapes_of_a_gen_file_answer_alike(self, capsys, tmp_path):
        # demkit's own form is read in one pass and any other shape line by
        # line; through main both give the same bytes and exit codes.
        gen_file = tmp_path / "gen.el"
        assert main(["gen", "random:14,0.3", "--seed", "2", "--output", str(gen_file)]) == 0
        text = gen_file.read_text()
        lines = text.splitlines(keepends=True)
        head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        copies = {
            "crlf": text.replace("\n", "\r\n"),
            "tabs": text.replace(" ", "\t"),
            "comment": "".join(lines[:head + 1] + ["# a comment in the body\n"] + lines[head + 1:]),
        }
        for command in (["dem"], ["verify", "--monitors", "all"]):
            want = run_cli(capsys, *command, str(gen_file))
            assert want[0] == 0
            for name, copy in copies.items():
                path = tmp_path / f"{name}.el"
                path.write_bytes(copy.encode())
                assert run_cli(capsys, *command, str(path)) == want, (command, name)

    def test_ad_seeded(self, capsys):
        code, out1 = run_cli(capsys, "gen", "ad:3,2,1", "--seed", "5")
        code, out2 = run_cli(capsys, "gen", "ad:3,2,1", "--seed", "5")
        assert out1 == out2


class TestDeterminismAndErrors:
    def test_byte_identical_reruns(self, capsys):
        outs = set()
        for _ in range(3):
            _, out = run_cli(capsys, "dem", "--gen", "petersen", "--method", "both")
            outs.add(out)
        assert len(outs) == 1

    def test_reused_parser_carries_no_flags(self, capsys):
        # The parser is built once per process; a flag given to one call
        # must not leak into the next, whatever the subcommand.
        calls = [
            ("dem", "--gen", "grid:4,4", "--budget", "1", "--format", "text"),
            ("em", "--gen", "cycle:6", "--vertex", "2", "--format", "csv"),
            ("dem", "--gen", "grid:4,4"),
        ]
        first = [run_cli(capsys, *argv) for argv in calls]
        assert [code for code, _ in first] == [4, 0, 0]
        assert json.loads(first[2][1])["results"]["exact"]["exact"] is True
        assert [run_cli(capsys, *argv) for argv in calls] == first
        assert _build_parser() is _build_parser()

    def test_parse_error_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("not a graph\n")
        code, _ = run_cli(capsys, "dem", str(bad))
        assert code == 2

    def test_missing_file_exit2(self, capsys):
        code, _ = run_cli(capsys, "dem", "/nonexistent/file.el")
        assert code == 2

    def test_unwritable_output_exit2(self, capsys, tmp_path):
        for argv in (("dem", "--gen", "cycle:5"), ("gen", "cycle:5")):
            code = main([*argv, "--output", str(tmp_path)])
            assert code == 2, argv
            assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, vertex", [("dot", "b"), ("text", "é"), ("csv", "é")])
    def test_stdout_that_cannot_encode_a_label_exits_2(self, capsys, monkeypatch, tmp_path,
                                                        fmt, vertex):
        f = tmp_path / "u.el"
        f.write_text("2 1\né b\n", encoding="utf-8")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(["em", str(f), "--vertex", vertex, "--format", fmt]) == 2
        stdout.flush()
        assert stdout.buffer.getvalue() == b""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ascii" in err and "--output" in err and "--format json" in err
        # JSON escapes the label, so the same stdout takes it.
        assert main(["em", str(f), "--vertex", vertex]) == 0
        stdout.flush()
        assert b'"\\u00e9"' in stdout.buffer.getvalue()

    def test_disconnected_exit3(self, capsys, tmp_path):
        f = tmp_path / "disc.el"
        f.write_text("4 2\n0 1\n2 3\n")
        for method in ("exact", "greedy", "both"):
            code, _ = run_cli(capsys, "dem", str(f), "--method", method)
            assert code == 3, method

    def test_char_needs_a_connected_graph_at_every_target(self, capsys, tmp_path):
        two_triangles = tmp_path / "disc.el"
        two_triangles.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        empty = tmp_path / "empty.el"
        empty.write_text("0 0\n")
        for target in ("1", "2", "3"):
            assert run_cli(capsys, "char", str(two_triangles), "--target", target) == (3, ""), target
            assert run_cli(capsys, "char", str(empty), "--target", target) == (2, ""), target

    def test_char_needs_an_edge_at_every_target(self, capsys, tmp_path):
        # As dem and bounds do: one vertex is a parameter error, two
        # isolated vertices a disconnected graph.
        one = tmp_path / "one.el"
        one.write_text("1 0\n")
        two = tmp_path / "two.el"
        two.write_text("2 0\n")
        for target in ("1", "2", "3"):
            assert main(["char", str(one), "--target", target]) == 2, target
            out, err = capsys.readouterr()
            assert out == "" and "at least one edge" in err, target
            assert run_cli(capsys, "char", str(two), "--target", target) == (3, ""), target

    def test_two_sources_rejected(self, capsys, tmp_path):
        f = tmp_path / "g.el"
        f.write_text("2 1\n0 1\n")
        code, _ = run_cli(capsys, "dem", str(f), "--gen", "complete:3")
        assert code == 2

    def test_no_source_rejected(self, capsys):
        code, _ = run_cli(capsys, "dem")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _ = run_cli(capsys, "gen", "mysterygraph:5")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "dem", "--gen", "cycle:4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert any("results.exact.value,2" in line for line in out.splitlines())

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "em", "--gen", "cycle:4", "--vertex", "0", "--format", "text")
        assert "size: 2" in out

    def test_dot_format(self, capsys):
        code, out = run_cli(capsys, "verify", "--gen", "complete:4", "--monitors", "0,1", "--format", "dot")
        assert code == 0
        assert out.startswith("graph G {")
        assert "style=dashed" in out  # the uncovered edge


# A labelled input whose tokens sort differently from their ids (first-seen
# order: t=0, q=1, m=2, ...) and whose pendant vertices t, d and e shift
# every base-graph id away from its input id.
LABELLED = """\
# center1=q
# center2=m
11 13
t q
q m
m k
k x
x b
b q
m w
w b
x d
d e
k r
r s
s k
"""

# SHA-256 of stdout per format (json, csv, text, dot); every call exits 0.
LABELLED_GOLDEN = {
    ("dem", "--method", "both"): (
        "d78e08ce3b2b08cbbd6782110a3daf9d5d47d76fd21a289ef454b9143f4432b1",
        "61b76abf2c4d6291c10787b007523c09cf6fb7e658f7c639e93bdc22abfa115d",
        "67dac212677c2144a9fa3a098c88084f297498655cb883e058e5d9aa43accc9a",
        "f0324291040874f07bb80469a8d62a643fa96f1a11e0bab3f34a4ac419e280ae",
    ),
    ("em", "--vertex", "x"): (
        "4aff861b3d0acf0c666b7b30f9d501e2eab839446e5899bbbbc20e2d2f610d5d",
        "c0dcb170060d9553383ac94421741e3ba227019cdf475e934671c3dcc9a7e6b9",
        "9e7e31c855868d29a191dd6180964734e1c0e53a4267c5d288f881716bc5659d",
        "6e2bb494873e9918d0471213c5194e0599dd8676159bd9608871c39116d693d1",
    ),
    ("pset", "--monitors", "all", "--edge", "centers"): (
        "2e15b7aedcb838e2ebcb51104166ae284d26d4d13b2ebf7a0e473856391c8bdc",
        "13b30af95dffd8f365331529ff103f49c7ff3ba5a7d19094fc37d8bb9bfc6d00",
        "07288b43cc6b0e814499c7027723779a8515c1187518cb1c592bbcaaa1c72471",
        "a6022c53904b6dbae0c757ce00436f7fc3d0842dd265e3414d1d9f989989aaad",
    ),
    ("pset", "--monitors", "t,k,b", "--edge", "k,x"): (
        "bfbdf9d3a699fab1b47dea8cdae9ed28b4179c2b9df289ff8f9caf370f0f9a38",
        "d6bafa3b10097f0ffd9e27846630ba45b1d15a2fde8aa53e3b987e9c0fa67e2c",
        "5f150b1bb5ad6a8aa9f17ac8a6392992446ad8fbcd8c9e3dc663f5920410a6d1",
        "0ce5e40343a120a27a0319ecbe356fc65b5570ac77e3485c6a6092a66db1c36e",
    ),
    ("verify", "--monitors", "q,x"): (
        "a49fc9aa3046ce7affd9b2fc4137205d9c3421425821eba68521bb4dac1fdaac",
        "dcf6dc7f707ebed6b6ed884ea41d89da2864a36d215fc421db8b933e0f891f52",
        "45ca87a1b20f148869fff169957bb6f09d60b65d3e19be5fb5ee7746374c3e1e",
        "f77fdcc80e7017daac13640cc0cf80e83b8268df72a689a99c1abdaedca828d7",
    ),
    ("bounds",): (
        "36b990b2bfc69d067ddb9f3c9c65ef5e63fc95590ae1b2f570f584a8c3da4efe",
        "0a8ca62909953b429f193d70ac32e1b19b75c6c5ec299e3425f31c834320a7ce",
        "b829ef681000fd236680906ad8ec669aa48586e3fdede92783d020b482fdd7e6",
        "cce74b5330973a2a047f3ffc646b46a8479e47cd74c0e31b72c3bda76a975a55",
    ),
    ("char", "--target", "1"): (
        "3caa4ed1ce2798a0450c1ed4061169707e21517e1bf8ed47e048ad4685bf689d",
        "7015fef8b3722d933fc6b6c8333fc8be830f9d7ec0eff8f1f1d7a9d5bd74a493",
        "0f09c23dc1ba6557621142f7fdc01b17de96e14b3989442c7af7d8e0d60f478c",
        "cce74b5330973a2a047f3ffc646b46a8479e47cd74c0e31b72c3bda76a975a55",
    ),
    ("char", "--target", "2"): (
        "46e945f64703f94b3bc9942d9862e5884e5adbcaf78ccc29c8cad183b75795ea",
        "492659a949b324e9664f65d9b73f06fce614b2d7e7fe57f6735300ec7f28e95c",
        "f93022ba14fac9d7b6245e0a1e7b96db4c8e831c72c7d866fd643472f13fdd76",
        "cce74b5330973a2a047f3ffc646b46a8479e47cd74c0e31b72c3bda76a975a55",
    ),
    ("char", "--target", "2", "--tuple", "m,x"): (
        "0ba2cdd85d23a2fbd67d372287166b3f557cddc84554227b5d37f6338223d85e",
        "48c753a02ad5c956088fa51ab1dbe38f229615adb848eeb2d0d924cd2168c7af",
        "8b5ce6d24bd2e83cb17f17f6509b91227dbbd53726e359fc6a30ec067c0bfad0",
        "cce74b5330973a2a047f3ffc646b46a8479e47cd74c0e31b72c3bda76a975a55",
    ),
    ("char", "--target", "3"): (
        "79f5b5ad9a56be4144cc03c565a1ff035e3700527ffb0b6a56c2da44a26a32b5",
        "29952382db773a276a541b6bf2ef37c687ac02032e3dadcdac111db3310615fa",
        "d442d320d00edc47ad33b32e22112368a578470cf10f92b4fcca79ca9626af62",
        "cce74b5330973a2a047f3ffc646b46a8479e47cd74c0e31b72c3bda76a975a55",
    ),
    ("char", "--target", "3", "--tuple", "q,k,w"): (
        "ed9c9096a3ba7454b0239922897395e3a10be10b8cd8c6ffa516b8aad4a8ce61",
        "e15650365a66640fa76373e85833c083eb40a10379d7d4c0509ebd6d1d878d59",
        "68b1c28e41980e35c0beda83f9da004e4be680cc2103f3f47099cd7ea7dd36c0",
        "cce74b5330973a2a047f3ffc646b46a8479e47cd74c0e31b72c3bda76a975a55",
    ),
}


class TestLabelledGolden:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text", "dot"])
    @pytest.mark.parametrize("args", list(LABELLED_GOLDEN), ids=" ".join)
    def test_digest(self, capsys, tmp_path, args, fmt):
        f = tmp_path / "lab.el"
        f.write_text(LABELLED)
        code, out = run_cli(capsys, *args, str(f), "--format", fmt)
        assert code == 0
        digest = LABELLED_GOLDEN[args][["json", "csv", "text", "dot"].index(fmt)]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_tuple_outside_base_graph_names_labels(self, capsys, tmp_path):
        # t hangs off the core; the error names it as the user typed it.
        f = tmp_path / "lab.el"
        f.write_text(LABELLED)
        assert main(["char", str(f), "--target", "3", "--tuple", "t,k,w"]) == 2
        assert "vertices ['t'] are not in the base graph" in capsys.readouterr().err


# Labels that JSON must escape: a quote, a backslash, a control character
# and two non-ASCII letters; 日 hangs off the 4-cycle.
ODD_LABELS = '5 5\na"b c\\d\nc\\d e\x01f\ne\x01f é\né a"b\n日 a"b\n'

SUBCOMMANDS = [
    ("dem", "--method", "both"),
    ("dem", "--budget", "1"),
    ("em", "--vertex", "{0}"),
    ("pset", "--monitors", "all", "--edge", "{0},{1}"),
    ("pset", "--monitors", "{0}", "--edge", "{2},{3}"),
    ("verify", "--monitors", "all"),
    ("verify", "--monitors", "{0}"),
    ("bounds",),
    ("char", "--target", "1"),
    ("char", "--target", "2"),
    ("char", "--target", "3"),
    ("char", "--target", "3", "--tuple", "{0},{1},{2}"),
]


def stdlib_json(payload) -> str:
    """What the CLI wrote before it had its own writer."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**80) | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner)
        | st.lists(st.integers()) | st.lists(st.text())
    ),
    max_leaves=30,
)


class TestJsonWriter:
    """_to_json writes what json.dumps(indent=2, sort_keys=True) writes."""

    @pytest.fixture
    def payloads(self, monkeypatch):
        seen = []
        emit = cli._emit

        def spy(args, loaded, body, **hints):
            seen.append({"command": args.command, **body})
            emit(args, loaded, body, **hints)

        monkeypatch.setattr(cli, "_emit", spy)
        return seen

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=" ".join)
    @pytest.mark.parametrize(
        "source, names",
        [
            (["--gen", "petersen"], "0 1 2 3"),
            ("lab.el", "k x m w"),
            ("odd.el", 'a"b é c\\d e\x01f'),
        ],
        ids=["ids", "labelled", "escaped"],
    )
    def test_every_report(self, capsys, tmp_path, payloads, argv, source, names):
        (tmp_path / "lab.el").write_text(LABELLED)
        (tmp_path / "odd.el").write_text(ODD_LABELS, encoding="utf-8")
        source = [str(tmp_path / source)] if isinstance(source, str) else source
        argv = [a.format(*names.split()) for a in argv]
        code, out = run_cli(capsys, *argv, *source)
        assert code in (0, 4)
        (payload,) = payloads
        assert cli._to_json(payload) + "\n" == out == stdlib_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"10": 1, "9": [], "": {}, "a": [True, False, None], "b": [1, True, 2]},
            {"big": [2**64, -(2**70), 0], "one": 2**64, "t": (1, ("x", (2,)), ())},
            ["\"\\\x00\x1f\x7f é 日 \U0001f600", "plain"],
            [[], {}, [[]], [{}], {"x": []}],
            [1.5, float("inf"), float("nan"), -0.0, 1e300],
            [],
            {},
            None,
            "日",
            -3,
        ],
    )
    def test_edge_cases(self, payload):
        assert cli._to_json(payload) + "\n" == stdlib_json(payload)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_nested_values(self, payload):
        assert cli._to_json(payload) + "\n" == stdlib_json(payload)


# ---------------------------------------------------------------------------
# Fuzzing.  Whatever the subcommand, flags, generator spec or edge-list
# text, the CLI ends with one of its exit codes and no traceback; a JSON
# report validates against the schema, and a failed call writes no stdout.
# ---------------------------------------------------------------------------

# Valid specs stay at n <= 12, so every subcommand answers at once, the
# exact solver and the three-monitor search included.
VALID_SPECS = st.one_of(
    st.integers(1, 12).map("path:{}".format),
    st.integers(3, 12).map("cycle:{}".format),
    st.integers(1, 12).map("complete:{}".format),
    st.integers(1, 11).map("star:{}".format),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(
        "complete_bipartite:{0[0]},{0[1]}".format
    ),
    st.tuples(st.integers(2, 4), st.integers(2, 3)).map("grid:{0[0]},{0[1]}".format),
    st.integers(1, 3).map("hypercube:{}".format),
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map("doublestar:{0[0]},{0[1]}".format),
    st.tuples(st.integers(2, 12), st.integers(1, 11)).map("emk:{0[0]},{0[1]}".format),
    st.integers(4, 12).map("d1:{}".format),
    st.integers(3, 12).map("d2:{}".format),
    st.lists(st.integers(1, 3), min_size=2, max_size=3).map(
        lambda sizes: f"ad:{len(sizes) + 1}," + ",".join(map(str, sizes))
    ),
    st.just("petersen"),
    # random_connected samples until the graph is connected, which at
    # small p takes seconds before it gives up; p >= 0.2 keeps it quick.
    st.tuples(st.integers(1, 12), st.sampled_from([0.2, 0.5, 1.0])).map(
        "random:{0[0]},{0[1]}".format
    ),
    st.integers(1, 12).map("tree:{}".format),
)
# Arbitrary text, with single-digit numbers and no random family, for the
# reasons above.
GEN_TEXT = st.one_of(
    VALID_SPECS,
    VALID_SPECS,
    st.text(max_size=20).filter(lambda t: not re.search(r"\d\d", t) and "random" not in t),
)


@st.composite
def valid_edge_list(draw):
    """A graph on n <= 12 vertices, often connected, ids or letter labels."""
    n = draw(st.integers(1, 12))
    edges = [(i, i + 1) for i in range(n - 1)] if draw(st.booleans()) else []
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=10))
    name = (lambda v: "abcdefghijkl"[v]) if draw(st.booleans()) else str
    lines = [f"{name(u)} {name(v)}" for u, v in edges]
    return "\n".join([f"{n} {len(lines)}", *lines]) + "\n"


@st.composite
def edge_list_text(draw):
    """Edge-list-shaped text with bad counts, tokens and comments."""
    token = st.sampled_from(["0", "1", "2", "3", "4", "7", "11", "12", "a", "b", "-1", "x y"])
    n = draw(st.integers(0, 12))
    edges = draw(st.lists(st.tuples(token, token), max_size=14))
    m = draw(st.sampled_from([len(edges), len(edges), len(edges) + 1, 0]))
    comment = st.sampled_from(["# center1=0", "# center2=1", "# seed=3", "# =a"])
    comments = draw(st.lists(comment, max_size=2))
    return "\n".join([*comments, f"{n} {m}", *(f"{u} {v}" for u, v in edges)]) + "\n"


EDGE_TEXT = st.one_of(
    valid_edge_list(),
    valid_edge_list(),
    edge_list_text(),
    # No header above 99 vertices.
    st.text(max_size=60).filter(lambda t: not re.search(r"\d\d\d", t)),
)
VERTEX = st.sampled_from(["0", "1", "2", "5", "11", "12", "-1", "a", "x", ""])
FLAGS = {
    "dem": {
        "--method": st.sampled_from(["exact", "greedy", "both", "fast"]),
        "--budget": st.sampled_from(["0", "1", "5", "200", "-5", "abc"]),
    },
    "em": {"--vertex": VERTEX},
    "pset": {
        "--monitors": st.sampled_from(["all", "0", "0,1", "0,2,4", "1,x", "99", "", " , "]),
        "--edge": st.sampled_from(["0,1", "1,2", "3,4", "centers", "0", "a,b", "0,0", "1,2,3"]),
    },
    "verify": {"--monitors": st.sampled_from(["all", "0", "0,1", "0,2,4", "1,x", "99", ""])},
    "bounds": {},
    "char": {
        "--target": st.sampled_from(["1", "2", "3", "2", "3", "0", "x"]),
        "--tuple": st.sampled_from(["0,1", "0,2", "0,1,2", "1,3,5", "0,0", "a,b", "0", "0,1,2,3"]),
    },
}


@st.composite
def invocations(draw, path: str):
    """(argv, edge-list text or None) for one CLI call reading `path`."""
    cmd = draw(st.sampled_from([*FLAGS, "gen"]))
    seed = ["--seed", draw(st.sampled_from(["0", "1", "7"]))] if draw(st.booleans()) else []
    if cmd == "gen":
        return ["gen", draw(GEN_TEXT), *seed], None
    argv, text = [cmd], None
    source = draw(st.sampled_from(["gen", "gen", "gen", "file", "file", "file", "both", "none"]))
    if source in ("file", "both"):
        text = draw(EDGE_TEXT)
        argv.append(path)
    if source in ("gen", "both"):
        argv += ["--gen", draw(GEN_TEXT)]
    argv += ["--format", draw(st.sampled_from(FORMATS))]
    for flag, values in FLAGS[cmd].items():
        # Usually given, so most calls get past argparse.
        if draw(st.sampled_from([True] * 9 + [False])):
            argv += [flag, draw(values)]
    return argv + seed, text


class TestFuzz:
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_exit_codes_and_reports(self, tmp_path, data):
        path = tmp_path / "g.el"
        argv, text = data.draw(invocations(str(path)))
        if text is not None:
            path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error, exit status 2
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, text, err.getvalue())
        if code in (2, 3):
            assert out.getvalue() == "", argv
        elif argv[0] == "gen":
            parse_edgelist(out.getvalue())
        elif argv[argv.index("--format") + 1] == "json":
            validate_report(json.loads(out.getvalue()))
