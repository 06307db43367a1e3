import hashlib
import json
from pathlib import Path

import jsonschema

from demkit.cli import _build_parser, main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code in (0, 4)
    payload = json.loads(out)
    command = payload["command"]
    schema = dict(SCHEMA["commands"][command])
    schema["$defs"] = SCHEMA["$defs"]
    jsonschema.validate(payload, schema)
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

    def test_no_timing_in_output(self, capsys):
        _, payload = run_json(capsys, "dem", "--gen", "cycle:5")
        assert "millis" not in payload["results"]["exact"]["stats"]


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

    def test_labelled_file(self, capsys, tmp_path):
        f = tmp_path / "lab.el"
        f.write_text("# hub=b\n3 2\na b\nb c\n")
        _, payload = run_json(capsys, "em", str(f), "--vertex", "b")
        assert payload["monitor"] == "b"
        assert payload["edges"] == [["a", "b"], ["b", "c"]]

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

    def test_disconnected_exit3(self, capsys, tmp_path):
        f = tmp_path / "disc.el"
        f.write_text("4 2\n0 1\n2 3\n")
        for method in ("exact", "greedy", "both"):
            code, _ = run_cli(capsys, "dem", str(f), "--method", method)
            assert code == 3, method

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
