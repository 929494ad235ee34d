import gc
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from hashlib import sha256
from pathlib import Path

import pytest

from treebraid import cli, cubes, presentation, stars, trees

from conftest import deadline
from star_reference import EXTRA_RELATION, gain_relation

HTREE = {
    "vertices": ["p", "a", "u", "v", "b", "c"],
    "edges": [["p", "u"], ["a", "u"], ["u", "v"], ["v", "b"], ["v", "c"]],
    "endpoint": "p",
}
TRIPOD = {
    "vertices": ["v", "x", "y", "z"],
    "edges": [["v", "x"], ["v", "y"], ["v", "z"]],
    "endpoint": "x",
}
SPIDER = {
    "vertices": ["c", "n1", "n2", "n3", "l1", "l2", "l3", "m1", "m2", "m3"],
    "edges": [
        ["c", "n1"], ["c", "n2"], ["c", "n3"],
        ["n1", "l1"], ["n1", "m1"], ["n2", "l2"], ["n2", "m2"], ["n3", "l3"], ["n3", "m3"],
    ],
    "endpoint": "l1",
}
INTERVAL = {"vertices": ["p", "q"], "edges": [["p", "q"]], "endpoint": "p"}
HTREE_TEXT = "endpoint p\n# two hubs\np u\na u\nu v\nv b\nv c\n"


def tree_json(tree):
    return {
        "vertices": list(tree.vertices),
        "edges": [list(e) for e in tree.edges],
        "endpoint": tree.endpoint,
    }


# strand ranges that present and verify reject before printing or making --out
bad_ranges = pytest.mark.parametrize("argv,message", [
    (["--n-min", "3", "--n-max", "1"], "need 0 <= --n-min <= --n-max"),
    (["--n-min", "-1", "--n-max", "2"], "need 0 <= --n-min <= --n-max"),
    (["--n", "-1"], "--n must be >= 0"),
    (["--n-min", "1"], "need --n or both --n-min and --n-max"),
    (["--n", "2", "--n-min", "1", "--n-max", "3"], "give either --n or --n-min/--n-max, not both"),
], ids=["reversed", "negative", "negative-n", "half-range", "n-and-range"])


@pytest.fixture
def tree_file(tmp_path):
    def write(data, name="tree.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


class TestPresent:
    def test_stdout_json(self, tree_file, capsys):
        code = cli.main(["present", "--tree", tree_file(HTREE), "--n", "4"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["generators"]) == 12
        assert data["relations"] == [[2, 11]]

    def test_dot_file_output(self, tree_file, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "present", "--tree", tree_file(HTREE), "--n", "4",
            "--format", "dot", "--out", str(out),
        ])
        assert code == 0
        dot = (out / "presentation_n4.dot").read_text()
        assert dot.count("[label=") == 12
        assert dot.count(" -- ") == 1
        assert (out / "presentation_n4.json").exists()

    def test_n0_empty(self, tree_file, capsys):
        code = cli.main(["present", "--tree", tree_file(TRIPOD), "--n", "0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"n": 0, "generators": [], "relations": []}

    def test_range_writes_each_level(self, tree_file, tmp_path):
        out = tmp_path / "r"
        code = cli.main([
            "present", "--tree", tree_file(TRIPOD),
            "--n-min", "0", "--n-max", "3", "--out", str(out),
        ])
        assert code == 0
        for n in range(4):
            assert (out / f"presentation_n{n}.json").exists()

    def test_nonlinear_exits_2(self, tree_file, capsys):
        code = cli.main(["present", "--tree", tree_file(SPIDER), "--n", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "not linear" in err
        assert "n2" in err   # names the stranded hub off the chosen trunk

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = cli.main(["present", "--tree", str(tmp_path / "nope.json"), "--n", "2"])
        assert code == 1

    def test_bad_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["present", "--tree", str(path), "--n", "2"]) == 1

    def test_bad_usage_exits_1(self, tree_file, capsys):
        assert cli.main(["present", "--tree", tree_file(HTREE)]) == 1       # no n
        assert cli.main(["present", "--tree", tree_file(HTREE), "--n", "2",
                         "--n-min", "1", "--n-max", "3"]) == 1              # both forms
        assert cli.main(["nonsense"]) == 1

    def test_unknown_format_exits_1(self, tree_file, capsys):
        code = cli.main(["present", "--tree", tree_file(TRIPOD), "--n", "2", "--format", "xml"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --format: invalid choice: 'xml'" in err

    @pytest.mark.parametrize("field,value", [
        ("vertices", 5),
        ("edges", 5),
        ("vertices", "pauvbc"),       # a string is not a list of one-letter ids
        ("edges", {"p": "u"}),        # an object is not a list of pairs
    ])
    def test_non_array_field_exits_1(self, tree_file, capsys, field, value):
        code = cli.main(["present", "--tree", tree_file({**HTREE, field: value}), "--n", "2"])
        assert code == 1
        assert f"{field}: expected a JSON array" in capsys.readouterr().err

    def test_json_array_exits_1(self, tmp_path, capsys):
        # text that starts with "[" is JSON, and not an object
        path = tmp_path / "arr.json"
        path.write_text("[]")
        assert cli.main(["present", "--tree", str(path), "--n", "2"]) == 1
        assert capsys.readouterr() == ("", "error: top-level JSON value must be an object\n")

    def test_dot_stdout_is_the_out_file(self, tree_file, caterpillar5, tmp_path, capsys):
        tree, out = tree_file(tree_json(caterpillar5)), tmp_path / "out"
        assert cli.main(["present", "--tree", tree, "--n", "5", "--format", "dot"]) == 0
        printed = capsys.readouterr().out
        assert cli.main(["present", "--tree", tree, "--n", "5", "--format", "dot",
                         "--out", str(out)]) == 0
        assert printed.encode() == (out / "presentation_n5.dot").read_bytes()
        assert printed.count(" -- ") > 100

    def test_interrupted_write_leaves_nothing_under_the_final_name(
            self, tree_file, tmp_path, capsys, monkeypatch):
        tree, out = tree_file(HTREE), tmp_path / "out"

        def fail_partway(path, text, encoding=None):
            with open(path, "w", encoding=encoding) as f:
                f.write(text[:len(text) // 2])
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(Path, "write_text", fail_partway)
        code = cli.main(["present", "--tree", tree, "--n", "4", "--format", "dot",
                         "--out", str(out)])
        assert code == 1
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith("error: ") and "No space left on device" in err
        assert not (out / "presentation_n4.json").exists()
        assert not (out / "presentation_n4.dot").exists()
        assert not (out / "presentation_n4.json.tmp").exists()

    @bad_ranges
    def test_bad_range_exits_1_before_printing(self, tree_file, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "presentations"
        code = cli.main(["present", "--tree", tree_file(HTREE), *argv, "--out", str(out_dir)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_byte_identical_outputs(self, tree_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main([
                "present", "--tree", tree_file(HTREE), "--n", "4",
                "--format", "dot", "--out", str(out),
            ]) == 0
        for name in ("presentation_n4.json", "presentation_n4.dot"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestVerify:
    def test_tripod_passes(self, tree_file, capsys):
        code = cli.main([
            "verify", "--tree", tree_file(TRIPOD), "--n-min", "0", "--n-max", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_interval_n3(self, tree_file, capsys):
        assert cli.main(["verify", "--tree", tree_file(INTERVAL), "--n", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_report_files(self, tree_file, tmp_path):
        out = tmp_path / "rep"
        code = cli.main([
            "verify", "--tree", tree_file(TRIPOD), "--n", "2", "--out", str(out),
        ])
        assert code == 0
        data = json.loads((out / "verify_n2.json").read_text())
        assert data["status"] == "PASS"
        assert data["generators"] == 1 and data["betti"][1] == 1

    def test_dmax2_skips_b2(self, tree_file, capsys):
        code = cli.main(["verify", "--tree", tree_file(TRIPOD), "--n", "2", "--dmax", "2"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_subdivision_too_coarse_exits_1(self, tree_file, capsys):
        code = cli.main([
            "verify", "--tree", tree_file(TRIPOD), "--n", "3", "--subdivision", "1",
        ])
        assert code == 1
        assert "too coarse" in capsys.readouterr().err

    def test_subdivision_at_the_n_minus_1_floor_passes(self, tree_file, capsys):
        code = cli.main([
            "verify", "--tree", tree_file(TRIPOD), "--n", "3", "--subdivision", "2",
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "3"])
    @pytest.mark.parametrize("parts", ["0", "-1"])
    def test_subdivision_below_one_is_a_usage_error(self, tree_file, capsys, n, parts):
        code = cli.main(["verify", "--tree", tree_file(TRIPOD), "--n", n, "--subdivision", parts])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: argument --subdivision: must be >= 1, got {parts}" in err

    def test_oracle_subdivides_the_input_tree(self, tree_file, capsys, monkeypatch):
        # the glue-normalized H-tree has 7 vertices and 6 edges; at n=3 its
        # subdivision would have 13 vertices, the input tree's has 6 + 5
        seen = []
        real = cubes.build_complex

        def recording(tree, n, **kwargs):
            seen.append(len(tree.vertices))
            return real(tree, n, **kwargs)

        monkeypatch.setattr(cubes, "build_complex", recording)
        assert cli.main(["verify", "--tree", tree_file(HTREE), "--n", "3"]) == 0
        assert seen == [11]

    def test_cell_cap_exits_4(self, tree_file, capsys):
        code = cli.main([
            "verify", "--tree", tree_file(HTREE), "--n", "4", "--cell-cap", "1000",
        ])
        assert code == 4
        # the largest layer at 3 pieces per edge is the 2-cells
        assert "5874" in capsys.readouterr().err

    def test_cell_cap_refuses_before_the_presentation(self, tree_file, capsys, monkeypatch):
        # each level's cap is checked before its presentation is assembled
        def assemble(arm_counts, n):
            raise AssertionError("the presentation was assembled")

        monkeypatch.setattr(presentation, "assemble", assemble)
        with deadline(1):
            code = cli.main(["verify", "--tree", tree_file(HTREE), "--n", "100"])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""    # not even the header
        assert err.startswith("error: largest cell layer has ")
        assert err.endswith(" cells, above the cap 5000000\n")

    def test_refused_first_level_prints_no_header(self, tree_file, capsys):
        # the README's example of a refusal
        assert cli.main(["verify", "--tree", tree_file(HTREE), "--n", "7"]) == 4
        assert capsys.readouterr() == (
            "", "error: largest cell layer has 40834200 cells, above the cap 5000000\n"
        )

    def test_header_comes_before_the_first_row(self, tree_file, capsys):
        # a later level over the cap keeps the header and the rows before it
        argv = ["--n-min", "2", "--n-max", "4", "--cell-cap", "1000"]
        assert cli.main(["verify", "--tree", tree_file(HTREE), *argv]) == 4
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["n", "gens", "rels", "tris", "b1", "b2", "b3", "status"]
        assert [line.split()[0] for line in out[1:]] == ["2", "3"]

    def test_huge_cell_count_gives_a_short_message(self, tree_file, capsys):
        # the count has thousands of digits: its leading digits and its
        # digit count are printed, not the whole number
        with deadline(5):
            code = cli.main(["verify", "--tree", tree_file(HTREE), "--n", "3000"])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err) < 200
        assert re.fullmatch(
            r"error: largest cell layer has \d{6}\.\.\. \(\d{4} digits\) cells,"
            r" above the cap 5000000\n", err
        ), err

    def test_subdivision_above_the_cap_exits_4_before_cutting(self, tree_file, capsys, monkeypatch):
        # the H-tree's 6 vertices and 5 edges, cut into 20 pieces, give 101
        # vertices and 100 edges, so at n=2 100 * 99 = 9900 1-cells
        def cut(tree, parts):
            raise AssertionError("the tree was subdivided")

        monkeypatch.setattr(cubes, "subdivide_edges", cut)
        code = cli.main([
            "verify", "--tree", tree_file(HTREE), "--n", "2", "--subdivision", "20",
            "--cell-cap", "100",
        ])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: largest cell layer has 9900 cells, above the cap 100\n"
        )

    def test_vertices_under_the_cap_with_cells_over_it_exit_4_before_cutting(
            self, tree_file, capsys, monkeypatch):
        # 1,500,001 vertices fit the default cap; their 1,500,000 edges, each
        # with 1,499,999 other vertices, give 2,249,998,500,000 1-cells
        def cut(tree, parts):
            raise AssertionError("the tree was subdivided")

        monkeypatch.setattr(cubes, "subdivide_edges", cut)
        code = cli.main([
            "verify", "--tree", tree_file(HTREE), "--n", "2", "--subdivision", "300000",
        ])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: largest cell layer has 2249998500000 cells, above the cap 5000000\n"
        )

    def test_a_refused_first_level_leaves_no_out_directory(self, tree_file, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "verify", "--tree", tree_file(HTREE), "--n", "4", "--cell-cap", "100",
            "--out", str(out),
        ])
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize("out,refused", [
        ("tri.json", "tri.json"), ("tri.json/sub", "tri.json"), ("dangling", "dangling"),
    ], ids=["file", "under-a-file", "dangling-link"])
    def test_out_on_an_existing_file_exits_1_before_the_oracle(
        self, tree_file, tmp_path, capsys, monkeypatch, out, refused
    ):
        # --out naming a file, a path under one, or a link to nowhere is
        # refused before the header is printed or any level is checked
        def no_oracle(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cubes, "oracle_report", no_oracle)
        tree = tree_file(TRIPOD, "tri.json")
        before = Path(tree).read_bytes()
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        code = cli.main(["verify", "--tree", tree, "--n", "3", "--out", str(tmp_path / out)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: --out {tmp_path / out}: {tmp_path / refused} is not a directory\n"
        )
        assert Path(tree).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling", "tri.json"]

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_cell_cap_below_one_is_a_usage_error(self, tree_file, capsys, cap):
        code = cli.main(["verify", "--tree", tree_file(HTREE), "--n", "4", "--cell-cap", cap])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: argument --cell-cap: must be >= 1, got {cap}" in err
        assert "above the cap" not in err

    def test_mismatch_exits_3(self, tree_file, capsys, monkeypatch):
        real = cubes.betti

        def lying_betti(cx):
            rep = real(cx)
            return cubes.HomologyReport(
                cell_counts=rep.cell_counts,
                boundary_ranks=rep.boundary_ranks,
                betti=(rep.betti[0], rep.betti[1] + 1, *rep.betti[2:]),
                torsion=rep.torsion,
            )

        monkeypatch.setattr(cubes, "betti", lying_betti)
        code = cli.main(["verify", "--tree", tree_file(TRIPOD), "--n", "2"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("degree", [0, 2])    # b1 is test_mismatch_exits_3
    def test_every_computed_degree_is_checked(self, tree_file, capsys, monkeypatch, degree):
        real = cubes.betti

        def lying_betti(cx):
            rep = real(cx)
            betti = list(rep.betti)
            betti[degree] += 1
            return rep._replace(betti=tuple(betti))

        monkeypatch.setattr(cubes, "betti", lying_betti)
        code = cli.main(["verify", "--tree", tree_file(HTREE), "--n", "4"])
        assert code == 3
        assert capsys.readouterr().out.splitlines()[1].split()[-1] == "FAIL"

    def test_torsion_fails(self, tree_file, capsys, monkeypatch):
        real = cubes.betti
        monkeypatch.setattr(cubes, "betti", lambda cx: real(cx)._replace(torsion=((), (2,), ())))
        assert cli.main(["verify", "--tree", tree_file(HTREE), "--n", "4"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_row_pads_the_degrees_not_computed(self, tree_file, capsys):
        assert cli.main(["verify", "--tree", tree_file(HTREE), "--n", "4", "--dmax", "2"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == "  4     12      1      0     12      -    -     PASS"

    @bad_ranges
    def test_bad_range_exits_1_before_printing(self, tree_file, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "reports"
        code = cli.main(["verify", "--tree", tree_file(HTREE), *argv, "--out", str(out_dir)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv,code,message", [
        (["--n", "7"], 4, "largest cell layer has 40834200 cells, above the cap 5000000"),
        (["--n-min", "2", "--n-max", "7"], 4,
         "largest cell layer has 40834200 cells, above the cap 5000000"),
        (["--n", "5", "--subdivision", "2"], 1,
         "subdivision 2 is too coarse for n=5; need at least 4"),
        (["--n-min", "3", "--n-max", "5", "--subdivision", "2"], 1,
         "subdivision 2 is too coarse for n=4; need at least 3"),
    ], ids=["cap", "cap-range", "subdivision", "subdivision-range"])
    @pytest.mark.parametrize("to_dir", [True, False], ids=["out", "stdout"])
    def test_present_verify_refuses_before_any_output(self, tree_file, tmp_path, capsys,
                                                      monkeypatch, argv, code, message, to_dir):
        # every level's oracle limits are checked before a presentation
        # is written to --out or printed, and so before any complex is built
        def unbuilt(*args, **kwargs):
            raise AssertionError("a complex was built")

        monkeypatch.setattr(cubes, "build_complex", unbuilt)
        out = tmp_path / "pv"
        argv = ["present", "--tree", tree_file(HTREE), *argv, "--verify"]
        assert cli.main([*argv, "--out", str(out)] if to_dir else argv) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_present_with_verify_flag(self, tree_file, tmp_path, capsys):
        out = tmp_path / "pv"
        code = cli.main([
            "present", "--tree", tree_file(TRIPOD), "--n", "2",
            "--out", str(out), "--verify",
        ])
        assert code == 0
        assert (out / "presentation_n2.json").exists()
        assert "PASS" in capsys.readouterr().out


    def test_subdivision_ids_that_collide_with_input_ids(self, tree_file, capsys):
        # "p:u:1" is also the first vertex subdividing the edge p-u
        tree = {
            "vertices": [*HTREE["vertices"], "p:u:1"],
            "edges": [*HTREE["edges"], ["u", "p:u:1"]],
            "endpoint": "p",
        }
        code = cli.main(["verify", "--tree", tree_file(tree), "--n-min", "2", "--n-max", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3


class TestSinglePass:
    @pytest.mark.parametrize("argv", [
        ["stabilize", "--n", "4"],
        ["present", "--n-min", "0", "--n-max", "4", "--verify"],
        ["verify", "--n-min", "0", "--n-max", "4"],
    ])
    def test_loads_once_and_assembles_each_level_once(self, tree_file, capsys, monkeypatch, argv):
        calls = {"assemble": 0, "load_tree": 0}
        for module, name in ((presentation, "assemble"), (trees, "load_tree")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        assert cli.main([argv[0], "--tree", tree_file(HTREE), *argv[1:]]) == 0
        assert calls == {"assemble": 5, "load_tree": 1}


@pytest.mark.parametrize("argv", [
    ["present", "--n-min", "0", "--n-max", "8", "--format", "dot", "--out"],
    ["present", "--n-min", "0", "--n-max", "8"],
    ["stabilize", "--n", "8"],
    ["verify", "--n", "4"],
], ids=["present-dot-out", "present", "stabilize", "verify"])
def test_no_command_builds_the_relation_pairs(tree_file, caterpillar5, tmp_path, capsys,
                                              monkeypatch, argv):
    def refuse(pres):
        raise AssertionError("relation pairs were built")

    monkeypatch.setattr(presentation.Presentation, "relations", property(refuse))
    argv = [*argv, str(tmp_path / "out")] if argv[-1] == "--out" else argv
    # the oracle runs on the H-tree, whose n = 4 level has one relation
    tree = HTREE if argv[0] == "verify" else tree_json(caterpillar5)
    assert cli.main([argv[0], "--tree", tree_file(tree), *argv[1:]]) == 0


class TestGeneratorCap:
    """present and stabilize refuse a level of more generators than the
    default cell cap, counted exactly, before they print or make anything."""

    @pytest.mark.parametrize("argv", [
        ["present", "--n", "99999999999"],
        ["present", "--n", "99999999999", "--format", "dot", "--out"],
        ["present", "--n-min", "0", "--n-max", "99999999999", "--out"],
        ["present", "--n", "99999999999", "--verify", "--out"],
        ["stabilize", "--n", "99999999999"],
    ], ids=["present", "present-out", "present-range", "present-verify", "stabilize"])
    def test_absurd_n_exits_4_before_any_output(self, tree_file, tmp_path, capsys, argv):
        out_dir = tmp_path / "out"
        argv = [*argv, str(out_dir)] if argv[-1] == "--out" else argv
        with deadline(1):
            code = cli.main([argv[0], "--tree", tree_file(HTREE), *argv[1:]])
        assert code == 4
        assert capsys.readouterr() == ("", (
            "error: level n=99999999999 has 9999999999700000000002 generators,"
            " above the cap 5000000\n"
        ))
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["present", "stabilize"])
    def test_cap_sits_between_n_2236_and_2237(self, tree_file, capsys, monkeypatch, command):
        # the H-tree has 4,997,460 generators at n = 2236, 5,001,932 at 2237
        def assemble(arm_counts, n):
            raise presentation.NaturalityError("assembled")

        monkeypatch.setattr(presentation, "assemble", assemble)
        path = tree_file(HTREE)
        assert cli.main([command, "--tree", path, "--n", "2236"]) == 3
        assert cli.main([command, "--tree", path, "--n", "2237"]) == 4
        assert capsys.readouterr().err.endswith(
            "error: level n=2237 has 5001932 generators, above the cap 5000000\n"
        )

    def test_five_hub_caterpillar_over_the_cap_at_n_100(self, tree_file, caterpillar5, capsys):
        path = tree_file(tree_json(caterpillar5))
        assert cli.main(["present", "--tree", path, "--n", "100"]) == 4
        assert "has 13773375 generators" in capsys.readouterr().err

    def test_interval_at_a_large_n_allocates_nothing_per_strand(self, tree_file, capsys):
        # no generators, so no cap; and with fewer than two stars assemble
        # builds no per-strand list
        tracemalloc.start()
        try:
            code = cli.main(["present", "--tree", tree_file(INTERVAL), "--n", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "n": 1000000, "generators": [], "relations": [],
        }
        assert peak < 1_000_000, peak


class TestPinnedOutput:
    """sha256 digests of outputs recorded from the frozenset-based
    presentations this package used before; the exported bytes must not
    drift with the in-memory form."""

    PRESENT_FILES = {
        "presentation_n0.dot": "fac8353dca9fa796d3b4e87402d781f7adc6713145ca8f7e337eb24cf024fcf5",
        "presentation_n0.json": "35e7096633fe6116b0e2cfd1791b55f4009559117043e9ea0cbfd69c51f7e3c9",
        "presentation_n1.dot": "be8b808516c56cb31a0ce1d2d1c0a19bcdad8624be2769dca562e744387b519b",
        "presentation_n1.json": "a3e5efd13f1fdf95eed4d2ab2d43fcc4fd7708616a8f93457cb38785e6d5b946",
        "presentation_n2.dot": "4baeb0e532009bf59236db162b6f40826865e2946a890f9401474cf2df88039a",
        "presentation_n2.json": "de274a257c6f8399a5744530285585fe44823ae441b4e1abcc7b4939ba0384a4",
        "presentation_n3.dot": "9c28600cc3833e4b0b4399a97793869b0df6593407c977e7b01cb5e0cf1e9297",
        "presentation_n3.json": "0b6d858ce70eeffba639ce4dd7a40fb5ef2ac1c819befb6aa81573bd101cb2b2",
        "presentation_n4.dot": "045ae451849e2abe04729ae752a6aef6db3c40180ea8d63ca4ae160e0b445f20",
        "presentation_n4.json": "ad964c531e29b5292e260f0b342a1b124ce06303a52e4a9f68f75fc4a1d1461d",
        "presentation_n5.dot": "8d07fde2d320c226bed4cbe34e097918162967898e174b680fc8dc5433c75fc7",
        "presentation_n5.json": "a79a26e64e961f8e8673dd031dcbc1c10078e9919c18d229f7b6dc2e40eeabb1",
        "presentation_n6.dot": "5cab49fcec7d1bf8b30cded0a669b4b8dd73f204fea07bfd8ae786b622974cb4",
        "presentation_n6.json": "7f3634eab606585e31d4c6b2bdd8bdcf4031f39c70b7159e53dbfa8a1a7d21d7",
        "presentation_n7.dot": "e279d8cd6f7bd1cbe8eafaeedb3f2e93e6a4344b0076f174db60fc4f82370215",
        "presentation_n7.json": "7f8372274dbc5b517d33ed8e33925df208fa6b3b9e437c0dbf69431854811626",
        "presentation_n8.dot": "29768a0b5bb58be26a9cf7b276baad2eb3842d8145ffb624a0411b765668832c",
        "presentation_n8.json": "cb3fc5cef03961d50f8221ae3106ad0847a10d67605518e320767c020c1e6902",
    }
    STABILIZE = "742bed62e77c82bf4e3ddb6d03493b1ac8f15ef4fe4f9b2b04d1c25cebc371f2"
    PRESENT_VERIFY = "6a242e225d00ee961e111339dadec60f496e726d7857cd2051ee17dcad1f93b3"
    TABLE = "ddf3aba494ce73e24b57e177bdaadd451699f68e274c938a73834e6eb0f0827c"

    def test_present_dot_files_caterpillar5(self, tree_file, caterpillar5, tmp_path):
        out = tmp_path / "out"
        assert cli.main([
            "present", "--tree", tree_file(tree_json(caterpillar5)),
            "--n-min", "0", "--n-max", "8", "--format", "dot", "--out", str(out),
        ]) == 0
        got = {path.name: sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
        assert got == self.PRESENT_FILES

    def test_present_dot_files_caterpillar5_n11(self, tree_file, caterpillar5, tmp_path):
        # at n = 11 some generators have partners on all four later stars
        out = tmp_path / "out"
        assert cli.main([
            "present", "--tree", tree_file(tree_json(caterpillar5)),
            "--n", "11", "--format", "dot", "--out", str(out),
        ]) == 0
        got = {path.name: sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
        assert got == {
            "presentation_n11.dot":
                "306270656a763917579917388be113110a980afb97077e5c50c1a9379ad6ec08",
            "presentation_n11.json":
                "19b2d502eb1da95b60836aa18878d23d58bfbec0c04e440c76077589008f5b24",
        }

    def test_stabilize_caterpillar5(self, tree_file, caterpillar5, capsys):
        assert cli.main(["stabilize", "--tree", tree_file(tree_json(caterpillar5)), "--n", "8"]) == 0
        assert sha256(capsys.readouterr().out.encode()).hexdigest() == self.STABILIZE

    def test_present_verify_htree(self, tree_file, capsys):
        argv = ["present", "--tree", tree_file(HTREE), "--n-min", "0", "--n-max", "4", "--verify"]
        assert cli.main(argv) == 0
        assert sha256(capsys.readouterr().out.encode()).hexdigest() == self.PRESENT_VERIFY

    def test_star_table(self, capsys):
        argv = ["table", "--k-min", "2", "--k-max", "8", "--n-min", "0", "--n-max", "9"]
        assert cli.main(argv) == 0
        assert sha256(capsys.readouterr().out.encode()).hexdigest() == self.TABLE

    def test_star_table_builds_no_edge_list(self, capsys, monkeypatch):
        # each rank is counted off its arm-vector level: neither the full
        # edge list nor the basis is built
        def refuse(*args):
            raise AssertionError("table built an edge list")

        monkeypatch.setattr(stars, "star_edges", refuse)
        monkeypatch.setattr(stars, "is_tree_edge", refuse)
        monkeypatch.setattr(stars, "basis", refuse)
        argv = ["table", "--k-min", "2", "--k-max", "8", "--n-min", "0", "--n-max", "9"]
        assert cli.main(argv) == 0
        assert sha256(capsys.readouterr().out.encode()).hexdigest() == self.TABLE


class TestTable:
    def test_default_grid(self, capsys):
        assert cli.main(["table"]) == 0
        out = capsys.readouterr().out
        assert "k=2" in out and "k=5" in out
        assert "C(n-k-1,k-1) is undefined" in out

    def test_k3_row(self, capsys):
        assert cli.main(["table", "--k-min", "3", "--k-max", "3",
                         "--n-min", "0", "--n-max", "4"]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("k=3")
        )
        assert row.split()[1:] == ["0", "0", "1", "3", "6"]

    def test_k2_row_all_zero(self, capsys):
        assert cli.main(["table", "--k-min", "2", "--k-max", "2"]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("k=2")
        )
        assert row.split()[1:] == ["0"] * 7

    @staticmethod
    def assert_numbers_end_under_the_header(out):
        lines = out.splitlines()
        header = lines.index(next(line for line in lines if line.startswith("k\\n")))
        rows = [line for line in lines if line.startswith("k=")]
        assert rows == lines[header + 1:header + 1 + len(rows)]

        def number_ends(line):
            # every field after the row or column label
            return [m.end() for m in re.finditer(r"\S+", line)][1:]

        assert all(number_ends(row) == number_ends(lines[header]) for row in rows)

    @pytest.mark.parametrize("argv", [
        ["--k-min", "9", "--k-max", "10", "--n-max", "1"],
        ["--k-min", "2", "--k-max", "8", "--n-min", "0", "--n-max", "9"],
        ["--k-min", "3", "--k-max", "6", "--n-min", "8", "--n-max", "12"],
        # k=100 widens its row label; the header and the other rows follow
        ["--k-min", "99", "--k-max", "100", "--n-max", "1"],
    ])
    def test_header_numbers_end_over_the_row_numbers(self, argv, capsys):
        assert cli.main(["table", *argv]) == 0
        self.assert_numbers_end_under_the_header(capsys.readouterr().out)

    def test_ranks_of_seven_digits_keep_their_column(self, capsys, monkeypatch):
        # ranks up to rank(12, 12) = 6,407,675 widen their columns past 6.
        # The closed form stands in for rank: enumerating this grid holds the
        # 1,352,078 vectors of the (12, 12) level, about 0.9 GB and 4 s on
        # one x86-64 core, and this test is about the layout alone.
        monkeypatch.setattr(stars, "rank", stars.rank_closed_form)
        argv = ["table", "--k-min", "3", "--k-max", "12", "--n-min", "8", "--n-max", "12"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "\nk=12 274483 663443 1494845 3174445 6407675\n" in out
        self.assert_numbers_end_under_the_header(out)

    def test_table_keeps_no_basis_in_memory(self, capsys, request):
        # the benchmark grid from cold caches, traced by tracemalloc.  What
        # stays cached is the arm-vector levels with their masks, 4.3 MB
        # (5.1 MB with the first command's one-time allocations, when this
        # test runs alone).  Measured on CPython 3.11: while each level's
        # basis pairs were built and dropped again, up to 33,606 of them,
        # the peak was 2.1 MB above that, 6.5 MB (7.3 MB alone); counted
        # off the masks with one Counter per level, it is 0.02 MB above
        # (5.3 MB alone).
        for cache in (stars._level, stars._basis_arms, stars.basis):
            cache.cache_clear()
            request.addfinalizer(cache.cache_clear)
        tracemalloc.start()
        try:
            assert cli.main(["table", "--k-max", "8", "--n-max", "9"]) == 0
            cached, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "33606" in capsys.readouterr().out
        assert peak < 6e6
        assert peak - cached < 1e6

    @pytest.mark.parametrize("argv,message", [
        (["--k-min", "0"], "need 2 <= --k-min <= --k-max"),
        (["--k-min", "1"], "need 2 <= --k-min <= --k-max"),
        (["--k-min", "5", "--k-max", "2"], "need 2 <= --k-min <= --k-max"),
        (["--n-min", "-2"], "need 0 <= --n-min <= --n-max"),
        (["--n-min", "4", "--n-max", "1"], "need 0 <= --n-min <= --n-max"),
    ], ids=["k-min-0", "k-min-1", "k-min-above-k-max", "n-min-negative", "n-min-above-n-max"])
    def test_bad_range_exits_1_before_printing(self, argv, message, capsys):
        assert cli.main(["table", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("error,code", [
        (MemoryError, 4),
        (stars.RankMismatchError("rank disagreement"), 3),
    ], ids=["out-of-memory", "rank-mismatch"])
    def test_failing_rank_prints_no_partial_table(self, error, code, capsys, monkeypatch):
        def failing(k, n):
            if (k, n) == (3, 2):
                raise error
            return 0

        monkeypatch.setattr(stars, "rank", failing)
        assert cli.main(["table", "--k-min", "2", "--k-max", "4"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestStabilize:
    def test_htree_chain(self, tree_file, capsys):
        assert cli.main(["stabilize", "--tree", tree_file(HTREE), "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "all 5 strand-addition steps" in out

    def test_interval_chain(self, tree_file, capsys):
        assert cli.main(["stabilize", "--tree", tree_file(INTERVAL), "--n", "6"]) == 0

    @pytest.mark.parametrize("argv,message", [
        (["--n-min", "3", "--n-max", "4"], "the following arguments are required: --n"),
        (["--n", "4", "--n-min", "3"], "unrecognized arguments: --n-min 3"),
        ([], "the following arguments are required: --n"),
    ], ids=["range", "n-and-n-min", "no-n"])
    def test_range_is_a_usage_error(self, tree_file, capsys, argv, message):
        assert cli.main(["stabilize", "--tree", tree_file(HTREE), *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {message}\n" in err

    def test_negative_n_exits_1(self, tree_file, capsys):
        assert cli.main(["stabilize", "--tree", tree_file(HTREE), "--n", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: --n must be >= 0\n")

    def test_broken_chain_exits_3(self, tree_file, monkeypatch, capsys):
        from treebraid import presentation as pres_mod

        def sabotaged(edge, arm, times=1):
            return edge

        monkeypatch.setattr(pres_mod, "add_strand", sabotaged)
        code = cli.main(["stabilize", "--tree", tree_file(HTREE), "--n", "3"])
        assert code == 3

    def test_extra_relation_exits_3(self, tree_file, monkeypatch, capsys):
        # level 5 gains one relation between images of level-4 generators
        real = presentation.assemble

        def gaining(arm_counts, n):
            pres = real(arm_counts, n)
            return gain_relation(pres, *EXTRA_RELATION) if n == 5 else pres

        monkeypatch.setattr(presentation, "assemble", gaining)
        assert cli.main(["stabilize", "--tree", tree_file(HTREE), "--n", "6"]) == 3
        out, err = capsys.readouterr()
        assert "3 -> 4" in out and "4 -> 5" not in out
        assert err == (f"error: relation {list(EXTRA_RELATION)} at level 5"
                       " has no preimage at level 4\n")

    def test_swapped_generators_exit_3(self, tree_file, monkeypatch, capsys):
        # two star-1 generators of level 5 trade places in the target
        real = presentation.assemble

        def swapping(arm_counts, n):
            pres = real(arm_counts, n)
            if n != 5:
                return pres
            gens = list(pres.generators)
            gens[4], gens[5] = gens[5], gens[4]
            return pres._replace(generators=tuple(gens))

        monkeypatch.setattr(presentation, "assemble", swapping)
        assert cli.main(["stabilize", "--tree", tree_file(HTREE), "--n", "5"]) == 3
        assert capsys.readouterr().err == (
            "error: generator images out of order at level 5:"
            " Generator(star=1, a=(1, 1, 3), p=2) at index 5,"
            " then Generator(star=1, a=(1, 2, 2), p=2) at index 4\n"
        )


class TestInternalErrors:
    """Internal consistency failures exit 3 with a message, never a traceback."""

    def test_rank_mismatch_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(stars, "rank_from_euler", lambda k, n: -1)
        assert cli.main(["table", "--k-min", "3", "--k-max", "3"]) == 3
        assert "error: rank disagreement" in capsys.readouterr().err

    def test_boundary_square_failure_exits_3(self, tree_file, capsys, monkeypatch):
        # the oracle's own pass catches a wrong row in boundary_1 or
        # boundary_2; the standalone check is not what runs
        real = cubes.boundary_matrix
        monkeypatch.setattr(cubes, "check_boundary_squares_to_zero", None)
        for d in (1, 2):
            def misindexed(cx, dim, d=d):
                m = real(cx, dim)
                if dim == d:
                    m = m._replace(rows=((m.rows[0] + 1) % m.nrows, *m.rows[1:]))
                return m

            monkeypatch.setattr(cubes, "boundary_matrix", misindexed)
            code = cli.main(["verify", "--tree", tree_file(HTREE), "--n", "3"])
            assert code == 3, d
            assert "error: boundary^2 != 0" in capsys.readouterr().err

    def test_wrong_signs_exit_3(self, tree_file, capsys, monkeypatch):
        # the rows are right, but every face carries a + sign
        monkeypatch.setattr(cubes, "check_boundary_squares_to_zero", None)
        monkeypatch.setattr(cubes, "_SIGNS", (1,) * 6)
        code = cli.main(["verify", "--tree", tree_file(HTREE), "--n", "3"])
        assert code == 3
        assert "error: boundary^2 != 0" in capsys.readouterr().err

    @pytest.mark.parametrize("shift", [
        lambda edge, arm, times=1: edge,
        lambda edge, arm, times=1: stars.add_strand(stars.add_strand(edge, arm, times), arm, times),
    ], ids=["forgets-the-strand", "adds-two"])
    def test_broken_shift_in_assemble_exits_3(self, tree_file, capsys, monkeypatch, shift):
        monkeypatch.setattr(presentation, "add_strand", shift)
        code = cli.main(["present", "--tree", tree_file(HTREE), "--n", "4"])
        assert code == 3
        assert "error: shifted generator" in capsys.readouterr().err

    @pytest.mark.parametrize("n", range(4, 8))
    def test_shift_that_breaks_the_suffixes_exits_3(self, tree_file, caterpillar5, capsys,
                                                    monkeypatch, n):
        # an arm-1 shift by t that puts t - 1 strands on arm 1 and one on
        # arm 2: every image is still a generator, but not the suffix
        def misplaced(edge, arm, times=1):
            if arm == 1 and times >= 1:
                a = edge[0]
                return (a[0] + times - 1, a[1] + 1, *a[2:]), edge[1]
            return stars.add_strand(edge, arm, times)

        monkeypatch.setattr(presentation, "add_strand", misplaced)
        code = cli.main(["present", "--tree", tree_file(tree_json(caterpillar5)), "--n", str(n)])
        assert code == 3
        assert "along arm 1 are not a suffix" in capsys.readouterr().err

    def test_out_of_memory_exits_4(self, tree_file, capsys, monkeypatch):
        def exhausted(arm_counts, n):
            raise MemoryError

        monkeypatch.setattr(presentation, "assemble", exhausted)
        code = cli.main(["present", "--tree", tree_file(HTREE), "--n", "4"])
        assert code == 4
        assert "error: out of memory" in capsys.readouterr().err


def _exhausted(arm_counts, n):
    raise MemoryError


class TestCollectorState:
    """cli.main runs the command with the cyclic collector paused and puts
    it back as it found it, whatever the exit code."""

    CASES = {
        "table": (["table"], None, 0),
        "usage-error": (["table", "--k-min"], None, 1),
        "rank-mismatch": (["table", "--k-min", "3", "--k-max", "3"],
                          (stars, "rank_from_euler", lambda k, n: -1), 3),
        "out-of-memory": (["present", "--tree", HTREE, "--n", "4"],
                          (presentation, "assemble", _exhausted), 4),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_state_is_restored(self, tree_file, capsys, monkeypatch, case, enabled):
        argv, patch, expected = self.CASES[case]
        argv = [tree_file(a) if isinstance(a, dict) else a for a in argv]
        if patch is not None:
            monkeypatch.setattr(*patch)
        inside = []
        real_build_parser = cli.build_parser

        def spy():
            inside.append(gc.isenabled())
            return real_build_parser()

        monkeypatch.setattr(cli, "build_parser", spy)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = cli.main(argv)
            after = gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert code == expected
        assert inside == [False]
        assert after is enabled


class TestInputFuzz:
    """Seeded random damage to both input formats must land on exit 0, 1
    or 2; an exception escaping cli.main would print a traceback."""

    PIECES = [b"{", b"}", b"[", b"]", b'"', b",", b":", b" ", b"\n", b"#", b"0", b"-1",
              b"1.5", b"null", b"true", b"p", b"u", b"v", b"z", b"endpoint", b"\xff"]
    VALUES = [5, -1, 2.5, None, True, "", "pu", [], [[]], [["p"]], [["p", "p"]],
              [[1, 2, 3]], {"p": "u"}, [{"p": "u"}], [[None, "u"]], [["p", ["u"]]]]

    def damage(self, rng, data: bytes) -> bytes:
        """Delete, insert, replace or repeat a short random slice."""
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(data) + 1)
            j = min(len(data), i + rng.randint(0, 4))
            op = rng.randrange(4)
            if op == 0:
                data = data[:i] + data[j:]
            elif op == 1:
                data = data[:i] + rng.choice(self.PIECES) + data[i:]
            elif op == 2:
                data = data[:i] + rng.choice(self.PIECES) + data[j:]
            else:
                data = data[:j] + data[i:j] + data[j:]
        return data

    def replace_value(self, rng) -> bytes:
        """HTREE with one field, or one entry of a list field, replaced."""
        data = json.loads(json.dumps(HTREE))
        key = rng.choice(["vertices", "edges", "endpoint"])
        if key != "endpoint" and rng.random() < 0.5:
            data[key][rng.randrange(len(data[key]))] = rng.choice(self.VALUES)
        elif rng.random() < 0.2:
            del data[key]
        else:
            data[key] = rng.choice(self.VALUES)
        return json.dumps(data).encode()

    @pytest.mark.parametrize("fmt,seed", [("json", 1), ("json", 2), ("text", 3)])
    def test_damaged_input_exits_0_1_or_2(self, tmp_path, capsys, fmt, seed):
        rng = random.Random(seed)
        base = json.dumps(HTREE).encode() if fmt == "json" else HTREE_TEXT.encode()
        path = tmp_path / "tree"
        codes = set()
        for _ in range(300):
            if fmt == "json" and rng.random() < 0.5:
                data = self.replace_value(rng)
            else:
                data = self.damage(rng, base)
            path.write_bytes(data)
            try:
                code = cli.main(["present", "--tree", str(path), "--n", "2"])
            except Exception as exc:
                pytest.fail(f"{data!r} raised {exc!r}")
            capsys.readouterr()
            assert code in (0, 1, 2), data
            codes.add(code)
        assert {0, 1} <= codes    # the damage reaches both accepted and rejected input


class TestReadme:
    def test_every_readme_command_parses(self):
        # the command-line block and every inline `treebraid ...` span
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [line for line in block.splitlines() if line.startswith("treebraid ")]
        commands += re.findall(r"`(treebraid\s[^`]+)`", text)
        assert len(commands) >= 5, commands
        for command in commands:
            argv = shlex.split(command)[1:]
            assert cli.build_parser().parse_args(argv).command == argv[0], command


class TestProcessExitCodes:
    """The exit code as a process returns it, through the ``__main__`` guard
    of ``python -m treebraid.cli``, with the message on stderr."""

    @pytest.mark.parametrize("argv,code", [
        (["table", "--k-max", "3", "--n-max", "2"], 0),
        (["present", "--tree", "missing.json", "--n", "2"], 1),
        (["present", "--tree", "spider.json", "--n", "2"], 2),
        (["stabilize", "--tree", "h.json", "--n", "99999999999"], 4),
    ], ids=["ok", "input", "not-linear", "resources"])
    def test_exit_code(self, tmp_path, argv, code):
        (tmp_path / "spider.json").write_text(json.dumps(SPIDER))
        (tmp_path / "h.json").write_text(json.dumps(HTREE))
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "treebraid.cli", *argv], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
        assert done.stderr.startswith("error: ") == bool(code), done.stderr
