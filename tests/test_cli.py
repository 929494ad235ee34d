import json
import random

import pytest

from treebraid import cli, cubes, presentation, stars, trees

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
            "verify", "--tree", tree_file(HTREE), "--n", "4", "--cell-cap", "100",
        ])
        assert code == 4
        # the largest layer at 3 pieces per edge is the 2-cells
        assert "5874" in capsys.readouterr().err

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



class TestStabilize:
    def test_htree_chain(self, tree_file, capsys):
        assert cli.main(["stabilize", "--tree", tree_file(HTREE), "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "all 5 strand-addition steps" in out

    def test_interval_chain(self, tree_file, capsys):
        assert cli.main(["stabilize", "--tree", tree_file(INTERVAL), "--n", "6"]) == 0

    def test_broken_chain_exits_3(self, tree_file, monkeypatch, capsys):
        from treebraid import presentation as pres_mod

        def sabotaged(edge, arm):
            return edge

        monkeypatch.setattr(pres_mod, "add_strand", sabotaged)
        code = cli.main(["stabilize", "--tree", tree_file(HTREE), "--n", "3"])
        assert code == 3


class TestInternalErrors:
    """Internal consistency failures exit 3 with a message, never a traceback."""

    def test_same_star_exits_3_not_1(self, tree_file, capsys, monkeypatch):
        # SameStarError is a ValueError; it must not read as an input error
        def same_star_pair(decomp, n):
            g = presentation.Generator(1, stars.StarEdge((0, 1, 1), 2))
            presentation.commutation_predicate(g, g, n)

        monkeypatch.setattr(presentation, "assemble", same_star_pair)
        code = cli.main(["present", "--tree", tree_file(HTREE), "--n", "2"])
        assert code == 3
        assert "error: generators are both on star 1" in capsys.readouterr().err

    def test_rank_mismatch_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(stars, "rank_from_euler", lambda k, n: -1)
        assert cli.main(["table", "--k-min", "3", "--k-max", "3"]) == 3
        assert "error: rank disagreement" in capsys.readouterr().err

    def test_boundary_square_failure_exits_3(self, tree_file, capsys, monkeypatch):
        real = cubes.cell_faces

        def unsigned_faces(cell):
            return [(face, 1) for face, _ in real(cell)]

        monkeypatch.setattr(cubes, "cell_faces", unsigned_faces)
        code = cli.main(["verify", "--tree", tree_file(HTREE), "--n", "3"])
        assert code == 3
        assert "error: boundary^2 != 0" in capsys.readouterr().err


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
