"""The package's record types behave as frozen records of their fields:
exact reprs, read-only fields, ordering and hashing by the field tuple.
Error messages that print records are pinned byte for byte."""
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import treebraid
from treebraid import cubes, trees
from treebraid import presentation as pres
from treebraid.presentation import Generator, NaturalityError, Presentation

from cube_reference import pi1_presentation

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_reprs(htree):
    assert repr(Generator(1, (0, 1, 1), 2)) == "Generator(star=1, a=(0, 1, 1), p=2)"
    assert repr(pres.assemble(trees.decompose(htree), 2)) == (
        "Presentation(n=2, generators=(Generator(star=1, a=(0, 1, 1), p=2), "
        "Generator(star=2, a=(0, 1, 1), p=2)), partners=((range(2, 2),), ()))"
    )
    assert repr(cubes.oracle_report(htree, 2)) == (
        "HomologyReport(cell_counts=(15, 20, 4, 0), boundary_ranks=(14, 4, 0), "
        "betti=(1, 2, 0), torsion=((), (), ()))"
    )
    tripod = trees.parse_tree("endpoint x\nx v\nv y\nz v\n")
    assert repr(tripod) == (
        "Tree(vertices=('v', 'x', 'y', 'z'), "
        "edges=(('v', 'x'), ('v', 'y'), ('v', 'z')), endpoint='x')"
    )


def test_generators_sort_by_star_then_arms_then_arm(caterpillar5):
    gens = pres.assemble(trees.decompose(caterpillar5), 4).generators
    key = lambda g: (g.star, g.a, g.p)
    assert list(gens) == sorted(gens, key=key)
    assert sorted(reversed(gens)) == sorted(gens, key=key)
    assert Generator(1, (0, 2, 1), 3) < Generator(1, (1, 1, 1), 2)
    assert Generator(1, (0, 1, 1, 1), 3) < Generator(2, (0, 1, 1), 2)


def records(htree):
    """One instance of every record type, with the names of its fields."""
    d = trees.decompose(htree)
    cx = cubes.build_complex(trees.subdivide_edges(htree, 2), 2)
    return [
        (Generator(1, (0, 1, 1), 2), ("star", "a", "p")),
        (pres.assemble(d, 3), ("n", "generators", "partners")),
        (htree, ("vertices", "edges", "endpoint")),
        (cx, ("tree", "n", "d_max", "cells")),
        (cubes.boundary_matrix(cx, 1), ("nrows", "d", "rows")),
        (cubes.betti(cx), ("cell_counts", "boundary_ranks", "betti", "torsion")),
        (pi1_presentation(cx), ("generator_count", "relators")),
    ]


def test_fields_are_read_only(htree):
    for record, fields in records(htree):
        before = repr(record)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert repr(record) == before, type(record).__name__


def test_fields_cannot_be_deleted(htree):
    for record, fields in records(htree):
        for field in fields:
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert all(hasattr(record, field) for field in fields), type(record).__name__


def test_records_hash_as_their_field_tuples(htree):
    for record, fields in records(htree):
        values = tuple(getattr(record, field) for field in fields)
        assert hash(record) == hash(values), type(record).__name__


def test_readme_names_every_named_tuple():
    # the parenthesis of README's "Record types are ..." sentence, against
    # the NamedTuple classes the package defines
    readme = " ".join((ROOT / "README.md").read_text().split())
    listed = re.search(r"Record types are `typing\.NamedTuple`s \(([^)]*)\)", readme)
    assert listed, "README has no 'Record types are' sentence"
    named = set(re.findall(r"`(\w+)`", listed.group(1)))
    defined = set()
    for info in pkgutil.iter_modules(treebraid.__path__):
        module = importlib.import_module(f"treebraid.{info.name}")
        defined |= {
            name for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
            and obj.__module__ == module.__name__
        }
    assert named == defined


def perfbench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_tree_is_the_same_across_shuffled_inputs(tmp_path, monkeypatch):
    # the benchmark's seeds shuffle edge order, orientation and vertex order
    run = perfbench_run(monkeypatch)
    loaded = []
    for seed in range(12):
        work = tmp_path / str(seed)
        work.mkdir()
        run.write_inputs(work, seed)
        loaded.append((trees.load_tree(work / "htree.json"),
                       trees.load_tree(work / "caterpillar.txt")))
    assert len({(work / "htree.json").read_text() for work in tmp_path.iterdir()}) > 1
    for htree, caterpillar in loaded:
        assert htree == loaded[0][0] and hash(htree) == hash(loaded[0][0])
        assert caterpillar == loaded[0][1] and hash(caterpillar) == hash(loaded[0][1])
        assert htree != caterpillar


def test_tree_equality_reads_every_field():
    path = trees.parse_tree("endpoint a\na b\nb c\n")
    assert path == trees.parse_tree("endpoint a\nc b\nb a\n")
    assert path != trees.parse_tree("endpoint c\na b\nb c\n")
    assert path != trees.parse_tree("endpoint a\na b\nb d\n")
    assert path != (path.vertices, path.edges, path.endpoint)


class TestErrorMessages:
    """Messages that print generators, byte for byte."""

    def test_assemble_broken_shift(self, htree, monkeypatch):
        # names the first stray in (a, p) order, the order bases come in
        monkeypatch.setattr(pres, "add_strand", lambda edge, arm, times=1: edge)
        with pytest.raises(NaturalityError) as info:
            pres.assemble(trees.decompose(htree), 4)
        assert str(info.value) == (
            "shifted generator Generator(star=1, a=(0, 1, 2), p=2) "
            "is not a generator at level 4"
        )

    def test_stabilize_broken_shift(self, htree, monkeypatch):
        d = trees.decompose(htree)
        source, target = pres.assemble(d, 3), pres.assemble(d, 4)
        monkeypatch.setattr(pres, "add_strand", lambda edge, arm, times=1: edge)
        with pytest.raises(NaturalityError) as info:
            pres.stabilize(source, target)
        assert str(info.value) == (
            "generator images escape level 4: ["
            "Generator(star=1, a=(0, 1, 2), p=2), "
            "Generator(star=1, a=(0, 2, 1), p=2), "
            "Generator(star=1, a=(1, 1, 1), p=2)]"
        )

    def test_missing_relation_image(self, htree):
        d = trees.decompose(htree)
        source, target = pres.assemble(d, 4), pres.assemble(d, 5)
        empty = tuple(tuple(range(r.stop, r.stop) for r in row) for row in target.partners)
        dropped = Presentation(n=5, generators=target.generators, partners=empty)
        assert not dropped.relations
        with pytest.raises(NaturalityError) as info:
            pres.stabilize(source, dropped)
        assert str(info.value) == (
            "relation image [Generator(star=1, a=(1, 3, 1), p=2), "
            "Generator(star=2, a=(3, 1, 1), p=2)] missing at level 5"
        )

    def test_missing_relation_image_past_the_first(self, htree):
        # the target lacks only the image of the second source relation: the
        # one subset check fails and the message names that image
        d = trees.decompose(htree)
        source, target = pres.assemble(d, 5), pres.assemble(d, 6)
        mapping = pres.stabilize(source, target)
        i, j = source.relations[1]
        a, b = mapping[i], mapping[j]
        assert (a, b) != target.relations[0]
        # b is the first of a's partners on its star: a's range there starts one later
        row = target.partners[a]
        cut = tuple(range(b + 1, r.stop) if r and r.start == b else r for r in row)
        assert cut != row
        dropped = target._replace(partners=(*target.partners[:a], cut, *target.partners[a + 1:]))
        assert set(target.relations) - set(dropped.relations) == {(a, b)}
        with pytest.raises(NaturalityError) as info:
            pres.stabilize(source, dropped)
        assert str(info.value) == (
            "relation image [Generator(star=1, a=(1, 4, 1), p=2), "
            "Generator(star=2, a=(3, 1, 2), p=2)] missing at level 6"
        )
