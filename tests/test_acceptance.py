"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; a last test checks the oracle's default subdivision against them.
The heavier homology runs (H-tree with four strands) are shared across
criteria through a module-level cache; the whole module is still the
slowest part of the suite by far.
"""
from itertools import product

from treebraid import cubes, presentation, stars, trees

# ---------------------------------------------------------------------------
# shared material


def _tree(edges, endpoint):
    return trees.make_tree({v for e in edges for v in e}, edges, endpoint)


TREES = {
    "interval": _tree([("p", "m"), ("m", "q")], "p"),
    "tripod": _tree([("x", "v"), ("y", "v"), ("z", "v")], "x"),
    "star4": _tree([("w", "v"), ("x", "v"), ("y", "v"), ("z", "v")], "w"),
    "htree": _tree([("p", "u"), ("a", "u"), ("u", "v"), ("v", "b"), ("v", "c")], "p"),
    "caterpillar3": _tree(
        [("p", "v1"), ("a", "v1"), ("v1", "v2"), ("v2", "b"),
         ("v2", "v3"), ("v3", "c"), ("v3", "d")],
        "p",
    ),
}

# (tree, n) pairs checked against the cube complex, with frozen expectations
ORACLE_CASES = [
    ("tripod", 2, 1, 0),
    ("tripod", 3, 3, 0),
    ("star4", 2, 3, 0),
    ("interval", 2, 0, 0),
    ("interval", 3, 0, 0),
    ("htree", 2, 2, 0),
    ("htree", 3, 6, 0),
    ("htree", 4, 12, 1),
]

_complexes: dict = {}


def oracle(name: str, n: int, parts: int):
    """Build (once) the discrete complex and its homology report."""
    key = (name, n, parts)
    if key not in _complexes:
        fine = trees.subdivide_edges(TREES[name], parts)
        cx = cubes.build_complex(fine, n, d_max=3)
        _complexes[key] = (cx, cubes.betti(cx))
    return _complexes[key]


def report(message: str) -> None:
    print(f"\n[PASS] {message}")


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_star_rank_table():
    for k, n in product(range(2, 6), range(7)):
        enumerated = len(stars.basis(k, n).edges)
        assert enumerated == stars.rank_from_euler(k, n)
        assert enumerated == stars.rank_closed_form(k, n)
        assert stars.rank(k, n) == enumerated
    spots = {(3, 2): 1, (3, 3): 3, (3, 4): 6, (4, 2): 3}
    for (k, n), expect in spots.items():
        assert stars.rank(k, n) == expect
    report(
        "criterion 1: star ranks agree three ways (enumeration, Euler, closed"
        " form) for k=2..5, n=0..6; spot values (3,2)=1 (3,3)=3 (3,4)=6 (4,2)=3"
    )


def test_criterion_2_spanning_tree_properties():
    for k, n in product(range(2, 6), range(7)):
        tree_edges = stars.spanning_tree(k, n)
        vertices = [("I", v.b) for v in stars.type1_vertices(k, n)]
        vertices += [("II", v.a) for v in stars.type2_vertices(k, n)]
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in tree_edges:
            a, b = find(("II", e.a)), find(("I", e.type1().b))
            assert a != b, f"cycle at k={k}, n={n}"
            parent[a] = b
        assert len(tree_edges) == max(len(vertices) - 1, 0), f"not spanning at k={k}, n={n}"
        # edges supported on arms 1 and 2 alone always belong to the tree
        for e in stars.star_edges(k, n):
            if all(x == 0 for x in e.a[2:]):
                assert e in tree_edges
    report(
        "criterion 2: successor trees are acyclic, span every vertex, and"
        " contain the two-arm subcomplex for k=2..5, n=0..6"
    )


def test_criterion_3_stabilization():
    for name in TREES:
        decomp = trees.decompose(TREES[name])
        for n in range(1, 7):
            step = presentation.stabilize(   # validates images internally
                presentation.assemble(decomp, n - 1), presentation.assemble(decomp, n)
            )
            assert len(step.mapping) == len(step.source.generators)
    for k, n in product(range(2, 6), range(7)):
        for e in stars.basis(k, n).edges:
            one_two = stars.add_strand(stars.add_strand(e, 1), 2)
            two_one = stars.add_strand(stars.add_strand(e, 2), 1)
            assert one_two == two_one
    report(
        "criterion 3: strand addition embeds generators and relations at"
        " every level n<=6 on all five test trees; arm-1 and arm-2 additions"
        " commute on every basis edge"
    )


def test_criterion_4_closed_form_equals_recursive_sweep():
    for name in TREES:
        decomp = trees.decompose(TREES[name])
        for n in range(7):
            pres = presentation.assemble(decomp, n)
            assert pres.relations == presentation.predicate_relations(pres, n), (name, n)
    htree = trees.decompose(TREES["htree"])
    counts = [len(presentation.assemble(htree, n).relations) for n in range(1, 5)]
    assert counts == [0, 0, 0, 1]
    cat = presentation.assemble(trees.decompose(TREES["caterpillar3"]), 4)
    assert len(cat.generators) == 18
    assert len(cat.relations) == 3
    report(
        "criterion 4: capacity predicate reproduces the recursive relation"
        " sweep on all test trees for n<=6; H-tree relations 0,0,0,1 for"
        " n=1..4; 3-hub caterpillar at n=4 has 18 generators, 3 relations"
    )


def test_criterion_5_oracle_agreement():
    lines = []
    for name, n, expect_gens, expect_rels in ORACLE_CASES:
        pres = presentation.assemble(trees.decompose(TREES[name]), n)
        assert (len(pres.generators), len(pres.relations)) == (expect_gens, expect_rels)
        _, rep = oracle(name, n, n + 1)
        assert rep.betti[0] == 1, (name, n)
        assert rep.betti[1] == expect_gens, (name, n)
        assert rep.betti[2] == expect_rels, (name, n)
        assert rep.torsion[1] == (), (name, n)   # H_1 torsion-free
        assert rep.torsion[2] == (), (name, n)   # H_2 torsion-free
        lines.append(f"{name} n={n}: b=(1,{rep.betti[1]},{rep.betti[2]})")
    report("criterion 5: homology matches presentations -- " + "; ".join(lines))


def test_criterion_6_refinement_stability():
    for name, n, _, _ in ORACLE_CASES:
        _, coarse = oracle(name, n, n + 1)
        _, fine = oracle(name, n, n + 2)
        assert coarse.betti == fine.betti, (name, n)
    report(
        "criterion 6: all criterion-5 Betti numbers unchanged when every"
        " edge is cut one piece finer"
    )


def test_criterion_7_chain_sanity_and_pi1():
    for (name, n, parts), (cx, rep) in sorted(_complexes.items()):
        cubes.check_boundary_squares_to_zero(cx)
    for name, n, _, _ in ORACLE_CASES:
        cx, rep = oracle(name, n, n + 1)
        pi1 = cubes.pi1_presentation(cx)
        assert pi1.abelianized_rank() == rep.betti[1], (name, n)
    report(
        "criterion 7: boundary-of-boundary is exactly zero on every built"
        " complex; spanning-tree pi1 abelianizations match b_1 on every"
        " criterion-5 case"
    )


def test_default_subdivision_agrees_with_n_plus_1():
    """The oracle's default cut, max(1, n-1) pieces per edge (Prue-Scrimshaw),
    gives the homology of the n+1 cut that criteria 5-7 use."""
    for name, n, _, _ in ORACLE_CASES:
        _, coarse = oracle(name, n, max(1, n - 1))
        _, fine = oracle(name, n, n + 1)
        assert (coarse.betti, coarse.torsion) == (fine.betti, fine.torsion), (name, n)
    # the n+1 cut of caterpillar3 at n=4 has about 700,000 cells, out of
    # reach here; criterion 4's presentation gives the expected homology
    _, rep = oracle("caterpillar3", 4, 3)
    assert rep.betti == (1, 18, 3)
    assert not any(rep.torsion)
    report(
        "default subdivision: max(1, n-1) pieces per edge give the Betti"
        " numbers and torsion of n+1 pieces on every criterion-5 case;"
        " caterpillar3 n=4 gives b=(1,18,3), torsion-free"
    )
