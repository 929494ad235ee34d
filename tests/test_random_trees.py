"""Pipeline properties on randomly generated linear trees.

Caterpillars with random hub degrees, spacer lengths and arm lengths cover
shapes the named fixtures do not; everything here is seeded and cheap.
"""
import random

from treebraid import presentation, stars, trees

from star_reference import predicate_relations


def random_caterpillar(rng):
    """A linear tree: 1..3 hubs of degree 3..5 strung along a spine."""
    hubs = rng.randint(1, 3)
    edges = []
    counter = 0

    def fresh():
        nonlocal counter
        counter += 1
        return f"t{counter:03d}"

    def chain(a, length):
        cur = a
        for _ in range(length):
            nxt = fresh()
            edges.append((cur, nxt))
            cur = nxt
        return cur

    endpoint = "p"
    prev = "p"
    for h in range(hubs):
        hub = f"hub{h}"
        # spine segment into the hub
        cur = chain(prev, rng.randint(0, 2))
        edges.append((cur, hub))
        degree = rng.randint(3, 5)
        # leave one slot for the outgoing spine on non-final hubs
        branches = degree - 2 if h < hubs - 1 else degree - 1
        for _ in range(branches):
            chain(hub, rng.randint(1, 2))
        prev = hub
    chain(prev, rng.randint(1, 2))   # spine tail past the last hub
    vertices = {v for e in edges for v in e}
    return trees.make_tree(vertices, edges, endpoint)


def test_random_caterpillars_full_pipeline():
    rng = random.Random(20240)
    for trial in range(25):
        tree = random_caterpillar(rng)
        arm_counts = trees.decompose(tree)
        assert arm_counts, f"trial {trial} produced no hubs"
        # arm counts are the hub degrees, in trunk order
        trunk = trees.validate_linear(tree)
        assert arm_counts == tuple(tree.degree(v) for v in trunk if tree.degree(v) >= 3)
        for n in range(5):
            pres = presentation.assemble(arm_counts, n)
            assert len(pres.generators) == sum(stars.rank(k, n) for k in arm_counts)
            assert pres.relations == predicate_relations(pres, n)
        for n in range(1, 5):
            source = presentation.assemble(arm_counts, n - 1)
            mapping = presentation.stabilize(source, presentation.assemble(arm_counts, n))
            assert len(mapping) == len(source.generators)


def test_random_caterpillars_linearity_stable_under_subdivision():
    rng = random.Random(717)
    for _ in range(10):
        tree = random_caterpillar(rng)
        trunk = trees.validate_linear(tree)
        fine_trunk = trees.validate_linear(trees.subdivide_edges(tree, 2))
        # original trunk vertices survive subdivision in order
        kept = [v for v in fine_trunk if v in set(trunk)]
        assert kept == list(trunk)
