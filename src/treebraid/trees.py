"""Finite combinatorial trees with a marked endpoint.

A tree here is a plain undirected tree on string vertex ids, with one
degree-1 vertex singled out.  The module knows how to

* parse trees from JSON or a simple adjacency text format,
* test the "linear" condition: every branch vertex (degree >= 3) lies on a
  single path starting at the marked endpoint,
* peel a linear tree into an ordered sequence of stars glued end to end,
* subdivide edges (needed by the cube-complex verifier).

Everything is immutable and deterministic: arms, spines and ids are ordered
by string comparison, never by hash order.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field


class TreeError(Exception):
    """Base class for all tree input problems."""


class ParseError(TreeError):
    """Malformed input: bad JSON, bad edge line, self-loop, duplicate edge."""


class InvalidTreeError(TreeError):
    """Well-formed input that is not a tree with a marked endpoint."""


class NotLinearError(TreeError):
    """No path from the marked endpoint covers every branch vertex."""

    def __init__(self, message: str, offending: tuple[str, ...] = ()):
        super().__init__(message)
        self.offending = tuple(offending)


@dataclass(frozen=True)
class Tree:
    """Undirected tree; ``endpoint`` is the marked degree-1 vertex."""

    vertices: tuple[str, ...]                  # sorted
    edges: tuple[tuple[str, str], ...]         # each (u, w) with u < w, sorted
    endpoint: str
    _adjacency: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        object.__setattr__(
            self, "_adjacency", {v: tuple(sorted(ns)) for v, ns in adj.items()}
        )

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adjacency[v]

    def degree(self, v: str) -> int:
        return len(self._adjacency[v])

    def branch_vertices(self) -> tuple[str, ...]:
        """Vertices of degree >= 3, sorted by id."""
        return tuple(v for v in self.vertices if self.degree(v) >= 3)

    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.degree(v) == 1)


@dataclass(frozen=True)
class Arm:
    """One arm of a star: the path from the hub to ``endpoint`` (inclusive)."""

    endpoint: str
    length: int
    path: tuple[str, ...]   # hub first, endpoint last; len(path) == length + 1


@dataclass(frozen=True)
class Star:
    """A hub vertex together with k >= 2 ordered arms.

    Arm 1 points toward the tree's marked endpoint; arm 2 continues along
    the spine (or, for the last star, toward the lowest-id leaf).  The
    remaining arms are sorted by endpoint id.
    """

    node: str
    arms: tuple[Arm, ...]

    @property
    def k(self) -> int:
        return len(self.arms)

    def arm(self, i: int) -> Arm:
        """1-based arm access."""
        return self.arms[i - 1]

    def edge_set(self) -> frozenset[tuple[str, str]]:
        out = set()
        for arm in self.arms:
            for u, w in zip(arm.path, arm.path[1:]):
                out.add((u, w) if u < w else (w, u))
        return frozenset(out)

    def vertex_set(self) -> frozenset[str]:
        return frozenset(v for arm in self.arms for v in arm.path)


@dataclass(frozen=True)
class StarDecomposition:
    """Ordered stars peeled from the marked endpoint of a linear tree.

    ``tree`` is the normalized tree: identical to the input except that a
    fresh glue vertex is inserted wherever two hubs were adjacent, so that
    consecutive stars always meet in a single shared endpoint.
    """

    tree: Tree
    stars: tuple[Star, ...]
    glue_points: tuple[str, ...]
    spine: tuple[str, ...]

    @property
    def is_interval(self) -> bool:
        return not self.stars

    def arm_counts(self) -> tuple[int, ...]:
        return tuple(s.k for s in self.stars)


def make_tree(vertices, edges, endpoint: str) -> Tree:
    """Validate and normalize raw vertex/edge data into a Tree."""
    vs = tuple(sorted(set(vertices)))
    if len(vs) < 2:
        raise InvalidTreeError("a tree needs at least two vertices")
    seen = set()
    norm = []
    for u, w in edges:
        if u == w:
            raise ParseError(f"self-loop at vertex {u!r}")
        if u not in vs or w not in vs:
            missing = u if u not in vs else w
            raise ParseError(f"edge ({u!r}, {w!r}) references unknown vertex {missing!r}")
        e = (u, w) if u < w else (w, u)
        if e in seen:
            raise ParseError(f"duplicate edge ({e[0]!r}, {e[1]!r})")
        seen.add(e)
        norm.append(e)
    if endpoint not in vs:
        raise InvalidTreeError(f"marked vertex {endpoint!r} is not in the tree")
    if len(norm) != len(vs) - 1:
        raise InvalidTreeError(
            f"not a tree: {len(vs)} vertices need {len(vs) - 1} edges, got {len(norm)}"
        )
    # connected + |E| = |V| - 1  =>  acyclic
    adj: dict[str, list[str]] = {v: [] for v in vs}
    for u, w in norm:
        adj[u].append(w)
        adj[w].append(u)
    reached = {vs[0]}
    queue = deque([vs[0]])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in reached:
                reached.add(y)
                queue.append(y)
    if len(reached) != len(vs):
        raise InvalidTreeError("not a tree: graph is disconnected")
    if len(adj[endpoint]) != 1:
        raise InvalidTreeError(
            f"marked vertex {endpoint!r} is not an endpoint (degree {len(adj[endpoint])})"
        )
    return Tree(vs, tuple(sorted(norm)), endpoint)


def _coerce_id(value, where: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ParseError(f"{where}: vertex id must be a string, got {value!r}")


def _parse_json(text: str) -> Tree:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("vertices", "edges", "endpoint"):
        if key not in data:
            raise ParseError(f"missing field {key!r}")
        if key != "endpoint" and not isinstance(data[key], list):
            raise ParseError(f"{key}: expected a JSON array, got {data[key]!r}")
    vertices = [_coerce_id(v, "vertices") for v in data["vertices"]]
    edges = []
    for i, pair in enumerate(data["edges"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"edges[{i}]: expected a pair, got {pair!r}")
        edges.append((_coerce_id(pair[0], f"edges[{i}]"), _coerce_id(pair[1], f"edges[{i}]")))
    endpoint = _coerce_id(data["endpoint"], "endpoint")
    return make_tree(vertices, edges, endpoint)


def _parse_adjacency(text: str) -> Tree:
    endpoint = None
    edges = []
    vertices = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if endpoint is None:
            if len(tokens) != 2 or tokens[0] != "endpoint":
                raise ParseError(f"line {lineno}: expected 'endpoint <id>', got {line!r}")
            endpoint = tokens[1]
            vertices.add(endpoint)
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        edges.append((tokens[0], tokens[1]))
        vertices.update(tokens)
    if endpoint is None:
        raise ParseError("empty input: first line must be 'endpoint <id>'")
    return make_tree(vertices, edges, endpoint)


def parse_tree(text: str) -> Tree:
    """Parse a tree from JSON or from the adjacency text format.

    JSON: {"vertices": [...], "edges": [[u, w], ...], "endpoint": id}.
    Text: first line "endpoint p", then one edge "u w" per line; blank
    lines and '#' comments are ignored.  Both formats yield identical
    trees for identical ids.
    """
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_adjacency(text)


def load_tree(path) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def _walk_path(tree: Tree, start: str, first_step: str) -> list[str]:
    """Follow the unique degree-<=2 continuation from start through first_step."""
    path = [start, first_step]
    prev, cur = start, first_step
    while tree.degree(cur) == 2:
        nxt = next(x for x in tree.neighbors(cur) if x != prev)
        path.append(nxt)
        prev, cur = cur, nxt
    return path


def _path_between(tree: Tree, a: str, b: str) -> list[str]:
    parent = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for y in tree.neighbors(x):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def validate_linear(tree: Tree) -> tuple[str, ...]:
    """Return the spine: a path from the marked endpoint, through every
    branch vertex, to a leaf.

    The far end is chosen deterministically: past the last branch vertex the
    spine continues toward the lowest-id reachable leaf.  Raises
    NotLinearError (naming the stranded branch vertices) when no such path
    exists, which covers both genuinely non-linear trees and linear trees
    whose marked endpoint sits on a middle branch.
    """
    nodes = set(tree.branch_vertices())
    p = tree.endpoint
    if not nodes:
        # max degree <= 2: the tree is a path and p is one of its two ends
        return tuple(_walk_path(tree, p, tree.neighbors(p)[0]))

    dist = {p: 0}
    queue = deque([p])
    while queue:
        x = queue.popleft()
        for y in tree.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    far = max(nodes, key=lambda v: (dist[v], v))
    trunk = _path_between(tree, p, far)
    missed = sorted(nodes - set(trunk))
    if missed:
        raise NotLinearError(
            "not linear: no path from the marked endpoint covers branch vertices "
            + ", ".join(repr(v) for v in missed),
            offending=tuple(missed),
        )
    # extend past the last branch vertex toward the lowest-id leaf
    before = trunk[-2]
    tails = [
        _walk_path(tree, far, x) for x in tree.neighbors(far) if x != before
    ]
    tail = min(tails, key=lambda t: t[-1])
    return tuple(trunk + tail[1:])


def _fresh_id(taken: set[str], base: str) -> str:
    """base, primed until no id in taken uses it; the result joins taken."""
    while base in taken:
        base += "'"
    taken.add(base)
    return base


def decompose(tree: Tree) -> StarDecomposition:
    """Peel a linear tree into stars, left to right along the spine.

    Consecutive hubs that are adjacent get a fresh glue vertex inserted
    between them, so star i and star i+1 always intersect in exactly one
    vertex: glue_points[i-1], which is arm 2's endpoint of star i and arm
    1's endpoint of star i+1.  A node-free tree yields no stars at all.
    """
    spine = list(validate_linear(tree))
    vertices = list(tree.vertices)
    edges = set(tree.edges)
    node_pos = [i for i, v in enumerate(spine) if tree.degree(v) >= 3]
    if not node_pos:
        return StarDecomposition(tree=tree, stars=(), glue_points=(), spine=tuple(spine))

    # normalize: make sure every consecutive hub pair has an interior vertex
    taken = set(vertices)
    for j in range(len(node_pos) - 1, 0, -1):
        a, b = node_pos[j - 1], node_pos[j]
        if b == a + 1:
            glue = _fresh_id(taken, f"{spine[a]}+{spine[b]}")
            vertices.append(glue)
            edges.remove((spine[a], spine[b]) if spine[a] < spine[b] else (spine[b], spine[a]))
            edges.add((spine[a], glue) if spine[a] < glue else (glue, spine[a]))
            edges.add((glue, spine[b]) if glue < spine[b] else (spine[b], glue))
            spine.insert(b, glue)
    norm = make_tree(vertices, edges, tree.endpoint)
    node_pos = [i for i, v in enumerate(spine) if norm.degree(v) >= 3]

    glue_idx = []
    for a, b in zip(node_pos, node_pos[1:]):
        glue_idx.append((a + b) // 2)   # an interior spine vertex; b - a >= 2
    glue_points = tuple(spine[i] for i in glue_idx)

    def spine_arm(hub_i: int, other_i: int) -> Arm:
        if hub_i < other_i:
            path = tuple(spine[hub_i:other_i + 1])
        else:
            path = tuple(spine[other_i:hub_i + 1][::-1])
        return Arm(endpoint=path[-1], length=len(path) - 1, path=path)

    def branch_arms(hub_i: int, exclude: set[str]) -> list[Arm]:
        hub = spine[hub_i]
        arms = []
        for x in norm.neighbors(hub):
            if x in exclude:
                continue
            path = tuple(_walk_path(norm, hub, x))
            arms.append(Arm(endpoint=path[-1], length=len(path) - 1, path=path))
        arms.sort(key=lambda arm: arm.endpoint)
        return arms

    stars = []
    m = len(node_pos)
    for i, hub_i in enumerate(node_pos):
        hub = spine[hub_i]
        arm1 = spine_arm(hub_i, 0 if i == 0 else glue_idx[i - 1])
        if i < m - 1:
            arm2 = spine_arm(hub_i, glue_idx[i])
            rest = branch_arms(hub_i, {arm1.path[1], arm2.path[1]})
            arms = (arm1, arm2, *rest)
        else:
            rest = branch_arms(hub_i, {arm1.path[1]})
            arms = (arm1, *rest)   # rest is endpoint-sorted; rest[0] is arm 2
        stars.append(Star(node=hub, arms=arms))

    return StarDecomposition(
        tree=norm, stars=tuple(stars), glue_points=glue_points, spine=tuple(spine)
    )


def subdivide_edges(tree: Tree, parts: int) -> Tree:
    """Replace every edge by a path of ``parts`` edges; original ids survive.

    New vertices on the edge (u, w), u < w, are named "u:w:1" .. "u:w:parts-1"
    walking from u to w, so the result is independent of input order.  A
    name some vertex already has is primed ("u:w:1'") until it is fresh.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    taken = set(tree.vertices)
    edges = []
    for u, w in tree.edges:
        chain = [u, *(_fresh_id(taken, f"{u}:{w}:{i}") for i in range(1, parts)), w]
        edges.extend(zip(chain, chain[1:]))
    return make_tree(taken, edges, tree.endpoint)


def subdivide(tree: Tree, n: int) -> Tree:
    """Each edge becomes n + 1 edges: the conservative cut for n strands.

    The oracle in ``treebraid verify`` uses the coarser max(1, n - 1) of
    Prue and Scrimshaw instead.  The n + 1 cut stays as the reference the
    tests, the acceptance suite among them, hold the coarse cut against.
    """
    if n < 1:
        raise ValueError(f"strand count must be >= 1, got {n}")
    return subdivide_edges(tree, n + 1)
