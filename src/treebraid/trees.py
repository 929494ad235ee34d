"""Finite combinatorial trees with a marked endpoint.

A tree here is a plain undirected tree on string vertex ids, with one
degree-1 vertex singled out.  The module knows how to

* parse trees from JSON or a simple adjacency text format,
* test the "linear" condition: every branch vertex (degree >= 3) lies on
  the trunk, the path from the marked endpoint to the farthest one,
* read off a linear tree's arm counts: the degrees of its branch vertices
  in trunk order, which is all the presentation takes from a tree,
* subdivide edges (needed by the cube-complex verifier).

Everything is immutable and deterministic: ties and ids are settled by
string comparison, never by hash order.  ``Tree`` is a slotted class with
read-only fields; it builds its adjacency once, on construction, and is
equal and hashed as (vertices, edges, endpoint), so the same tree written
in any edge order, orientation or vertex order loads as an equal Tree.
"""
from __future__ import annotations

import json
from collections import deque


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


class Tree:
    """Undirected tree; ``endpoint`` is the marked degree-1 vertex.

    Read-only: equal and hashed as (vertices, edges, endpoint); the
    adjacency is built once, here, and is not part of either.
    """

    __slots__ = ("vertices", "edges", "endpoint", "_adjacency")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[tuple[str, str], ...],
                 endpoint: str):
        # vertices sorted; edges each (u, w) with u < w, sorted
        adj: dict[str, list[str]] = {v: [] for v in vertices}
        for u, w in edges:
            adj[u].append(w)
            adj[w].append(u)
        adjacency = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        for name, value in zip(self.__slots__, (vertices, edges, endpoint, adjacency)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return self.vertices, self.edges, self.endpoint

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__name__}(vertices={self.vertices!r}, "
                f"edges={self.edges!r}, endpoint={self.endpoint!r})")

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adjacency[v]

    def degree(self, v: str) -> int:
        return len(self._adjacency[v])

    def branch_vertices(self) -> tuple[str, ...]:
        """Vertices of degree >= 3, sorted by id."""
        return tuple(v for v in self.vertices if self.degree(v) >= 3)


def make_tree(vertices, edges, endpoint: str) -> Tree:
    """Validate and normalize raw vertex/edge data into a Tree."""
    known = set(vertices)
    vs = tuple(sorted(known))
    if len(vs) < 2:
        raise InvalidTreeError("a tree needs at least two vertices")
    seen = set()
    norm = []
    for u, w in edges:
        if u == w:
            raise ParseError(f"self-loop at vertex {u!r}")
        if u not in known or w not in known:
            missing = u if u not in known else w
            raise ParseError(f"edge ({u!r}, {w!r}) references unknown vertex {missing!r}")
        e = (u, w) if u < w else (w, u)
        if e in seen:
            raise ParseError(f"duplicate edge ({e[0]!r}, {e[1]!r})")
        seen.add(e)
        norm.append(e)
    if endpoint not in known:
        raise InvalidTreeError(f"marked vertex {endpoint!r} is not in the tree")
    if len(norm) != len(vs) - 1:
        raise InvalidTreeError(
            f"not a tree: {len(vs)} vertices need {len(vs) - 1} edges, got {len(norm)}"
        )
    tree = Tree(vs, tuple(sorted(norm)), endpoint)
    # connected + |E| = |V| - 1  =>  acyclic
    if len(bfs_parents(tree, vs[0])) != len(vs):
        raise InvalidTreeError("not a tree: graph is disconnected")
    if tree.degree(endpoint) != 1:
        raise InvalidTreeError(
            f"marked vertex {endpoint!r} is not an endpoint (degree {tree.degree(endpoint)})"
        )
    return tree


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
    lines and '#' comments are ignored.  Text that starts with "{" or "["
    is read as JSON.  Both formats yield identical trees for identical ids.
    """
    if text.lstrip().startswith(("{", "[")):
        return _parse_json(text)
    return _parse_adjacency(text)


def load_tree(path) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def bfs_parents(tree: Tree, root: str) -> dict[str, str | None]:
    """Breadth-first parent of each vertex reachable from root (the root's
    is None), keyed in visiting order."""
    parent = {root: None}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in tree.neighbors(x):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return parent


def validate_linear(tree: Tree) -> tuple[str, ...]:
    """Return the trunk: the path from the marked endpoint to the farthest
    branch vertex (the larger id on a tie), or () when there is none.

    The tree is linear from the endpoint exactly when the trunk holds every
    branch vertex.  Raises NotLinearError, naming the branch vertices off
    the trunk in id order, when it does not: this covers both genuinely
    non-linear trees and linear trees whose marked endpoint sits on a
    middle branch.
    """
    nodes = set(tree.branch_vertices())
    if not nodes:
        return ()
    parent = bfs_parents(tree, tree.endpoint)
    dist: dict[str, int] = {}
    for v, up in parent.items():       # parents come before their children
        dist[v] = 0 if up is None else dist[up] + 1
    far = max(nodes, key=lambda v: (dist[v], v))
    trunk = [far]
    while parent[trunk[-1]] is not None:
        trunk.append(parent[trunk[-1]])
    trunk.reverse()
    missed = sorted(nodes - set(trunk))
    if missed:
        raise NotLinearError(
            "not linear: no path from the marked endpoint covers branch vertices "
            + ", ".join(repr(v) for v in missed),
            offending=tuple(missed),
        )
    return tuple(trunk)


def _fresh_id(taken: set[str], base: str) -> str:
    """base, primed until no id in taken uses it; the result joins taken."""
    while base in taken:
        base += "'"
    taken.add(base)
    return base


def decompose(tree: Tree) -> tuple[int, ...]:
    """Arm counts of the stars of a linear tree, in trunk order.

    Star i is the i-th branch vertex met walking the trunk from the marked
    endpoint, and its arm count is that vertex's degree.  This tuple is all
    the presentation reads of a tree: two linear trees with the same arm
    counts, such as a tree and any subdivision of it, have the same strand
    groups.  A tree with no branch vertex (an interval) has no stars and
    gives ().
    """
    return tuple(tree.degree(v) for v in validate_linear(tree) if tree.degree(v) >= 3)


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

