"""Output checks for the benchmark, computed apart from treebraid.

Nothing here imports the package.  The expected values come from the
closed forms the package documents:

* r(k, n) = 1 + (k-1)*C(n+k-2, k-1) - C(n+k-1, k-1), the free rank of the
  n-strand group of a k-arm star;
* the basis of a star: the edges (a, p) where a has at least two occupied
  arms, a[p-1] >= 1, and p is neither arm 1 nor the last occupied arm;
* the capacity predicate: generators g on star i and h on star j > i
  commute iff cap >= 1 and cap + h.a[0] >= n, where cap = g.a[1], minus
  one when g slides on arm 2;
* the cell count of the cube complex: m_d * C(V - 2d, n - d), with V the
  vertex count and m_d the number of d-edge matchings of the tree.

Each ``check_*`` function returns a list of problems; empty means correct.
"""
from __future__ import annotations

import json
import re
from bisect import bisect_left
from itertools import combinations
from math import comb


def star_rank(k: int, n: int) -> int:
    return 1 + (k - 1) * comb(n + k - 2, k - 1) - comb(n + k - 1, k - 1)


def _arm_vectors(total: int, k: int):
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _arm_vectors(total - first, k - 1):
            yield (first, *rest)


def basis_edges(k: int, n: int) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for a in _arm_vectors(n, k):
        occupied = [j for j, x in enumerate(a, 1) if x]
        if len(occupied) < 2:
            continue
        out.extend((a, p) for p in occupied if p not in (1, occupied[-1]))
    return out


def expected_presentation(ks, n: int):
    """(sorted generators as (star, a, p), set of relation index pairs)."""
    gens = sorted(
        (star, a, p) for star, k in enumerate(ks, 1) for a, p in basis_edges(k, n)
    )
    # per star: generator indices sorted by their arm-1 count
    by_star: dict[int, list[tuple[int, int]]] = {}
    for i, (star, a, _) in enumerate(gens):
        by_star.setdefault(star, []).append((a[0], i))
    for entries in by_star.values():
        entries.sort()
    rels = set()
    for i, (star, a, p) in enumerate(gens):
        cap = a[1] - (1 if p == 2 else 0)
        if cap < 1:
            continue
        for other in range(star + 1, len(ks) + 1):
            entries = by_star.get(other, [])
            start = bisect_left(entries, (n - cap, -1))
            rels.update((i, j) for _, j in entries[start:])
    return gens, rels


def triangle_count(rels) -> int:
    adj: dict[int, set[int]] = {}
    for i, j in rels:
        adj.setdefault(i, set()).add(j)
    return sum(len(adj[i] & adj.get(j, set())) for i, j in rels if i in adj)


def matchings(edges, d: int) -> int:
    """Number of d-element sets of pairwise vertex-disjoint edges."""
    return sum(
        1 for chosen in combinations(edges, d)
        if len({v for edge in chosen for v in edge}) == 2 * d
    )


def check_exit(result: dict) -> list[str]:
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"]
    return []


def check_presentation_json(text: str, ks, n: int) -> list[str]:
    data = json.loads(text)
    gens, rels = expected_presentation(ks, n)
    problems = []
    if data.get("n") != n:
        problems.append(f"n={n}: JSON says n={data.get('n')}")
    want_count = sum(star_rank(k, n) for k in ks)
    got = [(g["star"], tuple(g["a"]), g["p"]) for g in data["generators"]]
    if len(got) != want_count:
        problems.append(f"n={n}: {len(got)} generators, expected {want_count}")
    elif got != gens:
        problems.append(f"n={n}: generator list differs from the star bases")
    pairs = [tuple(r) for r in data["relations"]]
    if pairs != sorted(set(pairs)):
        problems.append(f"n={n}: relations not sorted or not distinct")
    for i, j in pairs:
        if not (0 <= i < j < len(got)) or got[i][0] == got[j][0]:
            problems.append(f"n={n}: relation {[i, j]} does not join two stars")
            break
    if set(pairs) != rels:
        problems.append(
            f"n={n}: {len(pairs)} relations; the capacity predicate gives {len(rels)}"
            f" ({len(rels - set(pairs))} missing, {len(set(pairs) - rels)} extra)"
        )
    return problems


def check_dot(dot: str, presentation_json: str) -> list[str]:
    data = json.loads(presentation_json)
    n = data["n"]
    vertices = len(re.findall(r"^  g\d+ \[label=", dot, re.M))
    edges = len(re.findall(r"^  g\d+ -- g\d+;$", dot, re.M))
    if not dot.startswith(f"graph strands_{n} {{"):
        return [f"n={n}: DOT header missing"]
    if (vertices, edges) != (len(data["generators"]), len(data["relations"])):
        return [
            f"n={n}: DOT has {vertices} vertices / {edges} edges, JSON has "
            f"{len(data['generators'])} / {len(data['relations'])}"
        ]
    return []


def check_present(files: dict[str, str], ks, ns) -> list[str]:
    problems = []
    for n in ns:
        text = files.get(f"presentation_n{n}.json")
        dot = files.get(f"presentation_n{n}.dot")
        if text is None or dot is None:
            problems.append(f"n={n}: presentation files missing")
            continue
        problems += check_presentation_json(text, ks, n)
        problems += check_dot(dot, text)
    return problems


def check_stabilize(stdout: str, ks, top: int) -> list[str]:
    counts = []
    for n in range(top + 1):
        gens, rels = expected_presentation(ks, n)
        counts.append((len(gens), len(rels)))
    want = [f"{'level':>10} {'gens':>6} {'rels':>6} {'embedded':>9}"]
    for level in range(1, top + 1):
        (g0, r0), (g1, r1) = counts[level - 1], counts[level]
        want.append(f"{level - 1:>4} -> {level:<3} {g1:>6} {r1:>6} {g0:>4}g/{r0}r")
    want.append(f"all {top} strand-addition steps embed generators and relations")
    got = stdout.splitlines()
    if got != want:
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return [f"stabilize line {bad}: got {got[bad:bad + 1]}, expected {want[bad:bad + 1]}"]
    return []


def check_verify(stdout: str, files: dict[str, str], ks, ns) -> list[str]:
    """Every row PASS, b1 = generators, b2 = relations, b0 = 1, no torsion."""
    problems = []
    lines = stdout.splitlines()
    if len(lines) != len(ns) + 1 or lines[0].split() != [
        "n", "gens", "rels", "tris", "b1", "b2", "b3", "status"
    ]:
        return [f"verify printed {len(lines)} lines, expected a header and {len(ns)} rows"]
    for n, line in zip(ns, lines[1:]):
        gens, rels = expected_presentation(ks, n)
        g, r, t = len(gens), len(rels), triangle_count(rels)
        want = [str(n), str(g), str(r), str(t), str(g), str(r), "-", "PASS"]
        if line.split() != want:
            problems.append(f"verify row {line.split()}, expected {want}")
        report = files.get(f"verify_n{n}.json")
        if report is None:
            problems.append(f"n={n}: verify report missing")
            continue
        data = json.loads(report)
        want_report = {
            "n": n, "generators": g, "relations": r, "triangles": t,
            "betti": [1, g, r], "torsion": [[], [], []], "status": "PASS",
        }
        if data != want_report:
            problems.append(f"n={n}: verify report {data}, expected {want_report}")
    return problems


def check_table(stdout: str, ks, ns) -> list[str]:
    rows = {}
    for line in stdout.splitlines():
        m = re.match(r"k=(\d+)\s+(.*)$", line)
        if m:
            rows[int(m.group(1))] = [int(x) for x in m.group(2).split()]
    if sorted(rows) != list(ks):
        return [f"table rows for k={sorted(rows)}, expected {list(ks)}"]
    problems = []
    for k in ks:
        want = [star_rank(k, n) for n in ns]
        if rows[k] != want:
            problems.append(f"table row k={k}: {rows[k]}, expected {want}")
    spot = {(3, 2): 1, (3, 3): 3, (3, 4): 6, (4, 2): 3}
    for (k, n), value in spot.items():
        if k in rows and n in ns and rows[k][list(ns).index(n)] != value:
            problems.append(f"table entry ({k},{n}) is not {value}")
    return problems


def check_cells(records) -> list[str]:
    """Each traced build_complex call: cells_d == m_d * C(V - 2d, n - d)."""
    problems = []
    for rec in records:
        n, edges, vertices = rec["n"], rec["edges"], rec["vertices"]
        for d, got in enumerate(rec["cells"]):
            want = matchings(edges, d) * comb(vertices - 2 * d, n - d) if d <= n else 0
            if got != want:
                problems.append(f"n={n}: {got} cells in dimension {d}, expected {want}")
    return problems
