"""Span and counter recording around treebraid's layer functions.

``install`` rebinds each traced function in every treebraid module
namespace that holds it, including names bound with ``from ... import``
(``presentation.basis``, ``cubes.rank_and_factors``), so calls between
modules are traced as well as calls from the CLI.  A span is
[name, start, end, parent index]; spans and counters stay in memory and
the caller writes them out when the command has finished.
"""
from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.levels: dict[str, set] = {}     # distinct arguments per counted function
        self.records: list[dict] = []        # per build_complex call, for the cell check

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def level(self, key: str, value) -> None:
        self.levels.setdefault(key, set()).add(value)

    def result(self) -> dict:
        counts = dict(self.counts)
        counts.update({f"{key}_levels": len(v) for key, v in self.levels.items()})
        return {"spans": self.spans, "counts": counts, "records": self.records}


def _subdivide(t, args, tree):
    t.counts["trees.subdivided_vertices"] += len(tree.vertices)


def _basis(t, args, result):
    t.counts["stars.basis_calls"] += 1


def _star_edges(t, args, edges):
    t.counts["stars.star_edges_calls"] += 1
    t.counts["stars.star_edges"] += len(edges)
    t.level("stars.star_edges", tuple(args))


def _assemble(t, args, pres):
    t.counts["presentation.assemble_calls"] += 1
    t.counts["presentation.generators"] += len(pres.generators)
    t.counts["presentation.relations"] += len(pres.relations)
    t.level("presentation.assemble", args[1])


def _export(t, args, text):
    t.counts["presentation.export_bytes"] += len(text.encode("utf-8"))


def _build(t, args, cx):
    counts = cx.cell_counts()
    for d, count in enumerate(counts):
        t.counts[f"cubes.cells_d{d}"] += count
    t.records.append({
        "n": cx.n,
        "vertices": len(cx.tree.vertices),
        "edges": [list(e) for e in cx.tree.edges],
        "cells": counts,
    })


def _nonzeros(t, args):
    t.counts["cubes.nonzeros"] += args[0].entry_count()


def _eliminate(t, args, result):
    units, dense = result
    t.counts["homology.pivots"] += units
    t.counts["homology.dense_rows"] += len(dense)
    t.counts["homology.dense_cols"] += len(dense[0]) if dense else 0


# (module, owner attribute or None, function, span name, before, after)
TRACED = [
    ("trees", None, "load_tree", "trees.load", None, None),
    ("trees", None, "decompose", "trees.decompose", None, None),
    ("trees", None, "subdivide_edges", "trees.subdivide", None, _subdivide),
    ("stars", None, "rank", "stars.rank", None, None),
    ("stars", None, "basis", "stars.basis", None, _basis),
    ("stars", None, "rank_from_euler", "stars.rank_from_euler", None, None),
    ("stars", None, "star_edges", "stars.star_edges", None, _star_edges),
    ("presentation", None, "assemble", "presentation.assemble", None, _assemble),
    ("presentation", None, "stabilize", "presentation.stabilize", None, None),
    ("presentation", None, "to_json", "presentation.export", None, _export),
    ("presentation", None, "to_dot", "presentation.export", None, _export),
    ("cubes", None, "build_complex", "cubes.build", None, _build),
    ("cubes", None, "boundary_matrix", "cubes.boundary", None, None),
    ("cubes", "BoundaryMatrix", "to_sparse", "cubes.boundary", None, None),
    ("cubes", None, "check_boundary_squares_to_zero", "cubes.check_dd", None, None),
    ("cubes", None, "betti", "cubes.betti", None, None),
    ("cubes", None, "raag_clique_counts", "cubes.clique", None, None),
    ("homology", None, "eliminate_units", "homology.eliminate", _nonzeros, _eliminate),
    ("homology", None, "smith_diagonal", "homology.smith", None, None),
]


def install(tracer: Tracer) -> None:
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "treebraid"]
    for module_name, owner_name, attr, span, before, after in TRACED:
        owner = sys.modules[f"treebraid.{module_name}"]
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, original, before, after)
        if owner_name is not None:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
