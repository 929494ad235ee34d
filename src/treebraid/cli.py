"""Command-line front end.

Subcommands:

* present   -- write the commutator presentation (JSON, optionally DOT)
* verify    -- compare the presentation against exact cube-complex homology
* table     -- rank table for single stars over ranges of k and n
* stabilize -- check the strand-addition embedding chain 0 -> 1 -> ... -> n

Exit codes: 0 success, 1 I/O or parse problems (also bad usage), 2 tree not
linear from the marked endpoint, 3 verification, embedding or internal
consistency failure, 4 resource cap refusal.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cubes, presentation, stars, trees

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_LINEAR = 2
EXIT_MISMATCH = 3
EXIT_RESOURCES = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for non-linear trees
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_tree_and_range(sub):
    sub.add_argument("--tree", required=True, help="tree file (JSON or adjacency text)")
    group = sub.add_argument_group("strand count")
    group.add_argument("--n", type=int, help="single strand count")
    group.add_argument("--n-min", type=int, help="range start (with --n-max)")
    group.add_argument("--n-max", type=int, help="range end, inclusive")


def _strand_range(args) -> list[int]:
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            raise ValueError("give either --n or --n-min/--n-max, not both")
        if args.n < 0:
            raise ValueError("--n must be >= 0")
        return [args.n]
    if args.n_min is None or args.n_max is None:
        raise ValueError("need --n or both --n-min and --n-max")
    if args.n_min < 0 or args.n_max < args.n_min:
        raise ValueError("need 0 <= --n-min <= --n-max")
    return list(range(args.n_min, args.n_max + 1))


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def cmd_present(args) -> int:
    tree = trees.load_tree(args.tree)
    decomp = trees.decompose(tree)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    levels = []
    for n in _strand_range(args):
        pres = presentation.assemble(decomp, n)
        if out_dir:
            _write_atomic(out_dir / f"presentation_n{n}.json", presentation.to_json(pres))
            if args.format == "dot":
                _write_atomic(out_dir / f"presentation_n{n}.dot", presentation.to_dot(pres))
        else:
            sys.stdout.write(presentation.export(pres, args.format))
        if args.verify:
            levels.append((n, cubes.raag_clique_counts(pres, 3)))
    return _check_levels(tree, levels, args) if args.verify else EXIT_OK


def _oracle_report(tree, n, d_max, subdivision, cell_cap):
    """Homology of the n-strand cube complex of tree, every edge cut into
    max(1, n - 1) pieces unless subdivision asks for more (Prue-Scrimshaw).
    """
    floor = max(1, n - 1)
    parts = subdivision if subdivision is not None else floor
    if parts < floor:
        raise ValueError(
            f"subdivision {parts} is too coarse for n={n}; need at least {floor}"
        )
    fine = trees.subdivide_edges(tree, parts)
    cx = cubes.build_complex(fine, n, d_max=d_max, cell_cap=cell_cap)
    cubes.check_boundary_squares_to_zero(cx)
    return cubes.betti(cx)


def _clique_levels(decomp, args):
    # a generator, so a bad range is reported after the header, as before
    for n in _strand_range(args):
        yield n, cubes.raag_clique_counts(presentation.assemble(decomp, n), 3)


def cmd_verify(args) -> int:
    tree = trees.load_tree(args.tree)
    return _check_levels(tree, _clique_levels(trees.decompose(tree), args), args)


def _check_levels(tree, levels, args) -> int:
    """Oracle verdict for each (n, clique counts) pair, on the input tree:
    decompose's glue vertices would cut hub-hub edges twice as fine."""
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    header = f"{'n':>3} {'gens':>6} {'rels':>6} {'tris':>6} {'b1':>6} {'b2':>6} {'b3':>4} {'status':>8}"
    print(header)
    failed = False
    for n, expect in levels:
        if n == 0:
            betti = (1, 0, 0)[: args.dmax]
            torsion = [[] for _ in range(args.dmax)]
        else:
            report = _oracle_report(tree, n, args.dmax, args.subdivision, args.cell_cap)
            betti = report.betti
            torsion = [list(t) for t in report.torsion]
        ok = betti[0] == 1 and betti[1] == expect[0] and not any(torsion)
        if args.dmax >= 3:
            ok = ok and betti[2] == expect[1]
        b2 = str(betti[2]) if args.dmax >= 3 else "-"
        status = "PASS" if ok else "FAIL"
        print(
            f"{n:>3} {expect[0]:>6} {expect[1]:>6} {expect[2]:>6} "
            f"{betti[1]:>6} {b2:>6} {'-':>4} {status:>8}"
        )
        if out_dir:
            payload = {
                "n": n,
                "generators": expect[0],
                "relations": expect[1],
                "triangles": expect[2],
                "betti": list(betti),
                "torsion": torsion,
                "status": status,
            }
            _write_atomic(
                out_dir / f"verify_n{n}.json",
                json.dumps(payload, indent=2) + "\n",
            )
        failed = failed or not ok
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_table(args) -> int:
    ks = list(range(args.k_min, args.k_max + 1))
    ns = list(range(args.n_min, args.n_max + 1))
    print("free rank of the n-strand group of a k-arm star")
    print("k\\n " + " ".join(f"{n:>6}" for n in ns))
    for k in ks:
        print(f"k={k:<2} " + " ".join(f"{stars.rank(k, n):>6}" for n in ns))
    print(
        "note: each entry is the enumerated basis size, checked against the"
        " Euler characteristic\nand against 1 + (k-1)*C(n+k-2,k-1) -"
        " C(n+k-1,k-1); the variant of the closed form whose\nlast term is"
        " C(n-k-1,k-1) is undefined for small n and does not match the"
        " enumeration."
    )
    return EXIT_OK


def cmd_stabilize(args) -> int:
    decomp = trees.decompose(trees.load_tree(args.tree))
    top = max(_strand_range(args))
    print(f"{'level':>10} {'gens':>6} {'rels':>6} {'embedded':>9}")
    previous = presentation.assemble(decomp, 0)
    for level in range(1, top + 1):
        step = presentation.stabilize(previous, presentation.assemble(decomp, level))
        print(
            f"{level - 1:>4} -> {level:<3} {len(step.target.generators):>6} "
            f"{len(step.target.relations):>6} "
            f"{len(step.mapping):>4}g/{len(step.source.relations)}r"
        )
        previous = step.target
    print(f"all {top} strand-addition steps embed generators and relations")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treebraid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_oracle_flags(sp):
        sp.add_argument("--dmax", type=int, choices=(2, 3), default=3)
        sp.add_argument("--subdivision", type=int, default=None,
                        help="pieces per edge (default and minimum max(1, n-1),"
                             " enough on a tree by Prue-Scrimshaw)")
        sp.add_argument("--cell-cap", type=int, default=cubes.DEFAULT_CELL_CAP)

    p = sub.add_parser("present", help="write commutator presentations")
    _add_tree_and_range(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", help="output directory (default: print to stdout)")
    p.add_argument("--verify", action="store_true",
                   help="also run the homology cross-check on each n")
    add_oracle_flags(p)
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("verify", help="cross-check against cube-complex homology")
    _add_tree_and_range(p)
    add_oracle_flags(p)
    p.add_argument("--out", help="directory for per-n JSON reports")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="star rank table")
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("stabilize", help="check the strand-addition chain")
    _add_tree_and_range(p)
    p.set_defaults(func=cmd_stabilize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except trees.NotLinearError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_LINEAR
    except (
        stars.RankMismatchError,
        presentation.SameStarError,        # a ValueError, so caught before those
        cubes.BoundarySquareError,
        presentation.NaturalityError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (trees.TreeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except cubes.ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES


if __name__ == "__main__":
    raise SystemExit(main())
