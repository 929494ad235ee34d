"""Command-line front end.

Subcommands:

* present   -- write the commutator presentation (JSON, optionally DOT)
* verify    -- compare the presentation against exact cube-complex homology
* table     -- rank table for single stars over ranges of k and n
* stabilize -- check the strand-addition embedding chain 0 -> 1 -> ... -> n

Exit codes: 0 success, 1 I/O or parse problems (also bad usage), 2 tree not
linear from the marked endpoint, 3 verification, embedding or internal
consistency failure, 4 resource cap refusal or out of memory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
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


def _strand_range(args) -> range:
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            raise ValueError("give either --n or --n-min/--n-max, not both")
        if args.n < 0:
            raise ValueError("--n must be >= 0")
        return range(args.n, args.n + 1)
    if args.n_min is None or args.n_max is None:
        raise ValueError("need --n or both --n-min and --n-max")
    if args.n_min < 0 or args.n_max < args.n_min:
        raise ValueError("need 0 <= --n-min <= --n-max")
    return range(args.n_min, args.n_max + 1)


def _check_generator_cap(arm_counts: tuple[int, ...], n: int) -> None:
    """Refuse a level of more generators than the default cell cap, counted
    exactly in closed form before anything is built or written."""
    gens = sum(stars.rank_closed_form(k, n) for k in arm_counts)
    cap = cubes.DEFAULT_CELL_CAP
    if gens > cap:
        raise cubes.ResourceCapError(
            f"level n={n} has {gens} generators, above the cap {cap}", cells=gens, cap=cap
        )


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)     # no half-written file left behind
        raise


def cmd_present(args) -> int:
    tree = trees.load_tree(args.tree)
    arm_counts = trees.decompose(tree)
    ns = _strand_range(args)
    _check_generator_cap(arm_counts, ns[-1])    # all before --out is created
    for n in ns if args.verify else ():
        cubes.check_limits(tree, n, args.dmax, args.subdivision, args.cell_cap)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    counts = {}
    for n in ns:
        pres = presentation.assemble(arm_counts, n)
        if out_dir:
            _write_atomic(out_dir / f"presentation_n{n}.json", presentation.to_json(pres))
            if args.format == "dot":
                _write_atomic(out_dir / f"presentation_n{n}.dot", presentation.to_dot(pres))
        elif args.format == "dot":
            sys.stdout.write(presentation.to_dot(pres))
        else:
            sys.stdout.write(presentation.to_json(pres))
        if args.verify:
            counts[n] = cubes.raag_clique_counts(pres)
    return _check_levels(tree, ns, counts.__getitem__, args) if args.verify else EXIT_OK


def cmd_verify(args) -> int:
    tree = trees.load_tree(args.tree)
    arm_counts = trees.decompose(tree)
    ns = _strand_range(args)    # before _check_levels prints or makes anything

    def clique_counts(n):
        return cubes.raag_clique_counts(presentation.assemble(arm_counts, n))

    return _check_levels(tree, ns, clique_counts, args)


def _check_levels(tree, ns, clique_counts, args) -> int:
    """Oracle verdict for each level n against clique_counts(n).  The
    counts come from the tree's arm counts in trunk order alone; the oracle
    builds its complex on the input tree itself.  Each level's oracle report,
    cell cap included, comes before its counts and, at the first level, the
    header, so a level over the cap is refused before any of them."""
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        # refused before the oracle runs: the nearest existing path on the
        # way to --out must be a directory
        target = Path(os.path.abspath(out_dir))
        existing = next(p for p in (target, *target.parents) if os.path.lexists(p))
        if not existing.is_dir():
            raise NotADirectoryError(f"--out {out_dir}: {existing} is not a directory")
    header = f"{'n':>3} {'gens':>6} {'rels':>6} {'tris':>6} {'b1':>6} {'b2':>6} {'b3':>4} {'status':>8}"
    failed = False
    for n in ns:
        report = cubes.oracle_report(tree, n, args.dmax, args.subdivision, args.cell_cap)
        if n == ns[0]:
            print(header)
        expect = clique_counts(n)
        betti = report.betti
        torsion = [list(t) for t in report.torsion]
        # b_d against the d-clique count, in every degree the oracle reached
        ok = betti[0] == 1 and betti[1:] == expect[:len(betti) - 1] and not any(torsion)
        b1, b2, b3 = (*map(str, betti[1:]), "-", "-", "-")[:3]
        status = "PASS" if ok else "FAIL"
        print(f"{n:>3} {expect[0]:>6} {expect[1]:>6} {expect[2]:>6} "
              f"{b1:>6} {b2:>6} {b3:>4} {status:>8}")
        if out_dir:
            # made here, so a level refused before its report leaves no empty directory
            out_dir.mkdir(parents=True, exist_ok=True)
            payload = {"n": n, "generators": expect[0], "relations": expect[1],
                       "triangles": expect[2], "betti": list(betti), "torsion": torsion,
                       "status": status}
            _write_atomic(out_dir / f"verify_n{n}.json", json.dumps(payload, indent=2) + "\n")
        failed = failed or not ok
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_table(args) -> int:
    if not 2 <= args.k_min <= args.k_max:
        raise ValueError("need 2 <= --k-min <= --k-max")
    if not 0 <= args.n_min <= args.n_max:
        raise ValueError("need 0 <= --n-min <= --n-max")
    ks = list(range(args.k_min, args.k_max + 1))
    ns = list(range(args.n_min, args.n_max + 1))
    # every rank first, so a failure inside stars.rank prints no partial
    # table; rank counts each basis off its level and builds no edge
    ranks = [[stars.rank(k, n) for n in ns] for k in ks]
    # each column as wide as its widest entry, header included, and at least 6
    widths = [max(6, *map(len, map(str, column))) for column in zip(ns, *ranks)]
    labels = ["k\\n", *(f"k={k}" for k in ks)]
    # every label, header included, as wide as the widest and at least 4
    label_width = max(4, *map(len, labels))
    print("free rank of the n-strand group of a k-arm star")
    for label, entries in zip(labels, [ns, *ranks]):
        print(f"{label:<{label_width}} " + " ".join(f"{e:>{w}}" for e, w in zip(entries, widths)))
    print(
        "note: each entry is the enumerated basis size, checked against the"
        " Euler characteristic\nand against 1 + (k-1)*C(n+k-2,k-1) -"
        " C(n+k-1,k-1); the variant of the closed form whose\nlast term is"
        " C(n-k-1,k-1) is undefined for small n and does not match the"
        " enumeration."
    )
    return EXIT_OK


def cmd_stabilize(args) -> int:
    arm_counts = trees.decompose(trees.load_tree(args.tree))
    top = args.n
    if top < 0:
        raise ValueError("--n must be >= 0")
    _check_generator_cap(arm_counts, top)
    print(f"{'level':>10} {'gens':>6} {'rels':>6} {'embedded':>9}")
    previous = presentation.assemble(arm_counts, 0)
    for level in range(1, top + 1):
        target = presentation.assemble(arm_counts, level)
        presentation.stabilize(previous, target)    # NaturalityError unless it embeds
        print(
            f"{level - 1:>4} -> {level:<3} {len(target.generators):>6} "
            f"{presentation.relation_count(target):>6} "
            f"{len(previous.generators):>4}g/{presentation.relation_count(previous)}r"
        )
        previous = target
    print(f"all {top} strand-addition steps embed generators and relations")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treebraid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_oracle_flags(sp):
        sp.add_argument("--dmax", type=int, choices=(2, 3), default=3)
        sp.add_argument("--subdivision", type=positive_int, default=None,
                        help="pieces per edge (default and minimum max(1, n-1),"
                             " enough on a tree by Prue-Scrimshaw)")
        sp.add_argument("--cell-cap", type=positive_int, default=cubes.DEFAULT_CELL_CAP)

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
    p.add_argument("--tree", required=True, help="tree file (JSON or adjacency text)")
    p.add_argument("--n", type=int, required=True, help="top strand count, chain 0 -> ... -> n")
    p.set_defaults(func=cmd_stabilize)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The cyclic collector is paused for the command and put back as it was
    on return: everything a command builds is acyclic (tests pin that), so
    collections would only walk the cached arm-vector levels and star bases
    and free nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


# (exception types, exit code), the first match wins: a NotLinearError is a TreeError
_EXITS = (
    ((UsageError,), EXIT_INPUT),
    ((trees.NotLinearError,), EXIT_NOT_LINEAR),
    ((stars.RankMismatchError, cubes.BoundarySquareError, presentation.NaturalityError),
     EXIT_MISMATCH),
    ((trees.TreeError, OSError, ValueError), EXIT_INPUT),
    ((cubes.ResourceCapError, MemoryError), EXIT_RESOURCES),
)


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(t for types, _ in _EXITS for t in types) as exc:
        text = "out of memory; try fewer strands" if isinstance(exc, MemoryError) else exc
        print(f"error: {text}", file=sys.stderr)
        return next(code for types, code in _EXITS if isinstance(exc, types))


if __name__ == "__main__":
    raise SystemExit(main())
