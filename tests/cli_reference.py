"""The argparse parser the command line was once read with, kept as the
reference that ``treebraid.cli.parse_args`` is checked against, and the
command lines the README shows.

``build_parser().parse_args(argv)`` gives the namespace the ``cmd_*``
functions read, or raises ``cli.UsageError`` after printing its usage
line to stderr, as the package did when it used this parser.  ``-h``
prints the help and raises ``SystemExit(0)``.  Nothing in the package
imports this module.
"""
import argparse
import re
import shlex
import sys
from pathlib import Path

from treebraid import cli, cubes


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for non-linear trees
    def error(self, message):
        self.print_usage(sys.stderr)
        raise cli.UsageError(message)


def _add_tree_and_range(sub):
    sub.add_argument("--tree", required=True, help="tree file (JSON or adjacency text)")
    group = sub.add_argument_group("strand count")
    group.add_argument("--n", type=int, help="single strand count")
    group.add_argument("--n-min", type=int, help="range start (with --n-max)")
    group.add_argument("--n-max", type=int, help="range end, inclusive")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treebraid", description=cli.__doc__.splitlines()[0])
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
    p.set_defaults(func=cli.cmd_present)

    p = sub.add_parser("verify", help="cross-check against cube-complex homology")
    _add_tree_and_range(p)
    add_oracle_flags(p)
    p.add_argument("--out", help="directory for per-n JSON reports")
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("table", help="star rank table")
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(func=cli.cmd_table)

    p = sub.add_parser("stabilize", help="check the strand-addition chain")
    p.add_argument("--tree", required=True, help="tree file (JSON or adjacency text)")
    p.add_argument("--n", type=int, required=True, help="top strand count, chain 0 -> ... -> n")
    p.set_defaults(func=cli.cmd_stabilize)

    return parser


def readme_commands() -> list[list[str]]:
    """The argv of every command in the README's command-line block and of
    every inline `treebraid ...` span."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("treebraid ")]
    commands += re.findall(r"`(treebraid\s[^`]+)`", text)
    return [shlex.split(command)[1:] for command in commands]
