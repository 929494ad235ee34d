"""Command-line front end.

Subcommands:

* present   -- write the commutator presentation (JSON, optionally DOT)
* verify    -- compare the presentation against exact cube-complex homology
* table     -- rank table for single stars over ranges of k and n
* stabilize -- check the strand-addition embedding chain 0 -> 1 -> ... -> n

An option may be shortened to any prefix that names it alone, and
"treebraid COMMAND -h" prints the options of COMMAND.

Exit codes: 0 success, 1 I/O or parse problems (also bad usage), 2 tree not
linear from the marked endpoint, 3 verification, embedding or internal
consistency failure, 4 resource cap refusal or out of memory.  Every
command makes all of its refusals before it prints or writes anything.
"""
from __future__ import annotations

import gc
import json
import os
import re
import sys
from math import comb
from pathlib import Path
from types import SimpleNamespace

from . import cubes, presentation, stars, trees

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_LINEAR = 2
EXIT_MISMATCH = 3
EXIT_RESOURCES = 4


class UsageError(Exception):
    pass


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
        raise UsageError(f"must be >= 1, got {value}")
    return value


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)     # no half-written file left behind
        raise


def _check_then_make_out(args, tree, ns) -> Path | None:
    """The --out directory, made after every refusal and before any output:
    first the oracle's subdivision floor and cell cap at each level of ns on
    tree, up to the first level refused, then the nearest existing path on
    the way to --out, which must be a directory."""
    for n in ns:
        cubes.check_limits(tree, n, args.dmax, args.subdivision, args.cell_cap)
    if not args.out:
        return None
    out_dir = Path(args.out)
    target = Path(os.path.abspath(out_dir))
    existing = next(p for p in (target, *target.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out_dir}: {existing} is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_present(args) -> int:
    tree = trees.load_tree(args.tree)
    arm_counts = trees.decompose(tree)
    ns = _strand_range(args)
    _check_generator_cap(arm_counts, ns[-1])
    out_dir = _check_then_make_out(args, tree, ns if args.verify else ())
    counts = []
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
            counts.append(cubes.raag_clique_counts(pres))
    return _check_levels(tree, ns, counts, out_dir, args) if args.verify else EXIT_OK


def cmd_verify(args) -> int:
    tree = trees.load_tree(args.tree)
    arm_counts = trees.decompose(tree)
    ns = _strand_range(args)
    out_dir = _check_then_make_out(args, tree, ns)
    counts = [cubes.raag_clique_counts(presentation.assemble(arm_counts, n)) for n in ns]
    return _check_levels(tree, ns, counts, out_dir, args)


def _check_levels(tree, ns, counts, out_dir, args) -> int:
    """The header, then the oracle's verdict for each level n of ns against
    its clique counts, aligned with ns, with a report in out_dir when given.
    The counts come from the tree's arm counts in trunk order alone; the
    oracle builds its complex on the input tree itself."""
    print(f"{'n':>3} {'gens':>6} {'rels':>6} {'tris':>6} {'b1':>6} {'b2':>6} {'b3':>4} {'status':>8}")
    failed = False
    for n, expect in zip(ns, counts):
        report = cubes.oracle_report(tree, n, args.dmax, args.subdivision, args.cell_cap)
        betti = report.betti
        torsion = [list(t) for t in report.torsion]
        # b_d against the d-clique count, in every degree the oracle reached
        ok = betti[0] == 1 and betti[1:] == expect[:len(betti) - 1] and not any(torsion)
        b1, b2, b3 = (*map(str, betti[1:]), "-", "-", "-")[:3]
        status = "PASS" if ok else "FAIL"
        print(f"{n:>3} {expect[0]:>6} {expect[1]:>6} {expect[2]:>6} "
              f"{b1:>6} {b2:>6} {b3:>4} {status:>8}")
        if out_dir:
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
    # the largest level, (k_max, n_max), has C(n_max + k_max - 1, j) arm vectors for
    # j = min(n_max, k_max - 1); past j = 23, C(., 23) >= 2**23 is over the cap on its own
    cap, j = cubes.DEFAULT_CELL_CAP, min(args.n_max, args.k_max - 1)
    if (vectors := comb(args.n_max + args.k_max - 1, min(j, cap.bit_length()))) > cap:
        raise cubes.ResourceCapError(f"level k={args.k_max}, n={args.n_max} has more arm vectors"
                                     f" than the cap {cap}", cells=vectors, cap=cap)
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


# each command's function and options, {option: (converter, default)}; a
# converter is a function of the text, a tuple of choices, or bool for a flag
_REQUIRED = object()    # the default of an option that must be given
_TREE_AND_RANGE = {"--tree": (str, _REQUIRED), "--n": (int, None), "--n-min": (int, None),
                   "--n-max": (int, None)}
_ORACLE = {"--dmax": ((2, 3), 3), "--subdivision": (positive_int, None),
           "--cell-cap": (positive_int, cubes.DEFAULT_CELL_CAP)}
COMMANDS = {
    "present": (cmd_present, {**_TREE_AND_RANGE, "--format": (("json", "dot"), "json"),
                              "--out": (str, None), "--verify": (bool, False), **_ORACLE}),
    "verify": (cmd_verify, {**_TREE_AND_RANGE, **_ORACLE, "--out": (str, None)}),
    "table": (cmd_table, {"--k-min": (int, 2), "--k-max": (int, 5), "--n-min": (int, 0),
                          "--n-max": (int, 6)}),
    "stabilize": (cmd_stabilize, {"--tree": (str, _REQUIRED), "--n": (int, _REQUIRED)}),
}


def _usage(command=None) -> str:
    if command is None:
        return f"usage: treebraid [-h] {{{','.join(COMMANDS)}}} ..."
    words = [f"usage: treebraid {command} [-h]"]
    for option, (convert, default) in COMMANDS[command][1].items():
        if convert is not bool:
            option += " " + ("{%s}" % ",".join(map(str, convert)) if isinstance(convert, tuple)
                             else option[2:].upper().replace("-", "_"))
        words.append(option if default is _REQUIRED else f"[{option}]")
    return " ".join(words)


def _print_help(args) -> int:
    print(_usage(args.command) + ("" if args.command else "\n\n" + __doc__.rstrip()))
    return EXIT_OK


def _fail(command, message: str):
    print(_usage(command), file=sys.stderr)
    raise UsageError(message)


def _match(arg: str, command) -> tuple | None:
    """How argparse reads arg among command's options, or the top level's:
    None for a value, (option, text after "=" or None) for an option or a
    unique prefix of one, and (None, None) for an unknown option."""
    names = ("-h", "--help", *(COMMANDS[command][1] if command else ()))
    if arg[:1] != "-" or arg == "-":
        return None
    head, eq, tail = arg.partition("=")
    if arg in names or eq and head in names:
        return (arg, None) if arg in names else (head, tail)
    found = ([(name, tail if eq else None) for name in names if name.startswith(head)]
             if arg[1] == "-" else [(name, arg[2:]) for name in names if name == arg[:2]])
    if len(found) > 1:
        _fail(command, f"ambiguous option: {arg} could match {', '.join(n for n, _ in found)}")
    if found:
        return found[0]
    return None if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg else (None, None)


def _value(convert, text):
    """The value of an option, from its text or None; a UsageError says why not."""
    if convert is bool:
        if text is not None:
            raise UsageError(f"ignored explicit argument {text!r}")
        return True
    if text is None:
        raise UsageError("expected one argument")
    choices = convert if isinstance(convert, tuple) else ()
    convert = type(choices[0]) if choices else convert
    try:
        value = convert(text)
    except ValueError:
        raise UsageError(f"invalid {convert.__name__} value: {text!r}") from None
    if choices and value not in choices:
        raise UsageError(f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
    return value


def parse_args(argv=None) -> SimpleNamespace:
    """The namespace the cmd_* functions read, parsed from argv (default
    sys.argv[1:]) against COMMANDS as argparse read it: a unique prefix
    stands for its option, --option=value for --option value, the last of a
    repeated option wins, and -h or --help before any error asks for help.
    A usage error prints the usage to stderr and raises UsageError."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command, options, values, extras = None, {}, {}, []
    matches = [_match(arg, None) for arg in argv]
    i = 0
    while i < len(argv):
        arg, match, i = argv[i], matches[i], i + 1
        if match is None and command is None:
            if arg not in COMMANDS:
                _fail(None, f"argument command: invalid choice: {arg!r}"
                            f" (choose from {', '.join(map(repr, COMMANDS))})")
            command, (func, options) = arg, COMMANDS[arg]
            values = {option: default for option, (_, default) in options.items()}
            matches[i:] = [_match(later, command) for later in argv[i:]]
        elif match is None or match[0] is None:
            extras.append(arg)      # reported once the command has parsed
        else:
            option, text = match
            if option not in options and text is None:      # -h or --help
                return SimpleNamespace(command=command, func=_print_help)
            convert = options.get(option, (bool,))[0]
            if convert is not bool and text is None and i < len(argv) and matches[i] is None:
                text, i = argv[i], i + 1
            try:
                values[option] = _value(convert, text)
            except UsageError as exc:
                _fail(command, f"argument {option if option in options else '-h/--help'}: {exc}")
    missing = ["command"] if command is None else [o for o, v in values.items() if v is _REQUIRED]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, func=func,
                           **{option[2:].replace("-", "_"): v for option, v in values.items()})


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
        args = parse_args(argv)
        return args.func(args)
    except tuple(t for types, _ in _EXITS for t in types) as exc:
        text = "out of memory; try fewer strands" if isinstance(exc, MemoryError) else exc
        print(f"error: {text}", file=sys.stderr)
        return next(code for types, code in _EXITS if isinstance(exc, types))


if __name__ == "__main__":
    raise SystemExit(main())
