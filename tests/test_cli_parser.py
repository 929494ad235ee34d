"""``cli.parse_args`` against the argparse parser it replaced
(``cli_reference.build_parser``).  Every valid command line of the corpus
gives the same namespace.  Every invalid one exits 1 with nothing on
stdout, and prints on stderr the usage of the same parser, top level or
command, then the same error line.  Python 3.11's argparse is the
reference; on other versions, whose messages differ in their details, the
error lines are compared up to their first parenthesis.
"""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from treebraid import cli

from cli_reference import build_parser, readme_commands

REFERENCE_VERSION = sys.version_info[:2] == (3, 11)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def benchmark_commands():
    """The argv of the benchmark's four commands (perfbench/run.py)."""
    sys.path.insert(0, str(PERFBENCH))      # run.py imports its sibling checks.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
    return [argv for commands in run._commands(Path("work")).values() for argv, _, _ in commands]


VALID = [
    ["present", "--tree=h.json", "--n=4", "--format=dot", "--out=results/"],
    ["table", "--k-max", "3", "--n-max", "2", "--k-max", "4"],     # the last one wins
    ["present", "--tree", "h.json", "--n", "-1"],                  # refused later, by present
    ["table", "--n-min", "-2", "--k-min=-1"],
    ["table", "--k-ma", "3"],
    ["verify", "--tr", "h.json", "--n-mi", "2", "--n-ma=3", "--d", "2", "--s", "4",
     "--c", "9", "--o", "out"],
    ["present", "--n", "2", "--verify", "--fo", "dot", "--tree", "h.json", "--dmax=2"],
    ["stabilize", "--n", "3", "--tree", "-"],
    ["present", "--tree", "-a b", "--n", "2"],       # a dash and a space make a value
    ["present", "--tree", "", "--out=", "--n", "002"],
]

INVALID = {
    "ambiguous": ["table", "--n-m", "3"],
    "ambiguous-with-value": ["present", "--tree", "h.json", "--n-=3"],
    "no-value": ["present", "--tree", "h.json", "--n", "2", "--out", "--verify"],
    "no-value-at-end": ["table", "--n-max"],
    "flag-with-value": ["present", "--tree", "h.json", "--n", "2", "--verify=1"],
    "help-with-value": ["table", "--help="],
    "not-an-int": ["present", "--tree", "h.json", "--n", "x"],
    "not-a-positive-int": ["verify", "--tree", "h.json", "--n", "2", "--subdivision", "x"],
    "fraction": ["table", "--n-max", "-1.5"],
    "bad-format": ["present", "--tree", "h.json", "--n", "2", "--format", "xml"],
    "dmax-not-an-int": ["verify", "--tree", "h.json", "--n", "2", "--dmax", "x"],
    "cell-cap-0": ["verify", "--tree", "h.json", "--n", "2", "--cell-cap", "0"],
    "subdivision-negative": ["present", "--tree", "h.json", "--n", "2", "--subdivision", "-1"],
    "no-command": [],
    "only-an-option": ["--bogus"],
    "unknown-command": ["nonsense"],
    "option-before-command": ["--bogus", "table"],
    "unknown-option": ["table", "--bogus", "1", "-x"],
    "stray-value": ["table", "3"],
    # test_range_is_a_usage_error's cases: a missing required option is
    # reported before unrecognized arguments
    "stabilize-range": ["stabilize", "--tree", "h.json", "--n-min", "3", "--n-max", "4"],
    "stabilize-n-and-n-min": ["stabilize", "--tree", "h.json", "--n", "4", "--n-min", "3"],
    "stabilize-no-n": ["stabilize", "--tree", "h.json"],
    "stabilize-nothing": ["stabilize"],
    # the first error in argv order wins, and an ambiguous option comes first
    "first-error": ["table", "--k-min", "x", "--n-max", "y"],
    "ambiguous-first": ["table", "--k-min", "x", "--n-m", "3"],
}

HELP = [["--help"], ["-h"], ["--he", "nonsense"], ["verify", "--help"], ["stabilize", "-h"],
        ["table", "--h", "--bogus"], ["present", "--tree", "h.json", "-h", "--n", "x"]]


def reference(argv):
    return build_parser().parse_args(argv)


def error_lines(argv, capsys):
    """(usage line's parser, error line) of cli.main(argv), which must exit
    1 with nothing on stdout."""
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: treebraid ") and err.count("error: ") == 1, err
    usage, error = err.split("\nerror: ")
    # the usage names the parser: "treebraid" or "treebraid <command>"
    return usage.split(" [-h]")[0], "error: " + error.rstrip("\n")


@pytest.mark.parametrize("argv", [*VALID, *readme_commands(), *benchmark_commands()],
                         ids=" ".join)
def test_valid_command_lines_parse_alike(argv):
    assert vars(cli.parse_args(argv)) == vars(reference(argv))


def test_corpus_has_every_readme_and_benchmark_command():
    assert len(readme_commands()) >= 5
    assert sorted(argv[0] for argv in benchmark_commands()) == [
        "present", "stabilize", "table", "verify"]


@pytest.mark.parametrize("argv", INVALID.values(), ids=INVALID)
def test_invalid_command_lines_fail_alike(argv, capsys, monkeypatch):
    usage, error = error_lines(argv, capsys)
    monkeypatch.setattr(cli, "parse_args", reference)
    reference_usage, reference_error = error_lines(argv, capsys)
    assert usage == reference_usage
    if REFERENCE_VERSION:
        assert error == reference_error
    else:
        assert error.split("(")[0] == reference_error.split("(")[0]


@pytest.mark.skipif(not REFERENCE_VERSION, reason="the invalid-choice text varies by version")
def test_dmax_outside_its_choices(capsys, monkeypatch):
    argv = ["verify", "--tree", "h.json", "--n", "2", "--dmax", "4"]
    assert error_lines(argv, capsys)[1] == (
        "error: argument --dmax: invalid choice: 4 (choose from 2, 3)")
    monkeypatch.setattr(cli, "parse_args", reference)
    assert error_lines(argv, capsys)[1] == (
        "error: argument --dmax: invalid choice: 4 (choose from 2, 3)")


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_prints_the_usage_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        reference(argv)
    assert exit_info.value.code == 0
    capsys.readouterr()
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    command = argv[0] if argv[0] in cli.COMMANDS else None
    assert out.startswith(f"usage: treebraid {command} [-h]" if command else
                          "usage: treebraid [-h] {present,verify,table,stabilize} ...\n")
    if command:     # every option of the command, from the table
        assert all(option in out for option in cli.COMMANDS[command][1])
    else:           # every command, from the module docstring
        assert all(f"* {command} " in out for command in cli.COMMANDS)


# Pieces of command lines: commands, options and their prefixes, with and
# without "=", values that look like options, negative numbers and
# fractions.  "--" is left out: argparse's handling of it differs between
# versions, and the package does not treat it specially.
PIECES = ["present", "verify", "table", "stabilize", "nonsense", "--tree", "t.json", "--n",
          "--n-min", "--n-max", "--n-m", "--n-", "--k-min", "--k-ma", "--k-max", "--format",
          "json", "dot", "xml", "--out", "--verify", "--verify=1", "--dmax", "2", "4",
          "--subdivision", "--cell-cap", "0", "-1", "-1.5", "-.5", "3", "x", "-h", "--help", "--he",
          "-x", "--bogus", "--n=3", "--tree=a b", "--fo=dot", "-hx", "--help=", "", "-", "--d",
          "--s=2", "--c", "--ou", "-1x", "a b", "-a b", "--k-min=-2", "--=1"]


def outcome(parse, argv):
    """("ok", namespace fields), ("help",) or ("error", message)."""
    try:
        args = parse(argv)
    except cli.UsageError as exc:
        return "error", str(exc)
    except SystemExit:
        return ("help",)
    return ("help",) if args.func is cli._print_help else ("ok", vars(args))


@pytest.mark.skipif(not REFERENCE_VERSION, reason="argparse's edge cases vary by version")
@pytest.mark.parametrize("seed", range(3))
def test_random_command_lines_parse_alike(seed, capsys):
    rng = random.Random(seed)
    for _ in range(600):
        argv = [rng.choice(PIECES) for _ in range(rng.randint(0, 7))]
        if rng.random() < 0.8:
            argv.insert(0, rng.choice(list(cli.COMMANDS)))
        assert outcome(cli.parse_args, argv) == outcome(reference, argv), argv
    capsys.readouterr()
