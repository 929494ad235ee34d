"""Self-test of the benchmark's output checks.  Times nothing.

    python3 perfbench/selftest.py

Runs small treebraid commands the way the benchmark does, shows that each
check accepts their real output, and that it rejects a corrupted copy: a
dropped relation, an altered Betti row, a wrong table entry, a nonzero
exit code, and a few more.  Exits 0 when every check behaves.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

import checks
import run

FAILURES: list[str] = []


def expect(label: str, problems: list[str], ok: bool) -> None:
    if bool(problems) == ok:
        FAILURES.append(f"{label}: {'rejected' if problems else 'accepted'} -> {problems[:2]}")
    shown = f": {problems[0]}" if problems else ""
    print(f"{'ok  ' if bool(problems) != ok else 'FAIL'} {label}{shown}")


def replace_once(text: str, old: str, new: str) -> str:
    if old not in text:
        raise ValueError(f"{old!r} not found")
    return text.replace(old, new, 1)


def model_self_consistency() -> None:
    bad = [
        (k, n) for k in range(2, 7) for n in range(0, 7)
        if len(checks.basis_edges(k, n)) != checks.star_rank(k, n)
    ]
    expect("closed-form basis size equals r(k, n)", [f"{bad}"] if bad else [], ok=True)
    _, rels = checks.expected_presentation((3, 3), 4)
    expect("H-tree has one relation at n=4", [] if len(rels) == 1 else [len(rels)], ok=True)


def manifest_matches() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    expect("BENCHMARK.json end-to-end metrics", [] if sorted(names) == sorted(run.END_TO_END) else names, True)
    names = [m["name"] for m in bench["per_layer"]]
    expect("BENCHMARK.json per-layer metrics", [] if names == run.PER_LAYER else names, True)
    names = [w["name"] for w in bench["workloads"]]
    expect("BENCHMARK.json workloads", [] if names == list(run.WORKLOADS) else names, True)


def main() -> int:
    work = run.ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + run.RUN_LIMIT_S
    try:
        run.write_inputs(work, seed=0)
        manifest_matches()
        model_self_consistency()

        verify = run.run_round([(
            ["verify", "--tree", str(work / "htree.json"), "--n-min", "2", "--n-max", "3",
             "--out", str(work / "verify")], work / "verify", None)], True, deadline)[0]
        ns = range(2, 4)
        expect("verify output", checks.check_verify(verify["stdout"], verify["files"], (3, 3), ns), True)
        row = verify["stdout"].splitlines()[2]
        altered = "      7      0".join(row.rsplit("      6      0", 1))   # b1, not gens
        expect("altered Betti row", checks.check_verify(
            verify["stdout"].replace(row, altered), verify["files"], (3, 3), ns), False)
        files = dict(verify["files"])
        files["verify_n3.json"] = replace_once(files["verify_n3.json"], '"betti": [\n    1,', '"betti": [\n    2,')
        expect("b0 != 1 in a verify report", checks.check_verify(verify["stdout"], files, (3, 3), ns), False)
        records = verify["trace"]["records"]
        expect("cell counts", checks.check_cells(records), True)
        wrong = [dict(records[0], cells=[c + (d == 2) for d, c in enumerate(records[0]["cells"])])]
        expect("wrong 2-cell count", checks.check_cells(wrong), False)

        cat, top = str(work / "caterpillar.txt"), 5
        present = run.run_round([(
            ["present", "--tree", cat, "--n-min", "0", "--n-max", str(top), "--format", "dot",
             "--out", str(work / "present")], work / "present", None)], False, deadline)[0]
        ks, levels = run.CATERPILLAR_ARMS, range(top + 1)
        expect("present output", checks.check_present(present["files"], ks, levels), True)
        files = dict(present["files"])
        data = json.loads(files[f"presentation_n{top}.json"])
        data["relations"].pop()
        files[f"presentation_n{top}.json"] = json.dumps(data)
        expect("dropped relation", checks.check_presentation_json(files[f"presentation_n{top}.json"], ks, top), False)
        expect("DOT edge count differs from its JSON", checks.check_dot(present["files"][f"presentation_n{top}.dot"], files[f"presentation_n{top}.json"]), False)
        data = json.loads(present["files"][f"presentation_n{top}.json"])
        data["relations"].insert(0, [0, 1])   # generators 0 and 1 both lie on star 1
        expect("relation within one star", checks.check_presentation_json(json.dumps(data), ks, top), False)

        stab = run.run_child(["stabilize", "--tree", cat, "--n", str(top)], False, deadline)
        expect("stabilize output", checks.check_stabilize(stab["stdout"], ks, top), True)
        expect("stabilize final line missing", checks.check_stabilize(
            stab["stdout"].rsplit("all", 1)[0], ks, top), False)

        table = run.run_child(["table", "--k-min", "2", "--k-max", "5", "--n-min", "0", "--n-max", "6"], False, deadline)
        ks, ns = range(2, 6), range(0, 7)
        expect("table output", checks.check_table(table["stdout"], ks, ns), True)
        line = next(l for l in table["stdout"].splitlines() if l.startswith("k=3"))
        expect("wrong table entry", checks.check_table(
            table["stdout"].replace(line, line.replace("     3", "     4", 1)), ks, ns), False)

        expect("exit code 0", checks.check_exit(table), True)
        expect("nonzero exit code", checks.check_exit(dict(table, rc=3)), False)
        verdicts = run.Verdicts()
        verdicts.add("star_table", [dict(table, rc=3, check=None)])
        expect("nonzero exit counted as failed", [] if verdicts.failed == 1 else ["not counted"], True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in FAILURES:
        print(f"self-test failure: {failure}", file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
