"""treebraid benchmark: CLI workloads, each command timed inside a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a list of treebraid CLI commands (see _commands).  A round
runs each command once, in its own fresh Python process and one at a
time, so the package's lru_caches start cold as they do for a user.
Rounds repeat until S seconds have passed.  The first round's outputs
pass the independent checks in checks.py; every later round must
reproduce them byte for byte.

--trace 0 reports the end-to-end metrics, medians over rounds:
  setup_s      import treebraid up to entry into cli.main, summed over commands
  wall_s       time inside cli.main, summed over commands
  peak_rss_mb  largest ru_maxrss of the round's command processes

--trace 1 reports the per-layer metrics.  Each trace round runs every
workload traced, plus --workload untraced; each layer is read on the
workload it is meant to move (LAYER_WORKLOAD) and trace.overhead_s is
traced minus untraced wall_s of --workload.  The spans of the last trace
round are written to .perfbench/trace_<workload>.json.

The seed only shuffles how the fixed input trees are written (edge order,
edge orientation, vertex order); treebraid's outputs must not change.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170     # a run ends well inside 180 s even if treebraid hangs

# The H-tree: two degree-3 hubs u, v joined by an edge.
HTREE = ("p", [("p", "u"), ("a", "u"), ("u", "v"), ("v", "b"), ("v", "c")])
HTREE_ARMS = (3, 3)
ORACLE_NS = range(2, 4)
# A linear caterpillar with five adjacent hubs of 4, 4, 3, 5, 3 arms.
CATERPILLAR = ("p", [
    ("p", "h1"), ("h1", "a1"), ("h1", "a2"), ("h1", "h2"), ("h2", "b1"),
    ("h2", "b2"), ("h2", "h3"), ("h3", "c1"), ("h3", "h4"), ("h4", "d1"),
    ("h4", "d2"), ("h4", "d3"), ("h4", "h5"), ("h5", "e1"), ("h5", "e2"),
])
CATERPILLAR_ARMS = (4, 4, 3, 5, 3)
PRESENT_TOP = 8
TABLE_KS, TABLE_NS = range(2, 9), range(0, 10)


def _commands(work: Path):
    """Per workload: [(cli args, output directory or None, check)]."""
    htree, cat = str(work / "htree.json"), str(work / "caterpillar.txt")
    verify_out, present_out = work / "verify", work / "present"
    n_range = lambda ns: ["--n-min", str(ns[0]), "--n-max", str(ns[-1])]
    return {
        "oracle_htree": [(
            ["verify", "--tree", htree, *n_range(ORACLE_NS), "--out", str(verify_out)],
            verify_out,
            lambda out, files: checks.check_verify(out, files, HTREE_ARMS, ORACLE_NS),
        )],
        "present_caterpillar": [(
            ["present", "--tree", cat, *n_range(range(PRESENT_TOP + 1)),
             "--format", "dot", "--out", str(present_out)],
            present_out,
            lambda out, files: checks.check_present(
                files, CATERPILLAR_ARMS, range(PRESENT_TOP + 1)),
        ), (
            ["stabilize", "--tree", cat, "--n", str(PRESENT_TOP)],
            None,
            lambda out, files: checks.check_stabilize(out, CATERPILLAR_ARMS, PRESENT_TOP),
        )],
        "star_table": [(
            ["table", "--k-min", str(TABLE_KS[0]), "--k-max", str(TABLE_KS[-1]),
             *n_range(TABLE_NS)],
            None,
            lambda out, files: checks.check_table(out, TABLE_KS, TABLE_NS),
        )],
    }


WORKLOADS = ("oracle_htree", "present_caterpillar", "star_table")

# Which workload each layer's per-layer metrics are read on.
LAYER_WORKLOAD = {
    "trees": "oracle_htree",
    "stars": "star_table",
    "presentation": "present_caterpillar",
    "cubes": "oracle_htree",
    "homology": "oracle_htree",
}
TIME_SPANS = [
    "trees.load", "trees.decompose", "trees.subdivide",
    "stars.rank", "stars.basis", "stars.rank_from_euler", "stars.star_edges",
    "presentation.assemble", "presentation.stabilize", "presentation.export",
    "cubes.build", "cubes.boundary", "cubes.check_dd", "cubes.betti", "cubes.clique",
    "homology.eliminate", "homology.smith",
]
# spans that have traced children, so self time differs from total
SELF_SPANS = [
    "stars.rank", "stars.basis", "stars.rank_from_euler",
    "presentation.assemble", "presentation.stabilize", "cubes.betti",
]
COUNTS = [
    "trees.subdivided_vertices",
    "stars.basis_calls", "stars.star_edges_calls", "stars.star_edges",
    "stars.star_edges_levels",
    "presentation.assemble_calls", "presentation.assemble_levels",
    "presentation.generators", "presentation.relations", "presentation.export_bytes",
    "cubes.cells_d0", "cubes.cells_d1", "cubes.cells_d2", "cubes.cells_d3",
    "cubes.nonzeros",
    "homology.pivots", "homology.dense_rows", "homology.dense_cols",
]
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = [
    name for span in TIME_SPANS
    for name in [f"{span}_s"] + ([f"{span}_self_s"] if span in SELF_SPANS else [])
] + COUNTS + ["trace.spans", "trace.overhead_s"]


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a treebraid failure)."""


def write_inputs(work: Path, seed: int) -> None:
    rng = random.Random(seed)

    def shuffled(tree):
        endpoint, edges = tree
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        rng.shuffle(edges)
        vertices = sorted({v for e in edges for v in e})
        rng.shuffle(vertices)
        return endpoint, vertices, edges

    endpoint, vertices, edges = shuffled(HTREE)
    (work / "htree.json").write_text(json.dumps(
        {"vertices": vertices, "edges": edges, "endpoint": endpoint}) + "\n")
    endpoint, _, edges = shuffled(CATERPILLAR)
    (work / "caterpillar.txt").write_text(
        f"endpoint {endpoint}\n" + "".join(f"{u} {w}\n" for u, w in edges))


def run_child(args: list[str], trace: bool, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), "1" if trace else "0", *args],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"command process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_round(commands, trace: bool, deadline: float) -> list[dict]:
    """Run each command once; attach its outputs (stdout and written files)."""
    results = []
    for args, out_dir, check in commands:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        result = run_child(args, trace, deadline)
        result["files"] = (
            {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
            if out_dir is not None and out_dir.is_dir() else {}
        )
        result["check"] = check
        results.append(result)
    return results


def digest(result: dict) -> str:
    h = hashlib.sha256(result["stdout"].encode())
    for name, text in result["files"].items():
        h.update(f"\0{name}\0{text}".encode())
    return h.hexdigest()


class Verdicts:
    """Checks each command's first output fully, later ones against it."""

    def __init__(self):
        self.reference: dict[tuple, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, workload: str, results: list[dict]) -> None:
        for i, result in enumerate(results):
            self.attempted += 1
            if checks.check_exit(result):
                self.failed += 1
                continue
            key = (workload, i)
            seen = self.reference.get(key)
            if seen is None:
                self.reference[key] = digest(result)
                try:
                    problems = result["check"](result["stdout"], result["files"])
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                self.problems += [f"{workload}: {p}" for p in problems]
            elif digest(result) != seen:
                self.problems.append(f"{workload}: command {i} output changed between rounds")


def round_times(results: list[dict]) -> dict:
    return {
        "setup_s": sum(r["setup_s"] for r in results),
        "wall_s": sum(r["wall_s"] for r in results),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
    }


def timed_run(commands, workload: str, seconds: float, verdicts: Verdicts, deadline: float) -> dict:
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        results = run_round(commands[workload], trace=False, deadline=deadline)
        verdicts.add(workload, results)
        rounds.append(round_times(results))
    return {
        name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def layer_profile(results: list[dict]) -> tuple[dict, dict, dict, list]:
    """Total and self time per span name, counters, and build records."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counts: dict[str, int] = {}
    records = []
    for result in results:
        trace = result["trace"]
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            total[name] = total.get(name, 0.0) + end - start
            self_time[name] = self_time.get(name, 0.0) + end - start - inner
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        records += trace["records"]
    return total, self_time, counts, records


def traced_run(commands, workload: str, seconds: float, verdicts: Verdicts, deadline: float,
               trace_file: Path) -> dict:
    samples: dict[str, list[float]] = {}
    first_counts = None
    plain_walls, traced_walls = [], []
    start = time.monotonic()
    while not plain_walls or time.monotonic() - start < seconds:
        plain = run_round(commands[workload], trace=False, deadline=deadline)
        verdicts.add(workload, plain)
        plain_walls.append(round_times(plain)["wall_s"])
        profiles = {}
        for name in WORKLOADS:
            results = run_round(commands[name], trace=True, deadline=deadline)
            verdicts.add(name, results)
            profiles[name] = layer_profile(results)
            if name == workload:
                traced_walls.append(round_times(results)["wall_s"])
                trace_spans = [r["trace"]["spans"] for r in results]
        verdicts.problems += checks.check_cells(profiles["oracle_htree"][3])

        counts = {
            metric: profiles[LAYER_WORKLOAD[metric.split(".")[0]]][2].get(metric, 0)
            for metric in COUNTS
        }
        counts["trace.spans"] = sum(len(s) for s in trace_spans)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            verdicts.problems.append("traced counters differ between rounds")
        for span in TIME_SPANS:
            total, self_time, _, _ = profiles[LAYER_WORKLOAD[span.split(".")[0]]]
            samples.setdefault(f"{span}_s", []).append(total.get(span, 0.0))
            if span in SELF_SPANS:
                samples.setdefault(f"{span}_self_s", []).append(self_time.get(span, 0.0))

    trace_file.write_text(json.dumps({"workload": workload, "spans": trace_spans}) + "\n")
    metrics = {name: {"value": statistics.median(v), "unit": "s"} for name, v in samples.items()}
    metrics.update({name: {"value": v, "unit": "count"} for name, v in first_counts.items()})
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(plain_walls), "unit": "s"}
    return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "treebraid" / "cli.py").is_file():
        print(f"perfbench: no treebraid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_root = ROOT / ".perfbench"
    work = out_root / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        write_inputs(work, args.seed)
        commands = _commands(work)
        # compile and cache the package's bytecode before anything is timed
        warm = run_child(["table", "--k-min", "2", "--k-max", "2", "--n-min", "0", "--n-max", "0"],
                         trace=False, deadline=deadline)
        if warm["rc"] != 0:
            raise BenchmarkError(f"warm-up command failed: {warm['stderr'].strip()}")
        verdicts = Verdicts()
        if args.trace:
            metrics = traced_run(commands, args.workload, args.seconds, verdicts, deadline,
                                 out_root / f"trace_{args.workload}.json")
        else:
            metrics = timed_run(commands, args.workload, args.seconds, verdicts, deadline)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in verdicts.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>14.6f} {m['unit']}")
    print(json.dumps({
        "correct": not verdicts.problems,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
