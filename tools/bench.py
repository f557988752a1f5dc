"""Paired benchmark of this checkout against an earlier revision, written to BENCH_<pr>.json.

    python tools/bench.py --pr 31 --against e6528f4 --pairs 10 --workload grid-100x [--seed 1]

REV is exported with `git archive` into a temporary directory. Each pair runs
`perfbench/run.py --workload W --seed N`, unchanged and for its own default
run length, once in each tree, the side that goes first alternating from pair
to pair. The last line of each run's output is its JSON result; per metric
the record keeps each side's values, median and quartiles, and the number of
pairs this checkout won, lower or higher being better as BENCHMARK.json says.
The record also holds both revisions, whether this checkout's tree was clean,
and each side's host and source record (`nproc`, Python, numpy, scipy and
BLAS versions, lines of `src/`) as the first run in that tree wrote it to
`perfbench/out/run-W-seedN-trace0.json`.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """The tree of REV, extracted under `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_perfbench(tree: Path, workload: str, seed: int) -> dict:
    """The JSON result of one `perfbench/run.py` run in `tree`, with the host and source record the run wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    run = json.loads((tree / "perfbench" / "out" / f"run-{workload}-seed{seed}-trace0.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]) | {"record": run["record"]}


def run_pairs(trees: dict, pairs: int, run) -> dict:
    """{side: [result, ...]}: `pairs` calls of run(tree) a side, the side that goes first alternating."""
    results = {side: [] for side in trees}
    for i in range(pairs):
        for side in list(trees)[:: 1 if i % 2 == 0 else -1]:
            results[side].append(run(trees[side]))
    return results


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def record(results: dict, better: dict) -> dict:
    """Each side's host and source record; per metric of the runs, unit, direction, each side's summary, and the
    pairs "head" won over "against"; each run's correctness and failures."""
    metrics = {}
    for name, first in results["head"][0]["metrics"].items():
        sides = {side: [run["metrics"][name]["value"] for run in runs] for side, runs in results.items()}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (h - a) > 0 for h, a in zip(sides["head"], sides["against"]))
        metrics[name] = {
            "unit": first["unit"],
            "better": better.get(name, "lower"),
            **{side: _summary(values) for side, values in sides.items()},
            "head_wins": wins,
        }
    checks = {
        side: {key: [run[key] for run in runs] for key in ("correct", "failed")} for side, runs in results.items()
    }
    records = {side: runs[0]["record"] for side, runs in results.items()}
    return {"record": records, "metrics": metrics, "checks": checks}


def build(args, run=run_perfbench) -> dict:
    """The BENCH record of `args`' pairs, each run being run(tree, workload, seed)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    doc = {  # the checkout as it is when the runs start
        "pr": args.pr,
        "workload": args.workload,
        "pairs": args.pairs,
        "seed": args.seed,
        "revisions": {"head": _git("rev-parse", "HEAD"), "against": _git("rev-parse", args.against)},
        "clean_tree": _git("status", "--porcelain") == "",
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"against": export(args.against, Path(tmp)), "head": ROOT}
        results = run_pairs(trees, args.pairs, lambda tree: run(tree, args.workload, args.seed))
    return doc | record(results, better)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="grid-100x", help="one perfbench workload")
    parser.add_argument("--seed", type=int, default=0, help="perfbench/run.py --seed")
    args = parser.parse_args(argv)
    doc = build(args)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in doc["metrics"].items():
        print(f"{name:14s} against {m['against']['median']:.4g} head {m['head']['median']:.4g} "
              f"head wins {m['head_wins']}/{args.pairs}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
