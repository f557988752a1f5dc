"""The paired benchmark `tools/bench.py` writes the BENCH record it documents.

The runner is a stub and the revision export and git are replaced, so the
tests spawn nothing: they check the order of the pairs, the summary of each
metric, the wins by each metric's direction, the record's keys, and where a
run's host and source record is read from.
"""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _export(rev, into):
    return into


def test_bench_record_on_a_stubbed_runner(monkeypatch):
    calls = []

    def run(tree, workload, seed):
        # "head" is 1 s faster on CPU and 10 % higher on rows per second, but loses the third pair on CPU
        calls.append((tree, workload, seed))
        head, n = tree == bench.ROOT, len(calls)
        cpu = (1.0 if head else 2.0) + (5.0 if head and n in (5, 6) else 0.0) + 0.001 * n
        rows = 1.1 if head else 1.0
        metrics = {"cpu_p50_s": {"value": cpu, "unit": "s"}, "rows_per_s": {"value": rows, "unit": "1/s"}}
        record = {"nproc": 2, "src_lines": 2000 if head else 1990}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics, "record": record}

    monkeypatch.setattr(bench, "export", _export)
    monkeypatch.setattr(bench, "_git", lambda *args: "" if args[0] == "status" else f"sha-of-{args[-1]}")
    args = argparse.Namespace(pr=7, against="abc123", pairs=4, workload="grid-100x", seed=3)
    doc = bench.build(args, run)

    sides = ["head" if tree == bench.ROOT else "against" for tree, *_ in calls]
    assert sides == ["against", "head", "head", "against"] * 2
    assert {tuple(call[1:]) for call in calls} == {("grid-100x", 3)}
    assert set(doc) == {"pr", "workload", "pairs", "seed", "revisions", "clean_tree", "record", "metrics", "checks"}
    assert doc["revisions"] == {"head": "sha-of-HEAD", "against": "sha-of-abc123"}
    assert doc["clean_tree"] is True
    assert doc["record"] == {"against": {"nproc": 2, "src_lines": 1990}, "head": {"nproc": 2, "src_lines": 2000}}
    assert doc["checks"] == {side: {"correct": [True] * 4, "failed": [0] * 4} for side in ("against", "head")}

    cpu, rows = doc["metrics"]["cpu_p50_s"], doc["metrics"]["rows_per_s"]
    assert (cpu["unit"], cpu["better"], rows["better"]) == ("s", "lower", "higher")
    assert cpu["head_wins"] == 3 and rows["head_wins"] == 4
    assert len(cpu["head"]["values"]) == len(cpu["against"]["values"]) == 4
    assert cpu["head"]["q1"] <= cpu["head"]["median"] <= cpu["head"]["q3"]
    assert cpu["against"]["median"] == 2.0045


def test_a_run_takes_its_record_from_the_run_file(tmp_path, monkeypatch):
    # the result is perfbench's last output line; the record is the one the run wrote for its workload and seed
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    record = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "blas": "x 1", "src_lines": 9}
    (out / "run-grid-100x-seed3-trace0.json").write_text(json.dumps({"record": record, "metrics": {}}))
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    seen = []

    def fake_run(cmd, cwd, **kwargs):
        seen.append((cmd[1:], cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout="== report\n" + json.dumps(result) + "\n")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.run_perfbench(tmp_path, "grid-100x", 3) == result | {"record": record}
    assert seen == [(["perfbench/run.py", "--workload", "grid-100x", "--seed", "3"], tmp_path)]
