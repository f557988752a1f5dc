"""The paired benchmark `tools/bench.py` writes the BENCH record it documents.

The runner and the start-up probe are stubs and the revision export and git
are replaced, so the tests spawn nothing: they check the order of the pairs
and of the probes, the summary of each metric, the wins by each metric's
direction, the record's keys, where a run's host and source record is read
from, and what one start-up probe runs and how its stages are read.
"""

import argparse
import importlib.util
import json
import os
import subprocess
from pathlib import Path

from numpy._core._multiarray_umath import __cpu_features__

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

    probes = []

    def probe(tree):
        # the head imports the package 2 ms faster; the other stages tie
        probes.append(tree)
        head = tree == bench.ROOT
        seconds = {"import_numpy_s": 0.05, "import_cli_s": 0.017 if head else 0.019, "build_parser_s": 0.002}
        return {"metrics": {stage: {"value": value, "unit": "s"} for stage, value in seconds.items()}}

    monkeypatch.setattr(bench, "export", _export)
    monkeypatch.setattr(bench, "_git", lambda *args: "" if args[0] == "status" else f"sha-of-{args[-1]}")
    args = argparse.Namespace(pr=7, against="abc123", pairs=4, workload="grid-100x", seed=3)
    doc = bench.build(args, run, probe)

    sides = ["head" if tree == bench.ROOT else "against" for tree, *_ in calls]
    assert sides == ["against", "head", "head", "against"] * 2
    assert {tuple(call[1:]) for call in calls} == {("grid-100x", 3)}
    assert set(doc) == {
        "pr", "workload", "pairs", "seed", "revisions", "clean_tree", "host", "record", "metrics", "checks",
        "startup",
    }
    # the start-up probes alternate as the pairs do, STARTUP_RUNS a side, and are summarized as the pairs' metrics
    probe_sides = ["head" if tree == bench.ROOT else "against" for tree in probes]
    assert probe_sides == ["against", "head", "head", "against"] * (bench.STARTUP_RUNS // 2)
    assert set(doc["startup"]) == {"import_numpy_s", "import_cli_s", "build_parser_s"}
    cli_import = doc["startup"]["import_cli_s"]
    assert (cli_import["unit"], cli_import["better"], cli_import["head_wins"]) == ("s", "lower", bench.STARTUP_RUNS)
    assert (cli_import["head"]["median"], cli_import["against"]["median"]) == (0.017, 0.019)
    assert len(cli_import["head"]["values"]) == bench.STARTUP_RUNS
    assert doc["startup"]["import_numpy_s"]["head_wins"] == 0
    assert doc["revisions"] == {"head": "sha-of-HEAD", "against": "sha-of-abc123"}
    assert doc["clean_tree"] is True
    assert doc["record"] == {"against": {"nproc": 2, "src_lines": 1990}, "head": {"nproc": 2, "src_lines": 2000}}
    assert doc["checks"] == {side: {"correct": [True] * 4, "failed": [0] * 4} for side in ("against", "head")}
    # the host fields, read in this process: SIMD features as numpy lists them, and OpenBLAS's core or None
    assert set(doc["host"]) == {"numpy_simd", "openblas_core", "pythondontwritebytecode"}
    assert doc["host"]["pythondontwritebytecode"] is bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    assert doc["host"]["numpy_simd"] == [name for name, found in __cpu_features__.items() if found]
    core = doc["host"]["openblas_core"]
    assert core is None or (isinstance(core, str) and core.isprintable() and core)
    assert json.loads(json.dumps(doc["host"])) == doc["host"]

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


def test_a_startup_probe_times_the_four_stages_in_the_tree(tmp_path, monkeypatch):
    # one fresh interpreter of the tree's package, which prints the seconds of each stage in order
    seen = []

    def fake_run(cmd, env, **kwargs):
        seen.append((cmd[1:], env["PYTHONPATH"], env["OPENBLAS_NUM_THREADS"]))
        return subprocess.CompletedProcess(cmd, 0, stdout="[0.05, 0.017, 0.002, 0.0003]\n")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    result = bench.probe_startup(tmp_path)
    assert result == {
        "metrics": {
            "import_numpy_s": {"value": 0.05, "unit": "s"},
            "import_cli_s": {"value": 0.017, "unit": "s"},
            "build_parser_s": {"value": 0.002, "unit": "s"},
            "load_preset_s": {"value": 0.0003, "unit": "s"},
        }
    }
    assert seen == [(["-c", bench.STARTUP_PROBE], str(tmp_path / "src"), "1")]
    probe = bench.STARTUP_PROBE
    steps = ("import numpy", "from fbar_dce import cli", "_build_parser()", "load_scenario")
    order = [probe.index(step) for step in steps]
    assert order == sorted(order)
