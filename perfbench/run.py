"""Benchmark of the fbar-dce command line, end to end and layer by layer.

    python3 perfbench/run.py --workload cli-default --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report
    python3 perfbench/run.py --regenerate              # refresh perfbench/reference.json

With `--trace 0` each command runs as a user runs it: one fresh
`python -m fbar_dce.cli ...` process at a time (a closed loop with a single
client), timed from spawn to exit, with CPU time and peak RSS read from
`os.wait4`. One whole cycle of the workload's commands runs, and the cycle
goes on until `--seconds` have passed. With `--trace 1` the same commands
run in this process through `fbar_dce.cli.main`, each untraced and then
under `tracer.Tracer` (or the other way round), in whole passes until
`--seconds` have passed; the per-layer metrics come from the spans.

Every command's CSV is checked: exit code 0, the sha256 against the frozen
reference where one exists for the same inputs, and the row invariants of
`checks.py`. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines before it are
the human-readable report. Run files (CSVs, run record, spans) go to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
CSV_NAME = "out.csv"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
COMMAND_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # samples above the reported tail percentile, once a run has 40

SETUP_PROBE = """
import copy, sys
from fbar_dce import cli, scenario
for spec in sys.argv[1:]:
    name, _, points = spec.partition("@")
    sc = scenario.load_scenario(name)
    if points:
        raw = copy.deepcopy(sc.raw)
        raw["grid"]["points"] = int(points)
        scenario.scenario_from_raw(raw)
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list[str], cwd: Path, log) -> tuple[float, float, float, int]:
    """Spawn, wait and time one process: (wall s, user+sys CPU s, peak RSS MB, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


class Checker:
    """Checks each command's CSV; caches verdicts by digest, since outputs repeat every cycle."""

    def __init__(self, run_dir: Path):
        self.csv = run_dir / CSV_NAME
        self.references = checks.References(REFERENCE)
        self._verdicts: dict[str, checks.Violations] = {}
        self.attempted = self.failed = 0
        self.violations = self.known = 0
        self.mismatches: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, cmd: workloads.Command, exit_code: int) -> tuple[int, int]:
        """Record one command's outcome; returns its (data rows, bytes)."""
        self.attempted += 1
        if exit_code != 0:
            self.failed += 1
            self.mismatches.append(f"{cmd.label}: exit {exit_code}")
            return 0, 0
        data = self.csv.read_bytes()
        text = data.decode()
        digest = checks.digest(data)
        self.digests[cmd.label] = digest
        ref = self.references.lookup(cmd.key())
        if ref is not None and ref["sha256"] != digest:
            self.failed += 1
            self.mismatches.append(f"{cmd.label}: CSV bytes differ from the reference")
        if digest not in self._verdicts:
            if ref is not None and ref["sha256"] == digest:
                self._verdicts[digest] = checks.Violations(ref["violations"], ref["known_defect"])
            else:
                self._verdicts[digest] = checks.invariant_violations(text)
        verdict = self._verdicts[digest]
        self.violations += verdict.total
        self.known += verdict.known
        return checks.data_rows(text), len(data)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.violations == self.known


def prepare(workload: str, seed: int) -> tuple[list[workloads.Command], Path]:
    cmds = workloads.commands(workload, seed)
    run_dir = OUT / f"{workload}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for cmd in cmds:
        for name, text in cmd.files:
            (run_dir / name).write_text(text)
    return cmds, run_dir


def cli_argv(cmd: workloads.Command) -> list[str]:
    return list(cmd.argv) + ["--out", CSV_NAME]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with min(TAIL_BEYOND, n // 4) samples above it.

    A run of `--seconds` holds 8 to 20 commands. With so few, ten samples
    beyond would put the "tail" at or below the median, and the percentile
    would jump as the sample count changes; at least a quarter of the samples
    beyond keeps it at or above the upper quartile.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def measure_setup(specs: list[str], run_dir: Path, log) -> list[float]:
    argv = [sys.executable, "-c", SETUP_PROBE] + specs
    samples = []
    for _ in range(SETUP_REPEATS):
        wall, _, _, code = run_process(argv, run_dir, log)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}; see {log.name}")
        samples.append(wall)
    return samples


def run_end_to_end(workload: str, seed: int, seconds: float) -> tuple[Checker, dict, dict]:
    cmds, run_dir = prepare(workload, seed)
    checker = Checker(run_dir)
    samples = []
    with open(run_dir / "stderr.log", "w") as log:
        setup = measure_setup(workloads.setup_specs(cmds), run_dir, log)
        # one whole cycle, then on through the cycle until `seconds` have passed
        start = time.perf_counter()
        i = 0
        while i < len(cmds) or time.perf_counter() - start < seconds:
            cmd = cmds[i % len(cmds)]
            wall, cpu, rss, code = run_process([sys.executable, "-m", "fbar_dce.cli"] + cli_argv(cmd), run_dir, log)
            rows, _ = checker.check(cmd, code)
            samples.append({"label": cmd.label, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "rows": rows})
            i += 1
    walls = [s["wall_s"] for s in samples]
    tail_value, tail_pct = tail(walls)
    # rows over wall of one cycle, each command at its median wall: a partial
    # last cycle does not change the mix of commands
    per_command = [[s for s in samples if s["label"] == cmd.label] for cmd in cmds]
    cycle_rows = sum(runs[0]["rows"] for runs in per_command)
    cycle_wall = sum(statistics.median(s["wall_s"] for s in runs) for runs in per_command)
    metrics = {
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "cpu_p50_s": statistics.median(s["cpu_s"] for s in samples),
        "rows_per_s": cycle_rows / cycle_wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
    }
    detail = {
        "samples": len(samples),
        "wall_tail_percentile": tail_pct,
        "failed_frac": checker.failed / checker.attempted,
        "invariant_violations": checker.violations,
        "known_defect_violations": checker.known,
        "setup_samples_s": setup,
        "commands": samples,
    }
    return checker, metrics, detail


def import_times() -> dict[str, float]:
    """Cumulative import times of `import fbar_dce.cli` from `python -X importtime` (median of runs)."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fbar_dce.cli"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=COMMAND_TIMEOUT_S,
            check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def parse_importtime(stderr: str) -> dict[str, float]:
    entries = []  # (depth, name, cumulative us), children listed before their parent
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))

    def belongs(name: str, packages: tuple[str, ...]) -> bool:
        return any(name == p or name.startswith(p + ".") for p in packages)

    def top(package: str, enclosing: tuple[str, ...]) -> float:
        # cumulative time of the package's imports not nested in an import of `enclosing`
        total, stack = 0, []
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if belongs(name, (package,)) and not any(belongs(n, enclosing) for _, n in stack):
                total += cumulative
            stack.append((depth, name))
        return total / 1e6

    # numpy submodules that scipy imports count as scipy's import time
    numeric = ("numpy", "scipy")
    return {
        "cli.import_s": top("fbar_dce", ("fbar_dce",)),
        "cli.import_numpy_s": top("numpy", numeric),
        "cli.import_scipy_s": top("scipy", numeric),
    }


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Checker, dict, dict]:
    from fbar_dce import cli

    import tracer

    cmds, run_dir = prepare(workload, seed)
    checker = Checker(run_dir)
    imports = import_times()
    trace = tracer.Tracer()
    passes, traced_walls, untraced_walls = [], [], []
    command_id = 0
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            rows = nbytes = 0
            walls: dict[int, float] = {}
            untraced = 0.0
            for i, cmd in enumerate(cmds):
                # each command runs untraced and traced back to back, alternating
                # which goes first, so drift and warm-up favour neither side
                for traced in (False, True) if (len(passes) + i) % 2 == 0 else (True, False):
                    command_id += 1
                    trace.command = command_id
                    if traced:
                        with trace:
                            t0 = time.perf_counter()
                            code = cli.main(cli_argv(cmd))
                            walls[command_id] = time.perf_counter() - t0
                    else:
                        t0 = time.perf_counter()
                        code = cli.main(cli_argv(cmd))
                        untraced += time.perf_counter() - t0
                    r, b = checker.check(cmd, code)
                    if traced:
                        rows, nbytes = rows + r, nbytes + b
            metrics = tracer.layer_metrics(trace.spans, walls)
            metrics.update(imports)
            metrics["cli.rows"] = rows
            metrics["cli.bytes"] = nbytes
            passes.append(metrics)
            traced_walls.append(sum(walls.values()))
            untraced_walls.append(untraced)
    finally:
        os.chdir(cwd)
    metrics = tracer.median_metrics(passes)
    untraced_wall = statistics.median(untraced_walls)
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls) - untraced_wall) / untraced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    with open(run_dir / "spans.csv", "w") as fh:
        fh.write("command,parent,name,start,end,points\n")
        for s in trace.spans:
            fh.write(f"{s.command},{s.parent},{s.name},{s.start!r},{s.end!r},{s.points}\n")
    layers = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    detail = {
        "passes": len(passes),
        "largest_layer_by_self_time": max(layers, key=layers.get),
        "import_share_of_command_wall": imports["cli.import_s"]
        / (imports["cli.import_s"] + untraced_wall / len(cmds)),
        "failed_frac": checker.failed / checker.attempted,
        "invariant_violations": checker.violations,
        "known_defect_violations": checker.known,
    }
    return checker, metrics, detail


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def metric_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, seed: int, trace: int, checker: Checker, metrics: dict, detail: dict, record: dict) -> dict:
    units = metric_units(trace)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(f"== {workload} seed {seed} trace {trace}: {checker.attempted} commands, {checker.failed} failed"
          f" (failed_frac {detail['failed_frac']:.4g}), invariant_violations {checker.violations}"
          f" ({checker.known} known guard-collision defect)")
    for line in checker.mismatches[:10]:
        print(f"   FAILED {line}")
    for name, unit in units.items():
        note = ""
        if name == "wall_tail_s":
            note = f"  (p{detail['wall_tail_percentile']:.1f} of {detail['samples']} samples)"
        print(f"   {name:34s} {metrics[name]:14.6g} {unit}{note}")
    if trace:
        print(f"   largest layer by self time: {detail['largest_layer_by_self_time']};"
              f" import share of a command's wall: {detail['import_share_of_command_wall']:.3f}")
    print("   record: " + ", ".join(f"{k} {v}" for k, v in record.items()))
    out = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    doc = {"workload": workload, "trace": trace, "record": record, "metrics": metrics, "detail": detail,
           "digests": checker.digests, "correct": checker.correct}
    (OUT / f"run-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return out


def regenerate() -> int:
    """Run every workload once at the default seed and freeze its CSV digests."""
    seed = workloads.DEFAULT_SEED
    entries = {}
    for workload in workloads.WORKLOADS:
        cmds, run_dir = prepare(workload, seed)
        with open(run_dir / "stderr.log", "w") as log:
            for cmd in cmds:
                *_, code = run_process([sys.executable, "-m", "fbar_dce.cli"] + cli_argv(cmd), run_dir, log)
                if code != 0:
                    print(f"{workload}: {cmd.label} exited {code}", file=sys.stderr)
                    return 1
                data = (run_dir / CSV_NAME).read_bytes()
                verdict = checks.invariant_violations(data.decode())
                entries[cmd.key()] = {
                    "workload": workload,
                    "label": cmd.label,
                    "sha256": checks.digest(data),
                    "violations": verdict.total,
                    "known_defect": verdict.known,
                }
                print(f"{workload:13s} {cmd.label:32s} {entries[cmd.key()]['sha256'][:16]} violations {verdict.total}")
    checks.References(REFERENCE).save(seed, entries)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true", help="refresh the frozen CSV digests")
    args = parser.parse_args(argv)

    if not (SRC / "fbar_dce" / "cli.py").is_file():
        print(f"error: no fbar_dce sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.regenerate:
        return regenerate()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    record = run_record(args.seed)
    run = run_traced if args.trace else run_end_to_end
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        checker, metrics, detail = run(name, args.seed, args.seconds)
        out = report(name, args.seed, args.trace, checker, metrics, detail, record)
        result["correct"] &= checker.correct
        result["attempted"] += checker.attempted
        result["failed"] += checker.failed
        prefix = "" if len(names) == 1 else f"{name}."
        result["metrics"].update({prefix + k: v for k, v in out.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
