"""Self-tests of the benchmark's own parts: `python -m pytest perfbench -q`."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fbar_dce import cli  # noqa: E402

GOOD = """# fbar-dce 0.1.0 spectrum
omega_over_omega_m,n_total,n_dce,n_thermal,n_mech_only,flags
0.1,2e-05,1e-05,1e-05,5e-06,
0.2,nan,nan,nan,nan,guard-band
0.3,3e-05,3e-05,0,0,
"""


def test_checker_passes_a_good_csv():
    assert checks.invariant_violations(GOOD) == checks.Violations(0, 0)
    assert checks.data_rows(GOOD) == 3


def test_checker_flags_non_monotone_omega_and_unflagged_nan():
    non_monotone = GOOD.replace("0.3,3e-05", "0.15,3e-05")
    assert checks.invariant_violations(non_monotone) == checks.Violations(1, 0)
    unflagged_nan = GOOD.replace("nan,nan,nan,nan,guard-band", "nan,nan,nan,nan,")
    assert checks.invariant_violations(unflagged_nan) == checks.Violations(1, 0)
    dce_above_total = GOOD.replace("0.3,3e-05,3e-05", "0.3,3e-05,4e-05")
    assert checks.invariant_violations(dce_above_total) == checks.Violations(1, 0)


def test_checker_counts_guard_collision_as_known_defect():
    collided = GOOD.replace("0.3,3e-05,3e-05,0,0,", "0.2,3e-05,3e-05,0,0,guard-shifted")
    assert checks.invariant_violations(collided) == checks.Violations(1, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_generation_is_deterministic(workload):
    first = workloads.commands(workload, 7)
    assert first == workloads.commands(workload, 7)
    assert [c.key() for c in first] == [c.key() for c in workloads.commands(workload, 7)]
    if workload != "squeeze-deep":  # its seed only orders three presets
        assert first != workloads.commands(workload, 8)


def _module_attributes():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "fbar_dce" or name.startswith("fbar_dce.")
        for attr, value in vars(module).items()
    }


ARGVS = [
    ["spectrum", "--scenario", "low-q", "--points", "300"],
    ["decompose", "--scenario", "metamaterial", "--points", "300"],
    ["resonances", "--scenario", "high-q"],
    ["sweep", "--scenario", "low-q", "--axis", "v_pp", "--values", "1e-4,0.5,20"],
    ["squeeze", "--scenario", "low-q", "--dim", "20", "--samples", "5"],
]


def test_tracer_restores_every_attribute_and_keeps_bytes(tmp_path):
    before = _module_attributes()
    untraced, traced = [], []
    for i, argv in enumerate(ARGVS):
        out = tmp_path / f"plain{i}.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        untraced.append(out.read_bytes())
    trace = tracer.Tracer()
    with trace:
        assert cli.main is not before[("fbar_dce.cli", "main")]
        for i, argv in enumerate(ARGVS):
            trace.command = i
            out = tmp_path / f"traced{i}.csv"
            assert cli.main(argv + ["--out", str(out)]) == 0
            traced.append(out.read_bytes())
    after = _module_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == untraced

    metrics = tracer.layer_metrics(trace.spans, {i: 1.0 for i in range(len(ARGVS))})
    assert metrics["cavity.dressing_points_per_row"] == 7
    assert metrics["scatter.h_points_per_row"] == 2
    assert metrics["scenario.from_raw_calls"] == 7  # two per command with --points
    assert metrics["squeeze.dim"] == 20
    assert metrics["trace.unattributed_s"] >= 0.0
