"""What the benchmark in `perfbench/` relies on from the package.

The tracer looks up every function it wraps by name, so a rename or merge in
the package must fail here and not only when `--trace 1` runs; so must renaming
the parameter it counts points by. The sweep rows the benchmark asks for (its
seeded log ranges on every axis and preset, mixed with values that fail or
underflow) must equal an evaluation of the same configuration built by a
separate route, one value at a time. The default-grid commands and the long
sweeps must write the bytes frozen in `perfbench/reference.json`, and one
traced pass over every command must give per-layer counts that match the
tables it wrote and leave every traced name as it was.
"""

import copy
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbar_dce import cli, flux
from fbar_dce.errors import SimulationError
from fbar_dce.scatter import LineParams, SourceConfig, TimeVaryingCap
from fbar_dce.scenario import load_scenario, preset_raw, scenario_from_raw, source_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _perfbench_module("tracer")
WORKLOADS = _perfbench_module("workloads")


def test_every_traced_name_resolves():
    for layer, names in TRACER.LAYERS.items():
        module = importlib.import_module(f"fbar_dce.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fbar_dce.{layer}.{name}"


# the functions whose point counts feed the `*_points` and `*_per_row` metrics
POINT_COUNTED = (
    "flux.output_spectrum",
    "cavity.mode_response",
    "cavity.reflection_coefficient",
    "scatter.s_coefficient",
    "scatter.h_coefficient",
    "squeeze.evolve_series",
)


@pytest.mark.parametrize("name", POINT_COUNTED)
def test_point_counted_functions_keep_a_point_parameter(name):
    layer, fname = name.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"fbar_dce.{layer}"), fname)).parameters
    assert set(params) & set(TRACER.POINT_PARAMS), f"{name} has none of {TRACER.POINT_PARAMS}"


def _expected_row(preset: str, axis: str, value: float, pin: bool) -> str:
    """The sweep row built from the raw mapping, the line or the explicit displacement."""
    sc = load_scenario(preset)
    line, delta_x = sc.line, None
    probe = np.array([sc.geometry.omega_m / 2.0])
    try:
        if axis in ("v_pp", "q"):
            raw = copy.deepcopy(preset_raw(preset))
            section, key = ("drive", "v_pp_volts") if axis == "v_pp" else ("geometry", "quality")
            raw[section][key] = value
            sc = scenario_from_raw(raw)
        elif axis == "z0":
            line = LineParams(z0=value, v_light=sc.line.v_light)
        else:
            delta_x = value
        cfg = source_config(sc, delta_x=delta_x)
        if pin:
            still = TimeVaryingCap(c0=cfg.cap.c0, delta_c=0.0, omega_m=cfg.cap.omega_m)
            cfg = SourceConfig(drive=cfg.drive, cap=still, window_time=cfg.window_time)
        table = flux.output_spectrum(probe, sc.cavity, cfg, line, sc.env)
        numbers = [table.n_total[0], table.n_dce[0], table.n_thermal[0], table.n_mech_only[0]]
        flag = table.flags[0]
    except SimulationError as exc:
        numbers, flag = [math.nan] * 4, type(exc).__name__
    return ",".join([axis, f"{value:.17g}", "0.5"] + [f"{x:.17g}" for x in numbers] + [flag])


# values that fail or sit at the edge, per axis: above the validity range (ValidityError before
# evaluation), a z0 whose occupations overflow (NumericalError from an overflowing batch), and
# sub-normal drives or displacements whose tone amplitudes underflow to 0
_EDGE_VALUES = {
    "v_pp": [1e3, 1e-320, 5e-324],
    "q": [1.5e9],
    "z0": [1e200],
    "delta_x": [1e-3, 1e-320, 5e-324],
}


@st.composite
def _sweeps(draw):
    axis = draw(st.sampled_from(WORKLOADS.SWEEP_AXES))
    lo, hi = WORKLOADS.SWEEP_RANGES[axis]
    exponent = st.floats(min_value=math.log10(lo), max_value=math.log10(hi))
    size = draw(st.integers(min_value=1, max_value=40))
    values = [10.0**e for e in draw(st.lists(exponent, min_size=size, max_size=size))]
    for edge in draw(st.lists(st.sampled_from(_EDGE_VALUES[axis]), max_size=3)):
        values.insert(draw(st.integers(min_value=0, max_value=len(values))), edge)
    return draw(st.sampled_from(WORKLOADS.PRESETS)), axis, values, draw(st.booleans())


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_sweeps())
def test_sweep_rows_match_independent_evaluation(tmp_path_factory, sweep):
    preset, axis, values, pin = sweep
    out = tmp_path_factory.getbasetemp() / "sweep.csv"
    argv = ["sweep", "--scenario", preset, "--axis", axis, "--values", ",".join(map(repr, values))]
    assert cli.main(argv + ["--pin-delta-c-zero"] * pin + ["--out", str(out)]) == 0
    rows = out.read_text().splitlines()[-len(values):]
    assert rows == [_expected_row(preset, axis, value, pin) for value in values]


@pytest.mark.parametrize(
    "values", [[7.605729761237647e-10], [1e-3, 7.605729761237647e-10]], ids=["alone", "after-failing"]
)
def test_single_evaluated_sweep_value_keeps_its_scalar_bits(tmp_path, values):
    # a sweep that evaluates one value makes the plain scalar call; as a lane of one this value
    # comes out a few ulp off (n_total ...63989 for ...63963), because numpy multiplies a (1, 1)
    # by a (1,) complex array in a loop that rounds differently
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", "high-q", "--axis", "delta_x", "--values", ",".join(map(repr, values))]
    assert cli.main(argv + ["--out", str(out)]) == 0
    rows = out.read_text().splitlines()[-len(values):]
    assert rows == [_expected_row("high-q", "delta_x", value, False) for value in values]


BYTE_CASES = [
    pytest.param(cmd, id=prefix + cmd.label.replace(" ", "-"))
    for workload, prefix in (
        ("cli-default", ""),
        ("sweep-long", "sweep-long-"),
        ("squeeze-deep", "squeeze-deep-"),
    )
    for cmd in WORKLOADS.commands(workload, WORKLOADS.DEFAULT_SEED)
]


@pytest.mark.parametrize("cmd", BYTE_CASES)
def test_default_grid_bytes_match_reference(tmp_path, cmd):
    reference = json.loads((PERFBENCH / "reference.json").read_text())["commands"]
    out = tmp_path / "out.csv"
    assert cli.main(list(cmd.argv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == reference[cmd.key()]["sha256"]


def _fbar_dce_attributes():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "fbar_dce" or name.startswith("fbar_dce.")
        for attr, value in vars(module).items()
    }


TRACED_ARGVS = [
    ["spectrum", "--points", "64"],
    ["decompose", "--points", "64"],
    ["resonances"],
    ["sweep", "--axis", "z0", "--values", "55,10000"],
    ["squeeze", "--dim", "16", "--samples", "3"],
]


def test_traced_pass_counts_match_the_tables_and_restores_names(tmp_path):
    before = _fbar_dce_attributes()
    trace, walls, tables = TRACER.Tracer(), {}, []
    with trace:
        for i, argv in enumerate(TRACED_ARGVS):
            trace.command = i
            out = tmp_path / f"{argv[0]}.csv"
            start = perf_counter()
            assert cli.main(argv + ["--out", str(out)]) == 0
            walls[i] = perf_counter() - start
            lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
            tables.append([line.split(",") for line in lines[1:]])
    after = _fbar_dce_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    metrics = TRACER.layer_metrics(trace.spans, walls)
    spectrum, decompose, resonances, sweep, squeeze = tables
    flux_rows = spectrum + decompose + sweep
    # the two sweep values are lanes of one call at the one probe point
    assert metrics["flux.output_spectrum_calls"] == 2 + 1
    assert metrics["flux.points"] == len(spectrum) + len(decompose) + 1 == 64 + 64 + 1
    assert len(sweep) == 2
    assert metrics["flux.rows_guard_band"] == sum(row[-1] == "guard-band" for row in flux_rows)
    assert metrics["flux.rows_guard_shifted"] == sum(row[-1] == "guard-shifted" for row in flux_rows)
    assert metrics["cavity.resonances_found"] == len(resonances) == 3
    assert metrics["squeeze.samples"] == len(squeeze) == 3
    assert metrics["squeeze.dim"] == 16
    assert metrics["trace.unattributed_s"] >= 0.0
