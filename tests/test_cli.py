"""Command-line interface: exit codes, CSV schema, determinism, physics columns."""

import ast
import functools
import json
import math
import os
import platform
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbar_dce
from fbar_dce import __version__, brent, cavity, cli, floattext, flux
from fbar_dce.cavity import CavityParams, cavity_resonances
from fbar_dce.constants import TWO_PI
from fbar_dce.flux import ThermalEnv, thermal_occupation
from fbar_dce.piezo import DriveParams, FbarGeometry, MaterialProps
from fbar_dce.scatter import LineParams
from fbar_dce.scenario import _NUMBER_SCHEMA, GridSpec, Scenario, grid_array, load_scenario, preset_raw, source_config

OMEGA_M = TWO_PI * 4.2e9


def _read_table(path):
    header, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def _column(columns, rows, name, dtype=float):
    idx = columns.index(name)
    return np.array([dtype(row[idx]) for row in rows]) if dtype is not str else [
        row[idx] for row in rows
    ]


def _write_scenario(tmp_path, mutate=None, name="custom.json"):
    raw = preset_raw("low-q")
    raw["drive"]["phase_rad"] = float(raw["drive"]["phase_rad"])
    if mutate is not None:
        mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_spectrum_success_and_schema(tmp_path):
    out = tmp_path / "spec.csv"
    rc = cli.main(["spectrum", "--points", "64", "--out", str(out)])
    assert rc == 0
    header, columns, rows = _read_table(out)
    assert header[0] == f"# fbar-dce {__version__} spectrum"
    assert any(line.startswith("# scenario: low-q") for line in header)
    assert any(line.startswith("# scenario-sha256: ") for line in header)
    assert any(line.startswith("# guard-band-rad-s: ") for line in header)
    assert any("normalization:" in line for line in header)
    assert columns == ["omega_over_omega_m", "n_total", "n_dce", "n_thermal", "n_mech_only", "flags"]
    assert len(rows) == 64
    assert all(row[-1] == "" for row in rows)


def test_spectrum_to_stdout(capsys):
    rc = cli.main(["spectrum", "--points", "16"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# fbar-dce {__version__} spectrum"
    assert sum(1 for l in lines if not l.startswith("#")) == 17  # columns + 16 rows


def test_byte_determinism_across_runs(tmp_path):
    paths = [tmp_path / f"run{i}.csv" for i in range(2)]
    assert cli.main(["spectrum", "--points", "200", "--out", str(paths[0])]) == 0
    assert cli.main(["spectrum", "--points", "200", "--out", str(paths[1])]) == 0
    assert paths[1].read_bytes() == paths[0].read_bytes()


def test_missing_field_exit_code_2(tmp_path, capsys):
    path = _write_scenario(tmp_path, lambda raw: raw["drive"].pop("v_pp_volts"))
    rc = cli.main(["spectrum", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "drive.v_pp_volts" in err


def test_unknown_scenario_exit_code_2(tmp_path, capsys):
    rc = cli.main(["spectrum", "--scenario", "no-such-preset", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["scenario-directory", "scenario-not-utf8", "out-missing-directory"])
def test_unusable_path_exit_code_2(tmp_path, capsys, case):
    scenario, out = "low-q", tmp_path / "x.csv"
    if case == "scenario-directory":
        scenario = str(tmp_path)
    elif case == "scenario-not-utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(preset_raw("low-q")).replace("low-q", "b\u00e9ta").encode("latin-1"))
        scenario = str(path)
    else:
        out = tmp_path / "missing" / "x.csv"
    rc = cli.main(["spectrum", "--points", "16", "--scenario", scenario, "--out", str(out)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_unprintable_scenario_name_exit_code_2(tmp_path, capsys):
    # a line break in the name would start an unprefixed CSV row inside the "#" header
    path = _write_scenario(tmp_path, lambda raw: raw.__setitem__("name", "evil\n1,2,3,4,5,6"))
    out = tmp_path / "x.csv"
    rc = cli.main(["spectrum", "--points", "16", "--scenario", str(path), "--out", str(out)])
    assert rc == 2
    assert "name must be a string of printable characters" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("points,read", [(20000, 100), (16, None)], ids=["closed-after-100-bytes", "closed-at-start"])
def test_closed_stdout_exit_code_2(points, read):
    # the reader closes the pipe before the table ends (read None: before the command starts): one
    # error line, and neither a traceback nor a failed flush at interpreter exit; stdout stays
    # block-buffered, as it is on a pipe by default
    env = _package_env()
    env.pop("PYTHONUNBUFFERED", None)
    r, w = os.pipe()
    reader = open(r, "rb")
    if read is None:
        reader.close()
    proc = subprocess.Popen(
        [sys.executable, "-m", "fbar_dce.cli", "spectrum", "--points", str(points)],
        stdout=w,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(w)
    if read is not None:
        assert len(reader.read(read)) == read
        reader.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("configuration error: cannot write -: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def _run_as_process(argv, code=None):
    """The finished `python -m fbar_dce.cli argv` (or `python -c code argv`), stdout a block-buffered pipe."""
    env = _package_env()
    env.pop("PYTHONUNBUFFERED", None)
    command = ["-m", "fbar_dce.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *command, *argv], capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("forked", [False, True], ids=["one-block", "forked"])
def test_process_stdout_bytes_equal_main(capsysbinary, forked):
    # the process entry leaves through os._exit once main returns: its flush still delivers every byte
    points = cli._FORK_BLOCKS * cli._BLOCK_ROWS if forked else 16
    argv = ["decompose", "--scenario", "high-q", "--points", str(points)]
    proc = _run_as_process(argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert cli.main(argv) == 0
    assert proc.stdout == capsysbinary.readouterr().out


@pytest.mark.parametrize("code", [2, 3])
def test_process_error_exit_keeps_its_stderr_line(tmp_path, capsys, code):
    scenario = "no-such-preset" if code == 2 else str(_write_scenario(tmp_path, _overflowing_frequency))
    argv = ["spectrum", "--scenario", scenario, "--points", "16"]
    proc = _run_as_process(argv)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (code, b"", err)


def test_process_with_stdout_closed_writes_its_out_file(tmp_path):
    # descriptor 1 is closed before Python starts, so sys.stdout is None: the entry flushes the streams it has
    out = tmp_path / "table.csv"
    argv = ["spectrum", "--points", "16", "--out", str(out)]
    closed = ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "fbar_dce.cli", *argv]
    proc = subprocess.run(closed, stderr=subprocess.PIPE, env=_package_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert cli.main(argv[:-1] + [str(tmp_path / "in-process.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "in-process.csv").read_bytes()


def test_process_entry_skips_atexit_handlers():
    # os._exit ends the process without the interpreter's teardown, atexit handlers included: a handler
    # registered before the module runs as __main__ writes nothing
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(sys.stderr.write, 'atexit handler ran\\n')\n"
        "runpy.run_module('fbar_dce.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = _run_as_process(["spectrum", "--points", "16"], code)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(f"# fbar-dce {__version__} spectrum\n".encode())


def test_negative_decomposition_exit_code_3(tmp_path, capsys):
    # Away from the quarter-period drive phase the mechanical/electrical
    # split is ill-defined and the spectrum reports a numerical failure.
    path = _write_scenario(tmp_path, lambda raw: raw["drive"].__setitem__("phase_rad", 0.0))
    rc = cli.main(["spectrum", "--scenario", str(path), "--points", "64", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("environment", "temperature_k", float("nan")),
        ("cavity", "length_d_m", float("inf")),
        ("mbvd", "r_0_ohm", float("nan")),
        ("environment", "temperature_k", 10**400),
        (None, "window_time_s", float("inf")),
    ],
)
def test_non_finite_scenario_number_exit_code_2(tmp_path, capsys, section, key, value):
    # json reads NaN, Infinity and integers beyond the float range; the loader refuses them
    def mutate(raw):
        (raw if section is None else raw[section])[key] = value

    path = _write_scenario(tmp_path, mutate)
    out = tmp_path / "x.csv"
    assert cli.main(["spectrum", "--scenario", str(path), "--out", str(out)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


def _overflowing_frequency(raw):
    raw["geometry"]["omega_m_hz"] = raw["drive"]["omega_d_hz"] = 1e160  # omega_m**2 overflows


def _vanishing_film_mass(raw):
    raw["material"]["density_kg_m3"] = 1e-300  # density * t_piezo underflows to an exact zero
    raw["geometry"]["t_piezo_m"] = 1e-160


@pytest.mark.parametrize("command", ["spectrum", "squeeze"])
@pytest.mark.parametrize("mutate", [_overflowing_frequency, _vanishing_film_mass])
def test_finite_scenario_number_breaking_float_arithmetic_exit_code_3(tmp_path, capsys, mutate, command):
    # Python floats raise OverflowError / ZeroDivisionError where numpy would warn
    path = _write_scenario(tmp_path, mutate)
    out = tmp_path / "x.csv"
    assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["squeeze", "--dim", str(10**7)], id="squeeze"),
        pytest.param(["spectrum", "--points", str(10**14)], id="spectrum"),
        # beyond what numpy can index at all: the size bounds reject these before any allocation
        pytest.param(["spectrum", "--points", str(10**20)], id="spectrum-points-1e20"),
        pytest.param(["spectrum", "--points", str(2**63 - 1)], id="spectrum-points-maxsize"),
        pytest.param(["squeeze", "--dim", str(2**32)], id="squeeze-dim-2**32"),
        pytest.param(["squeeze", "--samples", str(2**63 - 1)], id="squeeze-samples-maxsize"),
    ],
)
def test_size_too_large_to_allocate_exit_code_2(tmp_path, capsys, args):
    # each needs an array beyond the 128 TiB user address space, so allocation fails at once
    out = tmp_path / "x.csv"
    assert cli.main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not out.exists()


def test_flag_validation_exit_code_2(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert cli.main(["spectrum", "--points", "1", "--out", out]) == 2
    assert cli.main(["spectrum", "--window-time", "1e-9", "--out", out]) == 2
    assert cli.main(["squeeze", "--samples", "1", "--out", out]) == 2
    assert cli.main(["squeeze", "--t-max", "2.5", "--out", out]) == 2
    assert cli.main(["sweep", "--axis", "v_pp", "--values", "abc", "--out", out]) == 2
    assert cli.main(["sweep", "--axis", "v_pp", "--values=-1e-4", "--out", out]) == 2
    capsys.readouterr()


def _entries(function, call):
    """(result of call(), number of times function's code was entered meanwhile), counted with sys.setprofile."""
    code, count = function.__code__, [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            count[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, count[0]


@pytest.mark.parametrize(
    "flag, bad, good",
    [pytest.param("--points", 1, 100, id="points"), pytest.param("--window-time", 1e-9, 1e-6, id="window-time")],
)
def test_override_replaces_invalid_file_value(tmp_path, flag, bad, good):
    # the override is written into the file's mapping before its one validation, so it replaces a bad value
    def scenario(value, name):
        def mutate(raw):
            raw["grid"]["points"] = 64
            if flag == "--points":
                raw["grid"]["points"] = value
            else:
                raw["window_time_s"] = value

        return str(_write_scenario(tmp_path, mutate, name))

    rescued, expected = tmp_path / "rescued.csv", tmp_path / "expected.csv"
    assert cli.main(["spectrum", "--scenario", scenario(bad, "bad.json"), flag, str(good), "--out", str(rescued)]) == 0
    assert cli.main(["spectrum", "--scenario", scenario(good, "good.json"), "--out", str(expected)]) == 0
    assert rescued.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "content, flags, message",
    [
        pytest.param(None, ["--points", "1"], "field grid.points must be an integer in [2, ", id="points"),
        pytest.param(None, ["--window-time", "1e-9"], "window_time must exceed 100 modulation", id="window"),
        pytest.param(lambda raw: [1, 2], ["--points", "100"], "scenario root must be a JSON object", id="root-list"),
        pytest.param(lambda raw: {**raw, "grid": 5}, ["--points", "100"], "field grid must be an object", id="grid-5"),
        pytest.param(
            lambda raw: {k: v for k, v in raw.items() if k != "grid"},
            ["--points", "100", "--window-time", "1e-6"],
            "missing field: grid",
            id="no-grid",
        ),
    ],
)
def test_invalid_override_exit_code_2_with_one_validation(tmp_path, capsys, content, flags, message):
    # an invalid override fails with the message of the same value in the file, and the scenario is built once
    scenario = "low-q"
    if content is not None:
        scenario = tmp_path / "odd.json"
        scenario.write_text(json.dumps(content(preset_raw("low-q"))))
    out = tmp_path / "x.csv"
    argv = ["spectrum", "--scenario", str(scenario), *flags, "--out", str(out)]
    rc, builds = _entries(fbar_dce.scenario.scenario_from_raw, lambda: cli.main(argv))
    assert rc == 2 and builds == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_spectrum_checks_each_input_once(tmp_path):
    # one scenario build per command, and at most 7 frequency checks per output_spectrum call
    argv = ["spectrum", "--points", "64", "--out", str(tmp_path / "x.csv")]
    rc, builds = _entries(fbar_dce.scenario.scenario_from_raw, lambda: cli.main(argv))
    assert rc == 0 and builds == 1
    sc = load_scenario("low-q")
    args = (np.array([OMEGA_M / 2.0]), sc.cavity, source_config(sc), sc.line, sc.env)
    _, checks = _entries(fbar_dce.errors.positive_frequencies, lambda: flux.output_spectrum(*args))
    assert checks <= 7


def test_no_drive_spectrum_is_bose_curve(tmp_path):
    path = _write_scenario(tmp_path, lambda raw: raw["drive"].__setitem__("v_pp_volts", 0.0))
    out = tmp_path / "bose.csv"
    assert cli.main(["spectrum", "--scenario", str(path), "--points", "50", "--out", str(out)]) == 0
    _, columns, rows = _read_table(out)
    x = _column(columns, rows, "omega_over_omega_m")
    n_total = _column(columns, rows, "n_total")
    expected = thermal_occupation(x * OMEGA_M, ThermalEnv(0.01))
    assert np.allclose(n_total, expected, rtol=1e-9, atol=0.0)
    assert np.all(_column(columns, rows, "n_dce") == 0.0)


@pytest.mark.parametrize(
    "args",
    [["spectrum", "--points", "64"], ["decompose", "--points", "64"], ["sweep", "--axis", "q", "--values", "1,1000"]],
    ids=lambda args: args[0],
)
def test_negative_zero_temperature_gives_zero_temperature_table(tmp_path, args):
    # the tables differ only in the scenario hash, which covers the raw -0.0
    tables = []
    for temperature in (0.0, -0.0):
        path = _write_scenario(tmp_path, lambda raw: raw["environment"].__setitem__("temperature_k", temperature))
        out = tmp_path / "table.csv"
        assert cli.main(args + ["--scenario", str(path), "--out", str(out)]) == 0
        tables.append([line for line in out.read_text().splitlines() if not line.startswith("# scenario-sha256: ")])
    assert tables[0] == tables[1]


def test_full_spectrum_peaks_at_cavity_resonances(tmp_path):
    out = tmp_path / "full.csv"
    assert cli.main(["spectrum", "--out", str(out)]) == 0
    _, columns, rows = _read_table(out)
    assert len(rows) == 2000
    x = _column(columns, rows, "omega_over_omega_m")
    n_dce = _column(columns, rows, "n_dce")
    sc = load_scenario("low-q")
    roots = np.array(cavity_resonances(sc.cavity, (sc.grid.omega_min, sc.grid.omega_max)))
    roots_frac = roots / OMEGA_M
    cell = x[1] - x[0]
    # Brightest point sits on a cavity resonance...
    assert abs(x[np.argmax(n_dce)] - roots_frac[0]) < cell
    # ...and the peak nearest half the modulation frequency is the resonance there.
    window = np.where(np.abs(x - 0.5) < 0.05)[0]
    local = window[np.argmax(n_dce[window])]
    nearest = roots_frac[np.argmin(np.abs(roots_frac - 0.5))]
    assert abs(x[local] - nearest) < cell
    assert 1e-3 < n_dce[local] < 1e-1


def test_decompose_adds_electrical_column(tmp_path):
    out = tmp_path / "dec.csv"
    assert cli.main(["decompose", "--points", "32", "--out", str(out)]) == 0
    _, columns, rows = _read_table(out)
    # the shared columns are byte-for-byte those of the spectrum command
    spec = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--points", "32", "--out", str(spec)]) == 0
    _, spec_columns, spec_rows = _read_table(spec)
    assert spec_columns == columns[:5] + columns[6:]
    assert [r[:5] + r[6:] for r in rows] == spec_rows
    assert columns[:6] == [
        "omega_over_omega_m",
        "n_total",
        "n_dce",
        "n_thermal",
        "n_mech_only",
        "n_dce_electrical",
    ]
    n_dce = _column(columns, rows, "n_dce")
    n_mech = _column(columns, rows, "n_mech_only")
    n_elec = _column(columns, rows, "n_dce_electrical")
    assert np.array_equal(n_elec, n_dce - n_mech)
    assert np.all(n_elec > n_mech)  # drive-sourced term dominates here


def test_resonances_command(tmp_path):
    out = tmp_path / "res.csv"
    assert cli.main(["resonances", "--out", str(out)]) == 0
    _, columns, rows = _read_table(out)
    assert columns == [
        "index",
        "omega_rad_s",
        "omega_over_omega_m",
        "residual",
        "mode_peak_offset_rad_s",
        "flags",
    ]
    assert len(rows) == 3
    frac = _column(columns, rows, "omega_over_omega_m")
    assert frac == pytest.approx(
        [0.16651498311827823, 0.49955668165972156, 0.8326332634663097], rel=1e-9
    )
    assert np.all(np.abs(_column(columns, rows, "residual")) < 1e-9)
    roots = _column(columns, rows, "omega_rad_s")
    offsets = _column(columns, rows, "mode_peak_offset_rad_s")
    # The two resonance definitions (phase condition vs response maximum)
    # agree to well under a percent of the root.
    assert np.all(np.abs(offsets) < 0.005 * roots)
    assert all(row[-1] == "" for row in rows)


def test_resonances_exhausted_refinement_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cavity, "_MAX_REFINE_ITERATIONS", 1)
    assert cli.main(["resonances", "--out", str(tmp_path / "res.csv")]) == 3
    assert not (tmp_path / "res.csv").exists()


def test_resonances_flags_unconverged_peak_refinement(tmp_path, monkeypatch):
    monkeypatch.setattr(brent, "minimize_bounded", functools.partial(brent.minimize_bounded, maxfun=2))
    out = tmp_path / "res.csv"
    assert cli.main(["resonances", "--out", str(out)]) == 0
    _, _, rows = _read_table(out)
    assert len(rows) == 3
    assert all(row[-1] == "peak-refine-failed" for row in rows)


def test_sweep_delta_x_exponent(tmp_path):
    # With the voltage source silenced the vacuum flux is purely mechanical
    # and must scale as amplitude squared.
    path = _write_scenario(tmp_path, lambda raw: raw["drive"].__setitem__("v_pp_volts", 0.0))
    out = tmp_path / "dx.csv"
    base = 8.550966856419484e-13
    values = ",".join(f"{k * base:.17g}" for k in (1, 2, 4))
    rc = cli.main(
        ["sweep", "--scenario", str(path), "--axis", "delta_x", "--values", values, "--out", str(out)]
    )
    assert rc == 0
    _, columns, rows = _read_table(out)
    xs = _column(columns, rows, "value")
    ys = _column(columns, rows, "n_mech_only")
    exponent = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    assert exponent == pytest.approx(2.0, abs=1e-6)
    assert np.array_equal(ys, _column(columns, rows, "n_dce"))


def test_sweep_z0_four_orders_of_magnitude(tmp_path):
    out = tmp_path / "z0.csv"
    assert cli.main(["sweep", "--axis", "z0", "--values", "55,10000", "--out", str(out)]) == 0
    _, columns, rows = _read_table(out)
    mech = _column(columns, rows, "n_mech_only")
    assert 1e4 < mech[1] / mech[0] < 1e5


def test_sweep_pinned_v_pp_quadratic(tmp_path):
    out = tmp_path / "vpp.csv"
    rc = cli.main(
        ["sweep", "--axis", "v_pp", "--values", "5e-4,1e-3", "--pin-delta-c-zero", "--out", str(out)]
    )
    assert rc == 0
    _, columns, rows = _read_table(out)
    n_dce = _column(columns, rows, "n_dce")
    assert n_dce[1] / n_dce[0] == pytest.approx(4.0, rel=1e-9)
    assert np.all(_column(columns, rows, "n_mech_only") == 0.0)


def test_sweep_z0_beyond_float_range_is_flagged(tmp_path):
    # 1e-200 ohm is a valid line; at 1e200 ohm the occupations overflow, and
    # the row must be flagged rather than hold inf or nan unflagged, with no numpy
    # warning on the way (tier-1 turns any RuntimeWarning into a failure)
    out = tmp_path / "z0.csv"
    rc = cli.main(["sweep", "--axis", "z0", "--values", "1e-200,1e200", "--out", str(out)])
    assert rc == 0
    _, columns, rows = _read_table(out)
    assert _column(columns, rows, "flags", dtype=str) == ["", "NumericalError"]
    assert np.all(np.isfinite(_column(columns, rows, "n_total")[:1]))
    assert np.all(np.isnan(_column(columns, rows, "n_total")[1:]))


def test_sweep_overflowing_value_among_others_keeps_their_rows(tmp_path):
    # the three values are one batch, which overflows; evaluated again in halves, the
    # 1e200 ohm row is flagged and the others keep the bytes of their one-value sweeps
    out = tmp_path / "z0.csv"
    assert cli.main(["sweep", "--axis", "z0", "--values", "55,1e200,10000", "--out", str(out)]) == 0
    _, columns, rows = _read_table(out)
    assert _column(columns, rows, "flags", dtype=str) == ["", "NumericalError", ""]
    first, _, last = out.read_text().splitlines()[-3:]
    for value, row in (("55", first), ("10000", last)):
        single = tmp_path / f"{value}.csv"
        assert cli.main(["sweep", "--axis", "z0", "--values", value, "--out", str(single)]) == 0
        assert single.read_text().splitlines()[-1] == row


def test_sweep_flags_failing_value(tmp_path):
    # A quality factor so high the deflection leaves the expansion's
    # validity range: the row is kept, flagged, and holds no numbers.
    out = tmp_path / "q.csv"
    assert cli.main(["sweep", "--axis", "q", "--values", "300,1.5e9", "--out", str(out)]) == 0
    _, columns, rows = _read_table(out)
    flags = _column(columns, rows, "flags", dtype=str)
    assert flags == ["", "ValidityError"]
    assert np.isfinite(_column(columns, rows, "n_dce")[0])
    assert np.isnan(_column(columns, rows, "n_dce")[1])
    assert out.read_text().splitlines()[-1] == "q,1500000000,0.5,nan,nan,nan,nan,ValidityError"


def test_sweep_quality_below_one_is_a_configuration_row(tmp_path):
    # q < 1 breaks the quality row of scenario._BOUNDS, which the sweep checks for its lanes: the batch fails
    # while it is built, and in halves the 0.5 row carries ConfigError and no numbers while the 300 row keeps
    # the bytes of its one-value sweep
    out, single = tmp_path / "q.csv", tmp_path / "q300.csv"
    assert cli.main(["sweep", "--axis", "q", "--values", "0.5,300", "--out", str(out)]) == 0
    assert cli.main(["sweep", "--axis", "q", "--values", "300", "--out", str(single)]) == 0
    low, high = out.read_text().splitlines()[-2:]
    assert low == "q,0.5,0.5,nan,nan,nan,nan,ConfigError"
    assert high == single.read_text().splitlines()[-1]
    assert high.endswith(",") and "nan" not in high


def test_resonances_root_free_band_writes_header_only(tmp_path):
    # the low-q roots sit near 1/6, 1/2 and 5/6 of omega_m; this band holds none
    def mutate(raw):
        raw["grid"]["omega_min_hz"] = 1.0e9
        raw["grid"]["omega_max_hz"] = 1.5e9

    out = tmp_path / "none.csv"
    path = _write_scenario(tmp_path, mutate)
    assert cli.main(["resonances", "--scenario", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body == ["index,omega_rad_s,omega_over_omega_m,residual,mode_peak_offset_rad_s,flags"]


def _cell(value):
    # the per-cell rule the column writer must reproduce byte for byte
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _guard_grid(tmp_path, points):
    # a grid running up to the drive tone with a short window: the last rows
    # are guard-shifted or guard-band (NaN)
    def mutate(raw):
        raw["window_time_s"] = 2e-7
        raw["grid"].update(omega_max_hz=4.19e9, points=points)

    return _write_scenario(tmp_path, mutate)


def _cell_by_cell_text(path, command):
    sc = load_scenario(str(path))
    table = flux.output_spectrum(grid_array(sc), sc.cavity, source_config(sc), sc.line, sc.env)
    assert {"guard-band", "guard-shifted"} <= set(table.flags)
    columns = ["omega_over_omega_m", "n_total", "n_dce", "n_thermal", "n_mech_only"]
    if command == "decompose":
        columns.append("n_dce_electrical")
    lines = [f"# {line}" for line in cli._header(sc, command)] + [",".join(columns + ["flags"])]
    flags = table.flags
    for i in range(len(table.omega)):
        row = [
            table.omega[i] / sc.geometry.omega_m,
            table.n_total[i],
            table.n_dce[i],
            table.n_thermal[i],
            table.n_mech_only[i],
        ]
        if command == "decompose":
            row.append(table.n_dce[i] - table.n_mech_only[i])
        lines.append(",".join(_cell(v) for v in row + [flags[i]]))
    expected = "\n".join(lines) + "\n"
    assert ",nan," in expected
    return expected


@pytest.fixture(scope="module")
def cell_by_cell(tmp_path_factory):
    """(scenario path, expected bytes) of the guard grid per (command, points); each is built once per module."""

    @functools.cache
    def scenario(points):
        return _guard_grid(tmp_path_factory.mktemp(f"guard-{points}"), points)

    @functools.cache
    def table(command, points):
        path = scenario(points)
        return path, _cell_by_cell_text(path, command).encode()

    return table


@pytest.mark.parametrize(
    "points,block_rows,numpy_rows",
    [(200, 1, None), (200, 7, None), (20_000, None, None), (200, None, None), (20_000, 2003, 1)],
    ids=["1", "7", "default", "200-rows", "numpy-2003"],
)
@pytest.mark.parametrize("command", ["spectrum", "decompose"])
def test_block_boundaries_keep_cell_by_cell_bytes(
    tmp_path, monkeypatch, cell_by_cell, command, points, block_rows, numpy_rows
):
    # each block is evaluated on its own (one output_spectrum call, with the whole grid's guard
    # shift step) and formatted, so 1- and 7-row blocks run on 200 rows. 20 000 rows span five
    # default blocks, all five, the guard rows of the last one too, formatted in numpy; 200 rows
    # are one block, formatted with %. numpy-2003 formats the 20 000 rows in ten blocks in numpy
    path, expected = cell_by_cell(command, points)
    if block_rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    if numpy_rows is not None:
        monkeypatch.setattr(cli, "_NUMPY_ROWS", numpy_rows)
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == expected


def test_short_last_block_of_a_large_table_is_formatted_in_numpy(tmp_path, monkeypatch, cell_by_cell):
    # the formatter is chosen per table: the last 3616 rows of 20 000, fewer than _NUMPY_ROWS and
    # holding the NaN guard rows, go through numpy as the first four blocks do, in the same buffers
    monkeypatch.delattr(os, "fork")  # every block runs in this process, where the calls are seen
    path, expected = cell_by_cell("spectrum", 20_000)
    rows, formatter = [], floattext.BlockFormatter.__call__

    def recording(self, block):
        rows.append((id(self), len(block[0])))
        return formatter(self, block)

    monkeypatch.setattr(floattext.BlockFormatter, "__call__", recording)
    out = tmp_path / "spectrum.csv"
    assert cli.main(["spectrum", "--scenario", str(path), "--out", str(out)]) == 0
    assert [n for _, n in rows] == [4096] * 4 + [3616]
    assert len({formatter_id for formatter_id, _ in rows}) == 1
    assert out.read_bytes() == expected


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--points", "64"],
        ["decompose", "--points", "64"],
        ["resonances"],
        ["sweep", "--axis", "delta_x", "--values", "1e-12,2e-12,5e-12,1e-11,2e-11,5e-11,1e-10,1"],
        ["squeeze", "--dim", "16", "--samples", "9"],
    ],
    ids=lambda args: args[0],
)
def test_stdout_bytes_equal_file_bytes(tmp_path, capsys, monkeypatch, args):
    # 7-row blocks, so every table but the shortest is written in several pieces
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    out = tmp_path / "table.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(args + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("block_rows", [None, 4], ids=["one-block", "forked"])
def test_non_ascii_scenario_name_is_written_as_utf8(tmp_path, capsysbinary, monkeypatch, block_rows):
    # the writer encodes the header itself: the same UTF-8 bytes to a file and to stdout, in one block or
    # in four blocks split between this process and a forked child
    name = "Ωmega cavité ☃"
    path = _write_scenario(tmp_path, lambda raw: raw.__setitem__("name", name))
    if block_rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    argv = ["spectrum", "--scenario", str(path), "--points", "16"]
    out = tmp_path / "table.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert cli.main(argv + ["--out", "-"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    assert f"\n# scenario: {name}\n".encode() in out.read_bytes()
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4096)
    one_block = tmp_path / "one-block.csv"
    assert cli.main(argv + ["--out", str(one_block)]) == 0
    assert out.read_bytes() == one_block.read_bytes()


@pytest.fixture
def forks(monkeypatch):
    # the pid of each child this test forks
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    # waitpid raises once a child has been reaped: no zombie and no running child is left
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _float_edges():
    """Floats at the edges of the '%.17g' layout and rounding, both signs, with the double nearest each power of ten."""
    edges = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]
    for k in range(-323, 309):
        ten = float(f"1e{k}")  # the double nearest 10**k: the one nearest 1e-14 lies below it and prints as 1e-14
        edges += [math.nextafter(ten, 0.0), ten, math.nextafter(ten, math.inf)]
    edges += [9.999999999999998e16, 1493716411664495 / 8]  # 99999999999999984; an exact tie, 186714551458061.88
    # either side of the switches between fixed and exponent notation, at -5/-4 and 16/17
    edges += [1.2345678901234567e-5, 1.2345678901234567e-4, 1.2345678901234567e16, 1.2345678901234567e17]
    return edges + [-x for x in edges]


_FLOAT_EDGES = _float_edges()


def _mixed_cells(rows):
    # a float, a bool, an int, a text column (the flags, passed as a tuple of str) and the float edges, cycled
    rng = np.random.default_rng(rows)
    floats = rng.standard_normal(rows)
    floats[::5] = np.nan
    flags = tuple(np.where(rng.random(rows) < 0.3, "guard-band", "").tolist())
    return [floats, floats > 0, np.arange(rows) * 7 - 3, flags, np.resize(_FLOAT_EDGES, rows)]


@pytest.mark.parametrize(
    "rows,forked",
    [(0, 0), (4, 0), (8, 0), (9, 1), (20, 1), (len(_FLOAT_EDGES), 1)],
    ids=["0", "1-block", "2-blocks", "3-blocks", "5-blocks", "all-edges"],
)
@pytest.mark.parametrize("target", ["file", "stdout"])
def test_fork_path_keeps_cell_by_cell_bytes(tmp_path, capsys, monkeypatch, forks, rows, forked, target):
    # 4-row blocks: a table of three or more blocks is split between this process and one forked child.
    # The table is written twice: every block through the numpy formatter, then every block through %
    # (the formatter is chosen per table, by its row count)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    cells = _mixed_cells(rows)
    columns = ["x", "positive", "index", "flags", "edge"]
    expected = "# fork path\n" + ",".join(columns) + "\n"
    expected += "".join(",".join(_cell(column[i]) for column in cells) + "\n" for i in range(rows))
    out = tmp_path / "table.csv"
    for numpy_rows in (1, rows + 1):
        monkeypatch.setattr(cli, "_NUMPY_ROWS", numpy_rows)
        capsys.readouterr()
        cli._write_table("-" if target == "stdout" else str(out), ["fork path"], columns, cli._precomputed(cells))
        text = capsys.readouterr().out if target == "stdout" else out.read_bytes().decode()
        assert text == expected, numpy_rows
    assert len(forks) == 2 * forked
    _assert_reaped(forks)


def _refuse_fork():
    raise AssertionError("a table below three blocks forked")


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum"],
        ["decompose"],
        ["resonances"],
        ["sweep", "--axis", "z0", "--values", ",".join(str(55 + i) for i in range(300))],
        ["squeeze"],
    ],
    ids=lambda args: args[0],
)
def test_tables_below_two_blocks_never_fork(tmp_path, monkeypatch, args):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert cli.main(args + ["--out", str(tmp_path / "table.csv")]) == 0


@pytest.mark.parametrize("target", ["file", "stdout"])
def test_failing_child_formatter_exit_code_2(tmp_path, capsys, monkeypatch, forks, target):
    # the child's blocks raise; the parent's are written: one error line, exit 2, and no child left.
    # An existing --out file keeps its bytes, and no temporary file is left next to it
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 8)
    parent, percent_text = os.getpid(), cli._percent_text

    def child_fails(block):
        if os.getpid() != parent:
            raise RuntimeError("formatter failed")
        return percent_text(block)

    monkeypatch.setattr(cli, "_percent_text", child_fails)
    table = tmp_path / "table.csv"
    table.write_bytes(b"old table\n")
    out = "-" if target == "stdout" else str(table)
    assert cli.main(["spectrum", "--points", "64", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {out}: the forked row formatter exited with code 1")
    assert err.count("\n") == 1
    assert len(forks) == 1
    _assert_reaped(forks)
    assert table.read_bytes() == b"old table\n"
    assert os.listdir(tmp_path) == ["table.csv"]


@pytest.mark.parametrize("half", ["child", "parent"])
@pytest.mark.parametrize("target", ["file", "stdout"])
def test_numerical_failure_in_one_half_exit_code_3(tmp_path, capsys, monkeypatch, forks, half, target):
    # the occupations of one process's blocks overflow to inf: one error line counting the rows of
    # the failing 8-row block, exit 3, and no child left. An existing --out file keeps its bytes, and
    # no temporary file is left next to it; on stdout the rows already written stay written
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 8)
    parent, occupation = os.getpid(), flux.thermal_occupation

    def overflows_in_one_half(omega, env):
        return occupation(omega, env) + (np.inf if (os.getpid() == parent) == (half == "parent") else 0.0)

    monkeypatch.setattr(flux, "thermal_occupation", overflows_in_one_half)
    table = tmp_path / "table.csv"
    table.write_bytes(b"old table\n")
    out = "-" if target == "stdout" else str(table)
    assert cli.main(["spectrum", "--points", "64", "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: non-finite occupation at 8 rows\n"
    assert len(forks) == 1
    _assert_reaped(forks)
    assert table.read_bytes() == b"old table\n"
    assert os.listdir(tmp_path) == ["table.csv"]
    if target == "stdout":  # the header and column lines, then the parent's 32 rows if only the child failed
        header = len(cli._header(load_scenario("low-q"), "spectrum")) + 1
        assert len(captured.out.splitlines()) == header + (32 if half == "child" else 0)


def test_out_replaces_a_file_and_keeps_its_mode(tmp_path):
    out = tmp_path / "table.csv"
    out.write_text("old table\n")
    out.chmod(0o640)
    assert cli.main(["spectrum", "--points", "16", "--out", str(out)]) == 0
    assert out.read_text().startswith(f"# fbar-dce {__version__} spectrum\n")
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert os.listdir(tmp_path) == ["table.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_fifo_is_written_in_place(tmp_path, capsys):
    # a FIFO is not replaced by a regular file: the reader gets the table through it
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["spectrum", "--points", "16", "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert cli.main(["spectrum", "--points", "16"]) == 0
    assert received == [capsys.readouterr().out.encode()]


def test_closed_stdout_during_fork_path_leaves_no_child(tmp_path):
    # the reader closes the pipe while the parent writes its half of 20 000 rows (5 blocks): the
    # parent kills and reaps the child, and the command exits 2 with one error line
    code = (
        "import os, sys\nfrom fbar_dce import cli\nrc = cli.main(sys.argv[2:])\n"
        "try:\n    os.waitpid(-1, os.WNOHANG)\n    left = 'child-left'\n"
        "except ChildProcessError:\n    left = 'none'\n"
        "with open(sys.argv[1], 'w') as fh:\n    fh.write(f'{rc} {left}')\n"
    )
    result = tmp_path / "result.txt"
    r, w = os.pipe()
    reader = open(r, "rb")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(result), "spectrum", "--points", "20000"],
        stdout=w,
        stderr=subprocess.PIPE,
        env=_package_env(),
    )
    os.close(w)
    assert len(reader.read(100)) == 100
    reader.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert result.read_text() == "2 none"
    assert err.startswith("configuration error: cannot write -: ")
    assert err.count("\n") == 1


def _writer_peak_bytes(path, rows):
    # six float columns and a flags column passed as a tuple of str, as output_spectrum returns it
    rng = np.random.default_rng(0)
    flags = tuple(np.where(rng.random(rows) < 0.02, "guard-band", "").tolist())
    cells = [rng.standard_normal(rows) for _ in range(6)] + [flags]
    tracemalloc.start()
    try:
        cli._write_table(str(path), ["writer memory"], [f"c{i}" for i in range(7)], cli._precomputed(cells))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_writer_memory(tmp_path, monkeypatch):
    assert cli._BLOCK_ROWS <= 8192  # the production block stays bounded; the check below runs at 1024 rows
    # 4 and 32 blocks, through the numpy formatter as large blocks are: a writer that held the whole
    # table would grow ~8x
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 1024)
    monkeypatch.setattr(cli, "_NUMPY_ROWS", 1024)
    small = _writer_peak_bytes(tmp_path / "small.csv", 4_096)
    large = _writer_peak_bytes(tmp_path / "large.csv", 32_768)
    assert large < 1.5 * small, (small, large)


def test_writer_memory_does_not_grow_with_rows(tmp_path, monkeypatch, forks):
    # tracemalloc sees this process: the first half of the blocks and the copy of the child's half
    _check_writer_memory(tmp_path, monkeypatch)
    assert len(forks) == 2
    _assert_reaped(forks)


def test_writer_memory_does_not_grow_with_rows_serial(tmp_path, monkeypatch):
    # without os.fork every block runs here, through the formatter the child uses
    monkeypatch.delattr(os, "fork")
    _check_writer_memory(tmp_path, monkeypatch)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-(10**17), max_value=10**17).map(float)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072009e-308, 1e16]),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
)
def test_percent_template_matches_cell_rule(x, b, i):
    # the rule the row template relies on: % formatting gives the cell text of format() and str()
    assert "%.17g" % x == "{:.17g}".format(x)
    assert "%d" % b == ("1" if b else "0")
    assert "%d" % i == str(i)


def _numpy_cells(values):
    # the numpy formatter's text of one float column, a cell per line
    return bytes(floattext.BlockFormatter()([np.asarray(values, dtype=float)])).decode().splitlines()


def test_numpy_formatter_matches_percent_on_the_float_edges():
    assert _numpy_cells(_FLOAT_EDGES) == ["%.17g" % x for x in _FLOAT_EDGES]


def test_numpy_formatter_writes_a_block_of_fallback_cells():
    # no cell of the block is proven, so Python writes every float cell over the whole word layout
    values = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0] * 3
    assert _numpy_cells(values) == ["%.17g" % x for x in values]


@pytest.mark.parametrize("value", [1.0, -2.5e-300, 0.00012181719550879144, math.nan, 12345678901234567.0])
def test_numpy_formatter_writes_a_one_row_block(value):
    cells = [np.array([value]), np.array([True]), np.array([-7]), ("guard-band",), np.array([-value])]
    block = cli._precomputed(cells)[1](0, 1)
    assert bytes(floattext.BlockFormatter()(block)).decode() == ",".join(_cell(column[0]) for column in cells) + "\n"


def _significant(text):
    # the significant digits of a '%.17g' text: integer zeros before the point count only after a nonzero digit
    return len(text.split("e")[0].lstrip("-").replace(".", "").strip("0"))


def _decade_sweep():
    """Doubles whose '%.17g' text has k significant digits, for k in 1..17 at every decade from 1e-7 to 1e21, both
    signs, where the decade has one: the double nearest a k-digit decimal prints as it about half the time."""
    rng = np.random.default_rng(29)
    values = []
    for e10 in range(-7, 22):
        for k in range(1, 18):
            for m in range(1, 10) if k == 1 else rng.integers(10 ** (k - 1), 10**k, 60).tolist():
                x = float(f"{m}e{e10 - k + 1}")
                if m % 10 and _significant("%.17g" % x) == k:
                    values += [x, -x]
                    break
    return values


def test_numpy_formatter_matches_percent_at_every_decade_and_length():
    # exponent notation below 1e-4, fixed up to 1e17 (the point after digit E + 1, integer zeros kept), exponent
    # notation again above: every notation at every count of significant digits, and both signs
    values = _decade_sweep()
    expected = ["%.17g" % x for x in values]
    widths = {("e" in text, text.startswith("-"), _significant(text)) for text in expected}
    assert widths == {(form, sign, k) for form in (False, True) for sign in (False, True) for k in range(1, 18)}
    assert _numpy_cells(values) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
def test_numpy_formatter_matches_percent_cell_by_cell(patterns):
    # any 64-bit pattern viewed as a float64: every sign, exponent and mantissa, NaN and subnormals included
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _numpy_cells(values) == ["%.17g" % x for x in values.tolist()]


# doubles whose 17-digit scaled value lies within 3e-16 of a rounding tie, found from the continued
# fractions of 2**q * 10**-k. The numpy product lands strictly inside the tie for each of them, so
# only the tie margin sends them to Python
_NEAR_TIES = [
    6.856808288635525e-232,
    1.8113313319219899e-187,
    1.9451448413689272e-170,
    1.9845342810076013e-114,
    5.050313365378181e88,
    1.1272308135612832e125,
    5.958728784444478e240,
    6.875456289743629e240,
    2.8255267384097457e258,
    2.6862920230333168e280,
]


def test_cells_near_a_rounding_tie_are_written_by_python():
    # proven digits must not rest on a product known only to ~1e-14: a cell this close to a tie is
    # left to '%.17g' %, and so is the exact tie
    ties = _NEAR_TIES + [1493716411664495 / 8]
    for x in ties:
        decade = int(f"{x:e}".split("e")[1])
        scaled = Fraction(x) * Fraction(10) ** (16 - decade)
        assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(3, 10**16), x
    proven = floattext._digits(np.array(ties))[2]
    assert not proven.any()
    assert _numpy_cells(ties) == ["%.17g" % x for x in ties]


def _package_env():
    # the environment of a fresh interpreter that imports this checkout's package
    package_root = str(Path(fbar_dce.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))


_FRESH_CODE = """\
import hashlib, json, os, sys
from fbar_dce import cli
forks, fork = [], os.fork
def recording_fork():  # whether the numpy formatter is loaded when a fork is made
    forks.append("fbar_dce.floattext" in sys.modules)
    return fork()
os.fork = recording_fork
runs = {}
for name, argv in json.loads(sys.argv[2]).items():
    out = os.path.join(sys.argv[1], name + ".csv")
    forks.clear()
    rc = cli.main(argv + ["--out", out])
    digest = hashlib.sha256(open(out, "rb").read()).hexdigest() if os.path.exists(out) else None
    runs[name] = {
        "rc": rc,
        "sha256": digest,
        "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules),
        "numpy_ma": "numpy.ma" in sys.modules,
        "dataclasses": "dataclasses" in sys.modules,
        "floattext": "fbar_dce.floattext" in sys.modules,
        "floattext_at_fork": list(forks),
        "modules": sorted(m for m in sys.modules if m.startswith("fbar_dce.")),
    }
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"runs": runs, "threads": threads, "setting": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _run_fresh(out_dir, argvs, blas_threads=None):
    """Run each named argv through cli.main, in order, in one fresh interpreter, whose modules and threads are its own.

    The interpreter sees OPENBLAS_NUM_THREADS=blas_threads, or no such variable for None. Its report:
    "runs" maps each name to the exit code, the sha256 of the table, whether a scipy module, numpy.ma,
    dataclasses and the numpy float formatter are loaded afterwards, whether the formatter was loaded at each fork
    the command made, and the fbar_dce modules loaded by then;
    "threads" is the OS thread count at its end (None where /proc/self/task is missing) and "setting"
    the OPENBLAS_NUM_THREADS it saw.
    """
    env = _package_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CODE, str(out_dir), json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


_SCIPY_CHECKS = {
    "spectrum": ["spectrum", "--points", "64"],
    "decompose": ["decompose", "--points", "64"],
    "sweep": ["sweep", "--axis", "z0", "--values", "55,10000"],
    "squeeze": ["squeeze", "--dim", "16", "--samples", "3"],
    "resonances": ["resonances"],
}
# the squeeze matvec is the one BLAS call; it is split across threads at dim 240 unless told not to be
_SQUEEZES = {f"squeeze-{dim}": ["squeeze", "--dim", str(dim), "--t-max", "2"] for dim in (60, 61, 240, 241)}
# the one table with blocks large enough for the numpy formatter; it runs last, since a module stays loaded
_LARGE_TABLE = {"decompose-20000": ["decompose", "--points", "20000"]}


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    # OPENBLAS_NUM_THREADS unset: the SciPy checks, the squeezes, then a large table
    return _run_fresh(tmp_path_factory.mktemp("default"), {**_SCIPY_CHECKS, **_SQUEEZES, **_LARGE_TABLE})


@pytest.fixture(scope="module")
def two_thread_run(tmp_path_factory):
    return _run_fresh(tmp_path_factory.mktemp("two-threads"), _SQUEEZES, blas_threads="2")


@pytest.mark.parametrize("command", _SCIPY_CHECKS)
def test_no_command_loads_scipy(default_run, command):
    # a module stays loaded, so no command before this one loaded SciPy either
    run = default_run["runs"][command]
    assert (run["rc"], run["scipy"]) == (0, False)


def test_no_command_loads_numpy_ma(default_run, two_thread_run):
    # numpy.ma costs 13-15 ms to import and no command needs it (a first np.unique call would load it); the
    # configuration types are NamedTuples, so dataclasses is not imported either (numpy does not import it)
    runs = [*default_run["runs"].items(), *two_thread_run["runs"].items()]
    loaded = {module: [name for name, run in runs if run[module]] for module in ("numpy_ma", "dataclasses")}
    assert loaded == {"numpy_ma": [], "dataclasses": []}


def test_only_the_commands_that_run_them_load_squeeze_and_brent(default_run):
    # spectrum, decompose and sweep run first, and a module stays loaded: none of them loads either module
    runs = default_run["runs"]
    loaded = {name: {"fbar_dce.squeeze", "fbar_dce.brent"} & set(runs[name]["modules"]) for name in _SCIPY_CHECKS}
    assert list(_SCIPY_CHECKS)[:3] == ["spectrum", "decompose", "sweep"]
    assert loaded["spectrum"] == loaded["decompose"] == loaded["sweep"] == set()
    assert "fbar_dce.squeeze" in loaded["squeeze"] and "fbar_dce.brent" in loaded["resonances"]


def test_only_large_blocks_load_the_numpy_formatter(default_run, two_thread_run):
    runs = [*default_run["runs"].items(), *two_thread_run["runs"].items()]
    assert [name for name, run in runs if run["floattext"]] == list(_LARGE_TABLE)
    assert default_run["runs"]["decompose-20000"]["rc"] == 0


def test_the_numpy_formatter_is_imported_before_the_fork(default_run):
    # the forked child inherits the module: it neither compiles it nor builds its tables again
    forks = {name: run["floattext_at_fork"] for name, run in default_run["runs"].items() if run["floattext_at_fork"]}
    assert forks == {"decompose-20000": [True]}


_FAULT_CODE = """\
import json, os, resource, sys
from fbar_dce import cli, flux
del os.fork  # every block runs in this process, where its faults are counted
marks, evaluate = [], flux.output_spectrum
def counted(*args):  # the minor page faults so far, at the start of each block
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return evaluate(*args)
flux.output_spectrum = counted
rc = cli.main(["decompose", "--scenario", "high-q", "--points", str(20 * cli._BLOCK_ROWS)])
marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(json.dumps({"rc": rc, "faults": [b - a for a, b in zip(marks, marks[1:])]}), file=sys.stderr)
"""
# minor page faults of each block after the first: 26 in the second and 0 after it on a 2-vCPU x86-64 VM (glibc
# 2.36, numpy 2.4.6), where the heap layout was seen to move the second or third block up to ~190. ~1050 a block
# when each block allocated its buffers afresh and its text went through str; a word matrix allocated afresh for
# each block alone takes ~440 and ~300 in the second and third, until glibc raises its mmap threshold to its size.
# The counts turn on glibc's heap layout, so a new glibc or numpy needs the bound measured again; a failure reports both
_BLOCK_FAULTS = 250


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the bound is measured on glibc's allocator")
def test_blocks_after_the_first_take_few_page_faults():
    # a 20-block table in one fresh process: the blocks after the first reuse the memory of the first, where
    # buffers mapped afresh for every block, or freed and given back to the system, are paid for in page faults.
    # The table goes to stdout, so no path of this run moves the process's heap layout
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_CODE],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=_package_env(),
        check=True,
    )
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["rc"] == 0 and len(report["faults"]) == 20
    versions = f"glibc {platform.libc_ver()[1]}, numpy {np.__version__}"
    assert max(report["faults"][1:]) <= _BLOCK_FAULTS, (report["faults"], versions)


def test_command_runs_one_blas_thread_by_default(default_run):
    assert default_run["setting"] == "1"
    if default_run["threads"] is None:
        pytest.skip("counts threads in /proc/self/task")
    assert default_run["threads"] == 1


def test_user_blas_thread_setting_is_kept(two_thread_run):
    assert two_thread_run["setting"] == "2"


@pytest.mark.parametrize("dim", [60, 61, 240, 241])
def test_blas_thread_count_keeps_squeeze_bytes(default_run, two_thread_run, dim):
    # one thread is the default only because the thread count moves no bit of the table
    one, two = default_run["runs"][f"squeeze-{dim}"], two_thread_run["runs"][f"squeeze-{dim}"]
    assert one["rc"] == two["rc"] == 0
    assert one["sha256"] == two["sha256"]


# functions in src/ that no command runs, with the reason each stays there
_UNREACHED_IN_SRC = {
    # perfbench's tracer wraps it by name (test_perfbench_contract::test_every_traced_name_resolves)
    "cavity.reflection_coefficient",
    # perfbench's tracer reads SpectrumTable.flags by name to count the guard rows; commands take flag_codes
    "flux.flags",
    # the process entry, which ends the process: it runs only as `python -m fbar_dce.cli` or `fbar-dce`, and
    # test_process_entry_skips_atexit_handlers runs it in a subprocess
    "cli.entry",
}


def _entered_code(argvs, out_dir):
    """(file, first line) of every Python code object entered while cli.main runs each argv."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    for i, argv in enumerate(argvs):
        sys.setprofile(profile)
        try:
            rc = cli.main(argv + ["--out", str(out_dir / f"{i}.csv")])
        finally:
            sys.setprofile(previous)
        assert rc == 0, argv
    return {(os.path.realpath(path), line) for path, line in entered}


# one small run of every command, and a spectrum long enough for the numpy formatter
_EVERY_COMMAND = [
    ["spectrum", "--points", "64"],
    ["decompose", "--points", "64"],
    ["resonances"],
    ["sweep", "--axis", "z0", "--values", "55,10000,1e200"],
    ["squeeze", "--dim", "16", "--samples", "3"],
    ["spectrum", "--points", str(cli._NUMPY_ROWS)],
]


def test_every_src_function_runs_in_some_command(tmp_path):
    # src/ holds what a command runs; the paper checks that only tests call live in tests/paper_checks.py
    entered = _entered_code(_EVERY_COMMAND, tmp_path)
    unreached, reached = [], set()
    for path in sorted(Path(fbar_dce.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Lambda):
                name, line = "<lambda>", node.lineno
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                name, line = node.name, min([node.lineno] + [d.lineno for d in node.decorator_list])
            else:
                continue
            qualified = f"{path.stem}.{name}"
            if (os.path.realpath(path), line) in entered:
                reached.add(qualified)
            elif qualified not in _UNREACHED_IN_SRC:
                unreached.append(f"{qualified} (line {line})")
    assert unreached == []
    assert not reached & _UNREACHED_IN_SRC  # an allowed entry that a command now runs is stale


# the class each scenario section fills; the mbvd section fills Scenario itself
_SCHEMA_CLASSES = {
    "material": MaterialProps,
    "geometry": FbarGeometry,
    "drive": DriveParams,
    "mbvd": Scenario,
    "cavity": CavityParams,
    "line": LineParams,
    "environment": ThermalEnv,
    "grid": GridSpec,
}


def test_every_schema_field_is_read_by_some_command(tmp_path, monkeypatch):
    # a scenario number that no command reads is left unmapped in the schema, like cavity.z0_ohm. The types check
    # nothing and _replace copies a field without looking it up, so every field lookup is a use
    assert set(_SCHEMA_CLASSES) == set(_NUMBER_SCHEMA)
    read = set()

    def tracking(cls):
        original = cls.__getattribute__

        def __getattribute__(self, name):
            if name in cls._fields:
                read.add((cls.__name__, name))
            return original(self, name)

        return __getattribute__

    for cls in set(_SCHEMA_CLASSES.values()):
        monkeypatch.setattr(cls, "__getattribute__", tracking(cls))
    for i, argv in enumerate(_EVERY_COMMAND):
        assert cli.main(argv + ["--out", str(tmp_path / f"{i}.csv")]) == 0, argv
    mapped = {
        (_SCHEMA_CLASSES[section].__name__, field)
        for section, keys in _NUMBER_SCHEMA.items()
        for field in keys.values()
        if field is not None
    }
    assert sorted(mapped - read) == []


def test_squeeze_command_matches_closed_form(tmp_path):
    out = tmp_path / "sq.csv"
    assert cli.main(["squeeze", "--out", str(out)]) == 0
    header, columns, rows = _read_table(out)
    assert columns == [
        "time_s",
        "two_lambda_t",
        "n_analytic",
        "n_numeric",
        "norm_defect",
        "odd_population",
        "truncation_flag",
    ]
    assert len(rows) == 21
    assert rows[0] == ["0"] * 7  # t = 0 is evaluated like every other sample: vacuum
    assert any(line.startswith("# squeeze-rate-rad-s: ") for line in header)
    assert any(line.startswith("# truncation-dim: 60") for line in header)
    analytic = _column(columns, rows, "n_analytic")
    numeric = _column(columns, rows, "n_numeric")
    assert np.max(np.abs(analytic - numeric)) < 1e-6
    assert np.all(np.abs(_column(columns, rows, "odd_population")) < 1e-14)
    assert _column(columns, rows, "two_lambda_t")[-1] == pytest.approx(1.0, rel=1e-12)


def test_squeeze_zero_coupling_all_zero(tmp_path):
    path = _write_scenario(tmp_path, lambda raw: raw["drive"].__setitem__("v_pp_volts", 0.0))
    out = tmp_path / "sq0.csv"
    assert cli.main(["squeeze", "--scenario", str(path), "--out", str(out)]) == 0
    _, columns, rows = _read_table(out)
    assert np.all(_column(columns, rows, "n_analytic") == 0.0)
    assert np.all(_column(columns, rows, "n_numeric") == 0.0)
    assert np.all(_column(columns, rows, "two_lambda_t") == 0.0)


def test_window_time_override_changes_guard_band(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["spectrum", "--points", "16", "--out", str(a)]) == 0
    assert cli.main(["spectrum", "--points", "16", "--window-time", "2e-6", "--out", str(b)]) == 0
    header_a, _, _ = _read_table(a)
    header_b, _, _ = _read_table(b)
    ga = [l for l in header_a if l.startswith("# guard-band-rad-s")][0]
    gb = [l for l in header_b if l.startswith("# guard-band-rad-s")][0]
    assert ga != gb
    assert float(ga.split(": ")[1]) == pytest.approx(2.0 * float(gb.split(": ")[1]), rel=1e-12)
