"""Command-line interface: exit codes, CSV schema, determinism, physics columns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbar_dce
from fbar_dce import __version__, cli, flux
from fbar_dce.cavity import cavity_resonances
from fbar_dce.constants import TWO_PI
from fbar_dce.flux import ThermalEnv, thermal_occupation
from fbar_dce.scenario import grid_array, load_scenario, preset_raw, source_config

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


def test_byte_determinism_across_runs_and_threads(tmp_path):
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


def test_flag_validation_exit_code_2(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert cli.main(["spectrum", "--points", "1", "--out", out]) == 2
    assert cli.main(["spectrum", "--window-time", "1e-9", "--out", out]) == 2
    assert cli.main(["squeeze", "--samples", "1", "--out", out]) == 2
    assert cli.main(["squeeze", "--t-max", "2.5", "--out", out]) == 2
    assert cli.main(["sweep", "--axis", "v_pp", "--values", "abc", "--out", out]) == 2
    assert cli.main(["sweep", "--axis", "v_pp", "--values=-1e-4", "--out", out]) == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("command", ["spectrum", "decompose"])
def test_spectrum_bytes_match_cell_by_cell_rule(tmp_path, command):
    # a grid running up to the drive tone with a short window: the last rows
    # are guard-shifted or guard-band (NaN)
    def mutate(raw):
        raw["window_time_s"] = 2e-7
        raw["grid"].update(omega_max_hz=4.19e9, points=200)

    path = _write_scenario(tmp_path, mutate)
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == 0

    sc = load_scenario(str(path))
    table = flux.output_spectrum(grid_array(sc), sc.cavity, source_config(sc), sc.line, sc.env)
    assert {"guard-band", "guard-shifted"} <= set(table.flags)
    columns = ["omega_over_omega_m", "n_total", "n_dce", "n_thermal", "n_mech_only"]
    if command == "decompose":
        columns.append("n_dce_electrical")
    lines = [f"# {line}" for line in cli._header(sc, command)] + [",".join(columns + ["flags"])]
    for i in range(len(table)):
        row = [
            table.omega[i] / sc.geometry.omega_m,
            table.n_total[i],
            table.n_dce[i],
            table.n_thermal[i],
            table.n_mech_only[i],
        ]
        if command == "decompose":
            row.append(table.n_dce[i] - table.n_mech_only[i])
        lines.append(",".join(_cell(v) for v in row + [table.flags[i]]))
    expected = "\n".join(lines) + "\n"
    assert ",nan," in expected
    assert out.read_bytes() == expected.encode()


def _run_fresh(args):
    # a fresh interpreter, so sys.modules holds only what this one command imported
    code = (
        "import sys\nfrom fbar_dce import cli\nrc = cli.main(sys.argv[1:])\n"
        "print(rc, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    package_root = str(Path(fbar_dce.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )
    rc, scipy_loaded = proc.stdout.split()
    return int(rc), scipy_loaded == "True"


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--points", "64"],
        ["decompose", "--points", "64"],
        ["sweep", "--axis", "z0", "--values", "55,10000"],
        ["squeeze", "--dim", "16", "--samples", "3"],
    ],
    ids=lambda args: args[0],
)
def test_commands_without_root_search_leave_scipy_unloaded(tmp_path, args):
    assert _run_fresh(args + ["--out", str(tmp_path / "x.csv")]) == (0, False)


def test_resonances_loads_scipy_and_keeps_columns(tmp_path):
    out = tmp_path / "res.csv"
    assert _run_fresh(["resonances", "--out", str(out)]) == (0, True)
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
