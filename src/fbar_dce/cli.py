"""Command-line front end: deterministic CSV tables for spectra, resonances,
parameter sweeps and the parametric-model time series.

Exit codes: 0 success, 2 configuration/schema error, 3 numerical failure.
All floats are emitted with 17 significant digits so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import copy
import sys
from dataclasses import replace

import numpy as np

from . import __version__, cavity, flux, scatter, squeeze
from .constants import TWO_PI
from .errors import ConfigError, NumericalError, SimulationError
from .piezo import DriveParams
from .scenario import (
    Scenario,
    grid_array,
    load_scenario,
    motional_amplitude,
    scenario_from_raw,
    scenario_hash,
    source_config,
    squeeze_params,
)

_SWEEP_AXES = ("v_pp", "q", "z0", "delta_x")


def _format_column(values) -> list[str]:
    # by dtype: text as is, bools 1/0, ints as digits, floats with 17 significant digits
    column = np.asarray(values)
    cells = column.tolist()
    kind = column.dtype.kind
    if kind == "U":
        return cells
    if kind == "b":
        return ["1" if v else "0" for v in cells]
    if kind in "iu":
        return list(map(str, cells))
    return list(map("{:.17g}".format, cells))


def _write_table(out_path: str, header_lines: list[str], columns: list[str], cells) -> None:
    """Write a CSV table given one sequence of cells per column (none for an empty table)."""
    lines = [f"# {line}" for line in header_lines]
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*map(_format_column, cells))))
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _header(sc: Scenario, command: str) -> list[str]:
    omega_0_table = TWO_PI * sc.cavity.v_light / sc.cavity.length_d
    return [
        f"fbar-dce {__version__} {command}",
        f"scenario: {sc.name}",
        f"scenario-sha256: {scenario_hash(sc)}",
        f"window-time-s: {sc.window_time:.17g}",
        f"guard-band-rad-s: {100.0 / sc.window_time:.17g}",
        "normalization: columns are occupation spectral densities; the drive-sourced term uses the"
        " steady (window-independent) part of the turn-on transform, with coherent drive-line"
        " weights split off and their guard bands excluded",
        f"omega-m-rad-s: {sc.geometry.omega_m:.17g}",
        f"cavity-omega-0-rad-s (from effective length): {sc.cavity.omega_0:.17g}",
        f"cavity-omega-0-rad-s (from bare length): {omega_0_table:.17g}",
    ]


def _apply_overrides(sc: Scenario, points: int | None, window_time: float | None) -> Scenario:
    if points is None and window_time is None:
        return sc
    raw = copy.deepcopy(sc.raw)
    if points is not None:
        raw["grid"]["points"] = points
    if window_time is not None:
        raw["window_time_s"] = window_time
    return scenario_from_raw(raw)


def _run_spectrum(sc: Scenario, args, include_electrical: bool) -> None:
    table = flux.output_spectrum(grid_array(sc), sc.cavity, source_config(sc), sc.line, sc.env)
    columns = ["omega_over_omega_m", "n_total", "n_dce", "n_thermal", "n_mech_only"]
    cells = [table.omega / sc.geometry.omega_m, table.n_total, table.n_dce, table.n_thermal, table.n_mech_only]
    if include_electrical:
        columns.append("n_dce_electrical")
        cells.append(table.n_dce - table.n_mech_only)
    command = "decompose" if include_electrical else "spectrum"
    _write_table(args.out, _header(sc, command), columns + ["flags"], cells + [table.flags])


def _run_resonances(sc: Scenario, args) -> None:
    from scipy.optimize import minimize_scalar  # loaded on demand: only this command needs SciPy

    om = sc.geometry.omega_m
    band = (sc.grid.omega_min, sc.grid.omega_max)
    roots = cavity.cavity_resonances(sc.cavity, band)
    rows = []
    for i, root in enumerate(roots):
        residual = cavity.resonance_residual(root, sc.cavity)
        # offset to the exact resonance: the nearby local maximum of the mode response
        window = 0.005 * root
        result = minimize_scalar(
            lambda w: -abs(cavity.mode_response(w, sc.cavity)),
            bounds=(root - window, root + window),
            method="bounded",
            options={"xatol": 1.0},
        )
        flag = "" if result.success else "peak-refine-failed"
        rows.append([i, root, root / om, residual, float(result.x) - root, flag])
    _write_table(
        args.out,
        _header(sc, "resonances"),
        ["index", "omega_rad_s", "omega_over_omega_m", "residual", "mode_peak_offset_rad_s", "flags"],
        list(zip(*rows)),
    )


def _sweep_components(sc: Scenario, axis: str, value: float, pin_delta_c_zero: bool):
    """Per-value configuration: returns (cavity, source_config, line)."""
    geometry, drive, line = sc.geometry, sc.drive, sc.line
    delta_x = None
    if axis == "v_pp":
        drive = DriveParams(v_pp=value, phase=drive.phase, omega_d=drive.omega_d)
    elif axis == "q":
        geometry = replace(geometry, quality=value)
    elif axis == "z0":
        # bare prefactor scan: cavity dressing stays at the scenario values
        line = scatter.LineParams(z0=value, v_light=line.v_light)
    elif axis == "delta_x":
        delta_x = value
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if delta_x is None:
        from .piezo import driven_amplitude

        delta_x = driven_amplitude(sc.material, geometry, drive)
    from .piezo import delta_capacitance

    _, delta_c = delta_capacitance(sc.material, geometry, delta_x, c0=sc.mbvd.c_plate)
    if pin_delta_c_zero:
        delta_c = 0.0
    cap = scatter.TimeVaryingCap(c0=sc.mbvd.c_plate, delta_c=delta_c, omega_m=geometry.omega_m)
    cfg = scatter.SourceConfig(drive=drive, cap=cap, window_time=sc.window_time)
    return sc.cavity, cfg, line


def _run_sweep(sc: Scenario, args) -> None:
    values = []
    for chunk in args.values.split(","):
        try:
            values.append(float(chunk))
        except ValueError as exc:
            raise ConfigError(f"sweep value {chunk!r} is not a number") from exc
    if not values:
        raise ConfigError("sweep requires at least one value")
    if any(not np.isfinite(v) or v <= 0.0 for v in values):
        raise ConfigError("sweep values must be positive and finite")
    om = sc.geometry.omega_m
    probe = np.array([om / 2.0])
    rows = []
    for value in values:
        try:
            cav, cfg, line = _sweep_components(sc, args.axis, value, args.pin_delta_c_zero)
            table = flux.output_spectrum(probe, cav, cfg, line, sc.env)
            rows.append(
                [
                    args.axis,
                    value,
                    0.5,
                    table.n_total[0],
                    table.n_dce[0],
                    table.n_thermal[0],
                    table.n_mech_only[0],
                    table.flags[0],
                ]
            )
        except SimulationError as exc:
            rows.append([args.axis, value, 0.5, np.nan, np.nan, np.nan, np.nan, type(exc).__name__])
    _write_table(
        args.out,
        _header(sc, "sweep"),
        ["axis", "value", "omega_probe_over_omega_m", "n_total", "n_dce", "n_thermal", "n_mech_only", "flags"],
        list(zip(*rows)),
    )


def _run_squeeze(sc: Scenario, args) -> None:
    lc = squeeze_params(sc)
    lam = squeeze.squeeze_coupling(lc)
    if lam == 0.0:
        times = np.linspace(0.0, 1.0, args.samples)
    else:
        times = np.linspace(0.0, args.t_max / (2.0 * lam), args.samples)
    results = squeeze.evolve_series(lam, times[1:], dim=args.dim)
    rows = [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False]]
    for t, res in zip(times[1:], results):
        rows.append(
            [
                t,
                2.0 * lam * t,
                squeeze.analytic_photon_number(lam, t),
                res.mean_photons,
                res.norm_defect,
                res.odd_population,
                res.truncation_flag,
            ]
        )
    header = _header(sc, "squeeze")
    header.append(f"squeeze-rate-rad-s: {lam:.17g}")
    header.append(f"truncation-dim: {args.dim}")
    _write_table(
        args.out,
        header,
        ["time_s", "two_lambda_t", "n_analytic", "n_numeric", "norm_defect", "odd_population", "truncation_flag"],
        list(zip(*rows)),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbar-dce",
        description="Photon flux from vacuum generated by a piezoelectrically modulated cavity mirror",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("spectrum", "output photon spectral density over the scenario grid"),
        ("decompose", "spectrum plus the mechanical/electrical split column"),
        ("resonances", "cavity resonances in the scenario band with residuals"),
        ("sweep", "flux at half the modulation frequency along a parameter axis"),
        ("squeeze", "parametric-model photon growth: closed form vs truncated evolution"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--scenario", default="low-q", help="preset name or JSON file path")
        cmd.add_argument("--out", default="-", help="output CSV path, or - for stdout")
        cmd.add_argument("--points", type=int, default=None, help="override grid point count")
        cmd.add_argument("--window-time", type=float, default=None, help="override window length [s]")
        if name == "sweep":
            cmd.add_argument("--axis", required=True, choices=_SWEEP_AXES)
            cmd.add_argument("--values", required=True, help="comma-separated positive values")
            cmd.add_argument(
                "--pin-delta-c-zero",
                action="store_true",
                help="hold the capacitance modulation at zero while sweeping",
            )
        if name == "squeeze":
            cmd.add_argument("--dim", type=int, default=60, help="number-basis truncation")
            cmd.add_argument("--samples", type=int, default=21, help="time samples incl. t=0")
            cmd.add_argument(
                "--t-max",
                type=float,
                default=1.0,
                dest="t_max",
                help="final time in units of the dimensionless squeeze parameter 2*lambda*t",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = load_scenario(args.scenario)
        sc = _apply_overrides(sc, args.points, args.window_time)
        if args.command == "spectrum":
            _run_spectrum(sc, args, include_electrical=False)
        elif args.command == "decompose":
            _run_spectrum(sc, args, include_electrical=True)
        elif args.command == "resonances":
            _run_resonances(sc, args)
        elif args.command == "sweep":
            _run_sweep(sc, args)
        elif args.command == "squeeze":
            if args.samples < 2:
                raise ConfigError("--samples must be >= 2")
            if not 0.0 < args.t_max <= 2.0:
                raise ConfigError("--t-max must lie in (0, 2]")
            _run_squeeze(sc, args)
        else:  # pragma: no cover - argparse enforces the choice
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
