"""Command-line front end: deterministic CSV tables for spectra, resonances,
parameter sweeps and the parametric-model time series.

Each command is a runner in `_COMMANDS`: `run(scenario, args)` gets the loaded,
overridden scenario, checks its own options, writes nothing and returns
`(extra_header_lines, columns, table)`. The table is `(rows, block)`:
`block(start, stop)` gives one column per field for those rows: a float array,
or a `(codes, texts)` pair whose row i is `texts[codes[i]]`.
`spectrum` and `decompose` evaluate each block as it is asked for; the other
commands slice columns computed up front (`_precomputed`). `main` writes that
one table after the common header, as UTF-8 bytes.

Exit codes: 0 success, 2 configuration/schema error (including a size too
large to allocate), 3 numerical failure. All floats are emitted with 17
significant digits so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import replace

import numpy as np

from . import __version__, cavity, flux, scatter
from .constants import TWO_PI
from .errors import MAX_ENTRIES, ConfigError, NumericalError, SimulationError
from .scenario import Scenario, grid_array, load_scenario, scenario_hash, source_config, squeeze_params

_SWEEP_AXES = ("v_pp", "q", "z0", "delta_x")


_BLOCK_ROWS = 4096
# a table of fewer rows is formatted with %: below ~2000 rows the numpy formatter's import and set-up
# (7-10 ms, mostly its tables) cost more than it saves, and the default 2000-point grid stays clear of that cost
_NUMPY_ROWS = 4096
# a table of this many blocks or more (more than 8192 rows) is split over a forked child: at 6000-8192 rows the
# fork's fixed cost took 9-22 ms more wall time and 19-33 ms more CPU time than the command alone
_FORK_BLOCKS = 3


def _column(cells):
    """Cells as the writer takes them: floats as an array, other cells as a (codes, texts) pair, each distinct cell
    once, bools and ints as digits."""
    if not isinstance(cells[0], str):
        column = np.asarray(cells)
        if column.dtype.kind == "f":
            return column
        cells = column.tolist()
    index = {cell: i for i, cell in enumerate(dict.fromkeys(cells))}
    texts = tuple(cell if isinstance(cell, str) else "%d" % cell for cell in index)
    return np.fromiter(map(index.__getitem__, cells), np.intp, len(cells)), texts


def _precomputed(cells):
    """The (rows, block) table of columns computed up front: block(start, stop) slices each column (`_column`)."""
    return len(cells[0]) if cells else 0, lambda start, stop: [_column(column[start:stop]) for column in cells]


def _percent_text(block) -> bytes:
    """The CSV rows of a block with %: floats as %.17g, (codes, texts) columns by their text."""
    formats, columns = [], []
    for column in block:
        if isinstance(column, tuple):
            codes, texts = column
            formats.append(b"%s")
            columns.append(map([text.encode() for text in texts].__getitem__, codes.tolist()))
        else:
            formats.append(b"%.17g")
            columns.append(column.tolist())
    row = b",".join(formats) + b"\n"
    return b"".join(map(row.__mod__, zip(*columns)))


def _formatter(rows: int):
    """The block formatter of a table: numpy's, holding its buffers for the table, from _NUMPY_ROWS rows on."""
    if rows < _NUMPY_ROWS:
        return _percent_text
    from . import floattext

    return floattext.BlockFormatter()


def _write_text(fh, header: bytes, table) -> int:
    """Write the header and the rows a block at a time to a binary file; return the child's exit code (0 if none).

    The formatter is made once per table, before any fork, so the numpy
    formatter's module is imported in one process only. A table of
    _FORK_BLOCKS or more blocks is evaluated and formatted on two processes:
    a forked child takes the second half of the blocks into an anonymous
    binary temporary file while this process writes the first half, then
    appends the child's bytes as they are (shutil.copyfileobj, one bounded
    chunk at a time). A ConfigError or NumericalError in the child (exit code
    2 or 3, its message in the temporary file) is raised again here. Where
    os.fork is missing the blocks run here.
    """
    rows, block = table
    text = _formatter(rows)

    def texts(starts):  # each block is written before the next is formatted
        return (text(block(start, start + _BLOCK_ROWS)) for start in starts)

    starts = range(0, rows, _BLOCK_ROWS)
    mid = len(starts) // 2
    if len(starts) < _FORK_BLOCKS or not hasattr(os, "fork"):
        blocks = texts(starts)
        first = next(blocks, b"")  # a failure in the first block writes nothing
        fh.write(header)
        fh.write(first)
        fh.writelines(blocks)
        return 0
    fh.write(header)
    import shutil
    import signal
    import tempfile

    with tempfile.TemporaryFile() as spool:
        fh.flush()
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit, which flushes none of the inherited stdio buffers
            code = 1
            try:
                spool.writelines(texts(starts[mid:]))
                spool.flush()
                code = 0
            except (SimulationError, ArithmeticError) as exc:  # main's exit code, and the message in the spool
                spool.seek(0)
                spool.truncate()
                spool.write(str(exc).encode())
                spool.flush()
                code = 2 if isinstance(exc, ConfigError) else 3
            finally:
                os._exit(code)
        try:
            fh.writelines(texts(starts[:mid]))
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        spool.seek(0)
        if code == 0:
            shutil.copyfileobj(spool, fh)
        elif code in (2, 3):
            raise (ConfigError if code == 2 else NumericalError)(spool.read().decode())
    return code


def _write_file(out_path: str, header: bytes, table) -> int:
    """Write the table to a file; return the forked formatter's exit code (0 if none).

    A missing target or a regular file is replaced only once the table is
    complete: the rows go to a temporary name next to it, created as a new
    file (so the umask applies) and given an existing target's mode, which
    then replaces the target. On any failure the temporary file is removed
    and the old file stays as it was. A FIFO or a device is written in place.
    """
    target = os.path.realpath(out_path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out_path, "wb") as fh:
            return _write_text(fh, header, table)
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")
    replaced = False
    try:
        with fh:
            code = _write_text(fh, header, table)
        if code == 0:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
            replaced = True
    finally:
        if not replaced:
            os.unlink(tmp)
    return code


def _write_table(out_path: str, header_lines: list[str], columns: list[str], table) -> None:
    """Write a CSV (rows, block) table (see the module docstring)."""
    header = ("".join(f"# {line}\n" for line in header_lines) + ",".join(columns) + "\n").encode()
    try:
        if out_path == "-":
            sys.stdout.flush()
            code = _write_text(sys.stdout.buffer, header, table)
            sys.stdout.buffer.flush()
        else:
            code = _write_file(out_path, header, table)
    except OSError as exc:
        if out_path == "-":  # a closed pipe: the flush at exit must not fail again
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    if code != 0:
        raise ConfigError(f"cannot write {out_path}: the forked row formatter exited with code {code}")


def _header(sc: Scenario, command: str) -> list[str]:
    omega_0_table = TWO_PI * sc.cavity.v_light / sc.cavity.length_d
    return [
        f"fbar-dce {__version__} {command}",
        f"scenario: {sc.name}",
        f"scenario-sha256: {scenario_hash(sc)}",
        f"window-time-s: {sc.window_time:.17g}",
        f"guard-band-rad-s: {scatter.guard_band(sc.window_time):.17g}",
        "normalization: columns are occupation spectral densities; the drive-sourced term uses the"
        " steady (window-independent) part of the turn-on transform, with coherent drive-line"
        " weights split off and their guard bands excluded",
        f"omega-m-rad-s: {sc.geometry.omega_m:.17g}",
        f"cavity-omega-0-rad-s (from effective length): {sc.cavity.omega_0:.17g}",
        f"cavity-omega-0-rad-s (from bare length): {omega_0_table:.17g}",
    ]


def _run_spectrum(sc: Scenario, args):
    """Each block of rows is one output_spectrum call, guard bands shifted by the whole grid's step."""
    grid, cfg = grid_array(sc), source_config(sc)
    step = grid[1] - grid[0]
    columns = ["omega_over_omega_m", "n_total", "n_dce", "n_thermal", "n_mech_only"]
    if args.command == "decompose":
        columns.append("n_dce_electrical")

    def block(start, stop):
        table = flux.output_spectrum(grid[start:stop], sc.cavity, cfg, sc.line, sc.env, step)
        cells = [table.omega / sc.geometry.omega_m, table.n_total, table.n_dce, table.n_thermal, table.n_mech_only]
        if args.command == "decompose":
            cells.append(table.n_dce - table.n_mech_only)
        return cells + [(table.flag_codes, flux.FLAGS)]

    return [], columns + ["flags"], (len(grid), block)


def _run_resonances(sc: Scenario, args):
    from . import brent
    om = sc.geometry.omega_m
    band = (sc.grid.omega_min, sc.grid.omega_max)
    roots = cavity.cavity_resonances(sc.cavity, band)
    rows = []
    for i, root in enumerate(roots):
        residual = cavity.resonance_residual(root, sc.cavity)
        # offset to the exact resonance: the nearby local maximum of the mode response
        window = 0.005 * root
        peak, converged = brent.minimize_bounded(
            lambda w: -abs(cavity.mode_response(w, sc.cavity)), root - window, root + window, xatol=1.0
        )
        rows.append([i, root, root / om, residual, peak - root, "" if converged else "peak-refine-failed"])
    columns = ["index", "omega_rad_s", "omega_over_omega_m", "residual", "mode_peak_offset_rad_s", "flags"]
    return [], columns, _precomputed(list(zip(*rows)))


def _sweep_config(sc: Scenario, axis: str, values: list[float], pin: bool):
    """(source_config, line) of sweep values, built through source_config as every command's configuration is.

    One value sets the swept field to the value itself. Several set it to an
    (n, 1) column of lanes, so a value outside a bound fails the whole batch
    (the bounds hold for every entry). With lanes, v_pp, delta_c and z0 each
    come back as a contiguous float (n, 1) column, the unswept ones repeated:
    with those left scalar, numpy rounds some lanes differently from their
    one-value sweeps.
    """
    n = len(values)
    value = values[0] if n == 1 else np.array(values, dtype=float).reshape(n, 1)
    line, delta_x = sc.line, None
    if axis == "v_pp":
        sc = replace(sc, drive=replace(sc.drive, v_pp=value))
    elif axis == "q":
        sc = replace(sc, geometry=replace(sc.geometry, quality=value))
    elif axis == "z0":
        # bare prefactor scan: cavity dressing stays at the scenario values
        line = replace(line, z0=value)
    else:  # delta_x: the mirror amplitude itself
        delta_x = value
    cfg = source_config(sc, delta_x)

    def lanes(x):
        return x if n == 1 else np.full((n, 1), x, dtype=float)

    drive = replace(cfg.drive, v_pp=lanes(cfg.drive.v_pp))
    cap = replace(cfg.cap, delta_c=lanes(0.0 if pin else cfg.cap.delta_c))
    return replace(cfg, drive=drive, cap=cap), replace(line, z0=lanes(line.z0))


def _sweep_cells(sc: Scenario, args, values: list[float]) -> list[list]:
    """Row cells of each value, in order, evaluated at the probe omega_m/2.

    The values are built (`_sweep_config`) and evaluated as lanes of one
    output_spectrum call. A batch that fails, in building or in evaluating,
    is made again in halves, down to a single value, which is the plain
    scalar call (a lane of one would not do: numpy multiplies a (1, 1) by a
    (1,) complex array in a loop that rounds differently): its error class
    becomes its row's flag, and every row keeps the bits of its own one-value
    sweep.
    """
    probe = np.array([sc.geometry.omega_m / 2.0])
    try:
        cfg, line = _sweep_config(sc, args.axis, values, args.pin_delta_c_zero)
        table = flux.output_spectrum(probe, sc.cavity, cfg, line, sc.env)
    except SimulationError as exc:
        if len(values) == 1:
            return [[np.nan, np.nan, np.nan, np.nan, type(exc).__name__]]
        half = len(values) // 2
        return _sweep_cells(sc, args, values[:half]) + _sweep_cells(sc, args, values[half:])
    lanes = [np.ravel(column) for column in (table.n_total, table.n_dce, table.n_thermal, table.n_mech_only)]
    return [[*numbers, flux.FLAGS[table.flag_codes[0]]] for numbers in zip(*lanes)]


def _run_sweep(sc: Scenario, args):
    """One row per value at the probe omega_m/2, each with its own flag (`_sweep_cells`)."""
    values = []
    for chunk in args.values.split(","):
        try:
            values.append(float(chunk))
        except ValueError as exc:
            raise ConfigError(f"sweep value {chunk!r} is not a number") from exc
    if any(not np.isfinite(v) or v <= 0.0 for v in values):
        raise ConfigError("sweep values must be positive and finite")
    rows = [[args.axis, value, 0.5] + cells for value, cells in zip(values, _sweep_cells(sc, args, values))]
    columns = ["axis", "value", "omega_probe_over_omega_m", "n_total", "n_dce", "n_thermal", "n_mech_only", "flags"]
    return [], columns, _precomputed(list(zip(*rows)))


def _run_squeeze(sc: Scenario, args):
    from . import squeeze
    if not 2 <= args.samples <= MAX_ENTRIES:
        raise ConfigError(f"--samples must lie in [2, {MAX_ENTRIES}]")
    if not 0.0 < args.t_max <= 2.0:
        raise ConfigError("--t-max must lie in (0, 2]")
    lam = squeeze.squeeze_coupling(squeeze_params(sc))
    if lam == 0.0:
        times = np.linspace(0.0, 1.0, args.samples)
    else:
        times = np.linspace(0.0, args.t_max / (2.0 * lam), args.samples)
    n_numeric, norm_defect, truncated, odd = zip(*squeeze.evolve_series(lam, times, dim=args.dim))
    n_analytic = [squeeze.analytic_photon_number(lam, t) for t in times]
    extra = [f"squeeze-rate-rad-s: {lam:.17g}", f"truncation-dim: {args.dim}"]
    columns = ["time_s", "two_lambda_t", "n_analytic", "n_numeric", "norm_defect", "odd_population", "truncation_flag"]
    return extra, columns, _precomputed([times, 2.0 * lam * times, n_analytic, n_numeric, norm_defect, odd, truncated])


# command name -> (runner, subparser help)
_COMMANDS = {
    "spectrum": (_run_spectrum, "output photon spectral density over the scenario grid"),
    "decompose": (_run_spectrum, "spectrum plus the mechanical/electrical split column"),
    "resonances": (_run_resonances, "cavity resonances in the scenario band with residuals"),
    "sweep": (_run_sweep, "flux at half the modulation frequency along a parameter axis"),
    "squeeze": (_run_squeeze, "parametric-model photon growth: closed form vs truncated evolution"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbar-dce",
        description="Photon flux from vacuum generated by a piezoelectrically modulated cavity mirror",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
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
        sc = load_scenario(args.scenario, args.points, args.window_time)
        extra, columns, table = _COMMANDS[args.command][0](sc, args)
        _write_table(args.out, _header(sc, args.command) + extra, columns, table)
    except (ConfigError, MemoryError) as exc:  # a --points, --dim or --samples too large to allocate is bad input
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:  # float ** and / raise on overflow and exact zero
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
