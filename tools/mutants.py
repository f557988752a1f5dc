"""Mutation gauge: show that the tests catch the faults they are meant to catch.

Each mutant replaces one exact snippet of one module of `src/fbar_dce` with
another, and names the tests that must fail with it. For each mutant the
script copies `src/` to a temporary directory, applies the edit there and runs
only the named tests, with PYTHONPATH set to the copy. The mutant is killed
when a named test fails, and survives when they all pass.

    python tools/mutants.py

Before any mutant runs, the named tests must pass on an unmutated copy, and
the copy must be the package they import. Exit status: 0 when every mutant is
killed, 1 when one survives, 2 when a run cannot be judged. Each mutant costs
a pytest start, so the tier-1 suite runs none of them; `tests/test_mutants.py`
only checks that every snippet still occurs exactly once and that every named
test still exists, so the list cannot go stale unnoticed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    file: str  # module file under src/fbar_dce
    old: str  # exact snippet, present exactly once in src/
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


_GUARD_LOOP = "tests/test_flux.py::test_guard_resolution_matches_scalar_loop"

MUTANTS = {
    # guard-band resolution: a point shifted by one tone and blocked by a later one keeps its shift
    "guard-blocked-points-reset": Mutant(
        "flux.py",
        "        out[idx[~blocked]] = shifted[~blocked]\n",
        "        out[idx[~blocked]] = shifted[~blocked]\n        out[idx[blocked]] = w[blocked]\n",
        (_GUARD_LOOP,),
    ),
    # each tone shifts from the original grid point, not from an earlier tone's shift
    "guard-shift-from-shifted-grid": Mutant(
        "flux.py",
        "        w = grid[idx]\n",
        "        w = out[idx]\n",
        (_GUARD_LOOP,),
    ),
    # a later tone overrides an earlier one
    "guard-first-tone-wins": Mutant(
        "flux.py",
        "idx = np.flatnonzero(np.abs(grid - nu) < guard)",
        "idx = np.flatnonzero((np.abs(grid - nu) < guard) & (codes == 0))",
        (_GUARD_LOOP,),
    ),
    # squeeze: the even rows keep every column, so BLAS sums each row as on the full basis
    "squeeze-even-column-cut": Mutant(
        "squeeze.py",
        "        np.dot(m, x, out=k)\n",
        "        np.dot(m[:, 0::2], xe, out=k)\n",
        ("tests/test_squeeze.py::test_even_level_evolution_matches_full_basis_bits_at_range_end",),
    ),
    # squeeze: the buffered rk4 doubles k2 in place only after stage 3 has read it
    "squeeze-rk4-k2-doubled-early": Mutant(
        "squeeze.py",
        "        stage(half, k2, k3)\n        stage(whole, k3, k4)\n        np.multiply(two, k2, out=k2)\n",
        "        np.multiply(two, k2, out=k2)\n        stage(half, k2, k3)\n        stage(whole, k3, k4)\n",
        ("tests/test_squeeze.py::test_even_level_evolution_matches_full_basis_bits",),
    ),
    # squeeze: the full-length state is observed, since np.sum's grouping depends on the length
    "squeeze-half-length-observation": Mutant(
        "squeeze.py",
        "        results.append(_observe(x))\n",
        "        mean = float(np.sum(np.arange(0, dim, 2) * np.abs(u) ** 2))\n"
        "        results.append(_observe(x)._replace(mean_photons=mean))\n",
        ("tests/test_squeeze.py::test_even_level_evolution_matches_full_basis_bits",),
    ),
    # the forked child formats the blocks from mid on, so none is dropped or repeated between the halves
    "fork-child-skips-first-block": Mutant(
        "cli.py",
        "texts(starts[mid:])",
        "texts(starts[mid + 1 :])",
        (
            "tests/test_cli.py::test_fork_path_keeps_cell_by_cell_bytes",
            "tests/test_cli.py::test_block_boundaries_keep_cell_by_cell_bytes",
        ),
    ),
    # a table of two blocks is written by one process: the fork would cost more than it saves
    "fork-from-two-blocks": Mutant(
        "cli.py",
        "_FORK_BLOCKS = 3\n",
        "_FORK_BLOCKS = 2\n",
        ("tests/test_cli.py::test_fork_path_keeps_cell_by_cell_bytes",),
    ),
    # a ConfigError or NumericalError in the child's blocks reaches the parent with its exit code and message
    "fork-child-error-as-formatter-failure": Mutant(
        "cli.py",
        "                code = 2 if isinstance(exc, ConfigError) else 3\n",
        "                code = 1\n",
        ("tests/test_cli.py::test_numerical_failure_in_one_half_exit_code_3",),
    ),
    # each block of a spectrum shifts its guard rows by the whole grid's step, not by its own
    "spectrum-block-own-step": Mutant(
        "cli.py",
        "sc.cavity, cfg, sc.line, sc.env, step)",
        "sc.cavity, cfg, sc.line, sc.env)",
        ("tests/test_cli.py::test_block_boundaries_keep_cell_by_cell_bytes",),
    ),
    "guard-block-own-step": Mutant(
        "flux.py",
        "    if step is None:\n",
        "    if True:\n",
        ("tests/test_flux.py::test_evaluation_does_not_depend_on_grid_split",),
    ),
    # the parent reaps the child on every path, also when writing its own half fails
    "fork-parent-failure-skips-reap": Mutant(
        "cli.py",
        "            raise\n        finally:\n            code = os.waitstatus_to_exitcode(",
        "            raise\n        code = os.waitstatus_to_exitcode(",
        ("tests/test_cli.py::test_closed_stdout_during_fork_path_leaves_no_child",),
    ),
    # --out over a regular file goes through a temporary file, so a failed command keeps the old file
    "out-written-in-place": Mutant(
        "cli.py",
        "    if mode is not None and not stat.S_ISREG(mode):\n",
        "    if True:\n",
        ("tests/test_cli.py::test_failing_child_formatter_exit_code_2",),
    ),
    # numpy formatter: 17 digits that round up to 10**17 move to the next decade
    "digits-carry-keeps-decade": Mutant(
        "floattext.py",
        "    e10[carry] += 1\n",
        "",
        (
            "tests/test_cli.py::test_numpy_formatter_matches_percent_on_the_float_edges",
            "tests/test_cli.py::test_fork_path_keeps_cell_by_cell_bytes",
        ),
    ),
    # numpy formatter: a cell near a rounding tie is left to Python's '%.17g'
    "digits-no-tie-margin": Mutant(
        "floattext.py",
        "_TIE_MARGIN = 2.0**-30",
        "_TIE_MARGIN = 0.0",
        ("tests/test_cli.py::test_cells_near_a_rounding_tie_are_written_by_python",),
    ),
    # numpy formatter: in fixed notation from 1 up the digit field keeps the integer digits, zeros too
    "layout-integer-zeros-dropped": Mutant(
        "floattext.py",
        "0, _POINT)",
        "0, 1)",
        ("tests/test_cli.py::test_numpy_formatter_matches_percent_at_every_decade_and_length",),
    ),
    # numpy formatter: a cell written by Python takes all four words, so no exponent of its own is left behind
    "fallback-keeps-exponent-word": Mutant(
        "floattext.py",
        "        words[3, fallback] = 0\n",
        "",
        ("tests/test_cli.py::test_cells_near_a_rounding_tie_are_written_by_python",),
    ),
    # the numpy formatter holds its word matrix for the table, so the blocks after the first fault in no fresh pages
    "formatter-words-per-block": Mutant(
        "floattext.py",
        "        if self._words.size < spans * rows:\n",
        "        if True:\n",
        ("tests/test_cli.py::test_blocks_after_the_first_take_few_page_faults",),
    ),
    # the formatter is made before the fork, so its module is imported in one process and not in both
    "formatter-import-after-fork": Mutant(
        "cli.py",
        "    text = _formatter(rows)\n",
        "    text = lambda cells: _formatter(rows)(cells)\n",
        ("tests/test_cli.py::test_the_numpy_formatter_is_imported_before_the_fork",),
    ),
    # squeeze and brent are imported by the commands that run them, not by every command
    "eager-squeeze-import": Mutant(
        "cli.py",
        "from . import __version__, cavity, flux, scatter\n",
        "from . import __version__, cavity, flux, scatter, squeeze\n",
        ("tests/test_cli.py::test_only_the_commands_that_run_them_load_squeeze_and_brent",),
    ),
    # the lower sideband takes the conjugated self-frequency response
    "dressing-drop-conj-in-s2": Mutant(
        "cavity.py",
        "* np.conj(a_self) * mode_response(om - w, cav)",
        "* a_self * mode_response(om - w, cav)",
        ("tests/test_cavity.py::test_dressed_coefficients_lower_sideband_phase",),
    ),
    # upper sideband at omega_m + omega, lower at omega_m - omega
    "dressing-swap-sidebands": Mutant(
        "cavity.py",
        "* a_self * mode_response(om + w, cav)",
        "* a_self * mode_response(om - w, cav)",
        ("tests/test_cavity.py::test_dressed_coefficients_upper_sideband_compositional_oracle",),
    ),
    # the bath at omega_m + omega feeds |S1|^2, the bath at omega_m - omega feeds |S2|^2
    "thermal-swap-sidebands": Mutant(
        "flux.py",
        "np.stack([w, om + w, om - w])",
        "np.stack([w, om - w, om + w])",
        ("tests/test_flux.py::test_thermal_terms_recompose_from_dressed_coefficients",),
    ),
    # --window-time replaces the file's window_time_s before the scenario is validated
    "override-drops-window-time": Mutant(
        "scenario.py",
        '            raw["window_time_s"] = window_time\n',
        "            pass\n",
        ("tests/test_cli.py::test_override_replaces_invalid_file_value",),
    ),
    # the loader keeps the bounds of the numbers no class holds, r_m >= 0 among them
    "loader-drops-r_m-bound": Mutant(
        "scenario.py",
        '    ("mbvd", "r_m_ohm", "r_m", _NON_NEGATIVE),\n',
        "",
        ("tests/test_scenario.py::test_number_outside_its_bound_rejected",),
    ),
    # round-off below zero in n_mech_only is clipped to +0.0
    "drop-mech-only-clip": Mutant(
        "flux.py",
        "    n_mech_only = np.maximum(n_mech_only, 0.0)\n",
        "",
        ("tests/test_flux.py::test_round_off_below_zero_in_mech_only_is_clipped",),
    ),
    # a negative difference tone folds onto +nu with its phase negated (cos is even)
    "fold-tones-keeping-phase": Mutant(
        "scatter.py",
        "            nu, phi = -nu, -phi\n",
        "            nu, phi = -nu, phi\n",
        ("tests/test_scatter.py::test_source_time_step_differentiation_generic_point_and_detuned_drive",),
    ),
    # ||R| - 1| above 1e-10 is refused
    "loosen-reflection-bound": Mutant(
        "cavity.py",
        "if not np.all(defect <= 1e-10):",
        "if not np.all(defect <= 1e-6):",
        ("tests/test_cavity.py::test_dressed_coefficients_reflection_bound",),
    ),
}


def _env(src: Path) -> dict:
    # no bytecode: a mutated module must never be served from a cached .pyc
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def _copy_src(tmp: Path) -> Path:
    copy = tmp / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return copy


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=_env(src), capture_output=True, text=True)


def _check_setup() -> None:
    """SystemExit(2) unless the tests import the copy and pass on it unmutated."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = _copy_src(Path(tmp))
        probe = [sys.executable, "-c", "import fbar_dce; print(fbar_dce.__file__)"]
        imported = subprocess.run(probe, cwd=ROOT, env=_env(copy), capture_output=True, text=True, check=True)
        if Path(tmp).resolve() not in Path(imported.stdout.strip()).resolve().parents:
            sys.exit(f"the tests would import {imported.stdout.strip()}, not the copy")
        tests = sorted({t for mutant in MUTANTS.values() for t in mutant.tests})
        clean = _pytest(copy, tests)
        if clean.returncode != 0:
            sys.exit(f"the named tests fail without a mutant:\n{clean.stdout[-3000:]}")


def run_mutant(name: str) -> str:
    """'killed', 'survived' or 'error' for one mutant."""
    mutant = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        copy = _copy_src(Path(tmp))
        target = copy / "fbar_dce" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error"
        target.write_text(text.replace(mutant.old, mutant.new))
        result = _pytest(copy, mutant.tests)
    # pytest exits 1 when a test failed; any other non-zero code means the run itself broke
    return {0: "survived", 1: "killed"}.get(result.returncode, "error")


def main() -> int:
    _check_setup()
    verdicts = {}
    for name in MUTANTS:
        verdicts[name] = run_mutant(name)
        print(f"{verdicts[name]:9} {name}", flush=True)
    survived = [n for n, v in verdicts.items() if v == "survived"]
    errors = [n for n, v in verdicts.items() if v == "error"]
    print(f"{len(MUTANTS)} mutants: {len(MUTANTS) - len(survived) - len(errors)} killed, "
          f"{len(survived)} survived, {len(errors)} errors")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
