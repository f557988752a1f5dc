"""Output photon spectral density and its decompositions.

Per observation frequency the outgoing occupation density is

    n_total = |R|^2 n_in(w) + |S1|^2 n_in(W+w) + |S2|^2 (1 + n_in(W-w)) + |h_res|^2

with W the modulation frequency and n_in the Bose-Einstein occupation of the
incoming line. The vacuum-sourced part n_dce = |S2|^2 + |h_res|^2 survives at
zero temperature; n_thermal collects the occupation-driven terms, and
n_mech_only is the flux lost when the mechanical modulation is removed
(delta_c = 0) while the voltage source stays connected.

Only live rows are evaluated: per output_spectrum call, on the grid points
outside the coherent-line guard bands, all five coefficient magnitudes come
from one cavity.dressed_coefficients call and the three bath occupations from
one thermal_occupation call on the stacked frequencies w, W+w and W-w. Both
cover every lane when the configuration's delta_c, v_pp or z0 holds an array
of lanes (see scatter), so a parameter sweep is one spectrum pass. The S-type
terms are window-independent occupation densities; the h term uses the steady
(window-independent) part of the source spectrum, with the coherent drive
lines split off and their guard bands excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, dressed_coefficients
from .constants import HBAR, K_B
from .errors import ConfigError, NumericalError, check_fields, positive_frequencies
from .scatter import LineParams, SourceConfig, guard_band, tones

_NEGATIVE_ROUNDOFF_FLOOR = -1e-15
FLAGS = ("", "guard-shifted", "guard-band")  # the flag text of each code in SpectrumTable.flag_codes


@dataclass(frozen=True, repr=False, eq=False)
class ThermalEnv:
    """Thermal environment of the incoming line."""

    temperature: float

    def __post_init__(self):
        check_fields(self, "environment", non_negative=("temperature",))
        object.__setattr__(self, "temperature", self.temperature + 0.0)  # -0.0 -> +0.0, so T = 0 gives x = +inf


@dataclass(frozen=True, repr=False, eq=False)
class SpectrumTable:
    """Column-oriented spectrum: one row per grid frequency.

    With lanes the occupation columns carry the lane axes before the grid
    axis; omega and flag_codes stay one entry per grid frequency.
    """

    omega: np.ndarray
    n_total: np.ndarray
    n_dce: np.ndarray
    n_thermal: np.ndarray
    n_mech_only: np.ndarray
    flag_codes: np.ndarray  # uint8 indices into FLAGS

    @property
    def flags(self) -> tuple[str, ...]:
        """The flag text of each row, built from flag_codes at each access."""
        return tuple(map(FLAGS.__getitem__, self.flag_codes.tolist()))


def thermal_occupation(omega, env: ThermalEnv):
    """Bose-Einstein occupation 1/(exp(hbar*omega/(k_B T)) - 1); exactly +0.0 at T = 0, where x = inf."""
    w = positive_frequencies(omega)
    with np.errstate(over="ignore", divide="ignore"):  # x = inf (T = 0, or k_B*T underflows) is the x > 700 regime
        x = HBAR * w / (K_B * env.temperature)
    return np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))


def _resolve_guard_collisions(grid: np.ndarray, cfg: SourceConfig, step=None) -> tuple[np.ndarray, np.ndarray]:
    # shift points at guard-band edges of scatter.tones outward by one grid step; tag what moved by
    # its code in FLAGS. Each tone shifts from the original point, and a later tone overrides an earlier one.
    codes = np.zeros(len(grid), np.uint8)
    guard = guard_band(cfg.window_time)
    if step is None:
        step = grid[1] - grid[0] if len(grid) > 1 else guard
    out = grid.copy()
    for _, nu, _ in tones(cfg):
        idx = np.flatnonzero(np.abs(grid - nu) < guard)
        w = grid[idx]
        shifted = np.where(w >= nu, w + step, w - step)
        blocked = np.abs(shifted - nu) < guard
        out[idx[~blocked]] = shifted[~blocked]
        codes[idx[blocked]] = 2  # guard-band
        codes[idx[~blocked]] = 1  # guard-shifted
    return out, codes


def _on_grid(column, live):
    """A column over the live grid points, spread over the whole grid (last axis) with NaN elsewhere."""
    if live.all():
        return column
    out = np.full(column.shape[:-1] + live.shape, np.nan)
    out[..., live] = column
    return out


def output_spectrum(
    grid, cav: CavityParams, cfg: SourceConfig, line: LineParams, env: ThermalEnv, step=None
) -> SpectrumTable:
    """Assemble the output spectrum over a strictly increasing grid in (0, W).

    Grid points that collide with a coherent-line guard band are shifted
    outward by step (by default grid[1] - grid[0], or the guard band for one
    point) and flagged "guard-shifted"; points that cannot be moved clear are
    flagged "guard-band" and are not evaluated: only the live rows are, and
    the guard-band rows get NaN in every occupation column. Every row depends
    only on its own grid point and the step, so a grid evaluated in blocks with
    the whole grid's step gives the whole grid's bits.

    Lanes in cfg or line (a column array in delta_c, v_pp or z0) broadcast
    against the grid. Guard bands come from the tones any lane keeps; away
    from them each lane gets the bits of its own scalar evaluation. A lane
    that overflows, or comes out non-finite or negative beyond round-off,
    fails the whole call with NumericalError.
    """
    om = cfg.cap.omega_m
    w = positive_frequencies(grid, below=om)
    if w.ndim != 1 or len(w) == 0:
        raise ConfigError("grid must be a non-empty 1-d array")
    if not np.all(np.diff(w) > 0.0):
        raise ConfigError("grid must be strictly increasing")
    try:  # an overflowing or invalid evaluation is one NumericalError, not numpy warnings
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            omega, codes = _resolve_guard_collisions(w, cfg, step)
            live = codes != 2  # not guard-band
            w = omega[live]
            # |R|^2, |S1|^2, |S2|^2, |h_res|^2 and the delta_c = 0 |h_res|^2
            r_sq, s1_sq, s2_sq, h_sq, h_static_sq = (np.abs(c) ** 2 for c in dressed_coefficients(w, cav, cfg, line))

            n_in, n_in_up, n_in_down = thermal_occupation(np.stack([w, om + w, om - w]), env)

            n_thermal = r_sq * n_in + s1_sq * n_in_up + s2_sq * n_in_down
            n_dce = s2_sq + h_sq
            n_total = r_sq * n_in + s1_sq * n_in_up + s2_sq * (1.0 + n_in_down) + h_sq

            # removed-modulation reference: delta_c = 0, source still connected
            n_mech_only = n_dce - h_static_sq
    except FloatingPointError as exc:
        raise NumericalError(f"floating-point breakdown in the spectrum evaluation: {exc}") from exc
    # a lane field that enters only some terms leaves the others without its axes
    n_total, n_dce, n_thermal, n_mech_only = np.broadcast_arrays(n_total, n_dce, n_thermal, n_mech_only)
    finite = np.isfinite(n_total) & np.isfinite(n_dce) & np.isfinite(n_thermal) & np.isfinite(n_mech_only)
    if not finite.all():
        raise NumericalError(f"non-finite occupation at {int(np.sum(~finite))} rows")
    bad = n_mech_only < _NEGATIVE_ROUNDOFF_FLOOR
    if np.any(bad):
        raise NumericalError(f"mechanical-only flux negative beyond round-off at {int(np.sum(bad))} rows")
    n_mech_only = np.maximum(n_mech_only, 0.0)

    return SpectrumTable(
        omega=omega,
        n_total=_on_grid(n_total, live),
        n_dce=_on_grid(n_dce, live),
        n_thermal=_on_grid(n_thermal, live),
        n_mech_only=_on_grid(n_mech_only, live),
        flag_codes=codes,
    )
