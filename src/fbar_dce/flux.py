"""Output photon spectral density and its decompositions.

Per observation frequency the outgoing occupation density is

    n_total = |R|^2 n_in(w) + |S1|^2 n_in(W+w) + |S2|^2 (1 + n_in(W-w)) + |h_res|^2

with W the modulation frequency and n_in the Bose-Einstein occupation of the
incoming line. The vacuum-sourced part n_dce = |S2|^2 + |h_res|^2 survives at
zero temperature; n_thermal collects the occupation-driven terms, and
n_mech_only is the flux lost when the mechanical modulation is removed
(delta_c = 0) while the voltage source stays connected.

Only live rows are evaluated: all five coefficient magnitudes come from one
call of cavity.dressed_coefficients per output_spectrum call, on the grid
points outside the coherent-line guard bands. That call covers every lane
when the configuration's delta_c, v_pp or z0 holds an array of lanes (see
scatter), so a parameter sweep is one spectrum pass: guard resolution, the
cavity denominator, the mode responses and the thermal occupations run once
for all its values. The S-type terms are window-independent occupation
densities; the h term uses the steady (window-independent) part of the source
spectrum, with the coherent drive lines accounted separately via
scatter.line_weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .cavity import CavityParams, dressed_coefficients
from .constants import HBAR, K_B
from .errors import ConfigError, NumericalError, check_fields, positive_frequencies
from .scatter import LineParams, SourceConfig, guard_band, h_coefficient, s_coefficient, tones

_NEGATIVE_ROUNDOFF_FLOOR = -1e-15


@dataclass(frozen=True)
class ThermalEnv:
    """Thermal environment of the incoming line."""

    temperature: float

    def __post_init__(self):
        check_fields(self, "environment", non_negative=("temperature",))
        object.__setattr__(self, "temperature", self.temperature + 0.0)  # -0.0 -> +0.0, so T = 0 gives x = +inf


@dataclass(frozen=True)
class SpectrumTable:
    """Column-oriented spectrum: one row per grid frequency.

    With lanes the occupation columns carry the lane axes before the grid
    axis; omega and flags stay one entry per grid frequency.
    """

    omega: np.ndarray
    n_total: np.ndarray
    n_dce: np.ndarray
    n_thermal: np.ndarray
    n_mech_only: np.ndarray
    flags: tuple[str, ...]


class ScalingReport(NamedTuple):
    s_ratio: float
    h_ratio: float
    mech_flux_ratio: float
    mech_electrical_improvement: float


class ScalingExponents(NamedTuple):
    exponent_delta_x: float
    exponent_v_light: float


def thermal_occupation(omega, env: ThermalEnv):
    """Bose-Einstein occupation 1/(exp(hbar*omega/(k_B T)) - 1); exactly +0.0 at T = 0, where x = inf."""
    w = positive_frequencies(omega)
    with np.errstate(over="ignore", divide="ignore"):  # x = inf (T = 0, or k_B*T underflows) is the x > 700 regime
        x = HBAR * w / (K_B * env.temperature)
    return np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))


def _resolve_guard_collisions(grid: np.ndarray, cfg: SourceConfig) -> tuple[np.ndarray, np.ndarray]:
    # shift points at guard-band edges of scatter.tones outward by one grid step; tag what
    # moved. Each tone shifts from the original point, and a later tone overrides an earlier one.
    flags = np.full(len(grid), "", dtype="<U13")
    guard = guard_band(cfg.window_time)
    step = grid[1] - grid[0] if len(grid) > 1 else guard
    out = grid.copy()
    for _, nu, _ in tones(cfg):
        idx = np.flatnonzero(np.abs(grid - nu) < guard)
        w = grid[idx]
        shifted = np.where(w >= nu, w + step, w - step)
        blocked = np.abs(shifted - nu) < guard
        out[idx[~blocked]] = shifted[~blocked]
        flags[idx[blocked]] = "guard-band"
        flags[idx[~blocked]] = "guard-shifted"
    return out, flags


def _on_grid(column, live):
    """A column over the live grid points, spread over the whole grid (last axis) with NaN elsewhere."""
    out = np.full(column.shape[:-1] + live.shape, np.nan)
    out[..., live] = column
    return out


def output_spectrum(
    grid, cav: CavityParams, cfg: SourceConfig, line: LineParams, env: ThermalEnv
) -> SpectrumTable:
    """Assemble the output spectrum over a strictly increasing grid in (0, W).

    Grid points that collide with a coherent-line guard band are shifted
    outward by one grid step and flagged "guard-shifted"; points that cannot
    be moved clear are flagged "guard-band" and are not evaluated: only the
    live rows are, and the guard-band rows get NaN in every occupation column.

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
            omega, flags = _resolve_guard_collisions(w, cfg)
            live = flags != "guard-band"
            w = omega[live]
            # |R|^2, |S1|^2, |S2|^2, |h_res|^2 and the delta_c = 0 |h_res|^2
            r_sq, s1_sq, s2_sq, h_sq, h_static_sq = (np.abs(c) ** 2 for c in dressed_coefficients(w, cav, cfg, line))

            n_in = thermal_occupation(w, env)
            n_in_up = thermal_occupation(om + w, env)
            n_in_down = thermal_occupation(om - w, env)

            n_thermal = r_sq * n_in + s1_sq * n_in_up + s2_sq * n_in_down
            n_dce = s2_sq + h_sq
            n_total = r_sq * n_in + s1_sq * n_in_up + s2_sq * (1.0 + n_in_down) + h_sq

            # removed-modulation reference: delta_c = 0, source still connected
            n_mech_only = n_dce - h_static_sq
    except FloatingPointError as exc:
        raise NumericalError(f"floating-point breakdown in the spectrum evaluation: {exc}") from exc
    # a lane field that enters only some terms leaves the others without its axes
    n_total, n_dce, n_thermal, n_mech_only = np.broadcast_arrays(n_total, n_dce, n_thermal, n_mech_only)
    overflow = ~np.isfinite(np.stack([n_total, n_dce, n_thermal, n_mech_only]))
    if np.any(overflow):
        raise NumericalError(f"non-finite occupation at {int(np.sum(overflow.any(axis=0)))} rows")
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
        flags=tuple(flags.tolist()),
    )


def impedance_scaling_check(
    cav: CavityParams, cfg: SourceConfig, line: LineParams, factor: float
) -> ScalingReport:
    """Measured response of the bare coefficients to scaling z0 by `factor`.

    The mixing amplitude is linear in z0 and the drive-sourced amplitude goes
    as sqrt(z0), so the mechanical flux (quadratic in the mixing amplitude)
    gains factor^2 while the mechanical-to-electrical flux ratio improves by
    factor. Cavity dressing is held fixed: only the line impedance prefactors
    are rescaled.
    """
    if not factor > 0.0:
        raise ConfigError("factor must be strictly positive")
    if cfg.drive.v_pp == 0.0:
        raise ConfigError("impedance scaling ratios undefined for v_pp = 0")
    probe = cfg.cap.omega_m / 2.0
    scaled_line = LineParams(z0=line.z0 * factor, v_light=line.v_light)
    s_base = abs(s_coefficient(cfg.cap.delta_c, line.z0, probe, cfg.cap.omega_m + probe))
    s_scaled = abs(s_coefficient(cfg.cap.delta_c, scaled_line.z0, probe, cfg.cap.omega_m + probe))
    h_base = abs(h_coefficient(probe, cfg, line))
    h_scaled = abs(h_coefficient(probe, cfg, scaled_line))
    s_ratio = s_scaled / s_base
    h_ratio = h_scaled / h_base
    return ScalingReport(
        s_ratio=s_ratio,
        h_ratio=h_ratio,
        mech_flux_ratio=s_ratio**2,
        mech_electrical_improvement=s_ratio**2 / h_ratio**2,
    )


def vc_ratio(delta_x: float, omega_m: float, v_light: float) -> float:
    """Peak mirror velocity over signal speed: delta_x * omega_m / v_light."""
    if not (delta_x >= 0.0 and omega_m > 0.0 and v_light > 0.0):
        raise ConfigError("vc_ratio requires delta_x >= 0 and positive frequencies/speeds")
    return delta_x * omega_m / v_light


def resonant_rate_scaling(cav: CavityParams, cfg: SourceConfig, line: LineParams) -> ScalingExponents:
    """Fitted scaling exponents of the mechanical flux at half the modulation frequency.

    Doubling the motional amplitude doubles delta_c, so the mechanical flux
    |S2_res|^2 should fit an exponent of exactly 2 versus delta_x; holding the
    line's capacitance density fixed while varying the signal speed scales
    z0 = 1/(cap_density * v) inversely, so the same flux fits an exponent of
    -2 versus v_light. Dressing is held fixed in both fits, and each point is
    |S2_res|^2 of `dressed_coefficients`, the evaluation the spectrum uses.
    """
    probe = np.array([cfg.cap.omega_m / 2.0])

    def mech_flux(delta_c: float, scaled_line: LineParams) -> float:
        scaled_cfg = replace(cfg, cap=replace(cfg.cap, delta_c=delta_c))
        return abs(dressed_coefficients(probe, cav, scaled_cfg, scaled_line).s2_res[0]) ** 2

    multipliers = np.array([1.0, 2.0, 4.0])
    flux_dx = [mech_flux(m * cfg.cap.delta_c, line) for m in multipliers]
    exp_dx = float(np.polyfit(np.log(multipliers), np.log(flux_dx), 1)[0])

    speeds = np.array([line.v_light, 2.0 * line.v_light])
    flux_v = [mech_flux(cfg.cap.delta_c, LineParams(z0=1.0 / (line.cap_density * v), v_light=v)) for v in speeds]
    exp_v = float(np.polyfit(np.log(speeds), np.log(flux_v), 1)[0])
    return ScalingExponents(exponent_delta_x=exp_dx, exponent_v_light=exp_v)
