"""Output photon spectral density and its decompositions.

Per observation frequency the outgoing occupation density is

    n_total = |R|^2 n_in(w) + |S1|^2 n_in(W+w) + |S2|^2 (1 + n_in(W-w)) + |h_res|^2

with W the modulation frequency and n_in the Bose-Einstein occupation of the
incoming line. The vacuum-sourced part n_dce = |S2|^2 + |h_res|^2 survives at
zero temperature; n_thermal collects the occupation-driven terms, and
n_mech_only is the flux lost when the mechanical modulation is removed
(delta_c = 0) while the voltage source stays connected.

All five coefficient magnitudes come from one call of
cavity.dressed_coefficients per spectrum. The S-type terms are
window-independent occupation densities; the h term uses the steady
(window-independent) part of the source spectrum, with the coherent drive
lines accounted separately via scatter.line_weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cavity import CavityParams, dressed_coefficients, mode_response
from .constants import HBAR, K_B
from .errors import ConfigError, NumericalError
from .scatter import LineParams, SourceConfig, h_coefficient, s_coefficient

_NEGATIVE_ROUNDOFF_FLOOR = -1e-15


@dataclass(frozen=True)
class ThermalEnv:
    """Thermal environment of the incoming line."""

    temperature: float

    def __post_init__(self):
        if self.temperature < 0.0:
            raise ConfigError("environment temperature must be non-negative")


@dataclass(frozen=True)
class SpectrumTable:
    """Column-oriented spectrum: one row per grid frequency."""

    omega: np.ndarray
    n_total: np.ndarray
    n_dce: np.ndarray
    n_thermal: np.ndarray
    n_mech_only: np.ndarray
    flags: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.omega)


class ScalingReport(NamedTuple):
    s_ratio: float
    h_ratio: float
    mech_flux_ratio: float
    mech_electrical_improvement: float


class ScalingExponents(NamedTuple):
    exponent_delta_x: float
    exponent_v_light: float


def thermal_occupation(omega, env: ThermalEnv):
    """Bose-Einstein occupation 1/(exp(hbar*omega/(k_B T)) - 1); zero at T = 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ConfigError("omega must be strictly positive (occupation diverges at 0)")
    if env.temperature == 0.0:
        out = np.zeros_like(w)
        return float(out) if np.ndim(omega) == 0 else out
    x = HBAR * w / (K_B * env.temperature)
    out = np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))
    return float(out) if np.ndim(omega) == 0 else out


def _resolve_guard_collisions(grid: np.ndarray, cfg: SourceConfig) -> tuple[np.ndarray, np.ndarray]:
    # shift points at guard-band edges outward by one grid step; tag what moved.
    # Each tone shifts from the original point, and a later tone overrides an earlier one.
    flags = np.full(len(grid), "", dtype="<U13")
    if cfg.drive.v_pp == 0.0:
        return grid, flags
    step = grid[1] - grid[0] if len(grid) > 1 else cfg.guard_band
    tones = [cfg.drive.omega_d, cfg.cap.omega_m + cfg.drive.omega_d, cfg.cap.omega_m - cfg.drive.omega_d]
    tones = [abs(nu) for nu in tones if nu != 0.0]
    out = grid.copy()
    for nu in tones:
        near = np.abs(grid - nu) < cfg.guard_band
        if not near.any():
            continue
        idx = np.flatnonzero(near)
        w = grid[idx]
        shifted = np.where(w >= nu, w + step, w - step)
        blocked = np.abs(shifted - nu) < cfg.guard_band
        out[idx[~blocked]] = shifted[~blocked]
        flags[idx[blocked]] = "guard-band"
        flags[idx[~blocked]] = "guard-shifted"
    return out, flags


def output_spectrum(
    grid, cav: CavityParams, cfg: SourceConfig, line: LineParams, env: ThermalEnv
) -> SpectrumTable:
    """Assemble the output spectrum over a strictly increasing grid in (0, W).

    Grid points that collide with a coherent-line guard band are shifted
    outward by one grid step and flagged "guard-shifted"; points that cannot
    be moved clear are flagged "guard-band" and are not evaluated (NaN in
    every occupation column).
    """
    w = np.asarray(grid, dtype=float)
    om = cfg.cap.omega_m
    if w.ndim != 1 or len(w) == 0:
        raise ConfigError("grid must be a non-empty 1-d array")
    if np.any(np.diff(w) <= 0.0):
        raise ConfigError("grid must be strictly increasing")
    if w[0] <= 0.0 or w[-1] >= om:
        raise ConfigError("grid must lie strictly inside (0, modulation frequency)")
    w, flags = _resolve_guard_collisions(w, cfg)
    live = flags != "guard-band"
    # |R|^2, |S1|^2, |S2|^2, |h_res|^2 and the delta_c = 0 |h_res|^2; NaN on guard-band rows
    r_sq, s1_sq, s2_sq, h_sq, h_static_sq = np.full((5, len(w)), np.nan)
    if np.any(live):
        r_sq[live], s1_sq[live], s2_sq[live], h_sq[live], h_static_sq[live] = (
            np.abs(c) ** 2 for c in dressed_coefficients(w[live], cav, cfg, line)
        )

    n_in = thermal_occupation(w, env)
    n_in_up = thermal_occupation(om + w, env)
    n_in_down = thermal_occupation(om - w, env)

    n_thermal = r_sq * n_in + s1_sq * n_in_up + s2_sq * n_in_down
    n_dce = s2_sq + h_sq
    n_total = r_sq * n_in + s1_sq * n_in_up + s2_sq * (1.0 + n_in_down) + h_sq

    # removed-modulation reference: delta_c = 0, source still connected
    n_mech_only = n_dce - h_static_sq
    bad = n_mech_only[live] < _NEGATIVE_ROUNDOFF_FLOOR
    if np.any(bad):
        raise NumericalError(
            f"mechanical-only flux negative beyond round-off at {int(np.sum(bad))} grid points"
        )
    n_mech_only = np.where(np.isnan(n_mech_only), n_mech_only, np.maximum(n_mech_only, 0.0))

    return SpectrumTable(
        omega=w,
        n_total=n_total,
        n_dce=n_dce,
        n_thermal=n_thermal,
        n_mech_only=n_mech_only,
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
    if delta_x < 0.0 or omega_m <= 0.0 or v_light <= 0.0:
        raise ConfigError("vc_ratio requires delta_x >= 0 and positive frequencies/speeds")
    return delta_x * omega_m / v_light


def resonant_rate_scaling(cav: CavityParams, cfg: SourceConfig, line: LineParams) -> ScalingExponents:
    """Fitted scaling exponents of the mechanical flux at half the modulation frequency.

    Doubling the motional amplitude doubles delta_c, so the mechanical flux
    |S2_res|^2 should fit an exponent of exactly 2 versus delta_x; holding the
    line's capacitance density fixed while varying the signal speed scales
    z0 = 1/(cap_density * v) inversely, so the same flux fits an exponent of
    -2 versus v_light. Dressing is held fixed in both fits.
    """
    probe = cfg.cap.omega_m / 2.0
    om = cfg.cap.omega_m
    dressing = abs(np.conj(mode_response(probe, cav)) * mode_response(om - probe, cav)) ** 2

    multipliers = np.array([1.0, 2.0, 4.0])
    flux_dx = np.array(
        [
            abs(s_coefficient(m * cfg.cap.delta_c, line.z0, probe, om - probe)) ** 2 * dressing
            for m in multipliers
        ]
    )
    exp_dx = float(np.polyfit(np.log(multipliers), np.log(flux_dx), 1)[0])

    speeds = np.array([line.v_light, 2.0 * line.v_light])
    flux_v = np.array(
        [
            abs(s_coefficient(cfg.cap.delta_c, 1.0 / (line.cap_density * v), probe, om - probe)) ** 2
            * dressing
            for v in speeds
        ]
    )
    exp_v = float(np.polyfit(np.log(speeds), np.log(flux_v), 1)[0])
    return ScalingExponents(exponent_delta_x=exp_dx, exponent_v_light=exp_v)
