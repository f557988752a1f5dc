"""Single-mirror scattering off a harmonically modulated terminating capacitance.

The modulated capacitance C(t) = c0 + delta_c*cos(omega_m*t), charged by the
AC drive, acts as a moving mirror for the transmission line. This module
computes the spectrum of the mirror's source term F(t) = d/dt[theta(t) C(t) V(t)]
and the bare inelastic coefficients that feed the cavity dressing: the
frequency-mixing amplitude s and the drive-sourced amplitude h.

Spectral conventions
--------------------
The turn-on transform (2*pi)^(-1/2) * Integral_0^T F(t) exp(i*omega*t) dt
splits, as T -> infinity, into coherent lines at the drive tones plus a smooth
steady part; `source_spectrum` returns that steady part (independent of the
window). Frequencies within guard_band = 100/window_time of a tone are
line-dominated and rejected for continuous-part evaluation. The closed form
for a finite window and the integrated line strengths, against which the
tests check the steady part, are in `tests/paper_checks.py`.

Types
-----
`TimeVaryingCap`, `LineParams` and `SourceConfig` hold values and check
nothing: `scenario.source_config` and the loader check the bounds on what goes
into them, as rows of `scenario._BOUNDS`.

Lanes
-----
`TimeVaryingCap.delta_c`, `DriveParams.v_pp` and `LineParams.z0` may each hold
an array of lanes, one configuration per entry, for example shape (n, 1).
`tones`, `source_spectrum`, `s_coefficient` and `h_coefficient` broadcast the
lanes against their frequency array with the same elementwise operations as
a scalar field, so every lane gives the bits of its own scalar evaluation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import HBAR, TWO_PI
from .errors import GuardBandError, positive_frequencies
from .piezo import DriveParams

_SQRT_2PI = math.sqrt(TWO_PI)


class TimeVaryingCap(NamedTuple):
    """Harmonically modulated capacitance c0 + delta_c*cos(omega_m*t); delta_c may hold lanes."""

    c0: float
    delta_c: float
    omega_m: float


class LineParams(NamedTuple):
    """Transmission-line parameters: characteristic impedance and signal speed; z0 may hold lanes."""

    z0: float
    v_light: float

    @property
    def cap_density(self) -> float:
        """Capacitance per unit length 1/(v_light*z0) [F/m]."""
        return 1.0 / (self.v_light * self.z0)


class SourceConfig(NamedTuple):
    """Drive + modulated capacitance + finite observation window (more than 100 modulation periods)."""

    drive: DriveParams
    cap: TimeVaryingCap
    window_time: float


def guard_band(window_time: float) -> float:
    """Half-width [rad/s] of the line-dominated neighborhood of each tone."""
    return 100.0 / window_time


def effective_length(c0: float, line: LineParams) -> float:
    """Apparent extra line length of the terminating capacitance, c0 / cap_density [m]."""
    return c0 / line.cap_density


def s_coefficient(delta_c: float, z0: float, omega1, omega2):
    """Frequency-mixing amplitude -i * delta_c * z0 * sqrt(omega1*omega2).

    Zero whenever either frequency is non-positive (step-function convention
    with theta(0) = 0); symmetric in its two frequencies.
    """
    w1 = np.asarray(omega1, dtype=float)
    w2 = np.asarray(omega2, dtype=float)
    active = (w1 > 0.0) & (w2 > 0.0)
    return np.where(active, -1j * delta_c * z0 * np.sqrt(np.abs(w1) * np.abs(w2)), 0.0 + 0.0j)


def tones(cfg: SourceConfig) -> list[tuple[float, float, float]]:
    """Sinusoid decomposition of C(t)V(t): list of (amplitude, frequency, phase).

    C(t)V(t) = sum_k A_k * cos(nu_k*t + phi_k) with the product cosine split
    into sum and difference tones. Tones at zero frequency or zero amplitude
    carry no weight in the derivative and are dropped. With lanes a tone stays
    when any lane's amplitude is non-zero; the lanes where it is zero then add
    exact zeros. This is the one tone list: the source terms, the line weights
    and the flux guard bands use it.
    """
    drv, cap = cfg.drive, cfg.cap
    raw = [
        (cap.c0 * drv.v_pp, drv.omega_d, drv.phase),
        (cap.delta_c * drv.v_pp / 2.0, cap.omega_m + drv.omega_d, drv.phase),
        (cap.delta_c * drv.v_pp / 2.0, cap.omega_m - drv.omega_d, -drv.phase),
    ]
    kept = []
    for amp, nu, phi in raw:
        if nu < 0.0:  # cos is even: fold onto a positive frequency
            nu, phi = -nu, -phi
        if np.any(amp != 0.0) and nu != 0.0:
            kept.append((amp, nu, phi))
    return kept


def _turn_on_jump(cfg: SourceConfig) -> float:
    """Discontinuity of theta(t)C(t)V(t) at t = 0, i.e. C(0)V(0)."""
    return (cfg.cap.c0 + cfg.cap.delta_c) * cfg.drive.v_pp * math.cos(cfg.drive.phase)


def source_spectrum(cfg: SourceConfig, omega):
    """Steady (window-independent) part of the source transform at omega > 0.

    This is the smooth principal-value component left after the coherent
    lines at the drive tones are split off; it is what the photon-flux
    assembly consumes. Raises GuardBandError within guard_band of any tone.
    Lanes of the configuration broadcast against omega.
    """
    w = positive_frequencies(omega)
    jump = _turn_on_jump(cfg)
    total = np.full(np.broadcast_shapes(w.shape, np.shape(jump)), jump, dtype=complex)
    guard = guard_band(cfg.window_time)
    for amp, nu, phi in tones(cfg):
        if np.any(np.abs(w - nu) < guard):
            raise GuardBandError(f"omega within guard band ({guard:.3e} rad/s) of drive tone at {nu:.6e} rad/s")
        total = total - (amp * nu / 2.0) * (
            np.exp(1j * phi) / (w + nu) - np.exp(-1j * phi) / (w - nu)
        )
    return total / _SQRT_2PI


def h_coefficient(omega, cfg: SourceConfig, line: LineParams):
    """Drive-sourced emission amplitude -i * sqrt(4*pi*z0/(hbar*omega)) * source_spectrum."""
    spectrum = source_spectrum(cfg, omega)  # checks omega, so it runs first
    return -1j * np.sqrt(4.0 * math.pi * line.z0 / (HBAR * omega)) * spectrum
