"""Cavity dressing of the bare mirror scattering.

A coupling capacitor connects the transmission line to a cavity section of
length length_d terminated by the modulated mirror; the mirror's capacitance
adds an effective length l_eff, so the round-trip phase is set by
d_eff = length_d + l_eff. This module provides the cavity reflection
coefficient, the internal mode response, a guaranteed-bracketing resonance
solver, and `dressed_coefficients`: the one evaluation of the cavity-dressed
R, S1, S2 and h over a frequency array that the flux assembly consumes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import TWO_PI
from .errors import ConfigError, ConvergenceError, UnderflowError, positive_frequencies
from .scatter import LineParams, SourceConfig, h_coefficient, s_coefficient

_MAX_REFINE_ITERATIONS = 200
_RESIDUAL_RTOL = 1e-9  # on |tan(k*d_eff) - omega_c/omega| relative to omega_c/omega


class CavityParams(NamedTuple):
    """Cavity geometry and coupling; d_eff and omega_0 are derived by `cavity_params`, its one builder."""

    length_d: float
    v_light: float
    omega_coupling: float
    l_eff: float
    d_eff: float
    omega_0: float


def cavity_params(length_d: float, v_light: float, omega_coupling: float, l_eff: float) -> CavityParams:
    """The cavity with d_eff = length_d + l_eff and omega_0 = 2*pi*v_light/d_eff.

    omega_0 is the frequency whose round-trip phase advance through d_eff is one full turn.
    """
    d_eff = length_d + l_eff
    return CavityParams(length_d, v_light, omega_coupling, l_eff, d_eff, TWO_PI * v_light / d_eff)


class DressedCoefficients(NamedTuple):
    """Cavity-dressed coefficients, one entry per observation frequency."""

    r_res: np.ndarray
    s1_res: np.ndarray
    s2_res: np.ndarray
    h_res: np.ndarray
    h_res_static: np.ndarray  # h_res with the modulation removed (delta_c = 0)


def _denominator(omega, cav: CavityParams):
    """(e^{2ikd_eff}, den) over a checked float array: the round-trip phase and den = (1 - 2i*omega/omega_c) + it."""
    trip = np.exp(2j * omega * cav.d_eff / cav.v_light)
    den = (1.0 - 2j * omega / cav.omega_coupling) + trip
    if np.any(np.abs(den) < 1e-14):
        raise UnderflowError("cavity denominator below 1e-14")
    return trip, den


def _reflection(trip, den):
    """Reflection e^{2ikd_eff} * conj(den)/den over a precomputed phase factor and denominator."""
    # with both factors named, numpy writes the product to a new array; written over a factor it can round apart
    ratio = np.conj(den) / den
    return trip * ratio


def _mode(w, den, cav: CavityParams):
    """Mode response (2i*omega/omega_c) e^{ikd_eff} / den over a precomputed denominator."""
    return (2j * w / cav.omega_coupling) * np.exp(1j * w * cav.d_eff / cav.v_light) / den


def reflection_coefficient(omega, cav: CavityParams):
    """Cavity reflection coefficient; unimodular for the lossless cavity.

    Algebraically the numerator 1 + (1 + 2i*omega/omega_c) e^{2ikd} equals
    e^{2ikd} * conj(denominator), so the coefficient is evaluated in that
    form and |R| = 1 holds to rounding for every omega.
    """
    return _reflection(*_denominator(positive_frequencies(omega), cav))


def mode_response(omega, cav: CavityParams):
    """Internal-mode response (2i*omega/omega_c) e^{ikd_eff} / denominator.

    Peaks at the cavity resonances; vanishes in the decoupled limit
    omega_coupling >> omega.
    """
    w = positive_frequencies(omega)
    return _mode(w, _denominator(w, cav)[1], cav)


def _resonance_mismatch(omega: float, cav: CavityParams) -> float:
    """tan(2*pi*omega/omega_0) - omega_c/omega.

    Nothing steps off the tangent poles: math.tan is finite on every float, and
    the 1e-9*omega_0 branch padding of cavity_resonances keeps its evaluations away.
    """
    return math.tan(TWO_PI * omega / cav.omega_0) - cav.omega_coupling / omega


def cavity_resonances(cav: CavityParams, band: tuple[float, float]) -> list[float]:
    """All resonances in `band`: roots of tan(2*pi*omega/omega_0) = omega_c/omega.

    The mismatch function is strictly increasing on every tangent branch
    (interval between consecutive poles), so bracketing each branch's
    intersection with the band and refining with Brent's method finds every
    root exactly once. Returned roots are strictly increasing and satisfy
    |tan - omega_c/omega| < 1e-9 * (omega_c/omega).

    The refinement is `brent.find_root`, a port of SciPy 1.17's `brentq` that
    gives the same bits (checked by `tests/test_brent.py`), followed by a
    Newton polish.
    """
    from . import brent
    lo, hi = band
    if not (0.0 < lo < hi):
        raise ConfigError("band must satisfy 0 < lower < upper")
    quarter = cav.omega_0 / 4.0  # branch n spans ((2n-1), (2n+1)) quarter-periods
    pad = 1e-9 * cav.omega_0
    roots: list[float] = []
    n = 0
    while (2 * n - 1) * quarter < hi:
        branch_lo = max((2 * n - 1) * quarter + pad, 1e-12 * cav.omega_0)
        branch_hi = (2 * n + 1) * quarter - pad
        a, b = max(branch_lo, lo), min(branch_hi, hi)
        n += 1
        if a >= b:
            continue
        ga = _resonance_mismatch(a, cav)
        gb = _resonance_mismatch(b, cav)
        if not (ga < 0.0 < gb):  # monotone on the branch: no sign change, no root
            continue
        try:
            root = brent.find_root(lambda w: _resonance_mismatch(w, cav), a, b, 1e-3, _MAX_REFINE_ITERATIONS)
        except ConvergenceError as exc:
            raise ConvergenceError(f"resonance refinement failed in ({a:.6e}, {b:.6e})") from exc
        # Newton polish down to the floating-point floor; the mismatch slope
        # (2*pi/omega_0)*sec^2 + omega_c/omega^2 is strictly positive on a branch
        for _ in range(3):
            g = _resonance_mismatch(root, cav)
            tan_x = g + cav.omega_coupling / root
            slope = (TWO_PI / cav.omega_0) * (1.0 + tan_x**2) + cav.omega_coupling / root**2
            step = g / slope
            if not a <= root - step <= b:
                break
            root -= step
        target = cav.omega_coupling / root
        if abs(_resonance_mismatch(root, cav)) >= _RESIDUAL_RTOL * target:
            raise ConvergenceError(f"resonance residual above tolerance at omega = {root:.6e}")
        roots.append(root)
    return roots


def resonance_residual(omega: float, cav: CavityParams) -> float:
    """|tan(2*pi*omega/omega_0) - omega_c/omega| at a candidate resonance."""
    return abs(_resonance_mismatch(omega, cav))


def dressed_coefficients(
    omega, cav: CavityParams, cfg: SourceConfig, line: LineParams
) -> DressedCoefficients:
    """Cavity-dressed coefficients over frequencies 0 < omega < modulation frequency.

    The cavity denominator at omega is evaluated once and shared by the
    reflection (with its round-trip phase), the self-frequency mode response
    and both drive-sourced terms.
    The upper-sideband mixing amplitude is dressed by the mode response at
    omega and omega_m + omega, the lower sideband by the conjugated response
    at omega and the response at omega_m - omega, and the drive-sourced term
    (with and without the capacitance modulation) by the inverse denominator.
    At v_pp = 0 there are no tones and no turn-on jump, so both drive-sourced
    terms come out exactly zero from the same formula. Lanes in delta_c, v_pp
    or z0 broadcast against omega in the mixing and drive-sourced terms, while
    the denominator, the reflection and the mode responses depend on omega
    alone and are evaluated once for all lanes.
    Raises UnderflowError when ||R| - 1| > 1e-10 (the lossless-cavity invariant).
    """
    om = cfg.cap.omega_m
    w = positive_frequencies(omega, below=om)
    trip, den = _denominator(w, cav)
    r = _reflection(trip, den)
    defect = np.abs(np.abs(r) - 1.0)
    if not np.all(defect <= 1e-10):  # NaN fails too
        raise UnderflowError(
            f"lossless-reflection invariant violated: max ||R| - 1| = {float(np.max(defect))}"
        )
    a_self = _mode(w, den, cav)
    s1 = s_coefficient(cfg.cap.delta_c, line.z0, w, om + w) * a_self * mode_response(om + w, cav)
    s2 = s_coefficient(cfg.cap.delta_c, line.z0, w, om - w) * np.conj(a_self) * mode_response(om - w, cav)
    static = cfg._replace(cap=cfg.cap._replace(delta_c=0.0))
    h = h_coefficient(w, cfg, line) / den
    h_static = h_coefficient(w, static, line) / den
    return DressedCoefficients(r, s1, s2, h, h_static)
