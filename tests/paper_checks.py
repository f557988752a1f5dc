"""Closed forms of the paper's claims that no `fbar-dce` command runs.

This module holds the film's static response and off-resonant
susceptibility, the MBVD equivalent circuit's elements, impedances, resonances
and quality factor, the time-domain source term, the windowed turn-on transform
and the coherent-line weights of the mirror source, the coupling element's
transfer matrix, the impedance and rate scaling laws, and the series
expansion of the parametric model's inverse capacitance. The unit tests and
the acceptance criteria check them against the package, and several are the
independent routes of their oracles, for example the windowed transform that
the FFT check compares with. They live here, outside the package they check,
so that every function in `src/` is one a command runs. The scenario numbers
that only these checks read (the circuit's elements but the plate
capacitance, the film's Poisson ratio, sound speed and permittivity, the
electrode area) are taken from the scenario's raw mapping.

Nothing here re-derives a formula of the package: the tone list, the turn-on
jump, the bare coefficients and the dressed coefficients are imported from
it. Import this module from a test as `paper_checks` (pytest puts `tests/`
on the import path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from fbar_dce.cavity import CavityParams, dressed_coefficients
from fbar_dce.errors import ConfigError, UnderflowError, check_fields, positive_frequencies
from fbar_dce.piezo import FbarGeometry, MaterialProps
from fbar_dce.scatter import (
    _SQRT_2PI,
    LineParams,
    SourceConfig,
    TimeVaryingCap,
    _turn_on_jump,
    h_coefficient,
    s_coefficient,
    tones,
)
from fbar_dce.squeeze import LcParams


# Film drive response (fbar_dce.piezo)

def static_response(mat: MaterialProps, geo: FbarGeometry, v: float) -> tuple[float, float]:
    """DC response of the film to an electrode voltage.

    Parameters
    ----------
    mat, geo : MaterialProps, FbarGeometry
    v : float
        Electrode voltage [V].

    Returns
    -------
    delta_z : float
        Magnitude of the static thickness change, d33 * |v| [m].
    freq_shift_fraction : float
        Fractional shift of the thickness-mode frequency, d33 * v / t [1].
    """
    delta_z = mat.d33 * abs(v)
    freq_shift_fraction = mat.d33 * v / geo.t_piezo
    return delta_z, freq_shift_fraction


def mechanical_susceptibility(omega, omega_m: float, gamma: float):
    """Damped harmonic-oscillator susceptibility (omega_m^2 - omega^2 - i*gamma*omega)^-1.

    Parameters
    ----------
    omega : float or ndarray
        Evaluation angular frequency [rad/s] (finite; zero and negative are allowed).
    omega_m : float
        Resonance angular frequency [rad/s] (> 0).
    gamma : float
        Damping rate [rad/s] (>= 0; zero only away from resonance).

    Returns
    -------
    complex or ndarray
        Susceptibility [s^2]; magnitude quality/omega_m^2 on resonance.
    """
    if not omega_m > 0.0:
        raise ConfigError("omega_m must be strictly positive")
    if not gamma >= 0.0:
        raise ConfigError("gamma must be non-negative")
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ConfigError("omega must be finite")
    if gamma == 0.0 and np.any(omega == omega_m):
        raise UnderflowError("susceptibility pole: gamma = 0 at omega = omega_m")
    return 1.0 / (omega_m**2 - omega**2 - 1j * gamma * omega)


def area_from_capacitance(permittivity: float, t_piezo: float, c0: float) -> float:
    """Electrode area implied by a measured plate capacitance: t * c0 / permittivity [m^2]."""
    if not (t_piezo > 0.0 and c0 > 0.0):
        raise ConfigError("t_piezo and c0 must be strictly positive")
    return t_piezo * c0 / permittivity


# Modified Butterworth-Van Dyke (MBVD) equivalent circuit of the film resonator;
# a command reads only its plate capacitance, as Scenario.c_plate

@dataclass(frozen=True)
class MbvdParams:
    """Lumped-element values of the MBVD equivalent circuit.

    Six lumped elements: a motional branch (r_m, l_m, c_m in series) in
    parallel with a lossy plate branch (r_0 in series with c_plate), plus an
    electrode series resistance r_s that is carried in the parameter set but
    excluded from the two-branch reduction.

    Parameters
    ----------
    c_m : float
        Motional capacitance [F].
    l_m : float
        Motional inductance [H].
    r_m : float
        Motional (acoustic-loss) resistance [Ohm].
    r_0 : float
        Dielectric-loss resistance in the plate branch [Ohm].
    r_s : float
        Electrode series resistance [Ohm]; informational, not part of the
        two-branch parallel reduction.
    c_plate : float
        Static plate capacitance [F].
    """

    c_m: float
    l_m: float
    r_m: float
    r_0: float
    r_s: float
    c_plate: float

    def __post_init__(self):
        check_fields(self, "mbvd", positive=("c_m", "l_m", "c_plate"), non_negative=("r_m", "r_0", "r_s"))

    @classmethod
    def of(cls, sc) -> MbvdParams:
        """The circuit of a loaded scenario, from its raw `mbvd` section."""
        raw = sc.raw["mbvd"]
        return cls(
            c_m=raw["c_m_farad"],
            l_m=raw["l_m_henry"],
            r_m=raw["r_m_ohm"],
            r_0=raw["r_0_ohm"],
            r_s=raw["r_s_ohm"],
            c_plate=raw["c_plate_farad"],
        )


def motional_impedance(p: MbvdParams, omega):
    """Series-branch impedance r_m + i*(omega*l_m - 1/(omega*c_m)) [Ohm].

    Parameters
    ----------
    p : MbvdParams
    omega : float or ndarray
        Angular frequency [rad/s] (> 0).
    """
    w = positive_frequencies(omega)
    return p.r_m + 1j * (w * p.l_m - 1.0 / (w * p.c_m))


def plate_impedance(p: MbvdParams, omega):
    """Plate-branch impedance r_0 - i/(omega*c_plate) [Ohm]."""
    w = positive_frequencies(omega)
    return p.r_0 - 1j / (w * p.c_plate)


def equivalent_impedance(p: MbvdParams, omega):
    """Parallel combination of the two branches and its one-branch reduction error.

    Returns
    -------
    z_eq : complex or ndarray
        z_plate * z_motional / (z_plate + z_motional) [Ohm].
    reduction_error : float or ndarray
        |z_eq - z_plate| / |z_plate|, the relative error of approximating the
        full circuit by the plate branch alone.
    """
    z_m = motional_impedance(p, omega)
    z_0 = plate_impedance(p, omega)
    total = z_0 + z_m
    if np.any(np.abs(total) < 1e-9 * np.abs(z_m)):
        raise UnderflowError("branch cancellation: |z_plate + z_motional| < 1e-9 * |z_motional|")
    z_eq = z_0 * z_m / total
    return z_eq, np.abs(z_eq - z_0) / np.abs(z_0)


def resonances_and_coupling(p: MbvdParams) -> tuple[float, float, float, float]:
    """Series/parallel resonances, capacitance ratio, and electro-acoustic coupling.

    Returns
    -------
    omega_s : float
        Series resonance of the motional branch, 1/sqrt(l_m * c_m) [rad/s].
    omega_p : float
        Parallel (anti-)resonance, omega_s * sqrt(1 + 1/r) [rad/s].
    r : float
        Capacitance ratio c_plate / c_m.
    kt2 : float
        Effective coupling coefficient, (pi^2 / 8) * (1/r) * (1 - 1/r).
    """
    omega_s = 1.0 / math.sqrt(p.l_m * p.c_m)
    r = p.c_plate / p.c_m
    omega_p = omega_s * math.sqrt(1.0 + 1.0 / r)
    kt2 = (math.pi**2 / 8.0) * (1.0 / r) * (1.0 - 1.0 / r)
    return omega_s, omega_p, r, kt2


def composite_quality(p: MbvdParams, omega: float) -> float:
    """Quality factor from acoustic and dielectric losses, 1/(omega*c_m*(r_m + r_0)).

    Both loss channels add reciprocally: 1/Q = omega*c_m*r_m + omega*c_m*r_0.
    Rejects a lossless circuit (r_m = r_0 = 0) as undefined.
    """
    w = positive_frequencies(omega)
    if p.r_m + p.r_0 == 0.0:
        raise ConfigError("composite quality undefined for a lossless circuit (r_m = r_0 = 0)")
    return 1.0 / (w * p.c_m * (p.r_m + p.r_0))


# Mirror source term over time and over a finite window (fbar_dce.scatter)

def capacitance_at(cap: TimeVaryingCap, t):
    """C(t) = c0 + delta_c * cos(omega_m * t)."""
    return cap.c0 + cap.delta_c * np.cos(cap.omega_m * np.asarray(t, dtype=float))


def source_time(cfg: SourceConfig, t):
    """Source term F(t) = d/dt[C(t)V(t)] for t in (0, window_time].

    The delta spike of the turn-on discontinuity at t = 0 is not representable
    pointwise; at t = 0 the one-sided derivative limit is returned.
    """
    tt = np.asarray(t, dtype=float)
    if not np.all((tt >= 0.0) & (tt <= cfg.window_time)):
        raise ConfigError("t outside [0, window_time]")
    total = np.zeros_like(tt)
    for amp, nu, phi in tones(cfg):
        total = total - amp * nu * np.sin(nu * tt + phi)
    return total


def _window_kernel(u, window_time: float):
    """E(u) = Integral_0^T exp(i*u*t) dt = (exp(i*u*T) - 1)/(i*u), with E(0) = T."""
    u = np.asarray(u, dtype=float)
    ut = u * window_time
    small = np.abs(ut) < 1e-8
    # second-order series around u = 0 avoids catastrophic cancellation
    series = window_time * (1.0 + 0.5j * ut - ut**2 / 6.0)
    safe_u = np.where(small, 1.0, u)
    exact = (np.exp(1j * safe_u * window_time) - 1.0) / (1j * safe_u)
    return np.where(small, series, exact)


def windowed_source_transform(cfg: SourceConfig, omega):
    """Closed-form turn-on transform (2*pi)^(-1/2) * Integral_0^T F(t) e^(i*omega*t) dt.

    Valid at any omega > 0, including on the coherent drive lines where the
    value grows linearly with the window length.
    """
    w = positive_frequencies(omega)
    total = np.full_like(w, _turn_on_jump(cfg), dtype=complex)
    for amp, nu, phi in tones(cfg):
        total = total + (0.5j * amp * nu) * (
            np.exp(1j * phi) * _window_kernel(w + nu, cfg.window_time)
            - np.exp(-1j * phi) * _window_kernel(w - nu, cfg.window_time)
        )
    return total / _SQRT_2PI


def line_weights(cfg: SourceConfig) -> dict[float, complex]:
    """Integrated coherent-line weights {tone frequency: weight}.

    Weight of the delta line at nu_k in the infinite-window transform:
    -i * (pi/2) * (2*pi)^(-1/2) * A_k * nu_k * exp(-i*phi_k).
    """
    return {
        nu: -0.5j * math.pi * amp * nu * np.exp(-1j * phi) / _SQRT_2PI
        for amp, nu, phi in tones(cfg)
    }


# Transfer matrix of the cavity's coupling element (fbar_dce.cavity)

def inout_transfer(omega: float, omega_coupling: float) -> np.ndarray:
    """2x2 transfer matrix of the coupling element at omega > 0.

    With alpha = 1 + i*omega_coupling/(2*omega) and beta = i*omega_coupling/(2*omega),
    the matrix is [[conj(alpha), beta], [conj(beta), alpha]]; its determinant
    |alpha|^2 - |beta|^2 equals 1 identically.
    """
    positive_frequencies(omega)
    x = omega_coupling / (2.0 * omega)
    alpha = 1.0 + 1j * x
    beta = 1j * x
    return np.array([[np.conj(alpha), beta], [np.conj(beta), alpha]], dtype=complex)


def transfer_determinant(m: np.ndarray) -> complex:
    """Determinant of a 2x2 complex matrix with exactly-cancelling accumulation.

    The naive |alpha|^2 - |beta|^2 rounds the large equal terms before
    subtracting; summing the eight real products with math.fsum keeps the
    cancellation exact.
    """
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    real = math.fsum([a.real * d.real, -a.imag * d.imag, -b.real * c.real, b.imag * c.imag])
    imag = math.fsum([a.real * d.imag, a.imag * d.real, -b.real * c.imag, -b.imag * c.real])
    return complex(real, imag)


# Scaling laws of the output flux (fbar_dce.flux)

class ScalingReport(NamedTuple):
    s_ratio: float
    h_ratio: float
    mech_flux_ratio: float
    mech_electrical_improvement: float


class ScalingExponents(NamedTuple):
    exponent_delta_x: float
    exponent_v_light: float


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


# Parametric model (fbar_dce.squeeze)

def inverse_capacitance_series(p: LcParams, t) -> tuple:
    """First-order expansion of 1/C_T(t) and the exact value for error reporting.

    series: 1/C_T + (cap_mirror*delta_x/(C_T^2*gap)) * cos(omega_m*t)
    exact:  1/(cap_cavity + cap_mirror*(1 - (delta_x/gap)*cos(omega_m*t)))
    """
    c = np.cos(p.omega_m * np.asarray(t, dtype=float))
    series = 1.0 / p.cap_total + (p.cap_mirror * p.delta_x / (p.cap_total**2 * p.gap)) * c
    exact = 1.0 / (p.cap_cavity + p.cap_mirror * (1.0 - (p.delta_x / p.gap) * c))
    return series, exact
