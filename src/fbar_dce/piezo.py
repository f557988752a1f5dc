"""Piezoelectric drive response of a thin-film bulk acoustic resonator.

An AC voltage across the film produces a static thickness change, a
fractional detuning of the thickness mode, a resonantly enhanced motional
amplitude, and — through the moving electrode — a modulation of the plate
capacitance. All operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import EPS0
from .errors import ConfigError, UnderflowError, ValidityError, check_fields, holds

# Fractional displacement bound below which the first-order expansion of the
# plate capacitance keeps the discarded quadratic term under 1e-4 relative.
CAP_EXPANSION_BOUND = 1.0 / 100.0


@dataclass(frozen=True)
class MaterialProps:
    """Elastic, piezoelectric and dielectric constants of the film material.

    Parameters
    ----------
    youngs_modulus : float
        Young's modulus [Pa].
    density : float
        Mass density [kg/m^3].
    d33 : float
        Longitudinal piezoelectric coefficient [m/V].
    poisson : float
        Poisson ratio, in (0, 0.5).
    sound_speed : float
        Longitudinal sound speed in the film [m/s].
    permittivity : float
        Absolute permittivity [F/m]; at least the vacuum value.
    """

    youngs_modulus: float
    density: float
    d33: float
    poisson: float
    sound_speed: float
    permittivity: float

    def __post_init__(self):
        check_fields(
            self, "material", positive=("youngs_modulus", "density", "d33", "poisson", "sound_speed", "permittivity")
        )
        if not 0.0 < self.poisson < 0.5:
            raise ConfigError("material.poisson must lie in (0, 0.5)")
        if not self.permittivity >= EPS0:
            raise ConfigError("material.permittivity must be at least the vacuum permittivity")


@dataclass(frozen=True)
class FbarGeometry:
    """Geometry and quality factor of the film resonator.

    Parameters
    ----------
    t_piezo : float
        Film thickness [m].
    area : float
        Electrode area [m^2].
    quality : float
        Mechanical quality factor (>= 1); may hold an array of lanes, each entry >= 1.
    omega_m : float
        Angular frequency of the thickness mode [rad/s].
    """

    t_piezo: float
    area: float
    quality: float
    omega_m: float

    def __post_init__(self):
        check_fields(self, "geometry", positive=("t_piezo", "area", "omega_m"))
        if not holds(self.quality >= 1.0):
            raise ConfigError("geometry.quality must be >= 1")


@dataclass(frozen=True)
class DriveParams:
    """AC voltage drive V(t) = v_pp * cos(omega_d * t + phase).

    Parameters
    ----------
    v_pp : float
        Peak voltage amplitude [V] (>= 0); may hold an array of lanes, see `scatter`.
    phase : float
        Drive phase [rad]; pi/2 by default so the drive switches on smoothly.
    omega_d : float
        Drive angular frequency [rad/s].
    """

    v_pp: float
    phase: float = np.pi / 2.0
    omega_d: float = 0.0

    def __post_init__(self):
        check_fields(self, "drive", positive=("omega_d",), non_negative=("v_pp",))
        if not np.isfinite(self.phase):
            raise ConfigError("drive.phase must be finite")


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


def driven_amplitude(mat: MaterialProps, geo: FbarGeometry, drv: DriveParams) -> float:
    """Motional amplitude of the film under resonant drive.

    The piezoelectric stress force per unit area E*d33*V/t, acting on the
    film's mass per unit area rho*t, is resonantly enhanced by the quality
    factor:

        delta_x = (Q / omega_m^2) * (E / (rho * t)) * (d33 * v_pp / t)

    Exactly linear in quality and in v_pp.

    Parameters
    ----------
    mat, geo : MaterialProps, FbarGeometry
    drv : DriveParams
        Must be resonant: drv.omega_d equal to geo.omega_m (relative 1e-9).
        Off-resonant response goes through `mechanical_susceptibility`.

    Returns
    -------
    float
        Peak motional amplitude [m].
    """
    if abs(drv.omega_d - geo.omega_m) > 1e-9 * geo.omega_m:
        raise ConfigError(
            "driven_amplitude requires a resonant drive (omega_d = omega_m); "
            "use mechanical_susceptibility for off-resonant response"
        )
    return (geo.quality / geo.omega_m**2) * (mat.youngs_modulus / (mat.density * geo.t_piezo)) * (
        mat.d33 * drv.v_pp / geo.t_piezo
    )


def delta_capacitance(
    mat: MaterialProps, geo: FbarGeometry, delta_x: float, c0: float | None = None
) -> tuple[float, float]:
    """Plate capacitance and its modulation amplitude for a film moving by delta_x.

    Parameters
    ----------
    mat, geo : MaterialProps, FbarGeometry
    delta_x : float or ndarray
        Motional amplitude [m]; must satisfy 0 <= delta_x < t_piezo / 100 so
        that the first-order expansion C0 * (1 + delta_x/t) is valid. An array
        of lanes must satisfy it in every entry, and delta_c then has its shape.
    c0 : float, optional
        Measured plate capacitance [F]. When omitted it is computed from the
        parallel-plate formula permittivity * area / t_piezo.

    Returns
    -------
    (c0, delta_c) : tuple of float
        Static capacitance and modulation amplitude delta_c = c0 * delta_x / t [F].
    """
    if not holds(delta_x >= 0.0):
        raise ConfigError("delta_x must be non-negative")
    if not holds(delta_x < geo.t_piezo * CAP_EXPANSION_BOUND):
        raise ValidityError(
            f"delta_x = {np.max(delta_x):.3e} m exceeds t_piezo/100 = "
            f"{geo.t_piezo * CAP_EXPANSION_BOUND:.3e} m; first-order capacitance expansion invalid"
        )
    if c0 is None:
        c0 = mat.permittivity * geo.area / geo.t_piezo
    return c0, c0 * delta_x / geo.t_piezo


def area_from_capacitance(mat: MaterialProps, t_piezo: float, c0: float) -> float:
    """Electrode area implied by a measured plate capacitance: t * c0 / permittivity [m^2]."""
    if not (t_piezo > 0.0 and c0 > 0.0):
        raise ConfigError("t_piezo and c0 must be strictly positive")
    return t_piezo * c0 / mat.permittivity
