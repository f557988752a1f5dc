"""Piezoelectric drive response of a thin-film bulk acoustic resonator.

A resonant AC voltage across the film produces a resonantly enhanced
motional amplitude and, through the moving electrode, a modulation of the
plate capacitance. The film resonator's parameter types live here: material,
geometry, drive and the lumped elements of its equivalent circuit. All
operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import EPS0
from .errors import ConfigError, ValidityError, check_fields, holds

# Fractional displacement bound below which the first-order expansion of the
# plate capacitance keeps the discarded quadratic term under 1e-4 relative.
CAP_EXPANSION_BOUND = 1.0 / 100.0


@dataclass(frozen=True, repr=False, eq=False)
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


@dataclass(frozen=True, repr=False, eq=False)
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


@dataclass(frozen=True, repr=False, eq=False)
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


@dataclass(frozen=True, repr=False, eq=False)
class MbvdParams:
    """Lumped-element values of the modified Butterworth-Van Dyke (MBVD) equivalent circuit.

    Six lumped elements: a motional branch (r_m, l_m, c_m in series) in
    parallel with a lossy plate branch (r_0 in series with c_plate), plus an
    electrode series resistance r_s that is carried in the parameter set but
    excluded from the two-branch reduction. The commands read only c_plate.

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

    Returns
    -------
    float
        Peak motional amplitude [m].
    """
    if abs(drv.omega_d - geo.omega_m) > 1e-9 * geo.omega_m:
        raise ConfigError("driven_amplitude requires a resonant drive (omega_d = omega_m)")
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
