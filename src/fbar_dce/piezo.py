"""Piezoelectric drive response of a thin-film bulk acoustic resonator.

A resonant AC voltage across the film produces a resonantly enhanced
motional amplitude and, through the moving electrode, a modulation of the
plate capacitance. The film resonator's parameter types live here: material,
geometry and drive. They hold values and check nothing; the bounds on their
numbers are rows of `scenario._BOUNDS`, checked where the numbers enter. Of
its equivalent circuit only the static plate capacitance enters a command, as
the float `Scenario.c_plate`. All operations are pure functions of their
inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ValidityError

# Fractional displacement bound below which the first-order expansion of the
# plate capacitance keeps the discarded quadratic term under 1e-4 relative.
CAP_EXPANSION_BOUND = 1.0 / 100.0


class MaterialProps(NamedTuple):
    """Elastic and piezoelectric constants of the film material.

    Parameters
    ----------
    youngs_modulus : float
        Young's modulus [Pa].
    density : float
        Mass density [kg/m^3].
    d33 : float
        Longitudinal piezoelectric coefficient [m/V].
    """

    youngs_modulus: float
    density: float
    d33: float


class FbarGeometry(NamedTuple):
    """Geometry and quality factor of the film resonator.

    Parameters
    ----------
    t_piezo : float
        Film thickness [m].
    quality : float
        Mechanical quality factor (>= 1); may hold an array of lanes, each entry >= 1.
    omega_m : float
        Angular frequency of the thickness mode [rad/s].
    """

    t_piezo: float
    quality: float
    omega_m: float


class DriveParams(NamedTuple):
    """AC voltage drive V(t) = v_pp * cos(omega_d * t + phase).

    Parameters
    ----------
    v_pp : float
        Peak voltage amplitude [V] (>= 0); may hold an array of lanes, see `scatter`.
    omega_d : float
        Drive angular frequency [rad/s].
    phase : float
        Drive phase [rad]; pi/2 by default so the drive switches on smoothly.
    """

    v_pp: float
    omega_d: float
    phase: float = np.pi / 2.0


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


def delta_capacitance(geo: FbarGeometry, delta_x: float, c0: float) -> float:
    """Modulation amplitude of the plate capacitance c0 for a film moving by delta_x.

    Parameters
    ----------
    geo : FbarGeometry
    delta_x : float or ndarray
        Motional amplitude [m], non-negative (`scenario.source_config` checks
        it); must stay below t_piezo / 100 so that the first-order expansion
        C0 * (1 + delta_x/t) is valid. An array of lanes must stay below it in
        every entry, and delta_c then has its shape.
    c0 : float
        Static plate capacitance [F].

    Returns
    -------
    float or ndarray
        Modulation amplitude delta_c = c0 * delta_x / t [F].
    """
    if not np.all(delta_x < geo.t_piezo * CAP_EXPANSION_BOUND):
        raise ValidityError(
            f"delta_x = {np.max(delta_x):.3e} m exceeds t_piezo/100 = "
            f"{geo.t_piezo * CAP_EXPANSION_BOUND:.3e} m; first-order capacitance expansion invalid"
        )
    return c0 * delta_x / geo.t_piezo
