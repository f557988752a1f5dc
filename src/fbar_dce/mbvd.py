"""Modified Butterworth-Van Dyke (MBVD) equivalent circuit of the film resonator.

Six lumped elements: a motional branch (r_m, l_m, c_m in series) in parallel
with a lossy plate branch (r_0 in series with c_plate), plus an electrode
series resistance r_s that is carried in the parameter set but excluded from
the two-branch reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnderflowError, check_fields, positive_frequencies


@dataclass(frozen=True)
class MbvdParams:
    """Lumped-element values of the equivalent circuit.

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
