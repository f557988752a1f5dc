"""Parametric picture: modulating the mirror capacitance of a lumped LC mode
at twice its frequency is a squeezing interaction, and the photon growth from
vacuum follows sinh^2(2*lambda*t). A truncated number-basis evolution serves
as the independent check of that closed form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import MAX_ENTRIES, ConfigError, RwaViolationError, ValidityError

RK4_STEP_BOUND = 5e-4  # dimensionless step 2*lambda*h per integrator step
TRUNCATION_POPULATION_BOUND = 1e-8  # top-two-level population above which truncation is flagged


class LcParams(NamedTuple):
    """Lumped LC mode with a mechanically modulated mirror capacitance.

    cap_cavity and cap_mirror add to the total capacitance C_T; the mirror
    plate sits at gap and oscillates with amplitude delta_x at omega_m, below
    gap/100 for the series expansion (`scenario.squeeze_params` builds it from
    checked numbers).
    """

    inductance: float
    cap_cavity: float
    cap_mirror: float
    gap: float
    delta_x: float
    omega_m: float

    @property
    def cap_total(self) -> float:
        return self.cap_cavity + self.cap_mirror

    @property
    def omega_lc(self) -> float:
        """Mode frequency 1/sqrt(L*C_T) [rad/s]."""
        return 1.0 / math.sqrt(self.inductance * self.cap_total)


class EvolutionResult(NamedTuple):
    mean_photons: float
    norm_defect: float
    truncation_flag: bool
    odd_population: float


def squeeze_coupling(p: LcParams) -> float:
    """Squeezing rate lambda = (omega/8) * (cap_mirror*delta_x/(C_T*gap)) [rad/s].

    Requires the two-photon resonance omega_m = 2*omega_lc to 1e-6 relative;
    off-resonant modulation is outside this simplified picture.
    """
    two_omega = 2.0 * p.omega_lc
    if abs(p.omega_m - two_omega) > 1e-6 * two_omega:
        raise RwaViolationError(
            f"omega_m = {p.omega_m:.9e} violates the two-photon resonance 2*omega_lc = {two_omega:.9e}"
        )
    return (p.omega_lc / 8.0) * (p.cap_mirror * p.delta_x / (p.cap_total * p.gap))


def analytic_photon_number(lam: float, t: float) -> float:
    """Mean photons grown from vacuum: sinh^2(2*lambda*t)."""
    if not lam >= 0.0:
        raise ConfigError("lam must be non-negative")
    if not t >= 0.0:
        raise ConfigError("t must be non-negative")
    return math.sinh(2.0 * lam * t) ** 2


def pair_creation_matrix(dim: int) -> np.ndarray:
    """Number-basis matrix of (a^dag)^2 + a^2: entries sqrt((n+1)(n+2)) two off the diagonal."""
    if dim < 2:
        raise ConfigError("dim must be at least 2")
    h = np.zeros((dim, dim))
    n = np.arange(dim - 2)
    off = np.sqrt((n + 1.0) * (n + 2.0))
    h[n, n + 2] = off
    h[n + 2, n] = off
    return h


def _observe(psi: np.ndarray) -> EvolutionResult:
    pops = np.abs(psi) ** 2
    mean = float(np.sum(np.arange(len(psi)) * pops))
    defect = float(1.0 - math.fsum(pops))
    top_two = float(pops[-1] + pops[-2])
    odd = float(np.sum(pops[1::2]))
    return EvolutionResult(mean, defect, top_two > TRUNCATION_POPULATION_BOUND, odd)


def _rk4_advance(u: np.ndarray, m: np.ndarray, x: np.ndarray, duration: float, steps: int) -> None:
    """Advance u in place by classic fixed-step RK4 on du/dt = m x.

    m holds the even rows of -i*lambda*H and x is the full-length state: each
    stage writes its input into the even entries of x, whose odd entries stay 0.
    The buffers take the ufuncs of u + 0.5*dt*k1, ..., u + (dt/6)*(k1 + 2*k2 +
    2*k3 + k4) in that expression's order, so every step keeps its bits. The
    coefficients are 0-d complex arrays, the values numpy would cast the float
    scalars to, so no call converts a scalar.
    """
    dt = duration / steps
    half, whole, sixth, two = (np.array(c, dtype=complex) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    xe = x[0::2]
    k1, k2, k3, k4, t = (np.empty_like(u) for _ in range(5))

    def rate(k):
        np.dot(m, x, out=k)

    def stage(c, k_in, k_out):
        # k_out = m x at the stage input u + c*k_in
        np.multiply(c, k_in, out=t)
        np.add(u, t, out=xe)
        rate(k_out)

    for _ in range(steps):
        xe[...] = u
        rate(k1)
        stage(half, k1, k2)
        stage(half, k2, k3)
        stage(whole, k3, k4)
        np.multiply(two, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(two, k3, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(sixth, k1, out=k1)
        np.add(u, k1, out=u)


def _step_count(lam: float, duration: float) -> int:
    return max(1, math.ceil(2.0 * lam * duration / RK4_STEP_BOUND))


def evolve_series(lam: float, times, dim: int = 60) -> list[EvolutionResult]:
    """Evolve vacuum under the pair-creation generator in a dim-level basis.

    One trajectory, observed at each of the non-negative, strictly increasing
    times. Fixed-step 4th-order integration with dimensionless step 2*lambda*h
    below 5e-4. Valid for dim >= 16 and 2*lambda*t <= 2; population reaching
    the top two levels beyond 1e-8 sets the truncation flag. A zero-length
    interval and lambda = 0 are ordinary steps that add only zeros to the state.

    Pair creation couples n only to n +- 2, so from vacuum the odd amplitudes
    stay exactly 0 and only the ceil(dim/2) even levels are evolved. Their rate
    is the even rows of -i*lambda*H, every column kept, times the full-length
    state: each row is then the same dot product as on the full basis and keeps
    its bits (cutting the odd columns changes how BLAS blocks a row). The
    full-length state is also what is observed, since np.sum's pairwise
    grouping depends on the vector's length. The integrator allocates nothing
    per step: its stage and sum buffers apply the plain RK4 expression's
    operations in the same order, so they keep its bits too.
    """
    ts = np.asarray(times, dtype=float)
    if not lam >= 0.0:
        raise ConfigError("lam must be non-negative")
    if not (np.all(ts >= 0.0) and np.all(np.diff(ts) > 0.0)):
        raise ConfigError("times must be non-negative and strictly increasing")
    if not (dim >= 16 and dim**2 <= MAX_ENTRIES):  # the dim x dim generator must be addressable
        raise ConfigError(f"dim must be >= 16 with dim**2 <= {MAX_ENTRIES}")
    if len(ts) and 2.0 * lam * ts[-1] > 2.0:
        raise ValidityError("2*lambda*t must stay <= 2 for the truncated evolution")
    m = (-1j * lam) * pair_creation_matrix(dim)[0::2]
    x = np.zeros(dim, dtype=complex)
    u = np.zeros(len(m), dtype=complex)
    u[0] = 1.0
    results = []
    for duration in np.diff(ts, prepend=0.0):
        _rk4_advance(u, m, x, duration, _step_count(lam, duration))
        x[0::2] = u
        results.append(_observe(x))
    return results
