"""Parametric squeezing of a lumped LC mode by a vibrating mirror capacitance.

The truncated number-basis evolution is checked two independent ways: against
the closed form sinh^2(2*lambda*t) and against an exact eigendecomposition
propagator built in-test with scipy.linalg.eigh. Its restriction to the even
levels is pinned bit for bit to the same integrator on the full basis, where
the odd amplitudes are checked to stay exactly 0. Frozen values were computed
once with this package at the standard operating point (4.2 GHz modulation,
0.4 pF plates, 350 nm gap, 0.855 pm deflection).
"""

import math

import numpy as np
import pytest
from paper_checks import inverse_capacitance_series
from scipy.linalg import eigh

from fbar_dce.constants import TWO_PI
from fbar_dce.errors import ConfigError, RwaViolationError, ValidityError
from fbar_dce.scenario import load_scenario, squeeze_params
from fbar_dce.squeeze import (
    LcParams,
    _observe,
    _step_count,
    analytic_photon_number,
    evolve_series,
    pair_creation_matrix,
    squeeze_coupling,
)

OMEGA_M = TWO_PI * 4.2e9
OMEGA_LC = 0.5 * OMEGA_M
CAP_TOTAL = 0.8e-12
PARAMS = LcParams(
    inductance=1.0 / (OMEGA_LC**2 * CAP_TOTAL),
    cap_cavity=0.4e-12,
    cap_mirror=0.4e-12,
    gap=3.5e-7,
    delta_x=8.550966856419484e-13,
    omega_m=OMEGA_M,
)
LAMBDA = 2014.7740992912945  # squeeze_coupling(PARAMS), frozen


def _eigh_mean_photons(lam: float, t: float, dim: int) -> float:
    """Independent propagator: exact exp(-i*lam*t*H) via eigendecomposition."""
    h = pair_creation_matrix(dim)
    vals, vecs = eigh(h)
    psi0 = np.zeros(dim)
    psi0[0] = 1.0
    psi = vecs @ (np.exp(-1j * lam * t * vals) * (vecs.T @ psi0))
    return float(np.sum(np.arange(dim) * np.abs(psi) ** 2))


def _full_basis_rk4(lam: float, times, dim: int) -> list:
    """Reference route: the same RK4 on all dim levels of -i*lam*H, odd ones included.

    Returns the full state at each sample time.
    """
    m = -1j * lam * pair_creation_matrix(dim)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    states = []
    for duration in np.diff(np.asarray(times, dtype=float), prepend=0.0):
        steps = _step_count(lam, duration)
        dt = duration / steps
        for _ in range(steps):
            k1 = m @ psi
            k2 = m @ (psi + 0.5 * dt * k1)
            k3 = m @ (psi + 0.5 * dt * k2)
            k4 = m @ (psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(psi)
    return states


def _hex_fields(results) -> list:
    return [tuple(float(v).hex() for v in res) for res in results]


def test_lc_mode_frequency():
    assert PARAMS.cap_total == pytest.approx(CAP_TOTAL, rel=1e-15)
    assert PARAMS.omega_lc == pytest.approx(OMEGA_LC, rel=1e-15)


def test_inverse_capacitance_static_mirror():
    still = LcParams(
        inductance=PARAMS.inductance,
        cap_cavity=0.4e-12,
        cap_mirror=0.4e-12,
        gap=3.5e-7,
        delta_x=0.0,
        omega_m=OMEGA_M,
    )
    series, exact = inverse_capacitance_series(still, 1.3e-10)
    assert series == exact == 1.0 / CAP_TOTAL


def test_inverse_capacitance_zero_crossing():
    # A quarter period after maximum deflection the modulation passes zero.
    series, exact = inverse_capacitance_series(PARAMS, math.pi / (2.0 * OMEGA_M))
    assert series == pytest.approx(1.0 / CAP_TOTAL, rel=1e-12)
    assert exact == pytest.approx(1.0 / CAP_TOTAL, rel=1e-12)


def test_inverse_capacitance_expansion_error_bound():
    # First-order expansion in delta_x/gap: worst relative error over a
    # period stays below (delta_x/gap)^2.
    times = np.linspace(0.0, TWO_PI / OMEGA_M, 257)
    series, exact = inverse_capacitance_series(PARAMS, times)
    worst = np.max(np.abs(series - exact) / exact)
    assert worst < (PARAMS.delta_x / PARAMS.gap) ** 2


def test_squeeze_coupling_frozen_and_linear():
    lam = squeeze_coupling(PARAMS)
    assert lam == pytest.approx(LAMBDA, rel=1e-12)
    doubled = LcParams(
        inductance=PARAMS.inductance,
        cap_cavity=0.4e-12,
        cap_mirror=0.4e-12,
        gap=3.5e-7,
        delta_x=2.0 * PARAMS.delta_x,
        omega_m=OMEGA_M,
    )
    assert squeeze_coupling(doubled) == pytest.approx(2.0 * lam, rel=1e-12)


def test_squeeze_coupling_requires_two_photon_resonance():
    detuned = LcParams(
        inductance=PARAMS.inductance,
        cap_cavity=0.4e-12,
        cap_mirror=0.4e-12,
        gap=3.5e-7,
        delta_x=PARAMS.delta_x,
        omega_m=OMEGA_M * (1.0 + 2e-6),
    )
    with pytest.raises(RwaViolationError):
        squeeze_coupling(detuned)
    barely = LcParams(
        inductance=PARAMS.inductance,
        cap_cavity=0.4e-12,
        cap_mirror=0.4e-12,
        gap=3.5e-7,
        delta_x=PARAMS.delta_x,
        omega_m=OMEGA_M * (1.0 + 1e-7),
    )
    assert squeeze_coupling(barely) > 0.0


def test_analytic_photon_number():
    assert analytic_photon_number(LAMBDA, 0.0) == 0.0
    assert analytic_photon_number(0.0, 1.0) == 0.0
    # Small-time quadratic growth (2*lambda*t)^2.
    t_small = 0.05 / (2.0 * LAMBDA)
    assert analytic_photon_number(LAMBDA, t_small) == pytest.approx(0.05**2, rel=0.01)
    t_one = 1.0 / (2.0 * LAMBDA)
    assert analytic_photon_number(LAMBDA, t_one) == pytest.approx(1.3810978455418155, rel=1e-12)
    with pytest.raises(ConfigError):
        analytic_photon_number(LAMBDA, -1e-9)


def test_pair_creation_matrix_entries():
    h = pair_creation_matrix(6)
    assert h.shape == (6, 6)
    assert np.array_equal(h, h.T)
    for n in range(4):
        assert h[n, n + 2] == pytest.approx(math.sqrt((n + 1) * (n + 2)), rel=1e-15)
    assert np.count_nonzero(np.diag(h)) == 0
    assert np.count_nonzero(np.diag(h, 1)) == 0
    with pytest.raises(ConfigError):
        pair_creation_matrix(1)


def test_evolve_zero_coupling_stays_in_vacuum():
    (res,) = evolve_series(0.0, [1.0])
    assert res.mean_photons == 0.0
    assert res.norm_defect == 0.0
    # 0 by construction: only even levels are evolved. Parity is tested
    # against the full basis in test_even_level_evolution_matches_full_basis_bits.
    assert res.odd_population == 0.0
    assert not res.truncation_flag


def test_evolution_matches_analytic_growth():
    t = 1.0 / (2.0 * LAMBDA)
    (res,) = evolve_series(LAMBDA, [t])
    assert abs(res.mean_photons - analytic_photon_number(LAMBDA, t)) < 1e-6
    assert abs(res.norm_defect) < 1e-9
    # 0 by construction: only even levels are evolved. Parity is tested
    # against the full basis in test_even_level_evolution_matches_full_basis_bits.
    assert res.odd_population == 0.0


def test_evolution_matches_eigendecomposition_propagator():
    for dim, r in ((60, 1.0), (60, 1.5), (240, 1.5)):
        t = r / (2.0 * LAMBDA)
        (rk4,) = evolve_series(LAMBDA, [t], dim=dim)
        exact = _eigh_mean_photons(LAMBDA, t, dim)
        assert abs(rk4.mean_photons - exact) < 1e-11


def _assert_matches_full_basis(lam: float, times, dim: int) -> None:
    states = _full_basis_rk4(lam, times, dim)
    # Pair creation never reaches an odd level from vacuum: this is what lets
    # evolve_series drop the odd rows of the generator.
    for psi in states:
        assert not np.any(psi[1::2])
    assert _hex_fields(evolve_series(lam, times, dim=dim)) == _hex_fields([_observe(psi) for psi in states])


@pytest.mark.parametrize("dim", [16, 17, 60, 61, 100, 240, 241])
@pytest.mark.parametrize("source", ["low-q", "high-q", "metamaterial", "frozen"])
def test_even_level_evolution_matches_full_basis_bits(source, dim):
    lam = LAMBDA if source == "frozen" else squeeze_coupling(squeeze_params(load_scenario(source)))
    for samples in (2, 7, 21):
        _assert_matches_full_basis(lam, np.linspace(0.0, 0.2 / (2.0 * lam), samples), dim)


@pytest.mark.parametrize("dim", [60, 61, 100])
def test_even_level_evolution_matches_full_basis_bits_at_range_end(dim):
    # Only once the top levels carry weight does a last-bit change there reach
    # the observed fields. With OpenBLAS 0.3.31, evolving the square even-even
    # block instead of the even rows passes the short runs above but fails each
    # of these.
    _assert_matches_full_basis(LAMBDA, np.linspace(0.0, 2.0 / (2.0 * LAMBDA), 21), dim)


def test_truncation_floor_and_recovery():
    # At 2*lambda*t = 1.5 a 60-level basis visibly truncates the growth;
    # the flag reports it and quadrupling the basis recovers the closed form.
    t = 1.5 / (2.0 * LAMBDA)
    (small,) = evolve_series(LAMBDA, [t], dim=60)
    assert small.truncation_flag
    assert abs(small.mean_photons - analytic_photon_number(LAMBDA, t)) > 1e-3
    (big,) = evolve_series(LAMBDA, [t], dim=240)
    assert not big.truncation_flag
    assert abs(big.mean_photons - analytic_photon_number(LAMBDA, t)) < 1e-9


def test_series_matches_single_shot_runs():
    times = np.array([0.2, 0.5, 1.0]) / (2.0 * LAMBDA)
    results = evolve_series(LAMBDA, times)
    assert len(results) == 3
    for t, res in zip(times, results):
        (single,) = evolve_series(LAMBDA, [t])
        assert res.mean_photons == pytest.approx(single.mean_photons, rel=1e-12)
        # 0 by construction; see test_even_level_evolution_matches_full_basis_bits.
        assert res.odd_population == 0.0


def test_series_validation():
    with pytest.raises(ConfigError):
        evolve_series(LAMBDA, [1e-4, 1e-4])
    with pytest.raises(ConfigError):
        evolve_series(LAMBDA, [-1e-4, 1e-4])
    with pytest.raises(ConfigError):
        evolve_series(LAMBDA, [1e-4], dim=8)
    with pytest.raises(ValidityError):
        evolve_series(LAMBDA, [2.001 / (2.0 * LAMBDA)])


def test_evolve_validation():
    # Single-sample runs: a basis below 16 levels, negative rate, negative
    # time and 2*lambda*t beyond 2 are refused.
    with pytest.raises(ConfigError):
        evolve_series(LAMBDA, [1e-4], dim=15)
    with pytest.raises(ConfigError):
        evolve_series(-1.0, [1e-4])
    with pytest.raises(ConfigError):
        evolve_series(LAMBDA, [-1e-4])
    with pytest.raises(ValidityError):
        evolve_series(LAMBDA, [2.001 / (2.0 * LAMBDA)])
    # The boundary itself is legal.
    (res,) = evolve_series(LAMBDA, [2.0 / (2.0 * LAMBDA)], dim=60)
    assert res.mean_photons > 0.0
    # An odd basis size is valid: its ceil(dim/2) even levels are evolved.
    (res,) = evolve_series(LAMBDA, [1e-4], dim=17)
    assert res.mean_photons > 0.0


def test_lc_params_validation():
    with pytest.raises(ValidityError):
        LcParams(
            inductance=PARAMS.inductance,
            cap_cavity=0.4e-12,
            cap_mirror=0.4e-12,
            gap=3.5e-7,
            delta_x=3.5e-9,
            omega_m=OMEGA_M,
        )
    with pytest.raises(ConfigError):
        LcParams(
            inductance=PARAMS.inductance,
            cap_cavity=0.4e-12,
            cap_mirror=0.4e-12,
            gap=3.5e-7,
            delta_x=-1e-15,
            omega_m=OMEGA_M,
        )
    with pytest.raises(ConfigError):
        LcParams(
            inductance=0.0,
            cap_cavity=0.4e-12,
            cap_mirror=0.4e-12,
            gap=3.5e-7,
            delta_x=0.0,
            omega_m=OMEGA_M,
        )
