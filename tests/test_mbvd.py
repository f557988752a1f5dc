"""Tests for the six-element equivalent-circuit module."""

import math

import numpy as np
import pytest
from paper_checks import (
    MbvdParams,
    composite_quality,
    equivalent_impedance,
    motional_impedance,
    plate_impedance,
    resonances_and_coupling,
)

from fbar_dce.errors import ConfigError, UnderflowError

PARAMS = MbvdParams(c_m=0.655e-15, l_m=1.043e-6, r_m=146.0, r_0=8.0, r_s=0.0, c_plate=0.4e-12)
OMEGA_21 = 2.0 * math.pi * 2.1e9

# Frozen direct evaluations at 2.1 GHz and the derived circuit constants.
Z_M_21 = 146.0 - 101944.91347969644j
Z_0_21 = 8.0 - 189.47017034749445j
REDUCTION_ERROR_21 = 0.0018567573897339804
OMEGA_S = 38259315501.937645
OMEGA_P_OVER_S = 1.0008184150983634
CAP_RATIO = 610.6870229007634
KT2 = 0.0020168765984822142
Q_AT_OMEGA_S = 259.11990953585035


def test_motional_impedance_series_resonance():
    omega_s = 1.0 / math.sqrt(PARAMS.l_m * PARAMS.c_m)
    z = motional_impedance(PARAMS, omega_s)
    assert z.real == PARAMS.r_m
    assert abs(z.imag) < 1e-9 * abs(z.real)


def test_motional_impedance_at_half_resonator_frequency():
    z = motional_impedance(PARAMS, OMEGA_21)
    assert z == pytest.approx(Z_M_21, rel=1e-13)
    # the branch is strongly capacitive this far below series resonance
    assert abs(z.imag) == pytest.approx(1.02e5, rel=5e-3)


def test_motional_impedance_inductive_limit():
    omega = 100.0 / math.sqrt(PARAMS.l_m * PARAMS.c_m)
    z = motional_impedance(PARAMS, omega)
    assert z.imag == pytest.approx(omega * PARAMS.l_m, rel=0.01)


def test_plate_impedance_values():
    z = plate_impedance(PARAMS, OMEGA_21)
    assert z == pytest.approx(Z_0_21, rel=1e-13)
    assert z == pytest.approx(8.0 - 189.5j, rel=5e-3)


def test_plate_impedance_unit_consistency_point():
    p = MbvdParams(c_m=0.655e-15, l_m=1.043e-6, r_m=146.0, r_0=0.0, r_s=0.0, c_plate=0.4e-12)
    z = plate_impedance(p, 1.0 / p.c_plate)
    assert z == pytest.approx(-1j, rel=1e-15)


def test_plate_impedance_shorts_at_high_frequency():
    z = plate_impedance(PARAMS, 1e6 / PARAMS.c_plate)
    assert z.real == PARAMS.r_0
    assert abs(z.imag) < 1e-5 * PARAMS.r_0


def test_impedances_reject_nonpositive_frequency():
    for bad in (0.0, -OMEGA_21):
        with pytest.raises(ConfigError):
            motional_impedance(PARAMS, bad)
        with pytest.raises(ConfigError):
            plate_impedance(PARAMS, bad)
        with pytest.raises(ConfigError):
            composite_quality(PARAMS, bad)


def test_equivalent_impedance_reduction_error():
    z_eq, err = equivalent_impedance(PARAMS, OMEGA_21)
    assert err == pytest.approx(REDUCTION_ERROR_21, rel=1e-12)
    assert err < 0.01
    # one-branch reduction: z_eq stays close to the plate branch alone
    assert abs(z_eq - Z_0_21) / abs(Z_0_21) < 0.01


def test_equivalent_impedance_parallel_identity():
    # 1/z_eq = 1/z_m + 1/z_plate, the defining relation of the reduction
    for omega in (0.3 * OMEGA_S, OMEGA_21, 1.7 * OMEGA_S):
        z_eq, _ = equivalent_impedance(PARAMS, omega)
        recon = 1.0 / motional_impedance(PARAMS, omega) + 1.0 / plate_impedance(PARAMS, omega)
        assert 1.0 / z_eq == pytest.approx(recon, rel=1e-12)


def test_equivalent_impedance_open_motional_branch():
    # an effectively open motional branch leaves the plate branch alone
    p = MbvdParams(c_m=1e-24, l_m=1.043e-6, r_m=146.0, r_0=8.0, r_s=0.0, c_plate=0.4e-12)
    z_eq, err = equivalent_impedance(p, OMEGA_21)
    assert z_eq == pytest.approx(plate_impedance(p, OMEGA_21), rel=1e-9)
    assert err < 1e-9


def test_reduction_error_peaks_at_series_resonance():
    # grid-scan oracle: over a +-10% band around the series resonance the
    # one-branch reduction is worst exactly on resonance
    omegas = OMEGA_S * np.linspace(0.9, 1.1, 41)
    omegas[20] = OMEGA_S
    _, errs = equivalent_impedance(PARAMS, omegas)
    assert int(np.argmax(errs)) == 20


def test_branch_cancellation_guard():
    # a contrived lossless pair with z_plate = -z_m triggers the guard
    p = MbvdParams(c_m=1.0e-12, l_m=1.0e-6, r_m=0.0, r_0=0.0, r_s=0.0, c_plate=1.0e-12)
    # at omega with w*l_m - 1/(w*c_m) = +1/(w*c_plate): w^2 = 2/(l_m c_m)
    omega = math.sqrt(2.0 / (p.l_m * p.c_m))
    with pytest.raises(UnderflowError):
        equivalent_impedance(p, omega)


def test_resonances_and_coupling_values():
    omega_s, omega_p, r, kt2 = resonances_and_coupling(PARAMS)
    assert omega_s == pytest.approx(OMEGA_S, rel=1e-13)
    assert omega_s / (2.0 * math.pi) == pytest.approx(6.09e9, rel=2e-3)
    assert omega_p / omega_s == pytest.approx(OMEGA_P_OVER_S, rel=1e-13)
    assert r == pytest.approx(CAP_RATIO, rel=1e-13)
    assert r == pytest.approx(610.7, rel=1e-4)
    assert kt2 == pytest.approx(KT2, rel=1e-13)
    assert kt2 == pytest.approx(2.02e-3, rel=2e-3)


def test_resonances_weak_coupling_limit():
    p = MbvdParams(c_m=1e-21, l_m=1.043e-6, r_m=146.0, r_0=8.0, r_s=0.0, c_plate=0.4e-12)
    omega_s, omega_p, r, kt2 = resonances_and_coupling(p)
    assert r > 1e8
    assert kt2 < 1e-8
    assert omega_p / omega_s == pytest.approx(1.0, abs=1e-8)


def test_resonance_ordering_and_coupling_bound():
    omega_s, omega_p, r, kt2 = resonances_and_coupling(PARAMS)
    assert omega_p > omega_s
    assert 0.0 < kt2 <= math.pi**2 / 32.0


def test_composite_quality_value():
    omega_s, _, _, _ = resonances_and_coupling(PARAMS)
    q = composite_quality(PARAMS, omega_s)
    assert q == pytest.approx(Q_AT_OMEGA_S, rel=1e-13)
    # order-consistent with the nominal mechanical quality factor of 300
    assert 100.0 < q < 1000.0


def test_composite_quality_single_channel_and_linearity():
    omega_s, _, _, _ = resonances_and_coupling(PARAMS)
    p_acoustic = MbvdParams(c_m=0.655e-15, l_m=1.043e-6, r_m=146.0, r_0=0.0, r_s=0.0, c_plate=0.4e-12)
    assert composite_quality(p_acoustic, omega_s) == pytest.approx(
        1.0 / (omega_s * p_acoustic.c_m * p_acoustic.r_m), rel=1e-15
    )
    p_half = MbvdParams(c_m=0.655e-15, l_m=1.043e-6, r_m=73.0, r_0=4.0, r_s=0.0, c_plate=0.4e-12)
    assert composite_quality(p_half, omega_s) == pytest.approx(
        2.0 * composite_quality(PARAMS, omega_s), rel=1e-12
    )


def test_composite_quality_rejects_lossless_circuit():
    p = MbvdParams(c_m=0.655e-15, l_m=1.043e-6, r_m=0.0, r_0=0.0, r_s=0.0, c_plate=0.4e-12)
    with pytest.raises(ConfigError):
        composite_quality(p, OMEGA_21)


def test_params_validation():
    with pytest.raises(ConfigError):
        MbvdParams(c_m=0.0, l_m=1.043e-6, r_m=146.0, r_0=8.0, r_s=0.0, c_plate=0.4e-12)
    with pytest.raises(ConfigError):
        MbvdParams(c_m=0.655e-15, l_m=1.043e-6, r_m=-1.0, r_0=8.0, r_s=0.0, c_plate=0.4e-12)
