"""Tests for the piezoelectric drive-response module."""

import math

import numpy as np
import pytest
from paper_checks import area_from_capacitance, mechanical_susceptibility, static_response

from fbar_dce.errors import ConfigError, UnderflowError, ValidityError
from fbar_dce.piezo import DriveParams, FbarGeometry, MaterialProps, delta_capacitance, driven_amplitude
from fbar_dce.scenario import preset_raw, scenario_from_raw

# Aluminum-nitride film and resonator values used throughout the suite; the
# paper checks alone read the Poisson ratio, sound speed, permittivity and area.
MAT = MaterialProps(youngs_modulus=3.08e11, density=3230.0, d33=5.1e-12)
POISSON = 0.287
SOUND_SPEED = 9100.0
PERMITTIVITY = 9.2 * 8.8541878128e-12
AREA = 7.7e-10
OMEGA_M = 2.0 * math.pi * 4.2e9
GEO = FbarGeometry(t_piezo=3.5e-7, quality=300.0, omega_m=OMEGA_M)
DRIVE = DriveParams(v_pp=5.0e-4, omega_d=OMEGA_M)
C_PLATE = 0.4e-12

# Frozen full-precision outputs of the closed-form amplitude chain; the
# loose reference checks (8.5e-13 m +- 5% etc.) live in the acceptance suite.
DELTA_X_LOW_Q = 8.550966856419484e-13
DELTA_X_HIGH_Q = 8.550966856419485e-11


def test_static_response_values():
    delta_z, shift = static_response(MAT, GEO, 5.0e-4)
    assert delta_z == pytest.approx(5.1e-12 * 5.0e-4, rel=1e-15)
    assert shift == pytest.approx(5.1e-12 * 5.0e-4 / 3.5e-7, rel=1e-15)


def test_static_response_sign_convention():
    # thickness change is reported as a magnitude, the frequency shift keeps sign
    delta_z, shift = static_response(MAT, GEO, -5.0e-4)
    assert delta_z > 0.0
    assert shift < 0.0


def test_susceptibility_static_limit():
    chi = mechanical_susceptibility(0.0, OMEGA_M, OMEGA_M / 300.0)
    assert chi == pytest.approx(1.0 / OMEGA_M**2, rel=1e-15)
    assert chi.imag == 0.0


def test_susceptibility_resonance_magnitude():
    gamma = OMEGA_M / 300.0
    chi = mechanical_susceptibility(OMEGA_M, OMEGA_M, gamma)
    assert abs(chi) == pytest.approx(300.0 / OMEGA_M**2, rel=1e-12)


def test_susceptibility_against_direct_complex_arithmetic():
    # independent evaluation of the same defining expression
    gamma = OMEGA_M / 300.0
    omega = OMEGA_M / 2.0
    expected = 1.0 / complex(OMEGA_M**2 - omega**2, -gamma * omega)
    assert mechanical_susceptibility(omega, OMEGA_M, gamma) == pytest.approx(expected, rel=1e-14)


def test_susceptibility_conjugate_symmetry():
    gamma = OMEGA_M / 300.0
    for omega in (0.3 * OMEGA_M, 0.9 * OMEGA_M, 2.7 * OMEGA_M):
        chi_plus = mechanical_susceptibility(omega, OMEGA_M, gamma)
        chi_minus = mechanical_susceptibility(-omega, OMEGA_M, gamma)
        assert chi_minus == pytest.approx(np.conj(chi_plus), rel=1e-14)


def test_susceptibility_array_matches_scalar():
    gamma = OMEGA_M / 300.0
    grid = np.array([0.1, 0.5, 1.3]) * OMEGA_M
    vec = mechanical_susceptibility(grid, OMEGA_M, gamma)
    for w, v in zip(grid, vec):
        assert v == pytest.approx(mechanical_susceptibility(float(w), OMEGA_M, gamma), rel=1e-14)


def test_susceptibility_rejects_undamped_pole():
    with pytest.raises(UnderflowError):
        mechanical_susceptibility(OMEGA_M, OMEGA_M, 0.0)
    # away from the pole an undamped evaluation is fine and purely real
    chi = mechanical_susceptibility(0.5 * OMEGA_M, OMEGA_M, 0.0)
    assert chi.imag == 0.0


def test_driven_amplitude_frozen_value():
    assert driven_amplitude(MAT, GEO, DRIVE) == pytest.approx(DELTA_X_LOW_Q, rel=1e-13)


def test_driven_amplitude_per_volt_slope():
    slope = driven_amplitude(MAT, GEO, DRIVE) / DRIVE.v_pp
    assert slope == pytest.approx(DELTA_X_LOW_Q / 5.0e-4, rel=1e-13)
    # headline figure: about 1.7 nm of motion per volt of drive
    assert slope == pytest.approx(1.7e-9, rel=0.05)


def test_driven_amplitude_high_quality_variant():
    geo = FbarGeometry(t_piezo=3.5e-7, quality=3.0e6, omega_m=OMEGA_M)
    drv = DriveParams(v_pp=5.0e-6, omega_d=OMEGA_M)
    assert driven_amplitude(MAT, geo, drv) == pytest.approx(DELTA_X_HIGH_Q, rel=1e-13)


def test_driven_amplitude_exactly_linear_in_quality_and_voltage():
    base = driven_amplitude(MAT, GEO, DRIVE)
    geo2 = FbarGeometry(t_piezo=3.5e-7, quality=600.0, omega_m=OMEGA_M)
    drv2 = DriveParams(v_pp=1.0e-3, omega_d=OMEGA_M)
    assert abs(driven_amplitude(MAT, geo2, DRIVE) / base - 2.0) < 1e-12
    assert abs(driven_amplitude(MAT, GEO, drv2) / base - 2.0) < 1e-12


def test_driven_amplitude_rejects_off_resonant_drive():
    with pytest.raises(ConfigError):
        driven_amplitude(MAT, GEO, DriveParams(v_pp=5.0e-4, omega_d=0.9 * OMEGA_M))


def test_resonant_enhancement_over_static_response():
    # The amplitude gain over the quasi-static thickness change should sit
    # near Q * 3(1-2*poisson) * (v_s/(Omega*t))^2, the elastic-constant
    # estimate evaluated at the resonator's own frequency.
    delta_z, _ = static_response(MAT, GEO, DRIVE.v_pp)
    enhancement = driven_amplitude(MAT, GEO, DRIVE) / delta_z
    predicted = GEO.quality * 3.0 * (1.0 - 2.0 * POISSON) * (
        SOUND_SPEED / (GEO.omega_m * GEO.t_piezo)
    ) ** 2
    assert 0.8 <= enhancement / predicted <= 1.2


def test_delta_capacitance_measured_plate_value():
    delta_c = delta_capacitance(GEO, 8.5e-13, C_PLATE)
    assert delta_c == pytest.approx(0.4e-12 * 8.5e-13 / 3.5e-7, rel=1e-15)
    assert delta_c == pytest.approx(9.71e-19, rel=5e-3)


def test_delta_capacitance_zero_motion():
    assert delta_capacitance(GEO, 0.0, C_PLATE) == 0.0


def test_delta_capacitance_rejects_large_excursion():
    with pytest.raises(ValidityError):
        delta_capacitance(GEO, GEO.t_piezo / 100.0, C_PLATE)
    # just inside the bound is accepted
    delta_capacitance(GEO, 0.99 * GEO.t_piezo / 100.0, C_PLATE)
    with pytest.raises(ConfigError):
        delta_capacitance(GEO, -1.0e-15, C_PLATE)


def test_area_from_capacitance_roundtrip():
    c0 = PERMITTIVITY * AREA / GEO.t_piezo
    assert area_from_capacitance(PERMITTIVITY, GEO.t_piezo, c0) == pytest.approx(AREA, rel=1e-12)
    with pytest.raises(ConfigError):
        area_from_capacitance(PERMITTIVITY, GEO.t_piezo, 0.0)


def test_material_validation():
    # the scenario loader bounds the numbers only the paper checks read
    for key, value in (("poisson_ratio", 0.55), ("permittivity_f_m", 1.0e-12)):
        raw = preset_raw("low-q")
        raw["material"][key] = value
        with pytest.raises(ConfigError):
            scenario_from_raw(raw)
    with pytest.raises(ConfigError):
        MaterialProps(3.08e11, 0.0, 5.1e-12)


def test_geometry_and_drive_validation():
    with pytest.raises(ConfigError):
        FbarGeometry(t_piezo=3.5e-7, quality=0.5, omega_m=OMEGA_M)
    with pytest.raises(ConfigError):
        DriveParams(v_pp=-1.0e-4, omega_d=OMEGA_M)
    with pytest.raises(ConfigError):
        DriveParams(v_pp=1.0e-4)  # drive frequency must be supplied
