"""Output photon spectrum: thermal occupation, flux decomposition, scaling checks.

Frozen reference values were computed once with this package at the standard
low-quality-factor operating point (4.2 GHz modulation, 10 mK line) and cross
checked against the compositional scattering oracle in test_cavity.py; the
decomposition identities (total = thermal + vacuum-sourced, mechanical-only
below the full vacuum term) hold by construction and are asserted near the
floating-point floor.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fbar_dce.cavity import CavityParams, dressed_coefficients
from fbar_dce.constants import HBAR, K_B, TWO_PI
from fbar_dce.errors import ConfigError, NumericalError
from fbar_dce.flux import (
    ThermalEnv,
    _resolve_guard_collisions,
    impedance_scaling_check,
    output_spectrum,
    resonant_rate_scaling,
    thermal_occupation,
    vc_ratio,
)
from fbar_dce.piezo import DriveParams
from fbar_dce.scatter import LineParams, SourceConfig, TimeVaryingCap
from fbar_dce.scenario import grid_array, preset_raw, scenario_from_raw, source_config

OMEGA_M = TWO_PI * 4.2e9
DELTA_C = 9.772533550193697e-19
CAV = CavityParams(
    length_d=3.3e-2,
    v_light=1e8,
    omega_coupling=TWO_PI * 29.1e9,
    l_eff=2.2e-3,
)
LINE = LineParams(z0=55.0, v_light=1e8)
CAP = TimeVaryingCap(c0=0.4e-12, delta_c=DELTA_C, omega_m=OMEGA_M)
CFG = SourceConfig(drive=DriveParams(v_pp=5e-4, omega_d=OMEGA_M), cap=CAP, window_time=1e-6)
ENV = ThermalEnv(temperature=0.01)

# Bose-Einstein occupation at 2.1 GHz and 10 mK, frozen from the closed form.
N_IN_HALF = 4.1977849530779614e-5
# Occupations at half the modulation frequency, frozen after verifying
# n_dce = |S2_res|^2 + |h_res|^2 against the dressed coefficients.
N_DCE_HALF = 0.008461883144733149
N_MECH_HALF = 1.6181748612939528e-8
MECH_FRACTION = 1.9123105739189253e-6


def _half_point():
    return np.array([0.5 * OMEGA_M])


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(0.5 * OMEGA_M, ThermalEnv(0.0)) == 0.0
    grid = np.linspace(0.1, 0.9, 7) * OMEGA_M
    assert np.array_equal(thermal_occupation(grid, ThermalEnv(0.0)), np.zeros(7))


def test_thermal_occupation_matches_closed_form():
    w = TWO_PI * 2.1e9
    n = thermal_occupation(w, ENV)
    assert n == pytest.approx(N_IN_HALF, rel=1e-12)
    assert n == pytest.approx(1.0 / math.expm1(HBAR * w / (K_B * 0.01)), rel=1e-14)


def test_thermal_occupation_rayleigh_jeans_limit():
    # For hbar*omega << k_B*T the occupation approaches k_B*T/(hbar*omega).
    w = 0.005 * K_B * 0.01 / HBAR
    classical = K_B * 0.01 / (HBAR * w)
    assert thermal_occupation(w, ENV) == pytest.approx(classical, rel=0.01)


def test_thermal_occupation_array_matches_scalars():
    grid = np.linspace(0.05, 0.95, 11) * OMEGA_M
    vec = thermal_occupation(grid, ENV)
    for w, n in zip(grid, vec):
        assert n == thermal_occupation(float(w), ENV)


def test_thermal_occupation_rejects_nonpositive_frequency():
    with pytest.raises(ConfigError):
        thermal_occupation(0.0, ENV)
    with pytest.raises(ConfigError):
        thermal_occupation(np.array([1e9, -1e9]), ENV)


def test_thermal_env_rejects_negative_temperature():
    with pytest.raises(ConfigError):
        ThermalEnv(temperature=-1e-3)


def test_equilibrium_passthrough_without_drive():
    # Unit-modulus reflection off a static mirror returns the Bose curve.
    quiet = SourceConfig(
        drive=DriveParams(v_pp=0.0, omega_d=OMEGA_M),
        cap=TimeVaryingCap(c0=0.4e-12, delta_c=0.0, omega_m=OMEGA_M),
        window_time=1e-6,
    )
    grid = np.linspace(0.02, 0.9, 41) * OMEGA_M
    table = output_spectrum(grid, CAV, quiet, LINE, ENV)
    expected = thermal_occupation(grid, ENV)
    assert np.allclose(table.n_total, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(table.n_dce, np.zeros_like(grid))
    assert np.array_equal(table.n_mech_only, np.zeros_like(grid))


def test_zero_temperature_spectrum_is_pure_dce():
    grid = np.linspace(0.1, 0.8, 15) * OMEGA_M
    table = output_spectrum(grid, CAV, CFG, LINE, ThermalEnv(0.0))
    assert np.array_equal(table.n_thermal, np.zeros_like(grid))
    assert np.array_equal(table.n_total, table.n_dce)


def test_total_splits_into_thermal_plus_dce():
    grid = np.linspace(0.02, 0.9, 41) * OMEGA_M
    table = output_spectrum(grid, CAV, CFG, LINE, ENV)
    recon = table.n_thermal + table.n_dce
    assert np.allclose(table.n_total, recon, rtol=1e-12, atol=0.0)
    assert all(flag == "" for flag in table.flags)


def test_warmer_bath_raises_total_everywhere():
    grid = np.linspace(0.02, 0.9, 41) * OMEGA_M
    cold = output_spectrum(grid, CAV, CFG, LINE, ENV)
    warm = output_spectrum(grid, CAV, CFG, LINE, ThermalEnv(0.05))
    assert np.all(warm.n_total > cold.n_total)
    assert np.all(warm.n_thermal > cold.n_thermal)
    # The vacuum-sourced part does not depend on the bath temperature.
    assert np.array_equal(warm.n_dce, cold.n_dce)


def test_frozen_occupations_at_half_modulation_frequency():
    table = output_spectrum(_half_point(), CAV, CFG, LINE, ENV)
    assert table.n_dce[0] == pytest.approx(N_DCE_HALF, rel=1e-10)
    assert table.n_mech_only[0] == pytest.approx(N_MECH_HALF, rel=1e-10)
    assert table.n_mech_only[0] / table.n_dce[0] == pytest.approx(MECH_FRACTION, rel=1e-10)
    # Composition against the dressed coefficients at the same point.
    coeffs = dressed_coefficients(0.5 * OMEGA_M, CAV, CFG, LINE)
    n_in_half = thermal_occupation(0.5 * OMEGA_M, ENV)
    n_in_upper = thermal_occupation(1.5 * OMEGA_M, ENV)
    expected_dce = abs(coeffs.s2_res) ** 2 + abs(coeffs.h_res) ** 2
    assert table.n_dce[0] == pytest.approx(expected_dce, rel=1e-12)
    expected_thermal = (
        abs(coeffs.r_res) ** 2 * n_in_half
        + abs(coeffs.s1_res) ** 2 * n_in_upper
        + abs(coeffs.s2_res) ** 2 * n_in_half
    )
    assert table.n_thermal[0] == pytest.approx(expected_thermal, rel=1e-12)


def test_mech_only_never_exceeds_dce():
    grid = np.linspace(0.02, 0.9, 41) * OMEGA_M
    table = output_spectrum(grid, CAV, CFG, LINE, ENV)
    assert np.all(table.n_dce >= 0.0)
    assert np.all(table.n_mech_only >= 0.0)
    assert np.all(table.n_mech_only <= table.n_dce)


def test_mechanical_term_is_phase_invariant_but_h_term_is_not():
    shifted = replace(CFG, drive=DriveParams(v_pp=5e-4, phase=0.3, omega_d=OMEGA_M))
    base = dressed_coefficients(0.5 * OMEGA_M, CAV, CFG, LINE)
    other = dressed_coefficients(0.5 * OMEGA_M, CAV, shifted, LINE)
    assert other.s2_res == base.s2_res
    assert other.s1_res == base.s1_res
    assert abs(other.h_res) != pytest.approx(abs(base.h_res), rel=1e-6)


def test_off_default_phase_breaks_decomposition():
    # Away from the quarter-period drive phase the turn-on term interferes
    # destructively with the modulation sidebands and the mechanical-only
    # difference goes negative past round-off; the spectrum refuses to
    # report it as a flux.
    for phase in (0.0, 0.3):
        bad = replace(CFG, drive=DriveParams(v_pp=5e-4, phase=phase, omega_d=OMEGA_M))
        with pytest.raises(NumericalError):
            output_spectrum(_half_point(), CAV, bad, LINE, ENV)


def test_zero_voltage_modulation_mech_equals_dce():
    # With the voltage source off but the capacitance still pumped there is
    # no drive-sourced term, so the vacuum flux is purely mechanical.
    cfg = SourceConfig(
        drive=DriveParams(v_pp=0.0, omega_d=OMEGA_M), cap=CAP, window_time=1e-6
    )
    grid = np.linspace(0.1, 0.8, 9) * OMEGA_M
    table = output_spectrum(grid, CAV, cfg, LINE, ENV)
    assert np.array_equal(table.n_mech_only, table.n_dce)
    assert np.all(table.n_dce > 0.0)


def test_guard_collision_shifts_point_one_grid_step():
    guard = CFG.guard_band
    grid = np.array([0.5 * OMEGA_M, OMEGA_M - 0.5 * guard])
    table = output_spectrum(grid, CAV, CFG, LINE, ENV)
    assert table.flags == ("", "guard-shifted")
    step = grid[1] - grid[0]
    assert table.omega[1] == grid[1] - step
    assert table.omega[0] == grid[0]
    assert np.all(np.isfinite(table.n_total))


def test_unresolvable_guard_collision_blocks_rows():
    guard = CFG.guard_band
    # Two points inside the guard band of the modulation tone, so close
    # together that a one-step shift stays inside the band.
    grid = np.array([OMEGA_M - 0.6 * guard, OMEGA_M - 0.5 * guard])
    table = output_spectrum(grid, CAV, CFG, LINE, ENV)
    assert table.flags == ("guard-band", "guard-band")
    assert np.array_equal(table.omega, grid)
    for column in (table.n_total, table.n_dce, table.n_thermal, table.n_mech_only):
        assert np.all(np.isnan(column))


def _scalar_guard_resolution(grid, cfg):
    # the per-point loop that the array pass in flux replaced, kept as its reference
    flags = [""] * len(grid)
    if cfg.drive.v_pp == 0.0:
        return grid, flags
    step = grid[1] - grid[0] if len(grid) > 1 else cfg.guard_band
    tones = [cfg.drive.omega_d, cfg.cap.omega_m + cfg.drive.omega_d, cfg.cap.omega_m - cfg.drive.omega_d]
    tones = [abs(nu) for nu in tones if nu != 0.0]
    out = grid.copy()
    for i, w in enumerate(grid):
        for nu in tones:
            if abs(w - nu) < cfg.guard_band:
                shifted = w + step if w >= nu else w - step
                if abs(shifted - nu) < cfg.guard_band:
                    flags[i] = "guard-band"
                else:
                    out[i] = shifted
                    flags[i] = "guard-shifted"
    return out, flags


def test_guard_resolution_matches_scalar_loop():
    guard = CFG.guard_band
    # tones at 0.3, 1.3 and 0.7 omega_m; then two tones half a guard band
    # either side of omega_m / 2, whose guard bands overlap
    cases = []
    for omega_d, centres in (
        (0.3 * OMEGA_M, (0.3 * OMEGA_M, 1.3 * OMEGA_M, 0.7 * OMEGA_M)),
        (0.5 * OMEGA_M + 0.5 * guard, (0.5 * OMEGA_M,)),
    ):
        cfg = SourceConfig(drive=DriveParams(v_pp=5e-4, omega_d=omega_d), cap=CAP, window_time=1e-6)
        for centre in centres:
            for step in (0.3 * guard, 0.7 * guard, 1.2 * guard):
                for offset in np.linspace(0.0, step, 5, endpoint=False):
                    cases.append((centre - 4.0 * guard + offset + step * np.arange(int(8 * guard / step)), cfg))
    cases.append((np.linspace(0.1, 0.9, 7) * OMEGA_M, replace(CFG, drive=DriveParams(v_pp=0.0, omega_d=OMEGA_M))))
    later_tone_blocks_earlier_shift = False
    for grid, cfg in cases:
        want_omega, want_flags = _scalar_guard_resolution(grid, cfg)
        omega, flags = _resolve_guard_collisions(grid, cfg)
        assert np.array_equal(omega, want_omega)
        assert flags.tolist() == want_flags
        later_tone_blocks_earlier_shift |= any(
            f == "guard-band" and w != g for f, w, g in zip(want_flags, want_omega, grid)
        )
    # a point in both overlapping bands, shifted for one tone and blocked by the next
    assert later_tone_blocks_earlier_shift


def test_guard_resolution_keeps_duplicated_frequency_collision():
    # known defect: a guard-shifted point lands on its unshifted neighbour
    raw = preset_raw("low-q")
    raw["grid"]["omega_max_hz"] = 4.199e9
    sc = scenario_from_raw(raw)
    grid, cfg = grid_array(sc), source_config(sc)
    omega, flags = _resolve_guard_collisions(grid, cfg)
    want_omega, want_flags = _scalar_guard_resolution(grid, cfg)
    assert np.array_equal(omega, want_omega)
    assert flags.tolist() == want_flags
    assert np.sum(np.diff(omega) == 0.0) == 1


def test_grid_validation():
    with pytest.raises(ConfigError):
        output_spectrum(np.array([]), CAV, CFG, LINE, ENV)
    with pytest.raises(ConfigError):
        output_spectrum(np.array([0.5, 0.4]) * OMEGA_M, CAV, CFG, LINE, ENV)
    with pytest.raises(ConfigError):
        output_spectrum(np.array([0.0, 0.5 * OMEGA_M]), CAV, CFG, LINE, ENV)
    with pytest.raises(ConfigError):
        output_spectrum(np.array([0.5, 1.0]) * OMEGA_M, CAV, CFG, LINE, ENV)


def test_impedance_scaling_factor_one_is_identity():
    report = impedance_scaling_check(CAV, CFG, LINE, 1.0)
    assert report.s_ratio == 1.0
    assert report.h_ratio == 1.0
    assert report.mech_flux_ratio == 1.0
    assert report.mech_electrical_improvement == 1.0


def test_impedance_scaling_high_impedance_line():
    # Raising the line impedance from 55 Ohm to 10 kOhm.
    factor = 1e4 / 55.0
    report = impedance_scaling_check(CAV, CFG, LINE, factor)
    # The two-photon coupling is linear in z0 while the drive-sourced
    # amplitude grows only as sqrt(z0).
    assert report.s_ratio == pytest.approx(factor, rel=1e-9)
    assert report.h_ratio == pytest.approx(math.sqrt(factor), rel=1e-9)
    assert report.s_ratio == pytest.approx(181.8181818181818, rel=1e-12)
    assert report.h_ratio == pytest.approx(13.483997249264842, rel=1e-12)
    assert report.mech_flux_ratio == pytest.approx(33057.85123966942, rel=1e-12)
    assert report.mech_electrical_improvement == pytest.approx(181.81818181818178, rel=1e-12)
    # Consistency of the derived ratios with their definitions.
    assert report.mech_flux_ratio == pytest.approx(report.s_ratio**2, rel=1e-12)
    assert report.mech_electrical_improvement == pytest.approx(
        report.s_ratio**2 / report.h_ratio**2, rel=1e-12
    )


def test_impedance_scaling_validation():
    with pytest.raises(ConfigError):
        impedance_scaling_check(CAV, CFG, LINE, 0.0)
    with pytest.raises(ConfigError):
        impedance_scaling_check(CAV, CFG, LINE, -2.0)
    silent = replace(CFG, drive=DriveParams(v_pp=0.0, omega_d=OMEGA_M))
    with pytest.raises(ConfigError):
        impedance_scaling_check(CAV, silent, LINE, 2.0)


def test_resonant_rate_scaling_exponents():
    exponents = resonant_rate_scaling(CAV, CFG, LINE)
    assert exponents.exponent_delta_x == pytest.approx(2.0, abs=1e-9)
    assert exponents.exponent_v_light == pytest.approx(-2.0, abs=1e-9)
    assert exponents.exponent_delta_x == pytest.approx(1.9999999999999998, rel=1e-12)
    assert exponents.exponent_v_light == pytest.approx(-1.9999999999999982, rel=1e-12)


def test_vc_ratio_values():
    assert vc_ratio(8.550966856419484e-13, OMEGA_M, 1e8) == pytest.approx(
        2.25654699120625e-10, rel=1e-12
    )
    assert vc_ratio(8.550966856419485e-11, OMEGA_M, 1e8) == pytest.approx(
        2.25654699120625e-8, rel=1e-12
    )
    assert vc_ratio(0.0, OMEGA_M, 1e8) == 0.0


def test_vc_ratio_validation():
    with pytest.raises(ConfigError):
        vc_ratio(-1e-13, OMEGA_M, 1e8)
    with pytest.raises(ConfigError):
        vc_ratio(1e-13, 0.0, 1e8)
    with pytest.raises(ConfigError):
        vc_ratio(1e-13, OMEGA_M, -1.0)
