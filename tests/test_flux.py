"""Output photon spectrum: thermal occupation, flux decomposition, scaling checks.

Frozen reference values were computed once with this package at the standard
low-quality-factor operating point (4.2 GHz modulation, 10 mK line) and cross
checked against the compositional scattering oracle in test_cavity.py; the
decomposition identities (total = thermal + vacuum-sourced, mechanical-only
below the full vacuum term) hold by construction and are asserted near the
floating-point floor.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from paper_checks import impedance_scaling_check, resonant_rate_scaling, vc_ratio

from fbar_dce import cli
from fbar_dce.cavity import cavity_params, dressed_coefficients
from fbar_dce.constants import HBAR, K_B, TWO_PI
from fbar_dce.errors import ConfigError, NumericalError, ValidityError
from fbar_dce.flux import (
    FLAGS,
    ThermalEnv,
    _resolve_guard_collisions,
    output_spectrum,
    thermal_occupation,
)
from fbar_dce.piezo import DriveParams, delta_capacitance
from fbar_dce.scatter import LineParams, SourceConfig, TimeVaryingCap, guard_band, source_spectrum
from fbar_dce.scenario import PRESET_NAMES, grid_array, preset_raw, scenario_from_raw, source_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OMEGA_M = TWO_PI * 4.2e9
DELTA_C = 9.772533550193697e-19
CAV = cavity_params(
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


def _guard_heavy_scenario():
    # low-q with a grid reaching to just below the drive tone and a short window: guard-shifted and guard-band rows
    raw = preset_raw("low-q")
    raw["grid"].update(omega_max_hz=4.2e9 - 1e6, points=400)
    raw["window_time_s"] = 3e-7
    return scenario_from_raw(raw)


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(0.5 * OMEGA_M, ThermalEnv(0.0)) == 0.0
    grid = np.linspace(0.1, 0.9, 7) * OMEGA_M
    assert np.array_equal(thermal_occupation(grid, ThermalEnv(0.0)), np.zeros(7))


def test_negative_zero_temperature_is_zero_temperature():
    # -0.0 passes the >= 0 row; the loader stores it as +0.0, which gives x = +inf and +0.0 occupation,
    # not 1/expm1(-inf) = -1
    raw = preset_raw("low-q")
    raw["environment"]["temperature_k"] = -0.0
    env = scenario_from_raw(raw).env
    assert math.copysign(1.0, env.temperature) == 1.0
    n = thermal_occupation(np.linspace(0.1, 0.9, 7) * OMEGA_M, env)
    assert np.array_equal(n, np.zeros(7)) and not np.any(np.signbit(n))


def test_subnormal_temperature_spectrum_has_no_thermal_photons():
    # k_B*T underflows to 0, so hbar*omega/(k_B*T) is inf: zero occupation, not a breakdown
    table = output_spectrum(_half_point(), CAV, CFG, LINE, ThermalEnv(1e-320))
    assert table.flags == ("",)
    assert table.n_thermal[0] == 0.0
    assert table.n_total[0] == table.n_dce[0]


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


def test_thermal_env_rejects_negative_temperature(tmp_path, capsys):
    # the loader's row, through the command line in this process: exit code 2 with the row's message
    raw = preset_raw("low-q")
    raw["environment"]["temperature_k"] = -1e-3
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["spectrum", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "configuration error: environment.temperature must be non-negative\n"


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


def test_thermal_terms_recompose_from_dressed_coefficients():
    # |S1|^2 takes the bath at omega_m + omega and |S2|^2 the bath at omega_m - omega; on a
    # grid through the cavity resonances in a 0.2 K bath, swapping them moves n_thermal by ~1e-8
    hot = ThermalEnv(0.2)
    grid = np.linspace(0.05, 0.95, 181) * OMEGA_M
    table = output_spectrum(grid, CAV, CFG, LINE, hot)
    coeffs = dressed_coefficients(grid, CAV, CFG, LINE)
    expected = (
        np.abs(coeffs.r_res) ** 2 * thermal_occupation(grid, hot)
        + np.abs(coeffs.s1_res) ** 2 * thermal_occupation(OMEGA_M + grid, hot)
        + np.abs(coeffs.s2_res) ** 2 * thermal_occupation(OMEGA_M - grid, hot)
    )
    np.testing.assert_allclose(table.n_thermal, expected, rtol=1e-14, atol=0.0)


def test_round_off_below_zero_in_mech_only_is_clipped(monkeypatch):
    # |h_static| one ulp above |h| with S2 = 0 makes |S2|^2 + |h|^2 - |h_static|^2 = -2**-51,
    # inside the round-off floor; the column is clipped to +0.0
    def one_ulp_below_zero(w, cav, cfg, line):
        zero, one = np.zeros_like(w, dtype=complex), np.ones_like(w, dtype=complex)
        return zero, zero, zero, one, one * np.nextafter(1.0, 2.0)

    monkeypatch.setattr("fbar_dce.flux.dressed_coefficients", one_ulp_below_zero)
    table = output_spectrum(np.linspace(0.1, 0.9, 5) * OMEGA_M, CAV, CFG, LINE, ENV)
    assert np.all(table.n_mech_only == 0.0)
    assert not np.any(np.signbit(table.n_mech_only))


def test_mech_only_never_exceeds_dce():
    grid = np.linspace(0.02, 0.9, 41) * OMEGA_M
    table = output_spectrum(grid, CAV, CFG, LINE, ENV)
    assert np.all(table.n_dce >= 0.0)
    assert np.all(table.n_mech_only >= 0.0)
    assert np.all(table.n_mech_only <= table.n_dce)


def test_mechanical_term_is_phase_invariant_but_h_term_is_not():
    shifted = CFG._replace(drive=DriveParams(v_pp=5e-4, phase=0.3, omega_d=OMEGA_M))
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
        bad = CFG._replace(drive=DriveParams(v_pp=5e-4, phase=phase, omega_d=OMEGA_M))
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
    guard = guard_band(CFG.window_time)
    grid = np.array([0.5 * OMEGA_M, OMEGA_M - 0.5 * guard])
    table = output_spectrum(grid, CAV, CFG, LINE, ENV)
    assert table.flags == ("", "guard-shifted")
    step = grid[1] - grid[0]
    assert table.omega[1] == grid[1] - step
    assert table.omega[0] == grid[0]
    assert np.all(np.isfinite(table.n_total))


def test_unresolvable_guard_collision_blocks_rows():
    guard = guard_band(CFG.window_time)
    # Two points inside the guard band of the modulation tone, so close
    # together that a one-step shift stays inside the band.
    grid = np.array([OMEGA_M - 0.6 * guard, OMEGA_M - 0.5 * guard])
    table = output_spectrum(grid, CAV, CFG, LINE, ENV)
    assert table.flags == ("guard-band", "guard-band")
    assert np.array_equal(table.omega, grid)
    for column in (table.n_total, table.n_dce, table.n_thermal, table.n_mech_only):
        assert np.all(np.isnan(column))


@pytest.mark.parametrize("case", ["mixed", "all-guard-band"])
def test_guard_band_rows_are_not_evaluated(monkeypatch, case):
    # one thermal occupation call sees the live rows only, at w, omega_m + w and omega_m - w
    if case == "mixed":
        sc = _guard_heavy_scenario()
        args = (grid_array(sc), sc.cavity, source_config(sc), sc.line, sc.env)
    else:
        guard = guard_band(CFG.window_time)
        args = (np.array([OMEGA_M - 0.6 * guard, OMEGA_M - 0.5 * guard]), CAV, CFG, LINE, ENV)
    sizes = []

    def counted(omega, env):
        sizes.append(np.size(omega))
        return thermal_occupation(omega, env)

    monkeypatch.setattr("fbar_dce.flux.thermal_occupation", counted)
    flags = np.array(output_spectrum(*args).flags)
    assert ("guard-shifted" in flags and "guard-band" in flags) if case == "mixed" else set(flags) == {"guard-band"}
    assert sizes == [3 * int(np.sum(flags != "guard-band"))]


def test_zero_amplitude_sidebands_are_not_guarded():
    # With delta_c = 0 the sidebands at |omega_m -+ omega_d| carry no line, so
    # the grid around the lower one (omega_m / 2) is neither shifted nor blocked,
    # exactly as source_spectrum accepts it.
    sc = scenario_from_raw(preset_raw("low-q"))
    drive = DriveParams(v_pp=5e-4, omega_d=1.5 * OMEGA_M)
    cfg = SourceConfig(drive=drive, cap=TimeVaryingCap(4e-13, 0.0, OMEGA_M), window_time=1e-6)
    grid = np.linspace(0.45, 0.55, 2001) * OMEGA_M
    table = output_spectrum(grid, sc.cavity, cfg, sc.line, sc.env)
    assert set(table.flags) == {""}
    assert np.array_equal(table.omega, grid)
    for column in (table.n_total, table.n_dce, table.n_thermal, table.n_mech_only):
        assert np.all(np.isfinite(column))
    assert np.all(np.isfinite(source_spectrum(cfg, grid)))


def _scalar_guard_resolution(grid, cfg):
    # the per-point loop that the array pass in flux replaced, kept as its reference
    flags = [""] * len(grid)
    if cfg.drive.v_pp == 0.0:
        return grid, flags
    guard = guard_band(cfg.window_time)
    step = grid[1] - grid[0] if len(grid) > 1 else guard
    tones = [cfg.drive.omega_d, cfg.cap.omega_m + cfg.drive.omega_d, cfg.cap.omega_m - cfg.drive.omega_d]
    tones = [abs(nu) for nu in tones if nu != 0.0]
    out = grid.copy()
    for i, w in enumerate(grid):
        for nu in tones:
            if abs(w - nu) < guard:
                shifted = w + step if w >= nu else w - step
                if abs(shifted - nu) < guard:
                    flags[i] = "guard-band"
                else:
                    out[i] = shifted
                    flags[i] = "guard-shifted"
    return out, flags


def test_guard_resolution_matches_scalar_loop():
    guard = guard_band(CFG.window_time)
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
    cases.append((np.linspace(0.1, 0.9, 7) * OMEGA_M, CFG._replace(drive=DriveParams(v_pp=0.0, omega_d=OMEGA_M))))
    later_tone_blocks_earlier_shift = False
    for grid, cfg in cases:
        want_omega, want_flags = _scalar_guard_resolution(grid, cfg)
        omega, codes = _resolve_guard_collisions(grid, cfg)
        assert np.array_equal(omega, want_omega)
        assert [FLAGS[code] for code in codes.tolist()] == want_flags
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
    omega, codes = _resolve_guard_collisions(grid, cfg)
    want_omega, want_flags = _scalar_guard_resolution(grid, cfg)
    assert np.array_equal(omega, want_omega)
    assert [FLAGS[code] for code in codes.tolist()] == want_flags
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
    silent = CFG._replace(drive=DriveParams(v_pp=0.0, omega_d=OMEGA_M))
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


@pytest.mark.parametrize("swept", [(0, 1, 2), (0,)], ids=["all-three", "v_pp-alone"])
def test_lanes_give_the_bits_of_their_scalar_evaluations(swept):
    # a column of three configurations over a grid with guard-shifted and guard-band points;
    # v_pp alone leaves the mixing terms, and so n_thermal, without the lane axis
    sc = _guard_heavy_scenario()
    grid, base = grid_array(sc), source_config(sc)
    lanes = [(5e-4, DELTA_C, 55.0), (3e-6, 0.5 * DELTA_C, 1e4), (2e-3, 4.0 * DELTA_C, 1.0)]
    lanes = [tuple(x if k in swept else lanes[0][k] for k, x in enumerate(lane)) for lane in lanes]

    def spectrum(v_pp, delta_c, z0):
        cfg = base._replace(drive=base.drive._replace(v_pp=v_pp), cap=base.cap._replace(delta_c=delta_c))
        return output_spectrum(grid, sc.cavity, cfg, LineParams(z0=z0, v_light=sc.line.v_light), sc.env)

    columns = [np.array([[x] for x in column]) if k in swept else column[0] for k, column in enumerate(zip(*lanes))]
    table = spectrum(*columns)
    assert {"guard-shifted", "guard-band"} <= set(table.flags)
    for i, lane in enumerate(lanes):
        want = spectrum(*lane)
        assert table.flags == want.flags
        assert np.array_equal(table.omega, want.omega)
        for name in ("n_total", "n_dce", "n_thermal", "n_mech_only"):
            assert getattr(table, name)[i].tobytes() == getattr(want, name).tobytes(), name


def test_lane_fields_check_every_entry():
    # a sweep's lanes enter through cli._sweep_config: one entry out of range among good ones fails its row of
    # scenario._BOUNDS for the whole batch, NaN included
    sc = scenario_from_raw(preset_raw("low-q"))
    bound = sc.geometry.t_piezo / 100.0
    wide = sc._replace(c_plate=1e308, geometry=sc.geometry._replace(t_piezo=1e10))
    for scenario, axis, values, message in (
        (sc, "v_pp", [5e-4, -1e-30], "drive.v_pp must be non-negative"),
        (sc, "z0", [55.0, math.nan], "line.z0 must be strictly positive"),
        (sc, "q", [2.0, 0.5], "geometry.quality must be >= 1"),
        (sc, "delta_x", [1e-12, math.nan], "delta_x must be non-negative"),
        (wide, "delta_x", [1e-3, 1e7], "cap.delta_c must satisfy 0 <= delta_c < c0"),
    ):
        with np.errstate(over="ignore"), pytest.raises(ConfigError) as err:  # c0 * delta_x overflows in the last
            cli._sweep_config(scenario, axis, values, False)
        assert (err.type, str(err.value)) == (ConfigError, message)
    # an entry beyond t_piezo/100 breaks the expansion
    with pytest.raises(ValidityError):
        cli._sweep_config(sc, "delta_x", [1e-12, bound], False)
    with pytest.raises(ValidityError):
        delta_capacitance(sc.geometry, np.array([[1e-12], [bound]]), sc.c_plate)


def _generated_scenario():
    # perfbench's grid-100x generated scenario (seed 0) at 20 000 points: its last 300 rows are
    # guard-band, but for one guard-shifted row
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    raw = workloads.generated_scenario(0)
    raw["grid"]["points"] = 20_000
    return scenario_from_raw(raw)


@pytest.mark.parametrize("name", [*PRESET_NAMES, "guard-heavy", "generated"])
def test_evaluation_does_not_depend_on_grid_split(name):
    """Contiguous blocks of 1, 7, 1000 and 9999 rows, concatenated, give the whole grid's bits and flags.

    The command line evaluates a spectrum per row block, so a row must depend
    only on its own grid point and the guard shift step: this pins the
    evaluation's array shapes, one-row blocks included, and guard resolution
    on grids with guard-shifted and guard-band rows. Each block is given the
    whole grid's step, as the command line gives it; with its own step
    (grid[1] - grid[0] of the block, the guard band for one row), the
    generated scenario split after 9999 rows moves its guard-shifted row. On
    the 20 000-row generated grid the 1- and 7-row blocks start 70 rows before
    the first guard-band row, the guard-shifted row included; the larger
    blocks cover every grid.
    """
    built = {"guard-heavy": _guard_heavy_scenario, "generated": _generated_scenario}
    sc = built[name]() if name in built else scenario_from_raw(preset_raw(name))
    grid, cfg = grid_array(sc), source_config(sc)
    whole = output_spectrum(grid, sc.cavity, cfg, sc.line, sc.env)
    assert ("guard-shifted" in whole.flags) == (name in ("guard-heavy", "generated"))
    for size in (1, 7, 1000, 9999):
        start = 0 if size >= 1000 or len(grid) <= 2000 else (whole.flags.index("guard-band") - 70) // size * size
        blocks = [
            output_spectrum(grid[i : i + size], sc.cavity, cfg, sc.line, sc.env, grid[1] - grid[0])
            for i in range(start, len(grid), size)
        ]
        assert sum((block.flags for block in blocks), ()) == whole.flags[start:], size
        for column in ("omega", "n_total", "n_dce", "n_thermal", "n_mech_only"):
            joined = np.concatenate([getattr(block, column) for block in blocks])
            assert joined.tobytes() == getattr(whole, column)[start:].tobytes(), (size, column)
