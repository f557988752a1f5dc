"""End-to-end acceptance checks over the shipped presets.

Each check prints a single verdict line (run with -s to see them all) with
the measured values, then asserts. Two of the reference targets below are
not reproducible from the stated preset inputs, whatever the implementation:

* the electrode-area inverse check (criterion 04): the quoted area is
  inconsistent with the quoted plate capacitance, film thickness, and
  permittivity by a factor of ~2.2;
* the squeezing-oracle deviation bound (criterion 11): a 60-level basis
  truncates the growth at the end of the requested time range at the 1e-2
  level, far above the requested 1e-6 (a 240-level basis does reach it).

Both checks run the stated configuration faithfully and fail, reporting the
computed values.
"""

import time

import numpy as np

from paper_checks import (
    MbvdParams,
    area_from_capacitance,
    equivalent_impedance,
    impedance_scaling_check,
    inout_transfer,
    plate_impedance,
    resonant_rate_scaling,
    transfer_determinant,
    vc_ratio,
)

from fbar_dce.cavity import cavity_resonances, reflection_coefficient, resonance_residual
from fbar_dce.constants import TWO_PI
from fbar_dce.flux import output_spectrum, thermal_occupation
from fbar_dce.piezo import driven_amplitude
from fbar_dce.scenario import (
    grid_array,
    load_scenario,
    motional_amplitude,
    source_config,
    squeeze_params,
)
from fbar_dce.squeeze import analytic_photon_number, evolve_series, squeeze_coupling

LOW_Q = load_scenario("low-q")
HIGH_Q = load_scenario("high-q")
OMEGA_M = LOW_Q.geometry.omega_m


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_01_drive_amplitude_and_slope():
    driven_amplitude(LOW_Q.material, LOW_Q.geometry, LOW_Q.drive)  # warm-up
    runtime = min(
        _timed(lambda: driven_amplitude(LOW_Q.material, LOW_Q.geometry, LOW_Q.drive))
        for _ in range(3)
    )
    delta_x = driven_amplitude(LOW_Q.material, LOW_Q.geometry, LOW_Q.drive)
    slope = delta_x / LOW_Q.drive.v_pp
    ok = _within(delta_x, 8.5e-13, 0.05) and _within(slope, 1.7e-9, 0.05) and runtime < 1e-3
    _verdict(
        1,
        ok,
        f"drive amplitude {delta_x:.4e} m (target 8.5e-13 +-5%), "
        f"slope {slope:.4e} m/V (target 1.7e-9 +-5%), runtime {runtime:.2e} s (< 1e-3)",
    )


def test_criterion_02_high_quality_amplitude():
    delta_x = motional_amplitude(HIGH_Q)
    ok = _within(delta_x, 8.5e-11, 0.05)
    _verdict(2, ok, f"high-Q amplitude {delta_x:.4e} m (target 8.5e-11 +-5%)")


def test_criterion_03_plate_impedance():
    w = TWO_PI * 2.1e9
    mbvd = MbvdParams.of(LOW_Q)
    z0 = plate_impedance(mbvd, w)
    _, err = equivalent_impedance(mbvd, w)
    ok = (
        _within(z0.real, 8.0, 0.01)
        and _within(z0.imag, -189.0, 0.01)
        and err < 0.01
    )
    _verdict(
        3,
        ok,
        f"plate impedance {z0.real:.3f}{z0.imag:+.3f}j Ohm (target 8-189j +-1%), "
        f"one-branch reduction error {err:.4e} (< 0.01)",
    )


def test_criterion_04_electrode_area_inverse_check():
    area = area_from_capacitance(LOW_Q.raw["material"]["permittivity_f_m"], LOW_Q.geometry.t_piezo, LOW_Q.c_plate)
    ok = _within(area, 7.7e-10, 0.03)
    _verdict(
        4,
        ok,
        f"area from plate capacitance {area:.4e} m^2 vs target 7.7e-10 +-3% "
        f"(off by {area / 7.7e-10:.2f}x; the target is inconsistent with the preset "
        "capacitance, thickness, and permittivity)",
    )


def test_criterion_05_cavity_unitarity():
    start = time.perf_counter()
    grid = np.linspace(0.0, OMEGA_M, 10002)[1:-1]
    refl_dev = float(np.max(np.abs(np.abs(reflection_coefficient(grid, LOW_Q.cavity)) - 1.0)))
    det_dev = max(
        abs(transfer_determinant(inout_transfer(w, LOW_Q.cavity.omega_coupling)) - 1.0)
        for w in grid
    )
    runtime = time.perf_counter() - start
    ok = refl_dev < 1e-10 and det_dev < 1e-12 and runtime < 1.0
    _verdict(
        5,
        ok,
        f"max ||R|-1| {refl_dev:.2e} (< 1e-10), max |det-1| {det_dev:.2e} (< 1e-12) "
        f"on 10^4 points, runtime {runtime:.2f} s (< 1)",
    )


def test_criterion_06_resonances_vs_dense_scan():
    band = (0.05 * OMEGA_M, OMEGA_M)
    roots = cavity_resonances(LOW_Q.cavity, band)
    grid = np.linspace(band[0], band[1], 1_000_000)
    cav = LOW_Q.cavity
    mismatch = np.tan(TWO_PI * grid / cav.omega_0) - cav.omega_coupling / grid
    upcross = np.where((mismatch[:-1] < 0.0) & (mismatch[1:] > 0.0))[0]
    cell = grid[1] - grid[0]
    in_cell = all(
        grid[i] - cell <= root <= grid[i + 1] + cell for root, i in zip(roots, upcross)
    )
    residual = max(abs(resonance_residual(r, cav)) for r in roots)
    ok = len(roots) == len(upcross) and in_cell and residual < 1e-9
    _verdict(
        6,
        ok,
        f"{len(roots)} roots vs {len(upcross)} sign changes on 10^6 points, "
        f"all within one cell: {in_cell}, max residual {residual:.2e} (< 1e-9)",
    )


def test_criterion_07_peak_magnitude_and_thermal_floor():
    cfg = source_config(LOW_Q)
    peak = output_spectrum(
        np.array([0.5 * OMEGA_M]), LOW_Q.cavity, cfg, LOW_Q.line, LOW_Q.env
    ).n_dce[0]
    floor = thermal_occupation(TWO_PI * 2.1e9, LOW_Q.env)
    start = time.perf_counter()
    output_spectrum(grid_array(LOW_Q), LOW_Q.cavity, cfg, LOW_Q.line, LOW_Q.env)
    runtime = time.perf_counter() - start
    ok = 1e-3 <= peak <= 1e-1 and _within(floor, 4.19e-5, 0.02) and runtime < 5.0
    _verdict(
        7,
        ok,
        f"n_dce(half modulation) {peak:.4e} (window [1e-3, 1e-1]), thermal floor "
        f"{floor:.4e} (target 4.19e-5 +-2%), 2000-point spectrum {runtime:.2f} s (< 5)",
    )


def test_criterion_08_mechanical_decomposition():
    cfg = source_config(LOW_Q)
    table = output_spectrum(
        np.array([0.5 * OMEGA_M]), LOW_Q.cavity, cfg, LOW_Q.line, LOW_Q.env
    )
    mech = table.n_mech_only[0]
    ratio = mech / table.n_dce[0]
    ok = 5e-10 <= mech <= 5e-8 and 1e-7 <= ratio <= 1e-5
    _verdict(
        8,
        ok,
        f"n_mech_only {mech:.4e} (within one decade of 5e-9), "
        f"mech fraction {ratio:.4e} (within one decade of 1e-6)",
    )


def test_criterion_09_scaling_laws():
    cfg = source_config(LOW_Q)
    exponents = resonant_rate_scaling(LOW_Q.cavity, cfg, LOW_Q.line)
    factor = 1e4 / 55.0
    report = impedance_scaling_check(LOW_Q.cavity, cfg, LOW_Q.line, factor)
    ok = (
        abs(exponents.exponent_delta_x - 2.0) <= 1e-6
        and _within(report.s_ratio, factor, 1e-9)
        and _within(report.h_ratio, factor**0.5, 1e-9)
        and _within(report.mech_flux_ratio, factor**2, 1e-9)
        and _within(report.mech_electrical_improvement, factor, 1e-9)
    )
    _verdict(
        9,
        ok,
        f"flux exponent in amplitude {exponents.exponent_delta_x:.9f} (2 +-1e-6), "
        f"|S| ratio {report.s_ratio:.6f} (= z0 ratio), |h| ratio {report.h_ratio:.6f} "
        f"(= sqrt), mech flux x{report.mech_flux_ratio:.1f} (~3.3e4), "
        f"mech/elec improvement x{report.mech_electrical_improvement:.1f} (~182)",
    )


def test_criterion_10_velocity_ratios():
    low = vc_ratio(motional_amplitude(LOW_Q), OMEGA_M, LOW_Q.cavity.v_light)
    high = vc_ratio(motional_amplitude(HIGH_Q), OMEGA_M, HIGH_Q.cavity.v_light)
    ok = _within(low, 2.2e-10, 0.10) and _within(high, 2.2e-8, 0.10)
    _verdict(
        10,
        ok,
        f"peak mirror speed / signal speed {low:.4e} (target 2.2e-10 +-10%) low-Q, "
        f"{high:.4e} (target 2.2e-8 +-10%) high-Q",
    )


def test_criterion_11_squeezing_oracle():
    start = time.perf_counter()
    lam = squeeze_coupling(squeeze_params(LOW_Q))
    times = np.linspace(0.0, 1.5, 16)[1:] / (2.0 * lam)
    results = evolve_series(lam, times, dim=60)
    deviation = max(
        abs(res.mean_photons - analytic_photon_number(lam, t))
        for t, res in zip(times, results)
    )
    # 0 by construction, since only even levels are evolved; parity is tested against the
    # full basis in tests/test_squeeze.py::test_even_level_evolution_matches_full_basis_bits.
    parity = max(res.odd_population for res in results)
    defect = max(abs(res.norm_defect) for res in results)
    runtime = time.perf_counter() - start
    ok = deviation < 1e-6 and parity < 1e-14 and defect < 1e-9 and runtime < 2.0
    _verdict(
        11,
        ok,
        f"max |closed form - dim-60 evolution| {deviation:.4e} over 2*lambda*t <= 1.5 "
        f"(bound 1e-6; the 60-level basis truncates at this range), parity leakage "
        f"{parity:.1e} (< 1e-14), norm defect {defect:.2e} (< 1e-9), "
        f"runtime {runtime:.2f} s (< 2)",
    )


def test_criterion_12_no_drive_equilibrium():
    raw = dict(LOW_Q.raw)
    raw["drive"] = dict(raw["drive"], v_pp_volts=0.0)
    from fbar_dce.scenario import scenario_from_raw

    quiet = scenario_from_raw(raw)
    grid = grid_array(quiet)
    table = output_spectrum(grid, quiet.cavity, source_config(quiet), quiet.line, quiet.env)
    expected = thermal_occupation(grid, quiet.env)
    rel = float(np.max(np.abs(table.n_total - expected) / expected))
    ok = rel <= 1e-12
    _verdict(12, ok, f"max relative |n_total - n_in| {rel:.2e} (<= 1e-12) on the full grid")
