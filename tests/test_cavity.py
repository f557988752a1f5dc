"""Tests for the cavity-dressing module.

The resonance solver is checked against a dense sign-change scan of the
mismatch function (poles and roots are distinguished by crossing direction),
and the dressed coefficients against independent recomposition from their
factors.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from paper_checks import inout_transfer, transfer_determinant

from fbar_dce import cavity
from fbar_dce.constants import TWO_PI
from fbar_dce.errors import ConfigError, ConvergenceError, UnderflowError
from fbar_dce.cavity import (
    CavityParams,
    cavity_resonances,
    dressed_coefficients,
    mode_response,
    reflection_coefficient,
    resonance_residual,
)
from fbar_dce.piezo import DriveParams
from fbar_dce.scenario import PRESET_NAMES, load_scenario
from fbar_dce.scatter import (
    LineParams,
    SourceConfig,
    TimeVaryingCap,
    h_coefficient,
    s_coefficient,
)

OMEGA_M = 2.0 * math.pi * 4.2e9
OMEGA_C = 2.0 * math.pi * 29.1e9
CAV = CavityParams(length_d=3.3e-2, v_light=1.0e8, omega_coupling=OMEGA_C, l_eff=2.2e-3)
LINE = LineParams(z0=55.0, v_light=1.0e8)
DELTA_C = 9.772533550193697e-19
CAP = TimeVaryingCap(c0=0.4e-12, delta_c=DELTA_C, omega_m=OMEGA_M)
CFG = SourceConfig(drive=DriveParams(v_pp=5.0e-4, omega_d=OMEGA_M), cap=CAP, window_time=1.0e-6)

# Frozen solver outputs for the standard cavity over (0.05, 1)*OMEGA_M.
OMEGA_0 = 17849958259.032913
ROOTS_OVER_OMEGA_M = (0.16651498311827823, 0.49955668165972156, 0.8326332634663097)
ABS_A_AT_HALF = 11.199328425557564


def _mismatch(w):
    return np.tan(TWO_PI * w / CAV.omega_0) - CAV.omega_coupling / w


def test_derived_geometry():
    assert CAV.d_eff == pytest.approx(3.52e-2, rel=1e-12)
    assert CAV.omega_0 == pytest.approx(OMEGA_0, rel=1e-13)


def test_inout_transfer_entries():
    m = inout_transfer(2.0 * math.pi * 2.1e9, OMEGA_C)
    beta = m[0, 1]
    assert beta == pytest.approx(1j * 29.1 / 4.2, rel=1e-12)
    assert beta == pytest.approx(6.93j, rel=1e-3)
    assert m[1, 1] == pytest.approx(1.0 + 29.1j / 4.2, rel=1e-12)
    assert m[1, 0] == np.conj(beta)


def test_inout_transfer_determinant_exact():
    # the compensated determinant cancels the large |alpha|^2 and |beta|^2
    # exactly, even where omega_c/omega is enormous
    for omega in (1e3, 1e6, 0.5 * OMEGA_M, 10.0 * OMEGA_M):
        det = transfer_determinant(inout_transfer(omega, OMEGA_C))
        assert abs(det - 1.0) < 1e-15


def test_inout_transfer_decoupled_identity():
    m = inout_transfer(0.5 * OMEGA_M, 0.0)
    assert np.array_equal(m, np.eye(2, dtype=complex))
    with pytest.raises(ConfigError):
        inout_transfer(0.0, OMEGA_C)


def test_reflection_unimodular_on_grid():
    grid = np.linspace(0.02, 3.0, 1000) * OMEGA_M
    r = reflection_coefficient(grid, CAV)
    assert np.max(np.abs(np.abs(r) - 1.0)) < 1e-10


def test_reflection_decoupled_limit():
    w = 0.3 * CAV.omega_0
    cav = replace(CAV, omega_coupling=1e6 * w)
    assert abs(reflection_coefficient(w, cav) - 1.0) < 1e-4


def test_reflection_strong_coupling_limit_linear_convergence():
    # leading-order expansion: R -> -exp(2i*k*d_eff) linearly in omega_c
    w = 2.0 * math.pi * 2.1e9
    target = -np.exp(2j * w * CAV.d_eff / CAV.v_light)
    errs = []
    for f in (1e-4, 1e-6):
        cav = replace(CAV, omega_coupling=f * w)
        errs.append(abs(reflection_coefficient(w, cav) - target))
    assert errs[0] < 2e-6
    assert errs[1] < 2e-8
    assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.01)


def test_reflection_denominator_underflow():
    # phase tuned a hair under pi with the coupling term matching the gap
    eps = 1e-8
    omega = (math.pi - eps) * CAV.v_light / (2.0 * CAV.d_eff)
    cav = replace(CAV, omega_coupling=2.0 * omega / eps)
    with pytest.raises(UnderflowError):
        reflection_coefficient(omega, cav)
    with pytest.raises(UnderflowError):
        mode_response(omega, cav)


def test_mode_response_decoupled_limit():
    w = 0.3 * CAV.omega_0
    cav = replace(CAV, omega_coupling=1e6 * w)
    assert abs(mode_response(w, cav)) < 1e-5


def test_mode_response_peaks_at_resonances():
    # dense-grid oracle: local maxima of |A| coincide with the solver's roots
    roots = cavity_resonances(CAV, (0.05 * OMEGA_M, OMEGA_M))
    grid = np.linspace(0.05 * OMEGA_M, OMEGA_M, 4000)
    mag = np.abs(mode_response(grid, CAV))
    interior = np.flatnonzero((mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])) + 1
    cell = grid[1] - grid[0]
    assert len(interior) == len(roots) == 3
    for peak_idx, root in zip(interior, roots):
        assert abs(grid[peak_idx] - root) <= cell


def test_mode_response_resonant_contrast():
    roots = cavity_resonances(CAV, (0.05 * OMEGA_M, OMEGA_M))
    near_21ghz = min(roots, key=lambda r: abs(r - 2.0 * math.pi * 2.1e9))
    peak = abs(mode_response(near_21ghz, CAV))
    for midpoint in (0.5 * (roots[0] + roots[1]), 0.5 * (roots[1] + roots[2])):
        assert peak >= 10.0 * abs(mode_response(midpoint, CAV))


def test_mode_response_frozen_magnitude():
    assert abs(mode_response(0.5 * OMEGA_M, CAV)) == pytest.approx(ABS_A_AT_HALF, rel=1e-12)


def test_cavity_resonances_frozen_roots():
    roots = cavity_resonances(CAV, (0.05 * OMEGA_M, OMEGA_M))
    assert len(roots) == 3
    for root, expected in zip(roots, ROOTS_OVER_OMEGA_M):
        assert root / OMEGA_M == pytest.approx(expected, rel=1e-12)
    assert roots == sorted(roots)


def test_cavity_resonances_against_sign_scan():
    # pole-aware dense scan: the mismatch rises through zero at a root and
    # falls through the axis at a tangent pole
    lo, hi = 0.05 * OMEGA_M, OMEGA_M
    grid = np.linspace(lo, hi, 1_000_000)
    g = _mismatch(grid)
    upcross = np.flatnonzero((g[:-1] < 0.0) & (g[1:] > 0.0))
    roots = cavity_resonances(CAV, (lo, hi))
    assert len(upcross) == len(roots)
    cell = grid[1] - grid[0]
    for idx, root in zip(upcross, roots):
        assert grid[idx] - cell <= root <= grid[idx + 1] + cell


def test_cavity_resonances_residuals():
    roots = cavity_resonances(CAV, (0.05 * OMEGA_M, OMEGA_M))
    for root in roots:
        assert resonance_residual(root, CAV) < 1e-9 * (CAV.omega_coupling / root)
        assert resonance_residual(root, CAV) < 1e-9


def test_cavity_resonances_band_subdivision():
    full = cavity_resonances(CAV, (0.05 * OMEGA_M, OMEGA_M))
    edges = [0.05, 0.30, 0.55, 0.75, 1.0]
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        pieces.extend(cavity_resonances(CAV, (a * OMEGA_M, b * OMEGA_M)))
    assert len(pieces) == len(full)
    for x, y in zip(pieces, full):
        assert x == pytest.approx(y, rel=1e-12)


def test_cavity_resonances_two_per_period():
    roots = cavity_resonances(CAV, (0.3 * CAV.omega_0, 1.3 * CAV.omega_0))
    assert len(roots) == 2


def test_cavity_resonances_weak_coupling_near_tangent_zeros():
    cav = replace(CAV, omega_coupling=1e-3 * CAV.omega_0)
    roots = cavity_resonances(cav, (0.3 * CAV.omega_0, 1.8 * CAV.omega_0))
    assert len(roots) == 3
    for n, root in enumerate(roots, start=1):
        assert root == pytest.approx(n * CAV.omega_0 / 2.0, rel=1e-3)


def test_cavity_resonances_empty_band_and_validation():
    assert cavity_resonances(CAV, (0.30 * CAV.omega_0, 0.60 * CAV.omega_0)) == []
    with pytest.raises(ConfigError):
        cavity_resonances(CAV, (OMEGA_M, 0.05 * OMEGA_M))
    with pytest.raises(ConfigError):
        cavity_resonances(CAV, (0.0, OMEGA_M))


def test_cavity_resonances_reports_exhausted_refinement(monkeypatch):
    monkeypatch.setattr(cavity, "_MAX_REFINE_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="resonance refinement failed"):
        cavity_resonances(CAV, (0.05 * OMEGA_M, OMEGA_M))


def test_resonance_residual_finite_at_tangent_pole():
    pole = 3.0 * CAV.omega_0 / 4.0
    assert np.isfinite(resonance_residual(pole, CAV))
    # math.tan is finite on every float, so the mismatch needs no step off a pole: the float
    # nearest each of the first 1000 poles of each preset, and its two neighbours
    for preset in PRESET_NAMES:
        cav = load_scenario(preset).cavity
        for pole in (2 * np.arange(1000) + 1) * (cav.omega_0 / 4.0):
            for w in (np.nextafter(pole, 0.0), pole, np.nextafter(pole, np.inf)):
                assert math.isfinite(resonance_residual(float(w), cav)), (preset, w)


def test_dressed_coefficients_static_mirror():
    quiet = SourceConfig(
        drive=DriveParams(v_pp=0.0, omega_d=OMEGA_M),
        cap=TimeVaryingCap(c0=0.4e-12, delta_c=0.0, omega_m=OMEGA_M),
        window_time=1.0e-6,
    )
    out = dressed_coefficients(0.5 * OMEGA_M, CAV, quiet, LINE)
    assert abs(abs(out.r_res) - 1.0) < 1e-10
    assert out.s1_res == 0.0 and out.s2_res == 0.0 and out.h_res == 0.0 and out.h_res_static == 0.0


def test_dressed_coefficients_compositional_oracle():
    # recompose |S2| at the symmetry point from independently evaluated factors
    half = 0.5 * OMEGA_M
    out = dressed_coefficients(half, CAV, CFG, LINE)
    bare = s_coefficient(DELTA_C, LINE.z0, half, OMEGA_M - half)
    expected_sq = (abs(bare) * abs(mode_response(half, CAV)) ** 2) ** 2
    assert abs(out.s2_res) ** 2 == pytest.approx(expected_sq, rel=1e-12)
    literal = (DELTA_C * LINE.z0 * half) ** 2 * abs(mode_response(half, CAV)) ** 4
    assert abs(out.s2_res) ** 2 == pytest.approx(literal, rel=1e-12)
    assert abs(out.s2_res) ** 2 == pytest.approx(7.9123587151823e-9, rel=1e-10)


def test_dressed_coefficients_sideband_magnitudes_at_symmetry_point():
    # conjugating the self-frequency response does not change the magnitude,
    # so the S1-style (unconjugated) product over the same frequency pair
    # matches |S2| at omega = half the modulation frequency
    half = 0.5 * OMEGA_M
    out = dressed_coefficients(half, CAV, CFG, LINE)
    a_self = mode_response(half, CAV)
    s1_style = s_coefficient(DELTA_C, LINE.z0, half, OMEGA_M - half) * a_self * a_self
    assert abs(out.s2_res) == pytest.approx(abs(s1_style), rel=1e-12)


def test_dressed_coefficients_lower_sideband_phase():
    # at omega = omega_m / 2 the lower sideband pairs the self-frequency
    # response with its own conjugate, so S2 is the bare amplitude times the
    # positive real |A|^2: the conjugate carries the phase, not the magnitude
    half = 0.5 * OMEGA_M
    out = dressed_coefficients(half, CAV, CFG, LINE)
    ratio = out.s2_res / s_coefficient(DELTA_C, LINE.z0, half, OMEGA_M - half)
    assert ratio.real > 0.0
    assert abs(ratio.imag) <= 1e-12 * ratio.real


def test_dressed_coefficients_upper_sideband_compositional_oracle():
    # |S1| from independently evaluated factors: the upper sideband sits at omega_m + omega
    for w in np.array([0.1, 0.3, 0.5, 0.8]) * OMEGA_M:
        out = dressed_coefficients(w, CAV, CFG, LINE)
        bare = s_coefficient(DELTA_C, LINE.z0, w, OMEGA_M + w)
        expected = abs(bare) * abs(mode_response(w, CAV)) * abs(mode_response(OMEGA_M + w, CAV))
        assert abs(out.s1_res) == pytest.approx(expected, rel=1e-12)


def test_dressed_coefficients_h_term():
    half = 0.5 * OMEGA_M
    out = dressed_coefficients(half, CAV, CFG, LINE)
    den = (1.0 - 2j * half / OMEGA_C) + np.exp(2j * half * CAV.d_eff / CAV.v_light)
    assert out.h_res * den == pytest.approx(h_coefficient(half, CFG, LINE), rel=1e-12)
    assert abs(out.h_res) ** 2 == pytest.approx(0.008461875232374435, rel=1e-10)
    # the delta_c = 0 reference: the unmodulated mirror over the same denominator
    static = replace(CFG, cap=TimeVaryingCap(c0=0.4e-12, delta_c=0.0, omega_m=OMEGA_M))
    assert out.h_res_static * den == pytest.approx(h_coefficient(half, static, LINE), rel=1e-12)


def test_dressed_coefficients_linearities():
    half = 0.5 * OMEGA_M
    base = dressed_coefficients(half, CAV, CFG, LINE)
    cap2 = TimeVaryingCap(c0=0.4e-12, delta_c=2.0 * DELTA_C, omega_m=OMEGA_M)
    doubled_cap = dressed_coefficients(half, CAV, replace(CFG, cap=cap2), LINE)
    assert doubled_cap.s1_res == pytest.approx(2.0 * base.s1_res, rel=1e-12)
    assert doubled_cap.s2_res == pytest.approx(2.0 * base.s2_res, rel=1e-12)
    drv2 = DriveParams(v_pp=1.0e-3, omega_d=OMEGA_M)
    doubled_drive = dressed_coefficients(half, CAV, replace(CFG, drive=drv2), LINE)
    assert doubled_drive.h_res == pytest.approx(2.0 * base.h_res, rel=1e-12)
    assert doubled_drive.s2_res == base.s2_res


def test_dressed_coefficients_domain():
    for bad in (0.0, -1.0, OMEGA_M, 1.5 * OMEGA_M):
        with pytest.raises(ConfigError):
            dressed_coefficients(bad, CAV, CFG, LINE)


def test_dressed_coefficients_array_matches_pointwise():
    # one call over an array gives, entry by entry, the single-point values
    # (numpy's scalar and array complex arithmetic may differ in the last bit)
    grid = np.linspace(0.05, 0.95, 9) * OMEGA_M
    arrays = dressed_coefficients(grid, CAV, CFG, LINE)
    for i, w in enumerate(grid):
        point = dressed_coefficients(w, CAV, CFG, LINE)
        for a, p in zip(arrays, point):
            assert a[i] == pytest.approx(p, rel=1e-14, abs=0.0)
    assert np.max(np.abs(np.abs(arrays.r_res) - 1.0)) < 1e-10
    assert np.array_equal(arrays.r_res, reflection_coefficient(grid, CAV))


def test_dressed_coefficients_unimodularity_enforced():
    # a cavity whose round-trip phase overflows gives a NaN reflection; the
    # production check refuses it instead of passing NaN rows on
    broken = replace(CAV, v_light=1e-300)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(UnderflowError) as info:
        dressed_coefficients(0.5 * OMEGA_M, broken, CFG, LINE)
    assert str(info.value) == "lossless-reflection invariant violated: max ||R| - 1| = nan"


@pytest.mark.parametrize("defect, refused", [(1e-11, False), (1e-9, True)])
def test_dressed_coefficients_reflection_bound(monkeypatch, defect, refused):
    # the production check refuses ||R| - 1| above 1e-10, not only a NaN reflection
    exact = cavity._reflection
    monkeypatch.setattr(cavity, "_reflection", lambda trip, den: (1.0 + defect) * exact(trip, den))
    grid = np.linspace(0.1, 0.9, 5) * OMEGA_M
    if refused:
        with pytest.raises(UnderflowError, match="lossless-reflection invariant violated"):
            dressed_coefficients(grid, CAV, CFG, LINE)
    else:
        dressed_coefficients(grid, CAV, CFG, LINE)


def test_cavity_params_validation():
    with pytest.raises(ConfigError):
        CavityParams(length_d=0.0, v_light=1.0e8, omega_coupling=OMEGA_C, l_eff=2.2e-3)
    with pytest.raises(ConfigError):
        CavityParams(length_d=3.3e-2, v_light=1.0e8, omega_coupling=0.0, l_eff=2.2e-3)
    with pytest.raises(ConfigError):
        CavityParams(length_d=3.3e-2, v_light=1.0e8, omega_coupling=OMEGA_C, l_eff=-1e-3)
