"""Tests for the modulated-mirror scattering module.

The windowed source transform is checked against a trapezoid-corrected FFT of
the sampled time series; the steady spectral part is checked by averaging the
windowed closed form over one beat period of the window length, which cancels
the oscillatory turn-on terms exactly.
"""

import math

import numpy as np
import pytest
from paper_checks import capacitance_at, line_weights, source_time, windowed_source_transform

from fbar_dce.constants import HBAR, TWO_PI
from fbar_dce.errors import ConfigError, GuardBandError
from fbar_dce.piezo import DriveParams
from fbar_dce.scatter import (
    LineParams,
    SourceConfig,
    TimeVaryingCap,
    effective_length,
    guard_band,
    h_coefficient,
    s_coefficient,
    source_spectrum,
)
from fbar_dce.scenario import load_scenario, source_config

OMEGA_M = 2.0 * math.pi * 4.2e9
DELTA_C = 9.772533550193697e-19  # capacitance modulation of the driven film
CAP = TimeVaryingCap(c0=0.4e-12, delta_c=DELTA_C, omega_m=OMEGA_M)
DRIVE = DriveParams(v_pp=5.0e-4, omega_d=OMEGA_M)
CFG = SourceConfig(drive=DRIVE, cap=CAP, window_time=1.0e-6)
LINE = LineParams(z0=55.0, v_light=1.0e8)


def _product_cv(cfg, t):
    """C(t)V(t) evaluated directly; accepts complex t for step differentiation."""
    c = cfg.cap.c0 + cfg.cap.delta_c * np.cos(cfg.cap.omega_m * t)
    v = cfg.drive.v_pp * np.cos(cfg.drive.omega_d * t + cfg.drive.phase)
    return c * v


def _fft_transform_oracle(cfg, n_samples):
    """Trapezoid-corrected DFT of the sampled source term at the FFT bins."""
    dt = cfg.window_time / n_samples
    t = np.arange(n_samples) * dt
    f = source_time(cfg, t)
    # conjugated FFT gives sum_j f_j exp(+i*omega_k*t_j); the bin frequencies
    # satisfy exp(i*omega_k*T) = 1, so the trapezoid end correction is constant
    running_sum = np.conj(np.fft.fft(f))
    end_correction = 0.5 * (source_time(cfg, cfg.window_time) - source_time(cfg, 0.0))
    omegas = TWO_PI * np.arange(n_samples) / cfg.window_time
    return omegas, dt * (running_sum + end_correction) / math.sqrt(TWO_PI)


def test_capacitance_at_extremes_and_mean():
    assert capacitance_at(CAP, 0.0) == CAP.c0 + CAP.delta_c
    assert capacitance_at(CAP, math.pi / OMEGA_M) == pytest.approx(CAP.c0 - CAP.delta_c, rel=1e-15)
    period = TWO_PI / OMEGA_M
    t = np.linspace(0.0, period, 20001)
    mean = np.trapezoid(capacitance_at(CAP, t), t) / period
    assert mean == pytest.approx(CAP.c0, rel=1e-12)


def test_effective_length():
    assert LINE.cap_density == pytest.approx(1.0 / (1.0e8 * 55.0), rel=1e-15)
    assert effective_length(0.4e-12, LINE) == pytest.approx(2.2e-3, rel=1e-12)
    assert effective_length(0.0, LINE) == 0.0
    # Halving the signal speed doubles the capacitance per length, so the
    # same terminating capacitance looks like half the extra length.
    slower = LineParams(z0=55.0, v_light=5e7)
    assert effective_length(0.4e-12, slower) == pytest.approx(1.1e-3, rel=1e-12)


def test_s_coefficient_steps_and_symmetry():
    w = 2.0 * math.pi * 2.1e9
    assert s_coefficient(DELTA_C, 55.0, -w, w) == 0.0
    assert s_coefficient(DELTA_C, 55.0, 0.0, w) == 0.0  # theta(0) = 0 edge convention
    rng = np.random.default_rng(7)
    for w1, w2 in rng.uniform(1e8, 1e11, size=(5, 2)):
        assert s_coefficient(DELTA_C, 55.0, w1, w2) == s_coefficient(DELTA_C, 55.0, w2, w1)


def test_s_coefficient_magnitude_and_phase():
    w = 2.0 * math.pi * 2.1e9
    s = s_coefficient(9.71e-19, 55.0, w, w)
    assert abs(s) == pytest.approx(9.71e-19 * 55.0 * w, rel=1e-12)
    assert abs(s) == pytest.approx(7.05e-7, rel=2e-3)
    assert np.angle(s) == pytest.approx(-math.pi / 2.0, abs=1e-15)


def test_s_coefficient_exactly_linear_in_modulation():
    w1, w2 = 0.4 * OMEGA_M, 1.3 * OMEGA_M
    assert s_coefficient(2.0 * DELTA_C, 55.0, w1, w2) == 2.0 * s_coefficient(DELTA_C, 55.0, w1, w2)


def test_source_time_zero_voltage():
    cfg = CFG._replace(drive=DriveParams(v_pp=0.0, omega_d=OMEGA_M))
    t = np.linspace(0.0, cfg.window_time, 64)
    assert np.all(source_time(cfg, t) == 0.0)


def test_source_time_static_capacitance_single_tone():
    cfg = CFG._replace(cap=TimeVaryingCap(c0=0.4e-12, delta_c=0.0, omega_m=OMEGA_M))
    t = np.linspace(0.0, 5.0 * TWO_PI / OMEGA_M, 41)
    expected = -CAP.c0 * DRIVE.v_pp * OMEGA_M * np.cos(OMEGA_M * t)
    # atol covers roundoff at the cosine zeros, 15 orders below the amplitude
    assert np.allclose(source_time(cfg, t), expected, rtol=1e-12, atol=1e-20)


def test_source_time_matches_step_differentiation():
    # differentiate C(t)V(t) numerically via a complex step, which has no
    # subtractive cancellation and resolves the modulation-suppressed value
    # at the drive zero-crossing
    t0 = math.pi / (2.0 * OMEGA_M)
    step = 1e-20
    numeric = np.imag(_product_cv(CFG, t0 + 1j * step)) / step
    assert source_time(CFG, t0) == pytest.approx(numeric, rel=1e-9)


def test_source_time_step_differentiation_generic_point_and_detuned_drive():
    # a drive above the modulation frequency exercises the folded difference tone
    cfg = CFG._replace(drive=DriveParams(v_pp=5.0e-4, phase=0.3, omega_d=1.5 * OMEGA_M))
    step = 1e-20
    for t0 in (0.37 * TWO_PI / OMEGA_M, 1.91 * TWO_PI / OMEGA_M):
        numeric = np.imag(_product_cv(cfg, t0 + 1j * step)) / step
        assert source_time(cfg, t0) == pytest.approx(numeric, rel=1e-9)


def test_source_time_rejects_out_of_window():
    with pytest.raises(ConfigError):
        source_time(CFG, -1e-9)
    with pytest.raises(ConfigError):
        source_time(CFG, CFG.window_time * 1.001)


def test_windowed_transform_against_fft_oracle_static_capacitance():
    # short incommensurate window keeps the FFT affordable while avoiding
    # bins where the transform is zero by orthogonality
    cfg = SourceConfig(
        drive=DRIVE,
        cap=TimeVaryingCap(c0=0.4e-12, delta_c=0.0, omega_m=OMEGA_M),
        window_time=4.7e-8,
    )
    omegas, oracle = _fft_transform_oracle(cfg, 2**20)
    for k in (57, 105, 120):
        closed = windowed_source_transform(cfg, omegas[k])
        assert abs(closed - oracle[k]) <= 1e-6 * abs(oracle[k])


def test_windowed_transform_against_fft_oracle_full_modulation():
    cfg = CFG._replace(window_time=4.7e-8)
    omegas, oracle = _fft_transform_oracle(cfg, 2**20)
    for k in (57, 105, 120):
        closed = windowed_source_transform(cfg, omegas[k])
        assert abs(closed - oracle[k]) <= 1e-6 * abs(oracle[k])


def test_steady_part_is_window_average_of_turn_on_transform():
    # averaging the windowed transform over one beat period of T removes the
    # oscillatory boundary terms exactly when the tone offsets are commensurate
    for frac, rtol in ((0.5, 1e-11), (0.25, 1e-11)):
        omega = frac * OMEGA_M
        span = TWO_PI / (frac * OMEGA_M)
        windows = 1.0e-6 + np.arange(256) / 256.0 * span
        samples = [
            windowed_source_transform(CFG._replace(window_time=t), omega) for t in windows
        ]
        steady = source_spectrum(CFG, omega)
        assert abs(np.mean(samples) - steady) <= rtol * abs(steady)


def test_steady_part_window_independent():
    omega = 0.37 * OMEGA_M
    a = source_spectrum(CFG, omega)
    b = source_spectrum(CFG._replace(window_time=2.0e-6), omega)
    assert a == b


def test_source_spectrum_scales_linearly_with_voltage():
    omega = 0.42 * OMEGA_M
    doubled = CFG._replace(drive=DriveParams(v_pp=1.0e-3, omega_d=OMEGA_M))
    ratio = source_spectrum(doubled, omega) / source_spectrum(CFG, omega)
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_source_spectrum_zero_voltage_even_on_line():
    cfg = CFG._replace(drive=DriveParams(v_pp=0.0, omega_d=OMEGA_M))
    assert source_spectrum(cfg, OMEGA_M) == 0.0


def test_source_spectrum_guard_band():
    gb = guard_band(CFG.window_time)
    assert gb == pytest.approx(100.0 / CFG.window_time, rel=1e-15)
    with pytest.raises(GuardBandError):
        source_spectrum(CFG, OMEGA_M)
    with pytest.raises(GuardBandError):
        source_spectrum(CFG, 2.0 * OMEGA_M - 0.99 * gb)
    source_spectrum(CFG, 2.0 * OMEGA_M - 1.01 * gb)  # just outside is accepted
    with pytest.raises(ConfigError):
        source_spectrum(CFG, -OMEGA_M / 2.0)


def test_line_weights_tones_and_window_linearity():
    weights = line_weights(CFG)
    assert set(weights) == {OMEGA_M, 2.0 * OMEGA_M}
    expected = -0.5j * math.pi * CAP.c0 * DRIVE.v_pp * OMEGA_M * np.exp(-1j * DRIVE.phase)
    assert weights[OMEGA_M] == pytest.approx(expected / math.sqrt(TWO_PI), rel=1e-12)
    # on a coherent line the windowed transform grows linearly with T, with
    # slope |weight|/pi
    for t_window in (1.0e-6, 2.0e-6):
        on_line = abs(windowed_source_transform(CFG._replace(window_time=t_window), OMEGA_M))
        assert on_line == pytest.approx(abs(weights[OMEGA_M]) * t_window / math.pi, rel=1e-6)


def test_h_coefficient_scales_as_sqrt_impedance():
    omega = 0.5 * OMEGA_M
    h1 = h_coefficient(omega, CFG, LINE)
    h2 = h_coefficient(omega, CFG, LineParams(z0=110.0, v_light=1.0e8))
    assert abs(h2) / abs(h1) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_h_coefficient_frequency_factorization():
    # h(omega)*sqrt(omega) divided by the spectrum is a frequency-independent constant
    w1, w2 = 0.31 * OMEGA_M, 0.77 * OMEGA_M
    c1 = h_coefficient(w1, CFG, LINE) * math.sqrt(w1) / source_spectrum(CFG, w1)
    c2 = h_coefficient(w2, CFG, LINE) * math.sqrt(w2) / source_spectrum(CFG, w2)
    assert c1 == pytest.approx(c2, rel=1e-12)
    assert c1 == pytest.approx(-1j * math.sqrt(4.0 * math.pi * LINE.z0 / HBAR), rel=1e-12)


def test_source_config_window_floor():
    # the window's row of scenario._BOUNDS is checked where a configuration is made, as the loader's is
    sc = load_scenario("low-q")
    with pytest.raises(ConfigError) as err:
        source_config(sc._replace(window_time=50.0 * TWO_PI / OMEGA_M))
    assert str(err.value) == f"window_time must exceed 100 modulation periods = {100.0 * TWO_PI / OMEGA_M:.3e} s"


def test_cap_validation():
    # the modulation is built from a checked mirror amplitude: a negative one is refused before the expansion's
    # validity bound, and c0 * delta_x / t_piezo, below c0 for any delta_x < t_piezo/100, is refused when it overflows
    sc = load_scenario("low-q")
    with pytest.raises(ConfigError) as err:
        source_config(sc, delta_x=-1e-19)
    assert str(err.value) == "delta_x must be non-negative"
    wide = sc._replace(c_plate=1e308, geometry=sc.geometry._replace(t_piezo=1e10))
    assert source_config(wide, delta_x=1e-3).cap.delta_c == 1e308 * 1e-3 / 1e10
    with pytest.raises(ConfigError) as err:
        source_config(wide, delta_x=1e7)
    assert str(err.value) == "cap.delta_c must satisfy 0 <= delta_c < c0"
