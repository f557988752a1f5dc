"""Measure how many printed digits of some output columns are correct.

Regenerates the figures of the README section "Digits that are not all
earned", on the three presets at their default grids:

    PYTHONPATH=src python3 tools/digits.py

Needs mpmath; takes ~10 s. Each float64 result is compared with the same
formula evaluated with 40-digit mpmath from the same float64 configuration.
"""

from __future__ import annotations

import csv
import math
import sys
import tempfile
from pathlib import Path

import mpmath as mp
import numpy as np

from fbar_dce import cavity, cli, flux
from fbar_dce.constants import HBAR, TWO_PI
from fbar_dce.scenario import grid_array, load_scenario, source_config

PRESETS = ("low-q", "high-q", "metamaterial")
mp.mp.dps = 40


def _denominator(x, cav):
    return (1 - 2j * x / mp.mpf(cav.omega_coupling)) + mp.expj(2 * x * mp.mpf(cav.d_eff) / mp.mpf(cav.v_light))


def _mode(x, cav):
    phase = mp.expj(x * mp.mpf(cav.d_eff) / mp.mpf(cav.v_light))
    return (2j * x / mp.mpf(cav.omega_coupling)) * phase / _denominator(x, cav)


def _source(w, cfg, delta_c):
    """The line source spectrum at w: the three drive tones, negative ones folded onto +nu with the phase negated."""
    c0, om = mp.mpf(cfg.cap.c0), mp.mpf(cfg.cap.omega_m)
    vpp, phi, wd = mp.mpf(cfg.drive.v_pp), mp.mpf(cfg.drive.phase), mp.mpf(cfg.drive.omega_d)
    total = (c0 + delta_c) * vpp * mp.cos(phi)
    for amp, nu, ph in ((c0 * vpp, wd, phi), (delta_c * vpp / 2, om + wd, phi), (delta_c * vpp / 2, om - wd, -phi)):
        if nu < 0:
            nu, ph = -nu, -ph
        if amp != 0 and nu != 0:
            total -= (amp * nu / 2) * (mp.expj(ph) / (w + nu) - mp.expj(-ph) / (w - nu))
    return total / mp.sqrt(2 * mp.pi)


def mech_only(preset):
    """Cancellation factor and relative errors of n_mech_only and n_dce - n_mech_only."""
    sc = load_scenario(preset)
    cfg, cav, z0 = source_config(sc), sc.cavity, mp.mpf(sc.line.z0)
    table = flux.output_spectrum(grid_array(sc), cav, cfg, sc.line, sc.env)
    dc, om = mp.mpf(cfg.cap.delta_c), mp.mpf(cfg.cap.omega_m)
    cancel, err_mech, err_elec = [], [], []
    for w, mech, dce, flag in zip(table.omega, table.n_mech_only, table.n_dce, table.flags):
        if flag == "guard-band":
            continue
        w = mp.mpf(float(w))
        s2 = -1j * dc * z0 * mp.sqrt(w * (om - w)) * mp.conj(_mode(w, cav)) * _mode(om - w, cav)
        prefactor = -1j * mp.sqrt(4 * mp.pi * z0 / (mp.mpf(HBAR) * w)) / _denominator(w, cav)
        h_sq, h_static_sq = abs(prefactor * _source(w, cfg, dc)) ** 2, abs(prefactor * _source(w, cfg, 0)) ** 2
        exact = abs(s2) ** 2 + h_sq - h_static_sq
        cancel.append(float(max(h_sq, h_static_sq) / abs(exact)))
        err_mech.append(float(abs((mech - exact) / exact)))
        err_elec.append(float(abs((dce - mech - h_static_sq) / h_static_sq)))
    return (f"n_mech_only: cancellation up to {max(cancel):.2g}, relative error up to {max(err_mech):.2g} "
            f"(median {np.median(err_mech):.2g}); n_dce_electrical: relative error up to {max(err_elec):.2g}")


def _resonance_rows(preset):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "resonances.csv"
        if cli.main(["resonances", "--scenario", preset, "--out", str(out)]) != 0:
            sys.exit(f"resonances --scenario {preset} failed")
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def peak_offsets(preset):
    """Error of mode_peak_offset_rad_s against the nearest local maximum of |mode response|."""
    cav = load_scenario(preset).cavity

    def slope_sign(w, lib=np):  # 2|den|^2/w - d|den|^2/dw: > 0 while |A| rises, 0 at its extrema
        num = mp.mpf if lib is mp else float
        tp, wc = 2 * num(cav.d_eff) / num(cav.v_light), num(cav.omega_coupling)
        re, im = 1 + lib.cos(w * tp), lib.sin(w * tp) - 2 * w / wc
        return 2 * (re**2 + im**2) / w - (2 * re * (-lib.sin(w * tp) * tp) + 2 * im * (lib.cos(w * tp) * tp - 2 / wc))

    rows, flagged, neighbour, worst = _resonance_rows(preset), 0, [], 0.0
    for row in rows:
        if row["flags"]:
            flagged += 1
            continue
        root = float(row["omega_rad_s"])
        scan = root + np.linspace(-0.6, 0.6, 24001) * cav.omega_0
        f = slope_sign(scan)
        peaks = np.array([
            float(mp.findroot(lambda w: slope_sign(w, mp), (mp.mpf(scan[i]), mp.mpf(scan[i + 1])), solver="anderson"))
            for i in np.flatnonzero((f[:-1] > 0) & (f[1:] <= 0))
        ])
        err = root + float(row["mode_peak_offset_rad_s"]) - peaks[np.argmin(np.abs(peaks - root))]
        if abs(err) > 1e3:
            neighbour.append(abs(err))
        else:
            worst = max(worst, abs(err))
    text = f"{len(rows)} rows, {flagged} flagged; off by up to {worst:.3g} rad/s"
    if neighbour:
        text += f", except {len(neighbour)} rows on a neighbouring maximum {min(neighbour):.2g} rad/s or more away"
    return text


def residuals(preset):
    """Largest resonance residual as a multiple of the mismatch change over one ulp of the root."""
    sc = load_scenario(preset)
    cav = sc.cavity
    ratio = 0.0
    for root in cavity.cavity_resonances(cav, (sc.grid.omega_min, sc.grid.omega_max)):
        slope = (TWO_PI / cav.omega_0) * (1.0 + (cav.omega_coupling / root) ** 2) + cav.omega_coupling / root**2
        ratio = max(ratio, cavity.resonance_residual(root, cav) / (slope * math.ulp(root)))
    return f"residual at most {ratio:.2g} x the mismatch change over one ulp of the root"


def simd_products(n=2000):
    """Complex products whose last bit differs between numpy's vector loop and a (1, 1) by (1,) broadcast."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    single = np.array([(a[i : i + 1].reshape(1, 1) * b[i : i + 1])[0, 0] for i in range(n)])
    single_div = np.array([(a[i : i + 1].reshape(1, 1) / b[i : i + 1])[0, 0] for i in range(n)])
    return (f"{int(np.sum(a * b != single))} of {n} products and {int(np.sum(a / b != single_div))} quotients "
            f"differ (numpy {np.__version__})")


def main() -> int:
    for preset in PRESETS:
        print(f"{preset}: {mech_only(preset)}", flush=True)
    for preset in PRESETS:
        print(f"{preset}: mode_peak_offset_rad_s: {peak_offsets(preset)}", flush=True)
    for preset in PRESETS:
        print(f"{preset}: {residuals(preset)}", flush=True)
    print(f"SIMD: {simd_products()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
