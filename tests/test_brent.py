"""Brent ports against SciPy, the independent oracle they reproduce bit for bit.

`find_root` is compared with `scipy.optimize.brentq` on the resonance
mismatch of every preset, and `minimize_bounded` with
`scipy.optimize.minimize_scalar(method="bounded")` on the mode-response peak
search the `resonances` command runs. Floats are compared through
`float.hex`, so any difference in the last bit fails.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from fbar_dce.brent import find_root, minimize_bounded
from fbar_dce.cavity import _resonance_mismatch, cavity_resonances, mode_response
from fbar_dce.errors import ConvergenceError
from fbar_dce.scenario import PRESET_NAMES, load_scenario

CAVITIES = [load_scenario(name).cavity for name in PRESET_NAMES]


def _resonances(name):
    sc = load_scenario(name)
    return cavity_resonances(sc.cavity, (sc.grid.omega_min, sc.grid.omega_max))


ROOTS = [_resonances(name) for name in PRESET_NAMES]
# log-uniform tolerances
XTOLS = st.floats(-6.0, 3.0).map(lambda k: 10.0**k)
XATOLS = st.floats(-2.0, 2.0).map(lambda k: 10.0**k)
FRACTIONS = st.floats(1e-6, 1.0)


def _branch(cav, root):
    """Branch ((2n-1), (2n+1)) quarter-periods holding root, padded and clipped to omega > 0 as the solver does."""
    quarter = cav.omega_0 / 4.0
    n = math.floor((root / quarter + 1.0) / 2.0)
    pad = 1e-9 * cav.omega_0
    return max((2 * n - 1) * quarter + pad, 1e-12 * cav.omega_0), (2 * n + 1) * quarter - pad


def _pick(data):
    preset = data.draw(st.integers(0, len(PRESET_NAMES) - 1), label="preset")
    root = ROOTS[preset][data.draw(st.integers(0, len(ROOTS[preset]) - 1), label="root")]
    return CAVITIES[preset], root


@settings(max_examples=540, deadline=None, derandomize=True)
@given(st.data(), FRACTIONS, FRACTIONS, XTOLS)
def test_find_root_matches_brentq_bits(data, u, v, xtol):
    cav, root = _pick(data)
    lo, hi = _branch(cav, root)
    a, b = root - u * (root - lo), root + v * (hi - root)  # a random bracket inside the branch
    f = lambda w: _resonance_mismatch(w, cav)  # noqa: E731
    assert find_root(f, a, b, xtol, 200).hex() == brentq(f, a, b, xtol=xtol, maxiter=200).hex()


@settings(max_examples=540, deadline=None, derandomize=True)
@given(st.data(), st.floats(1e-5, 0.02), st.floats(1e-5, 0.02), XATOLS)
def test_minimize_bounded_matches_minimize_scalar_bits(data, left, right, xatol):
    cav, root = _pick(data)
    lo, hi = root * (1.0 - left), root * (1.0 + right)  # a random window around the root
    f = lambda w: -abs(mode_response(w, cav))  # noqa: E731
    expected = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    x, converged = minimize_bounded(f, lo, hi, xatol)
    assert (x.hex(), converged) == (float(expected.x).hex(), expected.success)


@pytest.mark.parametrize("maxiter", range(1, 19))
def test_find_root_raises_when_iterations_run_out(maxiter):
    # on the whole branch SciPy needs 16 iterations; the budget runs out exactly where its does
    cav, root = CAVITIES[0], ROOTS[0][0]
    lo, hi = _branch(cav, root)
    f = lambda w: _resonance_mismatch(w, cav)  # noqa: E731
    try:
        expected = brentq(f, lo, hi, xtol=1e-3, maxiter=maxiter)
    except RuntimeError:
        with pytest.raises(ConvergenceError):
            find_root(f, lo, hi, 1e-3, maxiter)
        return
    assert maxiter > 1
    assert find_root(f, lo, hi, 1e-3, maxiter).hex() == expected.hex()


@pytest.mark.parametrize("maxfun", range(1, 13))
def test_minimize_bounded_reports_exhausted_evaluations(maxfun):
    cav, root = CAVITIES[0], ROOTS[0][0]
    f = lambda w: -abs(mode_response(w, cav))  # noqa: E731
    lo, hi = 0.995 * root, 1.005 * root
    x, converged = minimize_bounded(f, lo, hi, 1.0, maxfun=maxfun)
    expected = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1.0, "maxiter": maxfun})
    assert (x.hex(), converged) == (float(expected.x).hex(), expected.success)
    if maxfun == 2:  # the budget the peak-refine-failed test of the resonances command uses
        assert not converged
