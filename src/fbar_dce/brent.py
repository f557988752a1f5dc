"""Brent's scalar root finder and bounded minimizer (Brent 1973, ch. 4 and 5).

Both functions are step-for-step ports of the SciPy 1.17 routines, so they
return the same floats bit for bit:

- `find_root` ports `brentq` (the C routine `scipy/optimize/Zeros/brentq.c`
  behind `scipy.optimize.brentq`) with its default `rtol = 4*eps`;
- `minimize_bounded` ports `scipy.optimize._optimize._minimize_scalar_bounded`
  (`minimize_scalar(method="bounded")`).

SciPy's `args`, `disp`, callbacks and option parsing are left out, and so are
`brentq`'s checks of f(a) and f(b): its NaN check, its exact-zero-endpoint
returns and its unbracketed-interval error. The one caller,
`cavity.cavity_resonances`, passes a function that returns finite floats and
has already checked f(a) < 0 < f(b).
SciPy is distributed under the BSD 3-clause licence. `tests/test_brent.py`
compares both ports with SciPy on random brackets and windows and is what
keeps them exact.
"""

from __future__ import annotations

import math
import sys

from .errors import ConvergenceError

_RTOL = 4.0 * sys.float_info.epsilon  # brentq's default and smallest allowed rtol
_SQRT_EPS = math.sqrt(2.2e-16)  # SciPy's literal, not the machine epsilon
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def find_root(f, a: float, b: float, xtol: float, maxiter: int) -> float:
    """Root of f in [a, b], where f(a) and f(b) are non-zero and differ in sign, to xtol + 4*eps*|x|.

    Raises ConvergenceError when maxiter iterations do not converge.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):  # the root is bracketed by xpre and xcur
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the smaller |f| in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # short enough: accept
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError(f"root not converged in {maxiter} iterations on ({a:.6e}, {b:.6e})")


def minimize_bounded(f, lo: float, hi: float, xatol: float, maxfun: int = 500) -> tuple[float, bool]:
    """Local minimum of f on [lo, hi] to xatol: returns (x, converged).

    converged is False when maxfun evaluations were used up or a value was NaN.
    """
    a, b = lo, hi
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = f(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    converged = True
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            converged = False
            break
    return xf, converged and not (math.isnan(xf) or math.isnan(fx) or math.isnan(fu))
