"""Exception hierarchy.

Two error families map onto the CLI exit codes: configuration problems
(bad scenario files, violated type invariants, validity-domain breaches)
exit with code 2, numerical failures (denominator underflow, non-converged
root refinement, guard-band evaluation) exit with code 3.
"""

import sys

import numpy as np

# most entries of one array: numpy indexes at most sys.maxsize bytes, and the widest entry (complex128) takes 16
MAX_ENTRIES = sys.maxsize // 16


class SimulationError(Exception):
    """Base class for all package errors."""


class ConfigError(SimulationError):
    """Invalid configuration: schema errors, violated invariants. CLI exit code 2."""


class ValidityError(ConfigError):
    """Inputs outside the validity domain of a modelling approximation."""


class RwaViolationError(ConfigError):
    """Modulation frequency does not satisfy the two-photon resonance condition."""


class NumericalError(SimulationError):
    """Numerical evaluation failure. CLI exit code 3."""


class UnderflowError(NumericalError):
    """A denominator became too small to evaluate reliably."""


class GuardBandError(NumericalError):
    """Continuous-part spectrum requested inside a coherent-line guard band."""


class ConvergenceError(NumericalError):
    """Iterative refinement failed to converge within its iteration budget."""


def positive_frequencies(omega, below: float = np.inf) -> np.ndarray:
    """omega as a float array; ConfigError unless every entry lies in (0, below) (NaN is rejected too)."""
    w = np.asarray(omega, dtype=float)
    if not np.all((w > 0.0) & (w < below)):
        bound = "strictly positive" if below == np.inf else f"inside (0, {below:.6e}) rad/s"
        raise ConfigError(f"omega must be {bound}")
    return w


def holds(condition) -> bool:
    """Truth of a bound on a field: for an array of lanes, every entry must satisfy it."""
    return condition if isinstance(condition, bool) else bool(condition.all())


def check_fields(obj, section: str, positive=(), non_negative=()) -> None:
    """ConfigError unless each named field of obj is > 0 (positive) or >= 0 (non_negative); NaN fails both."""
    for name in positive:
        if not holds(getattr(obj, name) > 0.0):
            raise ConfigError(f"{section}.{name} must be strictly positive")
    for name in non_negative:
        if not holds(getattr(obj, name) >= 0.0):
            raise ConfigError(f"{section}.{name} must be non-negative")
