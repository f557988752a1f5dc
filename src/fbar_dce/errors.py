"""Exception hierarchy.

Two error families map onto the CLI exit codes: configuration problems
(bad scenario files, violated type invariants, validity-domain breaches)
exit with code 2, numerical failures (denominator underflow, non-converged
root refinement, guard-band evaluation) exit with code 3.
"""

import numpy as np


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


def positive_frequencies(omega) -> np.ndarray:
    """omega as a float array; ConfigError unless every entry is > 0 (NaN is rejected too)."""
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0.0):
        raise ConfigError("omega must be strictly positive")
    return w
