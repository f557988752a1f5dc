"""One frequency contract for every public function that takes omega.

A frequency that is zero, negative or NaN is a configuration error, raised by
the one check in `errors.positive_frequencies`; a NaN inside an array must not
slip through as a numpy warning or a NaN result.
"""

import math

import numpy as np
import pytest
from paper_checks import (
    MbvdParams,
    composite_quality,
    equivalent_impedance,
    inout_transfer,
    motional_impedance,
    plate_impedance,
    windowed_source_transform,
)

from fbar_dce.cavity import mode_response, reflection_coefficient
from fbar_dce.errors import ConfigError
from fbar_dce.flux import thermal_occupation
from fbar_dce.scatter import h_coefficient, source_spectrum
from fbar_dce.scenario import load_scenario, source_config

SC = load_scenario("low-q")
CFG = source_config(SC)
MBVD = MbvdParams.of(SC)

# name -> (call with omega, whether the function takes arrays)
CALLS = {
    "reflection_coefficient": (lambda w: reflection_coefficient(w, SC.cavity), True),
    "mode_response": (lambda w: mode_response(w, SC.cavity), True),
    "inout_transfer": (lambda w: inout_transfer(w, SC.cavity.omega_coupling), False),
    "source_spectrum": (lambda w: source_spectrum(CFG, w), True),
    "windowed_source_transform": (lambda w: windowed_source_transform(CFG, w), True),
    "h_coefficient": (lambda w: h_coefficient(w, CFG, SC.line), True),
    "thermal_occupation": (lambda w: thermal_occupation(w, SC.env), True),
    "motional_impedance": (lambda w: motional_impedance(MBVD, w), True),
    "plate_impedance": (lambda w: plate_impedance(MBVD, w), True),
    "equivalent_impedance": (lambda w: equivalent_impedance(MBVD, w), True),
    "composite_quality": (lambda w: composite_quality(MBVD, w), True),
}
BAD = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "array-with-nan": np.array([1e9, math.nan])}
CASES = [
    pytest.param(name, omega, id=f"{name}-{label}")
    for name, (_, takes_arrays) in CALLS.items()
    for label, omega in BAD.items()
    if takes_arrays or np.ndim(omega) == 0
]


@pytest.mark.parametrize("name, omega", CASES)
def test_bad_frequency_is_config_error(name, omega):
    call, _ = CALLS[name]
    with pytest.raises(ConfigError, match="omega must be strictly positive"):
        call(omega)

