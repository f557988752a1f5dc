"""One bounds contract for every configuration field and bounded argument.

Each bound is written as the condition that must hold, so a NaN fails it by
construction and is a configuration error. The field cases are collected from
`dataclasses.fields`, so a float field added later is covered without a test
edit.
"""

import dataclasses
import math

import numpy as np
import pytest
from paper_checks import mechanical_susceptibility, source_time, vc_ratio

from fbar_dce.cavity import dressed_coefficients
from fbar_dce.errors import ConfigError
from fbar_dce.flux import output_spectrum
from fbar_dce.piezo import delta_capacitance
from fbar_dce.scenario import load_scenario, source_config, squeeze_params
from fbar_dce.squeeze import analytic_photon_number, evolve_series

SC = load_scenario("low-q")
CFG = source_config(SC)
OMEGA_M = SC.geometry.omega_m

INSTANCES = {
    "material": SC.material,
    "geometry": SC.geometry,
    "drive": SC.drive,
    "mbvd": SC.mbvd,
    "cavity": SC.cavity,
    "line": SC.line,
    "env": SC.env,
    "cap": CFG.cap,
    "source_config": CFG,
    "lc": squeeze_params(SC),
}
FIELD_CASES = [
    pytest.param(instance, f.name, id=f"{label}.{f.name}")
    for label, instance in INSTANCES.items()
    for f in dataclasses.fields(instance)
    if f.init and f.type in ("float", float)
]


@pytest.mark.parametrize("instance, name", FIELD_CASES)
def test_nan_field_is_config_error(instance, name):
    with pytest.raises(ConfigError):
        dataclasses.replace(instance, **{name: math.nan})


NAN_GRID = np.array([1e9, math.nan])
ARGUMENT_CALLS = {
    "delta_capacitance-delta_x": lambda: delta_capacitance(SC.material, SC.geometry, math.nan),
    "mechanical_susceptibility-omega": lambda: mechanical_susceptibility(math.nan, OMEGA_M, 1e6),
    "mechanical_susceptibility-omega-array": lambda: mechanical_susceptibility(NAN_GRID, OMEGA_M, 1e6),
    "mechanical_susceptibility-gamma": lambda: mechanical_susceptibility(1e9, OMEGA_M, math.nan),
    "evolve_series-lam": lambda: evolve_series(math.nan, [0.5]),
    "evolve_series-times": lambda: evolve_series(1e6, [0.0, math.nan]),
    "analytic_photon_number-lam": lambda: analytic_photon_number(math.nan, 1.0),
    "analytic_photon_number-lam-negative": lambda: analytic_photon_number(-1.0, 1.0),
    "analytic_photon_number-t": lambda: analytic_photon_number(1e6, math.nan),
    "vc_ratio-delta_x": lambda: vc_ratio(math.nan, OMEGA_M, SC.line.v_light),
    "vc_ratio-omega_m": lambda: vc_ratio(1e-12, math.nan, SC.line.v_light),
    "vc_ratio-v_light": lambda: vc_ratio(1e-12, OMEGA_M, math.nan),
    "source_time-t": lambda: source_time(CFG, math.nan),
    "output_spectrum-grid": lambda: output_spectrum(NAN_GRID, SC.cavity, CFG, SC.line, SC.env),
    "dressed_coefficients-omega": lambda: dressed_coefficients(NAN_GRID, SC.cavity, CFG, SC.line),
}


@pytest.mark.parametrize("call", ARGUMENT_CALLS.values(), ids=ARGUMENT_CALLS.keys())
def test_nan_argument_is_config_error(call):
    with pytest.raises(ConfigError):
        call()
