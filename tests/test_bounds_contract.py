"""One bounds contract for every configuration field and bounded argument.

Each bound is written as the condition that must hold, so a NaN fails it by
construction and is a configuration error. The configuration types hold values
and check nothing: every bound is a row of `scenario._BOUNDS`, checked where
its value enters. The field cases are collected from the float fields of each
type, so a field added later without a row that bounds it fails here; the
scenario-number cases come from the loader's schema. The paper checks'
`MbvdParams` holds the circuit that no command reads, and checks the loader's
bounds itself.
"""

import math
import re
import typing

import numpy as np
import pytest
from paper_checks import MbvdParams, mechanical_susceptibility, source_time, vc_ratio

from fbar_dce.cavity import dressed_coefficients
from fbar_dce.errors import ConfigError
from fbar_dce.flux import output_spectrum
from fbar_dce.piezo import delta_capacitance
from fbar_dce.scenario import (
    _BOUNDS,
    _NUMBER_SCHEMA,
    check_bounds,
    load_scenario,
    preset_raw,
    scenario_from_raw,
    source_config,
    squeeze_params,
)
from fbar_dce.squeeze import analytic_photon_number, evolve_series

SC = load_scenario("low-q")
CFG = source_config(SC)
OMEGA_M = SC.geometry.omega_m

INSTANCES = {
    "material": SC.material,
    "geometry": SC.geometry,
    "drive": SC.drive,
    "mbvd": MbvdParams.of(SC),
    "cavity": SC.cavity,
    "line": SC.line,
    "env": SC.env,
    "cap": CFG.cap,
    "source_config": CFG,
    "lc": squeeze_params(SC),
}
FIELD_CASES = [
    pytest.param(f"{label}.{name}", id=f"{label}.{name}")
    for label, instance in INSTANCES.items()
    for name, kind in typing.get_type_hints(type(instance)).items()
    if kind is float
]
_LENGTH = ("cavity.length_d", "mbvd.c_plate", "line.z0", "line.v_light")  # d_eff = length_d + c_plate * z0 * v_light
# the rows, by name in the message, that bound a float field made from other numbers; any other field is bounded by
# its own row, named label.field. drive.phase has none: the loader requires it finite, as every scenario number
COVERS = {
    "drive.phase": (),
    "cavity.v_light": ("cavity.v_light_m_s", "line.v_light"),
    "cavity.l_eff": _LENGTH[1:],
    "cavity.d_eff": _LENGTH,
    "cavity.omega_0": _LENGTH,
    "env.temperature": ("environment.temperature",),
    "cap.c0": ("mbvd.c_plate",),
    "cap.delta_c": ("delta_x", "cap.delta_c"),
    "cap.omega_m": ("geometry.omega_m",),
    "source_config.window_time": ("window_time",),
    "lc.cap_cavity": ("mbvd.c_plate",),
    "lc.cap_mirror": ("mbvd.c_plate",),
    "lc.gap": ("geometry.t_piezo",),
    "lc.delta_x": ("delta_x",),
    "lc.omega_m": ("geometry.omega_m",),
}


@pytest.mark.parametrize("field", FIELD_CASES)
def test_nan_field_is_config_error(field):
    # each row that bounds the field refuses a NaN where its value enters
    names = COVERS.get(field, (field,))
    rows = [row for row in _BOUNDS if row[2] in names]
    assert {row[2] for row in rows} == set(names)
    for section, key, name, (_, bound, _) in rows:
        values = {(section, key): math.nan}
        if isinstance(bound, tuple):  # the value the row compares with
            values[bound] = 1.0
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} "):
            check_bounds(values)


@pytest.mark.parametrize(
    "section, key", [pytest.param(s, k, id=f"{s}.{k}") for s, keys in _NUMBER_SCHEMA.items() for k in keys]
)
def test_nan_scenario_number_is_config_error(section, key):
    # read or not, every number the schema lists is checked, including the keys no class holds
    raw = preset_raw("low-q")
    raw[section][key] = math.nan
    with pytest.raises(ConfigError, match=f"field {section}.{key} must"):
        scenario_from_raw(raw)


NAN_GRID = np.array([1e9, math.nan])
ARGUMENT_CALLS = {
    "delta_capacitance-delta_x": lambda: delta_capacitance(SC.geometry, math.nan, SC.c_plate),
    "source_config-delta_x": lambda: source_config(SC, math.nan),
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
