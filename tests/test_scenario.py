"""Scenario ingestion: presets, JSON round-trips, schema validation, assembly."""

import copy
import json
import math

import numpy as np
import pytest

from fbar_dce.constants import EPS0, TWO_PI
from fbar_dce.errors import ConfigError
from fbar_dce.scenario import (
    PRESET_NAMES,
    grid_array,
    load_scenario,
    motional_amplitude,
    preset_raw,
    scenario_from_raw,
    scenario_hash,
    source_config,
    squeeze_params,
)
from fbar_dce.squeeze import squeeze_coupling

DELTA_X_LOW_Q = 8.550966856419484e-13
DELTA_X_HIGH_Q = 8.550966856419485e-11
DELTA_C_LOW_Q = 9.772533550193697e-19


def test_low_q_preset_values():
    sc = load_scenario("low-q")
    assert sc.name == "low-q"
    assert sc.geometry.omega_m == TWO_PI * 4.2e9
    assert sc.drive.omega_d == TWO_PI * 4.2e9
    assert sc.drive.v_pp == 5e-4
    assert sc.drive.phase == pytest.approx(np.pi / 2.0, rel=1e-15)
    assert sc.env.temperature == 0.01
    assert sc.cavity.length_d == 3.3e-2
    assert sc.cavity.omega_coupling == TWO_PI * 2.91e10
    assert sc.cavity.l_eff == pytest.approx(2.2e-3, rel=1e-12)
    assert sc.cavity.d_eff == pytest.approx(3.52e-2, rel=1e-12)
    assert sc.line.z0 == 55.0
    assert sc.window_time == 1e-6
    assert sc.grid.points == 2000
    assert sc.grid.omega_min == TWO_PI * 8.4e7
    assert sc.grid.omega_max == TWO_PI * 4.116e9


def test_low_q_motional_amplitude():
    sc = load_scenario("low-q")
    assert motional_amplitude(sc) == pytest.approx(DELTA_X_LOW_Q, rel=1e-12)


def test_high_q_preset_scales_amplitude():
    sc = load_scenario("high-q")
    assert sc.geometry.quality == 3e6
    assert sc.drive.v_pp == 5e-6
    assert motional_amplitude(sc) == pytest.approx(DELTA_X_HIGH_Q, rel=1e-12)


def test_metamaterial_preset():
    sc = load_scenario("metamaterial")
    assert sc.line.z0 == 1e4
    assert sc.line.v_light == 5.5e5
    assert sc.cavity.v_light == 5.5e5
    assert sc.cavity.omega_coupling == pytest.approx(TWO_PI * 1.6005e8, rel=1e-12)
    # Same capacitance density as the coax line, so the plate capacitance
    # still shortens the cavity by the same effective length.
    assert sc.cavity.l_eff == pytest.approx(2.2e-3, rel=1e-12)


def test_preset_names_all_load():
    for name in PRESET_NAMES:
        assert load_scenario(name).name == name


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_raw("medium-q")
    with pytest.raises(ConfigError):
        load_scenario("no-such-file-or-preset")


def test_raw_round_trip_is_exact():
    raw = preset_raw("low-q")
    sc = scenario_from_raw(raw)
    assert sc.raw == preset_raw("low-q")
    # The scenario keeps its own copy.
    raw["drive"]["v_pp_volts"] = 1.0
    assert sc.raw["drive"]["v_pp_volts"] == 5e-4


def test_scenario_hash_stable_and_sensitive():
    a = scenario_hash(load_scenario("low-q"))
    b = scenario_hash(load_scenario("low-q"))
    assert a == b
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")
    assert scenario_hash(load_scenario("high-q")) != a


def test_load_scenario_from_json_file(tmp_path):
    raw = preset_raw("low-q")
    raw["drive"]["phase_rad"] = float(raw["drive"]["phase_rad"])
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(raw))
    sc = load_scenario(path)
    assert sc.drive.phase == raw["drive"]["phase_rad"]
    assert scenario_hash(sc) == scenario_hash(scenario_from_raw(raw))


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(path)


def test_missing_field_messages():
    raw = preset_raw("low-q")
    del raw["drive"]["v_pp_volts"]
    with pytest.raises(ConfigError, match=r"missing field: drive\.v_pp_volts"):
        scenario_from_raw(raw)
    raw = preset_raw("low-q")
    del raw["material"]
    with pytest.raises(ConfigError, match="missing field: material"):
        scenario_from_raw(raw)
    raw = preset_raw("low-q")
    del raw["window_time_s"]
    with pytest.raises(ConfigError, match="missing field: window_time_s"):
        scenario_from_raw(raw)


def test_unknown_field_messages():
    raw = preset_raw("low-q")
    raw["drive"]["volts"] = 1.0
    with pytest.raises(ConfigError, match=r"unknown field: drive\.volts"):
        scenario_from_raw(raw)
    raw = preset_raw("low-q")
    raw["comment"] = "hello"
    with pytest.raises(ConfigError, match="unknown field: comment"):
        scenario_from_raw(raw)


def test_field_type_validation():
    raw = preset_raw("low-q")
    raw["drive"]["v_pp_volts"] = "0.5"
    with pytest.raises(ConfigError, match="must be a number"):
        scenario_from_raw(raw)
    raw = preset_raw("low-q")
    raw["drive"]["v_pp_volts"] = True
    with pytest.raises(ConfigError, match="must be a number"):
        scenario_from_raw(raw)
    raw = preset_raw("low-q")
    raw["name"] = 7
    with pytest.raises(ConfigError, match="name must be a string"):
        scenario_from_raw(raw)


def test_grid_field_validation():
    raw = preset_raw("low-q")
    raw["grid"]["points"] = 1
    with pytest.raises(ConfigError, match="grid.points"):
        scenario_from_raw(raw)
    raw = preset_raw("low-q")
    raw["grid"]["points"] = 10.5
    with pytest.raises(ConfigError, match="grid.points"):
        scenario_from_raw(raw)
    raw = preset_raw("low-q")
    raw["grid"]["omega_min_hz"] = 5e9
    with pytest.raises(ConfigError):
        scenario_from_raw(raw)
    raw = preset_raw("low-q")
    raw["grid"]["omega_max_hz"] = 4.2e9  # right at the modulation frequency
    with pytest.raises(ConfigError):
        scenario_from_raw(raw)


def test_window_time_floor_enforced():
    raw = preset_raw("low-q")
    raw["window_time_s"] = 1e-9  # a handful of modulation periods
    with pytest.raises(ConfigError, match="window_time"):
        scenario_from_raw(raw)


BELOW_ZERO = math.nextafter(0.0, -1.0)


# each bound on a number no class holds, one step outside its range, with the message of the class check it replaced
OUT_OF_BOUNDS = [
    ("material", "poisson_ratio", 0.0, "material.poisson must be strictly positive"),
    ("material", "poisson_ratio", 0.5, "material.poisson must lie in (0, 0.5)"),
    ("material", "sound_speed_m_s", 0.0, "material.sound_speed must be strictly positive"),
    ("material", "permittivity_f_m", 0.0, "material.permittivity must be strictly positive"),
    (
        "material",
        "permittivity_f_m",
        math.nextafter(EPS0, 0.0),
        "material.permittivity must be at least the vacuum permittivity",
    ),
    ("geometry", "area_m2", 0.0, "geometry.area must be strictly positive"),
    ("mbvd", "c_m_farad", 0.0, "mbvd.c_m must be strictly positive"),
    ("mbvd", "l_m_henry", 0.0, "mbvd.l_m must be strictly positive"),
    ("mbvd", "c_plate_farad", 0.0, "mbvd.c_plate must be strictly positive"),
    ("mbvd", "r_m_ohm", BELOW_ZERO, "mbvd.r_m must be non-negative"),
    ("mbvd", "r_0_ohm", BELOW_ZERO, "mbvd.r_0 must be non-negative"),
    ("mbvd", "r_s_ohm", BELOW_ZERO, "mbvd.r_s must be non-negative"),
]


@pytest.mark.parametrize(
    "section, key, value, message", OUT_OF_BOUNDS, ids=[f"{key}={value!r}" for _, key, value, _ in OUT_OF_BOUNDS]
)
def test_number_outside_its_bound_rejected(section, key, value, message):
    raw = preset_raw("low-q")
    raw[section][key] = value
    with pytest.raises(ConfigError) as err:
        scenario_from_raw(raw)
    assert str(err.value) == message


@pytest.mark.parametrize("key,value", [("z0_ohm", 999.0), ("v_light_m_s", 2e8)])
def test_cavity_line_mismatch_rejected(key, value):
    # the cavity section is cut from the line: its z0 and signal speed are the line's
    raw = preset_raw("low-q")
    raw["cavity"][key] = value
    with pytest.raises(ConfigError, match=f"cavity.{key} must equal line.{key}"):
        scenario_from_raw(raw)


def test_grid_array_shape():
    sc = load_scenario("low-q")
    grid = grid_array(sc)
    assert len(grid) == 2000
    assert grid[0] == sc.grid.omega_min
    assert grid[-1] == sc.grid.omega_max
    assert np.all(np.diff(grid) > 0.0)


def test_source_config_wiring():
    sc = load_scenario("low-q")
    cfg = source_config(sc)
    assert cfg.cap.c0 == sc.c_plate
    assert cfg.cap.delta_c == pytest.approx(DELTA_C_LOW_Q, rel=1e-12)
    assert cfg.cap.omega_m == sc.geometry.omega_m
    assert cfg.window_time == sc.window_time
    still = source_config(sc, delta_x=0.0)
    assert still.cap.delta_c == 0.0
    assert still.cap.c0 == sc.c_plate


def test_squeeze_params_wiring():
    sc = load_scenario("low-q")
    p = squeeze_params(sc)
    assert p.omega_lc == pytest.approx(sc.geometry.omega_m / 2.0, rel=1e-14)
    assert p.cap_total == pytest.approx(2.0 * sc.c_plate, rel=1e-15)
    assert p.gap == sc.geometry.t_piezo
    assert p.delta_x == pytest.approx(DELTA_X_LOW_Q, rel=1e-12)
    assert squeeze_coupling(p) == pytest.approx(2014.7740992912945, rel=1e-12)


def test_deep_copy_of_raw_on_ingest():
    raw = preset_raw("low-q")
    sc = scenario_from_raw(raw)
    nested = copy.deepcopy(sc.raw)
    raw["grid"]["points"] = 3
    assert sc.raw == nested
