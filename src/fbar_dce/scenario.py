"""Scenario ingestion: named presets, JSON loading, validation, assembly.

Configs are JSON objects with explicit unit-suffixed keys; every frequency is
given in Hz and converted to angular frequency once at load. The raw mapping
is kept on the Scenario so serialization round-trips exactly.

Every bound on a scenario number, or on a value derived from one, is a row of
`_BOUNDS`, checked once where its value enters: the loader checks the file's
numbers, `source_config` the mirror amplitude, the modulation and the window,
`squeeze_params` the inductance, and a sweep its lanes. The types the numbers
fill hold values and check nothing.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cavity import CavityParams, cavity_params
from .constants import EPS0, TWO_PI
from .errors import MAX_ENTRIES, ConfigError
from .flux import ThermalEnv
from .piezo import DriveParams, FbarGeometry, MaterialProps, delta_capacitance, driven_amplitude
from .scatter import LineParams, SourceConfig, TimeVaryingCap, effective_length

# {section: {raw key: constructor field}}; keys ending in _hz are converted to
# rad/s on load. The mbvd section fills Scenario itself. A key mapped to None is
# checked against _BOUNDS, and hashed with the raw mapping, but no command
# reads it (cavity.z0_ohm must equal line.z0_ohm).
_NUMBER_SCHEMA: dict[str, dict[str, str | None]] = {
    "material": {
        "youngs_modulus_pa": "youngs_modulus",
        "density_kg_m3": "density",
        "d33_m_per_v": "d33",
        "poisson_ratio": None,
        "sound_speed_m_s": None,
        "permittivity_f_m": None,
    },
    "geometry": {"t_piezo_m": "t_piezo", "area_m2": None, "quality": "quality", "omega_m_hz": "omega_m"},
    "drive": {"v_pp_volts": "v_pp", "phase_rad": "phase", "omega_d_hz": "omega_d"},
    "mbvd": {
        "c_m_farad": None,
        "l_m_henry": None,
        "r_m_ohm": None,
        "r_0_ohm": None,
        "r_s_ohm": None,
        "c_plate_farad": "c_plate",
    },
    "cavity": {
        "length_d_m": "length_d",
        "v_light_m_s": "v_light",
        "z0_ohm": None,
        "omega_coupling_hz": "omega_coupling",
    },
    "line": {"z0_ohm": "z0", "v_light_m_s": "v_light"},
    "environment": {"temperature_k": "temperature"},
    "grid": {"omega_min_hz": "omega_min", "omega_max_hz": "omega_max", "points": "points"},
}

_POSITIVE = (operator.gt, 0.0, "must be strictly positive")
_NON_NEGATIVE = (operator.ge, 0.0, "must be non-negative")
_VACUUM = (operator.ge, EPS0, "must be at least the vacuum permittivity")
_LINE_SPEED = (operator.eq, ("line", "v_light_m_s"), "must equal line.v_light_m_s")
_WINDOW = (operator.gt, ("source", "min_window"), "must exceed 100 modulation periods = {bound:.3e} s")
# (section, key, name in the message, (compare, bound, message)), in the order
# they are checked. key is a raw key of the section, or in the "source" and "lc"
# sections the name of a value derived from the scenario. A value is accepted
# when compare(value, bound) holds in every lane, so NaN is refused. A bound
# is a number, or the (section, key) of the value compared with; the message
# shows it at {bound}.
_BOUNDS = (
    ("material", "poisson_ratio", "material.poisson", _POSITIVE),
    ("material", "sound_speed_m_s", "material.sound_speed", _POSITIVE),
    ("material", "permittivity_f_m", "material.permittivity", _POSITIVE),
    ("material", "poisson_ratio", "material.poisson", (operator.lt, 0.5, "must lie in (0, 0.5)")),
    ("material", "permittivity_f_m", "material.permittivity", _VACUUM),
    ("geometry", "area_m2", "geometry.area", _POSITIVE),
    ("mbvd", "c_m_farad", "mbvd.c_m", _POSITIVE),
    ("mbvd", "l_m_henry", "mbvd.l_m", _POSITIVE),
    ("mbvd", "c_plate_farad", "mbvd.c_plate", _POSITIVE),
    ("mbvd", "r_m_ohm", "mbvd.r_m", _NON_NEGATIVE),
    ("mbvd", "r_0_ohm", "mbvd.r_0", _NON_NEGATIVE),
    ("mbvd", "r_s_ohm", "mbvd.r_s", _NON_NEGATIVE),
    ("material", "youngs_modulus_pa", "material.youngs_modulus", _POSITIVE),
    ("material", "density_kg_m3", "material.density", _POSITIVE),
    ("material", "d33_m_per_v", "material.d33", _POSITIVE),
    ("geometry", "t_piezo_m", "geometry.t_piezo", _POSITIVE),
    ("geometry", "omega_m_hz", "geometry.omega_m", _POSITIVE),
    ("geometry", "quality", "geometry.quality", (operator.ge, 1.0, "must be >= 1")),
    ("drive", "omega_d_hz", "drive.omega_d", _POSITIVE),
    ("drive", "v_pp_volts", "drive.v_pp", _NON_NEGATIVE),
    ("cavity", "z0_ohm", "cavity.z0_ohm", (operator.eq, ("line", "z0_ohm"), "must equal line.z0_ohm")),
    ("cavity", "v_light_m_s", "cavity.v_light_m_s", _LINE_SPEED),
    ("line", "z0_ohm", "line.z0", _POSITIVE),
    ("line", "v_light_m_s", "line.v_light", _POSITIVE),
    ("cavity", "length_d_m", "cavity.length_d", _POSITIVE),
    ("cavity", "omega_coupling_hz", "cavity.omega_coupling", _POSITIVE),
    ("environment", "temperature_k", "environment.temperature", _NON_NEGATIVE),
    ("source", "delta_x", "delta_x", _NON_NEGATIVE),
    # c0 * delta_x / t_piezo stays below c0 unless the product overflows
    ("source", "delta_c", "cap.delta_c", (operator.lt, ("source", "c0"), "must satisfy 0 <= delta_c < c0")),
    ("source", "window_time", "window_time", _WINDOW),
    ("lc", "inductance", "lc.inductance", _POSITIVE),
)


def check_bounds(values: dict) -> None:
    """ConfigError at the first row of _BOUNDS whose value in values, keyed (section, key), it refuses."""
    for section, key, name, (compare, bound, message) in _BOUNDS:
        if (section, key) in values:
            if isinstance(bound, tuple):
                bound = values[bound]
            if not np.all(compare(values[section, key], bound)):
                raise ConfigError(f"{name} {message}".format(bound=bound))


PRESET_NAMES = ("low-q", "high-q", "metamaterial")


def _base_preset() -> dict:
    return {
        "name": "low-q",
        "material": {
            "youngs_modulus_pa": 3.08e11,
            "density_kg_m3": 3230.0,
            "d33_m_per_v": 5.1e-12,
            "poisson_ratio": 0.287,
            "sound_speed_m_s": 9100.0,
            "permittivity_f_m": 9.2 * EPS0,
        },
        "geometry": {"t_piezo_m": 3.5e-7, "area_m2": 7.7e-10, "quality": 300.0, "omega_m_hz": 4.2e9},
        "drive": {"v_pp_volts": 5e-4, "phase_rad": np.pi / 2.0, "omega_d_hz": 4.2e9},
        "mbvd": {
            "c_m_farad": 6.55e-16,
            "l_m_henry": 1.043e-6,
            "r_m_ohm": 146.0,
            "r_0_ohm": 8.0,
            "r_s_ohm": 0.0,
            "c_plate_farad": 4e-13,
        },
        "cavity": {
            "length_d_m": 3.3e-2,
            "v_light_m_s": 1e8,
            "z0_ohm": 55.0,
            "omega_coupling_hz": 2.91e10,
        },
        "line": {"z0_ohm": 55.0, "v_light_m_s": 1e8},
        "environment": {"temperature_k": 0.01},
        "window_time_s": 1e-6,
        "grid": {"omega_min_hz": 8.4e7, "omega_max_hz": 4.116e9, "points": 2000},
    }


def preset_raw(name: str) -> dict:
    """Raw config mapping of a named preset."""
    if name == "low-q":
        return _base_preset()
    if name == "high-q":
        raw = _base_preset()
        raw["name"] = "high-q"
        raw["geometry"]["quality"] = 3e6
        raw["drive"]["v_pp_volts"] = 5e-6
        return raw
    if name == "metamaterial":
        # high-impedance line at the same capacitance density: slower signal,
        # proportionally reduced coupling rate (same coupling capacitance)
        raw = _base_preset()
        raw["name"] = "metamaterial"
        raw["line"] = {"z0_ohm": 1e4, "v_light_m_s": 5.5e5}
        raw["cavity"]["z0_ohm"] = 1e4
        raw["cavity"]["v_light_m_s"] = 5.5e5
        raw["cavity"]["omega_coupling_hz"] = 2.91e10 * 55.0 / 1e4
        return raw
    raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


class GridSpec(NamedTuple):
    """Strictly increasing evaluation grid inside (0, omega_m), angular units."""

    omega_min: float
    omega_max: float
    points: int


class Scenario(NamedTuple):
    """Validated parameter set; `raw` preserves the exact ingested mapping.

    `c_plate` is the static plate capacitance [F], the one element of the
    film's MBVD equivalent circuit that a command reads.
    """

    name: str
    material: MaterialProps
    geometry: FbarGeometry
    drive: DriveParams
    c_plate: float
    cavity: CavityParams
    line: LineParams
    env: ThermalEnv
    window_time: float
    grid: GridSpec
    raw: dict


def _require_number(raw: dict, key: str, label: str) -> float:
    if key not in raw:
        raise ConfigError(f"missing field: {label}")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {label} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"field {label} must be finite")
    return number


def _validate_shape(raw: dict) -> None:
    if not isinstance(raw, dict):
        raise ConfigError("scenario root must be a JSON object")
    expected_top = set(_NUMBER_SCHEMA) | {"name", "window_time_s"}
    for key in raw:
        if key not in expected_top:
            raise ConfigError(f"unknown field: {key}")
    for section in _NUMBER_SCHEMA:
        if section not in raw:
            raise ConfigError(f"missing field: {section}")
        if not isinstance(raw[section], dict):
            raise ConfigError(f"field {section} must be an object")
        for key in raw[section]:
            if key not in _NUMBER_SCHEMA[section]:
                raise ConfigError(f"unknown field: {section}.{key}")
    if "name" not in raw:
        raise ConfigError("missing field: name")
    if not isinstance(raw["name"], str) or not raw["name"].isprintable():  # a line break would split the header
        raise ConfigError("field name must be a string of printable characters")
    _require_number(raw, "window_time_s", "window_time_s")


def scenario_from_raw(raw: dict) -> Scenario:
    """Validate a raw mapping and assemble the typed scenario."""
    _validate_shape(raw)
    num = {
        section: {key: _require_number(raw[section], key, f"{section}.{key}") for key in keys}
        for section, keys in _NUMBER_SCHEMA.items()
    }
    check_bounds({(section, key): number for section, numbers in num.items() for key, number in numbers.items()})
    fields = {
        section: {
            field: TWO_PI * num[section][key] if key.endswith("_hz") else num[section][key]
            for key, field in keys.items()
            if field is not None
        }
        for section, keys in _NUMBER_SCHEMA.items()
    }
    material = MaterialProps(**fields["material"])
    geometry = FbarGeometry(**fields["geometry"])
    drive = DriveParams(**fields["drive"])
    line = LineParams(**fields["line"])
    cavity = cavity_params(**fields["cavity"], l_eff=effective_length(fields["mbvd"]["c_plate"], line))
    env = ThermalEnv(fields["environment"]["temperature"] + 0.0)  # -0.0 -> +0.0, so T = 0 gives x = +inf
    points = raw["grid"]["points"]
    if not isinstance(points, int) or not 2 <= points <= MAX_ENTRIES:
        raise ConfigError(f"field grid.points must be an integer in [2, {MAX_ENTRIES}]")
    grid = GridSpec(**{**fields["grid"], "points": points})
    if not 0.0 < grid.omega_min < grid.omega_max < geometry.omega_m:
        raise ConfigError("grid must satisfy 0 < omega_min < omega_max < geometry omega_m")
    window_time = float(raw["window_time_s"])  # its bound is checked by source_config below
    scenario = Scenario(
        name=raw["name"],
        material=material,
        geometry=geometry,
        drive=drive,
        **fields["mbvd"],
        cavity=cavity,
        line=line,
        env=env,
        window_time=window_time,
        grid=grid,
        raw=copy.deepcopy(raw),
    )
    source_config(scenario)  # checks the window length and the mirror amplitude
    return scenario


def load_scenario(path_or_preset: str | Path, points: int | None = None, window_time: float | None = None) -> Scenario:
    """Load a preset or a JSON file; points and window_time, if given, replace its values before it is validated."""
    name = str(path_or_preset)
    try:
        raw = preset_raw(name) if name in PRESET_NAMES else json.loads(Path(name).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable path, not UTF-8, or invalid JSON
        raise ConfigError(f"scenario {name!r} is no preset, and an unreadable file or invalid JSON: {exc}") from exc
    if isinstance(raw, dict):  # scenario_from_raw rejects a root or a grid that is no object
        if points is not None and isinstance(raw.get("grid"), dict):
            raw["grid"]["points"] = points
        if window_time is not None:
            raw["window_time_s"] = window_time
    return scenario_from_raw(raw)


def scenario_hash(sc: Scenario) -> str:
    """sha256 over the canonical JSON serialization of the raw mapping."""
    canonical = json.dumps(sc.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def motional_amplitude(sc: Scenario) -> float:
    """Resonantly driven mirror amplitude of the scenario [m]."""
    return driven_amplitude(sc.material, sc.geometry, sc.drive)


def source_config(sc: Scenario, delta_x: float | None = None) -> SourceConfig:
    """Drive + modulated-capacitance configuration of the scenario.

    The static capacitance is the measured plate capacitance of the
    equivalent circuit; its modulation amplitude follows the fractional
    mirror displacement delta_x / t_piezo. Checks the "source" rows of
    _BOUNDS: delta_x before the validity bound of its expansion, then the
    modulation and the window.
    """
    if delta_x is None:
        delta_x = motional_amplitude(sc)
    check_bounds({("source", "delta_x"): delta_x})
    delta_c = delta_capacitance(sc.geometry, delta_x, sc.c_plate)
    min_window = 100.0 * TWO_PI / sc.geometry.omega_m
    source = {"delta_c": delta_c, "c0": sc.c_plate, "window_time": sc.window_time, "min_window": min_window}
    check_bounds({("source", key): value for key, value in source.items()})
    cap = TimeVaryingCap(c0=sc.c_plate, delta_c=delta_c, omega_m=sc.geometry.omega_m)
    return SourceConfig(drive=sc.drive, cap=cap, window_time=sc.window_time)


def grid_array(sc: Scenario) -> np.ndarray:
    """Evaluation grid [rad/s] of the scenario."""
    return np.linspace(sc.grid.omega_min, sc.grid.omega_max, sc.grid.points)


def squeeze_params(sc: Scenario) -> squeeze.LcParams:
    """Lumped parametric model matched to the scenario.

    The LC mode is tuned to half the modulation frequency (two-photon
    resonance) with the cavity capacitance equal to the mirror plate
    capacitance, the gap equal to the film thickness, and the mirror swing
    equal to the scenario's driven amplitude.
    """
    from . import squeeze
    omega_lc = sc.geometry.omega_m / 2.0
    cap_total = 2.0 * sc.c_plate
    inductance = 1.0 / (omega_lc**2 * cap_total)
    check_bounds({("lc", "inductance"): inductance})
    return squeeze.LcParams(
        inductance=inductance,
        cap_cavity=sc.c_plate,
        cap_mirror=sc.c_plate,
        gap=sc.geometry.t_piezo,
        delta_x=motional_amplitude(sc),
        omega_m=sc.geometry.omega_m,
    )
