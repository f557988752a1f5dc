"""Scenario ingestion: named presets, JSON loading, validation, assembly.

Configs are JSON objects with explicit unit-suffixed keys; every frequency is
given in Hz and converted to angular frequency once at load. The raw mapping
is kept on the Scenario so serialization round-trips exactly.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cavity import CavityParams
from .constants import EPS0, TWO_PI
from .errors import MAX_ENTRIES, ConfigError
from .flux import ThermalEnv
from .piezo import DriveParams, FbarGeometry, MaterialProps, delta_capacitance, driven_amplitude
from .scatter import LineParams, SourceConfig, TimeVaryingCap, effective_length

# {section: {raw key: constructor field}}; keys ending in _hz are converted to
# rad/s on load. The mbvd section fills Scenario itself. A key mapped to None is
# checked, and hashed with the raw mapping, but no command reads it:
# cavity.z0_ohm is checked against line.z0_ohm, and the rest against _BOUNDS.
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
# (section, raw key, name in the message, (compare, bound, message)) for the
# numbers that no class checks, in the order they are checked: a number is
# accepted when compare(number, bound) holds
_BOUNDS = (
    ("material", "poisson_ratio", "poisson", _POSITIVE),
    ("material", "sound_speed_m_s", "sound_speed", _POSITIVE),
    ("material", "permittivity_f_m", "permittivity", _POSITIVE),
    ("material", "poisson_ratio", "poisson", (operator.lt, 0.5, "must lie in (0, 0.5)")),
    ("material", "permittivity_f_m", "permittivity", (operator.ge, EPS0, "must be at least the vacuum permittivity")),
    ("geometry", "area_m2", "area", _POSITIVE),
    ("mbvd", "c_m_farad", "c_m", _POSITIVE),
    ("mbvd", "l_m_henry", "l_m", _POSITIVE),
    ("mbvd", "c_plate_farad", "c_plate", _POSITIVE),
    ("mbvd", "r_m_ohm", "r_m", _NON_NEGATIVE),
    ("mbvd", "r_0_ohm", "r_0", _NON_NEGATIVE),
    ("mbvd", "r_s_ohm", "r_s", _NON_NEGATIVE),
)

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


@dataclass(frozen=True, repr=False, eq=False)
class GridSpec:
    """Strictly increasing evaluation grid inside (0, omega_m), angular units."""

    omega_min: float
    omega_max: float
    points: int


@dataclass(frozen=True, repr=False, eq=False)
class Scenario:
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
    for section, key, name, (compare, bound, message) in _BOUNDS:
        if not compare(num[section][key], bound):
            raise ConfigError(f"{section}.{name} {message}")
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
    for key in ("z0_ohm", "v_light_m_s"):
        if num["cavity"][key] != num["line"][key]:
            raise ConfigError(f"cavity.{key} must equal line.{key}")
    line = LineParams(**fields["line"])
    cavity = CavityParams(**fields["cavity"], l_eff=effective_length(fields["mbvd"]["c_plate"], line))
    env = ThermalEnv(**fields["environment"])
    points = raw["grid"]["points"]
    if not isinstance(points, int) or not 2 <= points <= MAX_ENTRIES:
        raise ConfigError(f"field grid.points must be an integer in [2, {MAX_ENTRIES}]")
    grid = GridSpec(**{**fields["grid"], "points": points})
    if not 0.0 < grid.omega_min < grid.omega_max < geometry.omega_m:
        raise ConfigError("grid must satisfy 0 < omega_min < omega_max < geometry omega_m")
    window_time = float(raw["window_time_s"])  # its invariant is enforced by SourceConfig below
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
    source_config(scenario)  # exercises window-length and displacement-validity invariants
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
    mirror displacement delta_x / t_piezo.
    """
    if delta_x is None:
        delta_x = motional_amplitude(sc)
    delta_c = delta_capacitance(sc.geometry, delta_x, sc.c_plate)
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
    return squeeze.LcParams(
        inductance=inductance,
        cap_cavity=sc.c_plate,
        cap_mirror=sc.c_plate,
        gap=sc.geometry.t_piezo,
        delta_x=motional_amplitude(sc),
        omega_m=sc.geometry.omega_m,
    )
