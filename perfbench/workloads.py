"""Seeded command lists of the four benchmark workloads.

Each workload is a fixed cycle of `fbar-dce` invocations. The seed only
changes the generated inputs (sweep values, the generated scenario, preset
order); the kind and number of commands in a cycle never change, so the cost
of a cycle is the same on every seed. Every command uses default flags apart
from the ones that define the workload; in particular none passes `--threads`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from typing import NamedTuple

PRESETS = ("low-q", "high-q", "metamaterial")
SWEEP_AXES = ("v_pp", "q", "z0", "delta_x")
GRID_POINTS = 200_000
DEFAULT_SEED = 0
GENERATED_FILE = "generated.json"

# Log-uniform sweep ranges. The upper v_pp and delta_x values leave the
# model's validity domain, so those rows come out flagged `ValidityError`
# while the command still exits 0.
SWEEP_RANGES = {
    "v_pp": (1e-6, 30.0),
    "q": (1.0, 1e8),
    "z0": (1.0, 1e5),
    "delta_x": (1e-15, 1e-6),
}
SHORT_SWEEP_VALUES = 8
LONG_SWEEP_VALUES = 300

WORKLOADS = ("cli-default", "grid-100x", "sweep-long", "squeeze-deep")


class Command(NamedTuple):
    """One CLI invocation: argv after `fbar-dce`, plus the input files it reads."""

    label: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = ()

    def key(self) -> str:
        """Identity of the inputs: argv and the content of every input file."""
        ident = {
            "argv": list(self.argv),
            "files": {name: hashlib.sha256(text.encode()).hexdigest() for name, text in self.files},
        }
        return hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:24]


def _rng(workload: str, seed: int) -> random.Random:
    # one independent, platform-stable stream per workload
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def sweep_values(rng: random.Random, axis: str, count: int) -> str:
    """Sorted, comma-separated positive values on the axis' log range."""
    lo, hi = SWEEP_RANGES[axis]
    values = sorted({float(f"{_log_uniform(rng, lo, hi):.6g}") for _ in range(count)})
    return ",".join(repr(v) for v in values)


def generated_scenario(seed: int) -> dict:
    """The low-q preset with its grid run up to just below the drive tone.

    The short window widens the guard band around the tone to thousands of
    grid points at 200 000 points, so rows take the `guard-band` (NaN) and
    `guard-shifted` paths that no preset reaches.
    """
    from fbar_dce.scenario import preset_raw

    rng = _rng("grid-100x", seed)
    raw = copy.deepcopy(preset_raw("low-q"))
    raw["name"] = f"generated-{seed}"
    raw["grid"]["omega_max_hz"] = raw["drive"]["omega_d_hz"] - rng.uniform(0.2e6, 2e6)
    raw["grid"]["points"] = GRID_POINTS
    raw["window_time_s"] = rng.uniform(2e-7, 5e-7)
    raw["environment"]["temperature_k"] = _log_uniform(rng, 10**-2.5, 0.1)
    raw["geometry"]["quality"] = _log_uniform(rng, 1e2, 1e4)
    raw["drive"]["v_pp_volts"] = _log_uniform(rng, 1e-5, 1e-3)
    return raw


def commands(workload: str, seed: int) -> list[Command]:
    """One cycle of the workload's commands for this seed."""
    rng = _rng(workload, seed)
    cmds: list[Command] = []
    if workload == "cli-default":
        for preset in PRESETS:
            base = ("--scenario", preset)
            axis = rng.choice(SWEEP_AXES)
            values = sweep_values(rng, axis, SHORT_SWEEP_VALUES)
            cmds += [
                Command(f"spectrum {preset}", ("spectrum",) + base),
                Command(f"decompose {preset}", ("decompose",) + base),
                Command(f"resonances {preset}", ("resonances",) + base),
                Command(f"sweep {preset} {axis}", ("sweep",) + base + ("--axis", axis, "--values", values)),
                Command(f"squeeze {preset}", ("squeeze",) + base),
            ]
    elif workload == "grid-100x":
        points = ("--points", str(GRID_POINTS))
        for preset in PRESETS:
            for sub in ("spectrum", "decompose"):
                cmds.append(Command(f"{sub} {preset} @{GRID_POINTS}", (sub, "--scenario", preset) + points))
        text = json.dumps(generated_scenario(seed), indent=1, sort_keys=True) + "\n"
        for sub in ("spectrum", "decompose"):
            cmds.append(
                Command(f"{sub} generated", (sub, "--scenario", GENERATED_FILE), ((GENERATED_FILE, text),))
            )
    elif workload == "sweep-long":
        for preset in PRESETS:
            for axis in SWEEP_AXES:
                values = sweep_values(rng, axis, LONG_SWEEP_VALUES)
                cmds.append(
                    Command(
                        f"sweep {preset} {axis}",
                        ("sweep", "--scenario", preset, "--axis", axis, "--values", values),
                    )
                )
    elif workload == "squeeze-deep":
        for preset in rng.sample(PRESETS, len(PRESETS)):
            cmds.append(
                Command(
                    f"squeeze {preset} dim 240",
                    ("squeeze", "--scenario", preset, "--dim", "240", "--t-max", "2"),
                )
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


def setup_specs(cmds: list[Command]) -> list[str]:
    """Distinct (scenario, grid points) pairs the commands load, as `scenario[@points]`."""
    specs: list[str] = []
    for cmd in cmds:
        argv = list(cmd.argv)
        spec = argv[argv.index("--scenario") + 1]
        if "--points" in argv:
            spec += "@" + argv[argv.index("--points") + 1]
        if spec not in specs:
            specs.append(spec)
    return specs
