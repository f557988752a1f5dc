"""Span tracer for the fbar_dce package, installed from outside the program.

`Tracer` replaces each public function listed in `LAYERS` by a wrapper at
every name a caller looks it up under (`flux.mode_response` as well as
`cavity.mode_response`, `cli.load_scenario` as well as
`scenario.load_scenario`), and restores every original on exit. A wrapper
records one span per call (command id, parent span, name, start, end, point
count, and a small detail of the result) in memory; `layer_metrics` turns the
spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, NamedTuple

import numpy as np

# piezo and mbvd evaluate a handful of scalar formulas per scenario; their
# time lands in the scenario spans that call them.
LAYERS = {
    "cli": ("main",),
    "scenario": (
        "load_scenario",
        "scenario_from_raw",
        "source_config",
        "grid_array",
        "squeeze_params",
        "motional_amplitude",
        "scenario_hash",
    ),
    "flux": ("output_spectrum", "thermal_occupation"),
    "cavity": ("mode_response", "reflection_coefficient", "cavity_resonances", "resonance_residual"),
    "scatter": ("s_coefficient", "h_coefficient"),
    "squeeze": ("evolve_series", "squeeze_coupling", "analytic_photon_number"),
}
# the argument whose length is the span's point count
POINT_PARAMS = ("grid", "omega", "omega1", "times")


class Span(NamedTuple):
    command: int
    parent: int  # index of the calling span in Tracer.spans, -1 at the root
    name: str  # "layer.function"
    start: float
    end: float
    points: int
    detail: Any  # output_spectrum: row flags; cavity_resonances: roots found; evolve_series: dim


def _detail(name: str, sig: inspect.Signature, args, kwargs, result) -> Any:
    if name == "flux.output_spectrum":
        return result.flags
    if name == "cavity.cavity_resonances":
        return len(result)
    if name == "squeeze.evolve_series":
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["dim"]
    return None


class Tracer:
    """Context manager that traces the listed fbar_dce functions."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.command = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "fbar_dce" or n.startswith("fbar_dce.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"fbar_dce.{layer}")
            for fname in names:
                original = getattr(home, fname)
                traced = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn)
        params = list(sig.parameters)
        point_param = next((p for p in params if p in POINT_PARAMS), None)
        point_index = params.index(point_param) if point_param else -1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if point_param is None:
                    points = 0
                elif len(args) > point_index:
                    points = int(np.size(args[point_index]))
                else:
                    points = int(np.size(kwargs.get(point_param, ())))
                detail = None if result is None else _detail(name, sig, args, kwargs, result)
                spans[slot] = Span(self.command, parent, name, start, end, points, detail)

        return traced


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], command_walls: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one pass: times in seconds, counts summed over its commands.

    `command_walls` maps the id of each command of the pass to its traced
    wall time measured around `cli.main`; only spans of those commands count.
    What the root spans do not cover is reported as `trace.unattributed_s`.
    """
    mine = [i for i, span in enumerate(spans) if span.command in command_walls]
    child_time = defaultdict(float)
    for i in mine:
        if spans[i].parent >= 0:
            child_time[spans[i].parent] += spans[i].end - spans[i].start

    m: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    roots = 0.0
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in mine:
        span = spans[i]
        dur = span.end - span.start
        layer = span.name.split(".")[0]
        m[f"{layer}.self_s"] += dur - child_time[i]
        by_name[span.name].append(i)
        if span.parent < 0:
            roots += dur

    def total(names: tuple[str, ...]) -> float:
        # inclusive time of the outermost spans among `names`
        out = 0.0
        for name in names:
            for i in by_name[name]:
                parent = spans[i].parent
                if parent < 0 or spans[parent].name not in names:
                    out += spans[i].end - spans[i].start
        return out

    def points(name: str, under: str | None = None) -> int:
        return sum(spans[i].points for i in by_name[name] if under is None or _has_ancestor(spans, i, under))

    def calls(name: str) -> int:
        return len(by_name[name])

    out_spec = "flux.output_spectrum"
    m["scenario.load_s"] = total(("scenario.load_scenario", "scenario.scenario_from_raw"))
    m["scenario.from_raw_calls"] = calls("scenario.scenario_from_raw")
    m["scenario.source_config_s"] = total(("scenario.source_config",))

    m["flux.output_spectrum_s"] = total((out_spec,))
    m["flux.output_spectrum_self_s"] = sum(spans[i].end - spans[i].start - child_time[i] for i in by_name[out_spec])
    m["flux.output_spectrum_calls"] = calls(out_spec)
    m["flux.thermal_occupation_s"] = total(("flux.thermal_occupation",))
    flux_points = points(out_spec)
    m["flux.points"] = flux_points
    m["flux.rows_guard_shifted"] = sum((spans[i].detail or ()).count("guard-shifted") for i in by_name[out_spec])
    m["flux.rows_guard_band"] = sum((spans[i].detail or ()).count("guard-band") for i in by_name[out_spec])

    for fname in ("mode_response", "reflection_coefficient"):
        name = f"cavity.{fname}"
        m[f"{name}_s"] = total((name,))
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_points"] = points(name)
    m["cavity.cavity_resonances_s"] = total(("cavity.cavity_resonances",))
    m["cavity.resonances_found"] = sum(spans[i].detail or 0 for i in by_name["cavity.cavity_resonances"])
    dressing = points("cavity.mode_response", out_spec) + points("cavity.reflection_coefficient", out_spec)
    m["cavity.dressing_points_per_row"] = dressing / flux_points if flux_points else 0.0

    for fname in ("s_coefficient", "h_coefficient"):
        name = f"scatter.{fname}"
        m[f"{name}_s"] = total((name,))
        m[f"{name}_points"] = points(name)
    h_rows = points("scatter.h_coefficient", out_spec)
    m["scatter.h_points_per_row"] = h_rows / flux_points if flux_points else 0.0

    m["squeeze.evolve_series_s"] = total(("squeeze.evolve_series",))
    m["squeeze.samples"] = points("squeeze.evolve_series")
    m["squeeze.dim"] = max((spans[i].detail or 0 for i in by_name["squeeze.evolve_series"]), default=0)

    wall = sum(command_walls.values())
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - roots
    m["trace.spans"] = len(mine)
    return dict(m)


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of every metric over passes (counts repeat exactly between passes)."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
