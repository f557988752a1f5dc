"""Output checks: CSV digests, frozen references and the row invariants.

Invariants (ROADMAP "Correctness and robustness"):

* an unflagged row holds no NaN or inf;
* the frequency column (`omega_over_omega_m` or `omega_rad_s`) is strictly
  increasing, as printed;
* n_total >= n_dce >= 0, to the 1e-15 round-off floor (relative to n_total
  once n_total exceeds 1).

A non-increasing frequency next to a `guard-shifted` row is the known guard
collision defect (a shifted point lands on its neighbour's frequency); it is
counted, and reported apart from every other violation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

ROUNDOFF_FLOOR = 1e-15
FREQUENCY_COLUMNS = ("omega_over_omega_m", "omega_rad_s")
TEXT_COLUMNS = ("axis", "flags")
KNOWN_DEFECT_FLAG = "guard-shifted"


class Violations(NamedTuple):
    total: int
    known: int  # of `total`, the guard collisions next to a guard-shifted row


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def data_rows(text: str) -> int:
    """CSV data rows: lines after the `#` metadata and the column header."""
    return sum(1 for line in text.splitlines() if not line.startswith("#")) - 1


def invariant_violations(text: str) -> Violations:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return Violations(1, 0)
    columns = lines[0].split(",")
    flag_col = columns.index("flags") if "flags" in columns else None
    numeric = [i for i, name in enumerate(columns) if name not in TEXT_COLUMNS]
    freq_col = next((columns.index(c) for c in FREQUENCY_COLUMNS if c in columns), None)
    n_total = columns.index("n_total") if "n_total" in columns else None
    n_dce = columns.index("n_dce") if "n_dce" in columns else None

    total = known = 0
    prev_freq, prev_flag = None, ""
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            total += 1
            continue
        flag = cells[flag_col] if flag_col is not None else ""
        values = {i: float(cells[i]) for i in numeric}
        if not flag and not all(math.isfinite(v) for v in values.values()):
            total += 1
        if freq_col is not None:
            freq = values[freq_col]
            if prev_freq is not None and not freq > prev_freq:
                total += 1
                known += KNOWN_DEFECT_FLAG in (flag, prev_flag)
            prev_freq, prev_flag = freq, flag
        if n_total is not None and n_dce is not None:
            nt, nd = values[n_total], values[n_dce]
            if math.isfinite(nt) and math.isfinite(nd):
                if nd < -ROUNDOFF_FLOOR or nt - nd < -ROUNDOFF_FLOOR * max(1.0, abs(nt)):
                    total += 1
    return Violations(total, known)


class References:
    """Frozen CSV digests (and their invariant counts) keyed by command input identity."""

    def __init__(self, path: Path):
        self.path = path
        self.entries: dict[str, dict] = {}
        if path.is_file():
            self.entries = json.loads(path.read_text())["commands"]

    def lookup(self, key: str) -> dict | None:
        return self.entries.get(key)

    def save(self, seed: int, entries: dict[str, dict]) -> None:
        doc = {
            "about": "sha256 of every command's CSV at the default seed; regenerate with"
            " `python3 perfbench/run.py --regenerate` and say why in CHANGES.md",
            "seed": seed,
            "commands": dict(sorted(entries.items())),
        }
        self.path.write_text(json.dumps(doc, indent=1) + "\n")
        self.entries = doc["commands"]
