"""Output-correctness gate: scenario check rows against stored references.

At the reference seed a row fails when its `pass` flag is false, when it is
missing or extra, or when its `lhs` or `rhs` moved from the reference:

* value rows (from `cli._check`): lhs or rhs moved by more than the row's
  `tol`, relative to the larger magnitude with the floor `cli._check` uses
  (for the axisym rows, the pair's |mu_hat| + 1e-9);
* bound rows (`rhs` is the bound and equals `tol`, from `cli._check_below`):
  `lhs` is an error estimate, and it fails once it grows past
  max(BOUND_GROWTH * reference lhs, BOUND_FLOOR_SHARE * tol), so that a loss
  of accuracy shows well before the bound itself is reached.  The floor sits
  above the default quadrature rel_tol (1e-8) on the 1e-5 bound rows, so a
  ladder that stops at the requested tolerance instead of over-resolving
  still passes.  `rhs` follows the value-row rule;
* threshold rows (`tol` 0, the zero-mode `diverges` rows: lhs is a doubling
  ratio, rhs its threshold): lhs and rhs compared relatively within
  THRESHOLD_REL, so a last-digit change in the node generation passes.

At other seeds only the `pass` flags gate.  A scenario that wrote no report
(it exited with 2 or crashed) fails every one of its reference rows.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROW_KEYS = ("name", "lhs", "rhs", "tol", "pass")
_AXISYM_ROW = re.compile(r"average=restriction (?:mu|omega)(\[\d+,\d+\])$")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "seed42.json"
BOUND_GROWTH = 100.0
BOUND_FLOOR_SHARE = 1e-2
THRESHOLD_REL = 1e-6


def reference_rows(report: dict) -> list:
    """The stored part of a report's check rows; `generated_at` is dropped."""
    return [{k: row[k] for k in ROW_KEYS} for row in report["checks"]]


def is_bound_row(row: dict) -> bool:
    return row["rhs"] == row["tol"]


def floors(reference: list) -> dict:
    """Relative-comparison floors: `cli._scenario_axisym` compares both rows
    of a pair with floor |mu_hat| + 1e-9, mu_hat being the mu row's rhs."""
    by_name = {r["name"]: r for r in reference}
    out = {}
    for name in by_name:
        m = _AXISYM_ROW.match(name)
        mu_row = by_name.get(f"average=restriction mu{m.group(1)}") if m else None
        if mu_row is not None:
            out[name] = abs(float(mu_row["rhs"])) + 1e-9
    return out


def _rel_moved(a: float, b: float, tol: float, floor: float) -> bool:
    return not abs(a - b) <= tol * max(abs(a), abs(b), floor, 1e-300)


def moved(ref: dict, row: dict, floor: float = 0.0) -> bool:
    """True when lhs or rhs left the reference (see the module docstring)."""
    ref_lhs, lhs = float(ref["lhs"]), float(row["lhs"])
    ref_rhs, rhs = float(ref["rhs"]), float(row["rhs"])
    tol = ref["tol"]
    if is_bound_row(ref):
        limit = max(BOUND_GROWTH * abs(ref_lhs), BOUND_FLOOR_SHARE * tol)
        return not abs(lhs) <= limit or _rel_moved(ref_rhs, rhs, tol, floor)
    tol = tol or THRESHOLD_REL
    return _rel_moved(ref_lhs, lhs, tol, floor) or _rel_moved(ref_rhs, rhs, tol, floor)


def compare(reference: list, rows) -> tuple:
    """(attempted, failed) for one scenario run against its reference rows.

    `rows` is None when the scenario wrote no report.
    """
    if rows is None:
        return len(reference), len(reference)
    ref = {r["name"]: r for r in reference}
    got = {r["name"]: r for r in rows}
    names = ref.keys() | got.keys()
    floor = floors(reference)
    failed = 0
    for name in names:
        r, g = ref.get(name), got.get(name)
        if r is None or g is None or not g["pass"] or moved(r, g, floor.get(name, 0.0)):
            failed += 1
    return len(names), failed


def count_passes(reference: list, rows) -> tuple:
    """(attempted, failed) when only the pass flags gate (other seeds)."""
    if rows is None:
        return len(reference), len(reference)
    return len(rows), sum(0 if r["pass"] else 1 for r in rows)


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
