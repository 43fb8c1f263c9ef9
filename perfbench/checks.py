"""Output checks behind ``ok_frac`` and the reference behind ``abs_err``.

A command passes when it exits 0, writes a report that parses with the
expected keys and tables, and meets its workload's stated tolerance:

* word-pressure (``bowen``): |h - ref(D)| <= BOWEN_TOL and h inside its own
  bisection bracket;
* operator (``gibbs``): |exponent - ref(D)| <= GIBBS_TOL, leading eigenvalue
  within 1e-6 of one, and m^depth operator states;
* probes (``dimension``): |Bowen root - ref| <= BOWEN_TOL for continued
  fractions and <= CLOSED_FORM_TOL for Cantor systems; the correlation slope
  within ``slope_band(N)`` of the reference; N samples and every density
  point written.

``abs_err`` takes only the deterministic root, so reordering the random
stream cannot move it; the slope band is wide enough that it cannot flip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from inputs import DENSITY_POINTS

BOWEN_TOL = 1e-2  # word-pressure and probes roots today stay below 4.2e-3
GIBBS_TOL = 5e-3  # operator roots today stay below 1.2e-3
CLOSED_FORM_TOL = 1e-9  # bisection to 1e-10 on an exact depth-1 pressure

REPORT_KEYS = frozenset(
    ("command", "config_hash", "config", "seed", "results", "diagnostics", "tables", "warnings", "timestamp")
)
RESULT_KEYS = {
    "bowen": frozenset(("h", "regular", "residual", "bracket_lo", "bracket_hi", "method", "depth", "pressure_gap")),
    "gibbs": frozenset(
        ("exponent", "eigenvalue", "log_eigenvalue", "entropy", "lyapunov", "ratio", "dimension_interpretation", "states", "regular")
    ),
    "dimension": frozenset(("measure", "report", "slope", "slope_stderr", "young_exponent", "regular")),
}
TABLES = {"bowen": ("root",), "gibbs": ("masses",), "dimension": ("correlation", "density")}


@dataclass(frozen=True)
class Outcome:
    ok: bool
    error: float  # |root - reference|; nan when the command gave no root
    reason: str = ""


def closed_form_root(ratios) -> float:
    """Root of sum r_i^s = 1, by bisection (the sum falls as s grows)."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if math.fsum(r**mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def slope_band(samples: int, stderr: float) -> float:
    """How far a correlation slope from N samples may sit from the root.

    The fit's own standard error carries the log-periodic wobble of lacunary
    sets; 4/sqrt(N) the sampling noise; 0.04 the gap between correlation and
    Hausdorff dimension of a continued-fraction Gibbs measure.  Over 600
    probes commands (seeds 1-12) the largest |slope - root| used 40 % of it.
    """
    return 0.04 + 4.0 * stderr + 4.0 / math.sqrt(samples)


def ok_frac(outcomes) -> float:
    """Share of commands that passed every check."""
    return sum(o.ok for o in outcomes) / len(outcomes)


def reference(case, refs: dict) -> float:
    if case.ratios:
        return closed_form_root(case.ratios)
    return refs[case.digits]["dimension"]


def _fail(reason: str) -> Outcome:
    return Outcome(False, math.nan, reason)


def check(case, exit_code: int, out_dir: Path, ref: float) -> Outcome:
    """Judge one command from its exit code and the files it wrote."""
    if exit_code != 0:
        return _fail(f"exit code {exit_code}")
    try:
        report = json.loads((out_dir / f"{case.command}-report.json").read_text())
        tables = {
            name: (out_dir / f"{case.command}-{name}.csv").read_text().splitlines()
            for name in TABLES[case.command]
        }
    except (OSError, ValueError) as err:
        return _fail(f"unreadable output: {err}")
    if not isinstance(report, dict) or not REPORT_KEYS <= report.keys():
        return _fail("report lacks top-level keys")
    results = report["results"]
    if not isinstance(results, dict) or not RESULT_KEYS[case.command] <= results.keys():
        return _fail("report lacks result keys")
    if any(len(rows) < 2 for rows in tables.values()):
        return _fail("empty table")
    try:
        return _tolerance(case, results, report["diagnostics"], tables, ref)
    except (KeyError, TypeError, ValueError) as err:
        return _fail(f"malformed result: {err!r}")


def _tolerance(case, results: dict, diagnostics: dict, tables: dict, ref: float) -> Outcome:
    if case.command == "bowen":
        h = float(results["h"])
        err = abs(h - ref)
        if not results["bracket_lo"] <= h <= results["bracket_hi"]:
            return Outcome(False, err, "h outside its bracket")
        return Outcome(err <= BOWEN_TOL, err, "" if err <= BOWEN_TOL else "h off reference")
    if case.command == "gibbs":
        err = abs(float(results["exponent"]) - ref)
        depth = int(case.key[1])
        if results["states"] != len(case.digits) ** depth:
            return Outcome(False, err, "wrong state count")
        if abs(float(results["eigenvalue"]) - 1.0) > 1e-6:
            return Outcome(False, err, "eigenvalue not one at the root")
        return Outcome(err <= GIBBS_TOL, err, "" if err <= GIBBS_TOL else "exponent off reference")
    root = float(results["report"]["bowen_root"])
    err = abs(root - ref)
    tol = CLOSED_FORM_TOL if case.ratios else BOWEN_TOL
    if err > tol:
        return Outcome(False, err, "bowen root off reference")
    if abs(float(results["slope"]) - ref) > slope_band(case.samples, float(results["slope_stderr"])):
        return Outcome(False, err, "correlation slope outside band")
    if diagnostics["sample_count"] != case.samples or len(tables["density"]) != 1 + DENSITY_POINTS:
        return Outcome(False, err, "sample or density counts differ")
    return Outcome(True, err)
