"""Command-line surface: subcommands, reports, and the measure gallery.

Each run reads one flat config file (dotted keys), validates it fully
before computing anything, executes a single subcommand, and writes a JSON
report plus CSV tables.  Reports embed the sha256 of the canonical config
text and the seed, and are byte-identical across repeat runs up to the
timestamp field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .dimension import (
    consistency_report,
    correlation_curve,
    density_field,
    flatness_detector,
    radius_grid,
    scaling_quantile_bounds,
    young_criterion,
)
from .measures import (
    GALLERY_NAMES,
    CylinderMeasure,
    LineMeasure,
    MeasureFamily,
    gallery,
    sample,
    setwise_discrepancy,
    truncation_singularity,
    tv_distance,
    w1_distance,
)
from .pressure import (
    ConvergenceFailure,
    analytic_bowen_solve,
    bowen_solve,
    collocate,
    collocation_shape,
    default_depth,
    truncation_scan,
)
from .symbolic import IncidenceMatrix, count_admissible
from .systems import (
    InvalidSystem,
    MapFamily,
    SystemSpec,
    borderline_family,
    cantor_system,
    continued_fraction_family,
    ensure_separation,
    golden_family,
)
from .transfer import (
    DegenerateSystemError,
    ReducibilityError,
    cylinder_masses,
    gibbs_state,
    masses_entries,
    require_primitive,
)

__all__ = [
    "Report",
    "cmd_bowen",
    "cmd_converge",
    "cmd_dimension",
    "cmd_gibbs",
    "cmd_scan",
    "main",
]

# exit codes follow the phase: the plan reads, checks and costs the whole
# config and refuses it with a ConfigError (2); an irregular system exits 4,
# and any other fault, all past the plan, 3
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN_FAILED = 3
EXIT_IRREGULAR = 4

# the most entries one array of a command may hold: the words of a geometry
# level, the collocation arrays of the root (bowen, scan, dimension, gibbs),
# the largest array of the masses recursion (gibbs, dimension), a converge
# cylinder table's level^depth cells, a gallery member's atoms plus pieces
# (array rows of 16 and 24 bytes) and the flatness detector's breakpoints
# per radius.  4096^2 = 4^12 keeps every two-map depth that bowen.depth
# accepts, gibbs.depth and dimension.depth 12 for up to three maps and 10
# for four, and the default word depth 12 for up to four maps.
ENTRY_BUDGET = 4096**2


def _check_budget(key: str, what: str, entries: int, unit: str) -> None:
    """Reject, naming ``key``, work whose largest array would hold more than
    ENTRY_BUDGET entries; commands call this before they compute anything.
    ``what`` ends in its verb: "depth 12 makes", "9 states make"."""
    if entries > ENTRY_BUDGET:
        raise ConfigError(f"{key}: {what} {entries} {unit}, over the budget of {ENTRY_BUDGET}")


# log of the smallest normal double
LOG_TINY = math.log(np.finfo(float).tiny)


def _log_inf_derivatives(coefficients: np.ndarray) -> np.ndarray:
    """Per map row (a, b, c, d), log inf |s_e'| on [0, 1]: |s_e'(x)| is
    |ad - bc| / (cx + d)^2, least where |cx + d| is largest, at 0 or 1."""
    a, b, c, d = coefficients.T
    return np.log(np.abs(a * d - b * c)) - 2.0 * np.log(np.maximum(np.abs(d), np.abs(c + d)))


def _check_word_depth(key: str, what: str, depth: int, log_inf: float) -> None:
    """Reject, naming ``key``, a word depth past 1 at which a word's |s_w'|
    may fall below the smallest normal double, as (inf |s_e'|)^depth does
    for the map with the least ``log_inf``: the word's log-derivative then
    loses its digits or is -inf, and the word bracket reads [0, 1].  Depth 1
    reads the maps' own derivatives."""
    if depth >= 2 and depth * log_inf < LOG_TINY:
        raise ConfigError(
            f"{key}: {what} makes word derivatives as small as exp({depth * log_inf:.1f}), "
            f"below the smallest normal double exp({LOG_TINY:.1f})"
        )


def _check_collocation(key: str, branches: int, grids: int, nodes: int) -> None:
    """Reject, naming ``key``, a root collocation that would hold more than
    ENTRY_BUDGET interpolation weights (branches * nodes^2) or matrix
    entries (2 (grids * nodes)^2: the matrix and its s-derivative share one
    array, as do its power and that power's transpose);
    ``collocation_shape`` gives the last two."""
    what = f"collocating {branches} branches at {nodes} nodes makes"
    _check_budget(key, what, branches * nodes**2, "interpolation weights")
    what = f"collocating on {grids} grids of {nodes} nodes makes"
    _check_budget(key, what, 2 * (grids * nodes) ** 2, "matrix entries")


# the parametrised families, whose first n maps are family.truncate(n)
MAP_FAMILIES = {
    "golden": golden_family, "borderline": borderline_family, "continued-fraction": continued_fraction_family,
}


def _size_key(cfg: RunConfig) -> str:
    """The key that sets how many maps the configured finite system has."""
    family = cfg.get_str("system.family")
    return {"cantor": "system.ratios", "custom": "system.maps"}.get(family, "system.size")


def _finite_system(cfg: RunConfig, source, command: str) -> SystemSpec:
    """``source`` when it is a finite system, its root collocation costed
    under the key that sets its size; a family without one is refused."""
    if isinstance(source, MapFamily):
        raise ConfigError(f"system.size: required to build a finite system for {command}")
    _check_collocation(_size_key(cfg), source.alphabet_size, *collocation_shape(source))
    return source


def _check_levels(key: str, family: MapFamily, levels: list[int]) -> None:
    """Reject, naming ``key``, levels that need a map whose ratio is not in
    (0, 1) as a double: golden's 2^-(i+1) underflows to 0.0 from map 1074."""
    ratios = family.coefficients(max(levels))[:, 0]
    bad = np.flatnonzero((ratios == 0.0) | ~(np.abs(ratios) < 1.0))
    if bad.size:
        i = int(bad[0])
        raise ConfigError(
            f"{key}: map {i + 1} of {family.name} has ratio {float(ratios[i])!r} in double "
            f"precision, so levels run to at most {i}"
        )


def _check_members(key: str, family: MeasureFamily, top: int) -> None:
    """Reject, naming ``key``, gallery members up to ``top`` that double
    precision cannot represent or whose atoms plus pieces exceed
    ENTRY_BUDGET; the entries grow with the member, so ``top`` decides."""
    if family.last is not None and top > family.last:
        raise ConfigError(
            f"{key}: member {top} of {family.name} underflows in double precision, "
            f"so members run to at most {family.last}"
        )
    _check_budget(key, f"member {top} of {family.name} makes", family.entries(top), "atoms and pieces")


# ---------------------------------------------------------------------------
# report plumbing


def _text(value):
    """A cell of a sequence column: a bool reads true/false, and text holding
    a comma, a quote or a line break is quoted as the csv module quotes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _table(header: str, row: str, *columns) -> str:
    """``header``, then one ``row`` line per table row: a single %-format
    over the cells in row-major order.  A column is an array, whose cells
    go in as they are, or a sequence, whose cells go through ``_text``."""
    cells: list = [None] * (len(columns) * len(columns[0]))
    for j, column in enumerate(columns):
        cells[j :: len(columns)] = column.tolist() if isinstance(column, np.ndarray) else map(_text, column)
    return header + "\n" + (row + "\n") * len(columns[0]) % tuple(cells)


def _json_safe(value):
    """``value`` with every non-finite float, at any depth, as None: JSON
    has no inf or nan."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return value


@dataclass
class Report:
    """One command's full output: results, diagnostics, and CSV tables.

    ``canonical_body`` excludes the timestamp, so two runs with the same
    config and seed produce identical bytes there — the determinism contract
    the golden-file tests pin down.  Both bodies write a non-finite float of
    ``results`` or ``diagnostics`` as null.
    """

    command: str
    config_hash: str
    config_echo: dict[str, str]
    seed: Optional[int]
    results: dict
    diagnostics: dict = field(default_factory=dict)
    tables: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    timestamp: str = ""

    def body_dict(self) -> dict:
        return {
            "command": self.command,
            "config_hash": self.config_hash,
            "config": self.config_echo,
            "seed": self.seed,
            "results": _json_safe(self.results),
            "diagnostics": _json_safe(self.diagnostics),
            "tables": self.tables,
            "warnings": self.warnings,
        }

    def canonical_body(self) -> str:
        return json.dumps(self.body_dict(), sort_keys=True, indent=2, allow_nan=False)

    def to_json(self) -> str:
        blob = self.body_dict()
        blob["timestamp"] = self.timestamp
        return json.dumps(blob, sort_keys=True, indent=2, allow_nan=False)

    def write(self, out_dir: Path, fmt: str) -> list[Path]:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / f"{self.command}-report.json"]
        paths[0].write_text(self.to_json() + "\n")
        if fmt == "csv":
            for name, text in sorted(self.tables.items()):
                path = out_dir / f"{self.command}-{name}.csv"
                path.write_text(text)
                paths.append(path)
        return paths


# ---------------------------------------------------------------------------
# system construction from config


def _parse_map(entry: str) -> tuple[float, float, float, float]:
    """The coefficient row (a, b, c, d) of one ``system.maps`` entry."""
    parts = [p.strip() for p in entry.split(":")]
    kind = parts[0]
    try:
        if kind == "similitude":
            if len(parts) != 3:
                raise ConfigError(
                    f"system.maps: {entry!r} must be 'similitude:ratio:offset'"
                )
            return (float(parts[1]), float(parts[2]), 0.0, 1.0)
        if kind == "moebius":
            if len(parts) != 2:
                raise ConfigError(f"system.maps: {entry!r} must be 'moebius:q'")
            return (0.0, 1.0, 1.0, float(int(parts[1])))
    except (ValueError, OverflowError) as err:  # OverflowError: q past the float range
        raise ConfigError(f"system.maps: {entry!r}: {err}") from None
    raise ConfigError(f"system.maps: unknown map kind {kind!r}")


def _custom_system(cfg: RunConfig) -> SystemSpec:
    raw_maps = cfg.get_str("system.maps")
    coefficients = [_parse_map(e) for e in raw_maps.split(";") if e.strip()]
    if not coefficients:
        raise ConfigError("system.maps: empty map list")
    incidence = IncidenceMatrix.full(len(coefficients))
    if cfg.has("system.incidence"):
        rows = []
        for row in cfg.get_str("system.incidence").split(";"):
            row = row.strip()
            if not set(row) <= {"0", "1"} or not row:
                raise ConfigError(
                    f"system.incidence: rows must be 0/1 strings, got {row!r}"
                )
            rows.append(tuple(int(ch) for ch in row))
        try:
            incidence = IncidenceMatrix(tuple(rows))
        except ValueError as err:  # the rows are not square
            raise ConfigError(f"system.incidence: {err}") from None
        # v <- (A v > 0) from all ones shrinks, within one step per symbol,
        # to the symbols that begin an infinite word
        alive = np.ones(incidence.size, dtype=bool)
        for _ in range(incidence.size):
            alive = (incidence.allowed & alive).any(axis=1)
        if not alive.any():
            raise ConfigError("system.incidence: has no cycle, so it admits no infinite word")
    try:
        system = SystemSpec(coefficients, incidence, label="custom")
        # overlapping images make every pressure root meaningless as a dimension
        ensure_separation(system)
    except InvalidSystem as err:
        raise ConfigError(f"system: {err}") from None
    return system


def _build_source(cfg: RunConfig) -> Union[MapFamily, SystemSpec]:
    """The configured system, or the whole family when a family with a
    closed-form mass is given no ``system.size``."""
    family = cfg.get_str("system.family")
    if family in MAP_FAMILIES:
        fam = MAP_FAMILIES[family]()
        if fam.log_mass is None or cfg.has("system.size"):  # a family without one is only truncated
            return fam.truncate(cfg.get_int("system.size", lo=2, hi=64))
        return fam
    if family == "cantor":
        ratios = cfg.get_floats("system.ratios")
        try:
            return cantor_system(ratios)
        except InvalidSystem as err:
            raise ConfigError(f"system.ratios: {err}") from None
    if family == "custom":
        return _custom_system(cfg)
    raise ConfigError(
        f"system.family: unknown family {family!r} (expected golden | borderline"
        " | cantor | continued-fraction | custom | gallery:<name>)"
    )


def _gallery_family(cfg: RunConfig, family: str):
    name = family.split(":", 1)[1]
    if name not in GALLERY_NAMES:
        raise ConfigError(
            f"system.family: unknown gallery member {name!r}; run gallery-list"
        )
    if name != "staircase":  # the only gallery family with a scale
        return gallery(name)
    a = cfg.get_float("system.a", default=0.5)
    if not (0.0 < a < 1.0):
        raise ConfigError(f"system.a: must lie in (0, 1), got {a}")
    return gallery(name, a=a)


# ---------------------------------------------------------------------------
# subcommands: each cmd_* is a plan, which reads, checks and costs the config
# and solves nothing, and returns its run, which computes the report's
# results, diagnostics, tables and warnings from the plan's values, not cfg


def cmd_bowen(cfg: RunConfig) -> Callable[[], dict]:
    source = _build_source(cfg)
    if isinstance(source, MapFamily):  # the closed-form root reads no depth
        solve = functools.partial(analytic_bowen_solve, source)
    else:
        source = _finite_system(cfg, source, "bowen")
        depth = cfg.get_int("bowen.depth", default=default_depth(source), lo=1, hi=24)
        words = count_admissible(source.incidence, depth)
        _check_budget("bowen.depth", f"depth {depth} makes", words, "words")
        least = _log_inf_derivatives(source.coefficients).min()
        _check_word_depth("bowen.depth", f"depth {depth}", depth, least)
        solve = functools.partial(bowen_solve, source, depth=depth)

    def run():
        sol = solve()
        results = {
            "h": sol.h,
            "regular": sol.regular,
            "residual": sol.residual,
            "bracket_lo": sol.bracket[0],
            "bracket_hi": sol.bracket[1],
            "method": sol.method,
            "depth": sol.depth,
            "pressure_gap": sol.gap,
        }
        warnings = []
        if not sol.regular:
            warnings.append(
                "irregular: the pressure stays negative, the root is the "
                "infimum of the finite-pressure exponents, not a zero"
            )
        table = _table(
            "h,bracket_lo,bracket_hi,residual,regular,method", "%.17g,%.17g,%.17g,%.17g,%s,%s",
            *([v] for v in (sol.h, *sol.bracket, sol.residual, sol.regular, sol.method)),
        )
        return {
            "results": results,
            "diagnostics": {
                "bracket_width": sol.bracket[1] - sol.bracket[0],
                "iterations": sol.iterations,
            },
            "tables": {"root": table},
            "warnings": warnings,
        }
    return run


def _cf_scan_depth(level: int) -> int:
    depth = 1
    while level ** (depth + 1) <= 100_000 and depth < 12:
        depth += 1
    return depth


def cmd_scan(cfg: RunConfig) -> Callable[[], dict]:
    levels = cfg.get_levels("scan.levels", lo=2)  # they set the sizes: no system.size
    family = cfg.get_str("system.family")
    if family not in MAP_FAMILIES:
        raise ConfigError(
            "system.family: scan needs a parametrised family "
            "(golden | borderline | continued-fraction)"
        )
    source = MAP_FAMILIES[family]()
    # every truncation is a full shift of one map kind, on one grid; level 2 shows both
    probe = source.truncate(2)
    if probe.is_similitude():  # depth-1 pressures are exact, and ratios may underflow
        _check_levels("scan.levels", source, levels)
        depths = [cfg.get_int("scan.depth", default=1, lo=1, hi=24)] * len(levels)
    elif cfg.has("scan.depth"):
        depths = [cfg.get_int("scan.depth", lo=1, hi=16)] * len(levels)
    else:
        depths = [_cf_scan_depth(n) for n in levels]
    least = np.minimum.accumulate(_log_inf_derivatives(source.coefficients(max(levels))))
    for n, d in zip(levels, depths):
        _check_word_depth("scan.depth", f"level {n} at depth {d}", d, least[n - 1])
    n, d = max(zip(levels, depths), key=lambda nd: nd[0] ** nd[1])  # level^depth words
    _check_budget("scan.depth", f"level {n} at depth {d} makes", n**d, "words")
    _check_collocation("scan.levels", max(levels), 1, collocation_shape(probe)[1])

    def run():
        rows = []
        solutions = truncation_scan(source, levels, depths=depths)
        for n, d, sol in zip(levels, depths, solutions):
            if isinstance(sol, Exception):  # the level failed; the scan moved on
                rows.append([n, math.nan, math.nan, math.nan, math.nan, math.nan, False, d, str(sol)])
            else:
                rows.append([n, sol.h, *sol.bracket, sol.gap, sol.residual, sol.regular, sol.depth, ""])
        hs = [row[1] for row in rows if not math.isnan(row[1])]
        limit_h = limit_regular = None  # the whole family's root, where it has a closed form
        if source.log_mass is not None:
            limit = analytic_bowen_solve(source)
            limit_h, limit_regular = limit.h, limit.regular
        results = {
            "levels": levels,
            "monotone": all(a <= b + 1e-15 for a, b in zip(hs, hs[1:])),
            "first_h": hs[0] if hs else None,
            "last_h": hs[-1] if hs else None,
            "limit_h": limit_h,
            "limit_regular": limit_regular,
            "final_gap_to_limit": (limit_h - hs[-1]) if (hs and limit_h) else None,
            "regular": limit_regular if limit_regular is not None else True,
        }
        gaps = [row[4] for row in rows if not math.isnan(row[4])]
        return {
            "results": results,
            "diagnostics": {"worst_pressure_gap": max(gaps, default=None)},
            "tables": {"levels": _table(
                "level,h,bracket_lo,bracket_hi,pressure_gap,residual,regular,depth,note",
                "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%d,%s", *zip(*rows),
            )},
        }
    return run


def cmd_converge(cfg: RunConfig) -> Callable[[], dict]:
    family = cfg.get_str("system.family")
    if family.startswith("gallery:"):
        return _converge_gallery(cfg, family)

    source = _build_source(cfg)
    if not isinstance(source, MapFamily):  # the whole family, with a closed-form mass
        raise ConfigError(
            "system.family: converge compares truncations against a family "
            "limit; use golden, borderline, or gallery:<name>"
        )
    levels = cfg.get_levels("converge.levels", default="2:10", lo=2)
    _check_levels("converge.levels", source, levels)
    depths = cfg.get_levels("converge.cylinder_depths", default="1,2,3", lo=1, hi=6)
    top, deepest = max(levels), max(depths)
    what = f"level {top} at cylinder depth {deepest} makes"
    _check_budget("converge.levels", what, top**deepest, "cells per table")
    sing_depth = cfg.get_int("converge.singularity_depth", default=200, lo=1, hi=100_000)

    def run():
        limit_sol = analytic_bowen_solve(source)
        if not limit_sol.regular:
            return {
                "results": {"regular": False, "limit_h": limit_sol.h},
                "warnings": [
                    "irregular family: the limit pressure never reaches zero, so "
                    "no limit conformal measure exists to compare against"
                ],
            }
        h = limit_sol.h
        roots = {}
        for n, sol in zip(levels, truncation_scan(source, levels, [1] * len(levels))):
            if isinstance(sol, Exception):
                raise sol
            roots[n] = sol.h
        h_top = roots[top]

        rows = []
        for n in levels:
            ratios = np.abs(source.coefficients(n)[:, 0])
            h_n = roots[n]
            weights_n = ratios**h_n
            weights_n /= weights_n.sum()
            limit_weights = ratios**h
            row: list = [n, h_n]
            for d in depths:
                ours, limit = (functools.reduce(np.kron, [w] * d) for w in (weights_n, limit_weights))
                row.append(float(np.abs(ours - limit).max()))
            row.append(max(0.0, 1.0 - truncation_singularity(source, n, top, h_top, sing_depth)))
            rows.append(row)

        discrepancies = [f"cylinder_discrepancy_depth{d}" for d in depths]
        header = ",".join(["level", "h", *discrepancies, "tv_lower_bound"])
        last = rows[-1]
        results = {
            "regular": True,
            "limit_h": h,
            "final_level": last[0],
            "final_discrepancies": {f"depth{d}": last[2 + i] for i, d in enumerate(depths)},
            "tv_lower_bound_min": min(r[-1] for r in rows),
            "singularity_depth": sing_depth,
        }
        return {
            "results": results,
            "diagnostics": {"reference_level": top, "reference_h": h_top},
            "tables": {"levels": _table(header, "%d" + ",%.17g" * (len(depths) + 2), *zip(*rows))},
        }
    return run


def _converge_gallery(cfg: RunConfig, family: str) -> Callable[[], dict]:
    fam = _gallery_family(cfg, family)
    if fam.limit is None:
        raise ConfigError(
            f"system.family: {family} has no closed-form limit measure; "
            "pick a gallery family with one"
        )
    levels = cfg.get_levels("converge.levels", default="2:10", lo=1)
    _check_members("converge.levels", fam, max(levels))

    def run():
        rows, cells = [], [(i / 8.0, (i + 1) / 8.0) for i in range(8)]
        for n in levels:
            nu = fam.at(n)
            tv = tv_distance(nu, fam.limit)
            weak = w1_distance(nu, fam.limit)
            sets = [("points", nu.atoms[:, 0])] if nu.atoms.size else cells
            setwise = setwise_discrepancy(nu, fam.limit, sets)
            rows.append([n, tv, weak, setwise])
        results = {
            "regular": True,
            "family": fam.name,
            "note": fam.note,
            "final_tv": rows[-1][1],
            "final_weak": rows[-1][2],
            "final_setwise": rows[-1][3],
        }
        return {
            "results": results,
            "tables": {"levels": _table("level,tv,weak,setwise", "%d,%.17g,%.17g,%.17g", *zip(*rows))},
        }
    return run


def cmd_dimension(cfg: RunConfig) -> Callable[[], dict]:
    if not cfg.has("sample.seed"):
        raise ConfigError("sample.seed: required whenever sampling is requested")
    seed = cfg.get_int("sample.seed", lo=0)
    count = cfg.get_int("sample.count", default=10_000, lo=100, hi=10_000_000)
    r_min = cfg.get_float("dimension.r_min", default=1e-4, lo=0.0)
    r_max = cfg.get_float("dimension.r_max", default=0.25)
    if not 0.0 < r_min < r_max:
        raise ConfigError(f"dimension.r_min: need 0 < r_min < r_max, got ({r_min}, {r_max})")
    r_count = cfg.get_int("dimension.r_count", default=24, lo=4, hi=400)
    fit_window = None
    if cfg.has("dimension.fit_lo") or cfg.has("dimension.fit_hi"):
        fit_window = (cfg.get_float("dimension.fit_lo"), cfg.get_float("dimension.fit_hi"))
    try:
        radius_grid(r_min, r_max, r_count, fit_window)
    except ValueError as err:
        raise ConfigError(f"dimension.{'fit_lo' if fit_window else 'r_min'}: {err}") from None
    density_points = cfg.get_int("dimension.density_points", default=300, lo=1, hi=100_000)
    d_rmin = cfg.get_float("dimension.density_r_min", default=max(r_min, 1e-12))
    d_rmax = cfg.get_float("dimension.density_r_max", default=min(r_max, 0.4))
    if not 0.0 < d_rmin < d_rmax < 1.0:
        raise ConfigError(
            f"dimension.density_r_min: need 0 < density_r_min < density_r_max < 1, "
            f"got ({d_rmin}, {d_rmax})"
        )

    family = cfg.get_str("system.family")
    if family.startswith("gallery:"):
        fam = _gallery_family(cfg, family)
        member = cfg.get_str("dimension.member", default="limit")
        if member == "limit":
            if fam.limit is None:
                raise ConfigError(
                    f"dimension.member: {family} has no limit measure; give an index"
                )
            index, label = None, f"{fam.name}[limit]"
            lo_supp, hi_supp = fam.limit.support_bounds
            edges = len(fam.limit.atoms) + 2 * len(fam.limit.pieces)
        else:
            index = cfg.get_int("dimension.member", lo=1)
            _check_members("dimension.member", fam, index)
            label = f"{fam.name}[{index}]"
            lo_supp, hi_supp = fam.support
            edges = 2 * fam.entries(index)  # every entry counted as a piece
        detectable = 0.0 <= lo_supp and hi_supp <= 1.0
        # the flatness radii: the family's own ladder, else halvings of density_r_max
        ladder = fam.ladder or [r for r in d_rmax * 0.5 ** np.arange(12) if r >= d_rmin] or [d_rmax]
    else:
        source = _finite_system(cfg, _build_source(cfg), "dimension")
        cyl_depth = cfg.get_int("dimension.depth", default=12, lo=1, hi=16)
        if not source.incidence.allowed.any(axis=1).all():
            raise ConfigError("system.incidence: a symbol has no admissible successor")
        word_depth = default_depth(source)
        # the word solve's depth is fixed, so only fewer maps shrink its level
        words = count_admissible(source.incidence, word_depth)
        what = f"the word solve at depth {word_depth}"
        _check_budget(_size_key(cfg), f"{what} makes", words, "words")
        _check_word_depth(_size_key(cfg), what, word_depth, _log_inf_derivatives(source.coefficients).min())
        entries = masses_entries(source.incidence, cyl_depth, *collocation_shape(source))
        _check_budget("dimension.depth", f"depth {cyl_depth} makes", entries, "masses-recursion entries")
        label = f"{source.label}[conformal]"
        detectable = False  # conformal cylinder masses are not piecewise constant
    want_flatness = cfg.get_bool("dimension.flatness", default=detectable)
    if want_flatness and not detectable:
        raise ConfigError("dimension.flatness: the detector needs a piecewise measure on [0, 1]")
    if want_flatness:  # the detector's grid per radius: 0, the edges, 1, r/2 and the edges +- r
        what = f"{label} makes"
        _check_budget("dimension.flatness", what, 3 * edges + 3, "flatness breakpoints per radius")

    def run():
        bowen_root: Optional[float] = None
        ratio: Optional[float] = None
        warnings: list[str] = []
        measure: Union[LineMeasure, CylinderMeasure]
        if family.startswith("gallery:"):
            measure = fam.limit if index is None else fam.at(index)
        else:
            # the root and its masses, the gibbs eigenmeasure, share one collocation
            collocation = collocate(source)
            sol = bowen_solve(source, depth=word_depth, collocation=collocation)
            bowen_root = sol.h
            masses = cylinder_masses(collocation, sol.state, source.incidence, cyl_depth)
            measure = CylinderMeasure(source, cyl_depth, masses.eigenmeasure)
            # the ratio is read off the eigenpair of the root itself
            try:
                require_primitive(source.incidence)
                ratio = gibbs_state(sol.state).ratio
            except (ReducibilityError, ConvergenceFailure, DegenerateSystemError) as err:
                warnings.append(f"entropy/lyapunov ratio unavailable: {err}")

        cloud = sample(measure, count, seed=seed)
        curve = correlation_curve(cloud, r_min, r_max, count=r_count, fit_window=fit_window)
        if curve.degenerate:
            warnings.append("sample cloud is a single point; slope pinned to zero")

        fld = density_field(measure, cloud[:density_points], d_rmin, d_rmax)
        crit = young_criterion(fld)
        bounds = scaling_quantile_bounds(fld)

        tables = {
            "correlation": _table("r,correlation", "%.17g,%.17g", curve.radii, curve.values),
            "density": _table(
                "x,lower,upper,inside", "%.17g,%.17g,%.17g,%d", fld.points, fld.lower, fld.upper, fld.inside
            ),
        }
        flatness = None
        if want_flatness:
            flat = flatness_detector(measure, ladder)
            tables["flatness"] = _table(
                "r,bound,exponent", "%.17g,%.17g,%.17g", flat.radii, flat.bounds, flat.exponents
            )
            flatness = {
                "fired": flat.fired,
                "final_exponent": float(flat.exponents[int(np.argmin(flat.radii))]),
            }

        results = {
            "measure": label,
            "report": consistency_report(bowen_root, ratio, curve.slope, bounds.lower, bounds.upper),
            "young_exponent": crit.c,
            "young_fraction": crit.fraction,
            "slope": curve.slope,
            "slope_stderr": curve.slope_stderr,
            "degenerate_cloud": curve.degenerate,
            "flatness": flatness,
            "regular": True,
        }
        return {
            "results": results,
            "diagnostics": {
                "sample_count": count,
                "density_points_used": int(fld.inside.sum()),
                "fit_window": list(curve.fit_window),
            },
            "tables": tables,
            "warnings": warnings,
        }
    return run


def cmd_gibbs(cfg: RunConfig) -> Callable[[], dict]:
    source = _finite_system(cfg, _build_source(cfg), "gibbs")
    depth = cfg.get_int(
        "gibbs.depth", default=1 if source.is_similitude() else 2, lo=1, hi=12
    )
    raw_exp = cfg.get_str("gibbs.exponent", default="bowen")
    if raw_exp != "bowen":
        try:
            exponent = float(raw_exp)
        except ValueError:
            raise ConfigError(
                f"gibbs.exponent: expected a number or 'bowen', got {raw_exp!r}"
            ) from None
        if not math.isfinite(exponent):
            raise ConfigError(f"gibbs.exponent: must be finite, got {raw_exp!r}")
    entries = masses_entries(source.incidence, depth, *collocation_shape(source))
    _check_budget("gibbs.depth", f"depth {depth} makes", entries, "masses-recursion entries")

    def run():
        require_primitive(source.incidence)
        collocation = collocate(source)
        root_diagnostics = {}
        if raw_exp == "bowen":  # the root call of bowen_solve, from 1, without the word bracket
            pair, evals = collocation.root()
            root_diagnostics["root_evaluations"] = evals
        else:
            pair = collocation.eigenpair(exponent)
        state = gibbs_state(pair)
        masses = cylinder_masses(collocation, pair, source.incidence, depth)
        count = len(masses.words)
        results = {
            "exponent": pair.s,
            "eigenvalue": pair.eigenvalue,
            "log_eigenvalue": math.log(pair.eigenvalue),
            "entropy": state.entropy,
            "lyapunov": state.lyapunov,
            "ratio": state.ratio,
            "dimension_interpretation": abs(pair.eigenvalue - 1.0) < 1e-6,
            "states": count,
            "regular": True,
        }
        # words hold only digits and dots, so no cell needs quoting
        table = _table(
            "word,eigenmeasure,invariant",
            ".".join(["%d"] * depth) + ",%.17g,%.17g",
            *masses.words.T, masses.eigenmeasure, masses.invariant,
        )
        return {
            "results": results,
            "diagnostics": {
                "residual": pair.residual,
                "density_residual": pair.density_residual,
                "iterations": pair.passes,
                "shift_invariance_defect": masses.shift_invariance_defect(),
                **root_diagnostics,
            },
            "tables": {"masses": table},
        }
    return run


COMMANDS = {
    "bowen": cmd_bowen,
    "scan": cmd_scan,
    "converge": cmd_converge,
    "dimension": cmd_dimension,
    "gibbs": cmd_gibbs,
}


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsdim",
        description=(
            "Hausdorff-dimension and conformal-measure toolkit for conformal "
            "iterated function systems and graph-directed Markov systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "bowen": "solve the pressure equation for the dimension exponent",
        "scan": "dimension of each truncated subsystem in a ladder",
        "converge": "truncation measures against the limit: cylinder/TV/weak tables",
        "dimension": "sample a measure and run every empirical estimator",
        "gibbs": "transfer-operator eigendata and the entropy/Lyapunov ratio",
    }
    for name, help_text in helps.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="dotted-key config file")
        cmd.add_argument("--seed", type=int, default=None, help="overrides sample.seed")
        cmd.add_argument("--out", type=Path, default=None, help="output directory")
        cmd.add_argument(
            "--format", choices=("csv", "json"), default=None, help="table output format"
        )
    sub.add_parser("gallery-list", help="list the built-in measure families")
    return parser


def _gallery_listing() -> str:
    lines = []
    for name in GALLERY_NAMES:
        fam = gallery(name)
        limit = "limit available" if fam.limit is not None else "no closed-form limit"
        lines.append(f"{name:24s} {limit}; {fam.note}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "gallery-list":
        print(_gallery_listing())
        return EXIT_OK

    try:
        raw: dict[str, str] = {}
        if args.config is not None:
            if not args.config.exists():
                raise ConfigError(f"--config: {args.config} does not exist")
            try:
                text = args.config.read_text()
            except (OSError, UnicodeDecodeError) as err:
                raise ConfigError(f"--config: {err}") from None
            raw = parse_config(text)
        if args.seed is not None:
            raw["sample.seed"] = str(args.seed)
        if args.out is not None:
            raw["out.dir"] = str(args.out)
        if args.format is not None:
            raw["out.format"] = args.format
        cfg = RunConfig(raw)
        out_dir = Path(cfg.get_str("out.dir", default="."))
        # the report is written only once the run is done: a file in the
        # way of out.dir is refused now
        blocked = [p for p in (out_dir, *out_dir.parents) if p.exists() and not p.is_dir()]
        if blocked:
            raise ConfigError(f"out.dir: {blocked[0]} is not a directory")
        fmt = cfg.get_str("out.format", default="csv", choices=("csv", "json"))
        seed = cfg.get_int("sample.seed", lo=0) if cfg.has("sample.seed") else None
        run = COMMANDS[args.command](cfg)
        cfg.check_read(args.command)
        body = run()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ReducibilityError, DegenerateSystemError) as err:
        print(f"irregular system: {err}", file=sys.stderr)
        return EXIT_IRREGULAR
    except ConvergenceFailure as err:
        print(f"non-convergence: {err}", file=sys.stderr)
        return EXIT_RUN_FAILED
    except (InvalidSystem, ValueError) as err:  # raised past the plan, so not the config's
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_RUN_FAILED

    # out.* keys steer where the report lands, not what it says; keeping them
    # out of the echoed config makes bodies byte-stable across output dirs
    analysis = RunConfig({k: v for k, v in cfg.raw.items() if not k.startswith("out.")})
    report = Report(
        args.command, analysis.digest(), dict(sorted(analysis.raw.items())), seed,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"), **body,
    )
    try:
        paths = report.write(out_dir, fmt)
    except OSError as err:
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_RUN_FAILED
    for key in sorted(report.results):
        value = report.results[key]
        if isinstance(value, (int, float, bool, str)) or value is None:
            print(f"{key} = {value}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    for path in paths:
        print(f"wrote {path}")
    if report.results.get("regular") is False:
        return EXIT_IRREGULAR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
