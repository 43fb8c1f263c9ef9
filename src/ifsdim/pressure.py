"""Topological pressure of derivative potentials and Bowen-equation roots.

The depth-n partition pressure of a system at exponent t is

    P_n(t) = (1/n) log sum_w |s_w'|^t        (w over admissible depth-n words)

evaluated twice, once with certified per-word suprema and once with infima,
giving an upper and a lower figure.  On a full shift both are rigorous
two-sided bounds for the limit pressure (sup-sums are submultiplicative,
inf-sums supermultiplicative); with a nontrivial incidence matrix only the
upper figure keeps that status and the lower one is a heuristic companion.
The gap between them is at most t * log(distortion bound) / depth.

The Hausdorff dimension of the limit set is the root of P(t) = 0.  Two
solvers are provided here:

* ``bowen_solve``          — Newton steps on the midpoint of the depth-n
                             pressures (exact for full-shift similitudes at
                             any depth), bracketed by the lower and upper;
* ``analytic_bowen_solve`` — for countable similitude families with a closed
                             form for log sum |a_i|^t, including the irregular
                             ones whose pressure jumps past zero without a
                             root; it bisects, as that form has no slope.

All roots come from ``_find_root``.  ``transfer.operator_bowen_solve`` finds
the zero of the log leading eigenvalue of a cylinder transfer operator with
the same Newton steps, its slope being minus the Lyapunov exponent.  At
depth 1 on a graph-directed similitude system the operator root is the
Perron root of the weighted incidence matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

import numpy as np

from .systems import SimilitudeFamily, SystemSpec, level_geometry

__all__ = [
    "ConvergenceFailure",
    "PressureEstimate",
    "BowenSolution",
    "ScanRow",
    "TruncationScan",
    "bowen_solve",
    "analytic_bowen_solve",
    "truncation_scan",
]

EXACT_ZERO = 1e-15  # |pressure| below this counts as an exact hit
IRREGULAR_RESIDUAL = 1e-4  # larger leftover pressure at the root => no root


class ConvergenceFailure(RuntimeError):
    """An iterative solve ran out of iterations before reaching tolerance,
    or its answer contradicts its own certificate."""


@dataclass(frozen=True)
class PressureEstimate:
    """Two-sided depth-n partition pressure at one exponent."""

    upper: float
    lower: float

    @property
    def value(self) -> float:
        return 0.5 * (self.upper + self.lower)

    @property
    def gap(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class BowenSolution:
    """Root of the pressure equation (or the spot where it jumps past zero).

    ``regular`` is False when the pressure never actually vanishes: the
    reported ``h`` is then the infimum of exponents with negative pressure
    and ``residual`` the (strictly negative) pressure value there.
    """

    h: float
    bracket: tuple[float, float]
    residual: float
    regular: bool
    depth: int
    iterations: int
    method: str  # "word" | "analytic" | "operator"
    gap: float = 0.0  # pressure bracket width at the root (word method)
    # the transfer.GibbsState evaluated at h (operator method)
    state: object = field(default=None, repr=False, compare=False)


def _level(system: SystemSpec, depth: int):
    lg = level_geometry(system, depth)  # raises on depth < 1
    if lg.count == 0:
        raise ValueError(f"no admissible words at depth {depth}")
    return lg


def _log_sum(a: np.ndarray, t: float) -> tuple[float, float]:
    """log sum_i exp(t a_i) and its t-derivative sum_i a_i w_i / sum_i w_i,
    for an ascending, non-empty a and t >= 0.

    t a is then ascending too, so its last entry is the maximum and the
    shifted terms w_i = exp(t a_i - max) come out ascending: the sum is
    accumulated in ascending order, independent of the order in which the
    words were enumerated.  The slope is summed by numpy rather than BLAS,
    so it does not depend on the BLAS thread count.
    """
    m = t * a[-1]
    w = np.exp(t * a - m)
    total = float(w.sum())
    return float(m) + math.log(total), float((w * a).sum()) / total


def _find_root(
    f: Callable[[float], Union[float, tuple[float, float]]],
    tol: float,
    max_iter: int,
    label: str,
) -> tuple[float, tuple[float, float], int]:
    """Find the sign change of a decreasing f on [0, inf); f may return +inf
    (counted as positive).  Returns (root, bracket, evaluations).

    The bracket starts at [0, hi], with hi the first of 1, 2, 4, ... where
    f <= 0, and shrinks to width <= tol.  An f that returns a bare value is
    bisected, and the root is the midpoint of the final bracket.  An f that
    returns ``(value, slope)`` is stepped by Newton from each evaluated point
    whenever the Newton point lies strictly inside the bracket, by the
    midpoint otherwise.  A Newton step shorter than tol/2 means the iterates
    have converged from one side, so the next evaluation lands tol/2 past the
    last one, on the other side, to close the bracket.  Both bracket ends are
    then evaluated points, and the root is the evaluated point with the
    smallest |f|.

    An evaluation with |f| < EXACT_ZERO is an exact hit and ends the search
    at that point.  f there is zero within its own rounding, taken to be
    under EXACT_ZERO, so the true root lies within
    (|f| + EXACT_ZERO) / |slope| of it to first order.  The bracket is that
    interval rounded outward, or the hit's two neighbouring floats when f
    has no slope.
    """
    evals = 0
    best = (math.inf, math.nan)  # (|f|, t) over the evaluated points

    def hit(t: float, value: float, slope: float | None):
        width = 0.0
        if slope and math.isfinite(slope):
            width = (abs(value) + EXACT_ZERO) / abs(slope)
        bracket = (math.nextafter(t - width, -math.inf), math.nextafter(t + width, math.inf))
        return t, bracket, evals

    def val(t: float) -> tuple[float, float | None]:
        nonlocal evals, best
        evals += 1
        if evals > max_iter:
            raise ConvergenceFailure(
                f"{label}: needs more than {max_iter} evaluations for tolerance {tol}"
            )
        out = f(t)
        value, slope = out if isinstance(out, tuple) else (out, None)
        if abs(value) < best[0]:
            best = (abs(value), t)
        return value, slope

    hi = 1.0
    fhi, slope = val(hi)
    has_slope = slope is not None
    while fhi > 0.0:
        if abs(fhi) < EXACT_ZERO:
            return hit(hi, fhi, slope)
        if hi > 2.0**40:
            raise ConvergenceFailure(f"{label}: pressure stays positive out to t = {hi}")
        hi *= 2.0
        fhi, slope = val(hi)
    if abs(fhi) < EXACT_ZERO:
        return hit(hi, fhi, slope)
    lo = 0.0
    t, ft = hi, fhi
    while hi - lo > tol:
        nxt = 0.5 * (lo + hi)
        if slope:
            step = -ft / slope
            if abs(step) <= 0.5 * tol:
                step = 0.5 * tol if ft > 0.0 else -0.5 * tol
            if lo < t + step < hi:
                nxt = t + step
        t = nxt
        ft, slope = val(t)
        if abs(ft) < EXACT_ZERO:
            return hit(t, ft, slope)
        if ft > 0.0:
            lo = t
        else:
            hi = t
    if has_slope:
        return best[1], (lo, hi), evals
    return 0.5 * (lo + hi), (lo, hi), evals


def bowen_solve(
    system: SystemSpec,
    depth: int = 12,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> BowenSolution:
    """Zero of the midpoint of the two-sided depth-n pressure, and a
    certified bracket around it.

    Three safeguarded Newton solves, on the level's log-derivatives sorted
    once: the midpoint pressure gives ``h``; the lower pressure alone gives
    ``bracket[0]``, its last exponent with positive pressure; the upper
    alone gives ``bracket[1]``, its last exponent with non-positive
    pressure, or 1 if a word's sup |s_w'| reaches 1 so that the upper
    pressure never vanishes.  An exact hit of either solve widens to the
    interval its rounding leaves (see ``_find_root``).  Both ends are
    rigorous on a full shift, only the upper one under an incidence matrix.
    ``max_iter`` bounds each solve and ``iterations`` counts all three.

    ``h`` is exact (up to tol) for full-shift similitude systems, where the
    three solves coincide; for distortion-bounded systems it sits within
    gap/(2 |dP/dt|) of the true Bowen root, with gap <= t log K / depth.
    The midpoint pressure lies between the other two, so an ``h`` outside
    the bracket is a numerical fault: ``ConvergenceFailure``.
    """
    lg = _level(system, depth)
    sup, inf = np.sort(lg.log_sup), np.sort(lg.log_inf)
    label = f"bowen_solve({system.label or 'system'})"
    estimates: dict[float, PressureEstimate] = {}

    def midpoint(t: float) -> tuple[float, float]:
        (upper, up_slope), (lower, low_slope) = _log_sum(sup, t), _log_sum(inf, t)
        est = estimates[t] = PressureEstimate(upper / depth, lower / depth)
        return est.value, 0.5 * (up_slope + low_slope) / depth

    def alone(a: np.ndarray) -> Callable[[float], tuple[float, ...]]:
        return lambda t: tuple(v / depth for v in _log_sum(a, t))

    h, _, evals = _find_root(midpoint, tol, max_iter, label)
    _, (lo, _), lower_evals = _find_root(alone(inf), tol, max_iter, f"{label} lower")
    if sup[-1] < 0.0:
        _, (_, hi), upper_evals = _find_root(alone(sup), tol, max_iter, f"{label} upper")
    else:  # a word's sup |s_w'| reaches 1, so only the line's dimension bounds h
        hi, upper_evals = 1.0, 0
    if not lo <= h <= hi:
        raise ConvergenceFailure(f"{label}: root {h!r} outside its certified bracket [{lo!r}, {hi!r}]")
    final = estimates[h]
    return BowenSolution(
        h=h,
        bracket=(lo, hi),
        residual=final.value,
        regular=True,
        depth=depth,
        iterations=evals + lower_evals + upper_evals,
        method="word",
        gap=final.gap,
    )


# ---------------------------------------------------------------------------
# closed-form path for countable similitude families


def analytic_bowen_solve(
    family: SimilitudeFamily,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> BowenSolution:
    """Root of the full-family pressure, or its jump point when no root
    exists.  Infinite pressure values are handled as 'positive' so the
    bisection also localizes the finiteness threshold of irregular families,
    which come back with regular=False and a negative residual.  The
    pressure is ``family.log_mass``, log sum_i |a_i|^t over the whole
    family; a family without one raises ``ValueError``.
    """
    if family.log_mass is None:
        raise ValueError(f"family {family.name!r} carries no closed-form mass")
    root, bracket, evals = _find_root(family.log_mass, tol, max_iter, f"analytic({family.name})")
    lo, hi = bracket
    left = family.log_mass(lo)
    residual = family.log_mass(hi)
    regular = math.isfinite(left) and abs(residual) <= IRREGULAR_RESIDUAL
    return BowenSolution(
        h=root,
        bracket=bracket,
        residual=residual,
        regular=regular,
        depth=0,
        iterations=evals,
        method="analytic",
    )


# ---------------------------------------------------------------------------
# truncation ladders


@dataclass(frozen=True)
class ScanRow:
    """One truncation level of a scan: the word root ``h`` and its certified
    bracket, as :func:`bowen_solve` gives them; all NaN when the solve
    failed."""

    level: int
    h: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    gap: float
    regular: bool
    depth: int
    note: str = ""


@dataclass(frozen=True)
class TruncationScan:
    """Scan rows plus, when the source family has a closed-form pressure,
    the dimension of the full countable system the levels increase toward."""

    rows: tuple[ScanRow, ...]
    limit: float | None = None
    limit_regular: bool | None = None


def truncation_scan(
    source: Union[SimilitudeFamily, Callable[[int], SystemSpec]],
    levels: Iterable[int],
    depth: Union[int, Callable[[int], int], None] = None,
    tol: float = 1e-10,
) -> TruncationScan:
    """Bowen roots of the finite sub-systems at each level.

    Failed levels are recorded (h NaN, note set) and the scan moves on.
    Similitude truncations default to depth 1, where the partition pressure
    is already exact; everything else defaults to depth 12.  A callable
    depth receives the level, so wide alphabets can trade refinement depth
    for branching factor.
    """
    levels = list(levels)
    if any(n < 2 for n in levels):
        raise ValueError("truncation levels must be >= 2")
    rows: list[ScanRow] = []
    for n in levels:
        d = 0
        try:
            system = source.truncate(n) if isinstance(source, SimilitudeFamily) else source(n)
            if callable(depth):
                d = depth(n)
            elif depth is not None:
                d = depth
            else:
                d = 1 if system.is_similitude() else 12
            sol = bowen_solve(system, depth=d, tol=tol)
            rows.append(
                ScanRow(
                    level=n,
                    h=sol.h,
                    bracket_lo=sol.bracket[0],
                    bracket_hi=sol.bracket[1],
                    residual=sol.residual,
                    gap=sol.gap,
                    regular=sol.regular,
                    depth=sol.depth,
                )
            )
        except (ConvergenceFailure, ValueError) as err:
            rows.append(
                ScanRow(
                    level=n,
                    h=math.nan,
                    bracket_lo=math.nan,
                    bracket_hi=math.nan,
                    residual=math.nan,
                    gap=math.nan,
                    regular=False,
                    depth=d,
                    note=str(err),
                )
            )
    limit = limit_regular = None
    if isinstance(source, SimilitudeFamily) and source.log_mass is not None:
        lim_sol = analytic_bowen_solve(source)
        limit, limit_regular = lim_sol.h, lim_sol.regular
    return TruncationScan(rows=tuple(rows), limit=limit, limit_regular=limit_regular)
