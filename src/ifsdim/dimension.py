"""Empirical dimension estimators for measures on the line.

Three complementary probes: the correlation integral of a sample cloud
(slope of ``log C(r)`` against ``log r``), per-point logarithmic density
fields with quantile bounds, and a left-interval flatness detector that
certifies vanishing correlation dimension.  None of these estimate the
Hausdorff-type quantities directly — for system-backed measures those are
reported through the pressure/ratio pathway, and otherwise only bracketed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .measures import CylinderMeasure, LineMeasure
from .systems import level_images

__all__ = [
    "CorrelationCurve",
    "DensityField",
    "FlatnessCurve",
    "ScalingBounds",
    "YoungCriterion",
    "consistency_report",
    "correlation_curve",
    "density_field",
    "flatness_detector",
    "radius_grid",
    "scaling_quantile_bounds",
    "young_criterion",
]

# ---------------------------------------------------------------------------
# correlation integral


@dataclass(frozen=True, eq=False)
class CorrelationCurve:
    """Pair-correlation integral C(r) on a geometric radius grid.

    ``values[j]`` counts ordered pairs (diagonal included) at distance at
    most ``radii[j]``, divided by N^2 — so the curve starts no lower than
    1/N and never exceeds 1.  ``slope`` is the least-squares slope of
    log C against log r over ``fit_window``; ``degenerate`` marks clouds
    whose points all coincide (slope pinned to zero).
    """

    radii: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    fit_window: tuple[float, float]
    slope: float
    slope_stderr: float
    degenerate: bool = False


def _query_rank_sum(runs: np.ndarray) -> int:
    """Positions of the queries, the second half of ``runs``, summed over the
    stable merge of ``runs`` (keys, then queries, each half sorted): ties
    keep the keys first, so this is n(n-1)/2 + sum_i #{k : keys_k <= queries_i}."""
    n = runs.size // 2
    perm = np.argsort(runs, kind="stable")
    is_query = perm >= n
    del perm  # one permutation alive at a time
    return int(np.flatnonzero(is_query).sum())


def _round_down_sum(x: np.ndarray, r: float, out: np.ndarray) -> None:
    """``out`` = the largest float at or below x + r, exactly: fl(x + r),
    stepped one float down where TwoSum shows it rounded above x + r.  For
    sorted ``x`` the sums are sorted, so the negative ones are a prefix."""
    np.add(x, r, out=out)
    r_virtual = out - x
    x_err = out - r_virtual
    np.subtract(x, x_err, out=x_err)
    r_err = np.subtract(r, r_virtual, out=r_virtual)
    above = np.add(x_err, r_err, out=x_err) < 0.0  # the exact x + r - out
    del r_virtual, x_err, r_err
    # one float toward -inf: the bits of a positive float drop by one, those
    # of a negative float rise by one (a sum that rounded up is never zero)
    bits = out.view(np.int64)
    neg = int(np.searchsorted(out, 0.0))
    bits[:neg] += above[:neg]
    bits[neg:] -= above[neg:]


def radius_grid(
    r_min: float, r_max: float, count: int, fit_window: Optional[tuple[float, float]] = None
) -> tuple[np.ndarray, tuple[float, float], np.ndarray]:
    """The geometric radius grid, the fit window and the grid's mask in it.

    The default fit window trims half a decade off both ends of the grid
    (edge radii are dominated by discreteness and saturation).  A window
    holding fewer than two grid radii raises ``ValueError``.
    """
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if count < 2:
        raise ValueError(f"need at least two radii, got {count}")
    radii = np.geomspace(r_min, r_max, count)
    if fit_window is None:
        half_decade = math.sqrt(10.0)
        fit_window = (r_min * half_decade, r_max / half_decade)
    lo_w, hi_w = fit_window
    mask = (radii >= lo_w) & (radii <= hi_w)
    if mask.sum() < 2:
        raise ValueError(
            f"fit window ({lo_w:.3g}, {hi_w:.3g}) holds fewer than two grid radii"
        )
    return radii, fit_window, mask


def correlation_curve(
    cloud: np.ndarray,
    r_min: float,
    r_max: float,
    count: int = 24,
    fit_window: Optional[tuple[float, float]] = None,
) -> CorrelationCurve:
    """Exact pair counts, then a log-log slope fit over the fit window of
    :func:`radius_grid`.

    The ordered pairs at distance at most r number 2 S - n^2, with S the sum
    over points x of #{y : y <= x + r}: the pairs with y - x > r and those
    with x - y > r are equally many.  S comes from one stable merge of the
    sorted points with the sorted queries x + r, each rounded down to the
    largest float at or below the real sum (TwoSum finds the ones that
    rounded up), so every count is that of |x - y| <= r in real arithmetic.

    A cloud of fewer than a few hundred points gives a statistically
    meaningless slope; the hard floor here is two points.
    """
    points = np.asarray(cloud, dtype=float)
    n = points.size
    if n < 2:
        raise ValueError(f"need at least two points, got {n}")
    radii, fit_window, mask = radius_grid(r_min, r_max, count, fit_window)
    counts = np.empty(count)
    # runs holds the sorted points, then their rounded-down shifts
    runs = np.concatenate((np.sort(points), np.empty(n)))
    pts, queries = runs[:n], runs[n:]
    for j, r in enumerate(radii):
        _round_down_sum(pts, r, queries)
        counts[j] = float(2 * _query_rank_sum(runs) - n * (2 * n - 1))
    values = counts / float(n) ** 2
    if pts[-1] == pts[0]:
        return CorrelationCurve(radii, values, fit_window, 0.0, 0.0, degenerate=True)

    x = np.log(radii[mask])
    y = np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = x.size - 2
    if dof > 0:
        var = float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum())
        stderr = math.sqrt(var)
    else:
        stderr = 0.0
    return CorrelationCurve(radii, values, fit_window, float(slope), stderr)


# ---------------------------------------------------------------------------
# logarithmic density fields


@dataclass(frozen=True, eq=False)
class DensityField:
    """Per-point bounds on log nu(B(x,r)) / log r over a radius ladder.

    ``lower``/``upper`` are the min/max of the ratio over the ladder, with
    cylinder-bracketing slack folded in when the measure is only known on
    cylinders.  ``inside`` marks points whose largest ball carries positive
    mass; the others are excluded from all summaries.
    """

    points: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    inside: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)


def _dyadic_ladder(r_min: float, r_max: float) -> np.ndarray:
    if not (0.0 < r_min < r_max < 1.0):
        raise ValueError(
            f"radii must satisfy 0 < r_min < r_max < 1, got ({r_min}, {r_max})"
        )
    steps = int(math.floor(math.log2(r_max / r_min))) + 1
    return r_max * 0.5 ** np.arange(steps)


def _cylinder_interval_table(measure: CylinderMeasure):
    """Deepest-level image intervals sorted by position, with mass prefix sums."""
    image_lo, image_hi = level_images(measure.system, measure.depth)
    masses = measure.level(measure.depth)
    order = np.argsort(image_lo)
    los = image_lo[order]
    his = image_hi[order]
    pref = np.concatenate([[0.0], np.cumsum(masses[order])])
    return los, his, pref


def density_field(
    measure: Union[LineMeasure, CylinderMeasure],
    points: np.ndarray,
    r_min: float,
    r_max: float,
) -> DensityField:
    """Evaluate the density ratio ladder at each point.

    LineMeasure masses are exact; CylinderMeasure balls are bracketed by
    the deepest stored cylinder level (inner: cylinders contained in the
    ball; outer: cylinders meeting it), and the bracket is folded into the
    [lower, upper] estimates.  Ladder radii finer than the cylinder
    resolution contribute nothing to the bracket and are skipped.
    """
    pts = np.asarray(points, dtype=float)
    radii = _dyadic_ladder(r_min, r_max)
    log_r = np.log(radii)
    cylinders = isinstance(measure, CylinderMeasure)
    if cylinders:
        los, his, pref = _cylinder_interval_table(measure)
    order = np.argsort(pts, kind="stable")  # sorted queries search faster
    at = pts[order]
    # the least and the greatest ratio over the ladder, NaN where no radius
    # gives one; np.fmin and np.fmax skip NaN and warn about nothing, so
    # the field leaves the process-global warning filters alone
    low, high = np.full((2, pts.size), np.nan)
    for j, r in enumerate(radii):
        left, right = at - r, at + r
        if cylinders:
            outer = pref[np.searchsorted(los, right, side="right")] - pref[
                np.searchsorted(his, left, side="left")
            ]
            inner = pref[np.searchsorted(his, right, side="right")] - pref[
                np.searchsorted(los, left, side="left")
            ]
            inner = np.maximum(inner, 0.0)
        else:
            outer = inner = measure.mass_of_interval(left, right)
        with np.errstate(divide="ignore"):
            ratio_lo = np.where(outer > 0, np.log(outer) / log_r[j], np.nan)
            ratio_hi = np.where(inner > 0, np.log(inner) / log_r[j], np.nan)
        if j == 0:
            inside = np.empty(pts.size, dtype=bool)
            inside[order] = ~np.isnan(ratio_lo)
        np.fmin(low, ratio_lo, out=low)
        np.fmax(high, ratio_hi, out=high)

    lower, upper = np.empty((2, pts.size))
    lower[order], upper[order] = low, high
    lower[~inside] = upper[~inside] = 0.0
    lower = np.maximum(np.where(np.isnan(lower), 0.0, lower), 0.0)
    upper = np.maximum(np.where(np.isnan(upper), np.inf, upper), lower)
    return DensityField(points=pts, lower=lower, upper=upper, inside=inside, radii=radii)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a NaN-free array, bit for bit: the same partition,
    then the mean of the middle one or two values.  ``np.median`` itself
    imports ``numpy.ma`` on first use, tens of milliseconds."""
    n = values.size
    half = n // 2
    part = np.partition(values, [half - 1, half, -1] if n % 2 == 0 else [half, -1])
    return float(np.mean(part[half - 1 + n % 2 : half + 1]))


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of a NaN-free array by numpy's default
    "linear" method, bit for bit, without its ``numpy.ma`` import: virtual
    index (n - 1) q, the same partition, and numpy's ``_lerp`` between the
    neighbouring order statistics."""
    n = values.size
    virtual = (n - 1) * q
    lo = math.floor(virtual)
    lo, hi = (-1, -1) if virtual >= n - 1 else (lo, lo + 1)
    gamma = virtual - lo
    part = np.partition(values, sorted({0, -1, lo, hi}))
    a, b = float(part[lo]), float(part[hi])
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


YOUNG_BAND = 0.05  # half-width of the band around c that counts as pinned


@dataclass(frozen=True)
class YoungCriterion:
    """Empirical exact-dimensionality check: one exponent carries the mass."""

    c: float
    fraction: float


def young_criterion(fld: DensityField) -> YoungCriterion:
    """Median midpoint exponent and the mass fraction within YOUNG_BAND of it.

    A fraction near one says the per-point exponent intervals concentrate
    at a single value c — the empirical shadow of exact dimensionality; a
    visibly smaller fraction flags multi-scale (bimodal or worse) behaviour.
    """
    mask = fld.inside
    if not mask.any():
        raise ValueError("density field has no points inside the support")
    lower, upper = fld.lower[mask], fld.upper[mask]
    mid = 0.5 * (lower + upper)
    c = _median(mid)
    hit = (lower >= c - YOUNG_BAND) & (upper <= c + YOUNG_BAND)
    return YoungCriterion(c=c, fraction=float(hit.mean()))


@dataclass(frozen=True)
class ScalingBounds:
    """Quantile proxies for the essential range of local exponents."""

    lower: float
    upper: float


SCALING_QUANTILE = 0.05  # tail mass cut from each end of the exponent range


def scaling_quantile_bounds(fld: DensityField) -> ScalingBounds:
    """Robust [gamma_lower, gamma_upper] bracket from the field quantiles.

    The q-quantile of the per-point lower exponents bounds the dimension
    from below, the (1-q)-quantile of the uppers from above, with
    q = SCALING_QUANTILE, a robustness choice.
    """
    quantile = SCALING_QUANTILE
    mask = fld.inside
    if not mask.any():
        raise ValueError("density field has no points inside the support")
    finite_upper = fld.upper[mask]
    finite_upper = finite_upper[np.isfinite(finite_upper)]
    upper = _quantile(finite_upper, 1.0 - quantile) if finite_upper.size else math.inf
    lower = _quantile(fld.lower[mask], quantile)
    return ScalingBounds(lower=lower, upper=max(upper, lower))


# ---------------------------------------------------------------------------
# flatness detector


@dataclass(frozen=True, eq=False)
class FlatnessCurve:
    """Certified left-interval exponents e(r); near-zero means flat.

    For each radius the detector maximises, over candidate cut points s,
    the product inf_{x in [0,s]} nu(B(x,r)) * nu([0,s]), and reports
    e(r) = log(bound)/log(r).  Exponents sliding to zero certify that the
    correlation dimension (and its modified variant) vanish.
    """

    radii: np.ndarray = field(repr=False)
    exponents: np.ndarray = field(repr=False)
    bounds: np.ndarray = field(repr=False)
    fired: bool


FLATNESS_THRESHOLD = 0.25  # smallest-radius exponent at which flatness fires


def flatness_detector(measure: LineMeasure, radii: Sequence[float]) -> FlatnessCurve:
    """Scan a radius ladder for mass concentration near the left endpoint.

    Candidate cut points are the measure's own geometry (piece edges, atom
    locations, the full interval) plus r/2 for each radius — enough to
    realise the optimal cut for staircase-type measures without searching a
    continuum.  ``fired`` reports whether the exponent at the smallest
    radius dropped to ``FLATNESS_THRESHOLD`` or below.
    """
    lo_supp, hi_supp = measure.support_bounds
    if lo_supp < 0.0 or hi_supp > 1.0:
        raise ValueError(
            f"measure must be supported in [0, 1], found [{lo_supp}, {hi_supp}]"
        )
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or not ((radii > 0.0) & (radii < 1.0)).all():
        raise ValueError("radii must be a nonempty ladder inside (0, 1)")

    # the open-ball mass nu((x - r, x + r)) is piecewise affine in x, with
    # breakpoints where x +- r crosses an atom or piece edge; so its infimum
    # over [0, s] is a running minimum over 0, the cuts and the breakpoints
    edges = np.concatenate((measure.atoms[:, 0], measure.pieces[:, :2].ravel()))
    fixed = np.unique(np.append(edges[edges > 0.0], 1.0))
    left = measure.mass_of_interval(0.0, fixed)
    bounds = np.empty(radii.size)
    for j, r in enumerate(radii):
        cuts = np.append(fixed, r / 2.0)
        shifted = np.concatenate((edges - r, edges + r))
        grid = np.concatenate(([0.0], cuts, shifted[(shifted >= 0.0) & (shifted <= 1.0)]))
        grid.sort(kind="stable")  # a merge of its few sorted runs
        ball = np.minimum.accumulate(measure.mass_of_interval(grid - r, grid + r, closed=False))
        inf_ball = ball[np.searchsorted(grid, cuts, side="right") - 1]
        bounds[j] = (inf_ball * np.append(left, measure.mass_of_interval(0.0, r / 2.0))).max()
    with np.errstate(divide="ignore"):
        exponents = np.where(bounds > 0, np.log(bounds) / np.log(radii), np.inf)
    exponents = np.maximum(exponents, 0.0)
    tightest = int(np.argmin(radii))
    return FlatnessCurve(
        radii=radii,
        exponents=exponents,
        bounds=bounds,
        fired=bool(exponents[tightest] <= FLATNESS_THRESHOLD),
    )


# ---------------------------------------------------------------------------
# report


CONSISTENCY_TOLERANCE = 0.05  # how far two estimates may differ and still agree


def consistency_report(
    bowen_root: Optional[float] = None,
    ratio: Optional[float] = None,
    correlation_slope: Optional[float] = None,
    gamma_lower: Optional[float] = None,
    gamma_upper: Optional[float] = None,
) -> dict:
    """Side-by-side dimension estimates with mutual-consistency flags.

    ``bowen_root`` and ``ratio`` come from the collocated transfer operator
    (system-backed measures only); ``correlation_slope`` from samples;
    ``gamma_lower``/``gamma_upper`` from the density-field quantiles.  Each
    pair of given estimates is flagged as agreeing within
    CONSISTENCY_TOLERANCE, and each estimate as lying within it of the
    bracket.  The correlation estimate is always a lower-bound-style
    quantity for the modified variant, so the report records bounds, never
    equalities.  A crossed bracket raises ``ValueError``.
    """
    bracket = gamma_lower is not None and gamma_upper is not None
    if bracket and gamma_lower > gamma_upper + 1e-12:
        raise ValueError(f"gamma_lower={gamma_lower} exceeds gamma_upper={gamma_upper}")
    tol = CONSISTENCY_TOLERANCE
    pointwise = {"bowen_root": bowen_root, "ratio": ratio, "correlation_slope": correlation_slope}
    given = {k: v for k, v in pointwise.items() if v is not None}
    flags = {f"{a}~{b}": abs(given[a] - given[b]) <= tol for a, b in itertools.combinations(given, 2)}
    if bracket:
        flags.update({f"{k}~bracket": gamma_lower - tol <= v <= gamma_upper + tol for k, v in given.items()})
    return {
        **pointwise,
        "gamma_lower": gamma_lower,
        "gamma_upper": gamma_upper,
        "tolerance": tol,
        "flags": flags,
        "consistent": all(flags.values()),
    }
