"""Contracting map systems on [0, 1].

A system is a finite collection of injective contractions of [0, 1] into
itself, together with an incidence matrix saying which map may follow
which; a plain IFS has the all-ones matrix, the full shift, and a
graph-directed system (CGDMS) here is [0, 1] with a nontrivial incidence.
Two map kinds are supported:

* ``similitude``: x -> a*x + b with 0 < |a| < 1,
* ``moebius-1d``: x -> 1/(q+x) with integer q >= 1
  (|derivative| = 1/(q+x)^2, the continued-fraction branches).

A system holds its branches as one (m, 4) array of coefficient rows
(a, b, c, d), row e acting as x -> (a x + b)/(c x + d) with |derivative|
|ad - bc| / (c x + d)^2.  A whole level of admissible words is read in two
ways, each built afresh for its one reader: ``level_images`` gives the
words' image intervals (the density table, the similitude mass stages) and
``level_log_derivatives`` their certified derivative bounds (the pressure
bracket, the similitude mass stages).  A word's composite is again such a
map, so its |derivative| is monotone on [0, 1] and its sup and inf are the
values at 0 and 1, evaluated exactly by the chain rule.  Their logs are
padded outward by ``|log g| + 4 * depth`` units of roundoff, except on
similitude systems, whose derivatives are constant products of ratios.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "InvalidSystem",
    "SeparationError",
    "SystemSpec",
    "MapFamily",
    "ensure_separation",
    "level_images",
    "level_log_derivatives",
    "golden_family",
    "borderline_family",
    "cantor_system",
    "continued_fraction_family",
]

_ROUNDOFF = 2.0**-53  # unit roundoff of float64


class InvalidSystem(ValueError):
    """The description does not define a usable contracting system."""


class SeparationError(InvalidSystem):
    """Depth-1 images fail the disjoint-interior separation condition."""


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A validated map system on [0, 1].

    ``coefficients`` is a read-only (m, 4) float array whose row e holds the
    (a, b, c, d) of map e: (a, b, 0, 1) with 0 < |a| < 1 for a similitude,
    (0, 1, 1, q) with integer q >= 1 for a moebius-1d branch.
    ``incidence`` is a read-only m x m bool array: incidence[i, j] says
    whether map j may follow map i.  It is built from any square array-like
    of 0/1 entries, copied as the coefficients are, so the caller's array
    cannot change the system; without one it is the full shift, one True
    broadcast to m x m.  A given incidence must be irreducible, every map
    reaching every map through admissible words, as a CGDMS's incidence is
    (for a finite alphabet, finitely irreducible is irreducible).
    """

    coefficients: np.ndarray
    incidence: Optional[np.ndarray] = None
    label: str = ""

    def __post_init__(self) -> None:
        coefficients = np.array(self.coefficients, dtype=float)  # a copy the caller cannot change
        coefficients.setflags(write=False)
        if coefficients.ndim != 2 or coefficients.shape[1] != 4:
            raise InvalidSystem("coefficients must be an (m, 4) array of rows (a, b, c, d)")
        m = len(coefficients)
        if m < 2:
            raise InvalidSystem("a system needs at least two maps")
        object.__setattr__(self, "coefficients", coefficients)

        a, b, c, d = coefficients.T
        similitude, moebius = (c == 0.0) & (d == 1.0), (a == 0.0) & (b == 1.0) & (c == 1.0)
        ratio_ok, q_ok = (0.0 < abs(a)) & (abs(a) < 1.0), (d >= 1.0) & (d == np.floor(d))
        for bad, message in (
            (~np.isfinite(coefficients).all(axis=1), "coefficients must be finite, got ({a}, {b}, {c}, {d})"),
            (~(similitude | moebius), "unknown map kind, coefficients ({a}, {b}, {c}, {d})"),
            (similitude & ~ratio_ok, "similitude ratio must satisfy 0 < |a| < 1, got {a}"),
            (moebius & ~q_ok, "moebius parameter must be an integer >= 1, got {d:g}"),
        ):
            if bad.any():  # name the first offending map
                e = int(np.argmax(bad))
                raise InvalidSystem(f"map {e}: " + message.format(a=a[e], b=b[e], c=c[e], d=d[e]))

        if self.incidence is None:  # one entry, broadcast: a level-n truncation stores no n x n array
            object.__setattr__(self, "incidence", np.broadcast_to(True, (m, m)))
            return
        try:
            entries = np.asarray(self.incidence)
        except ValueError:  # ragged rows
            raise InvalidSystem("incidence matrix must be square") from None
        if entries.size == 0:
            raise InvalidSystem("incidence matrix must be non-empty")
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidSystem("incidence matrix must be square")
        incidence = entries == 1  # a new bool array, which the caller cannot change
        if not (incidence | (entries == 0)).all():
            raise InvalidSystem("incidence entries must be 0 or 1")
        if len(incidence) != m:
            raise InvalidSystem("incidence size must match the number of maps")
        # irreducible: map 0 reaches every map and every map reaches map 0,
        # each found by growing the reached set until it stops growing
        sweeps = ((incidence, "map 0 does not reach map {}"), (incidence.T, "map {} does not reach map 0"))
        for edges, pair in sweeps:
            reached, grown = np.zeros(m, dtype=bool), np.arange(m) == 0
            while grown.sum() > reached.sum():
                reached, grown = grown, grown | edges[grown].any(axis=0)
            if not reached.all():
                raise InvalidSystem("incidence is not irreducible: " + pair.format(int(np.argmin(reached))))
        incidence.setflags(write=False)
        object.__setattr__(self, "incidence", incidence)

    @property
    def alphabet_size(self) -> int:
        return len(self.coefficients)

    def is_similitude(self) -> bool:
        return not self.coefficients[:, 2].any()


# ---------------------------------------------------------------------------
# bulk geometry: all admissible words of one depth at once


def _prepend(system: SystemSpec, depth: int, images: bool) -> np.ndarray:
    """Every admissible depth-n word's images of the endpoints 0 and 1 if
    ``images``, else its |s_w'| there, as one (W, 2) array in lexicographic
    order.  One prepend pass carries the images; the derivatives, running
    products of positive factors, read those of the level before, so the
    last level's images are formed only for ``images``, and derivatives
    never are for it.  Under an incidence each prepend's admissible rows
    are copied out."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    allowed = system.incidence
    # the coefficients as (m, 1, 1) columns: row e of each (m, W, 2) result
    # is map e applied to the W words' endpoint values
    a, b, c, d = system.coefficients.T[:, :, None, None]
    det = np.abs(a * d - b * c)

    def prepend(x: np.ndarray, g: np.ndarray | float | None, last: bool) -> tuple:
        # the ufuncs of (a x + b) / den and g * (det / den**2) (numpy squares
        # as den * den; g = 1.0 on the first level is an exact product), in
        # fresh arrays, each formed only where it is read; symbol outermost,
        # the (m, W) order is already lexicographic
        den = c * x
        den += d
        y = None
        if images or not last:
            y = a * x
            y += b
            y = np.divide(y, den, out=y).reshape(-1, 2)
        if g is not None:
            np.multiply(den, den, out=den)
            np.divide(det, den, out=den)
            g = np.multiply(g, den, out=den).reshape(-1, 2)
        return y, g

    y, g = prepend(np.array((0.0, 1.0)), None if images else 1.0, depth == 1)
    first = np.arange(system.alphabet_size)
    full = depth > 1 and allowed.all()
    for level in range(2, depth + 1):
        y, g = prepend(y, g, level == depth)
        if not full:  # e goes before the words whose first symbol may follow it
            keep = np.flatnonzero(allowed[:, first])
            first = keep // len(first)
            y, g = (v if v is None else v.take(keep, axis=0) for v in (y, g))
    return y if images else g


def level_images(system: SystemSpec, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact image intervals ``(image_lo, image_hi)`` of all admissible
    depth-n words, in lexicographic order.  Under the full shift of two
    maps they peak at 40 bytes per word: the last prepend forms the (W, 2)
    images beside their denominators and the level before, and the results
    go into one (2, W) array while the images are read."""
    y = _prepend(system, depth, images=True)
    image_lo, image_hi = np.empty((2, len(y)))
    np.minimum(y[:, 0], y[:, 1], out=image_lo)
    np.maximum(y[:, 0], y[:, 1], out=image_hi)
    return image_lo, image_hi


def level_log_derivatives(system: SystemSpec, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds ``(log_sup, log_inf)`` of log |s_w'| over [0, 1] for
    all admissible depth-n words, in lexicographic order, in fresh rows the
    caller may sort in place.  The composite s_w has a matrix M_w, so
    |s_w'(x)| = |det M_w| / (c_w x + d_w)^2 is monotone on [0, 1] and its
    endpoint values are its sup and inf.  Under the full shift the rows
    peak at 32 bytes per word: the last prepend forms one (W, 2) array and
    no images, and the results go into one (2, W) array while it is read."""
    g = _prepend(system, depth, images=False)
    # Outward pad in log space: |log g| roundoffs cover the log's own
    # rounding (half an ulp), 4 per composition step the rounding of the
    # endpoint images and of the derivative products; against exact rational
    # values the error beyond the log's rounding stays under one per step.
    # A similitude system's derivatives are products of ratios, reported as
    # computed (floating-point identity), so they keep sup == inf.
    # Extremes of the two endpoint columns, taken elementwise: a reduction
    # along the length-2 axis costs about 75 times as much.
    roundoff = 0.0 if system.is_similitude() else _ROUNDOFF
    log_sup, log_inf = np.empty((2, len(g)))
    np.maximum(g[:, 0], g[:, 1], out=log_sup)
    np.minimum(g[:, 0], g[:, 1], out=log_inf)
    del g
    np.log(log_sup, out=log_sup)
    np.log(log_inf, out=log_inf)
    log_sup += roundoff * (np.abs(log_sup) + 4 * depth)
    log_inf -= roundoff * (np.abs(log_inf) + 4 * depth)
    return log_sup, log_inf


# ---------------------------------------------------------------------------
# separation


def ensure_separation(system: SystemSpec) -> None:
    """Raise SeparationError, naming the first offending map or pair, unless
    every depth-1 image stays in [0, 1] and the images have pairwise
    disjoint interiors."""
    a, b, c, d = system.coefficients.T
    y0, y1 = ((a * x + b) / (c * x + d) for x in (0.0, 1.0))
    lo, hi = np.minimum(y0, y1), np.maximum(y0, y1)
    out = (lo < -1e-12) | (hi > 1.0 + 1e-12)
    if out.any():
        e = int(np.argmax(out))
        raise SeparationError(f"map {e} image [{lo[e]}, {hi[e]}] leaves [0, 1]")
    order = np.lexsort((hi, lo))  # the images sorted by (lo, hi), ties in map order
    e1, e2 = order[:-1], order[1:]
    bad = np.flatnonzero(lo[e2] < hi[e1] - 1e-12)
    if bad.size:
        k = bad[0]
        raise SeparationError(
            f"images of maps {e1[k]} and {e2[k]} overlap ({lo[e2[k]]} < {hi[e1[k]]})"
        )


# ---------------------------------------------------------------------------
# named families


@dataclass(frozen=True)
class MapFamily:
    """A countable family of branch maps on [0, 1] under the full shift.

    ``row(i)`` gives the coefficients (a, b, c, d) of map i, i = 1, 2, ...,
    as a ``SystemSpec`` row; every map of a family is of one kind.
    ``truncate(n)`` is the finite sub-system on the first n maps.
    ``log_mass(t)``, on a similitude family, is the analytic log of
    sum_{i>=1} |a_i|^t (math.inf when the series diverges); it powers the
    exact pressure path for infinite systems.
    """

    name: str
    row: Callable[[int], tuple[float, float, float, float]] = field(compare=False)
    log_mass: Optional[Callable[[float], float]] = field(compare=False, default=None)
    _table: list = field(default_factory=list, init=False, repr=False, compare=False)

    def coefficients(self, n: int) -> np.ndarray:
        """Read-only rows of maps 1..n, from a table that grows by doubling,
        so ``row`` runs once per map of the family, not once per map of each
        truncation."""
        table = self._table[0] if self._table else np.empty((0, 4))
        if len(table) < n:
            new = range(len(table) + 1, max(n, 2 * len(table)) + 1)
            table = np.concatenate((table, [self.row(i) for i in new]))
            table.setflags(write=False)
            self._table[:] = [table]
        return table[:n]

    def truncate(self, n: int) -> SystemSpec:
        if n < 2:
            raise ValueError(f"truncation level must be >= 2, got {n}")
        return SystemSpec(self.coefficients(n), label=f"{self.name}[:{n}]")


@functools.lru_cache(maxsize=None)
def golden_family() -> MapFamily:
    """Geometric ratios a_i = 2^-(i+1), images packed left to right with a
    gap equal to each image, so everything sits in [0, 1] with room to spare.
    The full family's Bowen root is log((1+sqrt 5)/2)/log 2."""

    def log_mass(t: float) -> float:
        # sum_{i>=1} 2^(-(i+1)t) = x^2/(1-x) with x = 2^-t, divergent at t <= 0
        if t <= 0.0:
            return math.inf
        x = 2.0 ** (-t)
        return 2.0 * math.log(x) - math.log1p(-x)

    return MapFamily(
        name="golden",
        row=lambda i: (2.0 ** (-(i + 1)), 1.0 - 2.0 ** (-(i - 1)), 0.0, 1.0),
        log_mass=log_mass,
    )


@functools.lru_cache(maxsize=None)
def borderline_family() -> MapFamily:
    """A family whose pressure never crosses zero: a_i = (c/(i log^2(i+1)))^2.

    The mass series sum a_i^t diverges for t < 1/2 and at t = 1/2 sums to
    c * sum 1/(i log^2(i+1)) < 1 by choice of c, so the pressure jumps from
    +inf straight to a negative value — there is no Bowen root.
    """
    total = _borderline_base_sum()
    c = 0.5 / total  # pressure at the finiteness threshold is log(1/2)

    def log_mass(t: float) -> float:
        if t < 0.5:
            return math.inf
        # sum_i (c / (i log^2(i+1)))^(2t), numerically with an integral tail
        s = 2.0 * t
        n = 200_000
        i = np.arange(1, n + 1, dtype=float)
        terms = (c / (i * np.log(i + 1) ** 2)) ** s
        head = float(np.sort(terms).sum())
        # tail: integral_n^inf (c/(x log^2 x))^s dx, crude upper bound
        if s > 1.0:
            tail = (c / math.log(n) ** 2) ** s * n ** (1.0 - s) / (s - 1.0)
        else:  # s == 1: integral of c/(x log^2 x) = c/log(n)
            tail = c / math.log(n)
        return math.log(head + tail)

    # slot for map i is [1 - 1/i, 1 - 1/(i+1)), width 1/(i(i+1));
    # the ratios decay like i^-2 / log^4 i so every image fits its slot
    return MapFamily(
        name="borderline",
        row=lambda i: ((c / (i * math.log(i + 1) ** 2)) ** 2, 1.0 - 1.0 / i, 0.0, 1.0),
        log_mass=log_mass,
    )


@functools.lru_cache(maxsize=None)
def _borderline_base_sum() -> float:
    i = np.arange(1, 200_001, dtype=float)
    head = float(np.sort(1.0 / (i * np.log(i + 1) ** 2)).sum())
    return head + 1.0 / math.log(200_000.0)


@functools.lru_cache(maxsize=None)
def continued_fraction_family() -> MapFamily:
    """The continued-fraction branches x -> 1/(q+x), q = 1, 2, ...; their
    mass series has no closed form."""
    return MapFamily(name="continued-fraction", row=lambda q: (0.0, 1.0, 1.0, float(q)))


def cantor_system(ratios: Sequence[float]) -> SystemSpec:
    """Similitudes with the given ratios, images equally spaced across [0, 1]
    (first at 0, last ending at 1; touching allowed when the ratios tile)."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) < 2:
        raise InvalidSystem("need at least two ratios")
    if any(not (0.0 < r < 1.0) for r in ratios):
        raise InvalidSystem(f"ratios must lie in (0, 1): {ratios}")
    slack = 1.0 - sum(ratios)
    if slack < -1e-12:
        raise InvalidSystem(f"ratios sum to {sum(ratios)} > 1, images cannot fit in [0, 1]")
    gap = max(slack, 0.0) / (len(ratios) - 1)
    a = np.array(ratios)
    offsets = np.concatenate(([0.0], np.cumsum(a + gap)[:-1]))
    coefficients = np.column_stack((a, offsets, np.zeros_like(a), np.ones_like(a)))
    return SystemSpec(coefficients, label="cantor")
