"""Measures on the line, cylinder measures, and convergence gauges.

Two concrete measure representations cover everything the package needs:

* ``LineMeasure``     — finitely many atoms plus finitely many constant-
                        density pieces on the real line, held as sorted
                        read-only arrays beside compensated prefix sums of
                        their masses.  Closed under the exact integral,
                        distance and sampling operations below, which is why
                        the example gallery and every limit object live in
                        this class.  Every mass of an interval, point set,
                        ball, TV grid point or W1 distribution value is
                        read by ``mass_of_interval``.
* ``CylinderMeasure`` — masses on the cylinder algebra of a finite system,
                        stored per depth with exact additivity (each word's
                        mass is the sum of its extensions' masses by
                        construction).  Its deepest level is given: for
                        the h-conformal measure, the eigenmeasure column of
                        ``transfer.cylinder_masses`` at the Bowen root.

Three convergence gauges with strictly decreasing strength:

* ``tv_distance``          — exact total-variation distance of LineMeasures
                             via the positive/negative parts of the signed
                             difference;
* ``setwise_discrepancy``  — max disagreement over a finite family of test
                             sets ((lo, hi) intervals and ("points", locs)
                             sets); always a lower bound for TV;
* ``w1_distance``          — exact Wasserstein-1 distance of LineMeasures
                             of equal mass, the integral of |F1 - F2|; on a
                             bounded support it metrizes weak convergence.

Sampling uses a counter-based generator (Philox) so draws are reproducible
from (measure, seed) alone and independent of evaluation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .pressure import ConvergenceFailure
from .systems import (
    MapFamily,
    SystemSpec,
    cantor_system,
    level_geometry,
)

__all__ = [
    "LineMeasure",
    "CylinderMeasure",
    "MeasureFamily",
    "GALLERY_NAMES",
    "mass_distribution_sequence",
    "truncation_singularity",
    "tv_distance",
    "setwise_discrepancy",
    "w1_distance",
    "sample",
    "gallery",
]


# ---------------------------------------------------------------------------
# atoms + piecewise-constant densities


def _prefix_sums(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running sums of ``masses`` from 0, and the running sum of each step's
    exact TwoSum error: entry k of the two adds up the first k masses."""
    total, error = np.zeros((2, masses.size + 1))
    before, after = total[:-1], np.cumsum(masses, out=total[1:])
    added = after - before
    np.add(before - (after - added), masses - added, out=error[1:])
    np.cumsum(error, out=error)
    return total, error


def _range_sum(sums: tuple[np.ndarray, np.ndarray], start, stop):
    """Masses start..stop-1 from their compensated prefix sums."""
    total, error = sums
    return (total[stop] - total[start]) + (error[stop] - error[start])


@dataclass(frozen=True, eq=False)
class LineMeasure:
    """Nonnegative measure: point masses plus constant-density intervals.

    ``atoms`` is a read-only (k, 2) float array of (location, weight) rows,
    ``pieces`` a read-only (p, 3) float array of (lo, hi, density) rows with
    lo < hi; either is built from any array-like of rows.  Both are sorted,
    zero weights and densities are dropped, and atoms at one location are
    merged.  Pieces must be interior-disjoint (touching endpoints are fine).
    Beside each array sit the prefix sums of its masses and of the exact
    TwoSum error of each step, which ``mass_of_interval`` reads.
    """

    atoms: np.ndarray = ()
    pieces: np.ndarray = ()
    _atom_sums: tuple = field(init=False, repr=False)
    _piece_sums: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # a reshape to the rows' own count also checks their width
        loc, w = np.asarray(self.atoms, dtype=float).reshape(len(self.atoms), 2).T
        bad = (w < 0) | ~np.isfinite(w) | ~np.isfinite(loc)
        if bad.any():
            raise ValueError(f"bad atom ({loc[bad][0]}, {w[bad][0]})")
        # sorted unique locations, each carrying its weights summed in input order
        locs, at = np.unique(loc[w > 0], return_inverse=True)
        atoms = np.column_stack((locs, np.bincount(at, w[w > 0], len(locs))))
        pieces = np.asarray(self.pieces, dtype=float).reshape(len(self.pieces), 3)
        lo, hi, d = pieces.T
        bad = ~(lo < hi) | (d < 0) | ~np.isfinite(d)
        if bad.any():
            raise ValueError(f"bad piece ({lo[bad][0]}, {hi[bad][0]}, {d[bad][0]})")
        pieces = pieces[d > 0]  # a copy the caller cannot change
        pieces = pieces[np.lexsort(pieces.T[::-1])]
        overlap = pieces[1:, 0] < pieces[:-1, 1]
        if overlap.any():
            raise ValueError(f"pieces overlap near {pieces[1:, 0][overlap][0]}")
        for name, rows in (("atoms", atoms), ("pieces", pieces)):
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)
        object.__setattr__(self, "_atom_sums", _prefix_sums(atoms[:, 1]))
        masses = pieces[:, 2] * (pieces[:, 1] - pieces[:, 0])
        object.__setattr__(self, "_piece_sums", _prefix_sums(masses))

    # -- constructors ------------------------------------------------------

    @classmethod
    def point_mass(cls, loc: float, weight: float = 1.0) -> "LineMeasure":
        return cls(atoms=((loc, weight),))

    @classmethod
    def uniform(cls, lo: float, hi: float, mass: float = 1.0) -> "LineMeasure":
        return cls(pieces=((lo, hi, mass / (hi - lo)),))

    # -- basic functionals ---------------------------------------------------

    @property
    def total(self) -> float:
        return float(self.mass_of_interval(-math.inf, math.inf))

    @property
    def support_bounds(self) -> tuple[float, float]:
        xs = np.concatenate((self.atoms[:, 0], self.pieces[:, :2].ravel()))
        if not xs.size:
            raise ValueError("measure has no mass")
        return float(xs.min()), float(xs.max())

    def mass_of_interval(self, lo, hi, closed: bool = True):
        """Mass of [lo, hi] (closed=True) or (lo, hi) (closed=False),
        elementwise over the broadcast ``lo`` and ``hi``, and 0 where
        hi < lo; the two differ only by atoms sitting on the endpoints.

        Whole atoms and pieces come from compensated prefix sums, so a small
        interval far from the origin keeps its digits; a piece the interval
        covers in part adds overlap * density.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        start = np.searchsorted(self.atoms[:, 0], lo, "left" if closed else "right")
        stop = np.searchsorted(self.atoms[:, 0], hi, "right" if closed else "left")
        mass = _range_sum(self._atom_sums, start, np.maximum(stop, start))
        if len(self.pieces):
            # pieces first..stop-1 meet (lo, hi); those between the two ends are whole
            plo, phi, density = self.pieces.T
            first = np.searchsorted(phi, lo, "right")
            stop = np.maximum(np.searchsorted(plo, hi, "left"), first)
            inner = np.minimum(first + 1, stop)
            last = np.maximum(stop - 1, inner)  # stop - 1 where it is an end of its own
            mass += _range_sum(self._piece_sums, inner, last)
            for end, meets in ((first, first < stop), (last, inner < stop)):
                end = np.minimum(end, plo.size - 1)
                part = np.maximum(np.minimum(hi, phi[end]) - np.maximum(lo, plo[end]), 0.0)
                mass += np.where(meets, density[end] * part, 0.0)
        return mass[()]

    def mass_of_points(self, points) -> float:
        """Mass of a finite point set (only atoms can contribute)."""
        at = np.unique(np.asarray(points, dtype=float))
        return float(self.mass_of_interval(at, at).sum())


# ---------------------------------------------------------------------------
# exact total variation and Wasserstein-1


def _density_on(m: LineMeasure, lo: np.ndarray) -> np.ndarray:
    """The density of ``m`` on each open cell starting at ``lo``, for cells
    cut at every piece edge of ``m``, so that each lies in one piece or in
    none."""
    if not len(m.pieces):
        return np.zeros_like(lo)
    plo, phi, density = m.pieces.T
    j = np.minimum(np.searchsorted(phi, lo, "right"), len(phi) - 1)
    return np.where((plo[j] <= lo) & (lo < phi[j]), density[j], 0.0)


def _cells(m1: LineMeasure, m2: LineMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The sorted atom locations and piece edges of both measures, and the
    density of m1 minus that of m2 on each open cell between them."""
    points = [m.atoms[:, 0] for m in (m1, m2)] + [m.pieces[:, :2].ravel() for m in (m1, m2)]
    grid = np.unique(np.concatenate(points))
    return grid, _density_on(m1, grid[:-1]) - _density_on(m2, grid[:-1])


def tv_distance(m1: LineMeasure, m2: LineMeasure) -> float:
    """sup over Borel sets of |m1(A) - m2(A)|, computed exactly.

    The signed difference splits into an atomic part (weight mismatches at
    the grid points of ``_cells``) and a density part, the cell's density
    difference times its width on each open cell; the distance is the
    larger of the positive-part and negative-part masses, which agree when
    both inputs are probability measures.
    """
    grid, slope = _cells(m1, m2)
    atoms = m1.mass_of_interval(grid, grid) - m2.mass_of_interval(grid, grid)
    cells = slope * np.diff(grid)
    pos = neg = 0.0
    for diff in (atoms, cells):
        pos += float(diff[diff > 0].sum())
        neg -= float(diff[diff < 0].sum())
    return max(pos, neg)


def w1_distance(m1: LineMeasure, m2: LineMeasure) -> float:
    """The Wasserstein-1 distance, the integral of |F1 - F2| over the line,
    computed exactly for measures of equal total mass.

    On each open cell of ``_cells`` the difference of the distribution
    functions is linear: a at the left edge (closed, so it counts the atoms
    there), a + slope * width at the right.  Its absolute value integrates
    to a trapezoid, or to two triangles where it changes sign.  On a bounded
    support W1 metrizes weak convergence.
    """
    if abs(m1.total - m2.total) > 1e-12:
        raise ValueError(f"W1 needs equal total masses, got {m1.total} and {m2.total}")
    grid, slope = _cells(m1, m2)
    width = np.diff(grid)
    a = m1.mass_of_interval(-math.inf, grid[:-1]) - m2.mass_of_interval(-math.inf, grid[:-1])
    b = a + slope * width
    # width * (|a| + |b|) / 2, or width * (a^2 + b^2) / (2 (|a| + |b|)) across a sign change
    mean = 0.5 * (np.abs(a) + np.abs(b))
    np.divide(0.25 * (a * a + b * b), mean, out=mean, where=a * b < 0)
    return float(np.sum(width * mean))


# ---------------------------------------------------------------------------
# setwise gauge


def setwise_discrepancy(m1: LineMeasure, m2: LineMeasure, sets: Iterable[tuple]) -> float:
    """max over the finite test family of |m1(A) - m2(A)|.

    Test sets are closed intervals as (lo, hi) pairs and ("points",
    locations) pairs.  Always a lower bound for the total-variation
    distance.
    """
    if not (isinstance(m1, LineMeasure) and isinstance(m2, LineMeasure)):
        raise TypeError(f"{type(m1).__name__} and {type(m2).__name__} cannot evaluate test sets")
    gaps, intervals = [0.0], []
    for spec in sets:
        if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "points":
            gaps.append(abs(m1.mass_of_points(spec[1]) - m2.mass_of_points(spec[1])))
        elif isinstance(spec, tuple) and len(spec) == 2 and all(isinstance(v, (int, float)) for v in spec):
            intervals.append(spec)
        else:
            raise ValueError(f"unrecognized test set {spec!r}")
    if intervals:
        lo, hi = np.array(intervals, dtype=float).T
        gaps.extend(np.abs(m1.mass_of_interval(lo, hi) - m2.mass_of_interval(lo, hi)).tolist())
    return max(gaps)


# ---------------------------------------------------------------------------
# cylinder measures


class CylinderMeasure:
    """Masses on the admissible words of depth 1..depth, lexicographic order.

    Built from ``system``, ``depth`` and the depth-``depth`` masses
    ``deepest`` of total one, in the word order of
    ``transfer.cylinder_masses``.  ``masses[d-1]`` holds the depth-d
    cylinder masses: each shallower level is the exact child-sum of the
    level below it, reduced from ``deepest``, so additivity holds to float
    addition error rather than to a normalization tolerance.

    ``last_symbols[d-1]`` holds the last symbol of each depth-d word, and
    ``child_starts[d-1][i]`` the index in level d+1 of the first extension
    of word i; extensions of a word are contiguous and in symbol order
    because the levels are lexicographic.  A symbol with no admissible
    successor raises ``ValueError``: its words could not be extended.
    """

    def __init__(self, system: SystemSpec, depth: int, deepest: np.ndarray) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        last, starts, counts = _extension_tables(system, depth)
        if (counts == 0).any():
            raise ValueError("system has a dead-end symbol; cylinder masses cannot be extended")
        levels = [deepest]
        for d in range(depth - 1, 0, -1):
            levels.append(np.add.reduceat(levels[-1], starts[d - 1][:-1]))
        self.system, self.depth = system, depth
        self.masses = tuple(reversed(levels))
        self.last_symbols, self.child_starts = tuple(last), tuple(starts)

    def level(self, d: int) -> np.ndarray:
        if not 1 <= d <= self.depth:
            raise ValueError(f"stored depths are 1..{self.depth}, got {d}")
        return self.masses[d - 1]


def _extension_tables(system: SystemSpec, depth: int):
    """last_symbols and child_starts arrays for levels 1..depth, and each
    symbol's successor count.  The extensions of a level are the row-major
    nonzeros of the incidence rows of its last symbols."""
    allowed = system.incidence.allowed
    counts = allowed.sum(axis=1)
    last = [np.arange(system.alphabet_size, dtype=np.int64)]
    starts = []
    for _ in range(2, depth + 1):
        prev = last[-1]
        starts.append(np.concatenate(([0], np.cumsum(counts[prev]))))
        last.append(np.nonzero(allowed[prev])[1])
    return last, starts, counts


def mass_distribution_sequence(system: SystemSpec, h: float, n: int) -> LineMeasure:
    """Spread each depth-n cylinder's conformal mass uniformly over its image
    interval.  Only similitude systems qualify: their image lengths are exact
    and their pieces stay interior-disjoint under the separation the system
    was built with."""
    if not system.is_similitude():
        raise ValueError("mass distributions are only defined for similitude systems")
    if n < 1:
        raise ValueError(f"stage must be >= 1, got {n}")
    lg = level_geometry(system, n)
    weights = np.exp(h * lg.log_sup)
    weights /= weights.sum()
    density = weights / (lg.image_hi - lg.image_lo)
    return LineMeasure(pieces=np.column_stack((lg.image_lo, lg.image_hi, density)))


def truncation_singularity(
    family: MapFamily, n1: int, n2: int, h_n2: float, depth: int
) -> float:
    """Mass the level-n2 conformal measure leaves on words using only the
    first n1 symbols for `depth` steps: (sum_{i<=n1} a_i^{h_n2})^depth.

    Decays geometrically in depth whenever n1 < n2, which is the engine
    behind total-variation non-convergence of the truncation measures; the
    caller turns it into the TV lower bound 1 - (returned value)."""
    if not 1 <= n1 <= n2:
        raise ValueError(f"need 1 <= n1 <= n2, got {n1}, {n2}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    q = sum(abs(a) ** h_n2 for a in family.coefficients(n1)[:, 0].tolist())
    return q**depth


# ---------------------------------------------------------------------------
# sampling


def sample(measure, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws from a normalized measure, deterministic given seed:
    the same measure and seed give the identical points.

    LineMeasure: inverse-CDF over the location-sorted atoms and pieces.
    CylinderMeasure: the stored levels fix the first digits exactly; beyond
    the stored depth all words grow together, a digit per step by the
    one-step conditional law of levels 1 and 2 (each digit a level-2 child
    of the current symbol; exact on similitude full shifts, first-order
    otherwise), until the widest image interval of the batch is shorter
    than 1e-9; then each midpoint is emitted.  So every sample takes the
    batch's step count.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.Generator(np.random.Philox(int(seed)))
    if isinstance(measure, LineMeasure):
        return _sample_line(measure, count, rng)
    if isinstance(measure, CylinderMeasure):
        return _sample_cylinders(measure, count, rng)
    raise TypeError(f"cannot sample from {type(measure).__name__}")


def _sample_line(measure: LineMeasure, count: int, rng) -> np.ndarray:
    total = measure.total
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"sampling needs a probability measure, total mass is {total}")
    (loc, weight), (plo, phi, density) = measure.atoms.T, measure.pieces.T
    lo = np.concatenate((loc, plo))
    hi = np.concatenate((loc, phi))
    w = np.concatenate((weight, density * (phi - plo)))
    if not w.size:
        raise ValueError("measure has no mass")
    order = np.lexsort((w, hi, lo))  # the components by (lo, hi, w)
    lo, hi, w = lo[order], hi[order], w[order]
    cum = np.cumsum(w)
    target = rng.random(count) * cum[-1]
    idx = np.searchsorted(cum, target, side="right")
    idx = np.minimum(idx, len(w) - 1)
    frac = (target - (cum[idx] - w[idx])) / w[idx]
    return lo[idx] + frac * (hi[idx] - lo[idx])


def _push(
    M: np.ndarray, digits: np.ndarray, mats: np.ndarray, out: np.ndarray, work: np.ndarray
) -> None:
    """``out`` = each column (A, B, C, D) of ``M`` times its digit's matrix,
    over the column's max |entry|.  ``mats`` holds the rows a, b, c, d of
    the maps' coefficients; ``work`` is two scratch rows."""
    (A, B, C, D), (coef, prod) = M, work
    for j, (top, bottom) in enumerate(((0, 2), (1, 3))):  # columns (a, c), (b, d)
        np.take(mats[top], digits, out=coef, mode="wrap")
        np.multiply(A, coef, out=out[j])
        np.multiply(C, coef, out=out[j + 2])
        np.take(mats[bottom], digits, out=coef, mode="wrap")
        np.add(out[j], np.multiply(B, coef, out=prod), out=out[j])
        np.add(out[j + 2], np.multiply(D, coef, out=prod), out=out[j + 2])
    scale = coef
    np.maximum(np.abs(out[0], out=scale), np.abs(out[1], out=prod), out=scale)
    np.maximum(scale, np.abs(out[2], out=prod), out=scale)
    np.maximum(scale, np.abs(out[3], out=prod), out=scale)
    np.divide(out, scale, out=out)


def _child_choice(
    cum: np.ndarray, cs: np.ndarray, parents: np.ndarray, target: np.ndarray,
    out: np.ndarray, gathered: np.ndarray, mask: np.ndarray,
) -> None:
    """``out`` = each sample's word at the next level: its parent's first
    child plus the number of the parent's later child boundaries
    ``cum[first + k]`` at or below ``target``.  A boundary past the last
    child never counts, so this is the clipped
    ``searchsorted(cum, target, "right") - 1`` of a non-decreasing ``cum``."""
    first, kids = cs[:-1], np.diff(cs)
    np.take(cs, parents, out=out, mode="wrap")
    for k in range(1, int(kids.max(initial=0))):
        bound = np.where(k < kids, cum[np.minimum(first + k, cum.size - 1)], np.inf)
        np.take(bound, parents, out=gathered, mode="wrap")
        np.add(out, np.less_equal(gathered, target, out=mask), out=out)


def _draw_children(
    level: tuple, parents: np.ndarray, out: np.ndarray, rng, work: np.ndarray, mask: np.ndarray
) -> None:
    """``out`` = a child of each sample's parent word, drawn with the law of
    the parent's children: target lo + u * width over the cumulative masses
    of ``level`` = (cum, cs, lo, width), lo and width by parent."""
    cum, cs, lo, width = level
    target, gathered = work
    np.take(width, parents, out=gathered, mode="wrap")
    np.multiply(rng.random(out=target), gathered, out=target)
    np.add(np.take(lo, parents, out=gathered, mode="wrap"), target, out=target)
    _child_choice(cum, cs, parents, target, out, gathered, mask)


def _level(masses: np.ndarray, cs: np.ndarray) -> tuple:
    """A level's cumulative masses, its child starts ``cs``, and the first
    boundary and the mass of each parent's block of children."""
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    lo = cum[cs[:-1]]
    return cum, cs, lo, cum[cs[1:]] - lo


def _sample_cylinders(measure: CylinderMeasure, count: int, rng) -> np.ndarray:
    m = measure.system.alphabet_size
    mats = measure.system.coefficients.T.copy()  # rows a, b, c, d
    # the work arrays, allocated once: the samples' products M and their
    # extensions N, two scratch rows, two word indices and a mask.  Takes
    # into them use mode="wrap": with out= the default mode copies through
    # a temporary, and every index is in range.
    floats = np.empty((10, count))
    M, N, work = floats[0:4], floats[4:8], floats[8:10]
    idx, nxt = np.zeros((2, count), dtype=np.int64)
    mask = np.empty(count, dtype=bool)

    # exact joint draw of the stored digits, level by level from the empty
    # word; each word's product is pushed once, and samples gather theirs
    words = np.eye(2).reshape(4, 1)
    for d, cs in enumerate((np.array([0, m]),) + measure.child_starts, start=1):
        _draw_children(_level(measure.masses[d - 1], cs), idx, nxt, rng, work, mask)
        idx, nxt = nxt, idx
        parent = np.repeat(np.arange(len(cs) - 1), np.diff(cs))
        grown = np.empty((10, parent.size))
        np.take(words, parent, axis=1, out=grown[0:4], mode="wrap")
        _push(grown[0:4], measure.last_symbols[d - 1], mats, grown[4:8], grown[8:10])
        words = grown[4:8]
    np.take(words, idx, axis=1, out=M, mode="wrap")

    # beyond the stored depth each digit is a level-2 child of the current
    # symbol; at depth 1, level 2 weighs each successor by its level-1 mass
    if measure.depth >= 2:
        last, cs, two = measure.last_symbols[1], measure.child_starts[0], measure.masses[1]
    else:
        (_, last), (cs,), _ = _extension_tables(measure.system, 2)
        two = measure.masses[0][last]
    level = _level(two, cs)
    cur = np.take(measure.last_symbols[measure.depth - 1], idx, out=nxt, mode="wrap")
    for _ in range(500):
        (A, B, C, D), (x0, x1, gap, _) = M, N
        np.divide(B, D, out=x0)
        np.divide(np.add(A, B, out=x1), np.add(C, D, out=gap), out=x1)
        if float(np.abs(np.subtract(x1, x0, out=gap), out=gap).max(initial=0.0)) < 1e-9:
            mid = np.add(x0, x1)
            return np.multiply(mid, 0.5, out=mid)
        _draw_children(level, cur, idx, rng, work, mask)
        np.take(last, idx, out=cur, mode="wrap")
        _push(M, cur, mats, N, work)
        M, N = N, M
    raise ConvergenceFailure("cylinder images failed to contract below 1e-9")


# ---------------------------------------------------------------------------
# the example gallery


@dataclass(frozen=True)
class MeasureFamily:
    """A named sequence n -> LineMeasure together with its limit, when the
    limit is itself expressible as a LineMeasure (else None, see note).

    Known before a member is built: ``entries(n)``, at most the atoms plus
    pieces of member n; ``last``, the last member that double precision
    represents (None when every one is); ``support``, an interval that
    holds every member; and ``ladder``, the radii at which its flatness
    shows (None when it has no such scale of its own)."""

    name: str
    member: Callable[[int], "LineMeasure"] = field(repr=False)
    limit: Optional[LineMeasure] = None
    note: str = ""
    entries: Callable[[int], int] = field(default=lambda n: 2, repr=False)
    last: Optional[int] = None
    support: tuple[float, float] = (0.0, 1.0)
    ladder: Optional[tuple[float, ...]] = None

    def at(self, n: int) -> LineMeasure:
        if n < 1:
            raise ValueError(f"family index must be >= 1, got {n}")
        if self.last is not None and n > self.last:
            raise ValueError(f"{self.name} member {n} underflows; members run to at most {self.last}")
        return self.member(n)


def _alternating_collapse(n: int) -> LineMeasure:
    if n % 2 == 1:
        return LineMeasure(pieces=((0.0, 1.0 / n, float(n)),))
    return LineMeasure(atoms=((1.0 / n, 1.0),))


def _lattice_comb(n: int) -> LineMeasure:
    return LineMeasure(atoms=np.column_stack((np.arange(1, n + 1) / n, np.full(n, 1.0 / n))))


def _atom_vs_uniform(n: int) -> LineMeasure:
    pieces = ((1.0 / n, 1.0, 1.0),) if n > 1 else ()
    return LineMeasure(atoms=((0.0, 1.0 / n),), pieces=pieces)


def _leaking_block(n: int) -> LineMeasure:
    atoms = ((0.0, (n - 1.0) / n),) if n > 1 else ()
    return LineMeasure(atoms=atoms, pieces=((1.0, 2.0, 1.0 / n),))


def _staircase_pieces(a: float, masses: np.ndarray) -> np.ndarray:
    """masses[i] spread over [a^((i+1)^2), a^(i^2)]."""
    edges = a ** (np.arange(masses.size + 1, dtype=float) ** 2)
    return np.column_stack((edges[1:], edges[:-1], masses / (edges[:-1] - edges[1:])))


def _staircase(n: int, a: float) -> LineMeasure:
    masses = (1.0 - a) * a ** np.arange(n + 1) / (1.0 - a ** (n + 1))
    return LineMeasure(pieces=_staircase_pieces(a, masses))


def _staircase_limit(a: float, count: int) -> LineMeasure:
    pieces = _staircase_pieces(a, (1.0 - a) * a ** np.arange(count))
    # the tail below float resolution is carried by an atom at the origin
    return LineMeasure(atoms=((0.0, float(a**count)),), pieces=pieces)


GALLERY_NAMES = (
    "alternating-collapse",
    "cantor-mass-stages",
    "lattice-comb",
    "atom-vs-uniform",
    "leaking-block",
    "staircase",
)


def gallery(name: str, a: float = 0.5) -> MeasureFamily:
    """Named measure sequences with known convergence behavior.

    alternating-collapse — thin uniform blocks for odd n, a drifting atom
        for even n; converges weakly to the origin atom and in no stronger
        sense.
    cantor-mass-stages   — middle-thirds mass distributions; the limit is
        the Cantor conformal measure, which is not piecewise constant, so
        limit=None here.
    lattice-comb         — n equally spaced atoms; weakly Lebesgue, setwise
        not at all (any lattice point set keeps discrepancy 1).
    atom-vs-uniform      — a shrinking atom at the origin next to a growing
        uniform block; converges in TV to Lebesgue at speed 1/n.
    leaking-block        — almost all mass parks at the origin while 1/n
        leaks onto [1, 2]; TV distance to the origin atom is exactly 1/n.
    staircase            — geometric masses on super-geometrically shrinking
        intervals (scale parameter a); the flat-density showcase.
    """
    if name == "alternating-collapse":
        return MeasureFamily(
            name,
            _alternating_collapse,
            limit=LineMeasure.point_mass(0.0),
            note="weak limit only; TV distance to the limit stays 1",
        )
    if name == "cantor-mass-stages":
        return MeasureFamily(
            name,
            functools.partial(
                mass_distribution_sequence,
                cantor_system((1 / 3, 1 / 3)),
                math.log(2.0) / math.log(3.0),
            ),
            limit=None,
            note=(
                "contraction ratios pinned to (1/3, 1/3); the limit is the "
                "Cantor conformal measure and has no atoms-plus-pieces form"
            ),
            entries=lambda n: 2**n,
        )
    if name == "lattice-comb":
        return MeasureFamily(
            name,
            _lattice_comb,
            limit=LineMeasure.uniform(0.0, 1.0),
            note="weak limit only; every grid point set witnesses setwise failure",
            entries=lambda n: n,
        )
    if name == "atom-vs-uniform":
        return MeasureFamily(
            name,
            _atom_vs_uniform,
            limit=LineMeasure.uniform(0.0, 1.0),
            note="TV-converges at exactly 1/n",
        )
    if name == "leaking-block":
        return MeasureFamily(
            name,
            _leaking_block,
            limit=LineMeasure.point_mass(0.0),
            note="setwise-converges; TV distance to the limit is exactly 1/n",
            support=(0.0, 2.0),
        )
    if name == "staircase":
        if not 0.0 < a < 1.0:
            raise ValueError(f"scale must lie in (0, 1), got {a}")
        count = 1  # a^(k^2) > 0 for k <= count: stage n needs a^((n+1)^2) > 0
        while a ** ((count + 1) ** 2) > 0.0:
            count += 1
        # and a finite density on each of its pieces; stage k gives piece k
        # its largest mass, so that stage's density decides
        k = np.arange(count)
        with np.errstate(over="ignore", divide="ignore"):
            finite = np.isfinite(_staircase_pieces(a, (1.0 - a) * a**k / (1.0 - a ** (k + 1)))[:, 2])
        if not finite.all():
            count = int(finite.argmin())
        return MeasureFamily(
            name,
            lambda n: _staircase(n, a),
            limit=_staircase_limit(a, count),
            note="TV-converges geometrically; pointwise density exponents stay flat",
            entries=lambda n: n + 1,
            last=count - 1,
            ladder=tuple(a ** (k * k) for k in range(1, 9)),  # the lower edges of its first eight pieces
        )
    raise ValueError(f"unknown gallery family {name!r}; known: {', '.join(GALLERY_NAMES)}")
