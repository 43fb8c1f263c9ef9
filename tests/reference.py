"""Per-word reference implementations for the tests.

The package works on whole levels of words at once (``level_images`` and
``level_log_derivatives``, the sorted level sums in ``bowen_solve``, the
masses recursion in ``transfer``) and on whole arrays of intervals
(``LineMeasure``).  These are the one-word-at-a-time and
one-interval-at-a-time versions the tests hold that code to, exact rational
values of line-measure functionals, and a cylinder transfer operator whose
root is an independent check of the collocation root.  ``conformal_measure`` builds the ``CylinderMeasure``
that ``dimension`` samples, at any exponent, ``extension_tables`` enumerates
its word tables from the incidence, and ``level_geometry`` is the
package's level in whole-array expressions, which its two in-place readers
must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from ifsdim import systems
from ifsdim.measures import CylinderMeasure, LineMeasure
from ifsdim.pressure import Collocation, Eigenpair, _chebyshev, _log_sum, collocate
from ifsdim.systems import _ROUNDOFF, SystemSpec
from ifsdim.transfer import cylinder_masses


def enumerate_admissible(incidence: np.ndarray, depth: int) -> Iterator[tuple[int, ...]]:
    """Yield all admissible words of the given depth, as int tuples, in
    lexicographic order.

    The stream is lazy: callers can consume a prefix without paying for the
    whole level.  The reference for the words of the ``systems`` levels and
    of ``transfer.cylinder_masses``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")

    def walk(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == depth:
            yield prefix
            return
        for s in range(len(incidence)):
            if prefix and not incidence[prefix[-1], s]:
                continue
            yield from walk(prefix + (s,))

    return walk(())


def reaching_pairs(incidence) -> set[tuple[int, int]]:
    """The pairs (i, j) for which some admissible word of two or more
    symbols begins with i and ends with j, by enumerating every word of
    2..m+1 symbols: a shortest such word repeats no symbol after its first.
    The incidence is irreducible when every pair is there; the reference
    for ``SystemSpec``'s check."""
    allowed = np.asarray(incidence, dtype=bool)
    return {(w[0], w[-1]) for k in range(2, len(allowed) + 2) for w in enumerate_admissible(allowed, k)}


def word_image(system: SystemSpec, word: tuple[int, ...]) -> tuple[float, float]:
    """Exact image interval of one word (maps composed innermost-first), one
    word at a time: the reference for ``systems.level_images``."""
    _check_word(system, word)
    lo, hi = 0.0, 1.0
    for s in reversed(word):
        a, b, c, d = system.coefficients[s]
        y0, y1 = (a * lo + b) / (c * lo + d), (a * hi + b) / (c * hi + d)
        lo, hi = min(y0, y1), max(y0, y1)
    return lo, hi


def level_geometry(system: SystemSpec, depth: int) -> tuple[np.ndarray, ...]:
    """``(log_sup, log_inf, image_lo, image_hi)`` of the depth-n level as
    whole-array expressions, each result a fresh array: the same ufuncs in
    the same order as ``systems.level_log_derivatives`` and
    ``systems.level_images``, so what they build in place must be bit for
    bit these rows, which take 88 bytes per word."""
    allowed = system.incidence
    a, b, c, d = system.coefficients.T[:, :, None, None]
    det = np.abs(a * d - b * c)

    def prepend(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        den = c * x + d
        return (a * x + b) / den, det / den**2

    y, g = (v.reshape(-1, 2) for v in prepend(np.array((0.0, 1.0))))
    first = np.arange(system.alphabet_size)
    full = depth > 1 and allowed.all()
    for _ in range(depth - 1):
        y, step = prepend(y)
        y, g = y.reshape(-1, 2), (g * step).reshape(-1, 2)
        if not full:
            keep = np.flatnonzero(allowed[:, first])
            first = keep // len(first)
            y, g = y.take(keep, axis=0), g.take(keep, axis=0)
    roundoff = 0.0 if system.is_similitude() else _ROUNDOFF
    log_sup = np.log(np.maximum(g[:, 0], g[:, 1]))
    log_inf = np.log(np.minimum(g[:, 0], g[:, 1]))
    log_sup += roundoff * (np.abs(log_sup) + 4 * depth)
    log_inf -= roundoff * (np.abs(log_inf) + 4 * depth)
    image_lo, image_hi = np.minimum(y[:, 0], y[:, 1]), np.maximum(y[:, 0], y[:, 1])
    return log_sup, log_inf, image_lo, image_hi


def _check_word(system: SystemSpec, word: tuple[int, ...]) -> None:
    m = system.alphabet_size
    if any(s >= m for s in word):
        raise ValueError(f"word {word} uses symbols outside the alphabet of size {m}")
    for a, b in zip(word, word[1:]):
        if not system.incidence[a, b]:
            raise ValueError(f"word {word} is not admissible ({a}->{b} forbidden)")


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


def pressure(system: SystemSpec, t: float, depth: int = 12) -> PressureEstimate:
    """(1/n) log of the sums of sup|s_w'|^t and of inf|s_w'|^t over the
    admissible depth-n words, accumulated in the log domain; the two
    figures coincide for similitudes.  One exponent per call: the reference
    for the pressures ``bowen_solve`` evaluates on its once-sorted level to
    bracket its root."""
    if t < 0:
        raise ValueError(f"exponent must be >= 0, got {t}")
    upper, lower = (_log_sum(np.sort(a), t)[0] for a in systems.level_log_derivatives(system, depth))
    return PressureEstimate(upper=upper / depth, lower=lower / depth)


def cylinder_operator_root(system: SystemSpec, depth: int, tol: float = 1e-10) -> float:
    """Bowen root of the cylinder transfer operator on the admissible
    depth-``depth`` words, by plain bisection on its log leading eigenvalue.

    A state is a word j.  Each step moves the mass of state i to the states
    j = (e,) + i[:-1], weighted by exp(t m_j), m_j the midpoint of
    log|s_(j_0)'| over the exact image of j[1:] (over [0, 1] at depth 1).  The leading eigenvalue comes from power iteration of that
    step, applied with ``np.bincount``.  The operator's root converges to
    the Bowen root as the depth grows.
    """
    words = list(enumerate_admissible(system.incidence, depth))
    index = {w: j for j, w in enumerate(words)}
    mid = np.empty(len(words))
    rows, cols = [], []
    for j, w in enumerate(words):
        lo, hi = word_image(system, w[1:]) if depth > 1 else (0.0, 1.0)
        a, b, c, d = system.coefficients[w[0]]
        mid[j] = 0.5 * sum(math.log(abs(a * d - b * c) / (c * x + d) ** 2) for x in (lo, hi))
        for e in range(system.alphabet_size):
            if w[1:] + (e,) in index:
                rows.append(index[w[1:] + (e,)])
                cols.append(j)
    rows, cols = np.array(rows), np.array(cols)

    def log_eigenvalue(t: float) -> float:
        weight = np.exp(t * mid)[cols]
        mass = np.full(len(words), 1.0 / len(words))
        for _ in range(10_000):
            step = np.bincount(cols, weight * mass[rows], minlength=len(words))
            eigenvalue = step.sum()  # the mass sums to one
            step /= eigenvalue
            if np.abs(step - mass).max() <= 1e-14 * step.max():
                return math.log(eigenvalue)
            mass = step
        raise RuntimeError(f"power iteration did not settle at t = {t}")

    lo, hi = 0.0, 1.0
    assert log_eigenvalue(hi) <= 0.0
    while hi - lo > tol:
        t = 0.5 * (lo + hi)
        if log_eigenvalue(t) > 0.0:
            lo = t
        else:
            hi = t
    return 0.5 * (lo + hi)


def quadrature_masses(
    system: SystemSpec, collocation: Collocation, pair: Eigenpair, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenmeasure and invariant masses of the admissible depth-``depth``
    words, one word at a time: sum_k l_k |s_w'(x_k)|^s and
    sum_k l_k |s_w'(x_k)|^s rho(s_w(x_k)), over the nodes x_k of the grids
    that the last symbol of w feeds, with s_w and its derivative composed
    map by map and rho the barycentric interpolant of the right eigenvector
    on the grid of the first symbol; each column normalised to total one.
    The reference for ``transfer.cylinder_masses``."""
    nodes, grids = collocation.factors.shape[0], len(collocation.bounds) - 1
    points, weights = _chebyshev(nodes)  # every grid's nodes
    symbols = collocation.order[list(collocation.bounds[:-1])]  # one symbol per grid
    grid = np.searchsorted(collocation.bounds, np.argsort(collocation.order), side="right") - 1
    left = pair.left.reshape(grids, nodes)
    right = pair.right.reshape(grids, nodes)
    masses = []
    for w in enumerate_admissible(system.incidence, depth):
        conformal = invariant = 0.0
        for g in range(grids):
            if not system.incidence[w[-1], symbols[g]]:
                continue
            x, derivative = points, np.ones(nodes)
            for e in reversed(w):
                a, b, c, d = system.coefficients[e]
                derivative *= abs(a * d - b * c) / (c * x + d) ** 2
                x = (a * x + b) / (c * x + d)
            values = left[g] * derivative**pair.s
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = weights / (x[:, None] - points)
                rho = terms @ right[grid[w[0]]] / terms.sum(axis=1)
            hit = ~np.isfinite(terms).all(axis=1)
            rho[hit] = right[grid[w[0]]][np.argmin(np.abs(x[hit, None] - points), axis=1)]
            conformal += values.sum()
            invariant += values @ rho
        masses.append((conformal, invariant))
    masses = np.array(masses)
    masses /= masses.sum(axis=0)
    return masses[:, 0], masses[:, 1]


def extension_tables(system: SystemSpec, depth: int):
    """last_symbols and child_starts arrays for levels 1..depth.  The
    extensions of a level are the row-major nonzeros of the incidence rows
    of its last symbols.  The reference for the tables of
    ``measures.CylinderMeasure``, which ``transfer.cylinder_masses`` reads
    off its prepend recursion instead."""
    allowed = system.incidence
    counts = allowed.sum(axis=1)
    last = [np.arange(system.alphabet_size, dtype=np.int64)]
    starts = []
    for _ in range(2, depth + 1):
        prev = last[-1]
        starts.append(np.concatenate(([0], np.cumsum(counts[prev]))))
        last.append(np.nonzero(allowed[prev])[1].copy())  # a view would hold both index rows
    return last, starts


def conformal_measure(system: SystemSpec, s: float, depth: int) -> CylinderMeasure:
    """The ``CylinderMeasure`` of the collocation eigenmeasure at ``s`` to
    ``depth``: at the Bowen root, the masses ``dimension`` samples and the
    ``gibbs`` masses table reports."""
    collocation = collocate(system)
    return cylinder_masses(collocation, collocation.eigenpair(s), system, depth)


# ---------------------------------------------------------------------------
# line measures: one interval at a time, and exact rational values


def left_interval_bound(measure: LineMeasure, s: float, r: float) -> float:
    """inf over x in [0, s] of nu((x-r, x+r)), times nu([0, s]), one cut at
    a time: the open-ball mass at each breakpoint where x +- r crosses an
    atom or piece edge, and at 0 and s.  The reference for the running
    minimum of ``flatness_detector``, which reads every cut off one grid."""
    locs = measure.atoms[:, 0].tolist() + measure.pieces[:, :2].ravel().tolist()
    cuts = {0.0, s}
    for loc in locs:
        for x in (loc - r, loc + r):
            if 0.0 <= x <= s:
                cuts.add(x)
    x = np.array(sorted(cuts))
    inf_ball = measure.mass_of_interval(x - r, x + r, closed=False).min()
    return float(inf_ball * measure.mass_of_interval(0.0, s, closed=True))


def flatness_bounds(measure: LineMeasure, radii) -> list[float]:
    """Per radius, the largest ``left_interval_bound`` over the cut points:
    the atoms, the piece edges and 1 inside (0, 1], and r/2."""
    fixed = {1.0} | set(measure.atoms[:, 0].tolist()) | set(measure.pieces[:, :2].ravel().tolist())
    fixed = [s for s in fixed if 0.0 < s <= 1.0]
    return [max(left_interval_bound(measure, s, r) for s in fixed + [r / 2.0]) for r in radii]


def _exact_rows(measure: LineMeasure):
    atoms = [(Fraction(loc), Fraction(w)) for loc, w in measure.atoms.tolist()]
    pieces = [tuple(map(Fraction, row)) for row in measure.pieces.tolist()]
    return atoms, pieces


def exact_interval_mass(measure: LineMeasure, lo: float, hi: float, closed: bool = True) -> Fraction:
    """The mass of [lo, hi] (or (lo, hi)) under the stored atoms and pieces,
    in rational arithmetic.  Which atoms and pieces count is decided in
    floating point, where comparisons are exact."""
    if hi < lo:
        return Fraction(0)
    loc, w = measure.atoms.T
    inside = (lo <= loc) & (loc <= hi) if closed else (lo < loc) & (loc < hi)
    mass = sum(map(Fraction, w[inside].tolist()), Fraction(0))
    plo, phi, _ = measure.pieces.T
    meets = measure.pieces[(plo < hi) & (phi > lo)].tolist()
    lo, hi = Fraction(lo), Fraction(hi)
    for a, b, d in meets:
        mass += Fraction(d) * (min(hi, Fraction(b)) - max(lo, Fraction(a)))
    return mass


def exact_points_mass(measure: LineMeasure, points) -> Fraction:
    """The weight of the atoms at ``points``, in rational arithmetic."""
    at = set(points)
    return sum((Fraction(w) for loc, w in measure.atoms.tolist() if loc in at), Fraction(0))


def _density(pieces, x0, x1) -> Fraction:
    """The density of the piece holding the cell (x0, x1), 0 if none does."""
    return next((d for lo, hi, d in pieces if lo <= x0 and x1 <= hi), Fraction(0))


def _cell_edges(a1, p1, a2, p2) -> list[Fraction]:
    """The sorted atom locations and piece edges of two measures' rows."""
    return sorted({x for x, _ in a1 + a2} | {e for lo, hi, _ in p1 + p2 for e in (lo, hi)})


def exact_tv(m1: LineMeasure, m2: LineMeasure) -> Fraction:
    """The total-variation distance of the stored measures, in rational
    arithmetic: atom weight differences plus density differences times the
    widths of the cells between all atom locations and piece edges."""
    (a1, p1), (a2, p2) = _exact_rows(m1), _exact_rows(m2)
    w1, w2 = dict(a1), dict(a2)
    diffs = [w1.get(x, 0) - w2.get(x, 0) for x in set(w1) | set(w2)]
    edges = _cell_edges(a1, p1, a2, p2)
    diffs += [(_density(p1, x0, x1) - _density(p2, x0, x1)) * (x1 - x0) for x0, x1 in zip(edges, edges[1:])]
    return max(sum(d for d in diffs if d > 0), -sum(d for d in diffs if d < 0), Fraction(0))


def exact_w1(m1: LineMeasure, m2: LineMeasure) -> Fraction:
    """The Wasserstein-1 distance of the stored measures, in rational
    arithmetic: the integral of |F1 - F2|, walked from the left one cell
    between consecutive atom locations and piece edges at a time.  On a
    cell F1 - F2 runs linearly from a to b, and |F1 - F2| integrates to a
    trapezoid, or to two triangles where a and b have opposite signs."""
    (a1, p1), (a2, p2) = _exact_rows(m1), _exact_rows(m2)
    w1, w2 = dict(a1), dict(a2)
    edges = _cell_edges(a1, p1, a2, p2)
    total, b = Fraction(0), Fraction(0)
    for x0, x1 in zip(edges, edges[1:]):
        a = b + w1.get(x0, 0) - w2.get(x0, 0)
        width = x1 - x0
        b = a + (_density(p1, x0, x1) - _density(p2, x0, x1)) * width
        if a * b >= 0:
            total += width * (abs(a) + abs(b)) / 2
        else:
            total += width * (a * a + b * b) / (2 * (abs(a) + abs(b)))
    return total
