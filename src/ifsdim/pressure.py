"""Topological pressure of derivative potentials and Bowen-equation roots.

The Bowen root h of a system is the zero of its pressure, the log leading
eigenvalue of the transfer operator

    L_s f(x) = sum_q |s_q'(x)|^s f(s_q(x)).

``bowen_solve`` takes its point ``h`` from a Chebyshev collocation of L_s
(``collocate``): the operator restricted to polynomial interpolants on
Chebyshev nodes, one grid per group of symbols, is a small dense matrix
whose leading eigenvalue lambda_N(s) converges to the operator's
exponentially in the node count for these analytic branches.  Newton steps
on log lambda_N find its zero to near machine precision.

The certificate beside it is the depth-n partition pressure

    P_n(t) = (1/n) log sum_w |s_w'|^t        (w over admissible depth-n words)

evaluated twice, once with certified per-word suprema and once with infima,
giving an upper and a lower figure.  On a full shift both are rigorous
two-sided bounds for the limit pressure (sup-sums are submultiplicative,
inf-sums supermultiplicative), so their roots bracket h; with a nontrivial
incidence matrix only the upper figure keeps that status, and the lower
end of the bracket is 0.  The gap between the two figures is at most
t * log(distortion bound) / depth.

``analytic_bowen_solve`` covers countable similitude families with a closed
form for log sum |a_i|^t, including the irregular ones whose pressure jumps
past zero without a root; it bisects, as that form has no slope.

All roots come from ``_find_root``.  ``Collocation.eigenpair`` is the one
eigen-solve, one power iteration for every system: the roots read its
eigenvalue and slope, and ``transfer`` reads the Gibbs data,
cylinder masses, entropy and Lyapunov exponent, off the same record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .systems import MapFamily, SystemSpec, level_log_derivatives

__all__ = [
    "ConvergenceFailure",
    "BowenSolution",
    "Collocation",
    "Eigenpair",
    "bowen_solve",
    "analytic_bowen_solve",
    "collocate",
    "collocation_shape",
    "default_depth",
]

EXACT_ZERO = 1e-15  # |pressure| below this counts as an exact hit
IRREGULAR_RESIDUAL = 1e-4  # larger leftover pressure at the root => no root
COLLOCATION_NODES = 32  # Chebyshev nodes per grid when some branch is not affine
COLLOCATION_SQUARINGS = 5  # the power iteration runs on L^(2^5), at every size
ROOT_TOL = 1e-15  # bracket width at which the collocation and closed-form roots stop
BRACKET_TOL = 1e-10  # bracket width at which the word-pressure roots stop
# Evaluations any one root may take: bisection from 2^40 down to ROOT_TOL
# needs about 131.
MAX_EVALUATIONS = 200


class ConvergenceFailure(RuntimeError):
    """An iterative solve ran out of iterations before reaching tolerance,
    or its answer contradicts its own certificate."""


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
    method: str  # "collocation" | "analytic"
    gap: float = 0.0  # word pressure bracket width at the root (collocation method)
    # the Eigenpair evaluated at h (collocation method)
    state: Eigenpair | None = field(default=None, repr=False, compare=False)


def default_depth(system: SystemSpec) -> int:
    """The word depth of the bracket when none is given: 1 on a similitude
    system, whose depth-1 pressures are already exact, else 12."""
    return 1 if system.is_similitude() else 12


def _log_sum(a: np.ndarray, t: float) -> tuple[float, float]:
    """log sum_i exp(t a_i) and its t-derivative sum_i a_i w_i / sum_i w_i,
    for an ascending, non-empty a and t >= 0.

    t a is then ascending too, so its last entry is the maximum and the
    shifted terms w_i = exp(t a_i - max) come out ascending: the sum is
    accumulated in ascending order, independent of the order in which the
    words were enumerated.  The slope is summed by numpy rather than BLAS,
    so it does not depend on the BLAS thread count.  The terms live in one
    array, worked in place: a level's fresh temporaries cost more than the
    arithmetic on them.
    """
    m = t * a[-1]
    w = np.multiply(a, t)
    w -= m
    np.exp(w, out=w)
    total = float(w.sum())
    return float(m) + math.log(total), float(np.multiply(w, a, out=w).sum()) / total


def _find_root(
    f: Callable[[float], Union[float, tuple[float, float]]],
    tol: float,
    max_iter: int,
    label: str,
    certified: tuple[float, float] = (0.0, 1.0),
) -> tuple[float, tuple[float, float], int]:
    """Find the sign change of a decreasing f on [0, inf); f may return +inf
    (counted as positive).  Returns (root, bracket, evaluations).

    ``certified`` = (floor, start) is a bracket known to hold the root.  The
    search bracket starts at [0, hi], with hi the first of start, 2 start,
    4 start, ... where f <= 0, and shrinks to width <= tol.  While f may
    still vanish above floor, an evaluation that would land below floor
    evaluates floor instead.  An f that returns a bare value is bisected,
    and the root is the midpoint of the final bracket.  An f that returns
    ``(value, slope)`` is stepped by Newton from each evaluated point
    whenever the Newton point lies strictly inside the bracket, by the
    midpoint otherwise.  A Newton step shorter than tol/2 means the iterates
    have converged from one side, so the next evaluation lands tol/2 past
    the last one, on the other side, to close the bracket.  Both bracket ends are then evaluated points, and the root
    is the evaluated point with the smallest |f|.

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

    floor, hi = certified
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
        if nxt < floor < hi:
            nxt = floor
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


# ---------------------------------------------------------------------------
# Chebyshev collocation of the transfer operator


@functools.lru_cache(maxsize=None)
def _chebyshev(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev points t_k of the second kind on [0, 1], ascending, and
    their barycentric weights (-1)^k, halved at the two ends.  A single
    point, the midpoint, when ``nodes == 1``.  Read-only: every call shares
    them."""
    if nodes == 1:
        t, weights = np.array([0.5]), np.array([1.0])
    else:
        k = np.arange(nodes)
        t = 0.5 - 0.5 * np.cos(np.pi * k / (nodes - 1))
        weights = np.where(k % 2, -1.0, 1.0)
        weights[[0, -1]] *= 0.5
    t.setflags(write=False)
    weights.setflags(write=False)
    return t, weights


def _grids(system: SystemSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    """Symbols share a collocation grid when the same symbols may precede
    them (equal incidence columns).  Returns the symbols sorted by grid,
    grid h holding the symbols ``bounds[h]:bounds[h + 1]`` of that order,
    then ``bounds``."""
    allowed, m = system.incidence, system.alphabet_size
    if allowed.strides == (0, 0) or allowed.all():
        # the full shift needs no sort: the default broadcast True or all
        # ones, so every column is the same
        return np.arange(m), (0, m)
    keys = np.packbits(allowed, axis=0)  # column j: its bits
    order = np.lexsort(keys)
    ranked = keys[:, order]
    starts = np.flatnonzero(np.concatenate(([True], (ranked[:, 1:] != ranked[:, :-1]).any(axis=0))))
    return order, tuple(starts.tolist()) + (order.size,)


def collocation_shape(system: SystemSpec) -> tuple[int, int]:
    """(grids, nodes per grid) of ``collocate(system)``: its matrix and
    that matrix's s-derivative hold 2 (grids * nodes)^2 entries, its
    interpolation weights branches * nodes^2."""
    return len(_grids(system)[1]) - 1, 1 if system.is_similitude() else COLLOCATION_NODES


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """The leading eigen-data of a collocation matrix L at one exponent s.

    ``left`` (l) and ``right`` (r) are the left and right leading
    eigenvectors, each normalised to sum one, over the unknowns grid by
    grid; ``eigenvalue`` is lambda_N(s) = (l . L r) / (l . r) and ``slope``
    d log lambda_N / ds = (l . D r) / (l . L r), D being L with each branch
    weighted by log|s_e'| as well.  ``residual`` is max |l L - lambda l|,
    ``density_residual`` max |L r - lambda r|, and ``passes`` counts the
    power-iteration passes that gave the two vectors.
    """

    s: float
    eigenvalue: float
    slope: float
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    passes: int
    residual: float
    density_residual: float


@dataclass(frozen=True, eq=False)
class Collocation:
    """L_s f(x) = sum_q |s_q'(x)|^s f(s_q(x)) collocated at Chebyshev nodes.

    The unknowns are the values of one function per grid at that grid's
    nodes x_k in [0, 1], grid by grid.  Branch e takes the nodes into its
    own symbol's grid, and it feeds every grid whose symbols may follow it:

        (L_s f)_g(x_k) = sum_{e feeds g} |s_e'(x_k)|^s f_{grid(e)}(s_e(x_k)),

    with f_{grid(e)} the barycentric interpolant of its node values.  The
    branches are the symbols ``order``, sorted by their own grid, grid h
    holding the branches ``bounds[h]:bounds[h + 1]``.
    ``factors[k, :, 0, e]`` is (1, log|s_e'(x_k)|), the weights of L and of
    its s-derivative relative to |s_e'(x_k)|^s; ``interpolation[k, e, l]``
    is the weight of node l of grid(e) at s_e(x_k), ``feeds[g, e]`` 1.0
    where branch e feeds grid g.
    """

    order: np.ndarray = field(repr=False)
    factors: np.ndarray = field(repr=False)
    interpolation: np.ndarray = field(repr=False)
    feeds: np.ndarray = field(repr=False)
    bounds: tuple[int, ...]

    def eigenpair(self, s: float) -> Eigenpair:
        """The leading eigen-data of the collocation matrix L at ``s``.

        Both vectors come from one power iteration on the pair (P, P^T),
        P = (L' + I)^32 by COLLOCATION_SQUARINGS squarings, L' being L
        scaled to a leading eigenvalue near one, whatever the number n of
        unknowns.  The identity keeps the leading eigenvalue alone on top,
        on every system: where the incidence is periodic, and where a
        negative discretisation eigenvalue of L outgrows the Perron root.
        From the uniform pair, each image is normalised to sum one, until
        two successive pairs differ by at most 1e-14 anywhere.  L and D
        share one (2, n, n) array, as do P and P^T.  A non-finite ``s``
        raises ``ValueError``; an ``s`` whose weights |s_e'(x_k)|^s
        overflow, or all underflow, or whose iteration meets a non-positive
        image or runs past 5000 passes, ``ConvergenceFailure``."""
        if not math.isfinite(s):
            raise ValueError(f"exponent must be finite, got {s!r}")
        with np.errstate(over="ignore"):
            both = np.exp(s * self.factors[:, 1:]) * self.factors  # [k, L or D, 1, e]
        if not np.isfinite(both).all():
            raise ConvergenceFailure(f"exponent s = {s!r} overflows the collocation weights |s_e'|^s")
        nodes, grids = self.factors.shape[0], len(self.bounds) - 1
        n = grids * nodes
        matrices = np.empty((2, grids, nodes, grids, nodes))  # L and D: [g, k, h, l]
        for h, (lo, hi) in enumerate(zip(self.bounds, self.bounds[1:])):
            fed = (both[..., lo:hi] * self.feeds[:, lo:hi]).reshape(nodes, 2 * grids, hi - lo)
            block = (fed @ self.interpolation[:, lo:hi]).reshape(nodes, 2, grids, nodes)
            matrices[:, :, :, h] = block.transpose(1, 2, 0, 3)
        matrices = matrices.reshape(2, n, n)
        mass = float(matrices[0].sum())  # (L 1)(x_k) summed over the nodes
        if not mass > 0.0:
            raise ConvergenceFailure(f"exponent s = {s!r} underflows the collocation weights |s_e'|^s")
        power = matrices[0] * (n / mass)
        power.flat[:: n + 1] += 1.0
        for _ in range(COLLOCATION_SQUARINGS):
            power = power @ power
        pair = np.array((power, power.T))
        del power
        vectors, drift, passes = np.full((2, n, 1), 0.5 / n), math.inf, 0
        while drift > 1e-14:
            passes += 1
            if passes > 5000:
                raise ConvergenceFailure(
                    f"power iteration did not settle within 5000 passes at s = {s!r} (last drift {drift:.3e})"
                )
            image = pair @ vectors
            total = float(image.sum())
            if not 0.0 < total < math.inf:
                raise ConvergenceFailure(
                    f"power iteration produced a non-positive image (sum={total}) at pass {passes}, s = {s!r}"
                )
            image /= total
            drift = float(np.abs(image - vectors).max())
            vectors = image
        right, left = vectors.reshape(2, n)
        images = matrices @ right  # L r and D r
        total, slope = images @ left
        eigenvalue = float(total) / float(left @ right)
        if not eigenvalue > 0.0:
            raise ConvergenceFailure(f"collocation eigenvalue {eigenvalue!r} at s = {s!r}")
        scale, left = right.sum(), left / left.sum()
        return Eigenpair(
            s=s,
            eigenvalue=eigenvalue,
            slope=float(slope) / float(total),
            left=left,
            right=right / scale,
            passes=passes,
            residual=float(np.abs(left @ matrices[0] - eigenvalue * left).max()),
            density_residual=float(np.abs(images[0] - eigenvalue * right).max()) / scale,
        )

    def root(
        self, label: str = "collocation", certified: tuple[float, float] = (0.0, 1.0)
    ) -> tuple[Eigenpair, int]:
        """The zero h of log lambda_N(s), by ``_find_root`` from the upper
        end of ``certified`` (Newton steps on the slope, none evaluated
        below its lower end while h may lie above it) down to a bracket
        ROOT_TOL wide or an exact hit; returns the eigenpair at h and the
        evaluations."""
        pairs: dict[float, Eigenpair] = {}

        def log_eigenvalue(t: float) -> tuple[float, float]:
            pair = pairs[t] = self.eigenpair(t)
            return math.log(pair.eigenvalue), pair.slope

        h, _, evals = _find_root(log_eigenvalue, ROOT_TOL, MAX_EVALUATIONS, label, certified)
        return pairs[h], evals


def collocate(system: SystemSpec) -> Collocation:
    """The collocation of L_s on ``system``: COLLOCATION_NODES Chebyshev
    nodes per grid, or one node when every branch is affine, since the
    eigenfunction is then constant on each grid.  Symbols share a grid when
    the same symbols may precede them (see ``_grids``), so the full shift
    has one grid."""
    order, bounds = _grids(system)
    t, weights = _chebyshev(1 if system.is_similitude() else COLLOCATION_NODES)
    a, b, c, d = system.coefficients[order].T
    x = t[:, None]  # [k, 1]: every branch's domain is [0, 1]
    den = c * x + d  # [k, e]
    factors = np.ones((den.shape[0], 2, 1, den.shape[1]))
    np.log(np.abs(a * d - b * c) / (den * den), out=factors[:, 1, 0])
    # barycentric weights, formed in place in the (k, e, l) array of
    # differences between the images and the nodes
    interpolation = ((a * x + b) / den)[:, :, None] - t
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(weights, interpolation, out=interpolation)
        total = interpolation.sum(axis=2)
    k, e = np.nonzero(~np.isfinite(total))
    if k.size:  # an image on a node, or so near that its weight overflows,
        near = np.abs(interpolation[k, e] / weights).argmax(axis=1)
        interpolation[k, e] = 0.0  # takes that node's value
        interpolation[k, e, near] = total[k, e] = 1.0
    interpolation /= total[:, :, None]
    return Collocation(
        order=order,
        factors=factors,
        interpolation=interpolation,
        feeds=system.incidence[order[:, None], order[list(bounds[:-1])]].T.astype(float),
        bounds=bounds,
    )


def bowen_solve(system: SystemSpec, depth: int = 12, collocation: Collocation | None = None) -> BowenSolution:
    """Collocation root ``h`` of the pressure, and the word bracket that
    certifies it.

    ``h`` is the zero of log lambda_N(s) of ``collocation``, by default
    ``collocate(system)``, found by ``Collocation.root`` from the upper end
    of the bracket, evaluating nothing below its lower end, down to a
    bracket ROOT_TOL wide; ``residual`` is log
    lambda_N(h) and ``state`` the ``Eigenpair`` at h.  The bracket comes
    from the depth-n level's log-derivatives, sorted once: the upper
    pressure alone gives ``bracket[1]``, its last exponent with non-positive
    pressure, or 1 if that root lies past 1 or a word's sup |s_w'| reaches 1
    so that the upper pressure never vanishes, since no subset of the line
    has dimension above 1.  On a full shift the lower pressure alone gives
    ``bracket[0]``, its last exponent with positive pressure; under a
    nontrivial incidence the lower pressure bounds nothing and
    ``bracket[0]`` is 0.  An exact hit of either solve widens to the
    interval its rounding leaves (see ``_find_root``), at 1 as well.  The
    bracket solves stop BRACKET_TOL wide, each of the (up to) three solves
    takes at most MAX_EVALUATIONS and ``iterations`` counts them all.
    ``gap`` is the upper less the lower depth-n pressure at ``h``.

    An ``h`` outside the bracket contradicts the certificate:
    ``ConvergenceFailure``.
    """
    sup, inf = level_log_derivatives(system, depth)
    sup.sort()
    inf.sort()
    label = f"bowen_solve({system.label or 'system'})"
    if collocation is None:
        collocation = collocate(system)

    def alone(a: np.ndarray) -> Callable[[float], tuple[float, ...]]:
        return lambda t: tuple(v / depth for v in _log_sum(a, t))

    lo, lower_evals = 0.0, 0
    if system.incidence.all():
        _, (lo, _), lower_evals = _find_root(alone(inf), BRACKET_TOL, MAX_EVALUATIONS, f"{label} lower")
    upper, hi, upper_evals = 1.0, 1.0, 0  # a word's sup |s_w'| reaching 1 bounds nothing
    if sup[-1] < 0.0:
        upper, (_, hi), upper_evals = _find_root(alone(sup), BRACKET_TOL, MAX_EVALUATIONS, f"{label} upper")
    if upper > 1.0:  # the line's dimension bounds h more tightly
        hi = 1.0
    # log lambda_N(hi) <= 0 too, unless h breaks the bracket
    pair, evals = collocation.root(label, (lo, hi))
    h = pair.s
    if not lo <= h <= hi:
        raise ConvergenceFailure(f"{label}: root {h!r} outside its certified bracket [{lo!r}, {hi!r}]")
    return BowenSolution(
        h=h,
        bracket=(lo, hi),
        residual=math.log(pair.eigenvalue),
        regular=True,
        depth=depth,
        iterations=evals + lower_evals + upper_evals,
        method="collocation",
        gap=_log_sum(sup, h)[0] / depth - _log_sum(inf, h)[0] / depth,
        state=pair,
    )


# ---------------------------------------------------------------------------
# closed-form path for countable similitude families


def analytic_bowen_solve(family: MapFamily) -> BowenSolution:
    """Root of the full-family pressure, or its jump point when no root
    exists.  Infinite pressure values are handled as 'positive' so the
    bisection also localizes the finiteness threshold of irregular families,
    which come back with regular=False and a negative residual.  The
    pressure is ``family.log_mass``, log sum_i |a_i|^t over the whole
    family; a family without one raises ``ValueError``.
    """
    if family.log_mass is None:
        raise ValueError(f"family {family.name!r} carries no closed-form mass")
    root, bracket, evals = _find_root(family.log_mass, ROOT_TOL, MAX_EVALUATIONS, f"analytic({family.name})")
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
