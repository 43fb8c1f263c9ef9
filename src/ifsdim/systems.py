"""Contracting map systems on real intervals.

A system is a finite collection of injective contractions between vertex
intervals, together with an incidence matrix saying which map may follow
which; a plain IFS has the all-ones matrix, the full shift.  Two map kinds
are supported:

* ``similitude``: x -> a*x + b with 0 < |a| < 1,
* ``moebius-1d``: x -> 1/(q+x) on [0, 1] with integer q >= 1
  (|derivative| = 1/(q+x)^2, the continued-fraction branches).

Every branch is held as one 2x2 matrix (a, b, c, d), acting as
x -> (a x + b)/(c x + d) with |derivative| |ad - bc| / (c x + d)^2.
Everything downstream (pressure, conformal measures, transfer operators)
consumes the certified per-word derivative bounds produced here.  A word's
composite is again such a map, so its |derivative| is monotone on the word's
domain and its sup and inf are the two endpoint values, evaluated exactly by
the chain rule.  Their logs are padded outward by ``|log g| + 4 * depth``
units of roundoff, except on similitude systems, whose derivatives are
constant products of ratios.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .symbolic import IncidenceMatrix

__all__ = [
    "InvalidSystem",
    "SeparationError",
    "MapDescriptor",
    "SystemSpec",
    "LevelGeometry",
    "SimilitudeFamily",
    "ensure_separation",
    "level_geometry",
    "golden_family",
    "borderline_family",
    "cantor_system",
    "continued_fraction_system",
    "gdms_system",
]

_ROUNDOFF = 2.0**-53  # unit roundoff of float64


class InvalidSystem(ValueError):
    """The description does not define a usable contracting system."""


class SeparationError(InvalidSystem):
    """Depth-1 images fail the disjoint-interior separation condition."""


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class MapDescriptor:
    """One branch map.  ``domain_vertex``/``image_vertex`` index the vertex
    spaces the map goes between (both 0 for a plain IFS)."""

    kind: str  # "similitude" | "moebius-1d"
    ratio: float = 0.0  # similitude slope a
    offset: float = 0.0  # similitude intercept b
    q: int = 0  # moebius denominator shift
    domain_vertex: int = 0
    image_vertex: int = 0
    # (a, b, c, d): the branch acts as x -> (a x + b) / (c x + d)
    matrix: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == "similitude":
            if not (0.0 < abs(self.ratio) < 1.0):
                raise InvalidSystem(
                    f"similitude ratio must satisfy 0 < |a| < 1, got {self.ratio}"
                )
            matrix = (float(self.ratio), float(self.offset), 0.0, 1.0)
        elif self.kind == "moebius-1d":
            if int(self.q) != self.q or self.q < 1:
                raise InvalidSystem(f"moebius parameter must be an integer >= 1, got {self.q}")
            matrix = (0.0, 1.0, 1.0, float(self.q))
        else:
            raise InvalidSystem(f"unknown map kind {self.kind!r}")
        object.__setattr__(self, "matrix", matrix)

    @property
    def affine(self) -> bool:
        """c == 0: the branch is x -> a x + b, with constant derivative."""
        return self.matrix[2] == 0.0

    def at(self, x):
        """The branch and its |derivative| at x (elementwise on arrays):
        (a x + b) / (c x + d) and |ad - bc| / (c x + d)^2."""
        a, b, c, d = self.matrix
        den = c * x + d
        return (a * x + b) / den, abs(a * d - b * c) / den**2

    # Both are monotone on a domain, so their extremes are endpoint values.

    def apply_interval(self, lo, hi):
        """Exact image of [lo, hi]."""
        y0, y1 = self.at(lo)[0], self.at(hi)[0]
        return (y0, y1) if y0 <= y1 else (y1, y0)

    def deriv_abs_bounds(self, lo, hi):
        """Exact [min, max] of |derivative| over [lo, hi]."""
        v0, v1 = self.at(lo)[1], self.at(hi)[1]
        return (v0, v1) if v0 <= v1 else (v1, v0)


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class SystemSpec:
    """A validated map system.

    ``incidence`` may let map e' follow map e only where e' lands in the
    vertex space e starts from; the full shift (all ones) therefore needs
    every map on one vertex space.
    ``distortion_bound`` is the constant K with inf |s_w'| * K >= sup |s_w'|
    for every word w; ``word_contraction`` is the factor gamma with
    sup |s_w'| <= gamma^floor(|w|/2) (gamma^|w| for pure similitudes).
    """

    vertex_spaces: tuple[tuple[float, float], ...]
    maps: tuple[MapDescriptor, ...]
    incidence: IncidenceMatrix
    distortion_bound: float
    word_contraction: float
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.maps) < 2:
            raise InvalidSystem("a system needs at least two maps")
        if not self.vertex_spaces:
            raise InvalidSystem("at least one vertex space is required")
        for lo, hi in self.vertex_spaces:
            if not (lo < hi):
                raise InvalidSystem(f"degenerate vertex space [{lo}, {hi}]")
        nv = len(self.vertex_spaces)
        for m in self.maps:
            if not (0 <= m.domain_vertex < nv and 0 <= m.image_vertex < nv):
                raise InvalidSystem("map vertex index out of range")
            if m.kind == "moebius-1d":
                lo, hi = self.vertex_spaces[m.domain_vertex]
                if (lo, hi) != (0.0, 1.0):
                    raise InvalidSystem("moebius maps are defined on the vertex space [0, 1]")
        if self.incidence.size != len(self.maps):
            raise InvalidSystem("incidence size must match the number of maps")
        if nv > 1:  # on one vertex space every map may follow every map
            start, land = _vertices(self.maps)
            clash = self.incidence.allowed & (start[:, None] != land)
            if clash.any():
                e, e2 = np.argwhere(clash)[0]
                raise InvalidSystem(
                    f"incidence allows {e}->{e2} but map {e2} lands in vertex "
                    f"{land[e2]}, map {e} starts from {start[e]}"
                )
        if self.distortion_bound < 1.0:
            raise InvalidSystem("distortion bound must be >= 1")
        if not (0.0 < self.word_contraction < 1.0):
            raise InvalidSystem("word contraction factor must lie in (0, 1)")

    @property
    def alphabet_size(self) -> int:
        return len(self.maps)

    def is_similitude(self) -> bool:
        return all(m.affine for m in self.maps)

    def domain_of(self, symbol: int) -> tuple[float, float]:
        return self.vertex_spaces[self.maps[symbol].domain_vertex]


# ---------------------------------------------------------------------------
# bulk geometry: all admissible words of one depth at once


@dataclass
class LevelGeometry:
    """Vectorized word geometry for every admissible word of one depth,
    aligned with the lexicographic enumeration order."""

    log_sup: np.ndarray
    log_inf: np.ndarray
    image_lo: np.ndarray
    image_hi: np.ndarray

    @property
    def count(self) -> int:
        return self.log_sup.shape[0]


# One level: a command reuses its level across the root finder's
# evaluations, the cylinder measure and the density field, in sequence,
# while levels of earlier commands would only hold memory.
@functools.lru_cache(maxsize=1)
def level_geometry(system: SystemSpec, depth: int) -> LevelGeometry:
    """Exact images and certified derivative bounds for all depth-n words.

    One prepend pass, in lexicographic order, carries each word's images of
    the two endpoints of its last symbol's domain and, by the chain rule,
    |s_w'| there.  The composite s_w has a matrix M_w, so
    |s_w'(x)| = |det M_w| / (c_w x + d_w)^2 is monotone on that domain and
    the endpoint values are its sup and inf.  The running products have
    positive factors and cannot cancel.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    allowed = system.incidence.allowed

    # per word: images y and |s_w'| g at the two domain endpoints
    first = np.arange(system.alphabet_size)
    y, g = np.array(
        [mp.at(np.array(system.domain_of(e))) for e, mp in enumerate(system.maps)]
    ).transpose(1, 0, 2)
    for _ in range(depth - 1):
        parts = []
        for e, mp in enumerate(system.maps):
            # a map that every symbol may follow is prepended to every word
            keep = slice(None) if allowed[e].all() else allowed[e][first]
            ye, de = mp.at(y[keep])
            parts.append((np.full(ye.shape[0], e), ye, g[keep] * de))
        first, y, g = (np.concatenate(col) for col in zip(*parts))

    # Outward pad in log space: |log g| roundoffs cover the log's own
    # rounding (half an ulp), 4 per composition step the rounding of the
    # endpoint images and of the derivative products; against exact rational
    # values the error beyond the log's rounding stays under one per step.
    # A similitude system's derivatives are products of ratios, reported as
    # computed (floating-point identity), so they keep sup == inf.
    # Extremes of the two endpoint columns, taken elementwise: a reduction
    # along the length-2 axis costs about 75 times as much.
    roundoff = 0.0 if system.is_similitude() else _ROUNDOFF
    log_sup = np.log(np.maximum(g[:, 0], g[:, 1]))
    log_inf = np.log(np.minimum(g[:, 0], g[:, 1]))
    log_sup += roundoff * (np.abs(log_sup) + 4 * depth)
    log_inf -= roundoff * (np.abs(log_inf) + 4 * depth)
    image_lo, image_hi = np.minimum(y[:, 0], y[:, 1]), np.maximum(y[:, 0], y[:, 1])
    return LevelGeometry(log_sup, log_inf, image_lo, image_hi)


def _vertices(maps: Sequence[MapDescriptor]) -> np.ndarray:
    """Two rows: each map's domain vertex, then its image vertex."""
    return np.array([(m.domain_vertex, m.image_vertex) for m in maps]).T


# ---------------------------------------------------------------------------
# separation


def ensure_separation(system: SystemSpec) -> None:
    """Raise SeparationError, naming the first offending map or pair, unless
    every depth-1 image stays in its vertex space and the images within each
    image vertex space have pairwise disjoint interiors."""
    by_vertex: dict[int, list[tuple[int, float, float]]] = {}
    for e, mp in enumerate(system.maps):
        a, b = mp.apply_interval(*system.domain_of(e))
        vlo, vhi = system.vertex_spaces[mp.image_vertex]
        if a < vlo - 1e-12 or b > vhi + 1e-12:
            raise SeparationError(f"map {e} image [{a}, {b}] leaves its vertex space [{vlo}, {vhi}]")
        by_vertex.setdefault(mp.image_vertex, []).append((e, float(a), float(b)))
    for items in by_vertex.values():
        items.sort(key=lambda t: (t[1], t[2]))
        for (e1, _, b1), (e2, a2, _) in zip(items, items[1:]):
            if a2 < b1 - 1e-12:
                raise SeparationError(f"images of maps {e1} and {e2} overlap ({a2} < {b1})")


def _contraction(maps: Sequence[MapDescriptor], vertex_spaces) -> float:
    """gamma with sup|s_w'| <= gamma^floor(|w|/2) (word-level two-step bound)."""
    worst = 0.0
    for e, me in enumerate(maps):
        for e2, m2 in enumerate(maps):
            if me.domain_vertex != m2.image_vertex:
                continue
            lo, hi = vertex_spaces[m2.domain_vertex]
            ilo, ihi = m2.apply_interval(lo, hi)
            inner_hi = m2.deriv_abs_bounds(lo, hi)[1]
            outer_hi = me.deriv_abs_bounds(ilo, ihi)[1]
            worst = max(worst, float(inner_hi) * float(outer_hi))
    if not (0.0 < worst < 1.0):
        raise InvalidSystem(f"two-step contraction bound {worst} is not < 1")
    return worst


# ---------------------------------------------------------------------------
# named families


@dataclass(frozen=True)
class SimilitudeFamily:
    """A countable similitude family given by closed-form generators.

    ``log_mass(t)`` is the analytic log of sum_{i>=1} |a_i|^t (math.inf when
    the series diverges); it powers the exact pressure path for infinite
    systems.  ``truncate(n)`` cuts the finite sub-system on the first n maps.
    """

    name: str
    ratio_fn: Callable[[int], float] = field(compare=False)
    offset_fn: Callable[[int], float] = field(compare=False)
    log_mass: Optional[Callable[[float], float]] = field(compare=False, default=None)

    def truncate(self, n: int) -> SystemSpec:
        if n < 2:
            raise ValueError(f"truncation level must be >= 2, got {n}")
        maps = tuple(
            MapDescriptor("similitude", ratio=self.ratio_fn(i), offset=self.offset_fn(i))
            for i in range(1, n + 1)
        )
        return gdms_system(((0.0, 1.0),), maps, IncidenceMatrix.full(n), f"{self.name}[:{n}]")


@functools.lru_cache(maxsize=None)
def golden_family() -> SimilitudeFamily:
    """Geometric ratios a_i = 2^-(i+1), images packed left to right with a
    gap equal to each image, so everything sits in [0, 1] with room to spare.
    The full family's Bowen root is log((1+sqrt 5)/2)/log 2."""

    def log_mass(t: float) -> float:
        # sum_{i>=1} 2^(-(i+1)t) = x^2/(1-x) with x = 2^-t, divergent at t <= 0
        if t <= 0.0:
            return math.inf
        x = 2.0 ** (-t)
        return 2.0 * math.log(x) - math.log1p(-x)

    return SimilitudeFamily(
        name="golden",
        ratio_fn=lambda i: 2.0 ** (-(i + 1)),
        offset_fn=lambda i: 1.0 - 2.0 ** (-(i - 1)),
        log_mass=log_mass,
    )


@functools.lru_cache(maxsize=None)
def borderline_family() -> SimilitudeFamily:
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

    def offset(i: int) -> float:
        # slot for map i is [1 - 1/i, 1 - 1/(i+1)), width 1/(i(i+1));
        # the ratios decay like i^-2 / log^4 i so every image fits its slot
        return 1.0 - 1.0 / i

    return SimilitudeFamily(
        name="borderline",
        ratio_fn=lambda i: (c / (i * math.log(i + 1) ** 2)) ** 2,
        offset_fn=offset,
        log_mass=log_mass,
    )


@functools.lru_cache(maxsize=None)
def _borderline_base_sum() -> float:
    i = np.arange(1, 200_001, dtype=float)
    head = float(np.sort(1.0 / (i * np.log(i + 1) ** 2)).sum())
    return head + 1.0 / math.log(200_000.0)


def cantor_system(ratios: Sequence[float], label: str = "cantor") -> SystemSpec:
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
    maps = []
    pos = 0.0
    for r in ratios:
        maps.append(MapDescriptor("similitude", ratio=r, offset=pos))
        pos += r + gap
    return gdms_system(((0.0, 1.0),), maps, IncidenceMatrix.full(len(maps)), label)


def continued_fraction_system(n: int) -> SystemSpec:
    """The first n continued-fraction branches x -> 1/(q+x), q = 1..n.

    One-step distortion is (1+1/q)^2 <= 4; the digit-1 branch has
    |derivative| 1 at x = 0, so contraction is tracked at word level.
    """
    if n < 2:
        raise ValueError(f"need at least two digits, got {n}")
    maps = tuple(MapDescriptor("moebius-1d", q=q) for q in range(1, n + 1))
    label = f"continued-fraction[:{n}]"
    return gdms_system(((0.0, 1.0),), maps, IncidenceMatrix.full(n), label)


def gdms_system(
    vertex_spaces: Sequence[tuple[float, float]],
    maps: Sequence[MapDescriptor],
    incidence: Optional[IncidenceMatrix] = None,
    label: str = "gdms",
) -> SystemSpec:
    """Graph-directed system.  Without an incidence the matrix is derived
    from the vertex structure: e' may follow e exactly when map e starts
    where map e' lands."""
    maps = tuple(maps)
    vs = tuple((float(a), float(b)) for a, b in vertex_spaces)
    if incidence is None:
        start, land = _vertices(maps)
        incidence = IncidenceMatrix(start[:, None] == land)
    if all(m.affine for m in maps):  # no distortion, one-step contraction max|a|
        K, gamma = 1.0, max(abs(m.ratio) for m in maps)
    else:
        K, gamma = 4.0, _contraction(maps, vs)
    return SystemSpec(
        vertex_spaces=vs,
        maps=maps,
        incidence=incidence,
        distortion_bound=K,
        word_contraction=gamma,
        label=label,
    )
