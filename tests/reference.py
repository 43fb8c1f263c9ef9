"""Per-word reference implementations for the tests.

The package works on whole levels of words at once (``admissible_level``,
``level_geometry``, the sorted level sums in ``bowen_solve``).  These are
the one-word-at-a-time versions the tests hold the level code to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ifsdim.pressure import _level, _log_sum
from ifsdim.symbolic import IncidenceMatrix, Word
from ifsdim.systems import SystemSpec


def enumerate_admissible(matrix: IncidenceMatrix, depth: int) -> Iterator[Word]:
    """Yield all admissible words of the given depth in lexicographic order.

    The stream is lazy: callers can consume a prefix without paying for the
    whole level.  The reference for ``symbolic.admissible_level``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")

    def walk(prefix: tuple[int, ...]) -> Iterator[Word]:
        if len(prefix) == depth:
            yield Word(prefix)
            return
        for s in range(matrix.size):
            if prefix and not matrix.allowed[prefix[-1], s]:
                continue
            yield from walk(prefix + (s,))

    return walk(())


def word_image(system: SystemSpec, word: Word) -> tuple[float, float]:
    """Exact image interval of one word (maps composed innermost-first), one
    word at a time: the reference for ``LevelGeometry.image_lo``/``image_hi``."""
    _check_word(system, word)
    lo, hi = system.domains[word.symbols[-1]]
    for s in reversed(word.symbols):
        a, b, c, d = system.coefficients[s]
        y0, y1 = (a * lo + b) / (c * lo + d), (a * hi + b) / (c * hi + d)
        lo, hi = min(y0, y1), max(y0, y1)
    return lo, hi


def _check_word(system: SystemSpec, word: Word) -> None:
    m = system.alphabet_size
    if any(s >= m for s in word.symbols):
        raise ValueError(f"word {word} uses symbols outside the alphabet of size {m}")
    for a, b in zip(word.symbols, word.symbols[1:]):
        if not system.incidence.allowed[a, b]:
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
    lg = _level(system, depth)
    upper, lower = (_log_sum(np.sort(a), t)[0] for a in (lg.log_sup, lg.log_inf))
    return PressureEstimate(upper=upper / depth, lower=lower / depth)
