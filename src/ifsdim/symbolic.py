"""Admissible-word counts and the comparison metric used on the coding space.

Symbols are 0-based integers indexing the maps of a system.  A word is an
admissible tuple of symbols; admissibility is governed by an incidence
matrix, an m x m bool array whose (i, j) entry says whether symbol j may
follow symbol i (``SystemSpec.incidence``, which admits only irreducible
matrices).  The full shift, where every string is admissible, is the
all-ones matrix.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "count_admissible",
    "comparison_distance",
]


def count_admissible(incidence: np.ndarray, depth: int) -> int:
    """Number of admissible depth-n words, ones . A^(n-1) . 1, in exact
    integers: one vector-matrix product per extra symbol."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    step = incidence.astype(object)
    paths = np.ones(len(incidence), dtype=object)
    for _ in range(depth - 1):
        paths = step @ paths
    return int(paths.sum())


def comparison_distance(a: Sequence[int], b: Sequence[int]) -> float:
    """Distance e^(1-k) from the position k of first disagreement.

    Restricted to finite words: if the words agree on their whole common
    length, the first "disagreement" is taken just past the shorter word,
    so distinct-length extensions are still separated.  Equal words of equal
    length are at distance zero.
    """
    common = min(len(a), len(b))
    for k in range(common):
        if a[k] != b[k]:
            return math.exp(1 - (k + 1))
    if len(a) == len(b):
        return 0.0
    return math.exp(1 - (common + 1))
