"""Admissible-word counts, the comparison metric used on the coding space,
and the finite-primitivity test of an incidence matrix.

Symbols are 0-based integers indexing the maps of a system.  A word is an
admissible tuple of symbols; admissibility is governed by an incidence
matrix, an m x m bool array whose (i, j) entry says whether symbol j may
follow symbol i (``SystemSpec.incidence``).  The full shift, where every
string is admissible, is the all-ones matrix.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "count_admissible",
    "comparison_distance",
    "finitely_primitive_witness",
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


PRIMITIVITY_MAX_LENGTH = 8  # longest connecting length searched


def finitely_primitive_witness(incidence: np.ndarray) -> Optional[int]:
    """The smallest connecting length p <= PRIMITIVITY_MAX_LENGTH, or None.

    p works when every ordered symbol pair (e, e') admits a word w of length
    exactly p with e-w-e' admissible, that is when every entry of A^(p+1) is
    positive.  None means no p in range works (e.g. the identity matrix,
    which is not primitive at all).
    """
    arr = incidence.astype(np.int64)
    reach = arr
    for p in range(1, PRIMITIVITY_MAX_LENGTH + 1):
        # 1 where a path of exactly p + 1 transitions exists
        reach = ((reach @ arr) > 0).astype(np.int64)
        if reach.all():
            return p
    return None
