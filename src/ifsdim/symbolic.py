"""Incidence matrices over an edge alphabet, admissible-word counts, the
comparison metric used on the coding space, and the finite-primitivity test.

Symbols are 0-based integers indexing the maps of a system.  A word is an
admissible tuple of symbols; admissibility is governed by an incidence
matrix whose (i, j) entry says whether symbol j may follow symbol i.  The
full shift, where every string is admissible, is the all-ones matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "IncidenceMatrix",
    "count_admissible",
    "comparison_distance",
    "finitely_primitive_witness",
]


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """0/1 transition matrix over the symbol alphabet.

    ``allowed`` is the matrix as a read-only bool array: allowed[i, j] says
    whether symbol j may follow symbol i.  It is built from a square bool
    array or any square array-like of 0/1 entries.  Matrices compare by
    their entries and hash by their shape, so a hash reads no entries.
    """

    allowed: np.ndarray

    def __post_init__(self) -> None:
        try:
            entries = np.asarray(self.allowed)
        except ValueError:  # ragged rows
            raise ValueError("incidence matrix must be square") from None
        if entries.size == 0:
            raise ValueError("incidence matrix must be non-empty")
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("incidence matrix must be square")
        if entries.dtype != bool:
            allowed = entries == 1
            if not (allowed | (entries == 0)).all():
                raise ValueError("incidence entries must be 0 or 1")
            entries = allowed
        allowed = entries.view()  # a bool array is held as given, read-only
        allowed.setflags(write=False)
        object.__setattr__(self, "allowed", allowed)

    @classmethod
    def full(cls, size: int) -> "IncidenceMatrix":
        """The full shift: every symbol may follow every symbol.  One entry,
        broadcast: a level-n truncation stores no n x n array."""
        return cls(np.broadcast_to(True, (size, size)))

    @property
    def size(self) -> int:
        return self.allowed.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceMatrix):
            return NotImplemented
        return np.array_equal(self.allowed, other.allowed)

    def __hash__(self) -> int:
        return hash(self.allowed.shape)


def count_admissible(matrix: IncidenceMatrix, depth: int) -> int:
    """Number of admissible depth-n words, ones . A^(n-1) . 1, in exact
    integers: one vector-matrix product per extra symbol."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    step = matrix.allowed.astype(object)
    paths = np.ones(matrix.size, dtype=object)
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


def finitely_primitive_witness(matrix: IncidenceMatrix) -> Optional[int]:
    """The smallest connecting length p <= PRIMITIVITY_MAX_LENGTH, or None.

    p works when every ordered symbol pair (e, e') admits a word w of length
    exactly p with e-w-e' admissible, that is when every entry of A^(p+1) is
    positive.  None means no p in range works (e.g. the identity matrix,
    which is not primitive at all).
    """
    arr = matrix.allowed.astype(np.int64)
    reach = arr
    for p in range(1, PRIMITIVITY_MAX_LENGTH + 1):
        # 1 where a path of exactly p + 1 transitions exists
        reach = ((reach @ arr) > 0).astype(np.int64)
        if reach.all():
            return p
    return None
