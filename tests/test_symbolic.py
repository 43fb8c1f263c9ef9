import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifsdim.symbolic import (
    comparison_distance,
    count_admissible,
    finitely_primitive_witness,
)
from ifsdim.systems import InvalidSystem, SystemSpec

from reference import enumerate_admissible

FIB = np.array(((1, 1), (1, 0)), dtype=bool)
PAIR = ((0.0, 1.0, 1.0, 1.0), (0.0, 1.0, 1.0, 2.0))  # the branches 1/(1+x), 1/(2+x)


def full(size):
    """The full shift on ``size`` symbols, as a system without an incidence holds it."""
    return np.broadcast_to(True, (size, size))

words_st = st.lists(st.integers(0, 4), min_size=1, max_size=8).map(tuple)


def test_comparison_distance_values():
    # disagreement at the first slot: e^0
    assert comparison_distance((0, 1), (1, 1)) == 1.0
    # disagreement at slot 2: e^-1
    assert comparison_distance((0, 1), (0, 0)) == pytest.approx(math.exp(-1))
    # one word extends the other: separated just past the common part
    assert comparison_distance((0, 1), (0, 1, 2)) == pytest.approx(math.exp(-2))
    assert comparison_distance((0, 1), (0, 1)) == 0.0


@given(words_st, words_st, words_st)
def test_comparison_distance_is_an_ultrametric(a, b, c):
    dab = comparison_distance(a, b)
    assert dab == comparison_distance(b, a)
    assert (dab == 0.0) == (a == b)
    assert dab <= max(comparison_distance(a, c), comparison_distance(c, b)) + 1e-15


def test_enumerate_full_shift_is_lexicographic():
    got = list(enumerate_admissible(full(3), 2))
    assert got == sorted(itertools.product(range(3), repeat=2))


def test_enumerate_respects_incidence():
    got = list(enumerate_admissible(FIB, 4))
    want = [
        w
        for w in itertools.product(range(2), repeat=4)
        if all(FIB[a, b] for a, b in zip(w, w[1:]))
    ]
    assert got == want
    assert (1, 1, 0, 0) not in got


@pytest.mark.parametrize(
    "matrix,size",
    [
        (None, 2),
        (full(3), 3),
        (FIB, 2),
        (np.array(((0, 1, 0), (0, 0, 1), (1, 0, 0)), dtype=bool), 3),
    ],
)
@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_count_matches_enumeration(matrix, size, depth):
    # None: the full shift on `size` symbols, built here
    matrix = full(size) if matrix is None else matrix
    assert len(matrix) == size
    assert count_admissible(matrix, depth) == len(list(enumerate_admissible(matrix, depth)))


def test_count_is_exact_for_huge_word_sets():
    # object-dtype products keep integers exact far past 2**53
    assert count_admissible(full(10), 20) == 10**20
    assert count_admissible(full(64), 24) == 64**24
    # Fibonacci numbers: the words of length n count F(n + 2)
    assert count_admissible(FIB, 100) == 927372692193078999176


def test_incidence_is_one_read_only_bool_array():
    system = SystemSpec(PAIR, ((True, 0), (1.0, 1)))
    assert system.incidence.dtype == bool
    assert system.incidence.tolist() == [[True, False], [True, True]]
    with pytest.raises(ValueError):
        system.incidence[0, 1] = True
    # equality goes by the entries, whatever they were built from
    for same in (((1, 0), (1, 1)), np.array([[True, False], [True, True]])):
        assert system == SystemSpec(PAIR, same)
        assert hash(system) == hash(SystemSpec(PAIR, same))
    assert system != SystemSpec(PAIR, ((1, 1), (1, 1)))
    shift = SystemSpec(PAIR)  # no incidence: the full shift
    assert shift == SystemSpec(PAIR, np.ones((2, 2), dtype=int))
    assert hash(shift) == hash(SystemSpec(PAIR, np.ones((2, 2), dtype=int)))
    assert shift != SystemSpec(PAIR, ((1, 1), (1, 0)))
    assert shift.incidence.all() and shift.incidence.shape == (2, 2)
    # the full shift stores one entry, however many symbols it has
    many = SystemSpec(np.tile((0.5, 0.0, 0.0, 1.0), (100_000, 1)))
    assert many.incidence.shape == (100_000, 100_000) and many.incidence.strides == (0, 0)


@pytest.mark.parametrize(
    "rows,message",
    [
        ((), "non-empty"),
        (((1, 1), (1,)), "square"),
        (((1, 2), (1, 1)), "0 or 1"),
        ((("1", "0"), ("0", "1")), "0 or 1"),
        (((1, 1, 1), (1, 1, 1)), "square"),
        (np.ones((3, 3), dtype=bool), "size must match the number of maps"),
    ],
)
def test_incidence_rejects_bad_rows(rows, message):
    with pytest.raises(InvalidSystem, match=f"^incidence .*{message}"):
        SystemSpec(PAIR, rows)


def _connecting_lengths(matrix):
    """Lengths p in 1..8 at which every ordered pair (e, e') admits a word w
    of length p with e-w-e' admissible, by composing admissible steps."""
    n = len(matrix)
    steps = {(a, b) for a in range(n) for b in range(n) if matrix[a, b]}
    ends = {(a, a) for a in range(n)}  # (first, last) symbols of length-p words
    found = []
    for p in range(1, 9):
        linked = {
            (e, e2)
            for a, b in ends
            for e in range(n)
            for e2 in range(n)
            if (e, a) in steps and (b, e2) in steps
        }
        if len(linked) == n * n:
            found.append(p)
        ends = {(a, c) for a, b in ends for b2, c in steps if b2 == b}
    return found


def _positive_power_lengths(matrix):
    """Lengths p in 1..8 with every entry of A^(p+1) positive."""
    arr = matrix.astype(np.int64)
    return [p for p in range(1, 9) if (np.linalg.matrix_power(arr, p + 1) > 0).all()]


def test_witness_full_shift():
    assert finitely_primitive_witness(full(3)) == 1


def test_witness_fibonacci():
    # A^2 = [[2, 1], [1, 1]] is positive; 1 -> 1 needs the connecting word 0
    assert finitely_primitive_witness(FIB) == 1
    assert _connecting_lengths(FIB)[0] == 1


def test_witness_identity_has_none():
    assert finitely_primitive_witness(np.eye(2, dtype=bool)) is None


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_witness_words_always_chain(rows):
    # p is the smallest length with every entry of A^(p+1) positive, which is
    # the smallest length of connecting words for every ordered pair
    matrix = np.array(rows, dtype=bool)
    positive = _positive_power_lengths(matrix)
    assert positive == _connecting_lengths(matrix)
    assert finitely_primitive_witness(matrix) == (positive[0] if positive else None)
