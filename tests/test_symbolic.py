import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ifsdim.symbolic import comparison_distance, count_admissible
from ifsdim.systems import InvalidSystem, SystemSpec

from reference import enumerate_admissible, reaching_pairs

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
    system = SystemSpec(PAIR, ((True, 1), (1.0, 0)))
    assert system.incidence.dtype == bool
    assert system.incidence.tolist() == [[True, True], [True, False]]
    with pytest.raises(ValueError):
        system.incidence[1, 1] = True
    # the same entries, whatever they were built from
    for same in (((1, 1), (1, 0)), np.array([[True, True], [True, False]])):
        assert np.array_equal(system.incidence, SystemSpec(PAIR, same).incidence)
    assert not np.array_equal(system.incidence, SystemSpec(PAIR, ((1, 1), (1, 1))).incidence)
    shift = SystemSpec(PAIR)  # no incidence: the full shift
    assert np.array_equal(shift.incidence, SystemSpec(PAIR, np.ones((2, 2), dtype=int)).incidence)
    assert not np.array_equal(shift.incidence, SystemSpec(PAIR, ((1, 1), (1, 0))).incidence)
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


def _maps(size):
    """``size`` disjoint similitudes of ratio 0.5/size on [0, 1]."""
    return [(0.5 / size, e / size, 0.0, 1.0) for e in range(size)]


def test_witness_full_shift():
    # written out, the full shift is checked and admitted as given
    rows = [[1, 1, 1]] * 3
    assert reaching_pairs(rows) == set(itertools.product(range(3), repeat=2))
    assert SystemSpec(_maps(3), rows).incidence.tolist() == full(3).tolist()


def test_witness_fibonacci():
    # 1 -> 1 needs the connecting word 0; every other pair chains directly
    assert reaching_pairs(FIB) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert (1, 0, 1) in enumerate_admissible(FIB, 3)
    assert SystemSpec(_maps(2), FIB).incidence.tolist() == FIB.tolist()


def test_witness_identity_has_none():
    # no admissible word leads from one map to the other: refused, naming the pair
    identity = np.eye(2, dtype=bool)
    assert reaching_pairs(identity) == {(0, 0), (1, 1)}
    with pytest.raises(InvalidSystem, match=r"^incidence is not irreducible: map 0 does not reach map 1$"):
        SystemSpec(_maps(2), identity)


@settings(derandomize=True, max_examples=200, deadline=None)
@example([[0, 1], [1, 0]])  # parity: periodic, irreducible all the same
@example([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 0, 0, 0]])  # Wielandt: primitive, exponent 17
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_witness_words_always_chain(rows):
    # SystemSpec admits exactly the incidences in which admissible words chain
    # every map to every map, and a refusal names a pair that does not chain
    reach = reaching_pairs(rows)
    if len(reach) == len(rows) ** 2:
        assert SystemSpec(_maps(len(rows)), rows).incidence.tolist() == np.array(rows, dtype=bool).tolist()
        return
    with pytest.raises(InvalidSystem, match=r"^incidence is not irreducible: map \d does not reach map \d$") as err:
        SystemSpec(_maps(len(rows)), rows)
    assert tuple(int(e) for e in re.findall(r"\d", str(err.value))) not in reach
