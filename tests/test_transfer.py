import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifsdim.pressure import ConvergenceFailure, Eigenpair, _power_iterate, bowen_solve, collocate
from ifsdim.symbolic import IncidenceMatrix, count_admissible
from ifsdim.systems import SystemSpec, cantor_system, continued_fraction_family, golden_family
from ifsdim.transfer import (
    DegenerateSystemError,
    ReducibilityError,
    cylinder_masses,
    gibbs_state,
    require_primitive,
)

from reference import cylinder_operator_root, enumerate_admissible, pressure, quadrature_masses

PHI = (1.0 + math.sqrt(5.0)) / 2.0
TERNARY_H = math.log(2.0) / math.log(3.0)


def fibonacci_system():
    rows = [(0.4, 0.0, 0.0, 1.0), (0.3, 0.5, 0.0, 1.0)]
    fibonacci = IncidenceMatrix(((1, 1), (1, 0)))
    return SystemSpec(rows, fibonacci, label="fibonacci")


def _masses(system, t, depth):
    col = collocate(system)
    return cylinder_masses(col, col.eigenpair(t), system.incidence, depth)


def _dense(col, t):
    """The collocation matrix L at t, entry by entry from the branch
    weights: L[g k, grid(e) l] sums |s_e'(x_k)|^t interpolation[k, e, l]
    over the branches e that feed grid g."""
    nodes, grids = col.factors.shape[0], len(col.bounds) - 1
    matrix = np.zeros((grids, nodes, grids, nodes))
    for e in range(col.order.size):
        h = np.searchsorted(col.bounds, e, side="right") - 1
        block = np.exp(t * col.factors[:, 1, 0, e])[:, None] * col.interpolation[:, e, :]
        for g in range(grids):
            if col.feeds[g, e]:
                matrix[g, :, h, :] += block
    return matrix.reshape(grids * nodes, grids * nodes)


def _dict_defect(words, invariant):
    head, tail = {}, {}
    for w, mass in zip(words.tolist(), invariant.tolist()):
        head[tuple(w[:-1])] = head.get(tuple(w[:-1]), 0.0) + mass
        tail[tuple(w[1:])] = tail.get(tuple(w[1:]), 0.0) + mass
    return max(abs(head.get(k, 0.0) - tail.get(k, 0.0)) for k in set(head) | set(tail))


def _moebius(*digits):
    """The continued-fraction branches x -> 1/(q + x) for q in ``digits``."""
    rows = [(0.0, 1.0, 1.0, q) for q in digits]
    return SystemSpec(rows, IncidenceMatrix.full(len(rows)))


# the config spelling `moebius:2; moebius:3; similitude:0.2:0; similitude:-0.3:0.9`
MIXED = SystemSpec(
    [(0.0, 1.0, 1.0, 2), (0.0, 1.0, 1.0, 3), (0.2, 0.0, 0.0, 1.0), (-0.3, 0.9, 0.0, 1.0)],
    IncidenceMatrix.full(4),
)

operator_systems = st.one_of(
    st.integers(2, 5).map(continued_fraction_family().truncate),
    st.lists(st.integers(1, 16), min_size=2, max_size=2, unique=True).map(
        lambda qs: _moebius(*sorted(qs))
    ),
    st.lists(st.floats(0.1, 0.3), min_size=2, max_size=3).map(cantor_system),
    st.just(fibonacci_system()),
    st.just(MIXED),
)


# ---------------------------------------------------------------------------
# the masses recursion


def test_zero_potential_full_shift_gives_all_ones_matrix():
    # at exponent 0 every branch weighs one, so each depth-k cylinder of the
    # two-map full shift carries 2^-k of either measure
    for depth in (1, 2, 3):
        masses = _masses(cantor_system((1 / 3, 1 / 3)), 0.0, depth)
        assert masses.eigenmeasure == pytest.approx([2.0**-depth] * 2**depth, rel=1e-15)
        assert masses.invariant == pytest.approx([2.0**-depth] * 2**depth, rel=1e-15)


def test_state_enumeration_matches_admissible_words():
    masses = _masses(fibonacci_system(), 0.5, 3)
    words = [tuple(w) for w in masses.words.tolist()]
    # lexicographic, and no word contains the forbidden 1->1 junction
    assert words == sorted(words)
    assert all((1, 1) not in zip(w, w[1:]) for w in words)
    assert len(words) == 5  # Fibonacci count at depth 3
    shorter = list(enumerate_admissible(fibonacci_system().incidence, 2))
    assert masses.tail.tolist() == [shorter.index(w[1:]) for w in words]


@given(operator_systems, st.integers(1, 6), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_array_operator_matches_the_per_word_reference(system, depth, t):
    while count_admissible(system.incidence, depth) > 1024:
        depth -= 1
    col = collocate(system)
    pair = col.eigenpair(t)
    masses = cylinder_masses(col, pair, system.incidence, depth)
    conformal, invariant = quadrature_masses(system, col, pair, depth)
    words = list(enumerate_admissible(system.incidence, depth))
    assert [tuple(w) for w in masses.words.tolist()] == words
    assert np.abs(masses.eigenmeasure / conformal - 1.0).max() <= 1e-13
    assert np.abs(masses.invariant / invariant - 1.0).max() <= 1e-13
    assert masses.shift_invariance_defect() == pytest.approx(
        _dict_defect(masses.words, masses.invariant), abs=1e-16
    )


def _on_incidence(system, rows):
    """``system``'s maps under the incidence given as ``"11;10"``."""
    incidence = IncidenceMatrix([[int(c) for c in row] for row in rows.split(";")])
    return dataclasses.replace(system, incidence=incidence, label=rows)


# (system, depth): depth 1 under custom incidences, deeper on CF{1,2}, CF{1,2,3}
SOLVE_CASES = [
    (_on_incidence(continued_fraction_family().truncate(2), "11;10"), 1),
    (_on_incidence(continued_fraction_family().truncate(3), "011;111;111"), 1),
    (fibonacci_system(), 1),
] + [(continued_fraction_family().truncate(m), d) for m in (2, 3) for d in (2, 3, 4, 5)]
SOLVE_IDS = ["cf2-incidence-11-10-d1", "cf3-incidence-011-111-111-d1", "fibonacci-d1"] + [
    f"cf{m}-d{d}" for m in (2, 3) for d in (2, 3, 4, 5)
]


@pytest.mark.parametrize(
    "system,depth",
    SOLVE_CASES
    + [(MIXED, 2), (MIXED, 3), (continued_fraction_family().truncate(2), 8), (fibonacci_system(), 4)],
    ids=SOLVE_IDS + ["mixed-d2", "mixed-d3", "cf2-d8", "fibonacci-d4"],
)
def test_masses_recursion_matches_the_quadrature(system, depth):
    col = collocate(system)
    pair, _ = col.root()
    masses = cylinder_masses(col, pair, system.incidence, depth)
    assert len(masses.words) == count_admissible(system.incidence, depth)
    conformal, invariant = quadrature_masses(system, col, pair, depth)
    assert np.abs(masses.eigenmeasure / conformal - 1.0).max() <= 1e-13
    assert np.abs(masses.invariant / invariant - 1.0).max() <= 1e-13


def test_similitude_weights_are_exact_ratio_powers():
    t = 0.7
    col = collocate(cantor_system((1 / 3, 1 / 3)))
    assert col.factors.shape[0] == 1  # one node: the eigenfunction is constant
    weights = np.exp(t * col.factors[:, 1, 0]).ravel()
    assert weights == pytest.approx([3.0**-t] * weights.size, rel=1e-15)
    assert col.eigenpair(t).eigenvalue == pytest.approx(2.0 * 3.0**-t, rel=1e-15)


def test_reducible_incidence_is_rejected():
    with pytest.raises(ReducibilityError):
        require_primitive(IncidenceMatrix(((1, 0), (0, 1))))
    require_primitive(fibonacci_system().incidence)


def test_operator_argument_validation():
    sys_ = cantor_system((1 / 3, 1 / 3))
    col = collocate(sys_)
    with pytest.raises(ValueError):
        cylinder_masses(col, col.eigenpair(0.5), sys_.incidence, 0)
    for exponent in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            col.eigenpair(exponent)


def test_no_operator_array_grows_with_the_square_of_the_states():
    cf = continued_fraction_family().truncate(2)
    col = collocate(cf)
    pair = col.eigenpair(0.53)
    tracemalloc.start()
    try:
        masses = cylinder_masses(col, pair, cf.incidence, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(masses.words) == 4096 and masses.words.shape == (4096, 12)
    # the largest array is the words; the deepest rows x nodes never exist
    assert peak < 4 * masses.words.nbytes
    # one dense words x words float array alone would take 134 MB
    assert peak < 8 * len(masses.words) ** 2 / 20


# ---------------------------------------------------------------------------
# eigenpairs


def test_zero_potential_eigenvalue_counts_branches():
    sys_ = cantor_system((1 / 3, 1 / 3))
    assert collocate(sys_).eigenpair(0.0).eigenvalue == pytest.approx(2.0, abs=1e-12)
    assert _masses(sys_, 0.0, 1).eigenmeasure == pytest.approx([0.5, 0.5], abs=1e-12)


def test_fibonacci_zero_potential_eigenpair_is_golden_ratio():
    col = collocate(fibonacci_system())
    pair = col.eigenpair(0.0)
    assert pair.eigenvalue == pytest.approx(PHI, abs=1e-12)
    masses = cylinder_masses(col, pair, fibonacci_system().incidence, 1)
    assert masses.eigenmeasure[0] / masses.eigenmeasure[1] == pytest.approx(PHI, abs=1e-12)
    # symbol 0 may follow both symbols, symbol 1 only 0: two grids of one node
    rho = pair.right[np.searchsorted(col.bounds, np.argsort(col.order), side="right") - 1]
    assert rho[0] / rho[1] == pytest.approx(PHI, abs=1e-12)


def test_eigenvalue_is_one_at_the_dimension_exponent():
    pair = collocate(cantor_system((1 / 3, 1 / 3))).eigenpair(TERNARY_H)
    assert pair.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert pair.residual < 1e-15 and pair.density_residual < 1e-15


@pytest.mark.parametrize("n", [2, 5, 8])
def test_golden_truncations_cross_one_at_their_bowen_roots(n):
    sys_n = golden_family().truncate(n)
    h_n = bowen_solve(sys_n, depth=1).h
    assert abs(collocate(sys_n).eigenpair(h_n).eigenvalue - 1.0) < 1e-12


def test_invariant_masses_match_conformal_cylinders_for_similitudes():
    sys3 = golden_family().truncate(3)
    h3 = bowen_solve(sys3, depth=1).h
    masses = _masses(sys3, h3, 2)
    # the closed form r_w^h, normalised at depth 2 as the masses are
    want = np.prod(np.abs(sys3.coefficients[masses.words, 0]) ** h3, axis=1)
    want /= want.sum()
    assert np.abs(masses.invariant - want).max() < 1e-12
    # for a Bernoulli similitude system the eigenmeasure itself is conformal
    assert np.abs(masses.eigenmeasure - want).max() < 1e-12


@pytest.mark.parametrize(
    "system", [cantor_system((0.4, 0.25)), continued_fraction_family().truncate(2)], ids=["sim", "cf"]
)
def test_invariant_mass_is_shift_stationary(system):
    masses = _masses(system, 0.6, 2)
    assert masses.invariant.sum() == pytest.approx(1.0, abs=1e-12)
    assert masses.shift_invariance_defect() < 1e-14


def test_spectral_and_word_pressure_agree_within_bracket():
    cf3 = continued_fraction_family().truncate(3)
    col = collocate(cf3)
    for t in (0.55, 0.7):
        est = pressure(cf3, t, depth=8)
        assert abs(math.log(col.eigenpair(t).eigenvalue) - est.value) <= est.gap + 1e-6


def test_eigenmeasure_iteration_budget_is_enforced():
    matrix = _dense(collocate(continued_fraction_family().truncate(2)), 0.5)
    with pytest.raises(ConvergenceFailure):
        _power_iterate(lambda v: matrix @ v, matrix.shape[0], 1e-14, 2)


@pytest.mark.parametrize("system,depth", SOLVE_CASES, ids=SOLVE_IDS)
@pytest.mark.parametrize("t", [0.5, 0.8])
def test_eigenmeasure_matches_the_dense_eigendecomposition(system, depth, t):
    col = collocate(system)
    pair = col.eigenpair(t)
    dense = _dense(col, t)
    values, right = np.linalg.eig(dense)
    top = np.argmax(values.real)
    values_t, left = np.linalg.eig(dense.T)
    ell = left[:, np.argmax(values_t.real)].real
    ell /= ell.sum()
    rho = right[:, top].real
    rho /= rho.sum()
    assert abs(pair.eigenvalue - values[top].real) <= 1e-12 * values[top].real
    assert np.abs(pair.left - ell).max() <= 1e-12 * np.abs(ell).max()
    assert np.abs(pair.right - rho).max() <= 1e-12 * rho.max()
    # and the masses those vectors give
    masses = cylinder_masses(col, pair, system.incidence, depth)
    exact = cylinder_masses(
        col, dataclasses.replace(pair, left=ell, right=rho), system.incidence, depth
    )
    assert np.abs(masses.eigenmeasure / exact.eigenmeasure - 1.0).max() <= 1e-11
    assert np.abs(masses.invariant / exact.invariant - 1.0).max() <= 1e-11


def test_truncated_eigenmeasures_stabilise_as_the_alphabet_grows():
    # same potential, growing truncation: the per-symbol masses settle down
    fam = golden_family()
    t = 0.694241913630617
    masses = {n: _masses(fam.truncate(n), t, 1) for n in (3, 4, 5, 6, 7)}
    diffs = []
    for n in (3, 4, 5, 6):
        a = masses[n].eigenmeasure
        b = masses[n + 1].eigenmeasure[: len(a)]
        diffs.append(np.abs(a - b).max())
    assert diffs == sorted(diffs, reverse=True)
    assert diffs[-1] < diffs[0] / 2


# ---------------------------------------------------------------------------
# entropy / Lyapunov


def test_ternary_entropy_and_lyapunov_are_the_classic_logs():
    state = gibbs_state(collocate(cantor_system((1 / 3, 1 / 3))).eigenpair(TERNARY_H))
    assert state.entropy == pytest.approx(math.log(2.0), abs=1e-12)
    assert state.lyapunov == pytest.approx(math.log(3.0), abs=1e-12)
    assert state.ratio == pytest.approx(TERNARY_H, abs=1e-12)


def test_unequal_bernoulli_ratio_matches_closed_form():
    # weights (0.4, 0.2) at exponent one give branch probabilities (2/3, 1/3)
    pair = collocate(cantor_system((0.4, 0.2))).eigenpair(1.0)
    assert pair.eigenvalue == pytest.approx(0.6, abs=1e-12)
    state = gibbs_state(pair)
    p = np.array([2 / 3, 1 / 3])
    assert state.entropy == pytest.approx(float(-(p * np.log(p)).sum()), abs=1e-12)
    assert state.lyapunov == pytest.approx(float(-(p * np.log([0.4, 0.2])).sum()), abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_dimension_ratio_reproduces_the_bowen_root(n):
    sol = bowen_solve(golden_family().truncate(n), depth=1)
    state = gibbs_state(sol.state)
    assert abs(state.ratio - sol.h) < 1e-12
    assert state.entropy >= 0.0
    assert 0.0 <= state.ratio <= 1.0


def test_deep_truncation_ratio_approaches_the_family_limit():
    sol = bowen_solve(golden_family().truncate(12), depth=1)
    assert abs(gibbs_state(sol.state).ratio - 0.694241913630617) < 1e-2


@given(operator_systems, st.floats(0.1, 1.0))
@settings(max_examples=20, deadline=None)
def test_entropy_is_the_block_entropy_limit_of_the_invariant_masses(system, t):
    # the entropy of mu is the limit of H(mu_n) - H(mu_(n-1)), the block
    # entropies of its depth-n masses, reached from above; log lambda + s chi
    # is that limit without the limit
    col = collocate(system)
    state = gibbs_state(col.eigenpair(t))
    depth = 1
    while count_admissible(system.incidence, depth + 1) <= 4096 and depth < 8:
        depth += 1
    blocks = []
    for d in (depth - 1, depth):
        mu = cylinder_masses(col, col.eigenpair(t), system.incidence, d).invariant
        blocks.append(float(-(mu * np.log(mu)).sum()))
    conditional = blocks[1] - blocks[0]
    assert state.entropy <= conditional + 1e-12
    assert conditional - state.entropy <= 0.02 * state.entropy


def test_zero_contraction_is_reported_as_degenerate():
    pair = collocate(cantor_system((1 / 3, 1 / 3))).eigenpair(0.0)
    with pytest.raises(DegenerateSystemError):
        gibbs_state(dataclasses.replace(pair, slope=0.0))


def test_eigenpair_residuals_are_checked():
    pair = collocate(continued_fraction_family().truncate(2)).eigenpair(0.5)
    with pytest.raises(ConvergenceFailure):
        gibbs_state(dataclasses.replace(pair, density_residual=1e-6))


# ---------------------------------------------------------------------------
# the root that gibbs solves


def test_operator_root_of_similitude_system_matches_word_root():
    sys5 = golden_family().truncate(5)
    pair, _ = collocate(sys5).root()
    assert pair.s == pytest.approx(bowen_solve(sys5, depth=1).h, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_operator_root_brings_the_eigenvalue_to_one(n):
    pair, _ = collocate(continued_fraction_family().truncate(n)).root()
    assert abs(pair.eigenvalue - 1.0) < 1e-12
    assert isinstance(pair, Eigenpair)


def test_operator_root_sharpens_as_states_deepen():
    # the cylinder operator of the tests' reference converges to the
    # collocation root as its words deepen
    target = bowen_solve(continued_fraction_family().truncate(2)).h
    errs = [
        abs(cylinder_operator_root(continued_fraction_family().truncate(2), k) - target) for k in (2, 4, 6)
    ]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3


def test_depth_one_operator_matches_exact_bernoulli():
    col = collocate(cantor_system((1 / 3, 1 / 3)))
    for t in (0.0, 0.5, 1.0):
        assert math.log(col.eigenpair(t).eigenvalue) == pytest.approx(math.log(2.0 * 3.0**-t), abs=1e-12)
    pair, _ = col.root()
    assert pair.s == pytest.approx(TERNARY_H, abs=1e-15)


def test_operator_root_is_exact_on_similitude_subshift():
    sys_ = fibonacci_system()
    root = collocate(sys_).root()[0].s
    # independent closed form: eigenvalue 1 of [[.4^t, .3^t], [.4^t, 0]]
    # happens exactly when 0.4^t + 0.12^t = 1
    lo, hi = 0.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.4**mid + 0.12**mid > 1.0:
            lo = mid
        else:
            hi = mid
    assert root == pytest.approx(0.5 * (lo + hi), abs=1e-12)
    # the collocation root is that Perron root at every word depth, while
    # the upper word pressure only converges O(1/depth) on a subshift, and
    # from above; watch its root, the bracket's upper end, drift toward it
    sols = [bowen_solve(sys_, depth=d) for d in (4, 8, 16)]
    assert all(sol.h == pytest.approx(root, abs=1e-12) for sol in sols)
    errs = [sol.bracket[1] - root for sol in sols]
    assert all(e > 0 for e in errs)
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 0.02


@st.composite
def cf_digit_systems(draw):
    """Continued-fraction maps x -> 1/(q+x) for 2-3 distinct digits q in 1..9."""
    digits = sorted(draw(st.lists(st.integers(1, 9), min_size=2, max_size=3, unique=True)))
    return _moebius(*digits)


@given(cf_digit_systems())
@settings(max_examples=25, deadline=None)
def test_operator_root_brackets_the_log_eigenvalue_zero(system):
    col = collocate(system)
    pair, evals = col.root()

    def logeig(t):
        return math.log(col.eigenpair(t).eigenvalue)

    # the returned pair is the evaluation at h, bit for bit
    again = col.eigenpair(pair.s)
    assert pair.eigenvalue == again.eigenvalue and pair.slope == again.slope
    assert np.array_equal(pair.left, again.left) and np.array_equal(pair.right, again.right)
    assert abs(math.log(pair.eigenvalue)) < 1e-14
    # independent reference: plain bisection on the same log-eigenvalue
    a, b = 0.0, 1.0
    assert logeig(b) <= 0.0
    while b - a > 1e-13:
        mid = 0.5 * (a + b)
        if logeig(mid) > 0.0:
            a = mid
        else:
            b = mid
    assert abs(pair.s - 0.5 * (a + b)) <= 1e-12


@given(cf_digit_systems())
@settings(max_examples=8, deadline=None)
def test_operator_root_lies_in_the_certified_word_bracket(system):
    # two independent solvers: the word sums' bracket, certified on a full
    # shift, holds the context-6 cylinder operator root and the collocation root
    lo, hi = bowen_solve(system, depth=8).bracket
    assert lo <= cylinder_operator_root(system, 6) <= hi
    assert lo <= collocate(system).root()[0].s <= hi


@pytest.mark.parametrize("t", [0.3, 0.6, 0.9])
def test_lyapunov_is_minus_the_log_eigenvalue_slope(t):
    col = collocate(continued_fraction_family().truncate(2))
    step = 1e-4
    logeig = [math.log(col.eigenpair(s).eigenvalue) for s in (t + step, t - step)]
    central = (logeig[0] - logeig[1]) / (2 * step)
    assert -gibbs_state(col.eigenpair(t)).lyapunov == pytest.approx(central, abs=1e-8)


def test_operator_root_takes_a_handful_of_evaluations():
    # bisection to ROOT_TOL, 1e-15, takes 50
    _, evals = collocate(continued_fraction_family().truncate(2)).root()
    assert evals <= 8
