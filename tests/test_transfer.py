import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifsdim.measures import conformal_cylinder_measure
from ifsdim.pressure import ConvergenceFailure, bowen_solve
from ifsdim.symbolic import IncidenceMatrix, Word, count_admissible
from ifsdim.systems import (
    MapDescriptor,
    cantor_system,
    continued_fraction_system,
    gdms_system,
    golden_family,
)
from ifsdim.transfer import (
    DegenerateSystemError,
    ReducibilityError,
    build_operator,
    eigenmeasure,
    entropy_lyapunov,
    operator_bowen_solve,
)

from reference import enumerate_admissible, pressure, word_image

PHI = (1.0 + math.sqrt(5.0)) / 2.0
TERNARY_H = math.log(2.0) / math.log(3.0)


def fibonacci_system():
    maps = (
        MapDescriptor("similitude", ratio=0.4, offset=0.0),
        MapDescriptor("similitude", ratio=0.3, offset=0.5),
    )
    fibonacci = IncidenceMatrix(((1, 1), (1, 0)))
    return gdms_system(((0.0, 1.0),), maps, incidence=fibonacci, label="fibonacci")


# ---------------------------------------------------------------------------
# operator assembly


def test_zero_potential_full_shift_gives_all_ones_matrix():
    op = build_operator(cantor_system((1 / 3, 1 / 3)), depth=1)
    assert op.matrix.tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert eigenmeasure(op, 0.0).variation_bound == 0.0


def test_state_enumeration_matches_admissible_words():
    op = build_operator(fibonacci_system(), depth=3)
    symbols = [tuple(w) for w in op.symbols.tolist()]
    # lexicographic, and no word contains the forbidden 1->1 junction
    assert symbols == sorted(symbols)
    assert all((1, 1) not in zip(s, s[1:]) for s in symbols)
    assert len(symbols) == 5  # Fibonacci count at depth 3


def _per_word_operator(system, depth):
    """The operator one Word at a time: states from enumerate_admissible,
    context images from word_image, successors through a dict."""
    words = [w.symbols for w in enumerate_admissible(system.incidence, depth)]
    index = {w: i for i, w in enumerate(words)}
    matrix = np.zeros((len(words), len(words)))
    mid, width = [], []
    for j, w in enumerate(words):
        lo, hi = word_image(system, Word(w[1:])) if depth > 1 else system.domains[w[0]]
        a, b, c, d = system.coefficients[w[0]]
        dmin, dmax = sorted(abs(a * d - b * c) / (c * x + d) ** 2 for x in (lo, hi))
        mid.append(0.5 * (math.log(dmin) + math.log(dmax)))
        width.append(math.log(dmax) - math.log(dmin))
        for e in range(system.alphabet_size):
            if system.incidence.allowed[w[-1], e] and w[1:] + (e,) in index:
                matrix[index[w[1:] + (e,)], j] = 1.0
    return np.array(words), matrix, np.array(mid), max(width)


def _dict_defect(words, invariant):
    head, tail = {}, {}
    for w, mass in zip(words.tolist(), invariant.tolist()):
        head[tuple(w[:-1])] = head.get(tuple(w[:-1]), 0.0) + mass
        tail[tuple(w[1:])] = tail.get(tuple(w[1:]), 0.0) + mass
    return max(abs(head.get(k, 0.0) - tail.get(k, 0.0)) for k in set(head) | set(tail))


def _moebius(*digits):
    return gdms_system(((0.0, 1.0),), [MapDescriptor("moebius-1d", q=q) for q in digits])


# the config spelling `moebius:2; moebius:3; similitude:0.2:0; similitude:-0.3:0.9`
MIXED = gdms_system(
    ((0.0, 1.0),),
    (
        MapDescriptor("moebius-1d", q=2),
        MapDescriptor("moebius-1d", q=3),
        MapDescriptor("similitude", ratio=0.2, offset=0.0),
        MapDescriptor("similitude", ratio=-0.3, offset=0.9),
    ),
)

operator_systems = st.one_of(
    st.integers(2, 5).map(continued_fraction_system),
    st.lists(st.integers(1, 16), min_size=2, max_size=2, unique=True).map(
        lambda qs: _moebius(*sorted(qs))
    ),
    st.lists(st.floats(0.1, 0.3), min_size=2, max_size=3).map(cantor_system),
    st.just(fibonacci_system()),
    st.just(MIXED),
)


@given(operator_systems, st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_array_operator_matches_the_per_word_reference(system, depth):
    while count_admissible(system.incidence, depth) > 1024:
        depth -= 1
    op = build_operator(system, depth)
    words, matrix, mid, width = _per_word_operator(system, depth)
    assert np.array_equal(op.symbols, words)
    assert np.array_equal(op.matrix, matrix)
    assert (np.abs(op.state_log_mid - mid) <= 1e-15 * np.abs(mid)).all()
    assert abs(op.log_width - width) <= 1e-15 * width
    state = eigenmeasure(op, 0.5)
    assert state.shift_invariance_defect() == _dict_defect(words, state.invariant)


def test_similitude_weights_are_exact_ratio_powers():
    t = 0.7
    op = build_operator(cantor_system((1 / 3, 1 / 3)), depth=2)
    assert set(op.matrix.flat) == {0.0, 1.0}
    weights = np.exp(t * op.state_log_mid)
    assert weights == pytest.approx([3.0**-t] * weights.size, rel=1e-15)


def test_reducible_incidence_is_rejected():
    maps = (
        MapDescriptor("similitude", ratio=0.4, offset=0.0),
        MapDescriptor("similitude", ratio=0.4, offset=0.6),
    )
    two_islands = gdms_system(((0.0, 1.0),), maps, incidence=IncidenceMatrix(((1, 0), (0, 1))))
    with pytest.raises(ReducibilityError):
        build_operator(two_islands)


def test_operator_argument_validation():
    sys_ = cantor_system((1 / 3, 1 / 3))
    with pytest.raises(ValueError):
        build_operator(sys_, depth=0)
    op = build_operator(sys_, depth=1)
    for exponent in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            eigenmeasure(op, exponent)


def test_variation_bound_shrinks_with_state_depth():
    cf = continued_fraction_system(2)
    bounds = [
        eigenmeasure(build_operator(cf, depth=k), 0.5).variation_bound
        for k in (1, 2, 3, 4)
    ]
    assert all(b > 0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)


def _on_incidence(system, rows):
    """``system``'s maps under the incidence given as ``"11;10"``."""
    incidence = IncidenceMatrix([[int(c) for c in row] for row in rows.split(";")])
    return dataclasses.replace(system, incidence=incidence, label=rows)


# (system, depth): depth 1 under custom incidences, deeper on CF{1,2}, CF{1,2,3}
SOLVE_CASES = [
    (_on_incidence(continued_fraction_system(2), "11;10"), 1),
    (_on_incidence(continued_fraction_system(3), "011;111;111"), 1),
    (fibonacci_system(), 1),
] + [(continued_fraction_system(m), d) for m in (2, 3) for d in (2, 3, 4, 5)]
SOLVE_IDS = ["cf2-incidence-11-10-d1", "cf3-incidence-011-111-111-d1", "fibonacci-d1"] + [
    f"cf{m}-d{d}" for m in (2, 3) for d in (2, 3, 4, 5)
]


def _weighted(op, t):
    """The dense weighted one-step matrix M W, W = diag(exp(t * state_log_mid))."""
    return op.matrix * np.exp(t * op.state_log_mid)[None, :]


@pytest.mark.parametrize(
    "system,depth", SOLVE_CASES + [(MIXED, 2), (MIXED, 3)], ids=SOLVE_IDS + ["mixed-d2", "mixed-d3"]
)
def test_two_step_paths_are_the_words_two_symbols_longer(system, depth):
    op = build_operator(system, depth)
    assert op.rows2.size == op.via2.size == op.cols2.size
    assert op.rows2.size == count_admissible(system.incidence, depth + 2)
    t = 0.6
    w = np.exp(t * op.state_log_mid)
    two_step = np.zeros((len(op), len(op)))
    np.add.at(two_step, (op.rows2, op.cols2), w[op.via2] * w[op.cols2])
    dense = _weighted(op, t) @ _weighted(op, t)
    assert np.abs(two_step - dense).max() <= 1e-14 * np.abs(dense).max()


def test_no_operator_array_grows_with_the_square_of_the_states():
    cf = continued_fraction_system(2)
    paths = count_admissible(cf.incidence, 12 + 2)
    tracemalloc.start()
    try:
        op = build_operator(cf, 12)
        state = eigenmeasure(op, 0.53)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(op) == 4096 and paths == 16384
    arrays = [getattr(op, f.name) for f in dataclasses.fields(op)]
    arrays += [getattr(state, f.name) for f in dataclasses.fields(state)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray) and a is not op.symbols]
    # the words hold depth symbols per state; every other array at most one
    # entry per two-step path
    assert op.symbols.shape == (len(op), 12)
    assert max(a.size for a in arrays) <= paths
    # one dense states x states float array alone would take 134 MB
    assert peak < 8 * len(op) ** 2 / 20


# ---------------------------------------------------------------------------
# eigenpairs


def test_zero_potential_eigenvalue_counts_branches():
    state = eigenmeasure(build_operator(cantor_system((1 / 3, 1 / 3)), depth=1), 0.0)
    assert state.eigenvalue == pytest.approx(2.0, abs=1e-12)
    assert state.eigenmeasure == pytest.approx([0.5, 0.5], abs=1e-12)


def test_fibonacci_zero_potential_eigenpair_is_golden_ratio():
    state = eigenmeasure(build_operator(fibonacci_system(), depth=1), 0.0)
    assert state.eigenvalue == pytest.approx(PHI, abs=1e-8)
    assert state.eigenmeasure[0] / state.eigenmeasure[1] == pytest.approx(PHI, abs=1e-8)
    assert state.density[0] / state.density[1] == pytest.approx(PHI, abs=1e-8)


def test_eigenvalue_is_one_at_the_dimension_exponent():
    state = eigenmeasure(build_operator(cantor_system((1 / 3, 1 / 3)), depth=1), TERNARY_H)
    assert state.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert state.residual < 1e-8 and state.density_residual < 1e-8


@pytest.mark.parametrize("n", [2, 5, 8])
def test_golden_truncations_cross_one_at_their_bowen_roots(n):
    sys_n = golden_family().truncate(n)
    h_n = bowen_solve(sys_n, depth=1).h
    state = eigenmeasure(build_operator(sys_n, depth=1), h_n)
    assert abs(state.eigenvalue - 1.0) < 1e-6


def test_invariant_masses_match_conformal_cylinders_for_similitudes():
    sys3 = golden_family().truncate(3)
    h3 = bowen_solve(sys3, depth=1).h
    state = eigenmeasure(build_operator(sys3, depth=2), h3)
    conformal = conformal_cylinder_measure(sys3, h3, depth=2)
    masses = np.array([conformal.mass_of(Word(tuple(w))) for w in state.operator.symbols.tolist()])
    assert np.abs(state.invariant - masses).max() < 1e-12
    # for a Bernoulli similitude system the eigenmeasure itself is conformal
    assert np.abs(state.eigenmeasure - masses).max() < 1e-12


@pytest.mark.parametrize(
    "system", [cantor_system((0.4, 0.25)), continued_fraction_system(2)], ids=["sim", "cf"]
)
def test_invariant_mass_is_shift_stationary(system):
    state = eigenmeasure(build_operator(system, depth=2), 0.6)
    assert state.invariant.sum() == pytest.approx(1.0, abs=1e-12)
    assert state.shift_invariance_defect() < 1e-8


def test_spectral_and_word_pressure_agree_within_bracket():
    cf3 = continued_fraction_system(3)
    for t in (0.55, 0.7):
        state = eigenmeasure(build_operator(cf3, depth=2), t)
        est = pressure(cf3, t, depth=8)
        assert abs(state.log_eigenvalue - est.value) <= est.gap + 1e-6


def test_eigenmeasure_iteration_budget_is_enforced():
    op = build_operator(continued_fraction_system(2), depth=2)
    with pytest.raises(ConvergenceFailure):
        eigenmeasure(op, 0.5, max_iters=2)


@pytest.mark.parametrize("system,depth", SOLVE_CASES, ids=SOLVE_IDS)
@pytest.mark.parametrize("t", [0.5, 0.8])
def test_eigenmeasure_matches_the_dense_eigendecomposition(system, depth, t):
    op = build_operator(system, depth)
    state = eigenmeasure(op, t)
    dense = _weighted(op, t)
    values, right = np.linalg.eig(dense)
    top = np.argmax(values.real)
    values_t, left = np.linalg.eig(dense.T)
    mu = left[:, np.argmax(values_t.real)].real
    mu /= mu.sum()
    g = right[:, top].real
    g /= np.dot(mu, g)
    assert abs(state.eigenvalue - values[top].real) <= 1e-12 * values[top].real
    assert (np.abs(state.eigenmeasure - mu) <= 1e-12 * mu).all()
    assert (np.abs(state.density - g) <= 1e-12 * g).all()


def test_truncated_eigenmeasures_stabilise_as_the_alphabet_grows():
    # same potential, growing truncation: the per-state masses settle down
    fam = golden_family()
    t = 0.694241913630617
    states = {n: eigenmeasure(build_operator(fam.truncate(n), depth=1), t) for n in (3, 4, 5, 6, 7)}
    diffs = []
    for n in (3, 4, 5, 6):
        a = states[n].eigenmeasure
        b = states[n + 1].eigenmeasure[: len(a)]
        diffs.append(np.abs(a - b).max())
    assert diffs == sorted(diffs, reverse=True)
    assert diffs[-1] < diffs[0] / 2


# ---------------------------------------------------------------------------
# entropy / Lyapunov


def test_ternary_entropy_and_lyapunov_are_the_classic_logs():
    state = eigenmeasure(build_operator(cantor_system((1 / 3, 1 / 3)), depth=1), TERNARY_H)
    el = entropy_lyapunov(state)
    assert el.entropy == pytest.approx(math.log(2.0), abs=1e-12)
    assert el.lyapunov == pytest.approx(math.log(3.0), abs=1e-12)
    assert el.ratio == pytest.approx(TERNARY_H, abs=1e-12)


def test_unequal_bernoulli_ratio_matches_closed_form():
    # weights (0.4, 0.2) at exponent one give branch probabilities (2/3, 1/3)
    sys_ = cantor_system((0.4, 0.2))
    state = eigenmeasure(build_operator(sys_, depth=1), 1.0)
    assert state.eigenvalue == pytest.approx(0.6, abs=1e-12)
    p = np.array([2 / 3, 1 / 3])
    want_entropy = float(-(p * np.log(p)).sum())
    want_lyapunov = float(-(p * np.log([0.4, 0.2])).sum())
    el = entropy_lyapunov(state)
    assert el.entropy == pytest.approx(want_entropy, abs=1e-10)
    assert el.lyapunov == pytest.approx(want_lyapunov, abs=1e-10)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_dimension_ratio_reproduces_the_bowen_root(n):
    sys_n = golden_family().truncate(n)
    h_n = bowen_solve(sys_n, depth=1).h
    el = entropy_lyapunov(eigenmeasure(build_operator(sys_n, depth=1), h_n))
    assert abs(el.ratio - h_n) < 1e-6
    assert el.entropy >= 0.0
    assert 0.0 <= el.ratio <= 1.0


def test_deep_truncation_ratio_approaches_the_family_limit():
    sys12 = golden_family().truncate(12)
    h12 = bowen_solve(sys12, depth=1).h
    el = entropy_lyapunov(eigenmeasure(build_operator(sys12, depth=1), h12))
    assert abs(el.ratio - 0.694241913630617) < 1e-2


def _dense_entropy(state):
    """The entropy rate over every entry of the n x n transition matrix."""
    op, g = state.operator, state.density
    mat = op.matrix * np.exp(state.exponent * op.state_log_mid)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(mat > 0, (mat * g[None, :]) / (state.eigenvalue * g[:, None]), 0.0)
        p /= p.sum(axis=1)[:, None]
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    return float(-(state.invariant[:, None] * plogp).sum())


@given(operator_systems, st.integers(1, 6), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_entropy_over_the_non_zeros_matches_the_dense_matrix(system, depth, t):
    while count_admissible(system.incidence, depth) > 1024:
        depth -= 1
    op = build_operator(system, depth)
    pairs = sorted(zip(op.rows.tolist(), op.cols.tolist()))
    assert pairs == sorted(zip(*(a.tolist() for a in np.nonzero(op.matrix))))
    state = eigenmeasure(op, t)
    dense = _dense_entropy(state)
    assert abs(entropy_lyapunov(state).entropy - dense) <= 1e-14 * dense


def test_zero_contraction_is_reported_as_degenerate():
    op = build_operator(cantor_system((1 / 3, 1 / 3)), depth=1)
    flat = dataclasses.replace(op, state_log_mid=np.zeros(len(op)))
    with pytest.raises(DegenerateSystemError):
        entropy_lyapunov(eigenmeasure(flat, 0.0))


# ---------------------------------------------------------------------------
# operator-side Bowen root


def test_operator_root_of_similitude_system_matches_word_root():
    sys5 = golden_family().truncate(5)
    assert operator_bowen_solve(build_operator(sys5, depth=1)).h == pytest.approx(
        bowen_solve(sys5, depth=1).h, abs=1e-9
    )


@pytest.mark.parametrize("n", [2, 3])
def test_operator_root_brings_the_eigenvalue_to_one(n):
    cf = continued_fraction_system(n)
    sol = operator_bowen_solve(build_operator(cf, depth=2))
    state = eigenmeasure(build_operator(cf, depth=2), sol.h)
    assert abs(state.eigenvalue - 1.0) < 1e-6
    assert sol.method == "operator"


def test_operator_root_sharpens_as_states_deepen():
    # reference value from the depth-16 cylinder-refinement solve
    target = 0.531280506367
    errs = [
        abs(operator_bowen_solve(build_operator(continued_fraction_system(2), depth=k)).h - target)
        for k in (2, 4, 6)
    ]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3


def test_depth_one_operator_matches_exact_bernoulli():
    op = build_operator(cantor_system((1 / 3, 1 / 3)), depth=1)
    for t in (0.0, 0.5, 1.0):
        assert eigenmeasure(op, t).log_eigenvalue == pytest.approx(
            math.log(2.0 * 3.0**-t), abs=1e-12
        )
    sol = operator_bowen_solve(op, tol=1e-12)
    assert sol.h == pytest.approx(TERNARY_H, abs=1e-10)
    assert sol.method == "operator"


def test_operator_root_is_exact_on_similitude_subshift():
    sys_ = fibonacci_system()
    root = operator_bowen_solve(build_operator(sys_, depth=1), tol=1e-12).h
    # independent closed form: eigenvalue 1 of [[.4^t, .3^t], [.4^t, 0]]
    # happens exactly when 0.4^t + 0.12^t = 1
    lo, hi = 0.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.4**mid + 0.12**mid > 1.0:
            lo = mid
        else:
            hi = mid
    assert root == pytest.approx(0.5 * (lo + hi), abs=1e-10)
    # the collocation root is that Perron root at every word depth, while
    # the upper word pressure only converges O(1/depth) on a subshift, and
    # from above; watch its root, the bracket's upper end, drift toward it
    sols = [bowen_solve(sys_, depth=d, tol=1e-10) for d in (4, 8, 16)]
    assert all(sol.h == pytest.approx(root, abs=1e-12) for sol in sols)
    errs = [sol.bracket[1] - root for sol in sols]
    assert all(e > 0 for e in errs)
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 0.02


@st.composite
def cf_digit_systems(draw):
    """Continued-fraction maps x -> 1/(q+x) for 2-3 distinct digits q in 1..9."""
    digits = sorted(draw(st.lists(st.integers(1, 9), min_size=2, max_size=3, unique=True)))
    maps = [MapDescriptor("moebius-1d", q=q) for q in digits]
    return gdms_system(((0.0, 1.0),), maps, label=f"cf{digits}")


@given(cf_digit_systems(), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_operator_root_brackets_the_log_eigenvalue_zero(system, depth):
    op = build_operator(system, depth=depth)
    tol = 1e-10
    sol = operator_bowen_solve(op, tol=tol)

    def logeig(t):
        return eigenmeasure(op, t).log_eigenvalue

    lo, hi = sol.bracket
    assert 0.0 <= hi - lo <= tol
    if lo < hi:
        assert logeig(lo) > 0.0 >= logeig(hi)
    assert sol.residual == logeig(sol.h)
    # the returned state is the evaluation at h, bit for bit
    again = eigenmeasure(op, sol.h)
    assert sol.state.exponent == sol.h
    assert np.array_equal(sol.state.eigenmeasure, again.eigenmeasure)
    assert np.array_equal(sol.state.invariant, again.invariant)
    assert abs(sol.residual) <= min(abs(logeig(lo)), abs(logeig(hi)))
    # independent reference: plain bisection on the same log-eigenvalue
    a, b = 0.0, 1.0
    assert logeig(b) <= 0.0
    while b - a > 1e-13:
        mid = 0.5 * (a + b)
        if logeig(mid) > 0.0:
            a = mid
        else:
            b = mid
    assert abs(sol.h - 0.5 * (a + b)) <= tol


@given(cf_digit_systems())
@settings(max_examples=8, deadline=None)
def test_operator_root_lies_in_the_certified_word_bracket(system):
    # two independent solvers: the word sums' bracket, certified on a full
    # shift, holds the context-6 operator root
    lo, hi = bowen_solve(system, depth=8).bracket
    assert lo <= operator_bowen_solve(build_operator(system, 6)).h <= hi


@pytest.mark.parametrize("t", [0.3, 0.6, 0.9])
def test_lyapunov_is_minus_the_log_eigenvalue_slope(t):
    op = build_operator(continued_fraction_system(2), depth=4)
    step = 1e-4
    central = (
        eigenmeasure(op, t + step).log_eigenvalue - eigenmeasure(op, t - step).log_eigenvalue
    ) / (2 * step)
    assert -eigenmeasure(op, t).lyapunov == pytest.approx(central, abs=1e-6)


def test_operator_root_takes_a_handful_of_evaluations():
    # bisection to the default tol 1e-10 takes 35
    sol = operator_bowen_solve(build_operator(continued_fraction_system(2), 8))
    assert sol.iterations <= 8
