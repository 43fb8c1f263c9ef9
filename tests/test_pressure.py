import json
import math
import pathlib

import numpy as np
import pytest
import ifsdim.pressure
from hypothesis import given, settings, strategies as st

from ifsdim.pressure import (
    BowenSolution,
    ConvergenceFailure,
    analytic_bowen_solve,
    bowen_solve,
    collocate,
    collocation_shape,
    truncation_scan,
    _find_root,
    _grids,
)
from ifsdim.symbolic import IncidenceMatrix
from ifsdim.systems import (
    _ROUNDOFF,
    MapFamily,
    SystemSpec,
    borderline_family,
    cantor_system,
    continued_fraction_family,
    golden_family,
    level_geometry,
)

from reference import cylinder_operator_root, pressure

ORACLES = pathlib.Path(__file__).parent / "oracles"
GOLDEN_ROOTS = json.loads((ORACLES / "golden_truncation_roots.json").read_text())
CF_DIMENSION = json.loads(
    (ORACLES / "continued_fraction_dimension.json").read_text()
)["dimension"]
# dim E_{1,2} as published (Jenkinson-Pollicott 2001); the frozen oracle
# above sits 8.9e-11 over it
E12_LITERATURE = 0.5312805062772051
REFERENCES = json.loads(
    (pathlib.Path(__file__).parent.parent / "perfbench" / "references.json").read_text()
)["sets"]

TERNARY_DIM = math.log(2.0) / math.log(3.0)


def test_partition_sum_bernoulli_closed_forms():
    # depth * pressure is the log of the depth-n partition sum
    est = pressure(cantor_system((0.5, 0.5)), 1.0, depth=3)
    assert 3 * est.upper == pytest.approx(0.0, abs=1e-12)
    assert 3 * est.lower == pytest.approx(0.0, abs=1e-12)
    est2 = pressure(cantor_system((1 / 3, 1 / 3)), 1.0, depth=2)
    assert math.exp(2 * est2.upper) == pytest.approx(4 / 9, abs=1e-12)
    assert est2.upper == est2.lower


def test_partition_sum_brackets_continued_fractions():
    est = pressure(continued_fraction_family().truncate(2), 0.6, depth=6)
    assert -math.inf < est.lower < est.upper
    # per-word sup <= K * inf, so the sums differ by at most a factor K^t
    assert 6 * est.gap <= 0.6 * math.log(4.0) + 1e-9


def test_partition_sum_rejects_empty_word_set():
    dead_end = IncidenceMatrix(((0, 1), (0, 0)))
    sys_ = SystemSpec(_similitudes((0.4, 0.0), (0.3, 0.5)), dead_end, label="dead-end")
    with pytest.raises(ValueError):
        pressure(sys_, 0.5, 3)


def test_pressure_is_depth_free_for_bernoulli_similitudes():
    sys_ = cantor_system((1 / 3, 1 / 3))
    want = math.log(2.0) - 0.5 * math.log(3.0)  # log sum a_i^t at t = 1/2
    for depth in (1, 2, 5):
        est = pressure(sys_, 0.5, depth=depth)
        assert est.upper == pytest.approx(est.lower, abs=1e-14)
        assert est.value == pytest.approx(want, abs=1e-12)
        assert est.gap == pytest.approx(0.0, abs=1e-13)


def test_pressure_rejects_negative_exponent():
    with pytest.raises(ValueError):
        pressure(cantor_system((1 / 3, 1 / 3)), -0.5)


@given(
    st.lists(st.floats(0.05, 0.2), min_size=2, max_size=4),
    st.floats(0.1, 0.9),
    st.floats(0.05, 0.8),
)
@settings(max_examples=30, deadline=None)
def test_pressure_strictly_decreasing_in_exponent(ratios, t, dt):
    level_geometry.cache_clear()
    sys_ = cantor_system(tuple(r / (2 * sum(ratios)) for r in ratios))
    a = pressure(sys_, t, depth=2).value
    b = pressure(sys_, t + dt, depth=2).value
    assert a > b


def test_upper_pressure_tightens_under_depth_doubling():
    sys_ = continued_fraction_family().truncate(2)
    for t in (0.3, 0.6):
        shallow = pressure(sys_, t, depth=3)
        deep = pressure(sys_, t, depth=6)
        assert deep.upper <= shallow.upper + 1e-12


def test_ternary_cantor_dimension():
    sol = bowen_solve(cantor_system((1 / 3, 1 / 3)), depth=4)
    assert sol.h == pytest.approx(TERNARY_DIM, abs=1e-12)
    assert sol.regular and sol.method == "collocation"
    assert abs(sol.residual) < 1e-15


def test_touching_cantor_has_dimension_one():
    sol = bowen_solve(cantor_system((0.5, 0.5)), depth=6)
    assert sol.h == pytest.approx(1.0, abs=1e-10)


def test_golden_truncation_scan_matches_oracle():
    levels = range(2, 13)
    scan = truncation_scan(golden_family(), levels, [1] * len(levels))
    for n, sol in zip(levels, scan):
        assert sol.regular and sol.depth == 1
        assert sol.gap == pytest.approx(0.0, abs=1e-13)
        assert sol.h == pytest.approx(GOLDEN_ROOTS[str(n)], abs=1e-12)
        assert sol.bracket[0] <= GOLDEN_ROOTS[str(n)] <= sol.bracket[1]
        assert sol.bracket[0] <= sol.h <= sol.bracket[1]
    roots = [sol.h for sol in scan]
    assert roots == sorted(roots)  # truncations only gain mass


@pytest.mark.parametrize(
    "family", [golden_family(), borderline_family(), continued_fraction_family()], ids=lambda f: f.name
)
def test_scan_rows_are_the_roots_of_their_own_levels(monkeypatch, family):
    calls = []
    real = ifsdim.pressure.collocate
    monkeypatch.setattr(ifsdim.pressure, "collocate", lambda s: calls.append(s) or real(s))
    levels = [4, 2, 6]
    scan = truncation_scan(family, levels, [3, 3, 3])
    assert len(calls) == 1  # each level's maps are the widest one's first
    monkeypatch.undo()
    for n, row in zip(levels, scan):
        sol = bowen_solve(family.truncate(n), depth=3)
        assert (row.h, row.bracket, row.residual, row.gap, row.depth) == (
            sol.h, sol.bracket, sol.residual, sol.gap, 3
        )


def test_analytic_golden_root():
    sol = analytic_bowen_solve(golden_family())
    assert sol.regular and sol.method == "analytic"
    assert sol.h == pytest.approx(GOLDEN_ROOTS["limit"], abs=1e-11)
    assert sol.h == pytest.approx(math.log((1 + math.sqrt(5)) / 2) / math.log(2), abs=1e-11)


def test_truncation_roots_converge_to_analytic_limit():
    limit = analytic_bowen_solve(golden_family()).h
    scan = truncation_scan(golden_family(), [2, 4, 8, 16, 32], [1] * 5)
    errs = [limit - sol.h for sol in scan]
    assert all(e > 0 for e in errs)
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-6


def test_borderline_family_is_irregular():
    sol = analytic_bowen_solve(borderline_family())
    assert not sol.regular
    assert sol.h == pytest.approx(0.5, abs=1e-8)
    assert sol.residual == pytest.approx(math.log(0.5), abs=1e-5)
    assert sol.residual < -0.5


def test_analytic_pressure_requires_closed_form():
    bare = MapFamily(name="bare", row=golden_family().row)
    for family in (bare, continued_fraction_family()):
        with pytest.raises(ValueError, match="carries no closed-form mass"):
            analytic_bowen_solve(family)


def _root_of(system, which, depth, tol=1e-9):
    lo, hi = 0.0, 1.0
    while getattr(pressure(system, hi, depth), which) > 0:
        hi *= 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if getattr(pressure(system, mid, depth), which) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_continued_fraction_root_is_bracketed_and_accurate():
    sys_ = continued_fraction_family().truncate(2)
    upper_root = _root_of(sys_, "upper", depth=12)
    lower_root = _root_of(sys_, "lower", depth=12)
    # the sup/inf pressure roots certify a dimension interval on a full shift
    assert lower_root <= CF_DIMENSION <= upper_root
    assert upper_root - lower_root < 0.05
    sol = bowen_solve(sys_, depth=12)
    assert sol.h == pytest.approx(CF_DIMENSION, abs=1e-10)
    # the reported bracket is those two roots
    assert sol.bracket == pytest.approx((lower_root, upper_root), abs=1e-8)


def test_word_pressure_gap_respects_distortion_budget():
    sys_ = continued_fraction_family().truncate(2)
    for depth in (4, 8):
        est = pressure(sys_, 0.5, depth=depth)
        assert est.gap <= 0.5 * math.log(4.0) / depth * (1 + 1e-9)
        assert est.gap > 0


def test_bowen_solve_iteration_budget(monkeypatch):
    # Newton needs more than two evaluations per solve on CF{1,2}
    monkeypatch.setattr(ifsdim.pressure, "MAX_EVALUATIONS", 2)
    with pytest.raises(ConvergenceFailure):
        bowen_solve(continued_fraction_family().truncate(2), depth=6)


def test_truncation_scan_records_failures_and_continues(monkeypatch):
    real = ifsdim.pressure.bowen_solve
    broken = ConvergenceFailure("level 3 is broken on purpose")

    def solve(system, *args, **kwargs):
        if system.alphabet_size == 3:
            raise broken
        return real(system, *args, **kwargs)

    monkeypatch.setattr(ifsdim.pressure, "bowen_solve", solve)
    first, failed, last = truncation_scan(golden_family(), [2, 3, 4], [1, 1, 1])
    assert failed is broken
    for n, sol in ((2, first), (4, last)):  # the levels around the failure still solve
        assert sol.regular and sol.h == real(golden_family().truncate(n), depth=1).h


def test_truncation_scan_rejects_levels_below_two():
    with pytest.raises(ValueError):
        truncation_scan(golden_family(), [1, 2], [1, 1])


def test_borderline_truncations_solve_below_an_irregular_limit():
    limit = analytic_bowen_solve(borderline_family())
    assert limit.h == pytest.approx(0.5, abs=1e-6)
    assert limit.regular is False
    roots = truncation_scan(borderline_family(), [2, 3], [1, 1])
    assert all(sol.regular and sol.h < limit.h for sol in roots)  # every finite stage still solves


def test_root_finder_newton_steps_and_bisection_share_one_bracket_contract():
    # convex and decreasing with its root at log 2
    def f(t):
        return 2.0 * math.exp(-t) - 1.0

    tol = 1e-10
    root, (lo, hi), evals = _find_root(f, tol, 200, "plain")
    assert evals == 35 and hi - lo <= tol and root == 0.5 * (lo + hi)
    # a useless slope falls back to the midpoint at every step
    nan_root, nan_bracket, nan_evals = _find_root(lambda t: (f(t), math.nan), tol, 200, "nan")
    assert (nan_bracket, nan_evals) == ((lo, hi), evals)
    assert nan_root in nan_bracket
    root, (lo, hi), evals = _find_root(lambda t: (f(t), -2.0 * math.exp(-t)), tol, 200, "newton")
    assert evals <= 8
    assert 0.0 < hi - lo <= tol and f(lo) > 0.0 >= f(hi)
    assert root in (lo, hi) and abs(root - math.log(2.0)) <= tol


# ---------------------------------------------------------------------------
# sorted-once evaluations against the formulas they replaced


def _similitudes(*pairs):
    """Coefficient rows of the similitudes x -> r x + o."""
    return [(r, o, 0.0, 1.0) for r, o in pairs]


def _moebius(digits, incidence=None):
    """The continued-fraction branches x -> 1/(q + x) for q in ``digits``."""
    rows = [(0.0, 1.0, 1.0, q) for q in digits]
    return SystemSpec(rows, incidence or IncidenceMatrix.full(len(rows)))


FIBONACCI = {
    "fibonacci-2": SystemSpec(
        _similitudes((0.4, 0.0), (0.3, 0.5)),
        IncidenceMatrix(((1, 1), (1, 0))),
    ),
    "fibonacci-3": SystemSpec(
        _similitudes((0.3, 0.0), (0.25, 0.35), (-0.3, 1.0)),
        IncidenceMatrix(((1, 1, 1), (1, 0, 1), (0, 1, 0))),
    ),
}


@st.composite
def word_systems(draw):
    """Continued fractions on 2-3 digits in 1..9, Cantor systems of 2-4
    ratios, and the two Fibonacci incidences."""
    kind = draw(st.sampled_from(["cf", "cantor", *sorted(FIBONACCI)]))
    if kind == "cf":
        digits = sorted(draw(st.lists(st.integers(1, 9), min_size=2, max_size=3, unique=True)))
        return _moebius(digits)
    if kind == "cantor":
        return cantor_system(draw(st.lists(st.floats(0.05, 0.24), min_size=2, max_size=4)))
    return FIBONACCI[kind]


def _sort_per_call_logsumexp(a):
    """The log-sum-exp as first written: max, then the exponentials sorted
    afresh at every call."""
    m = float(np.max(a))
    return m + math.log(float(np.sort(np.exp(a - m)).sum()))


def _axis_reduction_geometry(system, depth):
    """level_geometry as first written, with its extremes reduced along the
    endpoint axis, and every map's prepend masked by its incidence row."""
    allowed = system.incidence.allowed
    first = np.arange(system.alphabet_size)

    def at(e, x):  # map e and its |derivative| at x
        a, b, c, d = system.coefficients[e].tolist()
        den = c * x + d
        return (a * x + b) / den, abs(a * d - b * c) / den**2

    y, g = np.array([at(e, np.array((0.0, 1.0))) for e in first]).transpose(1, 0, 2)
    for _ in range(depth - 1):
        parts = []
        for e in range(system.alphabet_size):
            keep = allowed[e][first]
            ye, de = at(e, y[keep])
            parts.append((np.full(ye.shape[0], e), ye, g[keep] * de))
        first, y, g = (np.concatenate(col) for col in zip(*parts))
    roundoff = 0.0 if system.is_similitude() else _ROUNDOFF
    log_sup = np.log(g.max(axis=1))
    log_inf = np.log(g.min(axis=1))
    log_sup += roundoff * (np.abs(log_sup) + 4 * depth)
    log_inf -= roundoff * (np.abs(log_inf) + 4 * depth)
    return log_sup, log_inf, y.min(axis=1), y.max(axis=1)


@given(word_systems(), st.integers(1, 7), st.floats(0.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_pressure_matches_the_sort_per_call_formula_bit_for_bit(system, depth, t):
    est = pressure(system, t, depth)
    lg = level_geometry(system, depth)
    assert est.upper == _sort_per_call_logsumexp(t * lg.log_sup) / depth
    assert est.lower == _sort_per_call_logsumexp(t * lg.log_inf) / depth


@given(word_systems(), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_level_geometry_matches_axis_reductions_bit_for_bit(system, depth):
    lg = level_geometry(system, depth)
    got = (lg.log_sup, lg.log_inf, lg.image_lo, lg.image_hi)
    for a, b in zip(got, _axis_reduction_geometry(system, depth)):
        assert a.tobytes() == b.tobytes()


@given(word_systems(), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_word_root_matches_bisection_within_eight_evaluations(system, depth):
    tol = 1e-10
    # MAX_EVALUATIONS bounds each of the three solves, the collocation one included
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ifsdim.pressure, "MAX_EVALUATIONS", 8)
        sol = bowen_solve(system, depth=depth)
    lo, hi = sol.bracket
    assert lo <= sol.h <= hi and sol.iterations <= 24
    col = collocate(system)

    def log_eigenvalue(t):
        return math.log(col.eigenpair(t).eigenvalue)

    assert sol.residual == log_eigenvalue(sol.h)
    assert sol.gap == pressure(system, sol.h, depth).gap
    # independent reference: plain bisection on log lambda_N
    a, b = 0.0, 1.0
    while log_eigenvalue(b) > 0.0:
        a, b = b, 2.0 * b
    while b - a > 1e-13:
        mid = 0.5 * (a + b)
        if log_eigenvalue(mid) > 0.0:
            a = mid
        else:
            b = mid
    assert abs(sol.h - 0.5 * (a + b)) <= tol


def test_bracket_falls_back_to_one_when_a_word_does_not_contract():
    # x -> 1/(1 + x) has |derivative| 1 at 0: the depth-1 upper pressure
    # never vanishes, while the lower one does
    sol = bowen_solve(continued_fraction_family().truncate(2), depth=1)
    lo, hi = sol.bracket
    assert hi == 1.0 and lo < sol.h < hi
    assert pressure(continued_fraction_family().truncate(2), lo, 1).lower > 0.0


# ---------------------------------------------------------------------------
# the collocation root


def test_collocation_root_reaches_the_published_e12_digits():
    sol = bowen_solve(continued_fraction_family().truncate(2))
    assert abs(sol.h - E12_LITERATURE) <= 1e-13
    assert abs(sol.residual) < 1e-15
    assert collocation_shape(continued_fraction_family().truncate(2)) == (1, 32)


def test_collocation_roots_meet_every_reference_within_its_accuracy():
    for entry in REFERENCES:
        col = collocate(_moebius(entry["digits"]))

        def log_eigenvalue(t):
            pair = col.eigenpair(t)
            return math.log(pair.eigenvalue), pair.slope

        h, _, _ = _find_root(log_eigenvalue, 1e-15, 20, "reference")
        assert abs(h - entry["dimension"]) <= entry["accuracy"], entry["digits"]


@given(st.lists(st.floats(0.05, 0.45), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_similitude_roots_are_the_closed_form_on_one_node(ratios):
    system = cantor_system(tuple(r / max(1.0, 1.25 * sum(ratios)) for r in ratios))
    a = np.abs(system.coefficients[:, 0])
    assert collocation_shape(system) == (1, 1)  # a constant eigenfunction
    sol = bowen_solve(system, depth=1)
    assert math.fsum(a**sol.h) == pytest.approx(1.0, abs=1e-14)
    lo, hi = sol.bracket
    assert lo <= sol.h <= hi and hi - lo <= 1e-10


def test_graph_directed_similitude_root_is_log_phi_over_log_three():
    # x/3 and x/3 + 2/3 where the second map never follows itself: the
    # depth-n words number F(n + 2), so the root is log(phi) / log 3
    fibonacci = SystemSpec(
        _similitudes((1 / 3, 0.0), (1 / 3, 2 / 3)),
        IncidenceMatrix(((1, 1), (1, 0))),
    )
    assert collocation_shape(fibonacci) == (2, 1)
    want = math.log((1 + math.sqrt(5)) / 2) / math.log(3.0)
    for depth in (1, 12):
        sol = bowen_solve(fibonacci, depth=depth)
        assert sol.h == pytest.approx(want, abs=1e-12)
        # under an incidence the lower word root bounds nothing
        assert sol.bracket[0] == 0.0 <= sol.h <= sol.bracket[1]


def test_periodic_incidence_root_is_the_alternating_pair():
    # 0 and 1 alternate: two points, dimension 0 whatever the ratios
    alternating = SystemSpec(
        _similitudes((0.2, 0.0), (0.4, 0.5)),
        IncidenceMatrix(((0, 1), (1, 0))),
    )
    sol = bowen_solve(alternating, depth=1)
    assert abs(sol.h) <= 1e-12 and sol.bracket[0] == 0.0


def test_the_full_shift_has_one_grid_however_it_is_written():
    explicit = _moebius((1, 2), IncidenceMatrix(((1, 1), (1, 1))))
    broadcast = continued_fraction_family().truncate(2)
    assert collocation_shape(explicit) == collocation_shape(broadcast) == (1, 32)
    assert collocate(explicit).full_shift and collocate(broadcast).full_shift
    assert bowen_solve(explicit).h == bowen_solve(broadcast).h


def test_an_incidence_with_no_successor_is_named_at_any_exponent():
    # no map may follow any map: no branch feeds a grid, so the empty mass
    # is the incidence's fault even at s = 1000, where 0.25^s underflows too
    nothing = _moebius((1, 2), IncidenceMatrix(((0, 0), (0, 0))))
    for s in (0.0, 1000.0):
        with pytest.raises(ConvergenceFailure, match="^no branch feeds any grid: the incidence admits"):
            collocate(nothing).eigenpair(s)


@pytest.mark.parametrize(
    "system, grids, full, shape",
    [
        (continued_fraction_family().truncate(3), [[0, 1, 2]], True, (1, 32)),
        # columns 1 and 2 are all ones, column 0 is not
        (_moebius((1, 2, 3), IncidenceMatrix(((0, 1, 1), (1, 1, 1), (1, 1, 1)))), [[0], [1, 2]], False, (2, 32)),
        (FIBONACCI["fibonacci-2"], [[0], [1]], False, (2, 1)),
        (_moebius((1, 2, 3), IncidenceMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))), [[0], [1], [2]], False, (3, 32)),
    ],
    ids=["full-shift", "011;111;111", "fibonacci", "011;101;110"],
)
def test_symbols_share_a_grid_exactly_when_their_incidence_columns_agree(system, grids, full, shape):
    order, bounds, full_shift = _grids(system)
    assert sorted(order.tolist()) == list(range(system.alphabet_size))
    assert sorted(sorted(order[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])) == grids
    assert full_shift is full
    assert collocation_shape(system) == shape
    collocation = collocate(system)
    assert collocation.bounds == bounds and collocation.factors.shape == (shape[1], 2, 1, system.alphabet_size)


@pytest.mark.parametrize("digits,depth", [(3, 10), (4, 8)])
def test_collocation_on_many_grids_matches_the_deep_operator_root(digits, depth):
    # continued fractions on {1, ..., digits} where no digit follows itself:
    # every column differs, so each digit has a grid of its own
    system = _moebius(range(1, digits + 1), IncidenceMatrix(1 - np.eye(digits, dtype=int)))
    assert collocation_shape(system) == (digits, 32)
    sol = bowen_solve(system, depth=depth)
    assert sol.bracket[0] == 0.0 <= sol.h <= sol.bracket[1]
    assert abs(sol.residual) < 1e-15
    assert sol.h == pytest.approx(cylinder_operator_root(system, depth), abs=1e-7)
