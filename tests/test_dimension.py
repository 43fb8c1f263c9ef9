import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ifsdim.dimension import (
    SCALING_QUANTILE,
    _cylinder_interval_table,
    _median,
    _quantile,
    consistency_report,
    correlation_curve,
    density_field,
    flatness_detector,
    scaling_quantile_bounds,
    young_criterion,
)
from ifsdim.measures import (
    LineMeasure,
    gallery,
    mass_distribution_sequence,
    sample,
)
from ifsdim.pressure import analytic_bowen_solve, bowen_solve
from ifsdim.systems import cantor_system, golden_family
from ifsdim.transfer import gibbs_state

import reference
from reference import conformal_measure

TERNARY_H = math.log(2.0) / math.log(3.0)
LEBESGUE = LineMeasure.uniform(0.0, 1.0)


# ---------------------------------------------------------------------------
# correlation integral


def test_two_point_cloud_counts_pairs_with_diagonal():
    curve = correlation_curve(
        np.array([0.0, 0.5]), 0.3, 0.7, count=3, fit_window=(0.2, 0.8)
    )
    assert curve.values[0] == 0.5  # only the two diagonal pairs
    assert curve.values[-1] == 1.0  # all four ordered pairs
    assert not curve.degenerate


def test_uniform_cloud_slope_is_one():
    cloud = sample(LEBESGUE, 10_000, seed=101)
    curve = correlation_curve(cloud, 1e-4, 0.5, count=30, fit_window=(1e-3, 1e-1))
    assert curve.slope == pytest.approx(1.0, abs=0.05)


def test_cantor_conformal_cloud_slope_matches_the_dimension():
    system = cantor_system((1 / 3, 1 / 3))
    measure = conformal_measure(system, TERNARY_H, depth=12)
    cloud = sample(measure, 10_000, seed=202)
    curve = correlation_curve(
        cloud, 3.0**-11, 3.0**-2, count=30, fit_window=(3.0**-10, 3.0**-3)
    )
    assert curve.slope == pytest.approx(TERNARY_H, abs=0.03)


def test_correlation_curve_invariants_hold_on_random_clouds():
    rng = np.random.default_rng(12345)
    for _ in range(5):
        pts = rng.beta(0.4, 0.7, size=500)
        curve = correlation_curve(pts, 1e-4, 1.0, count=20)
        n = pts.size
        assert (np.diff(curve.values) >= 0).all()
        assert curve.values[-1] <= 1.0
        assert (curve.values >= 1.0 / n - 1e-15).all()
        assert -0.02 <= curve.slope <= 1.1


@given(
    st.lists(st.integers(-64, 64), min_size=2, max_size=150),
    st.integers(1, 160),
    st.integers(1, 160),
    st.integers(2, 6),
)
@settings(max_examples=120, deadline=None)
def test_correlation_counts_match_brute_force_on_a_dyadic_grid(ks, a, b, count):
    # points on the grid k/64, so duplicates are common and every gap is
    # exact; the end radii j/128 are exact gaps whenever j is even
    assume(a != b)
    pts = np.array(ks, dtype=float) / 64.0
    r_lo, r_hi = sorted((a / 128.0, b / 128.0))
    curve = correlation_curve(pts, r_lo, r_hi, count=count, fit_window=(r_lo, r_hi))
    assert (curve.radii[0], curve.radii[-1]) == (r_lo, r_hi)
    gaps = np.abs(pts[:, None] - pts[None, :])  # exact on the grid
    for r, value in zip(curve.radii, curve.values):
        assert value == int((gaps <= r).sum()) / float(pts.size) ** 2


def _exact_pair_counts(points: np.ndarray, radii: np.ndarray) -> list[int]:
    """Ordered pairs (diagonal included) at real distance at most r."""
    exact = [Fraction(float(x)) for x in points]
    gaps = [abs(x - y) for i, x in enumerate(exact) for y in exact[:i]]
    return [len(exact) + 2 * sum(g <= Fraction(float(r)) for g in gaps) for r in radii]


@given(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
    st.lists(st.floats(-3.0, 3.0), max_size=40),
    st.floats(1e-3, 0.5),
    st.floats(1.5, 50.0),
    st.integers(2, 6),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_correlation_counts_are_exact_off_the_grid(base, noise, r_lo, spread, count, data):
    # each base point has a partner at its float sum with a grid radius,
    # a gap that rounding puts just inside or just outside that radius
    r_hi = r_lo * spread
    radii = np.geomspace(r_lo, r_hi, count)
    shift = np.array([data.draw(st.sampled_from(radii.tolist())) for _ in base])
    pts = np.concatenate((base, np.add(base, shift), noise))
    curve = correlation_curve(pts, r_lo, r_hi, count=count, fit_window=(r_lo, r_hi))
    assert curve.radii.tolist() == radii.tolist()
    exact = _exact_pair_counts(pts, radii)
    assert curve.values.tolist() == [c / float(pts.size) ** 2 for c in exact]


def test_samples_and_counts_do_not_depend_on_call_history():
    # different sizes and measures, interleaved, against their first calls
    cantor2 = conformal_measure(cantor_system((0.3, 0.25)), 0.6, 6)
    cantor3 = conformal_measure(cantor_system((0.2, 0.15, 0.3)), 0.7, 3)
    calls = [
        (cantor2, 3000, 1), (LEBESGUE, 700, 2), (cantor3, 5, 3), (cantor2, 40, 4), (cantor3, 1200, 5)
    ]

    def outputs(measure, count, seed):
        cloud = sample(measure, count, seed)
        return cloud.tobytes(), correlation_curve(cloud, 1e-3, 0.3, count=7).values.tobytes()

    first = [outputs(*call) for call in calls]
    order = [4, 0, 3, 1, 2, 2, 0, 4, 1, 3]
    assert [outputs(*calls[i]) for i in order] == [first[i] for i in order]


def test_coincident_cloud_is_flagged_degenerate():
    curve = correlation_curve(np.zeros(150), 1e-3, 1e-1)
    assert curve.degenerate
    assert curve.slope == 0.0
    assert (curve.values == 1.0).all()


def test_correlation_curve_argument_validation():
    pts = np.linspace(0, 1, 200)
    with pytest.raises(ValueError):
        correlation_curve(np.array([0.3]), 1e-3, 1e-1)
    with pytest.raises(ValueError):
        correlation_curve(pts, 0.0, 1e-1)
    with pytest.raises(ValueError):
        correlation_curve(pts, 1e-1, 1e-3)
    with pytest.raises(ValueError):
        correlation_curve(pts, 1e-3, 1e-1, fit_window=(2e-2, 2.1e-2))


# ---------------------------------------------------------------------------
# density fields


def test_lebesgue_density_ratio_tends_to_one_in_the_deep_ladder():
    fld = density_field(LEBESGUE, np.array([0.5, 0.25]), 1e-9, 1e-5)
    assert fld.lower[0] == pytest.approx(1.0, abs=0.07)
    assert fld.upper[0] == pytest.approx(1.0, abs=0.07)
    crit = young_criterion(fld)
    assert crit.c == pytest.approx(1.0, abs=0.07)
    assert crit.fraction == 1.0
    bounds = scaling_quantile_bounds(fld)
    assert bounds.lower == pytest.approx(1.0, abs=0.07)
    assert bounds.upper == pytest.approx(1.0, abs=0.07)


def test_point_mass_density_ratio_is_zero():
    fld = density_field(LineMeasure.point_mass(0.0), np.array([0.0]), 1e-6, 0.4)
    assert fld.lower[0] == 0.0
    assert fld.upper[0] == 0.0
    bounds = scaling_quantile_bounds(fld)
    assert (bounds.lower, bounds.upper) == (0.0, 0.0)


def test_point_off_the_support_is_flagged_and_excluded():
    fld = density_field(LEBESGUE, np.array([0.5, 3.0]), 1e-4, 0.01)
    assert fld.inside.tolist() == [True, False]
    crit = young_criterion(fld)
    assert crit.fraction == 1.0  # computed from the single inside point


def test_density_field_invariants():
    pts = np.linspace(-0.5, 1.5, 41)
    fld = density_field(LEBESGUE, pts, 1e-6, 1e-2)
    assert (fld.lower <= fld.upper + 1e-12).all()
    assert (fld.lower >= 0.0).all()
    assert fld.points.size == 41


ORDER_MEASURE = conformal_measure(cantor_system((0.3, 0.4)), 0.6, depth=6)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cylinder_density_rows_do_not_depend_on_query_order(seed):
    rng = np.random.default_rng(seed)
    base = sample(ORDER_MEASURE, 60, seed=seed)
    # duplicates, and points whose largest ball misses the support
    pts = np.concatenate((base, base[rng.integers(0, 60, size=20)], [-0.5, 1.5, -0.5]))
    perm = rng.permutation(pts.size)
    fld = density_field(ORDER_MEASURE, pts, 1e-4, 0.2)
    moved = density_field(ORDER_MEASURE, pts[perm], 1e-4, 0.2)
    assert not fld.inside.all() and fld.inside.any()
    for name in ("lower", "upper", "inside"):
        assert getattr(moved, name).tobytes() == getattr(fld, name)[perm].tobytes()


def _density_bounds_by_rows(measure, pts, r_min, r_max):
    """lower, upper and inside from the whole table of ratios, one row per
    point and one column per ladder radius, reduced row by row with
    np.nanmin and np.nanmax: the reference for density_field's running
    minimum and maximum over the ladder."""
    radii = r_max * 0.5 ** np.arange(int(math.floor(math.log2(r_max / r_min))) + 1)
    left, right = pts[:, None] - radii, pts[:, None] + radii
    if isinstance(measure, LineMeasure):
        outer = inner = measure.mass_of_interval(left, right)
    else:
        los, his, pref = _cylinder_interval_table(measure)
        outer = pref[np.searchsorted(los, right, "right")] - pref[np.searchsorted(his, left, "left")]
        inner = pref[np.searchsorted(his, right, "right")] - pref[np.searchsorted(los, left, "left")]
        inner = np.maximum(inner, 0.0)
    with np.errstate(divide="ignore"):
        ratio_lo = np.where(outer > 0, np.log(outer) / np.log(radii), np.nan)
        ratio_hi = np.where(inner > 0, np.log(inner) / np.log(radii), np.nan)
    inside = ~np.isnan(ratio_lo[:, 0])
    lower, upper = np.zeros(pts.size), np.zeros(pts.size)
    if inside.any():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lower[inside] = np.nanmin(ratio_lo[inside], axis=1)
            upper[inside] = np.nanmax(ratio_hi[inside], axis=1)
    lower = np.maximum(np.where(np.isnan(lower), 0.0, lower), 0.0)
    upper = np.maximum(np.where(np.isnan(upper), np.inf, upper), lower)
    return lower, upper, inside


STAIRCASE = gallery("staircase").at(6)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["cylinders", "staircase"]))
@settings(max_examples=30, deadline=None)
def test_density_bounds_equal_the_row_reduction_bit_for_bit(seed, name):
    measure = ORDER_MEASURE if name == "cylinders" else STAIRCASE
    rng = np.random.default_rng(seed)
    # samples, their duplicates, points in gaps and points off the support
    base = sample(measure, 60, seed=seed)
    pts = np.concatenate((base, base[rng.integers(0, 60, size=10)], rng.uniform(-0.6, 1.6, 20)))
    fld = density_field(measure, pts, 1e-4, 0.2)
    want = _density_bounds_by_rows(measure, pts, 1e-4, 0.2)
    for got, ref in zip((fld.lower, fld.upper, fld.inside), want):
        assert got.tobytes() == ref.tobytes()


def test_density_field_leaves_the_warning_filters_alone(monkeypatch):
    # at 0.5, in the gap of the depth-1 ternary measure, the largest ball
    # meets both cylinders and holds neither, and the smaller balls meet
    # none: its upper row has no ratio, where np.nanmax would warn.  At 3
    # no ball meets the support.  The field warns about neither and leaves
    # the caller's process-global warning filters as they are.
    measure = conformal_measure(cantor_system((1 / 3, 1 / 3)), TERNARY_H, depth=1)

    def refuse(*args, **kwargs):
        raise AssertionError("density_field swapped the warning filters")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as patch:
            patch.setattr(warnings, "catch_warnings", refuse)
            fld = density_field(measure, np.array([0.5, 3.0]), 0.05, 0.2)
    assert fld.inside.tolist() == [True, False]
    assert fld.lower.tolist() == [0.0, 0.0]
    assert fld.upper.tolist() == [math.inf, 0.0]


def test_cantor_conformal_density_concentrates_at_the_dimension():
    system = cantor_system((1 / 3, 1 / 3))
    measure = conformal_measure(system, TERNARY_H, depth=13)
    pts = sample(measure, 300, seed=7)
    fld = density_field(measure, pts, 3.0**-12, 3.0**-4)
    crit = young_criterion(fld)
    assert crit.c == pytest.approx(TERNARY_H, abs=0.05)
    assert crit.fraction >= 0.95
    bounds = scaling_quantile_bounds(fld)
    assert bounds.lower == pytest.approx(TERNARY_H, abs=0.06)
    assert bounds.upper == pytest.approx(TERNARY_H, abs=0.06)


def test_two_block_measure_is_bimodal_for_any_single_exponent():
    # half the mass scales like exponent 1/2 on [0,1], half like 1 on [1,2]
    quarter = cantor_system((0.25, 0.25))
    stage = mass_distribution_sequence(quarter, 0.5, 12)
    pieces = stage.pieces * [1.0, 1.0, 0.5]
    measure = LineMeasure(atoms=(), pieces=np.vstack((pieces, [1.0, 2.0, 0.5])))
    left = (stage.pieces[:150, 0] + stage.pieces[:150, 1]) / 2
    right = np.random.default_rng(11).uniform(1.05, 1.95, 150)
    fld = density_field(measure, np.concatenate([left, right]), 4.0**-10, 4.0**-3)
    crit = young_criterion(fld)
    assert crit.fraction < 0.6
    bounds = scaling_quantile_bounds(fld)
    assert bounds.lower == pytest.approx(0.5, abs=0.1)
    assert bounds.upper == pytest.approx(1.0, abs=0.1)


values_with_infinities = st.lists(
    st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, math.inf, -math.inf])),
    min_size=1,
    max_size=40,
)


@given(values_with_infinities, st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_order_statistics_equal_numpy_bit_for_bit(values, q):
    arr = np.array(values)
    with np.errstate(invalid="ignore", over="ignore"):
        pairs = [(_median(arr), np.median(arr))] + [
            (_quantile(arr, p), np.quantile(arr, p))
            for p in (q, SCALING_QUANTILE, 1.0 - SCALING_QUANTILE)
        ]
    assert arr.tolist() == values  # the input is left as it was
    for got, want in pairs:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_density_ladder_validation():
    with pytest.raises(ValueError):
        density_field(LEBESGUE, np.array([0.5]), 0.0, 0.1)
    with pytest.raises(ValueError):
        density_field(LEBESGUE, np.array([0.5]), 0.2, 0.1)
    with pytest.raises(ValueError):
        density_field(LEBESGUE, np.array([0.5]), 0.1, 1.5)
    fld = density_field(LEBESGUE, np.array([5.0]), 1e-4, 0.01)
    with pytest.raises(ValueError):
        young_criterion(fld)
    with pytest.raises(ValueError):
        scaling_quantile_bounds(fld)


# ---------------------------------------------------------------------------
# flatness detector


def test_staircase_limit_flatness_exponents_decay_at_the_stated_rate():
    limit = gallery("staircase", a=0.5).limit
    ladder = [0.5 ** (k * k) for k in range(1, 9)]
    curve = flatness_detector(limit, ladder)
    for k, e in zip(range(1, 9), curve.exponents):
        assert e <= 2.0 / k + 0.01
    assert curve.fired  # e at the tightest radius reached 2/8 = 0.25


def test_uniform_measure_does_not_trip_the_detector():
    curve = flatness_detector(LEBESGUE, [0.1, 0.01, 0.001])
    assert (curve.exponents > 0.9).all()
    assert not curve.fired


def test_point_mass_is_maximally_flat():
    curve = flatness_detector(LineMeasure.point_mass(0.0), [0.1, 0.01])
    assert (curve.exponents == 0.0).all()
    assert curve.fired


def test_flatness_detector_validation():
    off_support = LineMeasure.uniform(0.0, 2.0)
    with pytest.raises(ValueError):
        flatness_detector(off_support, [0.1])
    with pytest.raises(ValueError):
        flatness_detector(LEBESGUE, [])
    with pytest.raises(ValueError):
        flatness_detector(LEBESGUE, [1.5])


def _flatness_cases():
    ladder = 0.25 * 0.5 ** np.arange(12)
    staircase = gallery("staircase", a=0.5)
    edges = [0.5 ** (k * k) for k in range(1, 9)]
    cases = {
        "alternating-collapse-3": (gallery("alternating-collapse").at(3), ladder),
        "alternating-collapse-4": (gallery("alternating-collapse").at(4), ladder),
        "atom-vs-uniform-5": (gallery("atom-vs-uniform").at(5), ladder),
        "lattice-comb-9": (gallery("lattice-comb").at(9), ladder),
        "staircase-3": (staircase.at(3), edges),
        "staircase-8": (staircase.at(8), edges),
        "staircase-limit": (staircase.limit, edges),
        "mixed": (
            LineMeasure(
                atoms=((0.0, 0.125), (0.3, 0.125), (0.625, 0.0625), (0.75, 0.0625)),
                pieces=((0.1, 0.3, 1.0), (0.5, 0.625, 2.0), (0.75, 1.0, 0.5)),
            ),
            ladder,
        ),
    }
    for n in range(1, 7):
        cases[f"cantor-mass-stages-{n}"] = (gallery("cantor-mass-stages").at(n), ladder)
    return cases


FLATNESS_CASES = _flatness_cases()


@pytest.mark.parametrize("name", sorted(FLATNESS_CASES))
def test_flatness_bounds_match_the_per_cut_reference(name):
    # the running minimum over one grid of every cut against the infimum
    # over each cut's own breakpoints, to within 4 ulp
    measure, radii = FLATNESS_CASES[name]
    got = flatness_detector(measure, radii).bounds
    want = np.array(reference.flatness_bounds(measure, radii))
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


# ---------------------------------------------------------------------------
# estimator cross-consistency and semi-continuity phenomenology


def test_estimates_agree_on_a_regular_similitude_conformal_measure():
    system = cantor_system((1 / 3, 1 / 3))
    h = bowen_solve(system, depth=1).h
    measure = conformal_measure(system, h, depth=12)
    cloud = sample(measure, 10_000, seed=202)
    curve = correlation_curve(
        cloud, 3.0**-11, 3.0**-2, count=30, fit_window=(3.0**-10, 3.0**-3)
    )
    assert abs(curve.slope - h) < 0.05
    fld = density_field(measure, cloud[:400], 3.0**-10, 3.0**-3)
    median = young_criterion(fld).c
    assert abs(median - h) < 0.05
    report = consistency_report(
        bowen_root=h,
        correlation_slope=curve.slope,
        gamma_lower=scaling_quantile_bounds(fld).lower,
        gamma_upper=scaling_quantile_bounds(fld).upper,
    )
    assert report["tolerance"] == 0.05
    assert report["consistent"]


def test_truncation_dimensions_rise_toward_the_full_family_value():
    fam = golden_family()
    limit = analytic_bowen_solve(fam).h
    ratios = []
    for n in (2, 4, 6, 8):
        sys_n = fam.truncate(n)
        ratios.append(gibbs_state(bowen_solve(sys_n, depth=1).state).ratio)
    assert ratios == sorted(ratios)
    assert all(r <= limit + 0.05 for r in ratios)


def test_atom_train_keeps_slope_near_zero_while_its_limit_is_lebesgue():
    comb = gallery("lattice-comb")
    cloud = sample(comb.at(10), 2_000, seed=31)
    curve = correlation_curve(cloud, 1e-5, 5e-2, count=20, fit_window=(1e-4, 1e-2))
    assert curve.slope < 0.1
    limit_cloud = sample(comb.limit, 2_000, seed=32)
    limit_curve = correlation_curve(
        limit_cloud, 1e-3, 0.3, count=20, fit_window=(5e-3, 1e-1)
    )
    assert limit_curve.slope == pytest.approx(1.0, abs=0.1)


def test_staircase_limit_has_vanishing_slope_in_the_deep_window():
    limit = gallery("staircase", a=0.5).limit
    cloud = sample(limit, 10_000, seed=404)
    curve = correlation_curve(cloud, 1e-21, 1e-7, count=25, fit_window=(1e-20, 1e-8))
    assert curve.slope < 0.1


# ---------------------------------------------------------------------------
# report


def test_report_flags_catch_disagreement():
    good = consistency_report(bowen_root=0.63, correlation_slope=0.66)
    assert good["flags"] == {"bowen_root~correlation_slope": True}
    assert good["consistent"] is True
    bad = consistency_report(bowen_root=0.63, correlation_slope=0.8)
    assert bad["consistent"] is False
    empty = consistency_report()
    assert empty["consistent"] is True and empty["flags"] == {}


def test_report_rejects_a_crossed_bracket():
    with pytest.raises(ValueError):
        consistency_report(gamma_lower=0.8, gamma_upper=0.4)


def test_report_json_shape():
    blob = consistency_report(bowen_root=0.5, ratio=0.52, gamma_lower=0.45, gamma_upper=0.6)
    assert sorted(blob) == [
        "bowen_root", "consistent", "correlation_slope", "flags", "gamma_lower", "gamma_upper",
        "ratio", "tolerance",
    ]
    assert blob["consistent"] is True
    assert blob["flags"]["bowen_root~ratio"] is True
    assert blob["flags"]["ratio~bracket"] is True
