import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifsdim.measures import (
    GALLERY_NAMES,
    _child_choice,
    _draw_children,
    _level,
    CylinderMeasure,
    LineMeasure,
    gallery,
    mass_distribution_sequence,
    sample,
    setwise_discrepancy,
    truncation_singularity,
    tv_distance,
    w1_distance,
)
from ifsdim.pressure import analytic_bowen_solve, bowen_solve
from ifsdim.symbolic import IncidenceMatrix
from ifsdim.systems import SystemSpec, cantor_system, continued_fraction_family, golden_family

import reference
from reference import conformal_measure, enumerate_admissible

TERNARY_DIM = math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# LineMeasure mechanics


def test_line_measure_sorts_merges_and_drops_zero_atoms():
    m = LineMeasure(atoms=((0.5, 0.25), (0.1, 0.25), (0.5, 0.25), (0.9, 0.0)), pieces=())
    np.testing.assert_array_equal(m.atoms, [[0.1, 0.25], [0.5, 0.5]])
    assert not m.atoms.flags.writeable and not m.pieces.flags.writeable
    assert m.pieces.shape == (0, 3)
    assert m.total == pytest.approx(0.75)


def test_line_measure_rejects_bad_input():
    with pytest.raises(ValueError):
        LineMeasure(atoms=((0.0, -0.1),))
    with pytest.raises(ValueError):
        LineMeasure(pieces=((0.0, 0.0, 1.0),))  # empty interval
    with pytest.raises(ValueError):
        LineMeasure(pieces=((0.0, 0.6, 1.0), (0.5, 1.0, 1.0)))  # overlap


def test_touching_pieces_are_fine():
    m = LineMeasure(pieces=((0.0, 0.5, 1.0), (0.5, 1.0, 1.0)))
    assert m.total == pytest.approx(1.0)
    assert m.mass_of_interval(0.25, 0.75) == pytest.approx(0.5)


def test_interval_mass_open_vs_closed():
    m = LineMeasure(atoms=((0.0, 0.5), (1.0, 0.5)))
    assert m.mass_of_interval(0.0, 1.0, closed=True) == pytest.approx(1.0)
    assert m.mass_of_interval(0.0, 1.0, closed=False) == 0.0
    assert m.mass_of_points([0.0, 0.25]) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# distances


def test_tv_distance_basics():
    leb = LineMeasure.uniform(0.0, 1.0)
    assert tv_distance(leb, leb) == 0.0
    spike = LineMeasure.point_mass(0.3)
    assert tv_distance(leb, spike) == pytest.approx(1.0)
    assert tv_distance(spike, leb) == pytest.approx(1.0)
    half = LineMeasure(pieces=((0.0, 0.5, 2.0),))
    assert tv_distance(leb, half) == pytest.approx(0.5)


def test_leaking_block_tv_is_one_over_n():
    fam = gallery("leaking-block")
    for n in range(2, 13):
        assert tv_distance(fam.at(n), fam.limit) == pytest.approx(1.0 / n, abs=1e-15)


def test_atom_vs_uniform_tv_is_one_over_n():
    fam = gallery("atom-vs-uniform")
    for n in (2, 5, 10, 100):
        assert tv_distance(fam.at(n), fam.limit) == pytest.approx(1.0 / n, abs=1e-15)


def test_staircase_tv_closed_form():
    # exact value: the positive part of nu_n - nu is the renormalization
    # excess on the shared stages, sum_{i<=n} (1-a) a^i (1/(1-a^{n+1}) - 1),
    # which telescopes to a^{n+1}; the negative part (missing deep stages
    # plus the origin atom) matches it.
    for a in (0.5, 0.3):
        fam = gallery("staircase", a=a)
        for n in (1, 2, 5, 10):
            want = a ** (n + 1)
            assert tv_distance(fam.at(n), fam.limit) == pytest.approx(want, rel=1e-12)


def test_staircase_builds_its_limit_and_last_member_at_every_scale():
    # past a = 0.86 a piece's subnormal width overflowed its density; such
    # pieces are left out, and each scale gets the members double precision holds
    for a in np.arange(1, 100) / 100:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = gallery("staircase", a=float(a))
            last = fam.at(fam.last)
        assert np.isfinite(fam.limit.pieces).all() and np.isfinite(last.pieces).all()
    assert gallery("staircase", a=0.5).last == 31


def test_staircase_vs_limit_worked_example():
    # n=1, a=1/2: stages hold 2/3 and 1/3 of the mass vs 1/2, 1/4 in the
    # limit; excesses are 1/6 and 1/12, so the distance is exactly 1/4.
    fam = gallery("staircase", a=0.5)
    assert tv_distance(fam.at(1), fam.limit) == pytest.approx(0.25, abs=1e-15)


def test_setwise_discrepancy_interval_and_point_sets():
    comb = gallery("lattice-comb")
    leb = comb.limit
    n = 10
    grid = [i / n for i in range(1, n + 1)]
    assert setwise_discrepancy(comb.at(n), leb, [("points", grid)]) == pytest.approx(1.0, abs=1e-12)
    # on intervals the comb looks much closer to Lebesgue
    cells = [(k / 5, (k + 1) / 5) for k in range(5)]
    assert setwise_discrepancy(comb.at(1000), leb, cells) < 2e-3
    assert setwise_discrepancy(leb, leb, cells) == 0.0


def test_setwise_discrepancy_refuses_sets_it_cannot_measure():
    leb = LineMeasure.uniform(0.0, 1.0)
    cm = conformal_measure(cantor_system((1 / 3, 1 / 3)), TERNARY_DIM, 2)
    with pytest.raises(TypeError):
        setwise_discrepancy(cm, leb, [(0.0, 0.5)])
    for spec in ([0.0, 1.0], (0.0, 0.5, 1.0), ("cells", (0.5,))):
        with pytest.raises(ValueError):
            setwise_discrepancy(leb, leb, [spec])


def test_lattice_comb_never_converges_setwise():
    comb = gallery("lattice-comb")
    for n in (10, 100, 1000):
        sets = [("points", [i / n for i in range(1, n + 1)])]
        assert setwise_discrepancy(comb.at(n), comb.limit, sets) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# exact rational references


def _reference_members():
    members = {
        f"{name}-{n}": gallery(name).at(n)
        for name, ns in (
            ("alternating-collapse", (3, 4, 81)),
            ("lattice-comb", (7, 10, 100, 1000)),
            ("atom-vs-uniform", (3, 7, 100)),
            ("leaking-block", (3, 9)),
            ("staircase", (3, 10, 25)),
            ("cantor-mass-stages", (3, 6, 9)),
        )
        for n in ns
    }
    members.update({f"staircase@0.3-{n}": gallery("staircase", a=0.3).at(n) for n in (5, 20)})
    members["mixed"] = LineMeasure(
        atoms=((0.0, 0.125), (0.3, 0.125), (0.625, 0.0625), (0.75, 0.0625)),
        pieces=((0.1, 0.3, 1.0), (0.5, 0.625, 2.0), (0.75, 1.0, 0.5)),
    )
    return members


REFERENCE_MEMBERS = _reference_members()
REFERENCE_INTERVALS = [(0.1, 0.7, True), (0.25, 0.75, False), (0.0, 1.0, True), (1 / 3, 2 / 3, False)]
# 1024 touching pieces with a running total near 0.5 at x = 0.5, a heavy
# atom at the origin under 100 atoms of weight 1e-20 near 0.5, and a
# 10^5-atom lattice
HALVES = mass_distribution_sequence(cantor_system((0.5, 0.5)), 1.0, 10)
DUST = LineMeasure(atoms=[(0.0, 1.0)] + [(0.5 + i / 1024, 1e-20) for i in range(100)])
COMB = gallery("lattice-comb").at(100_000)
# near 0.5 a double resolves balls down to radius 2^-50 (8 ulp); a radius
# 2^-64 ball there rounds to a point
SMALL_INTERVALS = [
    (HALVES, 2.0**-12 - 2.0**-64, 2.0**-12 + 2.0**-64),  # inside a piece
    (HALVES, 0.5 + 2.0**-20 - 2.0**-50, 0.5 + 2.0**-20 + 2.0**-50),  # inside a piece
    (HALVES, 0.5 - 2.0**-50, 0.5 + 2.0**-50),  # across a piece edge
    (HALVES, 0.5 + 2.0**-12, 0.5 + 2.0**-8),  # 15 whole pieces and two parts
    (DUST, 0.5, 0.6),
    (DUST, 0.51, 0.52),
    (COMB, 0.5, 0.6),  # 10^4 + 1 atoms
    (COMB, 0.5 - 1e-7, 0.5 + 1e-7),
]
# every bound below is also met by summing the atoms and pieces one at a
# time, in order; that way the 10^4 comb atoms are off by 6.1e-14 relative
INTERVAL_REL = 1e-13  # relative: an interval mass sums nonnegative terms
GAUGE_ABS = 4e-15  # absolute, for probability measures


def _close(got, exact, bound) -> bool:
    return abs(Fraction(float(got)) - exact) <= Fraction(bound)


@pytest.mark.parametrize("name", sorted(REFERENCE_MEMBERS))
def test_interval_masses_match_exact_rationals(name):
    measure = REFERENCE_MEMBERS[name]
    for lo, hi, closed in REFERENCE_INTERVALS:
        exact = reference.exact_interval_mass(measure, lo, hi, closed)
        got = measure.mass_of_interval(lo, hi, closed=closed)
        assert _close(got, exact, INTERVAL_REL * exact), (lo, hi, closed)


@pytest.mark.parametrize("closed", [True, False])
def test_small_intervals_far_from_the_origin_keep_their_digits(closed):
    masses = []
    for measure, lo, hi in SMALL_INTERVALS:
        exact = reference.exact_interval_mass(measure, lo, hi, closed)
        got = measure.mass_of_interval(lo, hi, closed=closed)
        assert exact > 0 and _close(got, exact, INTERVAL_REL * exact), (lo, hi)
        masses.append(got)
    # the vectorised call gives the scalar calls' values
    for measure in (HALVES, DUST, COMB):
        rows = [(lo, hi) for m, lo, hi in SMALL_INTERVALS if m is measure]
        lo, hi = np.array(rows).T
        want = [g for (m, _, _), g in zip(SMALL_INTERVALS, masses) if m is measure]
        np.testing.assert_array_equal(measure.mass_of_interval(lo, hi, closed=closed), want)


def _limit_pairs():
    pairs = {}
    for name, measure in REFERENCE_MEMBERS.items():
        family = name.rsplit("-", 1)[0]
        if family == "staircase@0.3":
            pairs[name] = (measure, gallery("staircase", a=0.3).limit)
        elif family in GALLERY_NAMES and gallery(family).limit is not None:
            pairs[name] = (measure, gallery(family).limit)
    pairs["mixed-vs-uniform"] = (REFERENCE_MEMBERS["mixed"], LineMeasure.uniform(0.0, 1.0))
    pairs["mixed-vs-comb"] = (REFERENCE_MEMBERS["mixed"], REFERENCE_MEMBERS["lattice-comb-10"])
    return pairs


LIMIT_PAIRS = _limit_pairs()


@pytest.mark.parametrize("name", sorted(LIMIT_PAIRS))
def test_tv_and_setwise_match_exact_rationals(name):
    m1, m2 = LIMIT_PAIRS[name]
    assert _close(tv_distance(m1, m2), reference.exact_tv(m1, m2), GAUGE_ABS)
    sites = tuple(np.concatenate((m1.atoms[:, 0], m2.atoms[:, 0])).tolist())
    sets = [(lo, hi) for lo, hi, _ in REFERENCE_INTERVALS] + [("points", sites or (0.5,))]
    exact = max(
        abs(reference.exact_interval_mass(m1, lo, hi) - reference.exact_interval_mass(m2, lo, hi))
        for lo, hi, _ in REFERENCE_INTERVALS
    )
    points = sites or (0.5,)
    exact = max(exact, abs(reference.exact_points_mass(m1, points) - reference.exact_points_mass(m2, points)))
    assert _close(setwise_discrepancy(m1, m2, sets), exact, GAUGE_ABS)


TV_REL = 1e-12  # relative: each cell's density difference is rounded once


def test_small_tv_distances_keep_their_relative_digits():
    # staircase member n lies a^(n+1) from its limit, down to 2^-26 at n = 25;
    # differences of two rounded cell masses lost 7.4e-10 of it there
    fam = gallery("staircase", a=0.5)
    for n in range(1, 26):
        exact = reference.exact_tv(fam.at(n), fam.limit)
        assert _close(tv_distance(fam.at(n), fam.limit), exact, TV_REL * exact), n


@st.composite
def line_measures(draw):
    anchors = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
    atoms = tuple(
        (draw(st.sampled_from(anchors)), draw(st.floats(0.01, 1.0)))
        for _ in range(draw(st.integers(0, 3)))
    )
    edges = sorted(draw(st.sets(st.sampled_from(anchors), max_size=6)))
    pieces = tuple(
        (lo, hi, draw(st.floats(0.01, 3.0)))
        for lo, hi in zip(edges[::2], edges[1::2])
        if hi > lo
    )
    if not atoms and not pieces:
        atoms = ((0.5, 1.0),)
    return LineMeasure(atoms=atoms, pieces=pieces)


@given(line_measures(), line_measures())
@settings(max_examples=60, deadline=None)
def test_setwise_is_below_tv(m1, m2):
    sets = [(0.0, 0.5), (0.25, 0.75), (0.5, 1.0), (0.0, 1.0), ("points", [0.2, 0.5, 0.8])]
    tv = tv_distance(m1, m2)
    sw = setwise_discrepancy(m1, m2, sets)
    assert 0.0 <= sw <= tv + 1e-12
    assert tv == pytest.approx(tv_distance(m2, m1), abs=1e-14)


# ---------------------------------------------------------------------------
# Wasserstein-1


def _w1_pairs():
    """The equal-mass pairs of LIMIT_PAIRS, each Cantor stage against the
    next, and the mixed member against Lebesgue measure of its own mass."""
    pairs = {
        name: (m1, m2) for name, (m1, m2) in LIMIT_PAIRS.items() if abs(m1.total - m2.total) <= 1e-12
    }
    stages = gallery("cantor-mass-stages")
    for name, measure in REFERENCE_MEMBERS.items():
        if name.startswith("cantor-mass-stages-"):
            pairs[name] = (measure, stages.at(int(name.rsplit("-", 1)[1]) + 1))
    mixed = REFERENCE_MEMBERS["mixed"]
    pairs["mixed"] = (mixed, LineMeasure.uniform(0.0, 1.0, mixed.total))
    return pairs


W1_PAIRS = _w1_pairs()


@pytest.mark.parametrize("name", sorted(W1_PAIRS))
def test_w1_matches_exact_rationals(name):
    m1, m2 = W1_PAIRS[name]
    assert _close(w1_distance(m1, m2), reference.exact_w1(m1, m2), GAUGE_ABS)


W1_CLOSED_FORMS = {
    "lattice-comb": lambda n: 1.0 / (2 * n),
    "atom-vs-uniform": lambda n: 1.0 / (2 * n * n),
    "leaking-block": lambda n: 3.0 / (2 * n),
    "alternating-collapse": lambda n: 1.0 / (2 * n) if n % 2 else 1.0 / n,
}


@pytest.mark.parametrize("name", sorted(W1_CLOSED_FORMS))
def test_w1_to_the_limit_meets_its_closed_form(name):
    # the weak column of converge: every member decays to its limit like
    # the closed form, collapsing blocks and drifting atoms included
    fam, form = gallery(name), W1_CLOSED_FORMS[name]
    for n in range(1, 301):
        assert w1_distance(fam.at(n), fam.limit) == pytest.approx(form(n), rel=1e-13, abs=0.0), n


def test_w1_between_cantor_stages_is_a_twelfth_of_the_stage_length():
    # each stage-n interval of length 3^-n and mass 2^-n moves mL/12 to its
    # two stage-(n+1) thirds
    stages = gallery("cantor-mass-stages")
    members = [stages.at(n) for n in range(1, 21)]
    for n, (m1, m2) in enumerate(zip(members, members[1:]), start=1):
        assert abs(w1_distance(m1, m2) - 3.0**-n / 12) <= 1e-15, n


def test_w1_refuses_unequal_total_masses():
    for name in ("mixed-vs-uniform", "mixed-vs-comb"):
        with pytest.raises(ValueError, match="W1 needs equal total masses"):
            w1_distance(*LIMIT_PAIRS[name])


@st.composite
def probability_measures(draw):
    m = draw(line_measures())
    return LineMeasure(atoms=m.atoms * [1.0, 1.0 / m.total], pieces=m.pieces * [1.0, 1.0, 1.0 / m.total])


@given(probability_measures(), probability_measures())
@settings(max_examples=60, deadline=None)
def test_w1_is_symmetric_and_at_most_span_times_tv(m1, m2):
    w = w1_distance(m1, m2)
    assert w == w1_distance(m2, m1)
    assert w1_distance(m1, m1) == 0.0
    bounds = m1.support_bounds + m2.support_bounds
    assert 0.0 <= w <= (max(bounds) - min(bounds)) * tv_distance(m1, m2) + 1e-12


# ---------------------------------------------------------------------------
# cylinder measures


def assert_additive(cm, tol=1e-12):
    """Each stored level is its child level summed over child_starts, the
    depth-1 masses total one and no mass is negative."""
    for d in range(1, cm.depth):
        sums = np.add.reduceat(cm.level(d + 1), cm.child_starts[d - 1][:-1])
        np.testing.assert_allclose(sums, cm.level(d), rtol=0.0, atol=tol)
    assert abs(float(cm.level(1).sum()) - 1.0) <= 10 * tol
    assert all((cm.level(d) >= 0.0).all() for d in range(1, cm.depth + 1))


def test_ternary_depth_two_masses_are_exactly_quarter():
    sys_ = cantor_system((1 / 3, 1 / 3))
    cm = conformal_measure(sys_, TERNARY_DIM, 2)
    assert cm.level(2).tolist() == [0.25, 0.25, 0.25, 0.25]
    assert cm.level(1).tolist() == [0.5, 0.5]
    assert_additive(cm)


def test_golden_two_map_masses_match_root_powers():
    sys_ = golden_family().truncate(2)
    h2 = bowen_solve(sys_, depth=1).h
    cm = conformal_measure(sys_, h2, 3)
    np.testing.assert_allclose(cm.level(1), (0.25**h2, 0.125**h2), rtol=0.0, atol=1e-12)
    assert cm.level(1).sum() == pytest.approx(1.0, abs=1e-12)


def test_cylinder_additivity_is_machine_exact():
    for sys_, depth in (
        (golden_family().truncate(5), 4),
        (continued_fraction_family().truncate(3), 5),
    ):
        h = bowen_solve(sys_, depth=6).h
        cm = conformal_measure(sys_, h, depth)
        assert_additive(cm, tol=1e-12)
        for d in range(1, depth):
            kids = np.add.reduceat(cm.level(d + 1), cm.child_starts[d - 1][:-1])
            np.testing.assert_allclose(kids, cm.level(d), rtol=0.0, atol=1e-15)


def test_cylinder_measure_argument_guards():
    sys_ = cantor_system((1 / 3, 1 / 3))
    with pytest.raises(ValueError, match="depth must be >= 1"):
        CylinderMeasure(sys_, 0, np.ones(1))
    dead_end = IncidenceMatrix(((0, 1), (0, 0)))
    dead = SystemSpec(_similitudes((0.4, 0.0), (0.3, 0.5)), dead_end, label="dead-end")
    with pytest.raises(ValueError, match="dead-end symbol"):
        CylinderMeasure(dead, 2, np.ones(1))


def test_fibonacci_cylinder_tables_follow_the_incidence():
    fibonacci = IncidenceMatrix(((1, 1), (1, 0)))
    fib = SystemSpec(_similitudes((0.4, 0.0), (0.3, 0.5)), fibonacci, label="fibonacci")
    cm = conformal_measure(fib, 0.5, 3)
    assert_additive(cm)
    # the depth-2 words 00, 01, 10 in lexicographic order: 11 is forbidden
    last = [w[-1] for w in enumerate_admissible(fib.incidence, 2)]
    assert cm.last_symbols[1].tolist() == last == [0, 1, 0]


def test_limit_measure_dominates_truncation_masses():
    # the countable-family conformal masses a_w^h never exceed the
    # truncation masses a_w^{h_n}, since h >= h_n and every ratio is < 1
    fam = golden_family()
    h = analytic_bowen_solve(fam).h
    n = 4
    sys_ = fam.truncate(n)
    hn = bowen_solve(sys_, depth=1).h
    cm = conformal_measure(sys_, hn, 4)
    for depth in range(1, 5):
        for word, mass in zip(enumerate_admissible(sys_.incidence, depth), cm.level(depth)):
            log_ratio = sum(math.log(fam.row(i + 1)[0]) for i in word)
            limit_mass = math.exp(h * log_ratio)
            assert limit_mass <= float(mass) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# stage distributions and the singular-mass bound


def test_ternary_stage_layout():
    sys_ = cantor_system((1 / 3, 1 / 3))
    stage = mass_distribution_sequence(sys_, TERNARY_DIM, 1)
    np.testing.assert_allclose(stage.pieces[:, :2], [[0.0, 1 / 3], [2 / 3, 1.0]], rtol=1e-12, atol=0)
    assert stage.pieces[0, 0] == 0.0 and stage.pieces[1, 1] == 1.0
    np.testing.assert_allclose(stage.pieces[:, 2], 1.5, rtol=0, atol=1e-12)
    assert stage.total == pytest.approx(1.0, abs=1e-12)
    deeper = mass_distribution_sequence(sys_, TERNARY_DIM, 2)
    assert deeper.pieces.shape == (4, 3)
    lo, hi, density = deeper.pieces.T
    np.testing.assert_allclose(density * (hi - lo), 0.25, rtol=0, atol=1e-12)


def test_touching_stage_is_lebesgue():
    sys_ = cantor_system((0.5, 0.5))
    stage = mass_distribution_sequence(sys_, 1.0, 1)
    assert tv_distance(stage, LineMeasure.uniform(0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_stage_distribution_guards():
    with pytest.raises(ValueError):
        mass_distribution_sequence(continued_fraction_family().truncate(2), 0.5, 2)
    with pytest.raises(ValueError):
        mass_distribution_sequence(cantor_system((1 / 3, 1 / 3)), 0.5, 0)


def test_truncation_singularity_decay():
    fam = golden_family()
    h4 = bowen_solve(fam.truncate(4), depth=1).h
    q = 2.0 ** (-2 * h4) + 2.0 ** (-3 * h4)
    vals = [truncation_singularity(fam, 2, 4, h4, d) for d in (0, 1, 5, 10, 200)]
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(q, abs=1e-13)
    assert vals[2] == pytest.approx(q**5, rel=1e-12)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert 1.0 - vals[-1] > 0.99


def test_truncation_singularity_whole_space_and_guards():
    fam = golden_family()
    h3 = bowen_solve(fam.truncate(3), depth=1).h
    for d in (1, 50, 200):
        assert truncation_singularity(fam, 3, 3, h3, d) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        truncation_singularity(fam, 4, 3, h3, 10)
    with pytest.raises(ValueError):
        truncation_singularity(fam, 2, 3, h3, -1)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_uniform_passes_ks():
    cloud = sample(LineMeasure.uniform(0.0, 1.0), 10_000, seed=7)
    pts = np.sort(cloud)
    ks = float(np.max(np.abs(pts - np.arange(1, 10_001) / 10_000)))
    assert ks < 0.02
    assert len(cloud) == 10_000


def test_sampling_point_mass_and_empty_cloud():
    cloud = sample(LineMeasure.point_mass(0.0), 5, seed=1)
    assert cloud.tolist() == [0.0] * 5
    empty = sample(LineMeasure.uniform(0.0, 1.0), 0, seed=1)
    assert len(empty) == 0
    cylinders = conformal_measure(cantor_system((1 / 3, 1 / 3)), TERNARY_DIM, 3)
    assert len(sample(cylinders, 0, seed=1)) == 0
    with pytest.raises(ValueError):
        sample(LineMeasure.uniform(0.0, 1.0), -1, seed=1)
    with pytest.raises(ValueError):
        sample(LineMeasure.uniform(0.0, 2.0, mass=2.0), 10, seed=1)  # not normalized


def test_sampling_is_reproducible_and_seed_sensitive():
    leb = LineMeasure.uniform(0.0, 1.0)
    a = sample(leb, 100, seed=42)
    b = sample(leb, 100, seed=42)
    c = sample(leb, 100, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _distance_to_middle_thirds(v: float, levels: int = 35) -> float:
    # branch-and-bound over the construction intervals, descending into the
    # nearer child first so the bound tightens after one root-to-leaf walk
    best = math.inf
    stack = [(0.0, 1.0, 0)]
    while stack:
        lo, hi, d = stack.pop()
        gap = max(0.0, lo - v, v - hi)
        if gap >= best:
            continue
        if d == levels:
            best = gap
            continue
        third = (hi - lo) / 3.0
        kids = [(lo, lo + third, d + 1), (hi - third, hi, d + 1)]
        kids.sort(key=lambda iv: max(0.0, iv[0] - v, v - iv[1]), reverse=True)
        stack.extend(kids)
    return best


def test_cantor_samples_live_on_the_cantor_set():
    sys_ = cantor_system((1 / 3, 1 / 3))
    cm = conformal_measure(sys_, TERNARY_DIM, 2)
    cloud = sample(cm, 2_000, seed=5)
    assert float(cloud.min()) >= 0.0 and float(cloud.max()) <= 1.0
    worst = max(_distance_to_middle_thirds(float(v)) for v in cloud)
    assert worst <= 1e-9


def test_cylinder_sampling_frequencies_match_masses():
    sys_ = cantor_system((1 / 3, 1 / 3))
    cm = conformal_measure(sys_, TERNARY_DIM, 2)
    n = 100_000
    cloud = sample(cm, n, seed=2024)
    edges = [(0.0, 1 / 9), (2 / 9, 1 / 3), (2 / 3, 7 / 9), (8 / 9, 1.0)]
    for (lo, hi), p in zip(edges, cm.level(2)):
        freq = float(np.mean((cloud >= lo) & (cloud <= hi)))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * sigma


def test_moebius_cylinder_sampling_stays_in_bounds():
    sys_ = continued_fraction_family().truncate(2)
    h = bowen_solve(sys_, depth=10).h
    cm = conformal_measure(sys_, h, 3)
    cloud = sample(cm, 1_000, seed=9)
    # digits {1, 2} keep the limit set inside [sqrt(3)-1)/2, sqrt(3)-1]
    lo = (math.sqrt(3.0) - 1.0) / 2.0
    hi = math.sqrt(3.0) - 1.0
    assert float(cloud.min()) >= lo - 1e-9
    assert float(cloud.max()) <= hi + 1e-9


def _per_sample_reference(measure, count, seed):
    """The cylinder sampler as first written: every sample pushes its own
    2x2 product at every stored level and searches the whole level's
    cumulative masses.  Beyond the stored depth each digit is a level-2
    child of the current symbol, drawn by the same step.  The sampler must
    reproduce it bit for bit."""
    rng = np.random.Generator(np.random.Philox(int(seed)))
    mats = measure.system.coefficients
    A, B, C, D = np.ones(count), np.zeros(count), np.zeros(count), np.ones(count)

    def push(digits):
        nonlocal A, B, C, D
        a, b, c, d = (mats[digits, k] for k in range(4))
        A, B, C, D = A * a + B * c, A * b + B * d, C * a + D * c, C * b + D * d
        scale = np.maximum.reduce([np.abs(A), np.abs(B), np.abs(C), np.abs(D)])
        A, B, C, D = A / scale, B / scale, C / scale, D / scale

    def child(masses, cs, idx):
        cum = np.concatenate(([0.0], np.cumsum(masses)))
        base, top = cum[cs[idx]], cum[cs[idx + 1]]
        target = base + rng.random(count) * (top - base)
        nxt = np.searchsorted(cum, target, side="right") - 1
        return np.clip(nxt, cs[idx], cs[idx + 1] - 1)

    cum1 = np.cumsum(measure.masses[0])
    idx = np.searchsorted(cum1, rng.random(count) * cum1[-1], side="right")
    idx = np.minimum(idx, len(cum1) - 1)
    push(idx)
    for d in range(2, measure.depth + 1):
        idx = child(measure.masses[d - 1], measure.child_starts[d - 2], idx)
        push(measure.last_symbols[d - 1][idx])
    masses, cs, last = _level_two(measure)
    cur = measure.last_symbols[measure.depth - 1][idx]
    while True:
        x0 = B / D
        x1 = (A + B) / (C + D)
        if float(np.abs(x1 - x0).max()) < 1e-9:
            return 0.5 * (x0 + x1)
        cur = last[child(masses, cs, cur)]
        push(cur)


def _level_two(measure):
    """Level 2's masses, child starts and last symbols; at depth 1 every
    admissible successor weighs its depth-1 mass."""
    if measure.depth >= 2:
        return measure.masses[1], measure.child_starts[0], measure.last_symbols[1]
    allowed = measure.system.incidence.allowed
    last = np.nonzero(allowed)[1]
    return measure.masses[0][last], np.concatenate(([0], np.cumsum(allowed.sum(axis=1)))), last


def _similitudes(*pairs):
    """Coefficient rows of the similitudes x -> r x + o."""
    return [(r, o, 0.0, 1.0) for r, o in pairs]


SAMPLER_SYSTEMS = {
    "cf3": continued_fraction_family().truncate(3),
    # Fibonacci incidences: words of 2 and 3 symbols with 1-3 children each
    "fibonacci-2": SystemSpec(
        _similitudes((0.4, 0.0), (0.3, 0.5)),
        IncidenceMatrix(((1, 1), (1, 0))),
    ),
    "fibonacci-3": SystemSpec(
        _similitudes((0.3, 0.0), (0.25, 0.35), (-0.3, 1.0)),
        IncidenceMatrix(((1, 1, 1), (1, 0, 1), (0, 1, 0))),
    ),
    "mixed": SystemSpec(
        [(0.0, 1.0, 1.0, 2), (0.0, 1.0, 1.0, 3)] + _similitudes((0.2, 0.0), (-0.3, 0.9)),
        IncidenceMatrix.full(4),
    ),
}


def test_depth_one_sampler_keeps_to_the_incidence_matrix():
    # 1 -> 1 is forbidden, so no sample may land in the cylinder [1, 1],
    # the image [0.65, 0.74]; a full-shift extension law put 21 % there
    fib = SAMPLER_SYSTEMS["fibonacci-2"]
    h = bowen_solve(fib, depth=1).h
    points = sample(conformal_measure(fib, h, 1), 20_000, seed=5)
    assert not np.any((points >= 0.65) & (points <= 0.74))
    # the admissible cylinder [1, 0] = [0.5, 0.62] keeps its share
    assert np.mean((points >= 0.5) & (points <= 0.62)) > 0.1


@st.composite
def sampler_systems(draw):
    name = draw(st.sampled_from(sorted(SAMPLER_SYSTEMS) + ["cantor"]))
    if name == "cantor":
        return cantor_system(draw(st.lists(st.floats(0.05, 0.24), min_size=2, max_size=4)))
    return SAMPLER_SYSTEMS[name]


@given(
    sampler_systems(),
    st.integers(1, 7),
    st.floats(0.1, 1.0),
    st.integers(1, 300),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_cylinder_sampler_matches_the_per_sample_reference_bit_for_bit(
    system, depth, h, count, seed
):
    measure = conformal_measure(system, h, depth)
    got = sample(measure, count, seed)
    assert got.tobytes() == _per_sample_reference(measure, count, seed).tobytes()


def _with_neighbours(values: np.ndarray) -> np.ndarray:
    """Each value and the floats just below and above it."""
    return np.concatenate((values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)))


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=10),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_child_choice_is_the_clipped_searchsorted_on_every_boundary(kids, data):
    # masses of 0 make runs of equal boundaries; targets sit on every
    # boundary of the level and one float to either side, under every parent
    cs = np.concatenate(([0], np.cumsum(kids)))
    weights = st.sampled_from([0.0, 0.125, 0.25, 1.0 / 3.0, 1.0])
    masses = np.array(data.draw(st.lists(weights, min_size=int(cs[-1]), max_size=int(cs[-1]))))
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    targets = _with_neighbours(cum)
    parents = np.repeat(np.arange(len(kids)), targets.size)
    target = np.tile(targets, len(kids))
    n = target.size
    got = np.empty(n, dtype=np.int64)
    _child_choice(cum, cs, parents, target, got, np.empty(n), np.empty(n, dtype=bool))
    want = np.clip(np.searchsorted(cum, target, "right") - 1, cs[parents], cs[parents + 1] - 1)
    assert got.tolist() == want.tolist()


class _FixedDraws:
    """Stands in for the generator: every draw gives the values ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[:] = self.u
        return out


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("h", [0.4, 0.9])
@pytest.mark.parametrize("name", ["fibonacci-2", "fibonacci-3"])
def test_tail_digits_are_admissible_successors(name, h, depth):
    # u = 0 and u on every level-2 boundary of every symbol's block and one
    # float to either side: each draw is a child, so never a forbidden step
    measure = conformal_measure(SAMPLER_SYSTEMS[name], h, depth)
    masses, cs, last = _level_two(measure)
    level = cum, _, lo, width = _level(masses, cs)
    m = len(cs) - 1
    us = _with_neighbours(np.concatenate([(cum - lo[e]) / width[e] for e in range(m)]))
    us = np.concatenate(([0.0], us[(us >= 0.0) & (us < 1.0)]))
    cur = np.repeat(np.arange(m), us.size)
    n = cur.size
    got = np.empty(n, dtype=np.int64)
    draws = _FixedDraws(np.tile(us, m))
    _draw_children(level, cur, got, draws, np.empty((2, n)), np.empty(n, dtype=bool))
    assert ((cs[cur] <= got) & (got < cs[cur + 1])).all()
    assert measure.system.incidence.allowed[cur, last[got]].all()


# ---------------------------------------------------------------------------
# gallery plumbing


def test_gallery_names_and_errors():
    for name in GALLERY_NAMES:
        fam = gallery(name)
        member = fam.at(3)
        assert member.total == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gallery("no-such-family")
    with pytest.raises(ValueError):
        gallery("staircase", a=1.0)
    with pytest.raises(ValueError):
        gallery("leaking-block").at(0)


def test_alternating_collapse_parity():
    fam = gallery("alternating-collapse")
    odd = fam.at(5)
    assert odd.atoms.shape == (0, 2)
    np.testing.assert_array_equal(odd.pieces, [[0.0, 0.2, 5.0]])
    even = fam.at(6)
    assert even.pieces.shape == (0, 3)
    np.testing.assert_allclose(even.atoms, [[1 / 6, 1.0]], rtol=1e-15, atol=0)
    assert even.atoms[0, 1] == 1.0


def test_staircase_pieces_tile_without_gaps():
    fam = gallery("staircase", a=0.5)
    for measure in (fam.at(6), fam.limit):
        pieces = measure.pieces
        # identical floats: edges computed once
        np.testing.assert_array_equal(pieces[:-1, 1], pieces[1:, 0])
        assert pieces[-1, 1] == 1.0
    assert fam.limit.total == pytest.approx(1.0, abs=1e-13)
    assert fam.limit.atoms[0, 0] == 0.0  # deep tail parks at the origin


def test_staircase_stage_underflow_is_an_error():
    with pytest.raises(ValueError):
        gallery("staircase", a=0.5).at(40)


def test_cantor_stage_family_has_no_line_limit():
    fam = gallery("cantor-mass-stages")
    assert fam.limit is None
    assert "conformal" in fam.note
    assert fam.at(3).pieces.shape == (8, 3)
