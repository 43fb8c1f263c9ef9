"""Acceptance criteria, one test per criterion with its stated tolerance and
runtime budget.  The terminal summary prints a PASS/FAIL scoreboard (see
conftest).  Criterion 4b is red on purpose: the demanded closed form
disagrees with the exact total-variation distance these measures have — the
README's "Numerical guarantees" section walks through the arithmetic.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ifsdim.cli import main
from ifsdim.dimension import correlation_curve, flatness_detector
from ifsdim.measures import (
    LineMeasure,
    gallery,
    sample,
    setwise_discrepancy,
    truncation_singularity,
    tv_distance,
)
from ifsdim.pressure import analytic_bowen_solve, bowen_solve, collocate
from ifsdim.symbolic import comparison_distance
from ifsdim.systems import (
    cantor_system,
    continued_fraction_family,
    golden_family,
    level_images,
    level_log_derivatives,
)
from ifsdim.transfer import gibbs_state

from reference import conformal_measure

TERNARY_H = math.log(2.0) / math.log(3.0)
GOLDEN_LIMIT = math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.log(2.0)


def _run_bowen(tmp_path, tag: str, ratios: str) -> float:
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text(f"system.family = cantor\nsystem.ratios = {ratios}\n")
    out = tmp_path / tag
    assert main(["bowen", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "bowen-report.json").read_text())["results"]["h"]


def test_c1_bowen_roots_through_the_cli(tmp_path):
    t0 = time.perf_counter()
    thirds = _run_bowen(
        tmp_path, "thirds", "0.3333333333333333, 0.3333333333333333"
    )
    assert thirds == pytest.approx(TERNARY_H, abs=1e-10)
    halves = _run_bowen(tmp_path, "halves", "0.5, 0.5")
    assert halves == pytest.approx(1.0, abs=1e-10)
    assert time.perf_counter() - t0 < 1.0


def test_c2_family_limit_and_monotone_ladder():
    t0 = time.perf_counter()
    family = golden_family()
    limit = analytic_bowen_solve(family)
    assert limit.regular
    assert limit.h == pytest.approx(GOLDEN_LIMIT, abs=1e-8)
    roots = [bowen_solve(family.truncate(n), depth=1).h for n in range(2, 13)]
    assert all(a <= b for a, b in zip(roots, roots[1:]))
    assert all(h <= limit.h for h in roots)
    assert limit.h - roots[-1] < 1e-2
    assert time.perf_counter() - t0 < 5.0


def test_c3_cylinders_converge_measures_diverge():
    t0 = time.perf_counter()
    family = golden_family()
    h = analytic_bowen_solve(family).h
    roots = {n: bowen_solve(family.truncate(n), depth=1).h for n in range(2, 13)}

    # depth-2 cylinder masses approach the limit weights...
    discrepancies = []
    for n in range(2, 13):
        ratios = np.array([family.row(i)[0] for i in range(1, n + 1)])
        weights = ratios ** roots[n]
        weights /= weights.sum()
        limit_weights = ratios**h
        discrepancies.append(
            np.abs(np.kron(weights, weights) - np.kron(limit_weights, limit_weights)).max()
        )
    assert discrepancies == sorted(discrepancies, reverse=True)
    assert discrepancies[-1] < 1e-3

    # ...while the conformal measures themselves stay nearly mutually
    # singular: TV lower bound above 0.99 on every tested truncation pair
    pairs = [(a, b) for a in range(2, 8) for b in range(a + 1, 8)]
    pairs += [(a, 12) for a in range(2, 8)]
    for n1, n2 in pairs:
        bound = 1.0 - truncation_singularity(family, n1, n2, roots[n2], 200)
        assert bound > 0.99, f"pair ({n1}, {n2}) only reaches {bound:.4f}"
    assert time.perf_counter() - t0 < 5.0


def test_c4a_leaking_block_tv_is_exactly_one_over_n():
    t0 = time.perf_counter()
    family = gallery("leaking-block")
    for n in range(1, 17):
        tv = tv_distance(family.at(n), family.limit)
        assert tv == pytest.approx(1.0 / n, abs=1e-15)
    assert time.perf_counter() - t0 < 1.0


def test_c4b_staircase_tv_matches_the_stated_form():
    # Red on purpose: the exact distance is a^(n+1); the demanded form
    # divides by (1 - a^(n+1)) and the two differ at every stage far beyond
    # the 1e-12 tolerance (n = 1: exact 0.25 vs demanded 1/3).  The unit
    # suite pins the exact value; this assertion states the demanded one.
    t0 = time.perf_counter()
    a = 0.5
    family = gallery("staircase", a=a)
    for n in range(1, 11):
        tv = tv_distance(family.at(n), family.limit)
        target = a ** (n + 1) / (1.0 - a ** (n + 1))
        assert tv == pytest.approx(target, abs=1e-12), (
            f"stage {n}: measured {tv!r}, demanded {target!r}"
        )
    assert time.perf_counter() - t0 < 1.0


def test_c5_correlation_slope_calibration():
    t0 = time.perf_counter()

    uniform_cloud = sample(LineMeasure.uniform(0.0, 1.0), 10_000, seed=101)
    uniform = correlation_curve(
        uniform_cloud, 1e-4, 0.5, count=30, fit_window=(1e-3, 1e-1)
    )
    assert uniform.slope == pytest.approx(1.0, abs=0.05)

    ternary = cantor_system((1 / 3, 1 / 3))
    measure = conformal_measure(ternary, TERNARY_H, depth=12)
    cantor_cloud = sample(measure, 10_000, seed=202)
    cantor = correlation_curve(
        cantor_cloud, 3.0**-11, 3.0**-2, count=30, fit_window=(3.0**-10, 3.0**-3)
    )
    assert cantor.slope == pytest.approx(0.631, abs=0.03)

    flat_cloud = sample(gallery("staircase", a=0.5).limit, 10_000, seed=404)
    flat = correlation_curve(
        flat_cloud, 1e-21, 1e-7, count=25, fit_window=(1e-20, 1e-8)
    )
    assert flat.slope < 0.1

    assert time.perf_counter() - t0 < 30.0


def test_c6_flatness_exponent_bound_on_the_ladder():
    t0 = time.perf_counter()
    a = 0.5
    limit = gallery("staircase", a=a).limit
    radii = [a ** (k * k) for k in range(1, 9)]
    curve = flatness_detector(limit, radii)
    for r, e in zip(curve.radii, curve.exponents):
        k = round(math.sqrt(math.log(r) / math.log(a)))
        assert e <= 2.0 / k + 0.01, f"radius a^{k}^2: exponent {e:.4f}"
    assert curve.fired
    assert time.perf_counter() - t0 < 2.0


def test_c7_operator_eigenvalue_and_ratio_at_the_root():
    t0 = time.perf_counter()
    family = golden_family()
    for n in range(2, 9):
        system = family.truncate(n)
        h_n = bowen_solve(system, depth=1).h
        pair = collocate(system).eigenpair(h_n)
        assert abs(pair.eigenvalue - 1.0) < 1e-6, f"golden n={n}"
        assert abs(gibbs_state(pair).ratio - h_n) < 1e-6, f"golden n={n}"
    for n in (2, 3):
        pair, _ = collocate(continued_fraction_family().truncate(n)).root()
        assert abs(pair.eigenvalue - 1.0) < 1e-6, f"digits {{1..{n}}}"
    assert time.perf_counter() - t0 < 10.0


def _random_line_measure(rng) -> LineMeasure:
    cuts = np.sort(rng.uniform(0.0, 2.0, size=8))
    while len(np.unique(cuts)) < 8:
        cuts = np.sort(rng.uniform(0.0, 2.0, size=8))
    pieces = tuple(
        (float(cuts[2 * j]), float(cuts[2 * j + 1]), float(rng.uniform(0.1, 3.0)))
        for j in range(rng.integers(0, 4))
    )
    atoms = tuple(
        (float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.1, 1.0)))
        for _ in range(rng.integers(0, 4))
    )
    if not pieces and not atoms:
        atoms = ((1.0, 1.0),)
    return LineMeasure(pieces=pieces, atoms=atoms)


def test_c8_property_suite():
    # exact additivity of cylinder masses down the stored levels
    family = golden_family()
    five = family.truncate(5)
    h5 = bowen_solve(five, depth=1).h
    masses = conformal_measure(five, h5, depth=5)
    for d in range(1, 5):
        children = np.add.reduceat(masses.level(d + 1), masses.child_starts[d - 1][:-1])
        assert np.abs(masses.level(d) - children).max() < 1e-12

    # the infinite family's conformal masses never exceed a truncation's
    h = analytic_bowen_solve(family).h
    six_ratios = [family.row(i)[0] for i in range(1, 7)]
    h6 = bowen_solve(family.truncate(6), depth=1).h
    for depth in range(1, 5):
        for combo in itertools.product(range(6), repeat=depth):
            r = math.prod(six_ratios[s] for s in combo)
            assert r**h <= r**h6 * (1.0 + 1e-12)

    # bounded distortion: derivative sup/inf ratio at most 4 per cylinder
    cf2 = continued_fraction_family().truncate(2)
    for depth in range(1, 7):
        log_sup, log_inf = level_log_derivatives(cf2, depth)
        assert np.all(log_sup - log_inf <= math.log(4.0) + 1e-12)

    # word comparison metric is an ultrametric
    rng = np.random.Generator(np.random.Philox(88))
    for _ in range(50):
        a, b, c = (
            tuple(int(s) for s in rng.integers(0, 4, size=rng.integers(1, 12)))
            for _ in range(3)
        )
        d_ac = comparison_distance(a, c)
        assert d_ac <= max(comparison_distance(a, b), comparison_distance(b, c)) + 1e-15

    # the finite-test-set gauge never exceeds total variation
    for _ in range(50):
        m1 = _random_line_measure(rng)
        m2 = _random_line_measure(rng)
        cuts = np.sort(rng.uniform(0.0, 2.0, size=6))
        sets = [(float(cuts[i]), float(cuts[i + 1])) for i in range(5)]
        atom_sites = np.concatenate((m1.atoms[:, 0], m2.atoms[:, 0]))
        if atom_sites.size:
            sets.append(("points", atom_sites))
        assert setwise_discrepancy(m1, m2, sets) <= tv_distance(m1, m2) + 1e-12

    # sampled first-two-digit frequencies sit within 3 sigma of the masses
    skewed = cantor_system((0.4, 0.2))
    root = bowen_solve(skewed, depth=1).h
    masses2 = conformal_measure(skewed, root, depth=4)
    cloud = sample(masses2, 100_000, seed=909)
    image_lo, image_hi = level_images(skewed, 2)
    expected = masses2.level(2)
    for i in range(len(image_lo)):
        inside = (cloud >= image_lo[i]) & (cloud <= image_hi[i])
        freq = inside.mean()
        sigma = math.sqrt(expected[i] * (1.0 - expected[i]) / len(cloud))
        assert abs(freq - expected[i]) <= 3.0 * sigma, f"cylinder {i}"


def test_c9_readme_states_the_guarantee_classes():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parts = text.split("## Numerical guarantees", 1)
    assert len(parts) == 2, "README must carry a Numerical guarantees section"
    body = parts[1]
    for phrase in (
        "finite truncations",
        "closed-form oracles",
        "cross-consistency",
        "Certified brackets",
        "Floating-point identities",
        "Statistical estimates",
        "kept red on purpose",
    ):
        assert phrase in body, f"guarantees section must mention {phrase!r}"
