import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifsdim.systems import (
    InvalidSystem,
    SeparationError,
    SystemSpec,
    ensure_separation,
    borderline_family,
    cantor_system,
    continued_fraction_family,
    golden_family,
    level_images,
    level_log_derivatives,
)

import reference
from reference import enumerate_admissible, word_image


# --- construction and validation -------------------------------------------


def test_golden_truncation_layout():
    sys3 = golden_family().truncate(3)
    assert sys3.coefficients.tolist() == [
        [0.25, 0.0, 0.0, 1.0],
        [0.125, 0.5, 0.0, 1.0],
        [0.0625, 0.75, 0.0, 1.0],
    ]
    images = [word_image(sys3, (e,)) for e in range(3)]
    assert images == [(0.0, 0.25), (0.5, 0.625), (0.75, 0.8125)]
    ensure_separation(sys3)


def test_golden_log_mass_matches_finite_sums():
    fam = golden_family()
    # at t=1 the full series is sum 2^-(i+1) = 1/2
    assert fam.log_mass(1.0) == pytest.approx(math.log(0.5), abs=1e-14)
    assert fam.log_mass(-0.5) == math.inf
    for t in (0.3, 0.7, 1.3):
        finite = sum(fam.row(i)[0] ** t for i in range(400, 0, -1))
        assert fam.log_mass(t) == pytest.approx(math.log(finite), abs=1e-9)


def test_cantor_layout():
    sys_ = cantor_system((1 / 3, 1 / 3))
    assert sys_.coefficients[:, 1].tolist() == [0.0, pytest.approx(2 / 3)]
    ensure_separation(sys_)
    touching = cantor_system((0.5, 0.5))
    assert touching.coefficients[:, 1].tolist() == [0.0, 0.5]
    ensure_separation(touching)  # touching endpoints are fine


def test_cantor_rejects_bad_ratios():
    with pytest.raises(InvalidSystem):
        cantor_system((0.7, 0.7))
    with pytest.raises(InvalidSystem):
        cantor_system((0.3,))
    with pytest.raises(InvalidSystem):
        cantor_system((0.3, 1.2))


def test_truncate_bounds():
    with pytest.raises(ValueError):
        golden_family().truncate(1)
    sys2 = golden_family().truncate(2)
    assert sys2.alphabet_size == 2
    assert sys2.coefficients[:, 0].tolist() == [0.25, 0.125]


def test_at_least_two_maps():
    with pytest.raises(InvalidSystem, match="a system needs at least two maps"):
        SystemSpec([(0.5, 0.0, 0.0, 1.0)])


def test_map_validation():
    # each bad map second, after a good one, so the message names map 1
    good = (0.5, 0.0, 0.0, 1.0)
    for bad, message in [
        ((1.0, 0.0, 0.0, 1.0), "map 1: similitude ratio must satisfy 0 < |a| < 1, got 1.0"),
        ((0.0, 0.0, 0.0, 1.0), "map 1: similitude ratio must satisfy 0 < |a| < 1, got 0.0"),
        ((0.0, 1.0, 1.0, 0.0), "map 1: moebius parameter must be an integer >= 1, got 0"),
        ((0.0, 1.0, 1.0, 2.5), "map 1: moebius parameter must be an integer >= 1, got 2.5"),
        ((0.5, 0.0, 0.1, 1.0), "map 1: unknown map kind, coefficients (0.5, 0.0, 0.1, 1.0)"),
        # NaN compares false, so it would pass every check below this one
        ((0.4, math.nan, 0.0, 1.0), "map 1: coefficients must be finite, got (0.4, nan, 0.0, 1.0)"),
        ((0.0, 1.0, 1.0, math.inf), "map 1: coefficients must be finite, got (0.0, 1.0, 1.0, inf)"),
    ]:
        with pytest.raises(InvalidSystem, match=re.escape(message)):
            SystemSpec([good, bad])


def test_separation_detects_overlap():
    sys_ = SystemSpec([(0.5, 0.0, 0.0, 1.0), (0.5, 0.25, 0.0, 1.0)])
    with pytest.raises(SeparationError, match=r"images of maps 0 and 1 overlap"):
        ensure_separation(sys_)


def _wide_similitudes(m: int) -> np.ndarray:
    """m similitude rows with images [k/m, (k + 0.5)/m], left to right."""
    k = np.arange(m)
    return np.column_stack((np.full(m, 0.5 / m), k / m, np.zeros(m), np.ones(m)))


@pytest.mark.parametrize("k", [0, 417, 998])
def test_separation_names_the_planted_overlap_among_1000_maps(k):
    rows = _wide_similitudes(1000)
    ensure_separation(SystemSpec(rows))
    rows[k, 0] = 1.2 / 1000  # reaches past the start of image k + 1
    system = SystemSpec(rows)
    with pytest.raises(SeparationError, match=rf"^images of maps {k} and {k + 1} overlap \("):
        ensure_separation(system)


def test_separation_names_the_first_map_leaving_its_space():
    rows = _wide_similitudes(1000)
    rows[[600, 250, 800], 1] += 0.8  # pushes three images past 1
    with pytest.raises(SeparationError, match=r"^map 250 image \[1\.05.*\] leaves \[0, 1\]$"):
        ensure_separation(SystemSpec(rows))


# --- word geometry: similitudes --------------------------------------------


def test_word_image_exact():
    sys_ = cantor_system((1 / 3, 1 / 3))
    lo, hi = word_image(sys_, (0, 1))
    assert (lo, hi) == (pytest.approx(2 / 9), pytest.approx(1 / 3))
    log_sup, log_inf = level_log_derivatives(sys_, 2)  # words 00, 01, 10, 11
    image_lo, image_hi = level_images(sys_, 2)
    assert log_sup[1] == log_inf[1] == pytest.approx(math.log(1 / 9))
    assert (image_lo[1], image_hi[1]) == (lo, hi)


def test_level_geometry_similitude_is_exact():
    sys_ = golden_family().truncate(3)
    log_sup, log_inf = level_log_derivatives(sys_, 2)
    image_lo, image_hi = level_images(sys_, 2)
    assert len(log_sup) == len(image_lo) == 9
    assert np.array_equal(log_sup, log_inf)
    ratios = sys_.coefficients[:, 0]
    for k, w in enumerate(enumerate_admissible(sys_.incidence, 2)):
        ratio = ratios[w[0]] * ratios[w[1]]
        assert log_sup[k] == pytest.approx(math.log(ratio), abs=1e-12)
        assert (image_lo[k], image_hi[k]) == word_image(sys_, w)


@given(
    st.lists(st.floats(0.05, 0.3), min_size=2, max_size=4),
    st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_level_log_derivatives_are_sums(ratios, depth):
    sys_ = cantor_system(tuple(r / (2 * sum(ratios)) for r in ratios))
    log_sup, _ = level_log_derivatives(sys_, depth)
    logs = np.log(sys_.coefficients[:, 0])
    for k, w in enumerate(enumerate_admissible(sys_.incidence, depth)):
        assert log_sup[k] == pytest.approx(logs[list(w)].sum(), abs=1e-12)


# one system per path through the level: the full shift, two incidences,
# similitudes alone and maps of both kinds (moebius:2; moebius:3;
# similitude:0.2:0)
OUT_OF_PLACE_SYSTEMS = {
    "full-shift": (continued_fraction_family().coefficients(3), None),
    "cycle": (continued_fraction_family().coefficients(3), ((0, 1, 1), (1, 0, 1), (1, 1, 0))),
    "fibonacci": (continued_fraction_family().coefficients(2), ((1, 1), (1, 0))),
    "similitudes": (cantor_system((0.3, 0.4)).coefficients, None),
    "mixed": ([(0.0, 1.0, 1.0, 2.0), (0.0, 1.0, 1.0, 3.0), (0.2, 0.0, 0.0, 1.0)], None),
}


@pytest.mark.parametrize("depth", range(1, 9))
@pytest.mark.parametrize("name", OUT_OF_PLACE_SYSTEMS)
def test_level_built_in_place_is_the_out_of_place_level(name, depth):
    # each reader builds only its own half of the level, byte for byte
    system = SystemSpec(*OUT_OF_PLACE_SYSTEMS[name])
    level = level_log_derivatives(system, depth) + level_images(system, depth)
    want = reference.level_geometry(system, depth)
    for field, got, expected in zip(("log_sup", "log_inf", "image_lo", "image_hi"), level, want):
        assert got.tobytes() == expected.tobytes(), field


# --- word geometry: continued-fraction branches ----------------------------


def test_continued_fraction_layout():
    sys_ = continued_fraction_family().truncate(3)
    assert sys_.coefficients.tolist() == [[0.0, 1.0, 1.0, q] for q in (1.0, 2.0, 3.0)]
    assert word_image(sys_, (0,)) == (0.5, 1.0)
    assert word_image(sys_, (1,)) == (pytest.approx(1 / 3), 0.5)
    ensure_separation(sys_)


def test_moebius_word_bounds_bracket_truth():
    sys_ = continued_fraction_family().truncate(2)
    log_sup, log_inf = level_log_derivatives(sys_, 2)  # word 00 comes first
    image_lo, image_hi = level_images(sys_, 2)
    # |d/dx 1/(1 + 1/(1+x))| ranges over exactly [1/9, 1/4] for x in [0, 1]
    assert math.log(1 / 9) >= log_inf[0] and log_sup[0] >= math.log(0.25)
    assert math.exp(log_sup[0]) == pytest.approx(0.25, rel=1e-14)
    assert math.exp(log_inf[0]) == pytest.approx(1 / 9, rel=1e-14)
    assert (image_lo[0], image_hi[0]) == (pytest.approx(0.5), pytest.approx(2 / 3))
    assert log_sup[0] - log_inf[0] < math.log(4.0)  # one-step distortion (1 + 1/q)^2 <= 4


def test_moebius_image_is_exact_fixed_points():
    # the infinite word 1.1.1... codes 1/phi; cylinder images shrink onto it
    sys_ = continued_fraction_family().truncate(2)
    target = (math.sqrt(5) - 1) / 2
    for depth in (4, 8, 16):
        lo, hi = word_image(sys_, (0,) * depth)
        assert lo <= target <= hi
        assert hi - lo < 0.5 ** (depth // 2)


def chain_rule_derivatives(system: SystemSpec, words, points: int = 257) -> np.ndarray:
    """|s_w'| at `points` equally spaced points of [0, 1] for each word,
    endpoints included, by the chain rule on the map parameters: the ratio
    a and offset b of a similitude row (a, b, 0, 1), the q of a moebius
    row (0, 1, 1, q)."""
    ratio, offset, c, q = system.coefficients.T
    kinds = c == 1.0  # the moebius rows
    symbols = np.array(words)
    x = np.tile(np.linspace(0.0, 1.0, points), (len(symbols), 1))
    deriv = np.ones_like(x)
    for s in symbols.T[::-1]:
        mo, qs = kinds[s][:, None], q[s][:, None]
        deriv *= np.where(mo, 1.0 / (qs + x) ** 2, np.abs(ratio[s])[:, None])
        x = np.where(mo, 1.0 / (qs + x), ratio[s][:, None] * x + offset[s][:, None])
    return deriv


@st.composite
def branch_systems(draw):
    """Continued-fraction prefixes, and custom systems of moebius:q maps,
    similitudes of either orientation, or both kinds mixed."""
    kind = draw(st.sampled_from(["cf", "moebius", "similitude", "mixed"]))
    if kind == "cf":
        return continued_fraction_family().truncate(draw(st.integers(2, 4)))
    size = draw(st.integers(2, 3))
    qs = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size, unique=True))
    moebius = [(0.0, 1.0, 1.0, q) for q in qs]
    similitudes = [
        (
            draw(st.floats(0.05, 0.45)) * draw(st.sampled_from([-1.0, 1.0])),
            draw(st.floats(0.45, 0.55)),
            0.0,
            1.0,
        )
        for _ in range(size)
    ]
    rows = {"moebius": moebius, "similitude": similitudes, "mixed": moebius[:1] + similitudes[1:]}
    return SystemSpec(rows[kind], label=kind)


@given(branch_systems(), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_level_geometry_matches_per_word_composition(sys_, depth):
    log_sup, log_inf = level_log_derivatives(sys_, depth)
    image_lo, image_hi = level_images(sys_, depth)
    words = list(enumerate_admissible(sys_.incidence, depth))
    assert len(log_sup) == len(image_lo) == len(words)
    deriv = chain_rule_derivatives(sys_, words)
    sup, inf = np.exp(log_sup), np.exp(log_inf)
    # 1e-14 covers the reference's own rounding and the exp/log round trip
    assert np.all(deriv <= sup[:, None] * (1 + 1e-14))
    assert np.all(deriv >= inf[:, None] * (1 - 1e-14))
    ends = deriv[:, [0, -1]]
    np.testing.assert_allclose(ends.max(axis=1), sup, rtol=1e-14)
    np.testing.assert_allclose(ends.min(axis=1), inf, rtol=1e-14)
    if sys_.is_similitude():
        assert np.array_equal(log_sup, log_inf)
    for k, w in enumerate(words):
        assert (image_lo[k], image_hi[k]) == word_image(sys_, w)


def test_word_contraction_bounds_word_derivatives():
    sys_ = continued_fraction_family().truncate(3)
    for depth in (2, 3, 4, 5):
        log_sup, _ = level_log_derivatives(sys_, depth)
        bound = (4 / 9) ** (depth // 2)  # the 1-1 pair dominates the two-step contraction
        assert np.exp(log_sup).max() <= bound * (1 + 1e-12)


def test_distortion_bound_certified_on_words():
    sys_ = continued_fraction_family().truncate(3)
    for depth in (1, 2, 4, 6):
        log_sup, log_inf = level_log_derivatives(sys_, depth)
        worst = np.exp(log_sup - log_inf).max()
        # the certified bounds carry a deliberate outward pad of ~1e-14
        assert worst <= 4.0 * (1 + 1e-12)


def exact_log_derivatives(system: SystemSpec, depth: int) -> dict:
    """log |s_w'| at both endpoints of each admissible depth-n word's domain,
    by the chain rule in exact integer ratios, as 60-digit Decimal logs."""
    allowed = system.incidence
    # the branch matrices scaled to integers: the same maps, and
    # |ad - bc| / (c y + d)^2 is unchanged by the scale
    mats = []
    for row in system.coefficients.tolist():
        entries = [Fraction(v) for v in row]
        scale = math.lcm(*(f.denominator for f in entries))
        mats.append([int(f * scale) for f in entries])

    def prepend(e, end):
        # y = p / r and g = n / m, kept unreduced
        (p, r), (n, m) = end
        a, b, c, d = mats[e]
        den = c * p + d * r
        return (a * p + b * r, den), (n * abs(a * d - b * c) * r * r, m * den * den)

    level = {
        (e,): [prepend(e, (float(x).as_integer_ratio(), (1, 1))) for x in (0.0, 1.0)]
        for e in range(system.alphabet_size)
    }
    for _ in range(depth - 1):
        level = {
            (e,) + w: [prepend(e, end) for end in ends]
            for w, ends in level.items()
            for e in range(system.alphabet_size)
            if allowed[e, w[0]]
        }
    with localcontext() as ctx:
        ctx.prec = 60
        return {
            w: [(Decimal(n) / Decimal(m)).ln() for _, (n, m) in ends]
            for w, ends in level.items()
        }


MIXED_ROWS = ((0.0, 1.0, 1.0, 2.0), (0.0, 1.0, 1.0, 3.0), (0.2, 0.0, 0.0, 1.0), (-0.3, 0.9, 0.0, 1.0))


@pytest.mark.parametrize(
    "system, depth",
    [
        (continued_fraction_family().truncate(2), 12),
        (continued_fraction_family().truncate(3), 6),
        (SystemSpec(MIXED_ROWS, label="mixed"), 6),
        # the two full rows take the unmasked path, the first row a mask
        (
            SystemSpec(
                MIXED_ROWS[:3], ((0, 1, 1), (1, 1, 1), (1, 1, 1))
            ),
            6,
        ),
    ],
    ids=["cf12@12", "cf123@6", "mixed@6", "partial-rows@6"],
)
def test_log_brackets_contain_exact_endpoint_logs(system, depth):
    log_sup, log_inf = level_log_derivatives(system, depth)
    exact = exact_log_derivatives(system, depth)
    words = list(enumerate_admissible(system.incidence, depth))
    assert len(log_sup) == len(exact) == len(words)
    misses = 0
    for k, w in enumerate(words):
        lo, hi = min(exact[w]), max(exact[w])
        misses += not (Decimal(float(log_inf[k])) <= lo and hi <= Decimal(float(log_sup[k])))
        # the pad stays a few hundred roundoffs, far inside any real slack
        assert float(Decimal(float(log_sup[k])) - hi) < 1e-13
        assert float(lo - Decimal(float(log_inf[k]))) < 1e-13
    assert misses == 0


def test_admissibility_checked_on_word_helpers():
    rows = [(0.4, 0.0, 0.0, 1.0), (0.3, 0.6, 0.0, 1.0)]
    sys_ = SystemSpec(rows, ((0, 1), (1, 1)))
    assert word_image(sys_, (0, 1)) == (pytest.approx(0.24), pytest.approx(0.36))
    with pytest.raises(ValueError):
        word_image(sys_, (0, 0))  # 0 cannot follow 0 here
    with pytest.raises(ValueError):
        word_image(sys_, (5,))


def test_specs_differing_in_one_coefficient_share_no_level():
    rows = golden_family().coefficients(3)
    moved = rows.copy()
    moved[1, 1] = 0.55  # shifts the image of map 1
    a, b = (SystemSpec(r) for r in (rows, moved))
    assert level_images(a, 1)[0].tolist() == [0.0, 0.5, 0.75]
    assert level_images(b, 1)[0].tolist() == [0.0, 0.55, 0.75]
    with pytest.raises(ValueError):
        b.coefficients[0, 0] = 0.3
    moved[1, 1] = 0.5  # the spec holds its own copy
    assert b.coefficients[1, 1] == 0.55


def test_specs_differing_in_their_incidence_share_no_level():
    rows = continued_fraction_family().coefficients(2)
    shift, fibonacci = SystemSpec(rows), SystemSpec(rows, ((1, 1), (1, 0)))
    assert len(level_images(shift, 4)[0]) == 16
    assert len(level_images(fibonacci, 4)[0]) == 8


def test_a_spec_holds_its_own_incidence():
    allowed = np.ones((2, 2), dtype=bool)
    system = SystemSpec(continued_fraction_family().coefficients(2), allowed)
    assert len(level_images(system, 4)[0]) == 16
    allowed[1, 1] = False  # the caller's array, not the system's
    assert system.incidence.all() and not np.shares_memory(system.incidence, allowed)
    assert len(level_images(system, 4)[0]) == 16
    with pytest.raises(ValueError):
        system.incidence[1, 1] = False


def test_golden_level_1073_geometry_is_the_closed_form():
    rows = golden_family().coefficients(1073)
    ratio, offset = rows[:, 0], rows[:, 1]
    assert ratio.tolist() == [2.0 ** -(i + 1) for i in range(1, 1074)]
    log_sup, log_inf = level_log_derivatives(golden_family().truncate(1073), 1)
    image_lo, image_hi = level_images(golden_family().truncate(1073), 1)
    assert np.array_equal(log_sup, np.log(ratio))
    assert np.array_equal(log_inf, np.log(ratio))
    assert np.array_equal(image_lo, offset)
    assert np.array_equal(image_hi, offset + ratio)


# --- borderline family ------------------------------------------------------


def test_borderline_images_fit_their_slots():
    fam = borderline_family()
    sys_ = fam.truncate(40)
    ensure_separation(sys_)
    for i in range(1, 41):
        a, b = fam.row(i)[:2]
        assert 0.0 < a < 1.0
        assert b + a < 1.0 - 1.0 / (i + 1) + 1e-15  # stays inside [1-1/i, 1-1/(i+1))


def test_borderline_mass_jumps_past_zero():
    fam = borderline_family()
    assert fam.log_mass(0.49) == math.inf
    at_threshold = fam.log_mass(0.5)
    assert at_threshold == pytest.approx(math.log(0.5), abs=1e-6)
    assert fam.log_mass(0.6) < at_threshold < 0.0


@pytest.mark.parametrize(
    "sys_",
    [continued_fraction_family().truncate(3), cantor_system((0.3, 0.25, 0.2))],
    ids=["moebius", "similitude"],
)
def test_cylinder_images_nest_under_extension(sys_):
    alphabet = sys_.alphabet_size
    for depth in range(1, 6):
        for word in enumerate_admissible(sys_.incidence, depth):
            lo, hi = word_image(sys_, word)
            for e in range(alphabet):
                if not sys_.incidence[word[-1], e]:
                    continue
                clo, chi = word_image(sys_, word + (e,))
                assert lo - 1e-12 <= clo <= chi <= hi + 1e-12
