"""Seeded inputs for the benchmark workloads, emitted as ifsdim config files.

The program only ever sees config text.  Every case carries a key
(system, depth, sample seed) that is unique within a run, so no command can
be answered from a cache filled by an earlier one.  The same seed always
gives the same cases in the same order.

Each timed list opens with a fixed panel: the continued-fraction prefixes
{1..n} at every depth of their band.  The panel holds each workload's
largest-error and largest-memory inputs, so ``abs_err`` and ``peak_rss_mb``
(both maxima over a run) do not depend on which seeded cases a run reaches
before its time is up.  After it, cases come in cycles with one case of
each cost class (digit-set size and depth, or measure kind), so every seed
and every stretch of a run times the same mix.  The seed orders the panel
and draws the digit sets, ratios and sample seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("word-pressure", "operator", "probes")
PAIR_DIGITS = range(1, 17)  # digit pools for custom moebius systems
TRIPLE_DIGITS = range(1, 10)
CF_PREFIXES = (2, 3, 4, 5)  # continued-fraction sizes: digits {1..n}

# depth bands: about 2^13..2^15 words for word pressure, 64..256 operator states
BOWEN_DEPTHS = {2: (13, 14, 15), 3: (8, 9), 4: (7,), 5: (6,)}
GIBBS_DEPTHS = {2: (6, 7, 8), 3: (4, 5)}
# conformal cylinder depth per Cantor map count: about 2^12 cylinders
CANTOR_DEPTHS = {2: 12, 3: 8, 4: 6}
SAMPLE_COUNTS = (20_000, 25_000, 30_000)
DENSITY_POINTS = 2_000
STRATA = 8  # cost slices every stretch of a run draws from evenly


@dataclass(frozen=True)
class Case:
    """One command: the config the program reads, plus what checks it."""

    command: str  # ifsdim subcommand
    key: tuple  # (system, depth, sample seed), unique within a run
    config: str
    digits: tuple[int, ...] = ()  # continued-fraction digit set -> ref(D)
    ratios: tuple[float, ...] = ()  # Cantor ratios -> closed-form root
    samples: int = 0


def pool() -> list[tuple[int, ...]]:
    """Every digit set a workload may use: the CF prefixes and all pairs and
    triples of the digit pool.  The oracle freezes a reference for each."""
    sets = {tuple(range(1, n + 1)) for n in CF_PREFIXES}
    sets.update(itertools.combinations(PAIR_DIGITS, 2))
    sets.update(itertools.combinations(TRIPLE_DIGITS, 3))
    return sorted(sets, key=lambda d: (len(d), d))


def _system(digits: tuple[int, ...]) -> tuple[tuple, str]:
    if digits == tuple(range(1, len(digits) + 1)):
        return ("cf", len(digits)), (
            f"system.family = continued-fraction\nsystem.size = {len(digits)}\n"
        )
    maps = "; ".join(f"moebius:{q}" for q in digits)
    return ("moebius",) + digits, f"system.family = custom\nsystem.maps = {maps}\n"


def _bowen(digits: tuple[int, ...], depth: int) -> Case:
    key, text = _system(digits)
    return Case("bowen", (key, depth, None), text + f"bowen.depth = {depth}\n", digits=digits)


def _gibbs(digits: tuple[int, ...], depth: int) -> Case:
    key, text = _system(digits)
    text += f"gibbs.depth = {depth}\ngibbs.exponent = bowen\n"
    return Case("gibbs", (key, depth, None), text, digits=digits)


def _dimension(key: tuple, text: str, depth: int, samples: int, sample_seed: int, **ref) -> Case:
    text += (
        f"dimension.depth = {depth}\n"
        f"dimension.density_points = {DENSITY_POINTS}\n"
        f"sample.count = {samples}\nsample.seed = {sample_seed}\n"
    )
    return Case("dimension", (key, depth, sample_seed), text, samples=samples, **ref)


def _stratified(items: list, rng: random.Random) -> list:
    """Seeded order of ``items`` (sorted by cost) in which every STRATA
    consecutive picks take one item from each of STRATA equal slices.

    Command cost depends on the digits (small digits mean slow mixing and
    long power iterations), so a freely shuffled draw lets one seed time a
    cheaper run than another; stratified, every run times the same spread.
    """
    size = -(-len(items) // STRATA)
    slices = [items[i : i + size] for i in range(0, len(items), size)]
    for piece in slices:
        rng.shuffle(piece)
    out = []
    while any(slices):
        turn = [piece for piece in slices if piece]
        rng.shuffle(turn)
        out += [piece.pop() for piece in turn]
    return out


def _cantor(m: int, samples: int, sample_seed: int, total: float, rng: random.Random) -> Case:
    """m seeded ratios summing to ``total``, the smallest at least 0.3 of the largest."""
    weights = [rng.uniform(0.3, 1.0) for _ in range(m)]
    ratios = tuple(round(total * w / sum(weights), 6) for w in weights)
    text = "system.family = cantor\nsystem.ratios = " + ", ".join(map(str, ratios)) + "\n"
    return _dimension(("cantor",) + ratios, text, CANTOR_DEPTHS[m], samples, sample_seed, ratios=ratios)


def _interleave(classes: list[list[Case]]) -> list[Case]:
    """One case from each class in turn, so every stretch of a run (and every
    seed) holds the same mix of costs; a class drops out when it runs dry."""
    return [c[i] for i in range(max(map(len, classes))) for c in classes if i < len(c)]


def _custom(size: int) -> list[tuple[int, ...]]:
    """The pool's digit sets of one size, CF prefix excluded, in pool order
    (lexicographic, so the smallest digits, the costliest, come first)."""
    return [d for d in pool() if len(d) == size and d != tuple(range(1, size + 1))]


def _banded(band: dict[int, tuple[int, ...]], make, rng: random.Random) -> list[Case]:
    panel = [make(tuple(range(1, n + 1)), d) for n in band for d in band[n]]
    rng.shuffle(panel)
    classes = [
        [make(d, depth) for d in _stratified(_custom(size), rng)]
        for size, depths in band.items()
        if _custom(size)
        for depth in depths
    ]
    return panel + _interleave(classes)


def _probes(rng: random.Random) -> list[Case]:
    """Cycles of four: a continued-fraction pair, then Cantor systems of 2, 3
    and 4 maps, all with the cycle's sample count and (stratified) ratio sum.
    {1, 2} opens the run."""
    pairs = [(1, 2)] + _stratified(_custom(2), rng)
    totals = _stratified([0.5 + 0.4 * (k + rng.random()) / len(pairs) for k in range(len(pairs))], rng)
    seeds = iter(rng.sample(range(1, 2**31), 4 * len(pairs)))
    out = []
    for j, (digits, total) in enumerate(zip(pairs, totals)):
        samples = SAMPLE_COUNTS[j % len(SAMPLE_COUNTS)]
        out.append(_dimension(*_system(digits), 12, samples, next(seeds), digits=digits))
        out += [_cantor(m, samples, next(seeds), total, rng) for m in CANTOR_DEPTHS]
    return out


def warmup(workload: str) -> list[Case]:
    """Small commands on systems no timed case uses, one per code path the
    workload takes, so lazy first-use costs land in set-up."""
    outside = (PAIR_DIGITS[-1] + 1, PAIR_DIGITS[-1] + 2)  # digits outside the pool
    if workload == "word-pressure":
        return [_bowen(tuple(range(1, 7)), 3), _bowen(outside, 8)]
    if workload == "operator":
        return [_gibbs(tuple(range(1, 7)), 2), _gibbs(outside, 3)]
    if workload == "probes":
        key, text = _system(outside)
        cantor = "system.family = cantor\nsystem.ratios = 0.3, 0.3\n"
        return [
            _dimension(key, text, 12, 2_000, 1),
            _dimension(("cantor", 0.3, 0.3), cantor, 12, 2_000, 1),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def timed(workload: str, seed: int) -> list[Case]:
    """Every case a run may time, in order; a run stops when its time is up."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "word-pressure":
        return _banded(BOWEN_DEPTHS, _bowen, rng)
    if workload == "operator":
        return _banded(GIBBS_DEPTHS, _gibbs, rng)
    if workload == "probes":
        return _probes(rng)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
