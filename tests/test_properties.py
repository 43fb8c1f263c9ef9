"""Random systems through ``cli.main``: properties every run keeps.

Each example draws two to four separated similitudes or distinct Möbius
branches, under the full shift or under a random 0/1 incidence, and runs
``bowen``, ``gibbs`` and ``dimension`` on it at small depths and sample
counts.  ``gibbs`` runs at an exponent drawn from [-2, 8] on a full shift,
and at ``exponent = bowen`` under a nontrivial incidence, where the
collocation's node count is not yet chosen for the exponent (ROADMAP item
22 part 2).  Whatever the system, no run exits 3; a refused one exits 2,
writes nothing and names a ``system.*`` key; and a ``bowen`` that exits 0
reports an h inside its own bracket.  The same commands run on
``cantor`` and ``continued-fraction`` configs, whose refusals may also name
the command's own depth key, and ``scan`` on continued-fraction ladders
exits 0 with every root in its bracket and the roots rising.  The examples
are derandomized, so the suite draws the same systems on every run.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ifsdim.cli import main


@st.composite
def custom_systems(draw) -> str:
    """The ``system.*`` lines of a custom system: m maps whose depth-1
    images lie in disjoint slots of [0, 1], and often an incidence."""
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):
        maps = [f"moebius:{q}" for q in draw(st.lists(st.integers(1, 40), min_size=m, max_size=m, unique=True))]
    else:  # map e keeps to the slot [e/m, (e+1)/m], its ratio down to 1e-6 of the slot
        maps = []
        for e in range(m):
            ratio = 0.95 / m * 10.0 ** -draw(st.floats(0.0, 6.0))
            left = (e + draw(st.floats(0.0, 1.0)) * (1.0 - ratio * m)) / m
            flip = draw(st.booleans())  # the same image, reversed
            maps.append(f"similitude:{-ratio!r}:{left + ratio!r}" if flip else f"similitude:{ratio!r}:{left!r}")
    text = f"system.family = custom\nsystem.maps = {'; '.join(maps)}\n"
    if draw(st.booleans()):  # entries 1 two times in three: about half are irreducible
        rows = draw(st.lists(st.lists(st.sampled_from("011"), min_size=m, max_size=m), min_size=m, max_size=m))
        text += f"system.incidence = {';'.join(''.join(row) for row in rows)}\n"
    return text


def run(command: str, text: str) -> tuple[int, dict | None, dict[str, str], str]:
    """Exit code, report (None if none was written), the text of each file
    written by name and stderr of one ``main`` run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        report = out / f"{command}-report.json"
        body = json.loads(report.read_text()) if report.exists() else None
        written = {p.name: p.read_text() for p in out.iterdir()} if out.exists() else {}
    return code, body, written, err.getvalue()


@st.composite
def family_systems(draw) -> str:
    """The ``system.*`` lines of a ``cantor`` config, two to four ratios
    log-uniform between 1e-12 and 1/m, or of a ``continued-fraction`` config
    of two to eight digits."""
    if draw(st.booleans()):
        m = draw(st.integers(2, 4))
        ratios = [10.0 ** -draw(st.floats(math.log10(m), 12.0)) for _ in range(m)]
        return f"system.family = cantor\nsystem.ratios = {', '.join(map(repr, ratios))}\n"
    return f"system.family = continued-fraction\nsystem.size = {draw(st.integers(2, 8))}\n"


def full_shift(system: str) -> bool:
    """Whether the ``system.*`` lines allow every pair of symbols."""
    incidence = re.search(r"system\.incidence = (.*)", system)
    return incidence is None or set(incidence.group(1)) <= set("1;")


def check_commands(system: str, word_depth: int, cyl_depth: int, refusal: str, exponent: float) -> None:
    """``bowen``, ``gibbs`` and ``dimension`` on ``system`` exit 0, 4, or 2
    naming a key that ``refusal`` matches (the command's name stands in for
    ``{command}``), and a ``bowen`` that exits 0 has h in its bracket.
    ``gibbs`` runs at ``exponent`` on a full shift, where it exits 0 or 2."""
    at = repr(exponent) if full_shift(system) else "bowen"
    for command, keys in (
        ("bowen", f"bowen.depth = {word_depth}\n"),
        ("gibbs", f"gibbs.exponent = {at}\n"),
        ("dimension", f"dimension.depth = {cyl_depth}\nsample.count = 200\nsample.seed = 1\n"),
    ):
        code, report, written, err = run(command, system + keys)
        assert code in ((0, 2) if command == "gibbs" and at != "bowen" else (0, 2, 4)), err
        if code == 2:
            assert report is None and written == {}
            assert re.match(r"config error: (" + refusal.format(command=command) + r"): ", err), err
        if code == 0 and command == "bowen":
            res = report["results"]
            assert res["bracket_lo"] <= res["h"] <= res["bracket_hi"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(custom_systems(), st.integers(1, 6), st.integers(1, 4), st.floats(-2.0, 8.0))
def test_random_custom_systems_exit_0_2_or_4_and_bowen_stays_in_its_bracket(system, word_depth, cyl_depth, exponent):
    check_commands(system, word_depth, cyl_depth, r"system\.\w+", exponent)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(family_systems(), st.integers(1, 6), st.integers(1, 4), st.floats(-2.0, 8.0))
def test_random_family_configs_exit_0_2_or_4_and_bowen_stays_in_its_bracket(system, word_depth, cyl_depth, exponent):
    check_commands(system, word_depth, cyl_depth, r"system\.\w+|{command}\.depth", exponent)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 12), min_size=1, max_size=5, unique=True).map(sorted))
def test_continued_fraction_scans_exit_0_with_rising_roots_in_their_brackets(levels):
    text = f"system.family = continued-fraction\nscan.levels = {', '.join(map(str, levels))}\n"
    code, report, written, err = run("scan", text)
    assert code == 0, err
    rows = [row.split(",") for row in written["scan-levels.csv"].splitlines()[1:]]
    assert [int(row[0]) for row in rows] == levels
    for _, h, lo, hi, *_ in rows:
        assert float(lo) <= float(h) <= float(hi)
    assert report["results"]["monotone"] is True
