"""Random custom systems through ``cli.main``: properties every run keeps.

Each example draws two to four separated similitudes or distinct Möbius
branches, under the full shift or under a random 0/1 incidence, and runs
``bowen``, ``gibbs`` at ``exponent = bowen`` and ``dimension`` on it at small
depths and sample counts.  Whatever the system, no run exits 3; a refused
one exits 2, writes nothing and names a ``system.*`` key; and a ``bowen``
that exits 0 reports an h inside its own bracket.  The examples are
derandomized, so the suite draws the same systems on every run.
"""

import contextlib
import io
import json
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


def run(command: str, text: str) -> tuple[int, dict | None, list[str], str]:
    """Exit code, report (None if none was written), the files written and
    stderr of one ``main`` run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        report = out / f"{command}-report.json"
        body = json.loads(report.read_text()) if report.exists() else None
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    return code, body, written, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(custom_systems(), st.integers(1, 6), st.integers(1, 4))
def test_random_custom_systems_exit_0_2_or_4_and_bowen_stays_in_its_bracket(system, word_depth, cyl_depth):
    for command, keys in (
        ("bowen", f"bowen.depth = {word_depth}\n"),
        ("gibbs", "gibbs.exponent = bowen\n"),
        ("dimension", f"dimension.depth = {cyl_depth}\nsample.count = 200\nsample.seed = 1\n"),
    ):
        code, report, written, err = run(command, system + keys)
        assert code in (0, 2, 4), err
        if code == 2:
            assert report is None and written == []
            assert re.match(r"config error: system\.\w+: ", err), err
        if code == 0 and command == "bowen":
            res = report["results"]
            assert res["bracket_lo"] <= res["h"] <= res["bracket_hi"]
