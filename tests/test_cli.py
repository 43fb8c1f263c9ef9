"""End-to-end runs of every subcommand through main(argv).

Each test drives the real entry point with a temp config file and inspects
exit codes, report JSON, and CSV tables — the same surface a shell user sees.
"""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ifsdim
import ifsdim.cli
import ifsdim.config
import ifsdim.dimension
import ifsdim.measures
import ifsdim.pressure
import ifsdim.systems
from ifsdim.cli import main
from ifsdim.systems import continued_fraction_family, golden_family

from reference import cylinder_operator_root, pressure

TERNARY_H = math.log(2.0) / math.log(3.0)
GOLDEN_H6 = 0.669031641539660
GOLDEN_LIMIT = 0.694241913630617
CF2_H = 0.531280506367
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def run(tmp_path, command, text, extra=()):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path), *extra])
    report_path = tmp_path / f"{command}-report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report


# ---------------------------------------------------------------------------
# bowen


def test_bowen_cantor_thirds(tmp_path):
    code, report = run(
        tmp_path,
        "bowen",
        "system.family = cantor\nsystem.ratios = "
        "0.3333333333333333, 0.3333333333333333\n",
    )
    assert code == 0
    assert report["results"]["h"] == pytest.approx(TERNARY_H, abs=1e-10)
    assert report["results"]["regular"] is True


def test_bowen_golden_family_analytic(tmp_path):
    code, report = run(tmp_path, "bowen", "system.family = golden\n")
    assert code == 0
    assert report["results"]["h"] == pytest.approx(GOLDEN_LIMIT, abs=1e-8)
    assert report["results"]["method"] == "analytic"


ORACLES = Path(__file__).parent / "oracles"


def test_bowen_brackets_hold_both_oracles(tmp_path):
    cf = json.loads((ORACLES / "continued_fraction_dimension.json").read_text())
    code, report = run(tmp_path, "bowen", "system.family = continued-fraction\nsystem.size = 2\n")
    res = report["results"]
    assert code == 0 and res["bracket_lo"] < cf["dimension"] < res["bracket_hi"]
    assert res["bracket_lo"] <= res["h"] <= res["bracket_hi"]
    assert report["diagnostics"]["bracket_width"] < 0.05
    golden = json.loads((ORACLES / "golden_truncation_roots.json").read_text())
    for level in range(2, 13):
        code, report = run(tmp_path, "bowen", f"system.family = golden\nsystem.size = {level}\n")
        res = report["results"]
        # depth-1 similitude pressures are exact, and the bracket closes on
        # the root's floating-point neighbourhood
        assert code == 0 and res["bracket_lo"] <= golden[str(level)] <= res["bracket_hi"]
        assert res["bracket_lo"] <= res["h"] <= res["bracket_hi"]
    code, report = run(tmp_path, "bowen", "system.family = golden\n")
    res = report["results"]
    assert code == 0 and res["bracket_lo"] <= golden["limit"] <= res["bracket_hi"]


# x/3 and x/3 + 2/3, the second never following itself
FIBONACCI_THIRDS = (
    "system.family = custom\n"
    "system.maps = similitude:0.3333333333333333:0; similitude:0.3333333333333333:0.6666666666666666\n"
    "system.incidence = 11;10\n"
)


@pytest.mark.parametrize("depth", [1, 12])
def test_bowen_graph_directed_root_is_log_phi_over_log_three(tmp_path, depth):
    # the depth-12 word roots alone would give [0.44998, 0.44998], which
    # misses the dimension: under an incidence only the upper end bounds it
    code, report = run(tmp_path, "bowen", FIBONACCI_THIRDS + f"bowen.depth = {depth}\n")
    res = report["results"]
    assert code == 0 and res["method"] == "collocation"
    assert res["h"] == pytest.approx(math.log(PHI) / math.log(3.0), abs=1e-12)
    assert res["bracket_lo"] == 0.0 <= res["h"] <= res["bracket_hi"]


def test_bowen_moebius_incidence_root_matches_the_deep_operator(tmp_path):
    # continued fractions on {1, 2, 3} where 1 never follows 1
    code, report = run(
        tmp_path,
        "bowen",
        "system.family = custom\nsystem.maps = moebius:1; moebius:2; moebius:3\n"
        "system.incidence = 011;111;111\n",
    )
    res = report["results"]
    assert code == 0
    assert res["bracket_lo"] == 0.0 <= res["h"] <= res["bracket_hi"]
    system = dataclasses.replace(
        continued_fraction_family().truncate(3),
        incidence=((0, 1, 1), (1, 1, 1), (1, 1, 1)),
    )
    assert res["h"] == pytest.approx(cylinder_operator_root(system, 10), abs=1e-6)


def test_bowen_without_infinite_words_exits_2_in_the_plan(tmp_path, capsys):
    # no map may follow any map: the depth-1 words exist, their limit set
    # not, and the plan refuses the incidence before any word is built
    code, report = run(
        tmp_path, "bowen", CUSTOM_PAIR + "system.incidence = 00;00\nbowen.depth = 1\n"
    )
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "system.incidence: incidence is not irreducible: map 0 does not reach map 1" in err
    assert "Warning" not in err


def test_bowen_without_deep_words_exits_2_in_the_plan(tmp_path, capsys):
    # 1 may follow 0 and nothing may follow 1: no admissible word is longer
    # than two symbols, which the plan finds out without the depth-12 level
    code, report = run(
        tmp_path, "bowen", CUSTOM_PAIR + "system.incidence = 01;00\nbowen.depth = 12\n"
    )
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "system.incidence: incidence is not irreducible: map 1 does not reach map 0" in err


@pytest.mark.parametrize("ratios", ["1e-41, 0.3", "1e-300, 0.5"])
def test_a_root_stays_in_a_word_bracket_narrower_than_its_tolerance(tmp_path, ratios):
    # the exact depth-1 brackets are under 5e-16 wide, narrower than the
    # collocation root's tolerance: its closing probe below the Newton
    # iterates evaluates the bracket's lower end, not a point past it
    system = f"system.family = cantor\nsystem.ratios = {ratios}\n"
    code, bowen = run(tmp_path, "bowen", system)
    res = bowen["results"]
    assert code == 0 and 0.0 < res["bracket_hi"] - res["bracket_lo"] < 5e-16
    assert res["bracket_lo"] <= res["h"] <= res["bracket_hi"]
    sampled = system + "dimension.depth = 1\nsample.seed = 1\nsample.count = 100\n"
    code, report = run(tmp_path, "dimension", sampled)
    assert code == 0 and report["results"]["report"]["bowen_root"] == res["h"]


def test_bowen_borderline_is_irregular_exit_4(tmp_path):
    code, report = run(tmp_path, "bowen", "system.family = borderline\n")
    assert code == 4
    assert report["results"]["regular"] is False
    assert report["results"]["h"] == pytest.approx(0.5, abs=1e-6)
    assert report["warnings"]


def test_bowen_unknown_family_exits_2(tmp_path):
    code, report = run(tmp_path, "bowen", "system.family = pentagon\n")
    assert code == 2
    assert report is None


def test_bowen_unknown_section_key_exits_2(tmp_path):
    code, report = run(
        tmp_path, "bowen", "system.family = golden\nbowen.depht = 3\n"
    )
    assert code == 2
    assert report is None


def test_missing_config_file_exits_2(tmp_path):
    code = main(["bowen", "--config", str(tmp_path / "ghost.cfg")])
    assert code == 2


def test_unreadable_config_file_exits_2_writing_nothing(tmp_path, capsys):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"# caf\xe9\nsystem.family = golden\n")
    out = tmp_path / "out"
    for path in (tmp_path, latin1):  # a directory, and bytes that are not UTF-8
        assert main(["bowen", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: --config: ")
    assert not out.exists()


CANTOR_THIRDS = "system.family = cantor\nsystem.ratios = 0.3333333333333333, 0.3333333333333333\n"


def test_out_dir_blocked_by_a_file_exits_2_before_the_plan(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(ifsdim.cli, "_build_source", lambda *a: calls.append(a))
    cfg, afile = tmp_path / "run.cfg", tmp_path / "afile"
    cfg.write_text(CANTOR_THIRDS)
    afile.write_text("")
    for out in (afile / "sub", afile, afile / "sub" / "deeper"):
        assert main(["bowen", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: out.dir: {afile} is not a directory\n"
    assert calls == [] and sorted(tmp_path.iterdir()) == [afile, cfg]


def test_out_dir_is_made_below_its_nearest_existing_directory(tmp_path):
    code, _ = run(tmp_path, "bowen", CANTOR_THIRDS, extra=("--out", str(tmp_path / "a" / "b")))
    assert code == 0 and (tmp_path / "a" / "b" / "bowen-report.json").exists()


def test_a_failed_report_write_exits_3(tmp_path, monkeypatch, capsys):
    def full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(ifsdim.cli.Report, "write", full)
    code, report = run(tmp_path, "bowen", CANTOR_THIRDS)
    assert code == 3 and report is None
    assert capsys.readouterr().err == "run failed: [Errno 28] No space left on device\n"


# ---------------------------------------------------------------------------
# scan


def test_scan_wide_continued_fractions_follow_hensley(tmp_path):
    # these levels get word depth 2, where the midpoint of the lower and
    # upper word pressures vanishes past 1.  Hensley's expansion:
    # h_n = 1 - 6/(pi^2 n) - 72 log n/(pi^4 n^2) + O(n^-2)
    code, _ = run(tmp_path, "scan", "system.family = continued-fraction\nscan.levels = 296:300\n")
    assert code == 0
    lines = (tmp_path / "scan-levels.csv").read_text().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")[:4]] for line in lines]
    assert [level for level, *_ in rows] == list(range(296, 301))
    for level, h, lo, hi in rows:
        hensley = 1 - 6 / (math.pi**2 * level) - 72 * math.log(level) / (math.pi**4 * level**2)
        # the depth-2 upper word root lies past 1 here; the line bounds h by 1
        assert lo <= h <= hi <= 1.0 and h < 1.0
        assert 0.4 <= level**2 * (h - hensley) <= 1.0
    hs = [h for _, h, _, _ in rows]
    assert all(a < b for a, b in zip(hs, hs[1:]))


def test_bowen_dimension_one_keeps_the_exact_hit_widening(tmp_path):
    # the touching halves have dimension exactly 1; the bracket end at 1 keeps
    # the interval its rounding leaves rather than being cut to 1
    code, report = run(tmp_path, "bowen", "system.family = cantor\nsystem.ratios = 0.5, 0.5\n")
    res = report["results"]
    assert code == 0 and res["h"] == 1.0
    assert (res["bracket_lo"], res["bracket_hi"]) == (0.9999999999999984, 1.0000000000000016)


def test_scan_golden_monotone_to_limit(tmp_path):
    code, report = run(
        tmp_path, "scan", "system.family = golden\nscan.levels = 2:12\n"
    )
    assert code == 0
    res = report["results"]
    assert res["monotone"] is True
    assert res["limit_h"] == pytest.approx(GOLDEN_LIMIT, abs=1e-8)
    # log phi / log 2 = 0.69424191363061730174...: the closed-form root bisects to 1e-15
    assert res["limit_h"] == 0.6942419136306173
    assert res["last_h"] == pytest.approx(0.692989243639961, abs=1e-8)
    assert 0.0 < res["final_gap_to_limit"] < 1e-2
    csv_text = (tmp_path / "scan-levels.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "level,h,bracket_lo,bracket_hi,pressure_gap,residual,regular,depth,note"
    assert len(lines) == 12  # header + 11 levels
    # every level's frozen oracle root lies inside its row's bracket
    golden = json.loads((ORACLES / "golden_truncation_roots.json").read_text())
    for line in lines[1:]:
        level, h, lo, hi = (float(v) for v in line.split(",")[:4])
        assert lo <= golden[str(int(level))] <= hi and lo <= h <= hi


def test_scan_continued_fraction_small_levels(tmp_path):
    code, report = run(
        tmp_path,
        "scan",
        "system.family = continued-fraction\nscan.levels = 2,3\n",
    )
    assert code == 0
    res = report["results"]
    assert res["first_h"] == pytest.approx(CF2_H, abs=5e-3)
    assert res["monotone"] is True
    assert res["limit_h"] is None  # no closed-form family limit here


def test_scan_solves_wide_truncations(tmp_path):
    # a truncation's full shift stores one entry, so a depth-1 level of
    # thousands of maps costs a pass over its maps, not a level^2 matrix
    code, report = run(tmp_path, "scan", "system.family = borderline\nscan.levels = 4096, 8192\n")
    assert code == 4  # the borderline family's limit has no Bowen root
    assert report["results"]["levels"] == [4096, 8192]
    assert 0.39 < report["results"]["first_h"] < report["results"]["last_h"] < 0.5
    assert report["tables"]["levels"].count(",true,1,") == 2  # both levels solved at depth 1


def test_scan_reversed_levels_exit_2(tmp_path):
    code, _ = run(tmp_path, "scan", "system.family = golden\nscan.levels = 9:3\n")
    assert code == 2


@pytest.mark.parametrize(
    "command,text",
    [
        ("scan", "system.family = golden\nscan.levels = ,\n"),
        ("converge", "system.family = golden\nconverge.levels = ,\n"),
        ("converge", "system.family = gallery:leaking-block\nconverge.levels = ,\n"),
    ],
    ids=["scan", "converge", "converge-gallery"],
)
def test_empty_level_list_exits_2_naming_the_key(tmp_path, capsys, command, text):
    code, report = run(tmp_path, command, text)
    assert code == 2 and report is None
    assert f"config error: {command}.levels: empty list" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "command,text,message",
    [
        (
            "scan",
            "system.family = golden\nscan.levels = 12,2,2\n",
            "scan.levels: levels must be strictly ascending, got '12,2,2'",
        ),
        (
            "converge",
            "system.family = gallery:atom-vs-uniform\nconverge.levels = 64,2\n",
            "converge.levels: levels must be strictly ascending, got '64,2'",
        ),
        (
            "converge",
            "system.family = golden\nconverge.cylinder_depths = 3,1\n",
            "converge.cylinder_depths: levels must be strictly ascending, got '3,1'",
        ),
    ],
    ids=["scan", "converge-gallery", "converge-depths"],
)
def test_unordered_level_lists_exit_2_naming_the_key(tmp_path, capsys, command, text, message):
    # out of order, scan solved level 2 twice and reported level 2's gap as
    # the final one; converge reported level 2's TV as final_tv
    code, report = run(tmp_path, command, text)
    assert code == 2 and report is None
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "command,text",
    [
        ("scan", "system.family = golden\nscan.levels = 1070:1076\n"),
        ("converge", "system.family = golden\nconverge.levels = 1070:1080\nconverge.cylinder_depths = 1\n"),
    ],
    ids=["scan", "converge"],
)
def test_golden_levels_past_1073_exit_2_before_any_solve(
    tmp_path, monkeypatch, capsys, command, text
):
    # golden's ratio 2^-(i+1) underflows to 0.0 from map 1074 on
    def solved(*args, **kwargs):
        raise AssertionError("a solve ran past the level check")

    for name in ("analytic_bowen_solve", "bowen_solve"):
        monkeypatch.setattr(ifsdim.cli, name, solved)
    code, report = run(tmp_path, command, text)
    assert code == 2 and report is None
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
    err = capsys.readouterr().err
    assert f"config error: {command}.levels: map 1074 of golden has ratio 0.0" in err
    assert "levels run to at most 1073" in err


def test_golden_level_1073_reaches_the_solve(tmp_path, monkeypatch):
    reached = []

    def solve(system, *args, **kwargs):
        reached.append(system.alphabet_size)
        raise ifsdim.cli.ConvergenceFailure("reached the solve")

    monkeypatch.setattr(ifsdim.cli, "bowen_solve", solve)
    code, report = run(tmp_path, "scan", "system.family = golden\nscan.levels = 1072:1073\n")
    assert code == 0 and reached == [1072, 1073]
    assert report["results"]["first_h"] is None  # each level's note row holds the failure


def test_golden_level_510_solves_at_word_depth_2(tmp_path):
    # its words' derivatives reach 2^-1022, the smallest normal double; level 511's pass it
    code, report = run(tmp_path, "scan", "system.family = golden\nscan.levels = 510\nscan.depth = 2\n")
    assert code == 0
    row = (tmp_path / "scan-levels.csv").read_text().splitlines()[1].split(",")
    lo, hi, gap = (float(v) for v in row[2:5])
    assert 0.0 < lo <= report["results"]["last_h"] <= hi < 1.0 and gap == pytest.approx(0.0, abs=1e-13)


def test_a_failed_scan_level_writes_its_note_quoted(tmp_path, monkeypatch):
    note = 'root "0.5" outside its certified bracket [0.1, 0.2]'
    real = ifsdim.cli.bowen_solve

    def failing(system, *args, **kwargs):
        if system.alphabet_size == 3:
            raise ifsdim.cli.ConvergenceFailure(note)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(ifsdim.cli, "bowen_solve", failing)
    code, _ = run(tmp_path, "scan", "system.family = golden\nscan.levels = 2,3,4\n")
    assert code == 0
    text = (tmp_path / "scan-levels.csv").read_text()
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerow([3, *["nan"] * 5, "false", 1, note])
    assert text.splitlines(keepends=True)[2] == want.getvalue()
    rows = list(csv.reader(io.StringIO(text)))
    assert [len(row) for row in rows] == [9] * 4
    assert rows[2][-1] == note and rows[1][-1] == rows[3][-1] == ""


def test_scan_needs_a_family_exit_2(tmp_path):
    code, _ = run(
        tmp_path,
        "scan",
        "system.family = cantor\nsystem.ratios = 0.3, 0.3\nscan.levels = 2:4\n",
    )
    assert code == 2


def test_bowen_overlapping_custom_system_exit_2(tmp_path, capsys):
    # without the separation check this ran and reported h = 1.357 > 1
    code, report = run(
        tmp_path,
        "bowen",
        "system.family = custom\nsystem.maps = similitude:0.6:0; similitude:0.6:0.4\n",
    )
    assert code == 2 and report is None
    assert "overlap" in capsys.readouterr().err
    assert [p for p in tmp_path.iterdir() if p.suffix in (".json", ".csv")] == []


def custom_bowen(maps):
    text = "system.family = custom\nsystem.maps = " + "; ".join(
        f"similitude:{a!r}:{b!r}" for a, b in maps
    )
    with tempfile.TemporaryDirectory() as tmp:
        code, report = run(Path(tmp), "bowen", text + "\n")
        written = [p.name for p in Path(tmp).iterdir() if p.suffix in (".json", ".csv")]
    return code, report, written


@st.composite
def separated_similitudes(draw):
    """2-4 similitudes of either orientation, images laid left to right in
    [0, 1] with equal gaps."""
    ratios = draw(st.lists(st.floats(0.05, 0.5), min_size=2, max_size=4))
    ratios = [r * min(1.0, 0.95 / sum(ratios)) for r in ratios]
    gap = (1.0 - sum(ratios)) / len(ratios)
    maps, left = [], 0.0
    for r in ratios:
        flip = draw(st.booleans())
        maps.append((-r, left + r) if flip else (r, left))
        left += r + gap
    return maps


@given(separated_similitudes())
@settings(max_examples=25, deadline=None)
def test_bowen_separated_similitudes_match_closed_form(maps):
    code, report, _ = custom_bowen(maps)
    assert code == 0
    h = report["results"]["h"]
    assert h <= 1.0
    assert sum(abs(a) ** h for a, _ in maps) == pytest.approx(1.0, abs=1e-9)


@given(st.floats(0.1, 0.6), st.floats(0.1, 0.4), st.floats(0.0, 0.95))
@settings(max_examples=25, deadline=None)
def test_bowen_overlapping_similitude_pair_exit_2(r1, r2, start):
    # the second image starts inside the first, and both stay in [0, 1]
    code, report, written = custom_bowen([(r1, 0.0), (r2, start * r1)])
    assert code == 2 and report is None and written == []


def test_module_entry_point_runs_without_runpy_warning():
    env = dict(os.environ, PYTHONPATH=str(Path(ifsdim.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ifsdim.cli", "gallery-list"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_dimension_run_leaves_numpy_ma_unimported(tmp_path):
    # np.median and np.quantile import numpy.ma on first use, tens of ms
    env = dict(os.environ, PYTHONPATH=str(Path(ifsdim.__file__).parent.parent))
    config = Path(__file__).resolve().parent.parent / "configs" / "cantor-dimension.cfg"
    script = (
        "import sys\n"
        "from ifsdim.cli import main\n"
        f"code = main(['dimension', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_every_command_runs_on_one_thread(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ifsdim.__file__).parent.parent))
    configs = Path(__file__).resolve().parent.parent / "configs"
    runs = [(c, str(configs / f"{name}.cfg")) for c, name in (
        ("bowen", "cantor-bowen"), ("gibbs", "cf-gibbs"), ("scan", "golden-scan"),
        ("converge", "golden-converge"), ("dimension", "cantor-dimension"),
    )]
    script = (
        "import sys, threading\n"
        "from ifsdim.cli import main\n"
        f"for command, config in {runs!r}:\n"
        f"    assert main([command, '--config', config, '--out', {str(tmp_path)!r}]) == 0\n"
        "    print('after', command, threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    threads = [line for line in proc.stdout.splitlines() if line.startswith("after ")]
    assert threads == [f"after {command} 1 False" for command, _ in runs]


def test_bowen_gibbs_and_scan_leave_openssl_unloaded(tmp_path):
    # the config hash is CPython's builtin sha256: hashlib would map libcrypto
    env = dict(os.environ, PYTHONPATH=str(Path(ifsdim.__file__).parent.parent))
    configs = Path(__file__).resolve().parent.parent / "configs"
    runs = [(c, str(configs / f"{name}.cfg")) for c, name in (
        ("bowen", "cantor-bowen"), ("gibbs", "cf-gibbs"), ("scan", "golden-scan"),
    )]
    script = (
        "import sys\n"
        "from ifsdim.cli import main\n"
        f"for command, config in {runs!r}:\n"
        f"    assert main([command, '--config', config, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_config_error_writes_no_files(tmp_path):
    code, report = run(
        tmp_path, "scan", "system.family = golden\nscan.levels = 9:3\n"
    )
    assert code == 2 and report is None
    leftovers = [p for p in tmp_path.iterdir() if p.suffix in (".json", ".csv")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# converge


def test_converge_golden_cylinder_table(tmp_path):
    code, report = run(
        tmp_path,
        "converge",
        "system.family = golden\nconverge.levels = 2:12\n"
        "converge.cylinder_depths = 1,2\n",
    )
    assert code == 0
    res = report["results"]
    assert res["regular"] is True
    assert res["limit_h"] == pytest.approx(GOLDEN_LIMIT, abs=1e-8)
    assert res["final_discrepancies"]["depth2"] < 1e-3
    rows = (tmp_path / "converge-levels.csv").read_text().splitlines()[1:]
    discrepancies = [float(r.split(",")[2]) for r in rows]
    assert discrepancies == sorted(discrepancies, reverse=True)


def test_converge_solves_each_level_once(tmp_path, monkeypatch):
    solved = []
    real = ifsdim.cli.bowen_solve

    def counted(system, *args, **kwargs):
        solved.append(system.alphabet_size)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(ifsdim.cli, "bowen_solve", counted)
    code, _ = run(tmp_path, "converge", "system.family = golden\nconverge.levels = 2:12\n")
    assert code == 0
    assert solved == list(range(2, 13))


def test_converge_h_column_is_each_truncation_root(tmp_path):
    # converge's h_n is each level's own depth-1 solve, bit for bit
    code, report = run(tmp_path, "converge", "system.family = golden\nconverge.levels = 2:40\n")
    assert code == 0
    rows = [line.split(",") for line in report["tables"]["levels"].splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(2, 41))
    for level, h, *_ in rows:
        assert float(h) == ifsdim.pressure.bowen_solve(golden_family().truncate(int(level)), depth=1).h


def test_converge_borderline_reports_irregular(tmp_path):
    code, report = run(
        tmp_path, "converge", "system.family = borderline\nconverge.levels = 2:4\n"
    )
    assert code == 4
    assert report["results"]["regular"] is False
    assert report["warnings"]
    assert report["tables"] == {}


def test_converge_leaking_block_tv_is_one_over_n(tmp_path):
    code, report = run(
        tmp_path,
        "converge",
        "system.family = gallery:leaking-block\nconverge.levels = 1,2,4,8,16\n",
    )
    assert code == 0
    rows = (tmp_path / "converge-levels.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        n, tv = int(cells[0]), float(cells[1])
        assert tv == pytest.approx(1.0 / n, abs=1e-15)


def test_converge_staircase_at_a_large_scale(tmp_path):
    # at a = 0.9 the limit's deep pieces have subnormal widths; it keeps the
    # ones whose densities double precision holds
    code, report = run(tmp_path, "converge", "system.family = gallery:staircase\nsystem.a = 0.9\n")
    assert code == 0
    assert report["results"]["final_tv"] == pytest.approx(0.9**11, rel=1e-12)  # a^(n+1) at level 10


def test_converge_lattice_comb_weak_but_not_setwise(tmp_path):
    code, report = run(
        tmp_path,
        "converge",
        "system.family = gallery:lattice-comb\nconverge.levels = 4,16,64\n",
    )
    assert code == 0
    rows = (tmp_path / "converge-levels.csv").read_text().splitlines()[1:]
    weak = [float(r.split(",")[2]) for r in rows]
    tv = [float(r.split(",")[1]) for r in rows]
    setwise = [float(r.split(",")[3]) for r in rows]
    assert weak == [1 / 8, 1 / 32, 1 / 128]  # W1 of the comb to Lebesgue is 1/(2n)
    assert report["results"]["final_weak"] == 1 / 128
    assert all(v == 1.0 for v in tv)  # atoms vs Lebesgue never mix in TV
    assert all(v == 1.0 for v in setwise)  # the atom grid itself is the witness


def test_converge_gallery_without_limit_exit_2(tmp_path):
    code, _ = run(
        tmp_path, "converge", "system.family = gallery:cantor-mass-stages\n"
    )
    assert code == 2


def test_converge_unknown_gallery_exit_2(tmp_path):
    code, _ = run(tmp_path, "converge", "system.family = gallery:escalator\n")
    assert code == 2


# ---------------------------------------------------------------------------
# dimension


CANTOR_DIM_CFG = """
system.family = cantor
system.ratios = 0.3333333333333333, 0.3333333333333333
sample.seed = 202
sample.count = 10000
dimension.r_min = 5.6450292694767615e-05
dimension.r_max = 0.012345679012345678
dimension.r_count = 30
dimension.density_r_min = 1.6935087808430284e-06
dimension.density_r_max = 0.012345679012345678
dimension.density_points = 300
"""


def test_dimension_cantor_estimates_agree(tmp_path):
    code, report = run(tmp_path, "dimension", CANTOR_DIM_CFG)
    assert code == 0
    res = report["results"]
    summary = res["report"]
    assert summary["bowen_root"] == pytest.approx(TERNARY_H, abs=1e-9)
    assert summary["ratio"] == pytest.approx(TERNARY_H, abs=1e-9)
    assert summary["correlation_slope"] == pytest.approx(TERNARY_H, abs=0.05)
    assert summary["gamma_lower"] <= TERNARY_H <= summary["gamma_upper"]
    assert summary["consistent"] is True
    assert res["young_exponent"] == pytest.approx(TERNARY_H, abs=0.05)
    assert res["young_fraction"] >= 0.95
    assert (tmp_path / "dimension-correlation.csv").exists()
    assert (tmp_path / "dimension-density.csv").exists()


def _dimension_tables(tmp_path, monkeypatch):
    """Run ``dimension`` on Lebesgue measure (the lattice-comb limit) with
    the cloud's first two points at 0.5 and 3.0, outside its support, and
    return the tables as lines together with the probes that made them."""
    probes = {}
    for name in ("correlation_curve", "density_field", "flatness_detector"):
        real = getattr(ifsdim.cli, name)

        def recorded(*args, _name=name, _real=real, **kwargs):
            probes[_name] = _real(*args, **kwargs)
            return probes[_name]

        monkeypatch.setattr(ifsdim.cli, name, recorded)
    real_sample = ifsdim.cli.sample
    monkeypatch.setattr(
        ifsdim.cli, "sample", lambda *a, **k: np.concatenate(([0.5, 3.0], real_sample(*a, **k)[2:]))
    )
    code, _ = run(
        tmp_path,
        "dimension",
        "system.family = gallery:lattice-comb\nsample.seed = 1\nsample.count = 120\n"
        "dimension.r_min = 1e-3\ndimension.r_max = 0.5\ndimension.r_count = 5\n"
        "dimension.density_points = 2\ndimension.density_r_min = 1e-4\ndimension.density_r_max = 0.01\n",
    )
    assert code == 0
    names = ("correlation", "density", "flatness")
    tables = {n: (tmp_path / f"dimension-{n}.csv").read_text().splitlines() for n in names}
    return tables, probes


def _cells(lines):
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_dimension_correlation_table_round_trips(tmp_path, monkeypatch):
    tables, probes = _dimension_tables(tmp_path, monkeypatch)
    rows, curve = tables["correlation"], probes["correlation_curve"]
    assert rows[0] == "r,correlation"
    assert len(rows) == 6
    assert (_cells(rows) == np.column_stack((curve.radii, curve.values))).all()


def test_dimension_density_table_lists_every_point(tmp_path, monkeypatch):
    tables, probes = _dimension_tables(tmp_path, monkeypatch)
    rows, fld = tables["density"], probes["density_field"]
    assert rows[0] == "x,lower,upper,inside"
    assert len(rows) == 3
    assert rows[1].endswith(",1") and rows[2].endswith(",0")  # the outside point
    assert (_cells(rows) == np.column_stack((fld.points, fld.lower, fld.upper, fld.inside))).all()


def test_dimension_flatness_table_lists_every_radius(tmp_path, monkeypatch):
    tables, probes = _dimension_tables(tmp_path, monkeypatch)
    rows, flat = tables["flatness"], probes["flatness_detector"]
    assert rows[0] == "r,bound,exponent"
    assert len(rows) == 8  # 0.01 halved down to 1e-4
    assert (_cells(rows) == np.column_stack((flat.radii, flat.bounds, flat.exponents))).all()


def _failing(err):
    def fail(*args, **kwargs):
        raise err

    return fail


def _report_files(out: Path) -> dict:
    """The bytes a run wrote, its report without the timestamp."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".json", ".csv")}
    report = json.loads(files.pop("dimension-report.json"))
    report.pop("timestamp")
    return {**files, "report": json.dumps(report, sort_keys=True).encode()}


# the next three test ids date from when dimension ran a worker thread;
# they check that a failure at each step of the run exits 3, writes
# nothing and leaves the next run in the process as a fresh process's
def test_a_sampler_failure_with_a_draw_pending_exits_3_writing_nothing(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(ifsdim.measures, "_push", _failing(
        ifsdim.cli.ConvergenceFailure("cylinder images failed to contract below 1e-9")
    ))
    code, report = run(tmp_path, "dimension", CANTOR_DIM_CFG)
    assert code == 3 and report is None
    assert "non-convergence" in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.suffix in (".json", ".csv")]


@pytest.mark.parametrize("name", ["density_field", "correlation_curve"])
def test_a_probe_failure_beside_the_worker_exits_3_writing_nothing(
    tmp_path, monkeypatch, capsys, name
):
    monkeypatch.setattr(ifsdim.cli, name, _failing(ValueError(f"{name} failed")))
    code, report = run(tmp_path, "dimension", CANTOR_DIM_CFG)
    assert code == 3 and report is None
    assert f"run failed: {name} failed" in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.suffix in (".json", ".csv")]


def test_dimension_after_worker_failures_writes_what_a_fresh_process_writes(
    tmp_path, monkeypatch
):
    failures = {
        "sampler": (ifsdim.measures, "_push", ifsdim.cli.ConvergenceFailure("no contraction")),
        "density": (ifsdim.cli, "density_field", ValueError("no field")),
    }
    for label, (module, name, err) in failures.items():
        (tmp_path / label).mkdir()
        with monkeypatch.context() as patch:
            patch.setattr(module, name, _failing(err))
            assert run(tmp_path / label, "dimension", CANTOR_DIM_CFG)[0] == 3
    after, fresh = tmp_path / "after", tmp_path / "fresh"
    after.mkdir()
    assert run(after, "dimension", CANTOR_DIM_CFG)[0] == 0
    env = dict(os.environ, PYTHONPATH=str(Path(ifsdim.__file__).parent.parent))
    argv = ["dimension", "--config", str(after / "run.cfg"), "--out", str(fresh)]
    script = f"from ifsdim.cli import main; raise SystemExit(main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert _report_files(after) == _report_files(fresh)


def test_dimension_requires_seed(tmp_path):
    code, _ = run(
        tmp_path,
        "dimension",
        "system.family = cantor\nsystem.ratios = 0.3, 0.3\n",
    )
    assert code == 2


def test_bad_seed_exits_2_before_the_bowen_solve(tmp_path, monkeypatch, capsys):
    # parsed only when the report was built, this exited 3 after the root
    def solved(*args, **kwargs):
        raise AssertionError("the root was solved before the seed was read")

    monkeypatch.setattr(ifsdim.cli, "bowen_solve", solved)
    text = "system.family = cantor\nsystem.ratios = 0.3, 0.3\nsample.seed = abc\n"
    code, report = run(tmp_path, "bowen", text)
    assert code == 2 and report is None
    assert "config error: sample.seed: expected an integer, got 'abc'\n" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "seed,extra", [("sample.seed = -5\n", ()), ("", ("--seed", "-3"))], ids=["config", "flag"]
)
def test_negative_seed_exits_2_before_sampling(tmp_path, capsys, seed, extra):
    # it passed the plan, then failed at sampling with exit 3
    text = "system.family = cantor\nsystem.ratios = 0.3, 0.3\n" + seed
    code, report = run(tmp_path, "dimension", text, extra)
    assert code == 2 and report is None
    assert "config error: sample.seed: must be >= 0, got -" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_dimension_staircase_flat_and_slow_slope(tmp_path):
    code, report = run(
        tmp_path,
        "dimension",
        """
        system.family = gallery:staircase
        system.a = 0.5
        sample.seed = 404
        sample.count = 10000
        dimension.r_min = 1e-21
        dimension.r_max = 1e-7
        dimension.r_count = 25
        dimension.fit_lo = 1e-20
        dimension.fit_hi = 1e-8
        dimension.density_r_min = 1e-10
        dimension.density_r_max = 0.2
        dimension.density_points = 200
        """,
    )
    assert code == 0
    res = report["results"]
    assert res["slope"] < 0.1
    assert res["flatness"]["fired"] is True
    assert res["report"]["consistent"] is False
    assert (tmp_path / "dimension-flatness.csv").exists()


def test_dimension_alternating_even_member_degenerates(tmp_path):
    base = """
    system.family = gallery:alternating-collapse
    dimension.member = {member}
    sample.seed = 5
    sample.count = {count}
    dimension.r_min = {rmin}
    dimension.r_max = {rmax}
    dimension.density_r_min = {rmin}
    dimension.density_r_max = {rmax}
    """
    code, report = run(
        tmp_path,
        "dimension",
        base.format(member=4, count=2000, rmin=1e-3, rmax=0.3),
    )
    assert code == 0
    assert report["results"]["degenerate_cloud"] is True
    assert report["results"]["slope"] == 0.0

    code, report = run(
        tmp_path,
        "dimension",
        base.format(member=5, count=4000, rmin=1e-4, rmax=0.04),
    )
    assert code == 0
    assert report["results"]["slope"] == pytest.approx(1.0, abs=0.08)


def test_dimension_member_validation(tmp_path):
    bad = "system.family = gallery:staircase\nsample.seed = 1\ndimension.member = soon\n"
    assert run(tmp_path, "dimension", bad)[0] == 2
    bad0 = "system.family = gallery:staircase\nsample.seed = 1\ndimension.member = 0\n"
    assert run(tmp_path, "dimension", bad0)[0] == 2


BAD_DIMENSION_KEYS = [
    ("dimension.density_points = 0", "dimension.density_points"),
    ("dimension.r_min = 0", "dimension.r_min"),
    ("dimension.density_r_min = 0", "dimension.density_r_min"),
    ("dimension.density_r_max = 2", "dimension.density_r_min"),
    ("dimension.flatness = true", "dimension.flatness"),
    # fit windows holding fewer than two grid radii, explicit and default
    ("dimension.fit_lo = 0.01\ndimension.fit_hi = 0.0101", "dimension.fit_lo"),
    ("dimension.r_min = 0.1", "dimension.r_min"),
]


@pytest.mark.parametrize(
    "system,bad,key",
    [
        pytest.param(system, bad, key, id=prefix + bad.replace("\n", ", "))
        for prefix, system in [
            ("", "system.family = cantor\nsystem.ratios = 0.3, 0.3\n"),
            # four continued-fraction digits at the deepest masses table the
            # budget admits for four maps
            ("cf4: ", "system.family = continued-fraction\nsystem.size = 4\ndimension.depth = 10\n"),
        ]
        for bad, key in BAD_DIMENSION_KEYS
    ],
)
def test_dimension_rejects_bad_keys_before_sampling(
    tmp_path, monkeypatch, capsys, system, bad, key
):
    calls = []
    for name in ("sample", "bowen_solve", "collocate"):
        monkeypatch.setattr(ifsdim.cli, name, lambda *a, _name=name, **k: calls.append(_name))
    code, report = run(tmp_path, "dimension", f"{system}sample.seed = 1\n{bad}\n")
    assert code == 2 and report is None
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
    assert f"config error: {key}: " in capsys.readouterr().err


CUSTOM_PAIR = "system.family = custom\nsystem.maps = similitude:0.4:0; similitude:0.4:0.6\n"
# each has a cycle, yet one map never reaches the other
REDUCIBLE_MOEBIUS = "system.family = custom\nsystem.maps = moebius:1; moebius:31\nsystem.incidence = 10;11\n"
REDUCIBLE_PAIR = CUSTOM_PAIR + "system.incidence = 11;01\n"
# continued fractions on {1, ..., 91} where no digit follows itself: 91 grids
MOEBIUS_NO_REPEATS_91 = (
    "system.family = custom\nsystem.maps = "
    + "; ".join(f"moebius:{q}" for q in range(1, 92))
    + "\nsystem.incidence = "
    + ";".join("1" * i + "0" + "1" * (90 - i) for i in range(91))
    + "\n"
)


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("bowen", "system.family = golden\nsystem.size = 1\n", "system.size: must be >= 2, got 1"),
        (
            "gibbs",
            "system.family = continued-fraction\nsystem.size = 1\n",
            "system.size: must be >= 2, got 1",
        ),
        (
            "bowen",
            CUSTOM_PAIR + "system.incidence = 11;1\n",
            "system.incidence: incidence matrix must be square",
        ),
        (
            "bowen",
            "system.family = custom\nsystem.maps = moebius:1; moebius:2\n"
            "system.incidence = 101;110;011\n",
            "system.incidence: incidence size must match the number of maps",
        ),
        (
            "dimension",
            CUSTOM_PAIR + "system.incidence = 11;00\nsample.seed = 1\n",
            "system.incidence: incidence is not irreducible: map 1 does not reach map 0",
        ),
        # reducible with a cycle: 1 never reaches 0, or 0 never reaches 1
        *(
            (command, text + ("sample.seed = 1\n" if command == "dimension" else ""), message)
            for text, message in (
                (REDUCIBLE_MOEBIUS, "system.incidence: incidence is not irreducible: map 0 does not reach map 1"),
                (REDUCIBLE_PAIR, "system.incidence: incidence is not irreducible: map 1 does not reach map 0"),
            )
            for command in ("bowen", "gibbs", "dimension")
        ),
        (
            "gibbs",
            CUSTOM_PAIR + "system.incidence = 10;01\ngibbs.exponent = 0\n",
            "system.incidence: incidence is not irreducible: map 0 does not reach map 1",
        ),
        # 1000^3 cells would be 8 GB per cylinder table
        (
            "converge",
            "system.family = golden\nconverge.levels = 2:1000\n",
            "converge.levels: level 1000 at cylinder depth 3 makes 1000000000 cells",
        ),
        ("scan", "system.family = golden\nscan.levels = 1:3\n", "scan.levels: must be >= 2, got 1"),
        # 20000 branches x 32^2 barycentric weights would be 164 MB
        (
            "scan",
            "system.family = continued-fraction\nscan.levels = 2,20000\n",
            "scan.levels: collocating 20000 branches at 32 nodes makes 20480000 interpolation weights",
        ),
        # L and dL/ds on 91 grids of 32 nodes: 2 * 2912^2 entries
        (
            "bowen",
            MOEBIUS_NO_REPEATS_91 + "bowen.depth = 1\n",
            "system.maps: collocating on 91 grids of 32 nodes makes 16959488 matrix entries",
        ),
        (
            "converge",
            "system.family = golden\nconverge.cylinder_depths = 0,2\n",
            "converge.cylinder_depths: must be >= 1, got 0",
        ),
        (
            "converge",
            "system.family = golden\nconverge.cylinder_depths = 7\n",
            "converge.cylinder_depths: must be <= 6, got 7",
        ),
        (
            "converge",
            "system.family = gallery:leaking-block\nconverge.levels = 0:3\n",
            "converge.levels: must be >= 1, got 0",
        ),
        # staircase stage n needs a^((n+1)^2) > 0: 0.5^1089 underflows
        (
            "converge",
            "system.family = gallery:staircase\nconverge.levels = 30:40\n",
            "converge.levels: member 40 of staircase underflows in double precision, "
            "so members run to at most 31",
        ),
        (
            "dimension",
            "system.family = gallery:staircase\nsample.seed = 1\ndimension.member = 32\n",
            "dimension.member: member 32 of staircase underflows",
        ),
        # leaking-block members put mass 1/n on [1, 2]
        (
            "dimension",
            "system.family = gallery:leaking-block\nsample.seed = 1\n"
            "dimension.member = 3\ndimension.flatness = true\n",
            "dimension.flatness: the detector needs a piecewise measure on [0, 1]",
        ),
        (
            "converge",
            "system.family = gallery:lattice-comb\nconverge.levels = 16777217\n",
            "converge.levels: member 16777217 of lattice-comb makes 16777217 atoms and pieces, "
            "over the budget of 16777216",
        ),
        (
            "dimension",
            "system.family = gallery:cantor-mass-stages\nsample.seed = 1\ndimension.member = 25\n",
            "dimension.member: member 25 of cantor-mass-stages makes 33554432 atoms and pieces",
        ),
        # 2^22 pieces: 0, the 2^23 + 1 cut points and 2^24 shifted edges per radius
        (
            "dimension",
            "system.family = gallery:cantor-mass-stages\nsample.seed = 1\ndimension.member = 22\n",
            "dimension.flatness: cantor-mass-stages[22] makes 25165827 flatness breakpoints per radius, "
            "over the budget of 16777216",
        ),
        # keys the chosen family or command never reads
        (
            "dimension",
            "system.family = gallery:staircase\nsample.seed = 1\ndimension.depth = 99\n",
            "dimension.depth: not read for system.family = gallery:staircase",
        ),
        (
            "dimension",
            "system.family = cantor\nsystem.ratios = 0.3, 0.3\nsample.seed = 1\ndimension.member = 3\n",
            "dimension.member: not read for system.family = cantor",
        ),
        (
            "converge",
            "system.family = gallery:lattice-comb\nconverge.singularity_depth = 0\n",
            "converge.singularity_depth: not read for system.family = gallery:lattice-comb",
        ),
        (
            "converge",
            "system.family = gallery:staircase\nconverge.cylinder_depths = 1,2\n",
            "converge.cylinder_depths: not read for system.family = gallery:staircase",
        ),
        (
            "converge",
            "system.family = gallery:leaking-block\nsystem.size = 4\n",
            "system.size: not read for system.family = gallery:leaking-block",
        ),
        (
            "dimension",
            "system.family = gallery:cantor-mass-stages\nsystem.ratios = 0.2, 0.2\nsample.seed = 1\n"
            "dimension.member = 3\n",
            "system.ratios: not read for system.family = gallery:cantor-mass-stages",
        ),
        (
            "converge",
            "system.family = gallery:lattice-comb\nsystem.a = 0.25\n",
            "system.a: not read for system.family = gallery:lattice-comb",
        ),
        ("bowen", "system.family = golden\nsystem.a = 0.25\n", "system.a: not read for system.family = golden"),
        # the closed-form root of the whole family reads no word depth
        (
            "bowen",
            "system.family = borderline\nbowen.depth = 5\n",
            "bowen.depth: not read for system.family = borderline",
        ),
        (
            "scan",
            "system.family = continued-fraction\nsystem.size = 3\nscan.levels = 2:4\n",
            "system.size: not read for system.family = continued-fraction",
        ),
        # options that no run reads any more
        (
            "dimension",
            "system.family = cantor\nsystem.ratios = 0.3, 0.3\nsample.seed = 1\ndimension.tolerance = 0.1\n",
            "dimension.tolerance: not read for system.family = cantor",
        ),
        (
            "bowen",
            "system.family = custom\nsystem.maps = moebius:1; moebius:2\nsystem.label = mine\n",
            "system.label: not read for system.family = custom",
        ),
        (
            "bowen",
            "system.family = cantor\nsystem.ratios = 0.3, 0.3\nbowen.tol = 1e-12\n",
            "bowen.tol: not read for system.family = cantor",
        ),
        (
            "scan",
            "system.family = golden\nscan.levels = 2:4\nscan.tol = 1e-12\n",
            "scan.tol: not read for system.family = golden",
        ),
        # word derivatives past the smallest normal double: their logs would
        # be -inf and the word bracket [0, 1]
        (
            "bowen",
            "system.family = cantor\nsystem.ratios = 1e-300, 0.5\nbowen.depth = 2\n",
            "bowen.depth: depth 2 makes word derivatives as small as exp(-1381.6), "
            "below the smallest normal double exp(-708.4)",
        ),
        (
            "scan",
            "system.family = golden\nscan.levels = 600, 1000\nscan.depth = 2\n",
            "scan.depth: level 600 at depth 2 makes word derivatives as small as exp(-833.2)",
        ),
        (
            "dimension",
            "system.family = custom\nsystem.maps = moebius:1; moebius:10000000000000\nsample.seed = 1\n",
            "dimension.depth: depth 12 makes word derivatives as small as exp(-718.4)",
        ),
        # a similitude's exact bracket reads depth 1, its cylinders depth 3
        (
            "dimension",
            "system.family = cantor\nsystem.ratios = 1e-200, 0.3\nsample.seed = 1\ndimension.depth = 3\n",
            "dimension.depth: depth 3 makes word derivatives as small as exp(-1381.6), "
            "below the smallest normal double exp(-708.4)",
        ),
    ],
    ids=[
        "golden-size", "cf-size", "ragged-incidence", "wrong-size-incidence", "dead-end",
        "reducible-moebius-bowen", "reducible-moebius-gibbs", "reducible-moebius-dimension",
        "reducible-pair-bowen", "reducible-pair-gibbs", "reducible-pair-dimension", "identity-incidence",
        "converge-budget",
        "scan-levels",
        "collocation-budget", "collocation-matrix-budget", "depth-low", "depth-high", "gallery-levels",
        "staircase-stage", "staircase-member", "flatness-support", "lattice-comb-budget",
        "cantor-stages-budget", "cantor-stages-flatness-budget", "gallery-depth", "system-member",
        "gallery-singularity-depth", "gallery-cylinder-depths", "gallery-size", "gallery-ratios",
        "gallery-scale", "system-scale", "bowen-depth-closed-form", "scan-size", "dimension-tolerance",
        "custom-label", "bowen-tol", "scan-tol", "bowen-tiny-words", "scan-tiny-words",
        "dimension-tiny-words", "dimension-tiny-cylinders",
    ],
)
def test_config_errors_name_their_key_before_any_solve(
    tmp_path, monkeypatch, capsys, command, text, message
):
    calls = []
    for name in ("sample", "bowen_solve", "collocate"):
        monkeypatch.setattr(ifsdim.cli, name, lambda *a, _name=name, **k: calls.append(_name))
    # nor is any gallery member built
    monkeypatch.setattr(ifsdim.measures.MeasureFamily, "at", lambda *a: calls.append("at"))
    code, report = run(tmp_path, command, text)
    assert code == 2 and report is None
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
    assert f"config error: {message}" in capsys.readouterr().err


CF5 = "system.family = continued-fraction\nsystem.size = 5\n"
MOEBIUS5 = "system.family = custom\nsystem.maps = moebius:1; moebius:2; moebius:3; moebius:4; moebius:5\n"


@pytest.mark.parametrize(
    "command,text,message",
    [
        # the default word depth 12 on five digits: 5^12 words, about 34 GB
        ("bowen", CF5, "bowen.depth: depth 12 makes 244140625 words, over the budget of 16777216"),
        (
            "scan",
            "system.family = golden\nscan.levels = 2:3\nscan.depth = 24\n",
            "scan.depth: level 3 at depth 24 makes 282429536481 words",
        ),
        # the depth-9 step's product: 5^8 rows x 5 branches x 32 nodes
        (
            "dimension",
            CF5 + "sample.seed = 1\ndimension.depth = 10\n",
            "dimension.depth: depth 10 makes 62500000 masses-recursion entries",
        ),
        (
            "dimension",
            MOEBIUS5 + "sample.seed = 1\ndimension.depth = 10\n",
            "dimension.depth: depth 10 makes 62500000 masses-recursion entries",
        ),
        # the last step's product: 3^15 rows x 3 branches x 2 columns
        (
            "dimension",
            "system.family = cantor\nsystem.ratios = 0.2, 0.2, 0.2\n"
            "sample.seed = 1\ndimension.depth = 16\n",
            "dimension.depth: depth 16 makes 86093442 masses-recursion entries",
        ),
        # the depth-10 step's product: 4^9 rows x 4 branches x 32 nodes
        (
            "dimension",
            "system.family = continued-fraction\nsystem.size = 4\nsample.seed = 1\ndimension.depth = 11\n",
            "dimension.depth: depth 11 makes 33554432 masses-recursion entries, over the budget of 16777216",
        ),
        (
            "gibbs",
            "system.family = continued-fraction\nsystem.size = 4\ngibbs.depth = 12\n",
            "gibbs.depth: depth 12 makes 201326592 masses-recursion entries",
        ),
    ],
    ids=[
        "bowen-cf5", "scan-depth", "dimension-cf5",
        "dimension-moebius5", "dimension-depth", "dimension-cf4-depth-11", "gibbs-states",
    ],
)
def test_work_budget_rejects_before_any_geometry(
    tmp_path, monkeypatch, capsys, command, text, message
):
    calls = []

    def refused(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("a level was built past the budget check")

    for module in (ifsdim.systems, ifsdim.pressure, ifsdim.dimension, ifsdim.measures):
        for name in ("level_images", "level_log_derivatives"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    # gibbs reads no word geometry: its first work is the collocation
    monkeypatch.setattr(ifsdim.cli, "collocate", refused)
    code, report = run(tmp_path, command, text)
    assert code == 2 and report is None
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        # the last step's product: 4^10 rows x 4 branches x 2 columns
        "system.family = cantor\nsystem.ratios = 0.2, 0.2, 0.2, 0.2\ndimension.depth = 11\n",
        # the depth-8 step's product: 5^7 rows x 5 branches x 32 nodes
        CF5 + "dimension.depth = 9\n",
    ],
    ids=["cantor4-depth-11", "cf5-depth-9"],
)
def test_dimension_plan_charges_only_the_masses_recursion(monkeypatch, text):
    # the plan alone: no (words x depth) digit matrix is charged, since
    # dimension never expands one
    calls = []
    for name in ("sample", "bowen_solve", "collocate"):
        monkeypatch.setattr(ifsdim.cli, name, lambda *a, _name=name, **k: calls.append(_name))
    cfg = ifsdim.config.RunConfig(ifsdim.config.parse_config(text + "sample.seed = 1\n"))
    run = ifsdim.cli.COMMANDS["dimension"](cfg)
    cfg.check_read("dimension")
    assert callable(run) and calls == []


@pytest.mark.parametrize(
    "command,text",
    [
        ("bowen", "system.family = continued-fraction\nsystem.size = 4\n"),
        ("bowen", "system.family = custom\nsystem.maps = moebius:1; moebius:2\nbowen.depth = 24\n"),
        ("scan", "system.family = borderline\nscan.levels = 4096\nscan.depth = 2\n"),
        ("converge", "system.family = borderline\nconverge.levels = 4096\nconverge.cylinder_depths = 2\n"),
        # the masses recursions of four digits at depth 10, three at 12 and five at 8
        (
            "dimension",
            "system.family = continued-fraction\nsystem.size = 4\nsample.seed = 1\ndimension.depth = 10\n",
        ),
        ("dimension", "system.family = continued-fraction\nsystem.size = 3\nsample.seed = 1\n"),
        ("dimension", CF5 + "sample.seed = 1\ndimension.depth = 8\n"),
        # the masses table's 4^10 words of 10 symbols
        ("gibbs", "system.family = continued-fraction\nsystem.size = 4\ngibbs.depth = 10\n"),
        # the masses table's 3^12 words of 12 symbols
        ("gibbs", "system.family = continued-fraction\nsystem.size = 3\ngibbs.depth = 12\n"),
        # 2^24 atoms, 2^24 pieces (flatness off), the largest member the
        # flatness breakpoints admit, and the last stage that 0.5^((n+1)^2) represents
        ("converge", "system.family = gallery:lattice-comb\nconverge.levels = 16777216\n"),
        (
            "dimension",
            "system.family = gallery:cantor-mass-stages\nsample.seed = 1\n"
            "dimension.member = 24\ndimension.flatness = off\n",
        ),
        ("dimension", "system.family = gallery:cantor-mass-stages\nsample.seed = 1\ndimension.member = 21\n"),
        ("dimension", "system.family = gallery:staircase\nsample.seed = 1\ndimension.member = 31\n"),
    ],
    ids=[
        "bowen-cf4", "bowen-depth-24", "scan-depth", "converge-table", "dimension-cf4",
        "dimension-cf3-depth-12", "dimension-cf5-depth-8", "gibbs-states",
        "gibbs-cf3-depth-12", "converge-lattice-comb", "dimension-cantor-stages",
        "dimension-cantor-stages-flatness", "dimension-staircase",
    ],
)
def test_work_budget_admits_work_at_its_edge(tmp_path, monkeypatch, command, text):
    # 4096^2 = 2^24 = 4^12: each case reaches its first solve, or builds its
    # first gallery member, stubbed to stop there; scan notes its stubbed
    # level and stops at the limit's solve
    def reached(*args, **kwargs):
        raise ifsdim.cli.ConvergenceFailure("reached the solve")

    for name in ("bowen_solve", "analytic_bowen_solve", "collocate"):
        monkeypatch.setattr(ifsdim.cli, name, reached)
    monkeypatch.setattr(ifsdim.measures.MeasureFamily, "at", reached)
    code, report = run(tmp_path, command, text)
    assert code == 3 and report is None


def test_one_shift_gives_one_answer_under_both_spellings(tmp_path):
    cf = continued_fraction_family().truncate(2)
    custom = "system.family = custom\nsystem.maps = moebius:1; moebius:2\n"
    spellings = {"cf": "system.family = continued-fraction\nsystem.size = 2\n", "custom": custom}
    built = ifsdim.cli._build_source(ifsdim.config.RunConfig(ifsdim.config.parse_config(custom)))
    assert built.incidence.strides == cf.incidence.strides == (0, 0) and cf.incidence.shape == (2, 2)
    for reader in (ifsdim.systems.level_log_derivatives, ifsdim.systems.level_images):
        for a, b in zip(*(reader(s, 12) for s in (cf, built))):
            assert a.tobytes() == b.tobytes()
    for command, extra in [
        ("bowen", ""),
        ("gibbs", "gibbs.depth = 4\n"),
        ("dimension", "sample.seed = 5\nsample.count = 2000\n"),
    ]:
        reports = {}
        for name, text in spellings.items():
            out = tmp_path / f"{command}-{name}"
            out.mkdir()
            code, reports[name] = run(out, command, text + extra)
            assert code == 0
        for report in reports.values():
            report["results"].pop("measure", None)  # the system's label
        for part in ("results", "tables", "diagnostics", "warnings"):
            assert reports["cf"][part] == reports["custom"][part], (command, part)


def test_dimension_family_without_size_exit_2(tmp_path):
    code, _ = run(tmp_path, "dimension", "system.family = golden\nsample.seed = 1\n")
    assert code == 2


# ---------------------------------------------------------------------------
# gibbs


def test_gibbs_full_shift_zero_exponent(tmp_path):
    code, report = run(
        tmp_path,
        "gibbs",
        "system.family = cantor\nsystem.ratios = 0.5, 0.5\n"
        "gibbs.exponent = 0\ngibbs.depth = 1\n",
    )
    assert code == 0
    res = report["results"]
    assert res["eigenvalue"] == pytest.approx(2.0, abs=1e-10)
    assert res["entropy"] == pytest.approx(math.log(2.0), abs=1e-10)
    assert res["dimension_interpretation"] is False


def test_gibbs_golden_truncation_at_bowen_root(tmp_path):
    code, report = run(
        tmp_path, "gibbs", "system.family = golden\nsystem.size = 6\n"
    )
    assert code == 0
    res = report["results"]
    assert res["exponent"] == pytest.approx(GOLDEN_H6, abs=1e-9)
    assert abs(res["eigenvalue"] - 1.0) < 1e-6
    assert res["ratio"] == pytest.approx(GOLDEN_H6, abs=1e-6)
    assert res["dimension_interpretation"] is True
    rows = (tmp_path / "gibbs-masses.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    total = sum(float(r.split(",")[1]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_gibbs_custom_incidence_spectral_radius(tmp_path):
    code, report = run(
        tmp_path,
        "gibbs",
        "system.family = custom\n"
        "system.maps = similitude:0.4:0.0; similitude:0.3:0.5\n"
        "system.incidence = 11;10\n"
        "gibbs.exponent = 0\ngibbs.depth = 1\n",
    )
    assert code == 0
    assert report["results"]["eigenvalue"] == pytest.approx(PHI, abs=1e-8)


# five similitudes of ratio 0.15 under the Wielandt incidence 0 -> 1 -> 2 ->
# 3 -> 4 -> {0, 1}: primitive with exponent 17, every entry of A^17
# positive and no earlier power's.  Its spectral radius rho solves
# rho^5 = rho + 1, so h = log rho / log(1/0.15).
WIELANDT = (
    "system.family = custom\nsystem.maps = "
    + "; ".join(f"similitude:0.15:{e / 5}" for e in range(5))
    + "\nsystem.incidence = 01000;00100;00010;00001;11000\n"
)


def test_the_wielandt_incidence_has_its_closed_form_root_and_ratio(tmp_path):
    rho = 1.2
    for _ in range(20):  # Newton on rho^5 - rho - 1
        rho -= (rho**5 - rho - 1.0) / (5.0 * rho**4 - 1.0)
    h = math.log(rho) / math.log(1.0 / 0.15)
    (tmp_path / "gibbs").mkdir()
    code, report = run(tmp_path / "gibbs", "gibbs", WIELANDT)
    assert code == 0
    assert report["results"]["exponent"] == pytest.approx(h, abs=1e-14)
    assert report["results"]["ratio"] == pytest.approx(h, abs=1e-14)
    sampled = "dimension.depth = 6\nsample.count = 500\nsample.seed = 1\n"
    code, report = run(tmp_path, "dimension", WIELANDT + sampled)
    assert code == 0 and report["warnings"] == []
    assert report["results"]["report"]["ratio"] == pytest.approx(h, abs=1e-14)


def test_gibbs_on_a_periodic_incidence_exits_0(tmp_path):
    # 0 and 1 alternate: irreducible with period 2.  The limit set is one
    # periodic orbit, two points, so h = 0, and each point weighs 1/2.
    code, report = run(
        tmp_path,
        "gibbs",
        "system.family = custom\nsystem.maps = similitude:0.4:0; similitude:0.3:0.5\n"
        "system.incidence = 01;10\n",
    )
    assert code == 0
    res = report["results"]
    assert abs(res["exponent"]) <= 1e-15 and res["eigenvalue"] == pytest.approx(1.0, abs=1e-15)
    assert res["lyapunov"] == pytest.approx(-0.5 * math.log(0.12), rel=1e-14)
    rows = (tmp_path / "gibbs-masses.csv").read_text().splitlines()
    assert rows == ["word,eigenmeasure,invariant", "0,0.5,0.5", "1,0.5,0.5"]


def test_gibbs_bad_map_spec_exit_2(tmp_path):
    # only the README's spellings are map kinds
    for maps in (
        "parabola:0.4",
        "affine-1d:0.4:0; affine-1d:0.3:0.6",
        "moebius-1d:1; moebius-1d:2",
    ):
        out = tmp_path / maps.split(":")[0]
        out.mkdir()
        code, report = run(
            out, "gibbs", f"system.family = custom\nsystem.maps = {maps}\ngibbs.exponent = 0\n"
        )
        assert code == 2 and report is None
        assert [p.name for p in out.iterdir()] == ["run.cfg"]


def test_gibbs_continued_fraction_operator_root(tmp_path):
    code, report = run(
        tmp_path,
        "gibbs",
        "system.family = continued-fraction\nsystem.size = 2\ngibbs.depth = 4\n",
    )
    assert code == 0
    res = report["results"]
    # the collocation root, as bowen gives it: the published digits of E_{1,2}
    assert res["exponent"] == pytest.approx(0.5312805062772051, abs=1e-13)
    assert abs(res["eigenvalue"] - 1.0) < 1e-12
    assert res["ratio"] == pytest.approx(res["exponent"], abs=1e-13)


def test_gibbs_bowen_exponent_builds_one_operator(tmp_path, monkeypatch):
    # the root solve and the masses share one collocation
    calls = []
    real = ifsdim.cli.collocate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ifsdim.cli, "collocate", counted)
    # and the masses read the root's last evaluation, not a new eigen-solve
    solves = []
    real_eigenpair = ifsdim.pressure.Collocation.eigenpair

    def counted_eigenpair(*args, **kwargs):
        solves.append(args)
        return real_eigenpair(*args, **kwargs)

    monkeypatch.setattr(ifsdim.pressure.Collocation, "eigenpair", counted_eigenpair)
    code, report = run(
        tmp_path,
        "gibbs",
        "system.family = continued-fraction\nsystem.size = 2\n"
        "gibbs.depth = 4\ngibbs.exponent = bowen\n",
    )
    assert code == 0
    assert report["results"]["exponent"] == pytest.approx(CF2_H, abs=5e-3)
    assert len(calls) == 1
    assert len(solves) == report["diagnostics"]["root_evaluations"]
    # a numeric exponent is one eigenpair
    solves.clear()
    system = "system.family = continued-fraction\nsystem.size = 2\ngibbs.exponent = 0.5\n"
    code, report = run(tmp_path, "gibbs", system)
    assert code == 0 and len(solves) == 1


def test_dimension_builds_one_collocation(tmp_path, monkeypatch):
    # the root solve and the sampled masses share one collocation
    calls = []
    real = ifsdim.pressure.collocate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (ifsdim.cli, ifsdim.pressure):
        monkeypatch.setattr(module, "collocate", counted)
    text = "system.family = continued-fraction\nsystem.size = 2\nsample.seed = 1\nsample.count = 100\n"
    code, _ = run(tmp_path, "dimension", text)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "system,depths",
    [
        # the bracket reads the measure's level, built once
        ("system.family = continued-fraction\nsystem.size = 3\ndimension.depth = 8\n", [8, 8]),
        # a similitude's bracket is exact at depth 1
        ("system.family = cantor\nsystem.ratios = 0.3, 0.3\ndimension.depth = 5\n", [1, 5]),
    ],
    ids=["cf3", "cantor"],
)
def test_dimension_reads_no_level_deeper_than_its_measure(tmp_path, monkeypatch, system, depths):
    asked = []

    def spy(real):
        def spied(system, depth):
            asked.append(depth)
            return real(system, depth)

        return spied

    readers = {name: spy(getattr(ifsdim.systems, name)) for name in ("level_images", "level_log_derivatives")}
    for module in (ifsdim.systems, ifsdim.pressure, ifsdim.dimension, ifsdim.measures):
        for name, spied in readers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spied)
    code, _ = run(tmp_path, "dimension", f"{system}sample.seed = 1\nsample.count = 100\n")
    assert code == 0 and asked == depths


@pytest.mark.parametrize("command", ["bowen", "gibbs", "dimension"])
@pytest.mark.parametrize(
    "maps",
    ["moebius:1; moebius:2", "moebius:2; moebius:3; moebius:5", "similitude:0.4:0; similitude:0.3:0.5"],
    ids=["cf12", "moebius235", "similitudes"],
)
def test_an_all_ones_incidence_is_the_full_shift(tmp_path, command, maps):
    system = f"system.family = custom\nsystem.maps = {maps}\n"
    sampled = "dimension.depth = 4\nsample.seed = 1\nsample.count = 500\n"
    size = maps.count(";") + 1
    ones = f"system.incidence = {';'.join(['1' * size] * size)}\n"
    reports = []
    for name, text in (("none", system + sampled), ("ones", system + ones + sampled)):
        (tmp_path / name).mkdir()
        code, report = run(tmp_path / name, command, text)
        assert code == 0
        reports.append({k: report[k] for k in ("results", "diagnostics", "tables", "warnings")})
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "system,depth",
    [
        (
            "system.family = custom\nsystem.maps = moebius:1; moebius:2; moebius:3\n"
            "system.incidence = 011;101;110\n",
            8,
        ),
        ("system.family = continued-fraction\nsystem.size = 2\n", 12),
    ],
    ids=["moebius3-no-repeats", "cf2"],
)
def test_dimension_root_is_the_bowen_root_at_its_depth(tmp_path, system, depth):
    sampled = f"{system}dimension.depth = {depth}\nsample.seed = 1\nsample.count = 100\n"
    code, report = run(tmp_path, "dimension", sampled)
    assert code == 0
    code, bowen = run(tmp_path, "bowen", f"{system}bowen.depth = {depth}\n")
    assert code == 0
    assert report["results"]["report"]["bowen_root"] == bowen["results"]["h"]


@pytest.mark.parametrize(
    "system",
    [
        "system.family = continued-fraction\nsystem.size = 2\n",
        "system.family = custom\nsystem.maps = similitude:0.4:0; similitude:0.3:0.5\n"
        "system.incidence = 11;10\n",
    ],
    ids=["cf2", "fibonacci"],
)
def test_dimension_samples_the_eigenmeasure_that_gibbs_reports(tmp_path, monkeypatch, system):
    measures = []
    real = ifsdim.cli.sample

    def captured(measure, *args, **kwargs):
        measures.append(measure)
        return real(measure, *args, **kwargs)

    monkeypatch.setattr(ifsdim.cli, "sample", captured)
    text = f"{system}dimension.depth = 12\nsample.seed = 1\nsample.count = 100\n"
    assert run(tmp_path, "dimension", text)[0] == 0
    assert run(tmp_path, "gibbs", f"{system}gibbs.depth = 12\ngibbs.exponent = bowen\n")[0] == 0
    rows = list(csv.reader((tmp_path / "gibbs-masses.csv").read_text().splitlines()[1:]))
    (measure,) = measures
    deepest = measure.level(12)
    # each row's word is the deepest level's word at that index
    words = np.array([[int(e) for e in row[0].split(".")] for row in rows])
    assert deepest.size == len(rows)
    np.testing.assert_array_equal(words[:, -1], measure.last_symbols[11])
    # not bit for bit: the two roots start their Newton steps from different points
    eigenmeasure = np.array([float(row[1]) for row in rows])
    assert np.abs(deepest - eigenmeasure).max() <= 1e-12


@pytest.mark.parametrize(
    "system",
    [
        "system.family = continued-fraction\nsystem.size = 2\ngibbs.depth = 4\n",
        "system.family = custom\nsystem.maps = similitude:0.4:0; similitude:0.3:0.6\n"
        "system.incidence = 11;10\ngibbs.depth = 4\n",
    ],
    ids=["cf2", "fibonacci"],
)
def test_gibbs_masses_table_matches_the_csv_writer(tmp_path, monkeypatch, system):
    # the one-format masses table gives the bytes the stdlib csv writer gives
    tables = []
    real = ifsdim.cli.cylinder_masses

    def recorded(*args):
        tables.append(real(*args))
        return tables[-1]

    monkeypatch.setattr(ifsdim.cli, "cylinder_masses", recorded)
    code, _ = run(tmp_path, "gibbs", system)
    assert code == 0 and len(tables) == 1
    (masses,) = tables
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["word", "eigenmeasure", "invariant"])
    writer.writerows(
        [".".join(map(str, w)), f"{m:.17g}", f"{inv:.17g}"]
        for w, m, inv in zip(
            masses.words.tolist(), masses.eigenmeasure.tolist(), masses.invariant.tolist()
        )
    )
    assert (tmp_path / "gibbs-masses.csv").read_text() == want.getvalue()


@pytest.mark.parametrize("rows", [0, 1, 5, 6])
def test_tables_format_the_same_text_in_blocks_of_rows(monkeypatch, rows):
    # blocks of 3 rows: none, one partial block, a partial last block, and
    # a row count that is a multiple of the block
    digits = np.arange(2 * rows).reshape(rows, 2) % 3
    words = [f'w,"{k}' if k % 2 else f"w{k}" for k in range(rows)]  # quoted when odd
    args = (
        "d1.d2,x,word,flag", "%d.%d,%.17g,%s,%s",
        *digits.T, np.arange(rows) / 7, words, [k % 3 == 0 for k in range(rows)],
    )
    whole = ifsdim.cli._table(*args)
    assert len(whole.splitlines()) == rows + 1
    monkeypatch.setattr(ifsdim.cli, "_TABLE_BLOCK", 3)
    assert ifsdim.cli._table(*args) == whole
    if rows > 1:
        assert whole.splitlines()[2] == '2.0,0.14285714285714285,"w,""1",false'


def test_gibbs_reports_root_evaluations_for_the_bowen_exponent(tmp_path):
    system = "system.family = continued-fraction\nsystem.size = 2\ngibbs.depth = 4\n"
    code, report = run(tmp_path, "gibbs", system)
    assert code == 0
    assert 1 <= report["diagnostics"]["root_evaluations"] <= 8
    code, report = run(tmp_path, "gibbs", system + "gibbs.exponent = 0.5\n")
    assert code == 0
    assert "root_evaluations" not in report["diagnostics"]


def test_gibbs_state_budget_exit_2(tmp_path):
    # the masses table's 4^12 words of 12 symbols make 201,326,592 entries,
    # 12 times the budget
    code, report = run(
        tmp_path,
        "gibbs",
        "system.family = continued-fraction\nsystem.size = 4\n"
        "gibbs.depth = 12\ngibbs.exponent = 0.5\n",
    )
    assert code == 2 and report is None
    assert [p for p in tmp_path.iterdir() if p.suffix in (".json", ".csv")] == []


@pytest.mark.parametrize("exponent", ["nan", "inf", "-inf"])
def test_gibbs_non_finite_exponent_exit_2(tmp_path, exponent):
    code, report = run(
        tmp_path,
        "gibbs",
        "system.family = cantor\nsystem.ratios = 0.5, 0.5\n"
        f"gibbs.exponent = {exponent}\ngibbs.depth = 1\n",
    )
    assert code == 2 and report is None
    assert [p for p in tmp_path.iterdir() if p.suffix in (".json", ".csv")] == []


@pytest.mark.parametrize(
    "system,exponent,message",
    [
        ("system.family = continued-fraction\nsystem.size = 2\n", "-1000", "exponent s = -1000.0 overflows"),
        ("system.family = cantor\nsystem.ratios = 0.3, 0.3\n", "1000", "exponent s = 1000.0 underflows"),
    ],
    ids=["overflow", "underflow"],
)
def test_gibbs_exponent_out_of_float_range_exits_3_naming_the_exponent(
    tmp_path, capsys, system, exponent, message
):
    # |s_e'|^s at s = -1000 passes the float range on CF{1, 2}, and
    # 0.3^1000 is 0.0: either way the run fails naming the exponent, not
    # the incidence, and numpy warns nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run(tmp_path, "gibbs", f"{system}gibbs.exponent = {exponent}\n")
    assert code == 3 and report is None
    err = capsys.readouterr().err
    assert message in err and "incidence" not in err
    assert "Warning" not in err and [str(w.message) for w in caught] == []


@pytest.mark.parametrize("exponent", [4.5, 5.0, 8.0])
def test_gibbs_on_cf2_far_from_the_root_matches_the_partition_ratios(tmp_path, exponent):
    # here a negative eigenvalue of the 32-node collocation outgrows the
    # Perron root in modulus: the identity shift keeps the Perron root on top
    code, report = run(
        tmp_path, "gibbs", f"system.family = continued-fraction\nsystem.size = 2\ngibbs.exponent = {exponent}\n"
    )
    assert code == 0
    cf2 = continued_fraction_family().truncate(2)
    deep, shallow = pressure(cf2, exponent, 16), pressure(cf2, exponent, 15)
    for figure in ("upper", "lower"):
        ratio = math.exp(16 * getattr(deep, figure) - 15 * getattr(shallow, figure))
        assert report["results"]["eigenvalue"] == pytest.approx(ratio, rel=1e-5), figure


@pytest.mark.parametrize(
    "digits, eigenvalue",
    [
        ((1, 2, 3, 4), 3609.280465458367),
        # found by a seeded search (random.Random(40), 200 draws of four
        # distinct digits in 1..40): 175 draws exit 3 this way.  The
        # residual max |lL - lambda l| = 1.79e-7 is 6.3e-16 of lambda, at
        # roundoff, but RESIDUAL_LIMIT is absolute (ROADMAP item 19, defect 3)
        pytest.param(
            (34, 9, 4, 13),
            285843449.4208549,
            marks=pytest.mark.xfail(strict=True, reason="absolute residual guard at a large eigenvalue"),
        ),
    ],
    ids=["1-2-3-4", "34-9-4-13"],
)
def test_gibbs_at_a_negative_exponent_exits_0(tmp_path, digits, eigenvalue):
    code, report = run(
        tmp_path,
        "gibbs",
        f"system.family = custom\nsystem.maps = {'; '.join(f'moebius:{q}' for q in digits)}\n"
        "system.incidence = 1110;1010;1011;1011\ngibbs.exponent = -2.76\n",
    )
    assert code == 0
    assert report["results"]["eigenvalue"] == pytest.approx(eigenvalue, rel=1e-12)


def test_gibbs_past_the_iteration_budget_exits_3_naming_the_exponent(tmp_path, capsys):
    # a periodic incidence whose iteration on (L' + I)^32 still needs more
    # than 5000 passes at s = 4.5
    code, report = run(
        tmp_path,
        "gibbs",
        "system.family = custom\nsystem.maps = moebius:4; moebius:39\n"
        "system.incidence = 01;10\ngibbs.exponent = 4.5\n",
    )
    assert code == 3 and report is None
    err = capsys.readouterr().err
    assert "5000 passes" in err and "s = 4.5" in err


# ---------------------------------------------------------------------------
# report mechanics


def test_reports_are_deterministic_up_to_timestamp(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(CANTOR_DIM_CFG)
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["dimension", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["dimension", "--config", str(cfg), "--out", str(out2)]) == 0
    assert main(["dimension", "--config", str(cfg), "--out", str(out3), "--seed", "777"]) == 0
    a = json.loads((out1 / "dimension-report.json").read_text())
    b = json.loads((out2 / "dimension-report.json").read_text())
    c = json.loads((out3 / "dimension-report.json").read_text())
    for blob in (a, b, c):
        blob.pop("timestamp")
    assert a == b
    assert a != c
    assert a["config_hash"] == b["config_hash"] != c["config_hash"]
    assert (out1 / "dimension-correlation.csv").read_text() == (
        out2 / "dimension-correlation.csv"
    ).read_text()


SAMPLE_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


@pytest.mark.parametrize("cfg", SAMPLE_CONFIGS, ids=lambda p: p.stem)
def test_sample_configs_run_reproducibly(tmp_path, monkeypatch, cfg):
    # each sample config is named <system>-<command>.cfg
    command = cfg.stem.rsplit("-", 1)[1]
    reports = []
    write = ifsdim.cli.Report.write

    def kept(report, out_dir, fmt):
        reports.append(report)
        return write(report, out_dir, fmt)

    monkeypatch.setattr(ifsdim.cli.Report, "write", kept)
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    first, second = reports
    assert first.canonical_body() == second.canonical_body()
    tables = [sorted(out.glob("*.csv")) for out in outs]
    assert tables[0] and [p.name for p in tables[0]] == [p.name for p in tables[1]]
    for a, b in zip(*tables):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("section", ["command", "system"])
@pytest.mark.parametrize("cfg", SAMPLE_CONFIGS, ids=lambda p: p.stem)
def test_sample_configs_refuse_an_unread_key_before_any_solve(
    tmp_path, monkeypatch, capsys, cfg, section
):
    command = cfg.stem.rsplit("-", 1)[1]
    key = f"{command if section == 'command' else 'system'}.bogus"
    calls = []
    for name in ("sample", "bowen_solve", "collocate", "analytic_bowen_solve"):
        monkeypatch.setattr(ifsdim.cli, name, lambda *a, _name=name, **k: calls.append(_name))
    monkeypatch.setattr(ifsdim.measures.MeasureFamily, "at", lambda *a: calls.append("at"))
    code, report = run(tmp_path, command, cfg.read_text() + f"{key} = 1\n")
    assert code == 2 and report is None
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
    family = ifsdim.config.parse_config(cfg.read_text())["system.family"]
    assert capsys.readouterr().err == f"config error: {key}: not read for system.family = {family}\n"


@pytest.mark.parametrize("cfg", SAMPLE_CONFIGS, ids=lambda p: p.stem)
def test_sample_configs_ignore_another_commands_keys(tmp_path, cfg):
    command = cfg.stem.rsplit("-", 1)[1]
    other = "bowen" if command == "gibbs" else "gibbs"
    code, report = run(tmp_path, command, cfg.read_text() + f"{other}.depth = 3\n")
    assert code == 0 and report["config"][f"{other}.depth"] == "3"


@pytest.mark.parametrize("value,shown", [("inf", "inf"), ("nan", "nan"), ("-Infinity", "-inf")])
def test_non_finite_numbers_exit_2_before_sampling(tmp_path, monkeypatch, capsys, value, shown):
    calls = []
    for name in ("sample", "bowen_solve", "collocate"):
        monkeypatch.setattr(ifsdim.cli, name, lambda *a, _name=name, **k: calls.append(_name))
    text = CANTOR_THIRDS + f"sample.seed = 1\ndimension.r_max = {value}\n"
    code, report = run(tmp_path, "dimension", text)
    assert code == 2 and report is None and calls == []
    assert capsys.readouterr().err == f"config error: dimension.r_max: must be finite, got {shown}\n"


@pytest.mark.parametrize(
    "maps,message",
    [
        ("similitude:0.4:nan", "system: map 0: coefficients must be finite, got (0.4, nan, 0.0, 1.0)"),
        ("similitude:0.4:1e400", "system: map 0: coefficients must be finite, got (0.4, inf, 0.0, 1.0)"),
        ("moebius:1" + "0" * 400, "system.maps: 'moebius:1000"),
    ],
    ids=["nan", "overflow", "huge-q"],
)
def test_non_finite_map_coefficient_exits_2_naming_the_map(tmp_path, capsys, maps, message):
    text = f"system.family = custom\nsystem.maps = {maps}; similitude:0.4:0.6\n"
    code, report = run(tmp_path, "bowen", text)
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_a_non_finite_result_is_written_as_null(tmp_path, capsys):
    # the report held "young_exponent": Infinity, which a strict parser rejects
    text = (
        "system.family = custom\nsystem.maps = similitude:0.4:0; similitude:0.3:0.5\n"
        "system.incidence = 11;10\ndimension.depth = 1\nsample.seed = 1\n"
    )
    code, _ = run(tmp_path, "dimension", text)
    assert code == 0
    report = json.loads((tmp_path / "dimension-report.json").read_text(), parse_constant=_refuse)
    assert report["results"]["young_exponent"] is None
    assert "young_exponent = inf\n" in capsys.readouterr().out


def test_report_bodies_write_every_non_finite_float_as_null():
    report = ifsdim.cli.Report(
        "bowen", "0" * 64, {}, None, {"h": [math.inf, {"gap": math.nan}], "n": 2}, {"w": -math.inf}
    )
    for text in (report.canonical_body(), report.to_json()):
        blob = json.loads(text, parse_constant=_refuse)
        assert blob["results"] == {"h": [None, {"gap": None}], "n": 2}
        assert blob["diagnostics"] == {"w": None}
    assert report.results["h"][0] == math.inf  # stdout still prints the value


def test_json_format_embeds_tables_without_csv_files(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("system.family = golden\nsystem.size = 3\n")
    assert main(
        ["gibbs", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]
    ) == 0
    report = json.loads((tmp_path / "gibbs-report.json").read_text())
    assert "masses" in report["tables"]
    assert not list(tmp_path.glob("*.csv"))


def test_gallery_list_names_every_family(capsys):
    assert main(["gallery-list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "alternating-collapse",
        "cantor-mass-stages",
        "lattice-comb",
        "atom-vs-uniform",
        "leaking-block",
        "staircase",
    ):
        assert name in out
