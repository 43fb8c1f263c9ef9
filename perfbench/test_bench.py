"""The benchmark's own tests: inputs, checks, tracer and the frozen oracle.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
from ifsdim import cli  # noqa: E402
from ifsdim.config import parse_config  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert inputs.timed(workload, 7) == inputs.timed(workload, 7)
    assert inputs.timed(workload, 7) != inputs.timed(workload, 8)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_no_input_repeats_within_a_run(workload):
    keys = [c.key for c in inputs.warmup(workload) + inputs.timed(workload, 3)]
    assert len(keys) == len(set(keys))
    # nor does a timed command share its system with a warm-up one
    systems = {c.key[0] for c in inputs.timed(workload, 3)}
    assert not systems & {c.key[0] for c in inputs.warmup(workload)}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_cases_are_config_files_with_references(workload):
    refs = oracle.load()
    for case in inputs.timed(workload, 5):
        raw = parse_config(case.config)
        assert raw["system.family"] in ("continued-fraction", "custom", "cantor")
        assert math.isfinite(checks.reference(case, refs))


def test_panel_opens_every_run():
    panel = {("cf", 2), ("cf", 3), ("cf", 4), ("cf", 5)}
    for seed in (1, 2):
        head = inputs.timed("word-pressure", seed)[:7]
        assert {c.key[0] for c in head} == panel
        assert inputs.timed("probes", seed)[0].key[0] == ("cf", 2)


def test_closed_form_root_matches_the_ternary_dust():
    assert checks.closed_form_root((1 / 3, 1 / 3)) == pytest.approx(math.log(2) / math.log(3), abs=1e-15)


def _run(case, tmp_path: Path) -> tuple[int, Path]:
    cfg = tmp_path / "case.cfg"
    cfg.write_text(case.config)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([case.command, "--config", str(cfg), "--out", str(out)])
    return code, out


def test_ok_frac_drops_on_a_perturbed_result_or_a_failed_exit(tmp_path):
    refs = oracle.load()
    case = inputs._bowen((1, 2), 10)
    ref = checks.reference(case, refs)
    code, out = _run(case, tmp_path)
    good = checks.check(case, code, out, ref)
    assert good.ok and good.error < checks.BOWEN_TOL
    assert checks.ok_frac([good, good]) == 1.0

    exited = checks.check(case, 3, out, ref)
    assert not exited.ok

    path = out / "bowen-report.json"
    report = json.loads(path.read_text())
    report["results"]["h"] += 2 * checks.BOWEN_TOL
    report["results"]["bracket_hi"] += 2 * checks.BOWEN_TOL
    path.write_text(json.dumps(report))
    perturbed = checks.check(case, 0, out, ref)
    assert not perturbed.ok and perturbed.error > checks.BOWEN_TOL
    assert checks.ok_frac([good, perturbed]) == 0.5
    assert checks.ok_frac([good, exited, perturbed]) == pytest.approx(1 / 3)

    path.write_text("{not json")
    assert not checks.check(case, 0, out, ref).ok


def test_slope_outside_its_band_fails(tmp_path):
    case = inputs._dimension(
        ("cantor", 0.3, 0.3), "system.family = cantor\nsystem.ratios = 0.3, 0.3\n", 12, 2_000, 9, ratios=(0.3, 0.3)
    )
    ref = checks.reference(case, {})
    code, out = _run(case, tmp_path)
    assert checks.check(case, code, out, ref).ok
    path = out / "dimension-report.json"
    report = json.loads(path.read_text())
    report["results"]["slope"] = ref + 2 * checks.slope_band(case.samples, report["results"]["slope_stderr"])
    path.write_text(json.dumps(report))
    assert not checks.check(case, 0, out, ref).ok


def test_self_time_subtracts_children():
    spans = [
        ["pressure.bowen_solve", 0.0, 10.0, -1, 0, {"evals": 35}],
        ["pressure.pressure", 1.0, 4.0, 0, 0, None],
        ["systems.level_geometry", 1.5, 3.5, 1, 0, {"words": 8, "miss": True, "peak": 80}],
        ["pressure.pressure", 5.0, 6.0, 0, 0, None],
        ["systems.level_geometry", 5.0, 5.5, 3, 0, {"words": 8, "miss": False, "peak": 0}],
    ]
    layers = tracer.summarise(spans, commands=1)
    assert layers["pressure.self_s"][0] == pytest.approx(10.0 - 2.0 - 0.5)
    assert layers["systems.level_geometry_s"][0] == pytest.approx(2.5)
    assert layers["systems.geometry_cache_hit_ratio"][0] == 0.5
    assert layers["systems.peak_bytes_per_word"][0] == 10.0
    assert layers["pressure.evals"][0] == 35


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_process_sees_every_layer_it_uses(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--role", "trace", "--workload", workload,
         "--seed", "1", "--limit", "2", "--work", str(tmp_path / "w"), "--spans", str(tmp_path / "s.tsv")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = {name: value for name, (value, _) in result["layers"].items()}
    assert not result["failures"] and len(result["times"]) == 2
    assert layers["cli.main_s"] > 0 and layers["cli.write_s"] > 0 and layers["cli.report_bytes"] > 0
    if workload == "word-pressure":
        assert layers["systems.level_geometry_calls"] > 30 and layers["transfer.builds"] == 0
        assert layers["systems.peak_bytes_per_word"] > 0
    if workload == "operator":
        assert layers["systems.level_geometry_calls"] == 0 and layers["transfer.builds"] > 30
        assert layers["systems.word_image_calls"] > 0 and layers["symbolic.words"] > 0
    if workload == "probes":
        assert layers["measures.points"] >= 20_000 and layers["dimension.density_cells"] > 0
    assert (tmp_path / "s.tsv").read_text().count("cli.main") >= 2


def test_oracle_reproduces_the_frozen_dimension():
    assert oracle.check() < 1e-9
