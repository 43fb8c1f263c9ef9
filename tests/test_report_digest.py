"""Smoke test of ``tools/report_digest.py``, the tool that tells whether two
checkouts write bit-identical reports: one case per workload, the
graph-directed cases, the deep gibbs table and the two scan ladders, run
twice in one process, must digest the same both times."""

import importlib.util
import os
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"


def test_report_digest_runs_every_case_and_repeats_itself(monkeypatch, capsys):
    # the tool sets the BLAS thread count and its import path on import;
    # these are put back afterwards, as is any other module named inputs
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [str(TOOL), "--cases", "1", "--seeds", "1"])
    monkeypatch.delitem(sys.modules, "inputs", raising=False)
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    runs = []
    try:
        spec.loader.exec_module(tool)
        for _ in range(2):
            tool.main()
            runs.append(capsys.readouterr().out.splitlines())
    finally:
        sys.modules.pop("inputs", None)  # the benchmark's module the tool imports
    # the six configs, one timed case of each of the three workloads,
    # bowen, gibbs and dimension on six graph-directed systems, of which
    # only the reducible one is refused, one gibbs table of more than
    # one format block, and two scan ladders, borderline's irregular
    assert len(runs[0]) == 30
    codes = {line.split()[0] + " " + line.split()[1]: line.split()[2] for line in runs[0]}
    assert [codes.pop(f"incidence:reducible {command}") for command in ("bowen", "gibbs", "dimension")] == ["2"] * 3
    assert codes.pop("incidence:parity gibbs") == "0"
    assert codes.pop("deep-table gibbs") == "0"
    assert codes.pop("ladder:continued-fraction scan") == "0"
    assert codes.pop("ladder:borderline scan") == "4"
    assert list(codes.values()) == ["0"] * 23
    assert runs[1] == runs[0]
