"""``tools/report_digest.py``, the tool that tells whether two checkouts
write bit-identical reports.

A smoke test runs one case per workload, the graph-directed cases, the
deep gibbs table, the gibbs far from the root, the two scan ladders and the two gallery stages twice in
one process, and requires the same digests both times.  The frozen test
reruns ``--cases 20 --seeds 1`` against ``tests/oracles/report_digests.txt``
and names every case whose line moved.  Exit codes and the rounded results
are compared on every host; the exact digests only on the host the file
names, since another CPU target or numpy version can move the last bits.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
FROZEN = Path(__file__).resolve().parent / "oracles" / "report_digests.txt"
REGENERATE = "python3 tools/report_digest.py --cases 20 --seeds 1 > tests/oracles/report_digests.txt"


@pytest.fixture
def tool(monkeypatch):
    # the tool sets the BLAS thread count and its import path on import;
    # these are put back afterwards, as is any other module named inputs
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "inputs", raising=False)
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("inputs", None)  # the benchmark's module the tool imports


def test_report_digest_runs_every_case_and_repeats_itself(tool, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(TOOL), "--cases", "1", "--seeds", "1"])
    runs = []
    for _ in range(2):
        tool.main()
        runs.append(capsys.readouterr().out.splitlines())
    # the host line, then the six configs, one timed case of each of the
    # three workloads, bowen, gibbs and dimension on six graph-directed
    # systems, of which only the reducible one is refused, dimension at
    # depth 1 on two of them, one gibbs table of more than one format block,
    # one gibbs far from the Bowen root, two scan ladders, borderline's irregular, and a gallery stage with the
    # flatness detector on and off
    host, *lines = runs[0]
    assert host == f"# {tool.host()}"
    assert len(lines) == 35
    codes = {line.split()[0] + " " + line.split()[1]: line.split()[2] for line in lines}
    assert [codes.pop(f"incidence:reducible {command}") for command in ("bowen", "gibbs", "dimension")] == ["2"] * 3
    assert codes.pop("incidence:parity gibbs") == "0"
    assert codes.pop("deep-table gibbs") == "0"
    assert codes.pop("far-exponent gibbs") == "0"
    assert codes.pop("ladder:continued-fraction scan") == "0"
    assert codes.pop("ladder:borderline scan") == "4"
    assert codes.pop("stages:flatness-on dimension") == codes.pop("stages:flatness-off dimension") == "0"
    assert codes.pop("depth-one:fibonacci dimension") == codes.pop("depth-one:moebius-cycle dimension") == "0"
    assert list(codes.values()) == ["0"] * 23
    assert runs[1] == runs[0]


def test_reports_match_the_frozen_digests(tool):
    host, *got = tool.lines(20, [1])
    frozen_host, *want = FROZEN.read_text().splitlines()
    # label, command, exit code, exact digest, rounded-results digest
    got, want = ([line.split() for line in lines] for lines in (got, want))
    assert [g[:2] for g in got] == [w[:2] for w in want], f"the case list moved; regenerate with {REGENERATE}"
    moved = [" ".join(g[:2]) for g, w in zip(got, want) if (g[2], g[4]) != (w[2], w[4])]
    assert moved == [], f"exit codes or results moved; if on purpose, regenerate with {REGENERATE}"
    if host == frozen_host:
        moved = [" ".join(g[:2]) for g, w in zip(got, want) if g[3] != w[3]]
        assert moved == [], f"report bytes moved; if on purpose, regenerate with {REGENERATE}"
