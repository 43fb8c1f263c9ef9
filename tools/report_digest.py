"""Digest the output of a fixed set of ifsdim commands, to tell whether two
checkouts write bit-identical reports.

Runs ``ifsdim.cli.main`` in-process on the six ``configs/*.cfg`` (the
command is the last dash-separated part of the file name), on the first
``--cases`` timed inputs of each benchmark workload (``perfbench/inputs.py``)
for each of ``--seeds``, on ``bowen``, ``gibbs`` and ``dimension`` of six
graph-directed systems (``INCIDENCE_SYSTEMS``), since every benchmark input
is a full shift, on ``dimension`` of two of them at depth 1
(``DEPTH_ONE``), where the sampler reads level 2 off the incidence, on one
``gibbs`` whose masses table spans more than one of the row blocks ``cli``
formats a table in (``DEEP_TABLE``), on one ``gibbs`` away from the
Bowen root, where a negative discretisation eigenvalue of the collocation
outgrows the Perron root (``FAR_EXPONENT``), on ``scan``
ladders of a Möbius family and of an irregular one (``LADDERS``), which no
config or benchmark input scans, and on ``dimension`` of one
``gallery:cantor-mass-stages`` member with the flatness detector on and
off (``STAGES``), the one reader of ``measures.mass_distribution_sequence``.

The first line names the host (``host``): numpy's version, the machine
and the CPU targets numpy dispatches to.  Then it prints one line per
command: its label, the command, its exit code, a sha256 over the exit
code, stdout and stderr (the temporary directory masked), the report
without its ``timestamp``, and every CSV's name and bytes, and a second
sha256 over the exit code and the report's ``results`` with every float
rounded to 12 significant digits (``_rounded``).  The first digest can
move with the host's SIMD loops; the second should not.

    python3 tools/report_digest.py [--cases 60] [--seeds 1,2] > digest.txt

Run it from each checkout and compare the two files with ``diff``.
``tests/oracles/report_digests.txt`` holds the output for
``--cases 20 --seeds 1``, which ``tests/test_report_digest.py`` checks.
"""

from __future__ import annotations

import os

# before numpy is imported: BLAS sums depend on the thread count
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import numpy as np  # noqa: E402
from ifsdim import cli  # noqa: E402

# name: (system.maps, system.incidence)
INCIDENCE_SYSTEMS = {
    "fibonacci": ("similitude:0.4:0; similitude:0.3:0.5", "11;10"),
    "moebius-cycle": ("moebius:1; moebius:2; moebius:3", "011;101;110"),
    "moebius-fibonacci": ("moebius:2; moebius:3", "11;10"),
    # 0 and 1 alternate: periodic, yet irreducible
    "parity": ("similitude:0.4:0; similitude:0.3:0.5", "01;10"),
    # primitive with exponent 17: rho^5 = rho + 1
    "wielandt": (
        "; ".join(f"similitude:0.15:{e / 5}" for e in range(5)),
        "01000;00100;00010;00001;11000",
    ),
    # 1 never reaches 0: every command refuses it in the plan
    "reducible": ("similitude:0.4:0; similitude:0.4:0.6", "11;01"),
}
# one stored level: every sampled digit after the first is a level-2 child
DEPTH_ONE = ("fibonacci", "moebius-cycle")
# 3^9 = 19,683 masses rows
DEEP_TABLE = "system.family = continued-fraction\nsystem.size = 3\ngibbs.depth = 9\n"
# CF{1,2} at s = 6: lambda = 0.0031, the 32-node artefact -0.0115
FAR_EXPONENT = "system.family = continued-fraction\nsystem.size = 2\ngibbs.exponent = 6\n"
# family: scan.levels; Möbius levels at their own default depths, and an
# irregular limit (exit 4)
LADDERS = {"continued-fraction": "2:16", "borderline": "2:8"}
# 2^8 pieces of the middle-thirds mass distribution
STAGES = "system.family = gallery:cantor-mass-stages\ndimension.member = 8\nsample.count = 2000\nsample.seed = 1\n"


def _graph_directed(name: str, depth: int) -> str:
    """The config of ``INCIDENCE_SYSTEMS[name]`` at ``dimension.depth``."""
    maps, rows = INCIDENCE_SYSTEMS[name]
    return (
        f"system.family = custom\nsystem.maps = {maps}\nsystem.incidence = {rows}\n"
        f"dimension.depth = {depth}\nsample.count = 2000\nsample.seed = 1\n"
    )


def host() -> str:
    """numpy's version, the machine and the CPU targets numpy dispatches
    to on it."""
    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    targets = [t for t in umath.__cpu_baseline__ + umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__} {platform.machine()} {' '.join(targets)}"


def _rounded(value):
    """``value`` with every float in it rounded to 12 significant digits,
    and those within 1e-12 of zero read as zero: a residual at a root is
    roundoff, and its bits differ between SIMD loops."""
    if isinstance(value, float):
        return 0.0 if abs(value) < 1e-12 else float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def digest(command: str, config: str) -> tuple[str, str, str]:
    """Run one command on ``config`` text; return its exit code, the sha256
    hex of its output and that of its exit code and rounded results."""
    h, stable = hashlib.sha256(), hashlib.sha256()

    def part(name: str, data: bytes) -> None:
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg, out = work / "run.cfg", work / "out"
        cfg.write_text(config)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("always")  # each command shows its own warnings
            try:
                code = str(cli.main([command, "--config", str(cfg), "--out", str(out)]))
            except Exception as err:  # a crash is an outcome to compare too
                code = f"raised:{err!r}"
        part("code", code.encode())
        stable.update(code.encode())
        part("stdout", stdout.getvalue().replace(tmp, "<tmp>").encode())
        part("stderr", stderr.getvalue().replace(tmp, "<tmp>").encode())
        report = out / f"{command}-report.json"
        if report.exists():
            body = json.loads(report.read_text())
            body.pop("timestamp", None)
            part("report", json.dumps(body, sort_keys=True).encode())
            stable.update(json.dumps(_rounded(body.get("results")), sort_keys=True).encode())
        for table in sorted(out.glob("*.csv")):
            part(table.name, table.read_bytes())
    return code, h.hexdigest(), stable.hexdigest()


def lines(cases: int, seeds: list[int]):
    """The host line, then one line per command, as ``main`` prints them."""
    yield f"# {host()}"
    runs = [
        (path.name, path.stem.rsplit("-", 1)[-1], path.read_text())
        for path in sorted((ROOT / "configs").glob("*.cfg"))
    ]
    for seed in seeds:
        for workload in inputs.WORKLOADS:
            timed = inputs.timed(workload, seed)[:cases]
            runs += [(f"{workload}:{seed}:{i}", c.command, c.config) for i, c in enumerate(timed)]
    for name in INCIDENCE_SYSTEMS:
        config = _graph_directed(name, 6)
        runs += [(f"incidence:{name}", command, config) for command in ("bowen", "gibbs", "dimension")]
    runs += [(f"depth-one:{name}", "dimension", _graph_directed(name, 1)) for name in DEPTH_ONE]
    runs.append(("deep-table", "gibbs", DEEP_TABLE))
    runs.append(("far-exponent", "gibbs", FAR_EXPONENT))
    for name, levels in LADDERS.items():
        runs.append((f"ladder:{name}", "scan", f"system.family = {name}\nscan.levels = {levels}\n"))
    for flatness in ("on", "off"):
        runs.append((f"stages:flatness-{flatness}", "dimension", f"{STAGES}dimension.flatness = {flatness}\n"))
    for label, command, config in runs:
        yield " ".join((label, command) + digest(command, config))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=60, help="timed inputs per workload and seed")
    parser.add_argument("--seeds", default="1,2", help="comma-separated benchmark seeds")
    args = parser.parse_args()
    for line in lines(args.cases, [int(s) for s in args.seeds.split(",")]):
        print(line, flush=True)


if __name__ == "__main__":
    main()
