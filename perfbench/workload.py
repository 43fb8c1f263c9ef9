"""One workload process: set up, then run ifsdim commands through cli.main.

Started by run.py, one process per role:

* ``setup``: interpreter start, ``import ifsdim``, input generation,
  reference loading and the warm-up commands; prints the monotonic time
  elapsed since the parent's ``--t0`` and exits.
* ``run``: the same set-up, then the timed loop: a closed loop of one
  ``cli.main`` call at a time until ``--seconds`` have passed (or
  ``--limit`` commands ran), each output checked.  With ``--pauses`` it
  idles that many times, evenly spread, until a line arrives on stdin.
* ``trace``: as ``run``, with every public function wrapped in spans.

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402


def _import_program():
    import ifsdim
    from ifsdim import cli

    if Path(ifsdim.__file__).resolve().parent != ROOT / "src" / "ifsdim":
        raise SystemExit(f"ifsdim imported from {ifsdim.__file__}, not from this checkout")
    return cli


def _call(cli, case, index: int, work: Path) -> tuple[float, int, Path]:
    """Write the case's config, time one cli.main call, return its outcome."""
    cfg = work / f"{index}.cfg"
    cfg.write_text(case.config)
    out = work / f"out{index}"
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main([case.command, "--config", str(cfg), "--out", str(out)])
    except Exception as err:  # a crash counts as a failed command, the run goes on
        print(f"command {index} raised {err!r}", file=sys.stderr)
        code = -1
    return time.perf_counter() - t0, code, out


def _record(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--limit", type=int, default=None, help="stop after this many commands")
    parser.add_argument("--pauses", type=int, default=0, help="times to wait for stdin mid-run")
    parser.add_argument("--t0", type=float, default=None, help="parent's time.monotonic() at spawn")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    cli = _import_program()
    warm = inputs.warmup(args.workload)
    cases = inputs.timed(args.workload, args.seed)
    refs = oracle.load()
    spans = None
    if args.role == "trace":
        spans = tracer.Tracer()
        tracer.install(spans)
    args.work.mkdir(parents=True, exist_ok=True)
    for i, case in enumerate(warm):
        _, code, out = _call(cli, case, -1 - i, args.work)
        if code != 0:
            raise SystemExit(f"warm-up command {i} exited {code}")
        shutil.rmtree(out, ignore_errors=True)
    if args.role == "setup":
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return

    times: list[float] = []
    outcomes: list[checks.Outcome] = []
    failures: list[str] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    pauses = [start + args.seconds * (k + 1) / (args.pauses + 1) for k in range(args.pauses)]
    for i, case in enumerate(cases):
        if pauses and time.perf_counter() >= pauses[0]:
            # run.py takes a set-up sample while this process idles; the
            # pause does not count against the run's time
            idle = time.perf_counter()
            print("pause", flush=True)
            sys.stdin.readline()
            idle = time.perf_counter() - idle
            deadline += idle
            pauses = [t + idle for t in pauses[1:]]
        if len(times) == args.limit or (args.limit is None and time.perf_counter() >= deadline):
            break
        if spans is not None:
            spans.cmd = i
        dt, code, out = _call(cli, case, i, args.work)
        outcome = checks.check(case, code, out, checks.reference(case, refs))
        shutil.rmtree(out, ignore_errors=True)
        times.append(dt)
        outcomes.append(outcome)
        if not outcome.ok:
            failures.append(f"{case.key}: {outcome.reason}")
    else:
        if args.limit is None or len(times) < args.limit:
            print("every generated case ran before the time was up", file=sys.stderr)

    result = {
        "times": times,
        "abs_err": max((o.error for o in outcomes if not math.isnan(o.error)), default=math.nan),
        "ok_frac": checks.ok_frac(outcomes),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": _record(args),
    }
    if spans is not None:
        result["layers"] = tracer.summarise(spans.spans, len(times))
        if args.spans is not None:
            spans.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
