"""Benchmark for ifsdim: closed-loop cli.main commands on seeded inputs.

    python3 perfbench/run.py --workload word-pressure --seed 1 --seconds 36 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics: ``setup_s`` (median of fresh-interpreter set-ups spread over the run),
``op_s.p50``/``op_s.p90`` over the timed commands, ``peak_rss_mb``,
``abs_err`` and ``ok_frac``.  With ``--trace 1`` it prints the per-layer
metrics of a traced process plus ``trace.overhead_s`` against an untraced
process that runs the same commands.  The last stdout line is one JSON
object; a run record goes to ``.perfbench/`` as well.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("word-pressure", "operator", "probes")
SETUP_PROBES = 9  # fresh-interpreter set-ups per run, spread over it; setup_s is their median
TRACE_SHARE = 0.6  # share of --seconds the traced process runs for
CHILD_TIMEOUT = 150.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    # one BLAS thread: never above nproc, and CPU time equals wall time
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _command(role: str, args, work: Path, **extra) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--role", role, "--workload", args.workload, "--seed", str(args.seed),
        "--work", str(work),
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    return cmd


def _last_json(role: str, code: int, stdout: str) -> dict:
    if code != 0:
        raise SystemExit(f"{role} process exited {code}")
    return json.loads(stdout.strip().splitlines()[-1])


def _child(role: str, args, work: Path, **extra) -> dict:
    cmd = _command(role, args, work, **extra)
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    return _last_json(role, proc.returncode, proc.stdout)


def _run_with_setups(args, work: Path) -> tuple[dict, list[float]]:
    """The timed run, pausing SETUP_PROBES - 1 times for a fresh-interpreter
    set-up each, so the set-up samples span the same stretch of machine
    time as the commands do."""
    setups = [_child("setup", args, work)["setup_s"]]
    cmd = _command("run", args, work, seconds=args.seconds, pauses=SETUP_PROBES - 1)
    with subprocess.Popen(cmd, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        try:
            lines = []
            for line in proc.stdout:
                if line == "pause\n":
                    setups.append(_child("setup", args, work)["setup_s"])
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                else:
                    lines.append(line)
            proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return _last_json("run", proc.returncode, "".join(lines)), setups


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(args, work: Path) -> tuple[dict, dict]:
    _child("setup", args, work)  # primes the bytecode and file caches; not counted
    run, setups = _run_with_setups(args, work)
    times = run["times"]
    p90 = _percentile(times, 90)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (p90, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
        "abs_err": (run["abs_err"], "1"),
        "ok_frac": (run["ok_frac"], "ratio"),
    }
    run["record"].update(
        setup_probes=len(setups), setup_s_samples=setups,
        timed_commands=len(times), beyond_p90=sum(t > p90 for t in times),
    )
    return metrics, run


def _traced(args, work: Path) -> tuple[dict, dict]:
    spans = ROOT / ".perfbench" / f"spans-{args.workload}.tsv"
    traced = _child("trace", args, work, seconds=args.seconds * TRACE_SHARE, spans=spans)
    plain = _child("run", args, work, limit=len(traced["times"]))
    metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
    overhead = statistics.fmean(traced["times"]) - statistics.fmean(plain["times"])
    metrics["trace.overhead_s"] = (overhead, "s")
    traced["record"].update(
        timed_commands=len(traced["times"]), untraced_commands=len(plain["times"]), spans_file=str(spans.relative_to(ROOT)),
    )
    return metrics, traced


def _terminate(signum, frame):
    # unwind, so open subprocess handles kill and reap their children
    raise SystemExit(128 + signum)


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ifsdim" / "__init__.py").is_file():
        raise SystemExit(f"no ifsdim sources under {ROOT / 'src'}; run from a full checkout")

    out = ROOT / ".perfbench"
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, run = (_traced if args.trace else _end_to_end)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = dict(run["record"], trace=args.trace, seconds=args.seconds, failures=run["failures"])
    out.mkdir(exist_ok=True)
    (out / f"record-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for key, value in record.items():
        if key not in ("failures", "setup_s_samples"):
            print(f"# {key}: {value}")
    for reason in run["failures"][:10]:
        print(f"# failed {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    attempted = record["timed_commands"]
    failed = len(run["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
