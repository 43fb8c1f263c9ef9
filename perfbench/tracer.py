"""Spans around ifsdim's public functions, recorded from outside the program.

``install`` wraps every public function of the traced layers and rebinds
each wrapper at every site that holds the function: each ifsdim module
binds imported names directly (``level_geometry`` lives in
``ifsdim.pressure``, ``ifsdim.measures`` and ``ifsdim.dimension`` too), and
``cli.COMMANDS`` holds the subcommands, so patching only the defining
module would miss calls.  A span records its name, start, end, parent span
and command id, plus counters read off the call's result; spans stay in
memory until ``write``.

``level_geometry`` calls run under tracemalloc, which also sees numpy's
buffers, to give the transient peak bytes per word of each cache miss.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

LAYERS = ("symbolic", "systems", "pressure", "transfer", "measures", "dimension", "cli")
ROOT_FINDERS = ("pressure.bowen_solve", "pressure.analytic_bowen_solve", "transfer.operator_bowen_solve")

# span fields
NAME, START, END, PARENT, CMD, EXTRA = range(6)


def _observe(name: str, result) -> dict | None:
    """Work counters read off a traced call's result."""
    if name == "transfer.build_operator":
        m = result.matrix
        return {"states": len(result), "nonzeros": int((m != 0).sum()), "bytes": m.nbytes}
    if name == "transfer.eigenmeasure":
        return {"iterations": result.iterations}
    if name in ROOT_FINDERS:
        return {"evals": result.iterations}
    if name == "measures.sample":
        return {"points": len(result)}
    if name == "dimension.density_field":
        return {"cells": result.points.size * result.radii.size}
    if name == "cli.Report.write":
        return {"bytes": sum(p.stat().st_size for p in result)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cmd = -1  # command id stamped on new spans; -1 during warm-up

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.cmd, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn):
        if name == "symbolic.enumerate_admissible":
            return self._wrap_stream(name, fn)
        if name == "systems.level_geometry":
            return self._wrap_geometry(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            span[EXTRA] = _observe(name, result)
            return result

        return traced

    def _wrap_geometry(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses
            tracemalloc.start()
            span = self._open(name)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            miss = fn.cache_info().misses > misses
            span[EXTRA] = {"words": result.count, "miss": miss, "peak": peak if miss else 0}
            return result

        traced.cache_info = fn.cache_info
        return traced

    def _wrap_stream(self, name: str, fn):
        """A generator's work happens as it is consumed: the span covers the
        call, and ``busy``/``words`` accumulate over every ``next``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span[START] = time.perf_counter()
            try:
                stream = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            extra = span[EXTRA] = {"busy": 0.0, "words": 0}
            return _timed_stream(stream, extra)

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tcmd\tname\tstart\tend\textra\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[CMD]}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[EXTRA] or ''}\n")


def _timed_stream(stream, extra: dict):
    while True:
        t0 = time.perf_counter()
        try:
            item = next(stream)
        except StopIteration:
            extra["busy"] += time.perf_counter() - t0
            return
        extra["busy"] += time.perf_counter() - t0
        extra["words"] += 1
        yield item


def install(tracer: Tracer) -> None:
    """Wrap the traced layers' public functions (and ``cli.Report.write``)
    at every binding site in the loaded ifsdim modules."""
    modules = [m for n, m in sys.modules.items() if n == "ifsdim" or n.startswith("ifsdim.")]
    for layer in LAYERS:
        mod = sys.modules[f"ifsdim.{layer}"]
        for public in mod.__all__:
            fn = getattr(mod, public)
            if isinstance(fn, type) or not callable(fn) or getattr(fn, "__module__", None) != mod.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{public}", fn)
            for site in modules:
                for attr, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, attr, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                value[k] = wrapper
    report = sys.modules["ifsdim.cli"].Report
    report.write = tracer.wrap("cli.Report.write", report.write)


def _root_finding(name: str) -> bool:
    """The pressure layer plus the operator root finder, which bisects with
    the pressure layer's ``_bisect``: their self time is the root finding
    outside geometry, operator builds and eigen-solves."""
    return name.startswith("pressure.") or name == "transfer.operator_bowen_solve"


def _self_times(spans: list[list]) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarise(spans: list[list], commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of timed commands (cmd >= 0).

    Times and counts are per command unless named otherwise; per-call
    figures (states, iterations, words, bytes per word) are means over the
    calls that produce them.
    """
    self_time = _self_times(spans)
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[CMD] >= 0:
            by.setdefault(s[NAME], []).append(i)

    def total(name: str) -> float:
        return sum(spans[i][END] - spans[i][START] for i in by.get(name, ()))

    def count(name: str) -> int:
        return len(by.get(name, ()))

    def extras(name: str, key: str) -> list:
        return [spans[i][EXTRA][key] for i in by.get(name, ()) if spans[i][EXTRA]]

    def mean(values: list) -> float:
        return float(statistics.fmean(values)) if values else 0.0

    n = max(commands, 1)
    geometry = [spans[i][EXTRA] for i in by.get("systems.level_geometry", ()) if spans[i][EXTRA]]
    built = [g for g in geometry if g["miss"]]
    solves = [i for name in ROOT_FINDERS for i in by.get(name, ()) if spans[i][EXTRA]]
    return {
        "systems.level_geometry_s": (total("systems.level_geometry") / n, "s"),
        "systems.level_geometry_calls": (count("systems.level_geometry") / n, "count"),
        "systems.level_words": (mean([g["words"] for g in built]), "count"),
        "systems.peak_bytes_per_word": (
            statistics.median([g["peak"] / g["words"] for g in built]) if built else 0.0,
            "B/word",
        ),
        "systems.geometry_cache_hit_ratio": (1.0 - len(built) / len(geometry) if geometry else 0.0, "ratio"),
        "systems.word_image_s": (total("systems.word_image") / n, "s"),
        "systems.word_image_calls": (count("systems.word_image") / n, "count"),
        "symbolic.enumerate_s": (sum(extras("symbolic.enumerate_admissible", "busy")) / n, "s"),
        "symbolic.words": (sum(extras("symbolic.enumerate_admissible", "words")) / n, "count"),
        "pressure.evals": (mean([spans[i][EXTRA]["evals"] for i in solves]), "count"),
        "pressure.self_s": (sum(self_time[i] for name in by if _root_finding(name) for i in by[name]) / n, "s"),
        "transfer.build_s": (total("transfer.build_operator") / n, "s"),
        "transfer.builds": (count("transfer.build_operator") / n, "count"),
        "transfer.states": (mean(extras("transfer.build_operator", "states")), "count"),
        "transfer.nonzeros": (mean(extras("transfer.build_operator", "nonzeros")), "count"),
        "transfer.matrix_bytes": (mean(extras("transfer.build_operator", "bytes")), "B"),
        "transfer.eigen_s": (total("transfer.eigenmeasure") / n, "s"),
        "transfer.power_iters": (mean(extras("transfer.eigenmeasure", "iterations")), "count"),
        "measures.cylinder_s": (total("measures.conformal_cylinder_measure") / n, "s"),
        "measures.sample_s": (total("measures.sample") / n, "s"),
        "measures.points": (sum(extras("measures.sample", "points")) / n, "count"),
        "dimension.correlation_s": (total("dimension.correlation_curve") / n, "s"),
        "dimension.density_s": (total("dimension.density_field") / n, "s"),
        "dimension.density_cells": (sum(extras("dimension.density_field", "cells")) / n, "count"),
        "cli.main_s": (total("cli.main") / n, "s"),
        "cli.write_s": (total("cli.Report.write") / n, "s"),
        "cli.report_bytes": (sum(extras("cli.Report.write", "bytes")) / n, "B"),
    }
