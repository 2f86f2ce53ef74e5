"""Spans around the program's public calls, and the per-layer metrics
they give.

A ``Tracer`` wraps each function where the calling module looks it up
(``stentsim.cli.run_simulation`` and ``stentsim.analysis.run_simulation``
are two lookups of one function), records a span with its parent for
every call, and keeps the spans in memory until the benchmark writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


def _run_counts(args, rec):
    echo = rec.config
    steps = round(echo["t_end"] / echo["dt_m"]) if echo["t_end"] > 0 else 0
    return {"steps": steps, "records": len(rec.monitors.t)}


def _csv_counts(args, paths):
    rec = args[0]
    rows = sum(len(s.state.y0) + len(s.state.y1) + len(s.state.y2)
               for s in rec.snapshots)
    rows += len(rec.interface.t) + len(rec.monitors.t)
    return {"rows": rows, "bytes": sum(Path(p).stat().st_size for p in paths)}


def _svg_counts(args, path):
    return {"points": sum(len(t) for _, t, _ in args[0])}


# (module, attribute, span name, counter) for every wrapped lookup
TARGETS = (
    ("cli", "parse_config", "config.parse_config", None),
    ("cli", "build_operators", "fem.build_operators", None),
    ("cli", "run_simulation", "stepping.run_simulation", _run_counts),
    ("cli", "run_fd", "fdcheck.run_fd", _run_counts),
    ("cli", "make_reference", "analysis.make_reference", None),
    ("cli", "compare_algorithms", "analysis.compare_algorithms", None),
    ("cli", "compare_records", "analysis.compare_records", None),
    ("cli", "write_record_csv", "output.write_record_csv", _csv_counts),
    ("cli", "write_table_csv", "output.write_table_csv", None),
    ("cli", "emit_svg_plot", "output.emit_svg_plot", _svg_counts),
    ("analysis", "build_operators", "fem.build_operators", None),
    ("analysis", "run_simulation", "stepping.run_simulation", _run_counts),
    ("analysis", "compare_records", "analysis.compare_records", None),
)


class Tracer:
    """Records spans; with keep_results it also keeps each call's result
    so the checks can read the records a command computed."""

    def __init__(self, keep_results: bool = False):
        self.spans: list[Span] = []
        self.keep_results = keep_results
        self.results: list = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, count=None, **kwargs):
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self.results.append(None)
        self._stack.append(idx)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if count is not None:
            span.attrs.update(count(args, result))
        if self.keep_results:
            self.results[idx] = result
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)
        return traced

    def results_of(self, name) -> list:
        return [r for s, r in zip(self.spans, self.results) if s.name == name]

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every TARGETS lookup for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name, count in TARGETS:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, count))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_time(self, idx: int) -> float:
        """Span duration minus the part of it its child spans cover."""
        span = self.spans[idx]
        kids = sorted((max(s.start, span.start), min(s.end, span.end))
                      for s in self.spans if s.parent == idx)
        covered, reach = 0.0, span.start
        for a, b in kids:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        return (span.end - span.start) - covered

    def dump(self, path, round_index: int):
        with Path(path).open("a") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"round": round_index, "id": i,
                                     "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     **s.attrs}) + "\n")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced round of a workload."""
    def select(name):
        return [i for i, s in enumerate(tr.spans) if s.name == name]

    def total(name):
        return sum(tr.spans[i].end - tr.spans[i].start for i in select(name))

    def own(name):
        return sum(tr.self_time(i) for i in select(name))

    def attr(name, key):
        return sum(tr.spans[i].attrs[key] for i in select(name))

    fd_s, fd_steps = total("fdcheck.run_fd"), attr("fdcheck.run_fd", "steps")
    return {
        "config.parse_config_ms": 1e3 * total("config.parse_config"),
        "fem.build_operators_us": 1e6 * total("fem.build_operators"),
        "stepping.run_simulation_s": own("stepping.run_simulation"),
        "stepping.macro_steps": attr("stepping.run_simulation", "steps"),
        "stepping.monitor_records": attr("stepping.run_simulation", "records"),
        "fdcheck.run_fd_s": fd_s,
        "fdcheck.steps": fd_steps,
        "fdcheck.us_per_step": 1e6 * fd_s / fd_steps if fd_steps else 0.0,
        "analysis.make_reference_s": total("analysis.make_reference"),
        "analysis.compare_algorithms_self_s": own("analysis.compare_algorithms"),
        "analysis.compare_records_ms": 1e3 * total("analysis.compare_records"),
        "analysis.compare_records_calls": len(select("analysis.compare_records")),
        "output.write_record_csv_s": total("output.write_record_csv"),
        "output.csv_rows": attr("output.write_record_csv", "rows"),
        "output.csv_bytes": attr("output.write_record_csv", "bytes"),
        "output.write_table_csv_ms": 1e3 * total("output.write_table_csv"),
        "output.emit_svg_plot_ms": 1e3 * total("output.emit_svg_plot"),
        "output.svg_points": attr("output.emit_svg_plot", "points"),
        "cli.self_s": own("cli.run"),
    }
