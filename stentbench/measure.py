"""Measurement loop: whole rounds of a workload's commands, timed.

One round runs every command of the workload once, in order, from config
file to results on disk.  The first round of a run is a traced warm-up
that keeps the records the commands computed, for the checks; its time
is not reported.  Rounds then repeat until ``seconds`` have passed since
the warm-up began, and the run reports medians over the timed rounds.
With tracing, untraced and traced rounds alternate, so both see the same
load on the host.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import stentsim.analysis
import stentsim.cli

import calibrate
import checks
import probes
import workloads
from spans import Tracer, layer_metrics

MODULES = {"cli": stentsim.cli, "analysis": stentsim.analysis}


def _median(values):
    """Median; counts, equal in every round, stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(w, tracer, log) -> tuple[float, int]:
    """Run w's commands once; return the wall time and the failures."""
    shutil.rmtree(w.results, ignore_errors=True)
    failed = 0
    hooks = tracer.installed(MODULES) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), hooks:
        t0 = perf_counter()
        for argv in w.commands:
            try:
                if tracer:
                    rc = tracer.call("cli.run", stentsim.cli.run, argv)
                else:
                    rc = stentsim.cli.run(argv)
            except Exception:
                traceback.print_exc(file=sys.__stderr__)
                rc = -1
            failed += rc != 0
        wall = perf_counter() - t0
    return wall, failed


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool,
        work: Path, src: Path, env: dict) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    w = workloads.make(name, seed, work, quick)
    w.write_config()
    walls, kernels, traced_walls, layers, traced = [], [], [], [], []
    with (work / "cli.log").open("w") as log:
        start = perf_counter()
        warm = Tracer(keep_results=True)
        wall, failed = run_round(w, warm, log)
        rounds = 1
        before = calibrate.kernel_seconds()
        if quick:
            walls.append(wall)
            kernels.append(before)
            traced_walls.append(wall)
            layers.append(layer_metrics(warm))
            traced.append((0, warm))
            peak_rss_mb = _peak_rss_mb()
        while not quick:
            wall, f = run_round(w, None, log)
            after = calibrate.kernel_seconds()
            walls.append(wall)
            kernels.append((before + after) / 2)
            if len(walls) == 1:
                # read after warm-up and one timed round: later rounds add
                # only allocator growth, which depends on how many fit
                peak_rss_mb = _peak_rss_mb()
            failed += f
            rounds += 1
            if trace:
                tr = Tracer()
                wall, f = run_round(w, tr, log)
                traced_walls.append(wall)
                layers.append(layer_metrics(tr))
                traced.append((rounds, tr))
                failed += f
                rounds += 1
                after = calibrate.kernel_seconds()
            before = after
            if perf_counter() - start >= seconds:
                break

    span_file = work / "spans.jsonl"
    span_file.unlink(missing_ok=True)
    if trace:
        for round_index, tr in traced:
            tr.dump(span_file, round_index)
        metrics = {k: _median([m[k] for m in layers]) for k in layers[0]}
        metrics.update(probes.step_metrics(w))
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        metrics["host.kernel_ms"] = 1e3 * statistics.median(kernels)
    else:
        metrics = {"wall_s": statistics.median(
                       calibrate.scaled(t, k) for t, k in zip(walls, kernels)),
                   "setup_s": probes.setup_seconds(w, src, env),
                   "peak_rss_mb": peak_rss_mb}

    try:
        w.check(w, warm)
        correct = True
    except checks.CheckFailed as exc:
        print(f"stentbench: check failed: {exc}", file=sys.stderr)
        correct = False
    except Exception:
        traceback.print_exc()
        correct = False

    print(f"{name}: {rounds} rounds (warm-up included); walls, s: "
          f"{[round(x, 4) for x in walls]}; kernel, ms: "
          f"{[round(1e3 * k, 2) for k in kernels]}", file=sys.stderr)
    return {"correct": correct, "attempted": rounds * len(w.commands),
            "failed": failed, "metrics": metrics}
