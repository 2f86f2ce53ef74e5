"""Layer probes timed apart from the workload's commands.

The step kernel and the monitors cannot be wrapped from outside: they
run inside ``run_simulation``.  Their costs are therefore taken as
differences between ``run_simulation`` calls that differ only in the
step count or in how often monitors are recorded.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from stentsim.fem import build_operators
from stentsim.stepping import SchemeConfig, run_simulation, sharp_dt_limit

import calibrate
from workloads import SETTINGS, VARIANTS

PROBE_STEPS = 2000
REPEATS = 3
SETUP_REPEATS = 5


def _timed_run(p, ops, variant, setting, n_steps, record_every):
    r, domain = SETTINGS[setting]
    dt = sharp_dt_limit(p, ops.mesh_s.h, ops.mesh_m.h, r, domain) / 1.05
    cfg = SchemeConfig(variant, dt, t_end=n_steps * dt, substep_ratio=r,
                       cfl_safety=1.0, substep_domain=domain)
    t0 = perf_counter()
    run_simulation(p, ops, cfg, [], record_every=record_every)
    return perf_counter() - t0


def _median_run(*args):
    return statistics.median(_timed_run(*args) for _ in range(REPEATS))


def step_metrics(w) -> dict[str, float]:
    """Fixed cost, us per macro step per variant and substep setting, and
    us per monitor record, on the mesh that carries most of w's steps."""
    p, (n_s, n_m) = w.params, w.probe_mesh
    ops = build_operators(p, n_s, n_m)
    variant, setting = w.probe_run
    fixed = statistics.median(
        _timed_run(p, ops, variant, setting, 0, 1) for _ in range(5 * REPEATS))
    out = {"stepping.fixed_us": 1e6 * fixed}
    for v in VARIANTS:
        for s in SETTINGS:
            t = _median_run(p, ops, v, s, PROBE_STEPS, PROBE_STEPS)
            out[f"stepping.us_per_step.{v}.{s}"] = 1e6 * (t - fixed) / PROBE_STEPS
    # monitors at every step against monitors at the ends only
    dense = _median_run(p, ops, variant, setting, PROBE_STEPS, 1)
    sparse = _median_run(p, ops, variant, setting, PROBE_STEPS, PROBE_STEPS)
    out["stepping.monitor_us_per_record"] = 1e6 * (dense - sparse) / (PROBE_STEPS - 1)
    return out


def setup_seconds(w, src: Path, env: dict) -> float:
    """Median over fresh interpreters of the cost before the first step:
    importing stentsim.cli, parse_config and build_operators, scaled by
    the calibration kernel each interpreter times right after."""
    probe = Path(__file__).with_name("setup_probe.py")
    meshes = [f"{a}:{b}" for a, b in w.setup_meshes]
    argv = [sys.executable, str(probe), str(src), str(w.config), *meshes]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        setup, kernel = (float(v) for v in done.stdout.split()[-2:])
        times.append(calibrate.scaled(setup, kernel))
    return statistics.median(times)
