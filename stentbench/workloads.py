"""The benchmark's workloads: their configs, command sequences and checks.

Every config takes dt_m = t_end/n with n from the program's own
``stable_step_count`` and sets ``cfl_safety: 1``.  The seed draws the
partition coefficient k_part within 5% of the paper's 15.  No stability
limit and no step count depends on k_part, so the seed changes every
number the program computes but not the amount of work it does.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

from stentsim.fdcheck import run_fd
from stentsim.params import paper_params
from stentsim.stepping import stable_step_count

import checks

VARIANTS = ("monolithic", "alg1", "alg2")
# substep setting of a probe -> (substep_ratio, substep_domain)
SETTINGS = {"r1": (1, "stent"), "stent4": (4, "stent"), "media4": (4, "media")}


@dataclass
class Workload:
    params: object                 # ModelParams the config carries
    config: Path                   # the config file the commands read
    tree: dict                     # its YAML tree
    commands: list                 # argv lists for stentsim.cli.run
    results: Path                  # where the commands write
    setup_meshes: list             # meshes build_operators sees, (n_s, n_m)
    probe_mesh: tuple              # mesh of most of the workload's steps
    probe_run: tuple               # (variant, setting) of those steps
    check: object                  # check(workload, tracer) -> None

    def write_config(self):
        self.config.parent.mkdir(parents=True, exist_ok=True)
        self.config.write_text(yaml.safe_dump(self.tree, sort_keys=False))


def seeded_params(seed: int):
    k_part = 15.0 * (1.0 + 0.05 * random.Random(seed).uniform(-1.0, 1.0))
    return dataclasses.replace(paper_params(), k_part=k_part)


def _config(p, n_s, n_m, t_end, n_steps, scheme, out_dir, **extra):
    time = {"t_end": t_end, "dt_m": t_end / n_steps, "cfl_safety": 1.0}
    time.update(extra.pop("time", {}))
    tree = {
        "params": {"use_paper_defaults": True, "k_part": p.k_part},
        "mesh": {"n_s": n_s, "n_m": n_m},
        "time": time,
        "scheme": scheme,
        "output": {"out_dir": str(out_dir), **extra.pop("output", {})},
    }
    tree.update(extra)
    return tree


def release(p, work: Path, quick: bool) -> Workload:
    """24-hour release: alg1, media substepped r=4, every step recorded,
    hourly snapshots, then the interface and profile plots."""
    n_s, n_m, t_end = 100, 25, (1.0 if quick else 20.0)
    n = stable_step_count(p, p.l / n_s, 1.0 / n_m, t_end,
                          substep_ratio=4, substep_domain="media")
    res = work / "results"
    cfg = work / "release.yaml"
    snaps = [t_end * k / 24 for k in range(25)]
    tree = _config(p, n_s, n_m, t_end, n, "alg1", res,
                   time={"substep_ratio": 4, "substep_domain": "media"},
                   output={"snapshot_times": snaps, "record_every": 1},
                   time_unit=4320.0)

    def check(w, tracer):
        checks.check_release(w.results, p, t_end / n, len(snaps))

    return Workload(
        p, cfg, tree,
        [["simulate", "--config", str(cfg)],
         ["plot", "--input", str(res / "interface.csv"), "--field", "c1_at_0",
          "--out", str(res / "interface.svg")],
         ["plot", "--input", str(res / "snapshots.csv"), "--field", "c1",
          "--out", str(res / "profiles.svg")]],
        res, [(n_s, n_m)], (n_s, n_m), ("alg1", "media4"), check)


def study(p, work: Path, quick: bool) -> Workload:
    """compare-alg: a 4x refined monolithic reference, then alg1, alg2 and
    monolithic on the test mesh."""
    n_s, n_m, t_end, scale = 50, 25, (0.25 if quick else 1.0), 4
    n = stable_step_count(p, p.l / n_s, 1.0 / n_m, t_end)
    res = work / "results"
    cfg = work / "study.yaml"
    tree = _config(p, n_s, n_m, t_end, n, "alg1", res)

    def check(w, tracer):
        (ref,) = tracer.results_of("analysis.make_reference")
        variants = {r.config["variant"]: r
                    for r in tracer.results_of("stepping.run_simulation")
                    if r.mesh_s.n_elems == n_s}
        n_ref = round(ref.config["t_end"] / ref.config["dt_m"])
        fd_ref = run_fd(p, ref.mesh_s.n_elems, ref.mesh_m.n_elems,
                        t_end / n_ref, t_end,
                        [s.t_request for s in ref.snapshots], record_every=n_ref)
        checks.check_study(w.results, variants, ref, fd_ref)

    meshes = [(n_s, n_m), (scale * n_s, scale * n_m)]
    return Workload(
        p, cfg, tree,
        [["compare-alg", "--config", str(cfg), "--ref-scale", str(scale)]],
        res, meshes, meshes[1], ("monolithic", "r1"), check)


def crosscheck(p, work: Path, quick: bool) -> Workload:
    """compare-fd: FEM monolithic against the FD solver on one mesh."""
    n_s, n_m, t_end = 100, 100, (0.2 if quick else 1.0)
    n = stable_step_count(p, p.l / n_s, 1.0 / n_m, t_end)
    res = work / "results"
    cfg = work / "crosscheck.yaml"
    snaps = [k / 10 for k in range(round(10 * t_end) + 1)]  # every 0.1
    tree = _config(p, n_s, n_m, t_end, n, "monolithic", res,
                   output={"snapshot_times": snaps, "record_every": 1000})

    def check(w, tracer):
        (fem,) = tracer.results_of("stepping.run_simulation")
        (fd,) = tracer.results_of("fdcheck.run_fd")
        checks.check_crosscheck(w.results, fem, fd)

    return Workload(
        p, cfg, tree,
        [["compare-fd", "--config", str(cfg)]],
        res, [(n_s, n_m)], (n_s, n_m), ("monolithic", "r1"), check)


WORKLOADS = {"release": release, "study": study, "crosscheck": crosscheck}


def make(name: str, seed: int, work: Path, quick: bool = False) -> Workload:
    return WORKLOADS[name](seeded_params(seed), Path(work), quick)
