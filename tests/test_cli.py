import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stentsim
from stentsim.cli import run
from stentsim.config import parse_config
from stentsim.fem import build_operators
from stentsim.output import emit_svg_plot
from stentsim.params import paper_params
from stentsim.stepping import SchemeConfig, sharp_dt_limit

P = paper_params()
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(stentsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def make_config(tmp_path, n_s=10, n_m=8, steps=40, variant="monolithic",
                cfl_note=None, dt_scale=0.5, extra=""):
    ops = build_operators(P, n_s, n_m)
    dt = dt_scale * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)
    t_end = steps * dt
    out = tmp_path / "out"
    text = f"""\
params: paper_defaults
mesh:
  n_s: {n_s}
  n_m: {n_m}
time:
  t_end: {t_end!r}
  dt_m: {dt!r}
scheme: {variant}
output:
  out_dir: {out}
  snapshot_times: [0.0, {t_end / 2!r}, {t_end!r}]
{extra}"""
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return path, out


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path)
    assert run(["simulate", "--config", str(cfg_path)]) == 0
    for name in ("snapshots.csv", "interface.csv", "monitors.csv",
                 "config_echo.yaml"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "final mass" in text


def test_simulate_config_echo_roundtrips(tmp_path):
    from stentsim.config import parse_config
    cfg_path, out = make_config(tmp_path)
    assert run(["simulate", "--config", str(cfg_path)]) == 0
    assert parse_config(out / "config_echo.yaml") == parse_config(cfg_path)


def test_validation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("params: paper_defaults\n")  # missing everything else
    assert run(["simulate", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cfl_violation_is_validation_error(tmp_path, capsys):
    # dt far above the allowance, or 2.9x the sharp limit (which blows up
    # mid-run when let through): rejected before stepping
    for dt_scale in (50.0, 2.9):
        cfg_path, out = make_config(tmp_path, steps=4000, dt_scale=dt_scale)
        assert run(["simulate", "--config", str(cfg_path)]) == 1
        assert "stability allowance" in capsys.readouterr().err
        assert not out.exists()  # a rejected config leaves no output directory


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # with the gate switched off, a run that blows up exits 2
    monkeypatch.setattr(SchemeConfig, "check_cfl", lambda self, p, ops: None)
    cfg_path, _ = make_config(tmp_path, steps=4000, dt_scale=2.9,
                              extra="", variant="monolithic")
    assert run(["simulate", "--config", str(cfg_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_t_end_not_whole_number_of_steps_refused(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, n_s=4, n_m=4)
    text = re.sub(r"t_end: .*", "t_end: 0.01", cfg_path.read_text())
    text = re.sub(r"dt_m: .*", "dt_m: 0.003", text)
    cfg_path.write_text(re.sub(r"snapshot_times: .*",
                               "snapshot_times: [0.0, 0.01]", text))
    assert run(["simulate", "--config", str(cfg_path)]) == 1
    assert "time.dt_m" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_argument_is_validation_error(capsys):
    assert run(["simulate", "--nope"]) == 1


def test_readme_example_config_simulates(tmp_path):
    block = re.search(r"```yaml\n(.*?)```", README.read_text(), re.S).group(1)
    assert "out_dir: out/run1" in block
    out = tmp_path / "run1"
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(block.replace("out_dir: out/run1", f"out_dir: {out}"))
    assert run(["simulate", "--config", str(cfg_path)]) == 0
    assert (out / "monitors.csv").exists()


def test_module_entry_point_reports_errors(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "stentsim.cli", "plot", "--field", "c1",
         "--out", str(tmp_path / "x.svg")],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_compare_fd_runs(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, steps=30)
    assert run(["compare-fd", "--config", str(cfg_path)]) == 0
    assert (out / "fd_comparison.csv").exists()
    assert "finite-difference" in capsys.readouterr().out


def test_compare_fd_refuses_cell_peclet_above_two(tmp_path, capsys,
                                                  monkeypatch):
    # pe*h_m = 5 on 8/6: the finite-difference gate refuses the config,
    # exit 1, before the finite-element run takes a step
    def no_run(*args, **kwargs):
        raise AssertionError("stepped before the FD gate")

    monkeypatch.setattr("stentsim.cli.run_simulation", no_run)
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=6, steps=20,
                                dt_scale=0.1)
    cfg_path.write_text(cfg_path.read_text().replace(
        "params: paper_defaults",
        "params: {use_paper_defaults: true, pe: 30.0}"))
    assert run(["compare-fd", "--config", str(cfg_path)]) == 1
    assert "cell Peclet number" in capsys.readouterr().err
    assert not out.exists()


def test_compare_alg_runs(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, n_s=6, n_m=4, steps=20)
    assert run(["compare-alg", "--config", str(cfg_path),
                "--ref-scale", "2"]) == 0
    assert (out / "algorithm_comparison.csv").exists()
    text = capsys.readouterr().out
    assert "alg1" in text and "alg2" in text


def test_stepping_study_runs(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, n_s=4, n_m=4, steps=20)
    assert run(["stepping-study", "--config", str(cfg_path),
                "--ratios", "1,2", "--ref-scale", "2"]) == 0
    assert (out / "stepping_study.csv").exists()
    with (out / "stepping_study.csv").open() as fh:
        ratios = {row["ratio"] for row in csv.DictReader(fh)}
    assert ratios == {"1", "2"}


def test_converge_runs(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=10)
    # shrink the study horizon: reuse config t_end as-is (tiny)
    assert run(["converge", "--config", str(cfg_path), "--levels", "2"]) == 0
    assert (out / "convergence.csv").exists()
    assert "rate" in capsys.readouterr().out


@pytest.mark.parametrize("n_s,n_m", [(6, 4), (4, 8)])
def test_converge_refuses_mesh_it_cannot_refine(tmp_path, capsys, n_s, n_m):
    # a stent count that is not a multiple of the media count used to be
    # rounded silently (30/25 ran as 25/25, 25/50 as 50/50)
    cfg_path, out = make_config(tmp_path, n_s=n_s, n_m=n_m, steps=10)
    assert run(["converge", "--config", str(cfg_path), "--levels", "2"]) == 1
    assert "mesh.n_s" in capsys.readouterr().err
    assert not out.exists()


CONFIG_NAMES = ("release.yaml", "study.yaml", "crosscheck.yaml",
                "convergence.yaml")


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_shipped_config_parses_and_is_stable(name):
    # no step is taken: the config parses and its macro step passes the
    # stability gate on its own meshes
    assert sorted(p.name for p in (ROOT / "configs").glob("*.yaml")) == sorted(
        CONFIG_NAMES)
    cfg = parse_config(ROOT / "configs" / name)
    cfg.scheme.check_cfl(cfg.params,
                         build_operators(cfg.params, cfg.n_s, cfg.n_m))


# (argv, steps of the config); ids argv0, argv1, ... by position
STUDY_REFUSALS = [
    (["compare-alg", "--ref-scale", "0"], 20),
    (["compare-alg", "--ref-scale", "-2"], 20),
    (["stepping-study", "--ref-scale", "0"], 20),
    (["stepping-study", "--ratios", "0"], 20),
    (["stepping-study", "--ratios", ",,"], 20),
    (["stepping-study", "--ratios", "1,x"], 20),
    # 3*4 stent elements are not refined by the reference's 2*8
    (["stepping-study", "--ratios", "3", "--ref-scale", "2"], 20),
    # a repeated ratio would run and report the same study twice
    (["stepping-study", "--ratios", "1,1"], 20),
    # t_end: 0 leaves nothing to compare
    (["compare-alg"], 0),
    (["converge", "--levels", "2"], 0),
]


@pytest.mark.parametrize("argv,steps", STUDY_REFUSALS,
                         ids=[f"argv{i}" for i in range(len(STUDY_REFUSALS))])
def test_study_arguments_refused_before_reference(tmp_path, capsys,
                                                  monkeypatch, argv, steps):
    def no_reference(*args, **kwargs):
        raise AssertionError("reference run before the arguments were checked")

    monkeypatch.setattr("stentsim.cli.make_reference", no_reference)
    monkeypatch.setattr("stentsim.cli.convergence_study", no_reference)
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=steps)
    assert run([argv[0], "--config", str(cfg_path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if steps == 0:
        assert "time.t_end" in err
    assert not out.exists()


def test_plot_time_series_and_profiles(tmp_path):
    cfg_path, out = make_config(tmp_path)
    assert run(["simulate", "--config", str(cfg_path)]) == 0
    svg1 = tmp_path / "iface.svg"
    assert run(["plot", "--input", str(out / "interface.csv"),
                "--field", "c1_at_0", "--out", str(svg1)]) == 0
    assert svg1.read_text().count("<polyline") == 1
    svg2 = tmp_path / "profiles.svg"
    assert run(["plot", "--input", str(out / "snapshots.csv"),
                "--field", "c1", "--out", str(svg2)]) == 0
    assert svg2.read_text().count("<polyline") == 3  # one per snapshot


def test_plot_unknown_field(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path)
    run(["simulate", "--config", str(cfg_path)])
    assert run(["plot", "--input", str(out / "interface.csv"),
                "--field", "nope", "--out", str(tmp_path / "x.svg")]) == 1


@pytest.mark.parametrize("time_unit", [None, 4320.0])
def test_plot_time_unit_from_config_echo(tmp_path, monkeypatch, time_unit):
    # simulate's config echo carries time_unit; with it plot draws time in
    # hours, without it the axes and legends read t
    calls = []

    def capture(series, path, **labels):
        calls.append((series, labels))
        return emit_svg_plot(series, path, **labels)

    monkeypatch.setattr("stentsim.cli.emit_svg_plot", capture)
    extra = "" if time_unit is None else f"time_unit: {time_unit}\n"
    cfg_path, out = make_config(tmp_path, extra=extra)
    assert run(["simulate", "--config", str(cfg_path)]) == 0
    for name, field in (("interface.csv", "c1_at_0"), ("snapshots.csv", "c1")):
        assert run(["plot", "--input", str(out / name), "--field", field,
                    "--out", str(tmp_path / f"{field}.svg")]) == 0
    (series, labels), (profiles, profile_labels) = calls
    t = np.array([float(v) for v in csv_column(out / "interface.csv", "t")])
    times = sorted({float(v) for v in csv_column(out / "snapshots.csv", "t")})
    if time_unit is None:
        assert labels["x_label"] == "t"
        np.testing.assert_array_equal(series[0][1], t)
        assert [lbl for lbl, _, _ in profiles] == [f"t={v:.6g}" for v in times]
        assert profiles[0][0] == "t=0"
    else:
        assert labels["x_label"] == "hours"
        np.testing.assert_array_equal(series[0][1], t * time_unit / 3600.0)
        assert [lbl for lbl, _, _ in profiles] == [
            f"{v * time_unit / 3600.0:.6g} h" for v in times]
        assert profiles[0][0] == "0 h"
    assert profile_labels["x_label"] == "x"


def csv_column(path, name):
    with path.open() as fh:
        return [row[name] for row in csv.DictReader(fh)]
