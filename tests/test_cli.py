import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import stentsim
from stentsim.cli import run
from stentsim.fem import build_operators
from stentsim.params import paper_params
from stentsim.stepping import sharp_dt_limit

P = paper_params()
README = Path(__file__).resolve().parents[1] / "README.md"


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
    # dt far above the allowance: rejected before stepping
    cfg_path, out = make_config(tmp_path, dt_scale=50.0)
    assert run(["simulate", "--config", str(cfg_path)]) == 1
    assert "stability allowance" in capsys.readouterr().err
    assert not out.exists()  # a rejected config leaves no output directory


def test_numerical_failure_exit_code(tmp_path, capsys):
    # just under the stated bound passes the gate but blows up -> exit 2
    cfg_path, _ = make_config(tmp_path, steps=4000, dt_scale=2.9,
                              extra="", variant="monolithic")
    text = cfg_path.read_text().replace("dt_m:", "cfl_safety: 1.0\n  dt_m:")
    cfg_path.write_text(text)
    assert run(["simulate", "--config", str(cfg_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


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
    src = str(Path(stentsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "stentsim.cli", "plot", "--field", "c1",
         "--out", str(tmp_path / "x.svg")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_compare_fd_runs(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, steps=30)
    assert run(["compare-fd", "--config", str(cfg_path)]) == 0
    assert (out / "fd_comparison.csv").exists()
    assert "finite-difference" in capsys.readouterr().out


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
