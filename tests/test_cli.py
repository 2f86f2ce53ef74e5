import csv
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import stentsim
from stentsim.cli import run
from stentsim.config import parse_config
from stentsim.fem import build_operators
from stentsim.output import emit_svg_plot
from stentsim.params import paper_params
from stentsim.stepping import RunRecorder, SchemeConfig, sharp_dt_limit

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
                cfl_note=None, dt_scale=0.5, extra="", snapshots=True):
    """A config on n_s/n_m at dt_scale times the sharp limit; snapshots
    sets snapshot_times, which the study commands refuse."""
    ops = build_operators(P, n_s, n_m)
    dt = dt_scale * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)
    t_end = steps * dt
    out = tmp_path / "out"
    snaps = (f"  snapshot_times: [0.0, {t_end / 2!r}, {t_end!r}]\n"
             if snapshots else "")
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
{snaps}{extra}"""
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


def moved_snapshot_lines(tmp_path, capsys, command, request_step,
                         taken_step):
    """The lines ``command`` prints about moved snapshots on a config
    whose snapshots are requested at t = 0 and at request_step steps,
    and the one line expected if that request is taken at taken_step."""
    cfg_path, out = make_config(tmp_path)
    dt = parse_config(cfg_path).scheme.dt_m
    requested = request_step * dt
    cfg_path.write_text(re.sub(r"snapshot_times: .*",
                               f"snapshot_times: [0.0, {requested!r}]",
                               cfg_path.read_text()))
    assert run([command, "--config", str(cfg_path)]) == 0
    moved = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("snapshot")]
    return moved, (f"snapshot requested at t={requested!r} taken at "
                   f"t={taken_step * dt!r}, the nearest step")


@pytest.mark.parametrize("request_step,taken_step", [(20, 20), (10.3, 10)])
def test_simulate_reports_moved_snapshots(tmp_path, capsys, request_step,
                                          taken_step):
    # a request off the step grid is taken at the nearest step and reported
    # with both times; a request on the grid, as in every shipped config,
    # prints nothing
    moved, line = moved_snapshot_lines(tmp_path, capsys, "simulate",
                                       request_step, taken_step)
    assert moved == ([] if request_step == taken_step else [line])


@pytest.mark.parametrize("request_step,taken_step", [(20, 20), (10.3, 10)])
def test_compare_fd_reports_moved_snapshots(tmp_path, capsys, request_step,
                                            taken_step):
    # compare-fd reports as simulate does, once for its two runs, which
    # snap their requests to the same steps
    moved, line = moved_snapshot_lines(tmp_path, capsys, "compare-fd",
                                       request_step, taken_step)
    assert moved == ([] if request_step == taken_step else [line])


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


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, extra="  record_evry: 5\n")
    assert run(["simulate", "--config", str(cfg_path)]) == 1
    assert "output.record_evry: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_snapshot_requests_on_one_step_exit_code(tmp_path, capsys):
    # two requests on step 10: refused, where one snapshot used to be
    # written for both
    cfg_path, out = make_config(tmp_path)
    dt = parse_config(cfg_path).scheme.dt_m
    cfg_path.write_text(re.sub(r"snapshot_times: .*",
                               f"snapshot_times: [{10 * dt!r}, "
                               f"{10.2 * dt!r}]", cfg_path.read_text()))
    assert run(["simulate", "--config", str(cfg_path)]) == 1
    assert "both land on step 10" in capsys.readouterr().err
    assert not out.exists()


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
    monkeypatch.setattr(SchemeConfig, "check_cfl", lambda *args: None)
    cfg_path, out = make_config(tmp_path, steps=4000, dt_scale=2.9,
                                extra="", variant="monolithic")
    assert run(["simulate", "--config", str(cfg_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_leaping_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # the same run recorded every 50 steps leaps from record to record; it
    # still exits 2 before any output is written
    monkeypatch.setattr(SchemeConfig, "check_cfl", lambda *args: None)
    cfg_path, out = make_config(tmp_path, steps=4000, dt_scale=2.9,
                                extra="  record_every: 50\n",
                                variant="monolithic")
    assert run(["simulate", "--config", str(cfg_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_dense_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # the same run with 4 stent substeps, which leave the media's step as
    # it is, takes dense steps; it still exits 2 before any output is
    # written
    monkeypatch.setattr(SchemeConfig, "check_cfl", lambda *args: None)
    cfg_path, out = make_config(tmp_path, steps=4000, dt_scale=2.9,
                                variant="alg1")
    cfg_path.write_text(cfg_path.read_text().replace(
        "  dt_m:", "  substep_ratio: 4\n  dt_m:"))
    assert run(["simulate", "--config", str(cfg_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_t_end_not_whole_number_of_steps_refused(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, n_s=4, n_m=4)
    text = re.sub(r"t_end: .*", "t_end: 0.01", cfg_path.read_text())
    text = re.sub(r"dt_m: .*", "dt_m: 0.003", text)
    cfg_path.write_text(re.sub(r"snapshot_times: .*",
                               "snapshot_times: [0.0, 0.01]", text))
    assert run(["simulate", "--config", str(cfg_path)]) == 1
    assert "time.dt_m" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pattern,line,key", [
    (r"t_end: .*", "t_end: .nan", "time.t_end"),
    (r"t_end: .*", "t_end: .inf", "time.t_end"),
    (r"snapshot_times: .*", "snapshot_times: [0.0, .nan]",
     "output.snapshot_times"),
])
def test_non_finite_time_refused(tmp_path, capsys, pattern, line, key):
    # exit 1 with the key path before any stepping, not a traceback
    cfg_path, out = make_config(tmp_path)
    cfg_path.write_text(re.sub(pattern, line, cfg_path.read_text(), count=1))
    assert run(["simulate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
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


def no_run(*args, **kwargs):
    raise AssertionError("stepped before the FD gate")


def test_compare_fd_refuses_cell_peclet_above_two(tmp_path, capsys,
                                                  monkeypatch):
    # pe*h_m = 5 on 8/6: the finite-difference gate refuses the config,
    # exit 1, before the finite-element run takes a step
    monkeypatch.setattr("stentsim.cli.run_simulation", no_run)
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=6, steps=20,
                                dt_scale=0.1)
    cfg_path.write_text(cfg_path.read_text().replace(
        "params: paper_defaults",
        "params: {use_paper_defaults: true, pe: 30.0}"))
    assert run(["compare-fd", "--config", str(cfg_path)]) == 1
    assert "cell Peclet number" in capsys.readouterr().err
    assert not out.exists()


def fd_config(tmp_path, dt_m, time_lines=""):
    """A 50/25 monolithic config over 20 steps of dt_m, with time_lines
    added to its time keys."""
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(f"""\
params: paper_defaults
mesh:
  n_s: 50
  n_m: 25
time:
  t_end: {20 * dt_m!r}
  dt_m: {dt_m!r}
{time_lines}scheme: monolithic
output:
  out_dir: {out}
""")
    return cfg_path, out


def test_compare_fd_refuses_step_above_single_rate_limit(tmp_path, capsys,
                                                         monkeypatch):
    # dt_m = 4e-4 on 50/25 is above the single-rate limit 1.624e-4 that
    # both solvers share: the finite-difference gate refuses the config,
    # exit 1, naming the key, before the finite-element run
    monkeypatch.setattr("stentsim.cli.run_simulation", no_run)
    cfg_path, out = fd_config(tmp_path, 4.0e-4)
    assert run(["compare-fd", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: time.dt_m: dt=0.0004 exceeds the stability "
                          "allowance 0.000162401 of the single-rate "
                          "finite-difference solver")
    assert not out.exists()


@pytest.mark.parametrize("dt_m", [1.0e-4, 4.0e-4])
def test_compare_fd_refuses_substeps(tmp_path, capsys, monkeypatch, dt_m):
    # the finite-difference solver is single-rate: with 4 media substeps,
    # dt_m = 1e-4 on 50/25 compared a multi-rate run with a single-rate
    # one and exited 0, and 4e-4, which media substeps let simulate run,
    # was refused on the FD step limit alone; both are refused on the
    # substep ratio, exit 1, before the finite-element run
    monkeypatch.setattr("stentsim.cli.run_simulation", no_run)
    cfg_path, out = fd_config(tmp_path, dt_m, SUBSTEPS)
    cfg = parse_config(cfg_path)
    cfg.scheme.check_cfl(cfg.params, cfg.params.l / 50, 1.0 / 25)
    assert run(["compare-fd", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: time.substep_ratio: compare-fd compares with the "
        "single-rate finite-difference solver and needs substep_ratio 1, "
        "got 4")
    assert not out.exists()


def test_compare_fd_refuses_empty_snapshot_times(tmp_path, capsys,
                                                 monkeypatch):
    # the comparison pairs the two runs' snapshots: with none requested,
    # both runs stepped to t_end before the command exited 1 on disjoint
    # snapshot time sets; it is refused, keyed output.snapshot_times, with
    # exit 1, before any step and with no out_dir
    monkeypatch.setattr(RunRecorder, "run", no_run)
    cfg_path, out = make_config(tmp_path, steps=20, snapshots=False,
                                extra="  snapshot_times: []\n")
    assert run(["compare-fd", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "error: output.snapshot_times: compare-fd compares the two runs at "
        "their snapshots and needs at least one, got []\n")
    assert not out.exists()


def test_compare_alg_runs(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, n_s=6, n_m=4, steps=20,
                                snapshots=False)
    assert run(["compare-alg", "--config", str(cfg_path),
                "--ref-scale", "2"]) == 0
    assert (out / "algorithm_comparison.csv").exists()
    text = capsys.readouterr().out
    assert "alg1" in text and "alg2" in text


def test_stepping_study_runs(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, n_s=4, n_m=4, steps=20,
                                snapshots=False)
    assert run(["stepping-study", "--config", str(cfg_path),
                "--ratios", "1,2", "--ref-scale", "2"]) == 0
    assert (out / "stepping_study.csv").exists()
    with (out / "stepping_study.csv").open() as fh:
        ratios = {row["ratio"] for row in csv.DictReader(fh)}
    assert ratios == {"1", "2"}


def test_converge_runs(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=10,
                                snapshots=False)
    # shrink the study horizon: reuse config t_end as-is (tiny)
    assert run(["converge", "--config", str(cfg_path), "--levels", "2"]) == 0
    assert (out / "convergence.csv").exists()
    assert "rate" in capsys.readouterr().out


# the five run commands' arguments, and whether the command takes the
# config's snapshot_times
RUN_COMMANDS = pytest.mark.parametrize("argv,snapshots", [
    (["simulate"], True), (["compare-fd"], True),
    (["compare-alg", "--ref-scale", "2"], False),
    (["stepping-study", "--ref-scale", "2"], False),
    (["converge", "--levels", "2"], False)],
    ids=["simulate", "compare-fd", "compare-alg", "stepping-study",
         "converge"])


@RUN_COMMANDS
def test_commands_refuse_out_dir_that_is_a_file(tmp_path, capsys,
                                                monkeypatch, argv, snapshots):
    # an out_dir that names a file is refused before the first step, with
    # the error line keyed output.out_dir and exit 1; nothing is written
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=10,
                                snapshots=snapshots)
    out.write_text("a file\n")
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(RunRecorder, "run", no_run)
    assert run([argv[0], "--config", str(cfg_path), *argv[1:]]) == 1
    assert capsys.readouterr().err == (
        f"error: output.out_dir: {out} is a file, not a directory\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert out.read_text() == "a file\n"


LONG_NAME = "a" * 300  # above the 255 bytes a Linux file system allows


def unnameable(tmp_path, case):
    """A path under tmp_path that the OS cannot name, and the end of the
    refusal that names it: a null byte, a name too long under a missing
    directory, and one too long to look up under tmp_path itself."""
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    return {
        "null": (f"{tmp_path}/a\0b", "holds a null byte"),
        "long": (f"{tmp_path}/new/{LONG_NAME}",
                 f"has a name of 300 bytes, above the {limit} its file "
                 f"system allows"),
        "long-lookup": (f"{tmp_path}/{LONG_NAME}/run",
                        "cannot be looked up (File name too long)"),
    }[case]


@RUN_COMMANDS
@pytest.mark.parametrize("case", ["null", "long", "long-lookup"])
def test_commands_refuse_out_dir_the_os_cannot_name(tmp_path, capsys,
                                                    monkeypatch, argv,
                                                    snapshots, case):
    # an out_dir with a null byte or a name longer than the file system
    # allows is refused before the first step, keyed output.out_dir, with
    # exit 1 and no file made
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=10,
                                snapshots=snapshots)
    out_dir, reason = unnameable(tmp_path, case)
    cfg_path.write_text(cfg_path.read_text().replace(
        f"out_dir: {out}", f"out_dir: {json.dumps(out_dir)}"))
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(RunRecorder, "run", no_run)
    assert run([argv[0], "--config", str(cfg_path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output.out_dir: ") and err.endswith(
        f" {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("case", ["null", "long", "long-lookup"])
def test_plot_refuses_out_the_os_cannot_name(tmp_path, capsys, case):
    # so is a plot --out, whether the long name is its file's or a
    # directory's above it, before the CSV is read
    data = tmp_path / "one.csv"
    data.write_text("t,x\n0,1\n1,2\n")
    out, reason = unnameable(tmp_path, case)
    before = sorted(tmp_path.rglob("*"))
    for svg in (out, out + "/x.svg"):
        assert run(["plot", "--input", str(data), "--field", "x", "--out",
                    svg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and err.endswith(
            f" {reason}\n"), err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["simulate", "compare-fd",
                                     "compare-alg", "stepping-study",
                                     "converge", "plot"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_commands_refuse_config_they_cannot_read(tmp_path, capsys, command,
                                                 kind):
    # a config that is a directory, or whose bytes are not UTF-8, is
    # refused naming the file, with exit 1; plot reads the config echo
    # beside its CSV through the same parser
    config = tmp_path / "config_echo.yaml"
    if kind == "directory":
        config.mkdir()
        reason = "is a directory, not a YAML file"
    else:
        config.write_bytes(b"params: paper_defaults\n# \xff\n")
        reason = "is not UTF-8 text ('utf-8' codec can't decode byte 0xff"
    if command == "plot":
        data = tmp_path / "one.csv"
        data.write_text("t,x\n0,1\n1,2\n")
        argv = ["plot", "--input", str(data), "--field", "x", "--out",
                str(tmp_path / "x.svg")]
    else:
        argv = [command, "--config", str(config)]
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config {config} {reason}")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["simulate", "plot"])
def test_commands_refuse_input_name_too_long(tmp_path, capsys, command):
    # a --config or plot --input whose name is longer than the file system
    # allows is refused by its open, with exit 1 and no file made, where
    # the look-up before the open raised OSError (File name too long)
    name = tmp_path / LONG_NAME
    if command == "plot":
        argv = ["plot", "--input", f"{name}.csv", "--field", "x", "--out",
                str(tmp_path / "x.svg")]
        refused = f"--input: {name}.csv"
    else:
        argv = [command, "--config", f"{name}.yaml"]
        refused = f"config {name}.yaml"
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {refused} cannot be read (File name too long)\n")
    assert sorted(tmp_path.rglob("*")) == before


FLOAT = r"-?\d\.\d{16}e[+-]\d{2}"  # 17 significant digits
# a regex per table column; relative errors and rates may be empty
COLUMNS = {"variant": "(alg1|alg2|monolithic)", "ratio": "[12]",
           "level": "[01]", "h_m": FLOAT, "field": "(c|c1|c2)",
           "norm": "(linf_l2|l2_l2|l2_h1)", "absolute": FLOAT,
           "error": FLOAT, "relative": f"({FLOAT})?",
           "rate_to_next": f"({FLOAT})?"}
REPORT_HEADER = "  field norm          absolute      relative"
# (argv, table, header, rows, stdout report titles, each followed by
# REPORT_HEADER); every report has 8 rows: 3 norms of c and c1, 2 of c2
STUDY_TABLES = [
    (["compare-fd"], "fd_comparison.csv", "field,norm,absolute,relative", 8,
     ["finite-difference vs finite-element:"]),
    (["compare-alg", "--ref-scale", "2"], "algorithm_comparison.csv",
     "variant,field,norm,absolute,relative", 24,
     ["alg1:", "alg2:", "monolithic:"]),
    (["stepping-study", "--ratios", "1,2", "--ref-scale", "2"],
     "stepping_study.csv", "ratio,field,norm,absolute,relative", 16,
     ["stent/media element ratio 1 (n_s=4):",
      "stent/media element ratio 2 (n_s=8):"]),
    (["converge", "--levels", "2"], "convergence.csv",
     "level,h_m,field,norm,error,rate_to_next", 16, []),
]


@pytest.mark.parametrize("argv,table,header,n_rows,titles", STUDY_TABLES,
                         ids=[a[0] for a, *_ in STUDY_TABLES])
def test_study_table_format(tmp_path, capsys, argv, table, header, n_rows,
                            titles):
    # the bytes of the study tables and the head of each stdout report
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=10,
                                snapshots=argv[0] == "compare-fd")
    assert run([argv[0], "--config", str(cfg_path), *argv[1:]]) == 0
    data = (out / table).read_bytes().decode()
    assert data.endswith("\r\n") and "\n" not in data.replace("\r\n", "")
    lines = data[:-2].split("\r\n")
    assert lines[0] == header and len(lines) == 1 + n_rows
    pattern = ",".join(COLUMNS[c] for c in header.split(","))
    for line in lines[1:]:
        assert re.fullmatch(pattern, line), line
    text = capsys.readouterr().out.splitlines()
    assert text[-1] == f"wrote {out / table}"
    if titles:
        starts = [i for i, ln in enumerate(text) if ln in titles]
        assert [text[i] for i in starts] == titles
        assert all(text[i + 1] == REPORT_HEADER for i in starts)
    else:
        assert text[0] == ("level        h_m field     norm         error"
                           "    rate")


@pytest.mark.parametrize("n_s,n_m", [(6, 4), (4, 8)])
def test_converge_refuses_mesh_it_cannot_refine(tmp_path, capsys, n_s, n_m):
    # a stent count that is not a multiple of the media count used to be
    # rounded silently (30/25 ran as 25/25, 25/50 as 50/50)
    cfg_path, out = make_config(tmp_path, n_s=n_s, n_m=n_m, steps=10,
                                snapshots=False)
    assert run(["converge", "--config", str(cfg_path), "--levels", "2"]) == 1
    assert "mesh.n_s" in capsys.readouterr().err
    assert not out.exists()


def test_converge_refuses_reference_it_cannot_allocate(tmp_path, capsys,
                                                     monkeypatch):
    # 45 levels from 4 media elements put the reference at 4 * 2**47 media
    # and twice as many stent elements: its first array, 9 PB, exceeds any
    # address space, so allocating it fails at once and touches no memory.
    # numpy's MemoryError traceback became the CLI's error line
    def no_run(*args, **kwargs):
        raise AssertionError("a run stepped before the reference was built")

    monkeypatch.setattr(RunRecorder, "run", no_run)
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=10,
                                snapshots=False)
    assert run(["converge", "--config", str(cfg_path), "--levels", "45"]) == 1
    n_m = 4 * 2 ** 47
    assert capsys.readouterr().err.startswith(
        f"error: --levels 45: the reference mesh of {2 * n_m}/{n_m} elements "
        f"cannot be allocated (Unable to allocate ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare-fd"])
@pytest.mark.parametrize("dt,count,reason", [
    ("1.0e-17", "1e+17", "(Unable to allocate "),
    ("1.0e-300", "1e+300", "(Maximum allowed ")])
def test_run_refuses_record_it_cannot_allocate(tmp_path, capsys, monkeypatch,
                                               command, dt, count, reason):
    # unit time on 8/4 in steps of 1e-17 or 1e-300 passes the stability
    # gate, but its record of one row per step cannot be allocated: numpy
    # refuses the 1e17 records as a MemoryError and the 1e300 as a
    # ValueError, at once and without touching memory.  Both became the
    # CLI's error line, before any step and any output
    def no_run(*args, **kwargs):
        raise AssertionError("a run stepped before its record was allocated")

    monkeypatch.setattr(RunRecorder, "run", no_run)
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(f"""\
params: paper_defaults
mesh:
  n_s: 8
  n_m: 4
time:
  t_end: 1
  dt_m: {dt}
scheme: monolithic
output:
  out_dir: {out}
""")
    assert run([command, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: the record of {count} records ({count} steps, record_every "
        f"1) cannot be allocated {reason}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare-fd"])
def test_run_refuses_step_count_that_overflows(tmp_path, capsys, command):
    # t_end/dt_m = 1e300/1e-300 is inf in float64: refused while the config
    # is read, where it used to end in an OverflowError traceback
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(f"""\
params: paper_defaults
mesh:
  n_s: 5
  n_m: 5
time:
  t_end: 1.0e+300
  dt_m: 1.0e-300
scheme: monolithic
output:
  out_dir: {out}
""")
    assert run([command, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "error: time.dt_m: t_end/dt = 1e+300/1e-300 overflows float64: it is "
        "not a finite number of steps\n")
    assert not out.exists()


# (argv, n_s, dt_m, the error line's start): 2 000 000 000 stent elements
# at a step of 1e-4 are refused by the stability gate, which simulate and
# compare-fd apply before they build a mesh; 10**15 pass it at 3e-28, but
# their first array, 8 PB, exceeds any address space, so allocating it
# fails at once and touches no memory; so does the first array of a
# reference 10**13 times finer than 50/25
HUGE = "the mesh of 1000000000000000/25 elements cannot be allocated "
REF = 10 ** 13
# 2**62 stent elements pass the gate at dt 1e-35, but their nodes exceed
# numpy's largest array, which it refuses with a ValueError, not a
# MemoryError; so do those of a reference 2**57 times finer than 50/25
TOO_BIG = "cannot be allocated (array is too big; "
BIG_REF = 2 ** 57
OVERSIZE = [
    (["simulate"], 2000000000, "1.0e-4",
     "error: dt_m=0.0001 exceeds the stability allowance 8.16666e-17"),
    (["compare-fd"], 2000000000, "1.0e-4",
     "error: time.dt_m: dt=0.0001 exceeds the stability allowance "
     "8.16666e-17"),
    (["simulate"], 10 ** 15, "3.0e-28", f"error: mesh.n_s, mesh.n_m: {HUGE}"),
    (["compare-fd"], 10 ** 15, "3.0e-28",
     f"error: mesh.n_s, mesh.n_m: {HUGE}"),
    (["simulate"], 2 ** 62, "1.0e-35",
     f"error: mesh.n_s, mesh.n_m: the mesh of {2 ** 62}/25 elements "
     f"{TOO_BIG}"),
    (["compare-fd"], 2 ** 62, "1.0e-35",
     f"error: mesh.n_s, mesh.n_m: the mesh of {2 ** 62}/25 elements "
     f"{TOO_BIG}"),
    (["compare-alg", "--ref-scale", str(REF)], 50, "1.0e-4",
     f"error: --ref-scale {REF}: the reference of {50 * REF}/{25 * REF} "
     f"elements cannot be allocated (Unable to allocate "),
    (["stepping-study", "--ref-scale", str(REF)], 50, "1.0e-4",
     f"error: --ref-scale {REF}: the reference of {50 * REF}/{25 * REF} "
     f"elements cannot be allocated (Unable to allocate "),
    (["compare-alg", "--ref-scale", str(BIG_REF)], 50, "1.0e-4",
     f"error: --ref-scale {BIG_REF}: the reference of {50 * BIG_REF}/"
     f"{25 * BIG_REF} elements {TOO_BIG}")]


@pytest.mark.parametrize("argv,n_s,dt,message", OVERSIZE,
                         ids=[f"{a[0]}-{n * int(a[-1] if a[1:] else 1)}"
                              for a, n, *_ in OVERSIZE])
def test_run_refuses_mesh_it_cannot_allocate(tmp_path, capsys, monkeypatch,
                                             argv, n_s, dt, message):
    # these used to end in numpy's MemoryError traceback, in the mesh's
    # nodes or the reference's record rows; now each is the CLI's error
    # line, exit 1, before any step and any output
    def no_run(*args, **kwargs):
        raise AssertionError("a run stepped before its arrays were allocated")

    monkeypatch.setattr(RunRecorder, "run", no_run)
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(f"""\
params: paper_defaults
mesh:
  n_s: {n_s}
  n_m: 25
time:
  t_end: {dt}
  dt_m: {dt}
scheme: monolithic
output:
  out_dir: {out}
""")
    assert run([argv[0], "--config", str(cfg_path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare-fd"])
def test_run_of_no_steps_takes_one_default_snapshot(tmp_path, capsys,
                                                    command):
    # t_end 0 without snapshot_times: the default requests step 0 once,
    # where it used to request it twice and be refused
    cfg_path, out = make_config(tmp_path, steps=0, snapshots=False)
    assert run([command, "--config", str(cfg_path)]) == 0
    assert out.is_dir()


@pytest.mark.parametrize("levels", ["1", "0", "-3"])
def test_converge_refuses_too_few_levels_by_flag(tmp_path, capsys, levels):
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=10,
                                snapshots=False)
    assert run(["converge", "--config", str(cfg_path), "--levels",
                levels]) == 1
    assert capsys.readouterr().err == (
        f"error: --levels {levels}: need at least two refinement levels\n")
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
    cfg.scheme.check_cfl(cfg.params, cfg.params.l / cfg.n_s, 1.0 / cfg.n_m)


# (argv, steps of the config, error text); ids argv0, argv1, ... by
# position
STUDY_REFUSALS = [
    (["compare-alg", "--ref-scale", "0"], 20, "--ref-scale"),
    (["compare-alg", "--ref-scale", "-2"], 20, "--ref-scale"),
    (["stepping-study", "--ref-scale", "0"], 20, "--ref-scale"),
    (["stepping-study", "--ratios", "0"], 20, "--ratios"),
    (["stepping-study", "--ratios", ",,"], 20, "--ratios"),
    (["stepping-study", "--ratios", "1,x"], 20, "--ratios"),
    # 3*4 stent elements are not refined by the reference's 2*8
    (["stepping-study", "--ratios", "3", "--ref-scale", "2"], 20,
     "--ratios: ratio 3"),
    # a repeated ratio would run and report the same study twice
    (["stepping-study", "--ratios", "1,1"], 20, "repeated ratio"),
    # t_end: 0 leaves nothing to compare
    (["compare-alg"], 0, "time.t_end"),
    (["converge", "--levels", "2"], 0, "time.t_end"),
    # 64*4 stent elements take a step far below the config's: refused by
    # the stability gate, not after the reference has been computed, and
    # the refusal names the ratio and its mesh
    (["stepping-study", "--ratios", "1,64", "--ref-scale", "64"], 20,
     "error: ratio 64 (n_s/n_m = 256/4): dt_m="),
]


@pytest.mark.parametrize("argv,steps,message", STUDY_REFUSALS,
                         ids=[f"argv{i}" for i in range(len(STUDY_REFUSALS))])
def test_study_arguments_refused_before_reference(tmp_path, capsys,
                                                  monkeypatch, argv, steps,
                                                  message):
    def no_reference(*args, **kwargs):
        raise AssertionError("reference run before the arguments were checked")

    monkeypatch.setattr("stentsim.cli.make_reference", no_reference)
    monkeypatch.setattr("stentsim.cli.convergence_study", no_reference)
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=steps,
                                snapshots=False)
    assert run([argv[0], "--config", str(cfg_path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert message in captured.err
    assert "reference:" not in captured.out
    assert not out.exists()


SUBSTEPS = "  substep_ratio: 4\n  substep_domain: media\n"
# (argv, time keys added to the config, error text): a step above the
# config's cfl_safety, and a substep ratio the single-rate studies would
# ignore
STUDY_TIME_REFUSALS = [
    (["compare-alg", "--ref-scale", "2"], "  cfl_safety: 0.4\n",
     "stability allowance"),
    (["stepping-study", "--ratios", "1,2", "--ref-scale", "2"],
     "  cfl_safety: 0.4\n", "stability allowance"),
    (["compare-alg", "--ref-scale", "2"], SUBSTEPS, "time.substep_ratio: "),
    (["stepping-study", "--ref-scale", "2"], SUBSTEPS, "time.substep_ratio: "),
    (["converge", "--levels", "2"], SUBSTEPS, "time.substep_ratio: "),
]


@pytest.mark.parametrize("argv,time_lines,message", STUDY_TIME_REFUSALS,
                         ids=[f"argv{i}" for i in
                              range(len(STUDY_TIME_REFUSALS))])
def test_study_time_keys_refused_before_reference(tmp_path, capsys,
                                                  monkeypatch, argv,
                                                  time_lines, message):
    def no_reference(*args, **kwargs):
        raise AssertionError("reference run before the config was checked")

    monkeypatch.setattr("stentsim.cli.make_reference", no_reference)
    monkeypatch.setattr("stentsim.cli.convergence_study", no_reference)
    # at half the sharp limit of 8/4
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=20,
                                snapshots=False)
    cfg_path.write_text(cfg_path.read_text().replace(
        "  dt_m:", time_lines + "  dt_m:"))
    assert run([argv[0], "--config", str(cfg_path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "reference:" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare-alg", "stepping-study",
                                     "converge"])
@pytest.mark.parametrize("key", ["snapshot_times", "record_every"])
def test_study_output_keys_refused_before_reference(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    key):
    # the studies choose their own snapshots and records; these keys were
    # ignored without a word
    def no_reference(*args, **kwargs):
        raise AssertionError("reference run before the config was checked")

    monkeypatch.setattr("stentsim.cli.make_reference", no_reference)
    monkeypatch.setattr("stentsim.cli.convergence_study", no_reference)
    cfg_path, out = make_config(
        tmp_path, n_s=8, n_m=4, steps=20, snapshots=key == "snapshot_times",
        extra="  record_every: 5\n" if key == "record_every" else "")
    assert run([command, "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: output.{key}: ")
    assert "reference:" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compare-alg", "--ref-scale", "2"],
    ["stepping-study", "--ratios", "1,2", "--ref-scale", "2"]])
def test_study_last_stride_snapshot_at_t_end_accepted(tmp_path, capsys, argv):
    # t_end/dt_m = 6460.0000004 is a whole number of steps to 1e-9, and
    # the last stride snapshot, 6460*dt_m = 0.999999999936, is step 6460:
    # t_end was added as an eleventh snapshot on that step and refused
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(f"""\
params: paper_defaults
mesh:
  n_s: 10
  n_m: 5
time:
  t_end: 1.0
  dt_m: 1.547987616e-4
scheme: alg1
output:
  out_dir: {out}
""")
    assert run([argv[0], "--config", str(cfg_path), *argv[1:]]) == 0
    assert "both land on step" not in capsys.readouterr().err
    assert list(out.glob("*.csv"))


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


def test_plot_reads_utf8_input_whatever_the_locale(tmp_path):
    # the input is read as UTF-8 under the C locale too, where its text
    # was refused as not UTF-8 ('ascii' codec can't decode byte 0xc3)
    data, svg = tmp_path / "notes.csv", tmp_path / "x.svg"
    data.write_bytes("t,x,note\n0,1,caf\u00e9\n1,2,th\u00e9\n".encode())
    env = {**src_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "stentsim.cli", "plot", "--input", str(data),
         "--field", "x", "--out", str(svg)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert svg.read_text().count("<polyline") == 1


# the C locale without coercion or UTF-8 mode: the file system encoding
# and the locale's are ASCII
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def run_in_c_locale(argv):
    """run(argv) in a fresh interpreter under C_LOCALE, each argument
    reaching it as the str it is here (the console script would hand a
    non-ASCII argument on surrogate-escaped); the finished process."""
    code = f"import sys; from stentsim.cli import run; sys.exit(run({ascii(argv)}))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**src_env(), **C_LOCALE},
                          timeout=60)


def test_plot_writes_utf8_svg_whatever_the_locale(tmp_path):
    # a non-ASCII field name labels the chart, which is written as UTF-8
    # under the C locale too, where the write raised UnicodeEncodeError
    # and left an empty file
    data, svg = tmp_path / "g.csv", tmp_path / "g.svg"
    data.write_bytes("t,café\n0,1\n1,2\n".encode())
    proc = run_in_c_locale(["plot", "--input", str(data), "--field",
                            "café", "--out", str(svg)])
    assert proc.returncode == 0, proc.stderr
    ET.parse(svg)
    assert svg.read_text(encoding="utf-8").count(">café</text>") == 3


def test_simulate_refuses_out_dir_the_locale_cannot_encode(tmp_path):
    # under the C locale an out_dir of non-ASCII characters has no name on
    # disk: it is refused keyed output.out_dir, with exit 1 and no
    # directory made, where os.fsencode raised UnicodeEncodeError
    cfg_path, out = make_config(tmp_path, n_s=8, n_m=4, steps=10)
    out_dir = tmp_path / "résultats"
    cfg_path.write_bytes(cfg_path.read_text().replace(
        f"out_dir: {out}", f"out_dir: {out_dir}").encode())
    before = sorted(tmp_path.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-m", "stentsim.cli", "simulate", "--config",
         str(cfg_path)], capture_output=True, text=True,
        env={**src_env(), **C_LOCALE}, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: output.out_dir: {tmp_path}/r\\xe9sultats cannot be named "
        f"in the file system's encoding (ascii)\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_plot_refuses_out_the_locale_cannot_encode(tmp_path):
    # so is a plot --out, whether the non-ASCII name is its file's or a
    # directory's above it
    data = tmp_path / "one.csv"
    data.write_text("t,x\n0,1\n1,2\n")
    before = sorted(tmp_path.rglob("*"))
    for svg in ("résultats.svg", "résultats/x.svg"):
        proc = run_in_c_locale(["plot", "--input", str(data), "--field", "x",
                                "--out", f"{tmp_path}/{svg}"])
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: --out: {tmp_path}/{ascii(svg)[1:-1]} cannot be named "
            f"in the file system's encoding (ascii)\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["simulate", "plot"])
def test_config_and_input_the_locale_cannot_encode_are_refused(tmp_path,
                                                               command):
    # so are a --config and a plot --input, whose open raised
    # UnicodeEncodeError: exit 1, an error line naming the path as the
    # C locale prints it, and no chart
    name = f"{tmp_path}/café"
    argv, refused = {
        "simulate": (["simulate", "--config", f"{name}.yaml"],
                     f"config {tmp_path}/caf\\xe9.yaml"),
        "plot": (["plot", "--input", f"{name}.csv", "--field", "x", "--out",
                  f"{tmp_path}/g.svg"], f"--input: {tmp_path}/caf\\xe9.csv"),
    }[command]
    proc = run_in_c_locale(argv)
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {refused} cannot be named in the file "
                           f"system's encoding (ascii)\n")
    assert not any(tmp_path.iterdir())


def test_plot_reads_rows_after_a_blank_line(tmp_path, capsys):
    # a blank line before the data rows is skipped, as one between them
    # is; the input was refused for "no data rows" when its second line
    # was blank
    data, svg = tmp_path / "gap.csv", tmp_path / "x.svg"
    data.write_text("t,x\n\n0,1\n1,2\n")
    assert run(["plot", "--input", str(data), "--field", "x", "--out",
                str(svg)]) == 0
    (line,) = re.findall(r'points="([^"]*)"', svg.read_text())
    assert len(line.split()) == 2
    data.write_text("t,x\n\n\n")
    assert run(["plot", "--input", str(data), "--field", "x", "--out",
                str(svg)]) == 1
    assert capsys.readouterr().err == f"error: no data rows in {data}\n"


def test_plot_unknown_field(tmp_path, capsys):
    cfg_path, out = make_config(tmp_path)
    run(["simulate", "--config", str(cfg_path)])
    assert run(["plot", "--input", str(out / "interface.csv"),
                "--field", "nope", "--out", str(tmp_path / "x.svg")]) == 1


@pytest.mark.parametrize("rows", ["0,nan\n1,2\n", "0,1\n1,inf\n",
                                  "nan,1\n1,2\n", "0,1\n1,-inf\n"])
def test_plot_refuses_non_finite_values(tmp_path, capsys, rows):
    # the CLI's error line and exit 1, naming the series, and no chart
    data = tmp_path / "series.csv"
    data.write_text("t,x\n" + rows)
    svg = tmp_path / "x.svg"
    assert run(["plot", "--input", str(data), "--field", "x",
                "--out", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: series 'x': ") and "finite" in err
    assert not svg.exists()


@pytest.mark.parametrize("text,field,line,row", [
    ("t,x\n0,1\n1,abc\n", "x", 3, "1,abc"),
    ("t,x\n0,1\n1\n2,3\n", "x", 3, "1"),
    ("t,x,y\n0,1,2\n\n1,,3\n", "x", 4, "1,,3"),
    ("t,domain,x,field,value\n0,m,0,c1,1\n0,m,1,c1,zz\n", "c1", 3,
     "0,m,1,c1,zz"),
    ("t,domain,x,field,value\n0,m,0,c1,1\n0,m,1\n", "c1", 3, "0,m,1"),
    ("t,domain,x,field,value\n0,m,0,c1,1\nq,m,1,c1,2\n", "c1", 3,
     "q,m,1,c1,2"),
    # the input (bytes, or None for a directory), the case in place of
    # the line, and the flag that the error line names in place of the row
    pytest.param(None, "x", "input is a directory", "--input",
                 id="input-directory"),
    pytest.param(b"\xff\xfet,x\n0,1\n", "x", "input is not UTF-8",
                 "--input", id="input-not-utf8"),
    pytest.param(b"t,x\n0,1\n1,\xff\n", "x", "input is not UTF-8",
                 "--input", id="input-not-utf8-in-a-row"),
    pytest.param(b"t,x\n0,1\n", "x", "out is a directory", "--out",
                 id="out-directory"),
    pytest.param(b"t,x\n0,1\n", "x", "out lies under a file", "--out",
                 id="out-under-file")])
def test_plot_refuses_malformed_rows(tmp_path, text, field, line, row):
    # a value that does not read as a number, a missing one and a short
    # row, in the wide and the long format: the CLI's error line naming
    # the file, the line and the row, exit 1 and no chart, where these
    # ended in numpy's or float()'s traceback.  So do an input that is a
    # directory or not UTF-8 text, and an output that is a directory or
    # lies under a file, with an error line naming the flag
    data, svg = tmp_path / "series.csv", tmp_path / "x.svg"
    if text is None:
        data.mkdir()
    else:
        data.write_bytes(text if isinstance(text, bytes) else text.encode())
    if line == "out is a directory":
        svg.mkdir()
    elif line == "out lies under a file":
        (tmp_path / "taken").write_text("")
        svg = tmp_path / "taken" / "x.svg"
    before = sorted(tmp_path.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-m", "stentsim.cli", "plot", "--input", str(data),
         "--field", field, "--out", str(svg)],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"error: {data}, line {line}: malformed row {row!r}: expected "
        f"numbers for " if isinstance(line, int) else f"error: {row}: ")
    assert "Traceback" not in proc.stderr
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("rows", ["-1e308,1\n1e308,2\n",
                                  "0,-1e308\n1,1e308\n",
                                  "0,0\n1,1.79e308\n"])
def test_plot_refuses_range_that_overflows(tmp_path, capsys, rows):
    # finite data whose t span, y span, or y span with its 5% margin is
    # inf: the CLI's error line and exit 1, and no chart
    data = tmp_path / "series.csv"
    data.write_text("t,x\n" + rows)
    svg = tmp_path / "x.svg"
    assert run(["plot", "--input", str(data), "--field", "x",
                "--out", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data range too wide to plot")
    assert "overflows float64" in err
    assert not svg.exists()


@pytest.mark.parametrize("rows", ["1e17,1\n",
                                  "1e17,1\n1.0000000000000002e17,2\n",
                                  "0,1e17\n1,1.0000000000000002e17\n"])
def test_plot_refuses_range_too_narrow_to_tick(tmp_path, rows):
    # a single time point past 2^53, where t + 1 == t, and spans of one
    # float64 spacing in t or in y: the CLI's error line and exit 1, and no
    # chart.  Such spans left a tick loop that never advanced, and the
    # single point a chart of nan coordinates; a subprocess with a timeout
    # shows the refusal comes back
    data = tmp_path / "series.csv"
    data.write_text("t,x\n" + rows)
    svg = tmp_path / "x.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "stentsim.cli", "plot", "--input", str(data),
         "--field", "x", "--out", str(svg)],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: data range too narrow to plot")
    assert "10 float64 spacings" in proc.stderr
    assert not svg.exists()


def test_plot_escapes_labels(tmp_path):
    # column names with XML's special characters give a well-formed chart
    # whose title, y label and legend read the name as it is
    data = tmp_path / "series.csv"
    data.write_text("t,a&b,<c>\n0,1,2\n1,2,3\n")
    for field in ("a&b", "<c>"):
        svg = tmp_path / "x.svg"
        assert run(["plot", "--input", str(data), "--field", field,
                    "--out", str(svg)]) == 0
        root = ET.parse(svg).getroot()
        texts = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count(field) == 3


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
