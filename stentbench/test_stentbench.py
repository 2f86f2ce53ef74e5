"""Tests of the benchmark itself: quick runs of every workload pass their
checks, each check fails on a corrupted output, spans give self times,
and the benchmark refuses to run without the program's sources.

    python3 -m pytest stentbench -q
"""

import csv
import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

ENV = run.single_threaded_env()
run.import_program()

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer  # noqa: E402

UNITS = run.metric_units()


@pytest.mark.parametrize("name", ["release", "study", "crosscheck"])
def test_quick_traced_run_passes_checks_and_reports_every_layer(name, tmp_path):
    res = measure.run(name, 3, 0.0, True, True, tmp_path, run.SRC, ENV)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(UNITS["per_layer"])
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").open()]
    assert {"name", "start", "end", "parent"} <= set(spans[0])
    assert any(s["name"] == "stepping.run_simulation" for s in spans)
    assert res["metrics"]["stepping.macro_steps"] > 0


def test_quick_untraced_run_reports_end_to_end_metrics(tmp_path):
    res = measure.run("release", 4, 0.0, False, True, tmp_path, run.SRC, ENV)
    assert res["correct"]
    assert set(res["metrics"]) == set(UNITS["end_to_end"])
    assert all(v > 0 for v in res["metrics"].values())


def test_seed_changes_inputs_but_not_work(tmp_path):
    a = workloads.make("study", 1, tmp_path)
    b = workloads.make("study", 2, tmp_path)
    ta, tb = a.tree, b.tree
    assert ta["params"]["k_part"] != tb["params"]["k_part"]
    assert ta["time"] == tb["time"] and ta["mesh"] == tb["mesh"]
    assert workloads.make("study", 1, tmp_path).tree == a.tree


# ------------------------------------------------------------- corruption


def _quick_round(name, work):
    w = workloads.make(name, 5, work, quick=True)
    w.write_config()
    tracer = Tracer(keep_results=True)
    with (work / "cli.log").open("w") as log:
        _, failed = measure.run_round(w, tracer, log)
    assert failed == 0
    w.check(w, tracer)  # the uncorrupted output passes
    return w, tracer


def _edit_csv(path, row, column, fn):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(fn(float(rows[row + 1][col])))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def release_out(tmp_path_factory):
    w, _ = _quick_round("release", tmp_path_factory.mktemp("release"))
    return w


def _edit_column(path, column, fn):
    """Replace every value v of column, in row k, by fn(k, v)."""
    with path.open() as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    for k, row in enumerate(rows[1:]):
        row[col] = repr(fn(k, float(row[col])))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _release_check(name, results, p, dt):
    monitors = checks.read_table(results / "monitors.csv")
    if name == "initial-mass":
        checks.check_initial_mass(monitors, p.l)
    elif name == "mass-nonincreasing":
        checks.check_mass_nonincreasing(monitors)
    elif name == "snapshot-mass":
        checks.check_snapshot_mass(checks.read_snapshots(results / "snapshots.csv"),
                                   monitors, p.phi)
    elif name == "mass-balance":
        checks.check_mass_balance(monitors, checks.read_table(results / "interface.csv"),
                                  p.pe, p.delta * p.p_tilde, dt)
    else:
        checks.check_svg(results / "profiles.svg", 25)


@pytest.mark.parametrize("check_name, corrupt", [
    ("initial-mass", lambda r: _edit_csv(r / "monitors.csv", 0, "mass",
                                         lambda v: v * (1 + 1e-9))),
    ("mass-nonincreasing", lambda r: _edit_csv(r / "monitors.csv", 500, "mass",
                                               lambda v: v + 1e-5)),
    ("snapshot-mass", lambda r: _edit_csv(r / "snapshots.csv", 40, "value",
                                          lambda v: v + 1e-6)),
    # a monitor that leaks mass: still decreasing, but the outflow no
    # longer accounts for the loss
    ("mass-balance", lambda r: _edit_column(r / "monitors.csv", "mass",
                                            lambda k, v: v - 1e-7 * k)),
    ("svg", lambda r: (r / "profiles.svg").write_text(
        (r / "profiles.svg").read_text().replace("<polyline", "<path", 1))),
])
def test_release_checks_fail_on_corrupted_output(release_out, tmp_path,
                                                 check_name, corrupt):
    results = tmp_path / "results"
    shutil.copytree(release_out.results, results)
    p, dt = release_out.params, release_out.tree["time"]["dt_m"]
    _release_check(check_name, results, p, dt)  # passes before
    corrupt(results)
    with pytest.raises(checks.CheckFailed, match=f"^{check_name}:"):
        _release_check(check_name, results, p, dt)


@pytest.fixture(scope="module")
def study_out(tmp_path_factory):
    w, tracer = _quick_round("study", tmp_path_factory.mktemp("study"))
    return w, tracer


def test_study_agreement_fails_on_corrupted_table(study_out, tmp_path):
    w, tracer = study_out
    shutil.copytree(w.results, tmp_path / "results")
    table = tmp_path / "results" / "algorithm_comparison.csv"
    with table.open() as fh:
        row = next(i for i, r in enumerate(csv.DictReader(fh))
                   if r["variant"] == "alg2" and r["field"] == "c1"
                   and r["norm"] == "linf_l2")
    _edit_csv(table, row, "absolute", lambda v: 1.5 * v)
    corrupted = dataclasses.replace(w, results=tmp_path / "results")
    with pytest.raises(checks.CheckFailed, match="^study-agreement:"):
        corrupted.check(corrupted, tracer)


def test_study_gap_fails_on_corrupted_reference(study_out):
    w, tracer = study_out
    (ref,) = tracer.results_of("analysis.make_reference")
    saved = ref.snapshots[-1].state.y1.copy()
    ref.snapshots[-1].state.y1 *= 1.5
    try:
        with pytest.raises(checks.CheckFailed, match="^study-gap:"):
            w.check(w, tracer)
    finally:
        ref.snapshots[-1].state.y1[:] = saved


@pytest.fixture(scope="module")
def crosscheck_out(tmp_path_factory):
    return _quick_round("crosscheck", tmp_path_factory.mktemp("crosscheck"))


def test_crosscheck_report_fails_on_corrupted_table(crosscheck_out, tmp_path):
    w, tracer = crosscheck_out
    results = tmp_path / "results"
    shutil.copytree(w.results, results)
    _edit_csv(results / "fd_comparison.csv", 3, "absolute", lambda v: v * 1.01)
    (fem,) = tracer.results_of("stepping.run_simulation")
    (fd,) = tracer.results_of("fdcheck.run_fd")
    with pytest.raises(checks.CheckFailed, match="^crosscheck-report:"):
        checks.check_crosscheck(results, fem, fd)


def test_crosscheck_gate_fails_on_corrupted_solution(crosscheck_out):
    w, tracer = crosscheck_out
    (fem,) = tracer.results_of("stepping.run_simulation")
    saved = fem.snapshots[1].state.y1.copy()
    fem.snapshots[1].state.y1 += 2e-4
    try:
        with pytest.raises(checks.CheckFailed, match="^crosscheck-gate:"):
            w.check(w, tracer)
    finally:
        fem.snapshots[1].state.y1[:] = saved


def test_p1_norm_is_exact_for_linear_data():
    x = np.linspace(0.0, 1.0, 7)
    assert checks.p1_l2(x, 2.0 * x) == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-14)


# ------------------------------------------------------------- spans


def test_self_time_subtracts_the_union_of_children():
    tr = Tracer()
    tr.spans = [Span("root", 0.0, 10.0, None), Span("a", 1.0, 4.0, 0),
                Span("b", 3.0, 5.0, 0), Span("c", 2.0, 3.0, 1),
                Span("d", 8.0, 12.0, 0)]
    assert tr.self_time(0) == pytest.approx(10.0 - 4.0 - 2.0)
    assert tr.self_time(1) == pytest.approx(2.0)


def test_wrapped_calls_nest_and_restore():
    import stentsim.analysis
    import stentsim.cli

    tr = Tracer()
    original = stentsim.cli.build_operators
    p = workloads.seeded_params(1)
    with tr.installed(measure.MODULES):
        assert stentsim.cli.build_operators is not original
        tr.call("outer", lambda: stentsim.cli.build_operators(p, 2, 2))
    assert stentsim.cli.build_operators is original
    assert stentsim.analysis.build_operators is original
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("outer", None), ("fem.build_operators", 0)]


# ------------------------------------------------------------- refusal


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "stentbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "stentbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
