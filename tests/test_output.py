import csv

import numpy as np
import pytest

from stentsim import ValidationError, paper_params
from stentsim.fem import build_operators
from stentsim.output import (
    emit_svg_plot,
    read_record_csv,
    write_record_csv,
)
from stentsim.stepping import SchemeConfig, run_simulation, sharp_dt_limit

P = paper_params()


@pytest.fixture(scope="module")
def record():
    ops = build_operators(P, 6, 4)
    dt = 0.5 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)
    cfg = SchemeConfig("monolithic", dt, t_end=30 * dt)
    return run_simulation(P, ops, cfg, [0.0, 15 * dt, 30 * dt])


def test_csv_files_and_headers(record, tmp_path):
    paths = write_record_csv(record, tmp_path)
    assert [p.name for p in paths] == [
        "snapshots.csv", "interface.csv", "monitors.csv",
    ]
    with paths[0].open() as fh:
        assert fh.readline().strip() == "t,domain,x,field,value"
    with paths[1].open() as fh:
        assert fh.readline().strip() == "t,c_at_0,c1_at_0,c1_at_1"
    with paths[2].open() as fh:
        assert fh.readline().strip() == "t,mass,energy,mass_balance_residual"


def test_initial_snapshot_rows_are_unit_stent(record, tmp_path):
    write_record_csv(record, tmp_path)
    with (tmp_path / "snapshots.csv").open() as fh:
        rows = [r for r in csv.DictReader(fh)]
    first_t = min(float(r["t"]) for r in rows)
    stent_rows = [r for r in rows
                  if float(r["t"]) == first_t and r["domain"] == "s"]
    assert len(stent_rows) == 7
    assert all(r["field"] == "c" for r in stent_rows)
    assert all(float(r["value"]) == 1.0 for r in stent_rows)


def test_rows_sorted_and_monitors_start_at_mass_l(record, tmp_path):
    write_record_csv(record, tmp_path)
    with (tmp_path / "snapshots.csv").open() as fh:
        keys = [(float(r["t"]), r["domain"], float(r["x"]), r["field"])
                for r in csv.DictReader(fh)]
    assert keys == sorted(keys)
    with (tmp_path / "monitors.csv").open() as fh:
        first = next(csv.DictReader(fh))
    assert float(first["mass"]) == pytest.approx(P.l, rel=1e-14)
    assert float(first["energy"]) == pytest.approx(P.l, rel=1e-14)


def test_monolithic_residual_column_is_roundoff(record, tmp_path):
    write_record_csv(record, tmp_path)
    with (tmp_path / "monitors.csv").open() as fh:
        resid = [float(r["mass_balance_residual"]) for r in csv.DictReader(fh)]
    assert max(abs(v) for v in resid) <= 1e-10 * P.l


def test_roundtrip_exact(record, tmp_path):
    write_record_csv(record, tmp_path)
    data = read_record_csv(tmp_path)
    assert len(data.snapshots) == len(record.snapshots)
    for (t, y0, y1, y2), snap in zip(data.snapshots, record.snapshots):
        assert t == snap.t
        np.testing.assert_array_equal(y0, snap.state.y0)
        np.testing.assert_array_equal(y1, snap.state.y1)
        np.testing.assert_array_equal(y2, snap.state.y2)
    np.testing.assert_array_equal(data.interface["t"], record.interface.t)
    np.testing.assert_array_equal(
        data.interface["c1_at_0"], record.interface.c1_at_0
    )
    np.testing.assert_array_equal(data.monitors["mass"], record.monitors.mass)
    np.testing.assert_array_equal(
        data.monitors["mass_balance_residual"],
        record.monitors.balance_residual,
    )


def test_empty_record_rejected(tmp_path):
    from stentsim.stepping import InterfaceSeries, MonitorSeries, SolutionRecord
    empty = SolutionRecord(
        mesh_s=None, mesh_m=None, snapshots=[],
        interface=InterfaceSeries(*(np.array([]),) * 4),
        monitors=MonitorSeries(*(np.array([]),) * 5),
    )
    with pytest.raises(ValidationError):
        write_record_csv(empty, tmp_path)


# ------------------------------------------------------------------- SVG


def test_svg_deterministic(tmp_path):
    t = np.linspace(0, 1, 50)
    series = [("rise", t, np.sin(t)), ("fall", t, np.cos(t))]
    p1 = emit_svg_plot(series, tmp_path / "a.svg", title="demo")
    p2 = emit_svg_plot(series, tmp_path / "b.svg", title="demo")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text and "demo" in text
    assert text.count("<polyline") == 2


def test_svg_constant_series_is_horizontal(tmp_path):
    t = np.linspace(0, 2, 5)
    p = emit_svg_plot([("flat", t, np.full(5, 3.0))], tmp_path / "c.svg")
    text = p.read_text()
    pts = text.split('points="')[1].split('"')[0]
    ys = {pair.split(",")[1] for pair in pts.split()}
    assert len(ys) == 1


def test_svg_empty_series_rejected(tmp_path):
    with pytest.raises(ValidationError):
        emit_svg_plot([], tmp_path / "d.svg")
    with pytest.raises(ValidationError):
        emit_svg_plot([("x", np.array([]), np.array([]))],
                      tmp_path / "e.svg")
