import csv
import dataclasses
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stentsim import ValidationError, output, paper_params
from stentsim.fem import build_operators
from stentsim.output import (_digits, _hundredths, _lines, _points,
                             emit_svg_plot, write_record_csv)
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


def read_back(out_dir):
    """The snapshots as (t, c, c1, c2) tuples, arrays ordered by x and
    tuples by t, and the interface and monitor columns by name."""
    by_time = {}
    with (out_dir / "snapshots.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            slot = by_time.setdefault(float(row["t"]),
                                      {"c": [], "c1": [], "c2": []})
            slot[row["field"]].append((float(row["x"]), float(row["value"])))
    snapshots = [(t, *(np.array([v for _, v in sorted(by_time[t][name])])
                       for name in ("c", "c1", "c2")))
                 for t in sorted(by_time)]

    def table(name):
        with (out_dir / name).open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {key: np.array([float(r[key]) for r in rows])
                for key in rows[0]}

    return snapshots, table("interface.csv"), table("monitors.csv")


def test_roundtrip_exact(record, tmp_path):
    write_record_csv(record, tmp_path)
    snapshots, interface, monitors = read_back(tmp_path)
    assert len(snapshots) == len(record.snapshots)
    for (t, y0, y1, y2), snap in zip(snapshots, record.snapshots):
        assert t == snap.t
        np.testing.assert_array_equal(y0, snap.state.y0)
        np.testing.assert_array_equal(y1, snap.state.y1)
        np.testing.assert_array_equal(y2, snap.state.y2)
    np.testing.assert_array_equal(interface["t"], record.interface.t)
    np.testing.assert_array_equal(
        interface["c1_at_0"], record.interface.c1_at_0
    )
    np.testing.assert_array_equal(monitors["mass"], record.monitors.mass)
    np.testing.assert_array_equal(
        monitors["mass_balance_residual"],
        record.monitors.balance_residual,
    )


def test_streamed_bytes_match_csv_writer(record, tmp_path):
    # the bytes csv.writer gives for the rows sorted by (t, domain, x, field)
    def writer_bytes(path, header, rows):
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([f"{v:.16e}" if isinstance(v, float) else v
                            for v in row])
        return path.read_bytes()

    snap_rows = []
    for snap in record.snapshots:
        for domain, nodes, name, values in (
                ("s", record.mesh_s.nodes, "c", snap.state.y0),
                ("m", record.mesh_m.nodes, "c1", snap.state.y1),
                ("m", record.mesh_m.nodes, "c2", snap.state.y2)):
            snap_rows += [(snap.t, domain, float(x), name, float(v))
                          for x, v in zip(nodes, values)]
    snap_rows.sort(key=lambda r: r[:4])
    ifc, mon = record.interface, record.monitors
    expected = {
        "snapshots.csv": (["t", "domain", "x", "field", "value"], snap_rows),
        "interface.csv": (["t", "c_at_0", "c1_at_0", "c1_at_1"],
                          zip(ifc.t, ifc.c_at_0, ifc.c1_at_0, ifc.c1_at_1)),
        "monitors.csv": (["t", "mass", "energy", "mass_balance_residual"],
                         zip(mon.t, mon.mass, mon.energy,
                             mon.balance_residual)),
    }
    ref = tmp_path / "ref"
    ref.mkdir()
    for path in write_record_csv(record, tmp_path / "out"):
        header, rows = expected[path.name]
        assert path.read_bytes() == writer_bytes(ref / path.name, header,
                                                 rows)


def test_multirate_every_step_files_match_oracle(tmp_path):
    # alg1 with media substeps, every step recorded: c1(1) starts at 0,
    # holds values near 5e-17 and dips below zero, and the balance
    # residual is negative
    ops = build_operators(P, 20, 25)
    dt = 0.5 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h, 4, "media")
    cfg = SchemeConfig("alg1", dt, t_end=600 * dt, substep_ratio=4,
                       substep_domain="media")
    rec = run_simulation(P, ops, cfg, [0.0, 300 * dt, 600 * dt])
    c1_at_1 = rec.interface.c1_at_1
    assert (c1_at_1 < 0).any() and (c1_at_1 == 0).any()
    assert ((c1_at_1 != 0) & (np.abs(c1_at_1) < 1e-15)).any()
    assert (rec.monitors.balance_residual < 0).any()
    want = oracles.record_csv_oracle(rec)
    for path in write_record_csv(rec, tmp_path):
        assert path.read_bytes() == want[path.name]


def interface_t_holds_negative_zero(rec):
    # the interface's own t array, equal to the monitors' but for -0.0
    t = rec.interface.t.copy()
    t[0] = -0.0
    return dataclasses.replace(
        rec, interface=dataclasses.replace(rec.interface, t=t))


RECORD_CASES = {
    "no-snapshots": lambda rec: dataclasses.replace(rec, snapshots=[]),
    "one-snapshot": lambda rec: dataclasses.replace(
        rec, snapshots=rec.snapshots[1:2]),
    "out-of-order": lambda rec: dataclasses.replace(
        rec, snapshots=[rec.snapshots[i] for i in (1, 2, 0)]),
    "distinct-t": interface_t_holds_negative_zero,
}


@pytest.mark.parametrize("case", RECORD_CASES)
def test_record_files_match_oracle(record, case, tmp_path):
    rec = RECORD_CASES[case](record)
    want = oracles.record_csv_oracle(rec)
    for path in write_record_csv(rec, tmp_path):
        assert path.read_bytes() == want[path.name]
    if case == "no-snapshots":
        assert want["snapshots.csv"] == b"t,domain,x,field,value\r\n"
    if case == "distinct-t":
        assert want["interface.csv"] != want["monitors.csv"]


@pytest.mark.parametrize("block", [1, 5, 17, 40])
def test_record_files_match_oracle_in_small_blocks(record, block, tmp_path,
                                                   monkeypatch):
    # a snapshot has 7 stent and 2 * 5 media rows: blocks of 5 end inside
    # one, of 17 at its end and of 40 after two; the 31 rows of the series
    # split in blocks too.  The snapshots come out of time order and the
    # interface has its own t
    monkeypatch.setattr(output, "_BLOCK", block)
    rec = interface_t_holds_negative_zero(dataclasses.replace(
        record, snapshots=record.snapshots[::-1]))
    want = oracles.record_csv_oracle(rec)
    for path in write_record_csv(rec, tmp_path):
        assert path.read_bytes() == want[path.name]


# ------------------------------------------------ the '%.16e' formatter


def formatted(x):
    """The fields the record writer prints for the values of x."""
    return b"".join(_lines([np.asarray(x, dtype=float), b"\n"])).split(
        b"\n")[:-1]


def printed(x):
    return [b"%.16e" % v for v in np.asarray(x, dtype=float).tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_formatter_matches_percent_on_any_float(values):
    # nan, +-inf, +-0 and subnormals included
    assert formatted(values) == printed(values)


def test_formatter_matches_percent_on_random_bit_patterns():
    bits = np.random.default_rng(23).integers(0, 2 ** 64, 100_000,
                                              dtype=np.uint64)
    x = bits.view(np.float64)
    assert formatted(x) == printed(x)


def test_formatter_matches_percent_at_powers_of_ten():
    # 10**E and its neighbours: exponents of one to three digits, log10
    # landing on either side of E, and rounding up to 10**17 digits
    p10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    x = np.concatenate([p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf)])
    x = np.concatenate([x, -x])
    assert formatted(x) == printed(x)
    # log10 misses E next to 10**E and some digits round up to 10**17;
    # both are taken without '%', which gets only the exact ties
    a = x[(x >= 1e-280) & (x < 1e280)]
    _, _, decided = _digits(a)
    for v in a[~decided].tolist():
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    top = np.finfo(float).max
    edges = [top, -top, 5e-324, -5e-324, 1e-280, 1e280]
    assert formatted(edges) == printed(edges)


def test_formatter_falls_back_on_exact_ties():
    # (2i+1) 2**-j with 18 significant digits ends in a 5 after the 17th:
    # an exact tie, which only '%' can round
    rng = np.random.default_rng(5)
    i = rng.integers(0, 2 ** 40, 50_000)
    j = rng.integers(1, 120, 50_000)
    x = (2 * i + 1) * np.exp2(-j.astype(float))
    ties = np.arange(13107, 2 ** 17, 16) * 2.0 + 1  # (2i+1) 2**-18 in (0.1, 1)
    x = np.concatenate([x, ties * 2.0 ** -18])
    _, _, decided = _digits(x)
    assert not decided.all()
    assert formatted(x) == printed(x)


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


def test_svg_polyline_matches_per_point_formula(tmp_path):
    # the polyline is mapped and formatted one series at a time; its bytes
    # are those of f"{sx(a):.2f},{sy(b):.2f}" with sx and sy evaluated on
    # each point's numpy scalars.  Binary ties at .xx5 (.125, .375, ...)
    # round half to even, and values just below 0 round to -0.00
    edge = np.array([62.125, 62.375, 100.625, 0.875, -0.001, -0.0049,
                     -0.0, 0.005, 1.005, 2.675])
    assert _points(edge, edge[::-1]) == " ".join(
        f"{a:.2f},{b:.2f}" for a, b in zip(edge, edge[::-1]))
    assert _points(edge[4:7], edge[4:7]) == "-0.00,-0.00 " * 2 + "-0.00,-0.00"
    # on t = k/1024 over [0, 1], sx(t) = 62 + 560 t is a multiple of 1/64,
    # so many points sit on .xx5 ties
    t = np.arange(1025) / 1024
    y = np.sin(7.0 * t) * t
    path = emit_svg_plot([("a", t, y), ("b", t, -2.0 * y)], tmp_path / "p.svg")
    ml, mt, pw, ph = 62, 34, 560, 340  # the plot area's margins and size
    y_lo, y_hi = min(y.min(), (-2.0 * y).min()), max(y.max(), (-2.0 * y).max())
    pad = (y_hi - y_lo) * 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad
    want = [" ".join(f"{ml + (a - 0.0) / (1.0 - 0.0) * pw:.2f},"
                     f"{mt + ph - (b - y_lo) / (y_hi - y_lo) * ph:.2f}"
                     for a, b in zip(t, ys)) for ys in (y, -2.0 * y)]
    got = [part.split('"')[0]
           for part in path.read_text().split('points="')[1:]]
    assert got == want
    assert np.count_nonzero((ml + pw * t) * 8 % 2 == 1) == 64  # the ties


# ------------------------------------------------- the '%.2f' formatter


def assert_points_match_percent(x):
    """_points on the values of x, as x and as y coordinates, gives the
    bytes of '%.2f,%.2f' per point."""
    x = np.asarray(x, dtype=float)
    for px, py in ((x, x[::-1]), (x[::-1], x)):
        assert _points(px, py) == oracles.points_oracle(px, py)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1000, exclude_max=True), min_size=1,
                max_size=64))
def test_points_match_percent_on_any_float_below_1000(values):
    assert_points_match_percent(values)


def test_points_fall_back_on_exact_ties():
    # k/8 times 100 is a multiple of 12.5: every odd k is an exact tie,
    # which '%' rounds half to even
    x = np.arange(8 * 1000) / 8
    _, decided = _hundredths(x)
    assert not decided[1::2].any()
    assert_points_match_percent(x)


def test_points_match_percent_near_ties():
    # 2.675 and 1.005 are just below their ties and print 2.67 and 1.00;
    # the fractions of 100 v within 1e-6 of 1/2 fall back to '%', and
    # those 2e-6 off it are decided in numpy
    near = np.array([2.675, 1.005, 0.125, 1.015, 999999.985])
    k = np.arange(100_000) + 0.5
    x = np.concatenate([near, k / 100, (k + 2e-6) / 100, (k - 2e-6) / 100])
    _, decided = _hundredths(x)
    assert decided.any() and not decided.all()
    assert_points_match_percent(x)


def test_points_match_percent_on_zeros_and_negatives():
    x = [0.0, -0.0, -5e-324, -1e-300, -0.001, -0.0049, -0.004999, -0.005,
         -0.0051, 5e-324, 0.001, 0.0049, 0.005]
    assert_points_match_percent(x)
    assert _points(np.array([-0.001]), np.array([-0.0])) == "-0.00,-0.00"


def test_points_match_percent_from_1e6_up():
    x = [1e6, np.nextafter(1e6, 0), 999999.995, 999999.994, 1e6 + 0.125,
         123456789.125, 1e20, np.finfo(float).max]
    _, decided = _hundredths(np.array(x))
    assert decided.tolist() == [False, True, False, True] + [False] * 4
    assert_points_match_percent(x)


def test_points_match_percent_where_only_some_fall_back():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0, 640, 5000), np.arange(40) / 8,
                        [-0.0, -0.001, 2.675, 1e7, 1e20]])
    x = x[rng.permutation(len(x))]
    _, decided = _hundredths(x)
    assert 0 < np.count_nonzero(~decided) < 100
    assert_points_match_percent(x)


def test_long_chart_matches_one_line_formatter(tmp_path, monkeypatch):
    # a chart of 33 000 points, as long as the release run's interface
    # chart, is the chart the one-line '%.2f,%.2f' formatter gave
    t = np.arange(33_000) / 1024
    series = [("c1", t[:22_000], 1.0 - np.exp(-t[:22_000] / 7.0)),
              ("c2", t[::3], np.sin(t[::3]) * t[::3])]
    new = emit_svg_plot(series, tmp_path / "new.svg").read_bytes()
    monkeypatch.setattr(output, "_points", oracles.points_oracle)
    old = emit_svg_plot(series, tmp_path / "old.svg").read_bytes()
    assert new == old
    assert new.count(b",") == 33_000  # a comma per point


def test_svg_empty_series_rejected(tmp_path):
    with pytest.raises(ValidationError):
        emit_svg_plot([], tmp_path / "d.svg")
    with pytest.raises(ValidationError):
        emit_svg_plot([("x", np.array([]), np.array([]))],
                      tmp_path / "e.svg")
