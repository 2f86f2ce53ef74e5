import dataclasses

import numpy as np
import pytest

from stentsim import (CflError, compare_records, derived_constants, fdcheck,
                      paper_params)
from stentsim.fdcheck import run_fd
from stentsim.fem import build_operators
from stentsim.stepping import (SchemeConfig, run_simulation, sharp_dt_limit,
                               stable_step_count)

P = paper_params()


def fd_dt(n_s, n_m, frac=0.9):
    return frac * sharp_dt_limit(P, P.l / n_s, 1.0 / n_m)


def test_zero_initial_data_stays_zero():
    dt = fd_dt(8, 8)
    rec = run_fd(P, 8, 8, dt, 50 * dt, [0.0, 50 * dt], stent_init=0.0)
    for snap in rec.snapshots:
        assert np.all(snap.state.y0 == 0.0)
        assert np.all(snap.state.y1 == 0.0)
        assert np.all(snap.state.y2 == 0.0)
    assert np.all(rec.monitors.mass == 0.0)
    assert np.all(rec.monitors.energy == 0.0)


def test_held_wall_field_drives_uptake_to_partition_value():
    # c1 frozen at a: c2 approaches K*a geometrically at every node
    a = 0.21
    dt = fd_dt(4, 4, frac=0.5)
    n = 60
    rec = run_fd(P, 4, 4, dt, n * dt, [n * dt], hold_c1_at=a)
    c2 = rec.snapshots[-1].state.y2
    x = dt * P.da / ((1.0 - P.phi) * P.k_part)
    # 1 - (1-x)^n without the cancellation of the direct form
    expected = -P.k_part * a * np.expm1(n * np.log1p(-x))
    np.testing.assert_allclose(c2, expected, rtol=1e-12)
    # gap toward the fixed point shrank by exactly (1-x)^n
    assert abs(P.k_part * a - c2[0]) == pytest.approx(
        P.k_part * a * (1.0 - x) ** n, rel=1e-10
    )


def test_cfl_rejected():
    # the same sharp limit as the finite-element gate; the classical
    # bounds min(h_s^2/(2*delta), phi*h_m^2/2) admitted 24x it on 60/1
    for n_s, n_m in ((8, 8), (60, 1), (200, 1)):
        limit = sharp_dt_limit(P, P.l / n_s, 1.0 / n_m)
        classical = min((P.l / n_s) ** 2 / (2 * P.delta),
                        P.phi / (2 * n_m ** 2))
        for dt in (1.01 * limit, 0.99 * classical):
            with pytest.raises(CflError, match="stability allowance"):
                run_fd(P, n_s, n_m, dt, 100 * dt, [0.0])
        run_fd(P, n_s, n_m, limit, 0.0, [0.0])


@pytest.mark.parametrize("pe,n_s,n_m", [(30.0, 8, 6), (10.0, 60, 1)])
def test_cell_peclet_above_two_refused(monkeypatch, pe, n_s, n_m):
    # the central advection difference grows at the sharp limit once
    # pe*h_m > 2 (spectral radius 1.33 and 1.28 for these two cases);
    # refused before the first step, before any output is allocated
    def no_recorder(*args):
        raise AssertionError("stepped past the gate")

    monkeypatch.setattr(fdcheck, "RunRecorder", no_recorder)
    p = dataclasses.replace(P, pe=pe)
    dt = sharp_dt_limit(p, p.l / n_s, 1.0 / n_m)
    with pytest.raises(CflError, match="cell Peclet number"):
        run_fd(p, n_s, n_m, dt, 100 * dt, [0.0])


def test_cell_peclet_two_accepted_and_stable():
    # pe*h_m = 2 exactly, at the sharp limit: accepted, and the energy
    # stays inside the growth envelope over 2000 steps
    p = dataclasses.replace(P, pe=12.0)
    dt = sharp_dt_limit(p, p.l / 8, 1.0 / 6)
    n = 2000
    rec = run_fd(p, 8, 6, dt, n * dt, [n * dt], record_every=100)
    mon = rec.monitors
    envelope = mon.energy[0] * np.exp(2.0 * derived_constants(p).big_m * mon.t)
    assert np.all(mon.energy <= envelope)


def test_stent_mass_nonincreasing():
    dt = fd_dt(16, 16)
    n = 400
    rec = run_fd(P, 16, 16, dt, n * dt, [0.0, n * dt])
    sm = rec.monitors.stent_mass
    assert sm[0] == pytest.approx(P.l, rel=1e-12)
    assert np.all(np.diff(sm) <= 1e-15)


def test_fd_and_fem_converge_together_under_refinement():
    # halving both mesh widths (dt following the stability limit) shrinks
    # the solver difference by at least a factor two per level, per field
    t_end = 0.5
    snaps = [k * t_end / 5 for k in range(6)]
    diffs = []
    for n in (25, 50, 100):
        n_steps = stable_step_count(P, P.l / n, 1.0 / n, t_end, multiple_of=5)
        dt = t_end / n_steps
        ops = build_operators(P, n, n)
        cfg = SchemeConfig("monolithic", dt, t_end=t_end)
        fem = run_simulation(P, ops, cfg, snaps, record_every=n_steps)
        fd = run_fd(P, n, n, dt, t_end, snaps, record_every=n_steps)
        rep = compare_records(fd, fem)
        diffs.append({f: rep.field(f).linf_l2 for f in ("c", "c1", "c2")})
    for coarse, fine in zip(diffs, diffs[1:]):
        for name in ("c", "c1", "c2"):
            assert coarse[name] >= 2.0 * fine[name]


def test_record_shape_matches_fem_conventions():
    dt = fd_dt(6, 5)
    rec = run_fd(P, 6, 5, dt, 10 * dt, [0.0, 10 * dt])
    assert rec.mesh_s.n_elems == 6 and rec.mesh_m.n_elems == 5
    snap = rec.snapshots[0]
    assert len(snap.state.y0) == 7
    assert len(snap.state.y1) == 6
    assert rec.config["solver"] == "fd"
    assert len(rec.interface.t) == len(rec.monitors.t)
