import dataclasses

import numpy as np
import pytest

from stentsim import (CflError, compare_records, energy_growth_rate, fdcheck,
                      paper_params)
from stentsim.fdcheck import _FdStep, run_fd
from stentsim.fem import MEDIA, STENT, build_mesh, build_operators
from stentsim.stepping import (SchemeConfig, run_simulation, sharp_dt_limit,
                               stable_step_count)

import oracles

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
    envelope = mon.energy[0] * np.exp(2.0 * energy_growth_rate(p) * mon.t)
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


# ------------------------------------------- assembled step vs the stencils


def fd_meshes(p, n_s, n_m):
    return build_mesh(STENT, n_s, l=p.l), build_mesh(MEDIA, n_m)


def assembled_step(p, n_s, n_m, dt, c, c1, c2, hold_c1=False):
    fd = _FdStep(p, *fd_meshes(p, n_s, n_m), dt, hold_c1=hold_c1)
    z, c2n = fd.step(np.concatenate([c, c1]), c2)
    return z[:fd.n0], z[fd.n0:], c2n


@pytest.mark.parametrize("pe,n_s,n_m,hold", [
    pytest.param(P.pe, 8, 6, False, id="8-6"),
    pytest.param(P.pe, 60, 1, False, id="60-1"),
    pytest.param(12.0, 8, 6, False, id="pe12-8-6"),
    pytest.param(P.pe, 8, 6, True, id="hold-8-6"),
])
def test_assembled_step_matches_stencil_oracle(pe, n_s, n_m, hold):
    # one step from a state with every node nonzero, at the sharp limit;
    # pe = 12 on 8/6 puts pe*h_m = 2, the largest cell Peclet number the
    # gate admits
    p = dataclasses.replace(P, pe=pe)
    rng = np.random.default_rng(n_s + n_m)
    c = rng.uniform(0.5, 1.0, n_s + 1)
    c1 = np.full(n_m + 1, 0.21) if hold else rng.uniform(0.0, 0.5, n_m + 1)
    c2 = rng.uniform(0.0, 0.2, n_m + 1)
    mesh_s, mesh_m = fd_meshes(p, n_s, n_m)
    dt = sharp_dt_limit(p, mesh_s.h, mesh_m.h)
    got = assembled_step(p, n_s, n_m, dt, c, c1, c2, hold_c1=hold)
    want = oracles.fd_step_oracle(p, mesh_s.h, mesh_m.h, dt, c, c1, c2,
                                  hold_c1=hold)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))
    if hold:
        np.testing.assert_array_equal(got[1], c1)


def test_run_fd_matches_repeated_oracle_steps():
    # 2000 steps at 16/16 from the standard initial data
    n_s, n_m, n = 16, 16, 2000
    dt = fd_dt(n_s, n_m)
    rec = run_fd(P, n_s, n_m, dt, n * dt, [n * dt], record_every=n)
    mesh_s, mesh_m = fd_meshes(P, n_s, n_m)
    c, c1, c2 = np.ones(n_s + 1), np.zeros(n_m + 1), np.zeros(n_m + 1)
    for _ in range(n):
        c, c1, c2 = oracles.fd_step_oracle(P, mesh_s.h, mesh_m.h, dt,
                                           c, c1, c2)
    final = rec.snapshots[-1].state
    for got, want in ((final.y0, c), (final.y1, c1), (final.y2, c2)):
        assert np.max(np.abs(got - want)) <= 1e-12
