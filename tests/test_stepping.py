import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from stentsim import CflError, InstabilityError, ValidationError, paper_params
from stentsim import stepping
from stentsim.analysis import make_reference
from stentsim.fdcheck import _FdStep, _trapezoid_monitor, run_fd
from stentsim.fem import MEDIA, STENT, build_mesh, build_operators
from stentsim.params import energy_growth_rate
from stentsim.stepping import (
    LEAP_MAX_ENTRIES,
    RECORD_BLOCK,
    RunRecorder,
    SchemeConfig,
    SimState,
    _Kernel,
    initial_state,
    run_simulation,
    sharp_dt_limit,
    stable_step_count,
    step_count,
)

import oracles

P = paper_params()


def small_ops(n_s=8, n_m=6):
    return build_operators(P, n_s, n_m)


def safe_dt(ops, frac=0.5):
    return frac * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)


def state_norm(a: SimState, b: SimState) -> float:
    return math.sqrt(
        np.sum((a.y0 - b.y0) ** 2)
        + np.sum((a.y1 - b.y1) ** 2)
        + np.sum((a.y2 - b.y2) ** 2)
    )


# ----------------------------------------------------------- initial state


def measure(ops, y0, y1, y2):
    """Mass, stent mass and energy of one state: the kernel's block
    monitor on a one-record block."""
    block = np.concatenate([y0, y1, y2])[None, :]
    kern = _Kernel(P, ops, safe_dt(ops))
    return tuple(float(v[0]) for v in kern.monitor.measure(block))


def stacked(s):
    return np.concatenate([s.y0, s.y1])


def advance(s, ops, dt, variant="monolithic", n=1):
    """n macro steps of ``variant`` from s, all through one _Kernel."""
    kern = _Kernel(P, ops, dt)
    z, y2 = stacked(s), s.y2
    for _ in range(n):
        z, y2 = kern.macro_step(z, y2, variant)
    return SimState(z[:kern.n0], z[kern.n0:], y2, s.t + n * dt)


def test_initial_state_values():
    ops = small_ops()
    s = initial_state(ops)
    assert np.all(s.y0 == 1.0) and np.all(s.y1 == 0.0) and np.all(s.y2 == 0.0)
    assert s.t == 0.0
    mass, _, energy = measure(ops, s.y0, s.y1, s.y2)
    assert mass == pytest.approx(P.l, rel=1e-14)
    assert energy == pytest.approx(P.l, rel=1e-14)


def test_mass_of_unit_wall_state():
    ops = small_ops()
    s = initial_state(ops)
    s.y0[:] = 0.0
    s.y1[:] = 1.0
    assert measure(ops, s.y0, s.y1, s.y2)[0] == pytest.approx(P.phi, rel=1e-14)


def test_energy_quadratic_scaling():
    ops = small_ops()

    def energy(scale):
        return measure(ops, scale * s.y0, scale * s.y1, scale * s.y2)[2]

    s = initial_state(ops)
    s.y1[:] = 0.3
    s.y2[:] = -0.1
    e1 = energy(1.0)
    assert energy(2.0) == pytest.approx(4 * e1, rel=1e-13)
    assert energy(0.0) == 0.0


# ------------------------------------------------------------ single steps


def test_monolithic_first_step_against_dense_oracle():
    ops = small_ops()
    dt = safe_dt(ops)
    s1 = advance(initial_state(ops), ops, dt)
    assert s1.t == dt

    # y2 stays zero: its only source is y1, which starts at zero
    assert np.all(s1.y2 == 0.0)

    # y1' solves Psi_m y1 = (dt/phi)*delta*P*e_first (dense quadrature oracle)
    psi_m = oracles.quad_mass(ops.mesh_m.nodes)
    rhs = np.zeros(ops.mesh_m.n_elems + 1)
    rhs[0] = dt / P.phi * P.delta * P.p_tilde
    np.testing.assert_allclose(s1.y1, np.linalg.solve(psi_m, rhs), rtol=1e-11)

    # y0' solves Psi_s y0 = Psi_s 1 - dt*A 1 = Psi_s 1 - dt*delta*P*e_last
    psi_s = oracles.quad_mass(ops.mesh_s.nodes)
    rhs_s = psi_s @ np.ones(ops.mesh_s.n_elems + 1)
    rhs_s[-1] -= dt * P.delta * P.p_tilde
    np.testing.assert_allclose(s1.y0, np.linalg.solve(psi_s, rhs_s), rtol=1e-11)


def test_zero_state_is_fixed_point():
    ops = small_ops()
    zero = SimState(
        np.zeros(ops.mesh_s.n_elems + 1),
        np.zeros(ops.mesh_m.n_elems + 1),
        np.zeros(ops.mesh_m.n_elems + 1),
        0.0,
    )
    dt = safe_dt(ops)
    for variant in ("monolithic", "alg1", "alg2"):
        out = advance(zero, ops, dt, variant)
        assert np.all(out.y0 == 0.0)
        assert np.all(out.y1 == 0.0)
        assert np.all(out.y2 == 0.0)


def test_alg1_shares_stage_one_with_monolithic():
    ops = small_ops()
    dt = safe_dt(ops)
    s0 = initial_state(ops)
    mono = advance(s0, ops, dt)
    a1 = advance(s0, ops, dt, "alg1")
    np.testing.assert_array_equal(a1.y0, mono.y0)
    np.testing.assert_array_equal(a1.y2, mono.y2)


def test_alg2_shares_first_stage_and_fresh_wall_trace():
    ops = small_ops()
    dt = safe_dt(ops)
    s0 = initial_state(ops)
    mono = advance(s0, ops, dt)
    a2 = advance(s0, ops, dt, "alg2")
    np.testing.assert_array_equal(a2.y2, mono.y2)
    # from this initial state y2 is zero either way, so y1 agrees too
    np.testing.assert_array_equal(a2.y1, mono.y1)
    # but y0 consumed the fresh wall trace, which is nonzero
    assert not np.array_equal(a2.y0, mono.y0)


def warmed_state(ops, n_warm=20):
    """March a few steps so every field and trace is nonzero."""
    return advance(initial_state(ops), ops, safe_dt(ops), n=n_warm)


@pytest.mark.parametrize("variant", ["alg1", "alg2"],
                         ids=["step_alg1", "step_alg2"])
def test_single_step_deviation_is_second_order(variant):
    ops = small_ops()
    s = warmed_state(ops)
    dt = safe_dt(ops, frac=0.4)
    devs = []
    for d in (dt, dt / 2, dt / 4):
        devs.append(state_norm(advance(s, ops, d, variant), advance(s, ops, d)))
    assert devs[0] > 0
    # halving dt quarters the one-step difference
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.05)
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.05)


def test_uptake_update_fixed_point_is_k_times_wall_value():
    # holding the wall field at a constant a, the y2 recursion contracts
    # toward K*a with an exact geometric factor
    ops = small_ops()
    dt = safe_dt(ops)
    a = 0.37
    hold = initial_state(ops)
    hold.y1[:] = a
    factor = 1.0 - dt * P.da / ((1.0 - P.phi) * P.k_part)
    y2 = np.zeros(ops.mesh_m.n_elems + 1)
    target = P.k_part * a
    for _ in range(50):
        prev_gap = target - y2[0]
        st0 = SimState(hold.y0.copy(), hold.y1.copy(), y2, 0.0)
        y2 = advance(st0, ops, dt).y2
        new_gap = target - y2[0]
        assert new_gap == pytest.approx(factor * prev_gap, rel=1e-12)
    # fixed point: starting exactly at K*a stays there
    st_fix = SimState(hold.y0.copy(), hold.y1.copy(),
                      np.full(ops.mesh_m.n_elems + 1, target), 0.0)
    y2_fix = advance(st_fix, ops, dt).y2
    np.testing.assert_allclose(y2_fix, target, rtol=1e-14)


# -------------------------------------------------------------- scheme cfg


def test_scheme_config_validation():
    with pytest.raises(ValidationError):
        SchemeConfig("rk4", 1e-4, 1.0)
    with pytest.raises(ValidationError):
        SchemeConfig("alg1", -1e-4, 1.0)
    with pytest.raises(ValidationError):
        SchemeConfig("alg1", 1e-4, 1.0, substep_ratio=0)
    with pytest.raises(ValidationError):
        SchemeConfig("alg1", 1e-4, 1.0, cfl_safety=1.5)
    with pytest.raises(ValidationError):
        SchemeConfig("alg1", 1e-4, 1.0, substep_domain="lumen")


def classical_media_bound(ops):
    """The lumped-mass heat bound phi*h_m^2/2, three times the sharp
    consistent-mass media limit for small h_m."""
    return P.phi * ops.mesh_m.h ** 2 / 2.0


def test_cfl_gate():
    ops = build_operators(P, 50, 25)
    widths = (ops.mesh_s.h, ops.mesh_m.h)
    limit = sharp_dt_limit(P, *widths)
    for dt in (1.01 * limit, 1.01 * classical_media_bound(ops)):
        bad = SchemeConfig("monolithic", dt, t_end=0.0)
        with pytest.raises(CflError, match="substep_domain=stent"):
            run_simulation(P, ops, bad, [0.0])
    SchemeConfig("monolithic", limit, t_end=0.0).check_cfl(P, *widths)
    with pytest.raises(CflError):
        SchemeConfig("monolithic", 0.5 * limit, t_end=0.0,
                     cfl_safety=0.49).check_cfl(P, *widths)
    # on a stent-limited mesh, substepping the stent relaxes the gate and
    # substepping the media does not
    widths = (P.l / 200, 1.0)
    dt = 2.0 * sharp_dt_limit(P, *widths)
    SchemeConfig("monolithic", dt, t_end=0.0, substep_ratio=4).check_cfl(P, *widths)
    with pytest.raises(CflError):
        SchemeConfig("monolithic", dt, t_end=0.0, substep_ratio=4,
                     substep_domain="media").check_cfl(P, *widths)


def test_paper_step_count_passes_gate():
    cfg = SchemeConfig("alg1", 1.0 / 6454, t_end=1.0)
    cfg.check_cfl(P, P.l / 50, 1.0 / 25)


@pytest.mark.parametrize("n_s,n_m,dt_of", [
    pytest.param(10, 10, lambda ops: 0.99 * classical_media_bound(ops),
                 id="classical-media-bound"),
    pytest.param(200, 1, lambda ops: 2.8 * sharp_dt_limit(
        P, ops.mesh_s.h, ops.mesh_m.h), id="stent-limited-200-1"),
])
def test_unstable_steps_refused_before_step_one(monkeypatch, n_s, n_m, dt_of):
    # steps the classical bounds admitted, which blow up mid-run, are
    # refused before the first step
    def no_step(*args):
        raise AssertionError("stepped past the gate")

    monkeypatch.setattr(_Kernel, "macro_step", no_step)
    ops = build_operators(P, n_s, n_m)
    dt = dt_of(ops)
    cfg = SchemeConfig("monolithic", dt, t_end=300 * dt)
    with pytest.raises(CflError, match="stability allowance"):
        run_simulation(P, ops, cfg, [0.0])


def test_t_end_must_be_whole_number_of_steps():
    assert step_count(0.0, 0.003) == 0
    assert step_count(1.0, 1.0 / 6454) == 6454
    for t_end, dt in ((0.01, 0.003), (0.001, 0.003), (1.0, 1.5494e-4)):
        with pytest.raises(ValidationError, match="whole number") as err:
            SchemeConfig("monolithic", dt, t_end=t_end)
        assert err.value.key == "dt_m"


def test_step_count_refuses_ratio_that_overflows():
    # 1e300 / 1e-300 is inf in float64, which round() cannot take
    with pytest.raises(ValidationError, match=re.escape(
            "t_end/dt = 1e+300/1e-300 overflows float64: it is not a finite "
            "number of steps")) as err:
        SchemeConfig("monolithic", 1e-300, t_end=1e300)
    assert err.value.key == "dt_m"
    assert step_count(1e300, 1e-8) == round(1e308)


# ------------------------------------------------- sharp limit is sharp


def step_matrix(kern, variant, ops):
    """Dense matrix of one macro step, column j the image of e_j."""
    a, b = ops.mesh_s.n_elems + 1, ops.mesh_m.n_elems + 1
    cols = []
    for e in np.eye(a + 2 * b):
        z, y2 = kern.macro_step(e[:a + b], e[a + b:], variant)
        cols.append(np.concatenate([z, y2]))
    return np.array(cols).T


def spectral_radius_at_limit(p, n_s, n_m, variant, r=1, domain="stent",
                             scale=1.0):
    ops = build_operators(p, n_s, n_m)
    dt = scale * sharp_dt_limit(p, ops.mesh_s.h, ops.mesh_m.h, r, domain)
    kern = _Kernel(p, ops, dt, r, domain)
    return max(abs(np.linalg.eigvals(step_matrix(kern, variant, ops))))


SETTINGS = {"r1": (1, "stent"), "stent4": (4, "stent"), "media4": (4, "media")}
VARIANT_NAMES = ("monolithic", "alg1", "alg2")


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("n_s,n_m", [
    (8, 6), (20, 10), (50, 25), (60, 1), (1, 60), (60, 60), (30, 50),
])
def test_step_map_stable_at_sharp_limit(n_s, n_m, setting):
    for variant in VARIANT_NAMES:
        rho = spectral_radius_at_limit(P, n_s, n_m, variant, *SETTINGS[setting])
        assert rho <= 1.0 + 1e-12, variant


def test_sharp_limit_is_sharp():
    # 5% past the limit the step map already grows
    assert spectral_radius_at_limit(P, 20, 10, "monolithic", scale=1.05) > 1.0


@pytest.mark.parametrize("pe", [100.0, 300.0, 1000.0])
def test_step_map_stable_at_limit_under_strong_advection(pe):
    p = dataclasses.replace(P, pe=pe)
    for n_s, n_m in ((8, 6), (50, 25)):
        for setting in ("r1", "media4"):
            for variant in VARIANT_NAMES:
                rho = spectral_radius_at_limit(p, n_s, n_m, variant,
                                               *SETTINGS[setting])
                assert rho <= 1.0 + 1e-12, (n_s, n_m, setting, variant)


# --------------------------------------------- macro step vs dense oracle


def dense_macro_step(ops, dt, r, domain, variant, y0, y1, y2):
    """One macro step built sequentially from the module docstring's
    formulas with dense solves: no stacking, no correction columns."""
    psi_s, psi_m = oracles.dense(ops.psi_s), oracles.dense(ops.psi_m)
    mat_a, mat_b = oracles.dense(ops.mat_a), oracles.dense(ops.mat_b)
    dp = P.delta * P.p_tilde
    r_s, r_m = (r, 1) if domain == "stent" else (1, r)
    dt_s, dt_media = dt / r_s, dt / r_m

    def stent(y0, trace_w):
        for _ in range(r_s):
            rhs = (psi_s - dt_s * mat_a) @ y0
            rhs[-1] += dt_s * dp * trace_w
            y0 = np.linalg.solve(psi_s, rhs)
        return y0

    def media(y1, y2, trace_s, fresh_y2):
        for _ in range(r_m):
            y2n = ((1 - dt_media * P.da / ((1 - P.phi) * P.k_part)) * y2
                   + dt_media * P.da / (1 - P.phi) * y1)
            rhs = ((psi_m - dt_media / P.phi * mat_b) @ y1
                   + dt_media * P.da / (P.phi * P.k_part)
                   * (psi_m @ (y2n if fresh_y2 else y2)))
            rhs[0] += dt_media / P.phi * dp * trace_s
            y1, y2 = np.linalg.solve(psi_m, rhs), y2n
        return y1, y2

    if variant == "monolithic":
        return (stent(y0, y1[0]),) + media(y1, y2, y0[-1], False)
    if variant == "alg1":
        y0n = stent(y0, y1[0])
        return (y0n,) + media(y1, y2, y0n[-1], True)
    y1n, y2n = media(y1, y2, y0[-1], True)
    return stent(y0, y1n[0]), y1n, y2n


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("n_s,n_m", [(8, 6), (20, 10)])
def test_macro_step_matches_dense_oracle(n_s, n_m, setting):
    ops = small_ops(n_s, n_m)
    r, domain = SETTINGS[setting]
    dt = 0.5 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h, r, domain)
    kern = _Kernel(P, ops, dt, r, domain)
    warm = warmed_state(ops)
    a = ops.mesh_s.n_elems + 1
    for variant in VARIANT_NAMES:
        z, y2 = np.concatenate([warm.y0, warm.y1]), warm.y2
        y0, y1, y2o = warm.y0, warm.y1, warm.y2
        for _ in range(10):
            z, y2 = kern.macro_step(z, y2, variant)
            y0, y1, y2o = dense_macro_step(ops, dt, r, domain, variant,
                                           y0, y1, y2o)
        for got, want in ((z[:a], y0), (z[a:], y1), (y2, y2o)):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)),
                                       err_msg=variant)


@pytest.mark.parametrize("n_s,n_m,setting", [(8, 1, "media4"),
                                               (1, 6, "stent4")])
def test_one_element_block_matches_dense_oracle(n_s, n_m, setting):
    # a one-element mesh gives a 2-node block: the substeps run its
    # matvec on 2 rows alone
    test_macro_step_matches_dense_oracle(n_s, n_m, setting)


# -------------------------------------------------------------- run driver


def test_t_end_zero_records_only_initial_snapshot():
    ops = small_ops()
    cfg = SchemeConfig("monolithic", safe_dt(ops), t_end=0.0)
    rec = run_simulation(P, ops, cfg, [0.0])
    assert len(rec.snapshots) == 1
    snap = rec.snapshots[0]
    assert snap.t == 0.0
    assert np.all(snap.state.y0 == 1.0)
    assert rec.monitors.mass[0] == pytest.approx(P.l, rel=1e-14)
    assert rec.monitors.energy[0] == pytest.approx(P.l, rel=1e-14)


def test_snapshots_snap_to_step_grid():
    ops = small_ops()
    dt = safe_dt(ops)
    cfg = SchemeConfig("monolithic", dt, t_end=20 * dt)
    rec = run_simulation(P, ops, cfg, [0.0, 7.4 * dt, 20 * dt])
    assert [round(s.t / dt) for s in rec.snapshots] == [0, 7, 20]
    for s in rec.snapshots:
        assert abs(s.t - s.t_request) <= dt / 2 + 1e-15


def test_snapshot_validation():
    ops = small_ops()
    dt = safe_dt(ops)
    cfg = SchemeConfig("monolithic", dt, t_end=10 * dt)
    with pytest.raises(ValidationError):
        run_simulation(P, ops, cfg, [20 * dt])
    with pytest.raises(ValidationError):
        run_simulation(P, ops, cfg, [5 * dt, 2 * dt])


@pytest.mark.parametrize("solver", ["fem", "fd"])
def test_snapshot_requests_on_one_step_refused(solver):
    # the second request used to be dropped: one snapshot for two requests
    ops = small_ops()
    dt = safe_dt(ops)
    snaps = [0.0, 7 * dt, 7.2 * dt]
    with pytest.raises(ValidationError) as err:
        if solver == "fem":
            cfg = SchemeConfig("monolithic", dt, t_end=10 * dt)
            run_simulation(P, ops, cfg, snaps)
        else:
            run_fd(P, 8, 6, dt, 10 * dt, snaps)
    assert str(err.value) == (f"snapshot times {7 * dt!r} and {7.2 * dt!r} "
                              f"both land on step 7 (t={7 * dt!r})")


@pytest.mark.parametrize("variant,domain", [
    pytest.param(variant, domain,
                 id=f"{variant}-step_{variant}" if domain == "stent"
                 else f"{domain}-{variant}-step_{variant}")
    for domain in ("stent", "media")
    for variant in ("monolithic", "alg1", "alg2")
])
def test_ratio_one_matches_manual_stepping_bitwise(variant, domain):
    ops = small_ops()
    dt = safe_dt(ops)
    n = 25
    cfg = SchemeConfig(variant, dt, t_end=n * dt, substep_ratio=1,
                       substep_domain=domain)
    rec = run_simulation(P, ops, cfg, [n * dt])
    s = advance(initial_state(ops), ops, dt, variant, n=n)
    final = rec.snapshots[-1].state
    np.testing.assert_array_equal(final.y0, s.y0)
    np.testing.assert_array_equal(final.y1, s.y1)
    np.testing.assert_array_equal(final.y2, s.y2)


def test_deterministic_reproducibility():
    ops = small_ops()
    dt = safe_dt(ops)
    cfg = SchemeConfig("alg1", dt, t_end=30 * dt, substep_ratio=3)
    rec1 = run_simulation(P, ops, cfg, [30 * dt])
    rec2 = run_simulation(P, ops, cfg, [30 * dt])
    np.testing.assert_array_equal(rec1.monitors.mass, rec2.monitors.mass)
    np.testing.assert_array_equal(rec1.monitors.energy, rec2.monitors.energy)
    np.testing.assert_array_equal(
        rec1.snapshots[-1].state.y1, rec2.snapshots[-1].state.y1
    )


@pytest.mark.parametrize("domain", ["stent", "media"])
@pytest.mark.parametrize("variant", ["monolithic", "alg1", "alg2"])
def test_multirate_runs_and_stays_close_to_single_rate(variant, domain):
    ops = small_ops()
    dt = safe_dt(ops, frac=0.4)
    n = 40
    cfg_multi = SchemeConfig(variant, dt, t_end=n * dt, substep_ratio=4,
                             substep_domain=domain)
    cfg_single = SchemeConfig(variant, dt, t_end=n * dt, substep_ratio=1)
    rec_m = run_simulation(P, ops, cfg_multi, [n * dt])
    rec_s = run_simulation(P, ops, cfg_single, [n * dt])
    dev = state_norm(rec_m.snapshots[-1].state, rec_s.snapshots[-1].state)
    ref = math.sqrt(float(np.sum(rec_s.snapshots[-1].state.y0 ** 2)))
    assert dev < 0.05 * ref


# ------------------------------------------------------------ mass balance


def balance_max(rec):
    return float(np.max(np.abs(rec.monitors.balance_residual)))


def test_monolithic_balance_is_roundoff_exact():
    ops = build_operators(P, 16, 8)
    dt = safe_dt(ops, frac=0.8)
    n = 400
    cfg = SchemeConfig("monolithic", dt, t_end=n * dt)
    rec = run_simulation(P, ops, cfg, [0.0, n * dt])
    m0 = rec.monitors.mass[0]
    assert balance_max(rec) <= 1e-10 * m0


@settings(max_examples=20, deadline=None)
@given(
    n_s=st.integers(min_value=1, max_value=20),
    n_m=st.integers(min_value=1, max_value=12),
    frac=st.floats(min_value=0.05, max_value=0.95),
    n_steps=st.integers(min_value=1, max_value=120),
)
def test_balance_property_random_configs(n_s, n_m, frac, n_steps):
    ops = build_operators(P, n_s, n_m)
    dt = frac * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)
    cfg = SchemeConfig("monolithic", dt, t_end=n_steps * dt)
    rec = run_simulation(P, ops, cfg, [n_steps * dt])
    assert balance_max(rec) <= 1e-10 * rec.monitors.mass[0]


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_decoupled_balance_residual_halves_with_dt(variant):
    ops = build_operators(P, 16, 8)
    t_end = 200 * safe_dt(ops, frac=0.8)
    resids = []
    for n in (250, 500):
        cfg = SchemeConfig(variant, t_end / n, t_end=t_end)
        rec = run_simulation(P, ops, cfg, [t_end])
        resids.append(abs(rec.monitors.balance_residual[-1]))
    assert resids[0] > 0
    ratio = resids[0] / resids[1]
    assert 1.5 <= ratio <= 2.5


# ------------------------------------------------------ stability monitors


def test_energy_stays_inside_growth_envelope():
    ops = build_operators(P, 20, 10)
    dt = safe_dt(ops, frac=0.9)
    n = 500
    cfg = SchemeConfig("monolithic", dt, t_end=n * dt)
    rec = run_simulation(P, ops, cfg, [n * dt])
    e0 = rec.monitors.energy[0]
    envelope = e0 * np.exp(2.0 * energy_growth_rate(P) * rec.monitors.t)
    assert np.all(rec.monitors.energy <= 1.05 * envelope)


def test_unstable_step_is_caught_by_energy_guard(monkeypatch):
    # the safety net behind the gate: with the gate switched off, a step
    # just under the classical media bound (three times the sharp limit)
    # must blow up and be reported rather than produce non-finite output
    monkeypatch.setattr(SchemeConfig, "check_cfl", lambda *args: None)
    ops = build_operators(P, 10, 10)
    dt = 0.99 * classical_media_bound(ops)
    cfg = SchemeConfig("monolithic", dt, t_end=300 * dt)
    with pytest.raises(InstabilityError) as err:
        run_simulation(P, ops, cfg, [0.0])
    # the first record outside the envelope, as a per-record check names it
    assert str(err.value) == (
        "instability detected: energy 6.09525 exceeds 10.0x the growth "
        "envelope 0.0312604 at t=0.0211365")


def test_nonfinite_guard_names_first_bad_record(monkeypatch):
    # the guard runs once per block of RECORD_BLOCK records and still names
    # the first non-finite record: step 300, inside the second block.  The
    # run is held to stepping, so that the poisoned call is a step (its own
    # plan builds G and fills blocks)
    step = _Kernel.macro_step
    calls = []

    def poisoned(self, z, y2, variant):
        calls.append(1)
        z, y2 = step(self, z, y2, variant)
        return (z * np.nan, y2) if len(calls) == 300 else (z, y2)

    monkeypatch.setattr(_Kernel, "macro_step", poisoned)
    monkeypatch.setattr(RunRecorder, "_plan", lambda self: (None, False, ()))
    ops = small_ops()
    dt = safe_dt(ops)
    assert RECORD_BLOCK < 300 < 2 * RECORD_BLOCK
    cfg = SchemeConfig("monolithic", dt, t_end=600 * dt)
    with pytest.raises(InstabilityError) as err:
        run_simulation(P, ops, cfg, [0.0])
    assert str(err.value) == (
        f"instability detected: non-finite state at t={300 * dt:.6g}")


# ------------------------------------------------------------ run recorder

# (n_steps, record_every): 1, 255, 256 and 257 records, and a record_every
# that does not divide n_steps (87 records, the last at n_steps)
RECORD_CASES = [(0, 1), (254, 1), (255, 1), (256, 1), (600, 7)]


def recorded_run(solver, n_steps, record_every):
    """An alg1 finite-element or a finite-difference run on 8/6 with a
    snapshot at every step, and the per-record oracle of its monitors."""
    ops = small_ops()
    dt = safe_dt(ops)
    snaps = [k * dt for k in range(n_steps + 1)]
    if solver == "fem":
        cfg = SchemeConfig("alg1", dt, t_end=n_steps * dt)
        rec = run_simulation(P, ops, cfg, snaps, record_every=record_every)
        return rec, dt, lambda s: oracles.fem_monitors(P, ops, s.y0, s.y1,
                                                       s.y2)
    rec = run_fd(P, 8, 6, dt, n_steps * dt, snaps, record_every=record_every)
    return rec, dt, lambda s: oracles.fd_monitors(
        P, ops.mesh_s.h, ops.mesh_m.h, s.y0, s.y1, s.y2)


@pytest.mark.parametrize("solver", ["fem", "fd"])
@pytest.mark.parametrize("n_steps,record_every", RECORD_CASES)
def test_block_monitors_match_per_record_oracle(solver, n_steps,
                                                record_every):
    rec, dt, oracle = recorded_run(solver, n_steps, record_every)
    states = [snap.state for snap in rec.snapshots]
    assert len(states) == n_steps + 1
    steps = list(range(0, n_steps + 1, record_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    mon, ifc = rec.monitors, rec.interface
    assert mon.t.tolist() == [k * dt for k in steps]
    assert ifc.t is mon.t

    expected = np.array([oracle(states[k]) for k in steps])
    np.testing.assert_allclose(mon.mass, expected[:, 0], rtol=1e-14)
    np.testing.assert_allclose(mon.stent_mass, expected[:, 1], rtol=1e-14)
    np.testing.assert_allclose(mon.energy, expected[:, 2], rtol=1e-14)
    # outflow[k] = sum over steps j < k of y1^j(1)
    outflow = np.concatenate([[0.0], np.cumsum([s.y1[-1] for s in states])])
    resid = expected[:, 0] - expected[0, 0] + P.pe * dt * outflow[steps]
    np.testing.assert_allclose(mon.balance_residual, resid, rtol=0,
                               atol=1e-14 * expected[0, 0])
    assert mon.balance_residual[0] == 0.0
    for k, c0, c1_0, c1_1 in zip(steps, ifc.c_at_0, ifc.c1_at_0,
                                 ifc.c1_at_1):
        s = states[k]
        assert (c0, c1_0, c1_1) == (s.y0[-1], s.y1[0], s.y1[-1])


@pytest.mark.parametrize("solver", ["fem", "fd"])
@pytest.mark.parametrize("record_every", [0, -5])
def test_record_every_below_one_refused(solver, record_every):
    # was clamped to 1 while the record's config kept the raw value
    ops = small_ops()
    dt = safe_dt(ops)
    with pytest.raises(ValidationError) as err:
        if solver == "fem":
            cfg = SchemeConfig("monolithic", dt, t_end=10 * dt)
            run_simulation(P, ops, cfg, [0.0], record_every=record_every)
        else:
            run_fd(P, 8, 6, dt, 10 * dt, [0.0], record_every=record_every)
    assert err.value.key == "record_every"


@pytest.mark.parametrize("record_every", [2.5, 0.5, float("nan"),
                                          float("inf"), "2"])
def test_record_every_not_whole_refused(monkeypatch, record_every):
    # 2.5 was truncated to 2, and the record's config read 2
    def no_step(*args):
        raise AssertionError("stepped past the check")

    monkeypatch.setattr(_Kernel, "macro_step", no_step)
    ops = small_ops()
    cfg = SchemeConfig("monolithic", safe_dt(ops), t_end=10 * safe_dt(ops))
    with pytest.raises(ValidationError, match="whole number") as err:
        run_simulation(P, ops, cfg, [0.0], record_every=record_every)
    assert err.value.key == "record_every"


def test_record_every_whole_float_accepted():
    ops = small_ops()
    cfg = SchemeConfig("monolithic", safe_dt(ops), t_end=10 * safe_dt(ops))
    rec = run_simulation(P, ops, cfg, [0.0], record_every=2.0)
    assert rec.config["record_every"] == 2
    assert len(rec.monitors.t) == 6


THREAD_RUN = """
import sys
import numpy as np
from stentsim import paper_params
from stentsim.fem import build_operators
from stentsim.stepping import SchemeConfig, run_simulation, sharp_dt_limit
p = paper_params()


def media4(ops, n):
    dt = sharp_dt_limit(p, ops.mesh_s.h, ops.mesh_m.h, 4, "media") / 2
    return SchemeConfig("alg1", dt, n * dt, substep_ratio=4,
                        substep_domain="media")


ops = build_operators(p, 20, 10)
ops_release = build_operators(p, 100, 25)
dt = media4(ops, 1).dt_m
out = []
for ops, cfg, every, *walks in [
        # a stepping run: alg1 with 4 media substeps on 20/10 (N = 43),
        # every step recorded over 80 steps, under the 2N a dense run needs
        (ops, media4(ops, 80), 1),
        # a dense run, as the release benchmark records: 100/25 (N = 153,
        # its map padded to 160) over 400 steps
        (ops_release, media4(ops_release, 400), 1),
        # the same over 1000 steps, whose records after the first 256
        # fill three blocks by block products
        (ops_release, media4(ops_release, 1000), 1),
        # leaping runs: 20/10 every 50, and 200/100 every 517 as the study
        # reference records, whose power of order 404 is padded to 416
        (ops, SchemeConfig("monolithic", dt / 4, 2000 * dt / 4), 50),
        (build_operators(p, 200, 100), SchemeConfig(
            "monolithic", 1.0 / 103456, 80 * 517 / 103456), 517),
        # the same every 517 with two snapshots walked by products with
        # the rungs G^258 and G^32
        (build_operators(p, 200, 100), SchemeConfig(
            "monolithic", 1.0 / 103456, 80 * 517 / 103456), 517, 10336,
         20672)]:
    times = [k * cfg.dt_m for k in walks] + [cfg.t_end]
    rec = run_simulation(p, ops, cfg, times, record_every=every)
    m = rec.monitors
    out += [m.mass, m.stent_mass, m.energy, m.balance_residual]
    for snap in rec.snapshots:
        out += [snap.state.y0, snap.state.y1, snap.state.y2]
np.save(sys.argv[1], np.concatenate(out))
"""


def test_results_do_not_depend_on_blas_thread_count(tmp_path):
    # the kernel, the dense steps, the leaps, the walks' rung products and
    # the block products are BLAS calls; one thread or two must give the
    # same bits
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=os.path.abspath(src))
        path = tmp_path / f"threads{threads}.npy"
        subprocess.run([sys.executable, "-c", THREAD_RUN, str(path)],
                       env=env, check=True, timeout=120)
        out[threads] = np.load(path)
    assert out["1"].tobytes() == out["2"].tobytes()


# ------------------------------------------------------------------ leaps

SETTINGS = {"r1": (1, "stent"), "stent4": (4, "stent"),
            "media4": (4, "media")}
LEAP_CASES = [(v, s) for v in ("monolithic", "alg1", "alg2")
              for s in SETTINGS] + [("fd", "r1")]


@pytest.fixture
def step_calls(monkeypatch):
    """A list of the states each call of either solver's step advances: 1
    for a state, and its column count for a block of states, so that its
    sum counts the states stepped."""
    calls = []

    def counted(step):
        def wrapper(self, z, *args):
            calls.append(z.shape[1] if z.ndim == 2 else 1)
            return step(self, z, *args)
        return wrapper

    monkeypatch.setattr(_Kernel, "macro_step", counted(_Kernel.macro_step))
    monkeypatch.setattr(_FdStep, "step", counted(_FdStep.step))
    return calls


def leap_dt(setting):
    """Half the sharp limit of the setting on 8/6."""
    r, domain = SETTINGS[setting]
    ops = small_ops()
    return 0.5 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h, r, domain)


def leap_case(variant, setting, snapshots, n=2010, every=50):
    """8/6 over n steps recorded every ``every``, with the given snapshot
    steps, at half the sharp limit; variant "fd" is the FD solver."""
    r, domain = SETTINGS[setting]
    dt = leap_dt(setting)
    times = [k * dt for k in snapshots]
    if variant == "fd":
        return run_fd(P, 8, 6, dt, n * dt, times, record_every=every)
    cfg = SchemeConfig(variant, dt, n * dt, substep_ratio=r,
                       substep_domain=domain)
    return run_simulation(P, small_ops(), cfg, times, record_every=every)


def solver_step(variant, setting, ops, dt):
    """The step of the variant's solver on ops at dt, and its monitor;
    variant "fd" is the FD solver."""
    if variant == "fd":
        return (_FdStep(P, ops.mesh_s, ops.mesh_m, dt).step,
                _trapezoid_monitor(P, ops.mesh_s, ops.mesh_m))
    kern = _Kernel(P, ops, dt, *SETTINGS[setting])

    def step(z, y2):
        return kern.macro_step(z, y2, variant)
    return step, kern.monitor


def stepped_case(variant, setting, n=2010):
    """leap_case's run by looping the solver's step directly, as
    ``advance`` does: the n + 1 records [z; y2], each step's outflow sum
    sum_{j<k} y1^j(1) and the solver's monitor."""
    ops = small_ops()
    step, monitor = solver_step(variant, setting, ops, leap_dt(setting))
    s = initial_state(ops)
    z, y2 = stacked(s), s.y2
    records, outflow = [], [0.0]
    for _ in range(n):
        records.append(np.concatenate([z, y2]))
        outflow.append(outflow[-1] + z[-1])
        z, y2 = step(z, y2)
    records.append(np.concatenate([z, y2]))
    return np.array(records), np.array(outflow), monitor


def assert_matches_stepping(rec, stepped, dt, steps, snaps):
    """rec's records at steps and its snapshots at snaps against the
    stepped run (records, outflow sums, monitor); bound, set before the
    first run: 1e-12 of each series' largest |value|, and of the largest
    |mass| for the balance residual, which is a difference of masses."""
    states, outflow, monitor = stepped
    mass, stent_mass, energy = monitor.measure(states[steps])
    n0, nz = 9, 16  # on 8/6, y0 has 9 nodes and y1 and y2 have 7 each
    want = {"mass": mass, "stent_mass": stent_mass, "energy": energy,
            "balance_residual": mass - mass[0] + P.pe * dt * outflow[steps],
            "c_at_0": states[steps, n0 - 1], "c1_at_0": states[steps, n0],
            "c1_at_1": states[steps, nz - 1]}

    def close(got, want, scale=None):
        bound = 1e-12 * np.max(np.abs(want if scale is None else scale))
        assert np.max(np.abs(got - want)) <= bound

    assert rec.monitors.t.tolist() == [k * dt for k in steps]
    for name in ("mass", "stent_mass", "energy"):
        close(getattr(rec.monitors, name), want[name])
    close(rec.monitors.balance_residual, want["balance_residual"], mass)
    for name in ("c_at_0", "c1_at_0", "c1_at_1"):
        close(getattr(rec.interface, name), want[name])
    assert [s.t for s in rec.snapshots] == [k * dt for k in snaps]
    for s, k in zip(rec.snapshots, snaps):
        for y, part in (("y0", slice(0, n0)), ("y1", slice(n0, nz)),
                        ("y2", slice(nz, None))):
            close(getattr(s.state, y), states[k, part])


@pytest.mark.parametrize("variant,setting", LEAP_CASES)
def test_leaps_match_stepping(step_calls, variant, setting):
    # the same run leaping, and with a snapshot at every step, against the
    # solver's step looped directly.  24 step calls per set bit of 50
    # build the power, and no walk steps: on 8/6 a product with the padded
    # power (m = 32) is priced 0.34 us against 8 us or more for a step, so
    # the short rung is G itself.  The snapshot at 1234, 34 past its
    # record, is walked by a product with the rung G^25 and 9 with G; each
    # snapshot off the record grid in the first case by one product with G
    # from the snapshot before it; the last step, 10 past its record, by
    # 10 with G; and a snapshot on the record step 1250 is read off its row
    stepped = stepped_case(variant, setting)
    steps = [*range(0, 2010, 50), 2010]
    for snaps in (range(2011), [0, 1234, 2010], [0, 1250, 2010]):
        step_calls.clear()
        rec = leap_case(variant, setting, snaps)
        assert sum(step_calls) == 24 * 3
        assert_matches_stepping(rec, stepped, leap_dt(setting), steps, snaps)


@pytest.mark.parametrize("variant,setting", LEAP_CASES)
def test_block_step_matches_column_steps(variant, setting):
    # a block of states, the columns of 2-D arrays sliced from a
    # Fortran-ordered buffer as the power's build passes them, steps as
    # each column does alone, to 8 ulps of the column's largest entry: a
    # block's matvec and updates are numpy, which does not fuse
    # multiply-adds as the one-state path's BLAS calls do
    ops = small_ops()
    step, _ = solver_step(variant, setting, ops, leap_dt(setting))
    nz, ny = 16, 7
    buf = np.asfortranarray(
        np.random.default_rng(3).standard_normal((nz + ny + 9, 11)))
    z, y2 = buf[:nz], buf[nz:nz + ny]
    before = buf.copy()
    got_z, got_y2 = step(z, y2)
    assert np.array_equal(buf, before)  # the block is read, not written
    for j in range(buf.shape[1]):
        want_z, want_y2 = step(z[:, j].copy(), y2[:, j].copy())
        for got, want in ((got_z[:, j], want_z), (got_y2[:, j], want_y2)):
            assert got.shape == want.shape
            bound = 8 * np.finfo(float).eps * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("variant,setting", [("monolithic", "r1"),
                                             ("alg1", "media4"),
                                             ("alg2", "stent4"),
                                             ("fd", "r1")])
def test_power_does_not_depend_on_step_block(monkeypatch, variant, setting):
    # each column of the power's build is stepped alone, so the power and
    # its rungs are the same bits whatever the block width: one column a
    # call, 7 (which does not divide the 304 columns on 100/100),
    # STEP_BLOCK and the whole matrix in one call
    ops = build_operators(P, 100, 100)
    r, domain = SETTINGS[setting]
    dt = 0.5 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h, r, domain)
    step, _ = solver_step(variant, setting, ops, dt)
    assert stepping.STEP_BLOCK == 128
    builds = []
    for width in (1, 7, 128, 304):
        monkeypatch.setattr(stepping, "STEP_BLOCK", width)
        power, rungs = stepping._power(step, 202, 303, 50, (25, 12))
        builds.append([power] + [a for a, _ in rungs])
    for build in builds[1:]:
        for got, want in zip(build, builds[0]):
            assert np.array_equal(got, want)


@pytest.fixture
def block_fills(monkeypatch):
    """A list of each run's answer to whether block products fill its
    record blocks, for every run that builds a power."""
    answers = []
    plan = RunRecorder._plan

    def spy(self):
        order, fills, rungs = plan(self)
        if order is not None:
            answers.append(fills)
        return order, fills, rungs

    monkeypatch.setattr(RunRecorder, "_plan", spy)
    return answers


# (variant, setting, record_every, records on the grid): every step
# recorded takes dense steps; every second step recorded leaps, and its
# last step, n, is one step past the last record on the grid of 2.  869
# records on the grid fill three blocks of RECORD_BLOCK and part of a
# fourth; 768 fill exactly three, and the off-grid last record, alone in a
# fourth block, is walked from the last row of the third
BLOCK_CASES = [pytest.param(*case, 869, id="-".join(map(str, case)))
               for case in (("alg1", "stent4", 1), ("alg2", "media4", 1),
                            ("monolithic", "media4", 1),
                            ("monolithic", "r1", 2), ("fd", "r1", 2))] + [
    pytest.param(v, "r1", 2, 768, id=f"{v}-r1-2-768")
    for v in ("monolithic", "fd")]


@pytest.mark.parametrize("variant,setting,every,grid", BLOCK_CASES)
def test_block_products_match_stepping(step_calls, block_fills, variant,
                                        setting, every, grid):
    # blocks 2 onwards are each one product with the power's
    # RECORD_BLOCK-th power.  Snapshots on record steps inside the filled
    # blocks are read from the blocks' rows.  24 step calls (N + 1) build
    # the power, and a leaping run walks its last step, one past its
    # record, by one product with the rung G^1 and no step
    assert 3 * RECORD_BLOCK == 768 < 869 < 4 * RECORD_BLOCK
    n = grid * every - 1
    steps = [*range(0, n + 1, every)] + ([n] if n % every else [])
    snaps = [0, 100 * every, 300 * every, 600 * every,
             min(800, grid - 1) * every, n]
    rec = leap_case(variant, setting, snaps, n, every)
    assert block_fills == [True]
    assert sum(step_calls) == 24
    assert_matches_stepping(rec, stepped_case(variant, setting, n),
                            leap_dt(setting), steps, snaps)


# (n, record_every, snapshot steps): fewer steps than record_every, so the
# only records are 0 and n; a snapshot strictly inside the last, partial
# interval of a leaping run; a snapshot at step 0 only, leaping and, every
# step recorded, filling blocks
EDGE_CASES = [(30, 50, [13]), (2010, 50, [0, 2005]), (2010, 50, [0]),
              (868, 1, [0])]


@pytest.mark.parametrize("n,every,snaps", EDGE_CASES)
@pytest.mark.parametrize("variant,setting", [("monolithic", "r1"),
                                             ("alg1", "media4"),
                                             ("fd", "r1")])
def test_record_edges_match_stepping(variant, setting, n, every, snaps):
    rec = leap_case(variant, setting, snaps, n, every)
    assert_matches_stepping(rec, stepped_case(variant, setting, n),
                            leap_dt(setting), [*range(0, n, every), n], snaps)


# (record_every, snapshot steps, step calls, rungs) over 2010 steps of a
# leaping run on 8/6, 24 step calls per set bit of every building the
# power.  With rungs None, the run's rungs are R = G^(every // 2) and the
# short rung of the cheapest walks by the prices.  Every 50: snapshots 10,
# 35 and 45 past one record, 25 (R's order), 24 and 49 past others, 5
# past the last record, and the last step 10 past it, walked by an R
# product where one fits and products with the short rung G for the rest.
# Every 51: 50 past its record is two R products of 25, 25 past is one,
# and the last step, 21 past its record, is 7 products with the short
# rung G^3, which costs less than 21 with G.  Every 100: 12, 25 on, 62 on,
# 63 past, 49 past, 5 past and the last step 10 past, walked by R
# products and products with G.  No walk steps.
#
# The same walks with the plan held to R and S = G^12 end in steps after
# their products, as compare-fd's and the study reference's walks do on
# wider meshes, where a product with the power costs more than a few
# steps.  Every 50: three snapshots in one interval, 10, 35 and 45 past
# its record, take 10 steps (fewer than 12), an R product from the first
# (into its own row) and 10 steps from the second; snapshots 25, 24 and
# 49 past their records take an R product, two S products, and an R
# product and two S products, and no step; one in the partial last
# interval, 5 past its record, takes 5 steps, and the last step, 10 past
# the same record, 10 steps.  A snapshot at 1234, 34 past its record,
# takes an R product and 9 steps.  Every 51: the last step, 21 past its
# record, is an S product and 9 steps.  Every 100: 12 past its record is
# one S product; 25 on from there two S products and a step; 62 on an R
# product and an S product; 63 past the next record R, S and a step; 49
# past the next four S products and a step; 5 past the last record 5
# steps, and the last step 10
WALK_CASES = [(50, [1210, 1235, 1245, 1325, 1424, 1549, 2005], 24 * 3, None),
              (51, [51 * 20 + 50, 51 * 30 + 25], 24 * 4, None),
              (100, [1112, 1137, 1199, 1263, 1349, 2005], 24 * 3, None)]
WALK_CASES += [
    (50, WALK_CASES[0][1], 24 * 3 + 10 + 10 + 5 + 10, (25, 12)),
    (50, [0, 1234, 2010], 24 * 3 + 9 + 10, (25, 12)),
    (51, WALK_CASES[1][1], 24 * 4 + 9, (25, 12)),
    (100, WALK_CASES[2][1], 24 * 3 + 1 + 1 + 1 + 5 + 10, (50, 12))]


# ids without the step calls, so that a moved pin keeps its test's name
@pytest.mark.parametrize("every,snaps,calls,rungs", WALK_CASES, ids=[
    f"{every}-snaps{i}" for i, (every, *_) in enumerate(WALK_CASES)])
@pytest.mark.parametrize("variant,setting", [("monolithic", "r1"),
                                             ("alg1", "media4"),
                                             ("fd", "r1")])
def test_snapshot_walks_match_stepping(monkeypatch, step_calls, variant,
                                       setting, every, snaps, calls, rungs):
    # a snapshot strictly inside an interval that the power crosses is
    # walked from the nearest earlier state, its record or the snapshot
    # before it in the interval, and the records leap past it; a walk
    # steps on from the state its products reach, carrying the outflow sum
    if rungs is not None:
        monkeypatch.setattr(RunRecorder, "_plan",
                            lambda self: (every, False, rungs))
    rec = leap_case(variant, setting, snaps, every=every)
    assert sum(step_calls) == calls
    assert_matches_stepping(rec, stepped_case(variant, setting),
                            leap_dt(setting), [*range(0, 2010, every), 2010],
                            snaps)


# (variant, setting, n, record_every, snapshot steps, block fills):
# leaping runs, FEM and FD, with the snapshots of WALK_CASES; a run
# every 2 that fills blocks, with snapshots strictly inside the last
# interval of the first block, of a filled block (record 300), across two
# filled blocks (record 511 to 512) and inside the partial last interval;
# a run every 100 whose walks end on products with the short rung; over
# 120 steps, leaping runs with a snapshot at every step, each walked by one
# product with G from the snapshot before it; a leaping run whose
# snapshots lie only in the partial last interval; and over 40 steps,
# under the floor of 2N = 46 steps, stepping runs with a snapshot at
# every step
SNAPSHOT_FREE_CASES = [
    ("alg1", "media4", 2010, 50, WALK_CASES[0][1], False),
    ("fd", "r1", 2010, 50, WALK_CASES[0][1], False),
    ("monolithic", "r1", 869 * 2 - 1, 2, [0, 511, 601, 1023, 1737], True),
    ("monolithic", "r1", 2010, 100, WALK_CASES[2][1], False),
    ("monolithic", "r1", 120, 50, range(121), False),
    ("alg1", "media4", 120, 50, range(121), False),
    ("monolithic", "r1", 2010, 50, [2003, 2005], False),
    ("monolithic", "r1", 40, 50, range(41), False),
    ("alg1", "media4", 40, 50, range(41), False)]


@pytest.mark.parametrize("variant,setting,n,every,snaps,fills",
                         SNAPSHOT_FREE_CASES)
def test_records_do_not_depend_on_snapshots(monkeypatch, variant, setting, n,
                                            every, snaps, fills):
    # the records are the same bits with and without snapshot requests:
    # each record is reached from the one before it, never through a
    # snapshot, so the run's plan alone decides them
    plans, plan = [], RunRecorder._plan

    def spy(self):
        plans.append(plan(self))
        return plans[-1]

    monkeypatch.setattr(RunRecorder, "_plan", spy)
    rec = leap_case(variant, setting, snaps, n, every)
    bare = leap_case(variant, setting, [], n, every)
    for series in ("monitors", "interface"):
        got, want = getattr(rec, series), getattr(bare, series)
        for name, values in vars(want).items():
            assert np.array_equal(getattr(got, name), values), name
    assert plans[0] == plans[1] and plans[0][1] == fills
    assert_matches_stepping(rec, stepped_case(variant, setting, n),
                            leap_dt(setting), [*range(0, n, every), n], snaps)


def test_leap_rule_on_benchmark_shapes(step_calls, block_fills):
    # a multi-rate run that records every step takes dense steps (release,
    # 100/25 alg1 media4, N = 153): N + 1 step calls build the step's map,
    # and no kernel step follows.  Over 400 steps, priced 3.8 ms dense
    # against 7.8 ms stepping, Q's build would cost more than the 145
    # products it saves (4.4 ms), so no block fills; over the release
    # workload's 32 328 steps, with its 25 snapshots, blocks fill (41 ms,
    # against 274 ms dense and 628 ms stepping)
    ops = build_operators(P, 100, 25)
    n = stable_step_count(P, P.l / 100, 1.0 / 25, 20.0, 4, "media")
    assert n == 32328
    for steps, snaps, fills in ((400, [], False),
                                (n, [20.0 * k / 24 for k in range(25)],
                                 True)):
        step_calls.clear()
        block_fills.clear()
        run_simulation(P, ops, SchemeConfig("alg1", 20.0 / n, steps * 20.0 / n,
                                            substep_ratio=4,
                                            substep_domain="media"), snaps)
        assert sum(step_calls) == 154
        assert block_fills == [fills]
    block_fills.clear()
    # the kernel probes, 2000 steps recorded at the ends only, leap where
    # the price says so: 154, 304 and 404 step calls per set bit of 2000
    # build the power.  Priced in ms, leaping against stepping: 100/25
    # single-rate 4.5 against 19.4 and multi-rate 4.5 against 38.9; 100/100
    # 25.2 against 23.8 and 47.6; 200/100 50.1 against 26.7 and 53.4
    assert bin(2000).count("1") == 6
    for n_s, n_m, r, calls in ((100, 25, 1, 154 * 6), (200, 100, 1, 2000),
                               (100, 100, 1, 2000), (100, 25, 4, 154 * 6),
                               (100, 100, 4, 304 * 6), (200, 100, 4, 404 * 6)):
        step_calls.clear()
        ops = build_operators(P, n_s, n_m)
        dt = sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h, r) / 1.05
        run_simulation(P, ops, SchemeConfig("alg1", dt, 2000 * dt,
                                            substep_ratio=r), [],
                       record_every=2000)
        assert sum(step_calls) == calls
    # the study's reference, 200/100 over 103 456 steps recorded every 517
    # with the snapshots compare-alg takes on 50/25 at 6466 steps (every
    # 646 test steps, 16 reference steps each, and t_end): 404 step calls
    # per set bit of 517 build the power.  Snapshot k = 1..10, at
    # k * 10336 = (20k - 1) * 517 + 517 - 4k, is walked from its record by
    # one product with the rung G^258, then products with the short rung
    # G^32 (517 >> 4, whose walks are priced 56.8 ms for the whole run
    # against 58.4 with G^64 and 59.7 with G^16): 7 for k <= 8
    # and 6 for k = 9, 10, and the (259 - 4k) % 32 steps left, 31 + 27 +
    # ... + 3 + 31 + 27 = 194 in all (2370 with the rung G^258 alone).
    # The last step, 56 past its record, is walked by one product with
    # G^32 and 24 steps
    step_calls.clear()
    times = [k * 646 / 6466 for k in range(11)] + [1.0]
    ref = make_reference(P, 200, 100, 103456, 1.0, times)
    assert ref.config["record_every"] == 517
    assert 103456 % 517 == 56 == 32 + 24
    assert sum(step_calls) == 404 * 3 + 194 + 24 == 1430
    assert 194 == sum((259 - 4 * k) % 32 for k in range(1, 11))
    assert [round(s.t * 103456) for s in ref.snapshots] == [
        k * 16 * 646 for k in range(11)] + [103456]
    # compare-fd's two runs, 100/100 over 103 321 steps recorded every 1000
    # with a snapshot every 0.1, leap; neither, nor any run above, fills
    # more than one block of records, so none of the seven leaps builds a
    # block power.  Each takes 304 step calls per set bit of 1000 to build
    # the power.  Its snapshots at round(10332.1 k), k = 1..9, sit 332,
    # 664, 996, 328, 660, 993, 325, 657 and 989 steps past their records;
    # those past 500 take one product with the rung G^500 first, and each
    # then takes products with the short rung and steps the rest.  The
    # finite-element run takes G^31 (1000 >> 5, priced 32.41 ms for the
    # run against 32.46 with G^62): 22 + 9 + 0 + 18 + 5 + 28 + 15 + 2 + 24
    # = 123 steps in all (2944 with the rung G^500 alone), and the last
    # step, 321 = 10 * 31 + 11 past its record, 10 products with G^31 and
    # 11 steps.  The finite-difference run, whose step is priced about half
    # as much, takes G^62 (priced 31.17 ms against 31.81 with G^31; both
    # took 22-24 ms): 278 steps, and 5 products with G^62 and 11 steps for
    # the last step
    n = stable_step_count(P, P.l / 100, 1.0 / 100, 1.0)
    assert n == 103321
    times = [k / 10 for k in range(11)]
    past = (332, 164, 496, 328, 160, 493, 325, 157, 489)
    assert sum(r % 31 for r in past) == 22 + 9 + 0 + 18 + 5 + 28 + 15 + 2 + 24
    assert sum(r % 62 for r in past) == 278
    assert 321 % 31 == 321 % 62 == 11
    for run, walked in ((lambda: run_simulation(
                            P, build_operators(P, 100, 100),
                            SchemeConfig("monolithic", 1.0 / n, 1.0), times,
                            record_every=1000), 123),
                        (lambda: run_fd(P, 100, 100, 1.0 / n, 1.0, times,
                                        record_every=1000), 278)):
        step_calls.clear()
        rec = run()
        assert sum(step_calls) == 304 * 6 + walked + 11
        # each multiplication by G steps the 304 columns in ceil(304 / 128)
        # = 3 block calls; the walks step one state a call
        assert [w for w in step_calls if w > 1] == [128, 128, 48] * 6
        assert [round(s.t * n) for s in rec.snapshots] == [
            0, 10332, 20664, 30996, 41328, 51660, 61993, 72325, 82657, 92989,
            n]
    assert block_fills == [False] * 7


def planned(n_s, n_m, n, every, snaps, variant="monolithic", ratio=1):
    """RunRecorder._plan of a run on n_s/n_m over n steps of 1/n, recorded
    every ``every`` with snapshots at the given steps; nothing is built.
    Variant "fd" plans the finite-difference solver's run."""
    solver, variant = ("fd", "monolithic") if variant == "fd" else ("fem",
                                                                   variant)
    cfg = SchemeConfig(variant, 1.0 / n, 1.0, substep_ratio=ratio)
    rec = RunRecorder(solver, P, cfg, build_mesh(STENT, n_s, l=P.l),
                      build_mesh(MEDIA, n_m), [k / n for k in snaps], every,
                      None)
    return rec._plan()


def test_short_rung_rule_on_sizes():
    # (order, block fills, rung orders), the cheapest plan by the prices.
    # The benchmark's runs, with their snapshot steps: compare-fd's
    # finite-element run and the study reference keep the short rungs G^31
    # and G^32, and its finite-difference run, whose step is priced at
    # 5.4 us + 6.7 ns * N against 7.5 us + 14.5 ns * N, takes G^62 (31.17
    # ms against 31.81 with G^31); the study's 50/25 runs take G^4 (priced
    # 2.07 ms, against 2.08 with G^2 and 2.23 with G^8); the release run,
    # every step recorded with an hourly snapshot, takes dense steps and
    # fills blocks
    crosscheck = [round(10332.1 * k) for k in range(11)]
    assert planned(100, 100, 103321, 1000, crosscheck) == (1000, False,
                                                           (500, 31))
    assert planned(100, 100, 103321, 1000, crosscheck, "fd") == (
        1000, False, (500, 62))
    # configs/crosscheck.yaml's 103 330 steps: both runs take G^62,
    # finite-element 31.65 ms against 32.33 with G^31, finite-difference
    # 30.69 against 31.79
    shipped = [10333 * k for k in range(11)]
    for variant in ("monolithic", "fd"):
        assert planned(100, 100, 103330, 1000, shipped, variant) == (
            1000, False, (500, 62))
    assert planned(200, 100, 103456, 517, [10336 * k for k in range(11)]) == (
        517, False, (258, 32))
    tested = [646 * k for k in range(11)] + [6466]
    assert planned(50, 25, 6466, 32, tested, "alg1") == (32, False, (16, 4))
    hourly = [1347 * k for k in range(25)]
    assert planned(100, 25, 32328, 1, hourly, "alg1", 4) == (1, True, ())
    # criterion 3's n_s = 800 pair (N = 1003, 103 330 steps recorded every
    # 2066, a snapshot every 0.1) leaps, priced 0.61 s against 2.28 s
    # stepping; criterion 6's release run (400/25 single-rate, N = 453,
    # 129 310 steps, every step recorded) fills blocks, 1.40 s against
    # 1.82 s stepping and 9.8 s dense without fills.  The pair's
    # finite-difference run keeps no short rung: its walks, 3k steps past
    # their records for k = 1..9 and the last step 30 past its record, are
    # priced cheaper in steps, 16 at 0.19 ms against 0.35 ms for a product
    # with G^16 (m = 1024); the finite-element run's 16 steps, 0.35 ms,
    # cost a little more than that product
    assert planned(800, 100, 103330, 2066, shipped) == (2066, False,
                                                        (1033, 16))
    assert planned(800, 100, 103330, 2066, shipped, "fd") == (2066, False,
                                                              (1033,))
    assert planned(400, 25, 129310, 1, []) == (1, True, ())
    # the floor: runs of fewer than 2N steps step, as the bitwise tests'
    # 25- and 30-step runs on 8/6 (N = 23) do, where G would be priced
    # cheaper
    assert planned(8, 6, 25, 1, [25], "alg1") == (None, False, ())
    assert planned(8, 6, 30, 1, [30], "alg1", 3) == (None, False, ())
    # the memory rules: a run leaps only where the power's two padded
    # buffers fit LEAP_MAX_ENTRIES, and keeps a short rung only where
    # three do.  N = n_s + 2 n_m + 3 = 1663 pads to 1664, whose three
    # buffers fit; N = 1664 pads to 1696, whose do not; N = 2047 pads to
    # 2048, whose two fit; N = 2048 pads to 2080, whose do not.  Two
    # million steps every 1000 leap at the first three sizes, and the walk
    # to step 1999, 499 past G^500, takes the short rung G^125 where it fits
    assert 3 * 1664 ** 2 <= LEAP_MAX_ENTRIES < 3 * 1696 ** 2
    assert 2 * 2048 ** 2 <= LEAP_MAX_ENTRIES < 2 * 2080 ** 2
    for n_s, n_m, plan in ((1000, 330, (1000, False, (500, 125))),
                           (1001, 330, (1000, False, (500,))),
                           (1044, 500, (1000, False, (500,))),
                           (1045, 500, (None, False, ()))):
        assert planned(n_s, n_m, 2 * 10 ** 6, 1000, [1999]) == plan
    # no walk, no rung: snapshots on records only, and the last step on
    # the record grid
    assert planned(100, 100, 103000, 1000, [0, 5000, 103000]) == (
        1000, False, ())
    # an off-grid last step is walked: its 321 steps take 5 products with
    # G^62 and 11 steps, priced below 10 with G^31 and 11 steps
    assert planned(100, 100, 103321, 1000, [0, 5000]) == (
        1000, False, (500, 62))
    # the stepping runs of SNAPSHOT_FREE_CASES, with a snapshot at every
    # step or none, lie under the floor; over 120 steps on 8/6 the runs
    # leap, and a walk of one step is one product with G
    for snaps in (range(41), []):
        assert planned(8, 6, 40, 50, snaps) == (None, False, ())
        assert planned(8, 6, 40, 50, snaps, "alg1", 4) == (None, False, ())
    assert planned(8, 6, 120, 50, range(121)) == (50, False, (25, 1))
    # every 8 on 8/6 (m = 32): over 3200 steps, 401 records fill blocks,
    # and Q's build takes the third buffer; over 1600 steps, 201 records
    # do not fill a second block, and the walk of 3 past G^4 takes the
    # short rung G itself; every 7 takes G^3 and G
    assert planned(8, 6, 3200, 8, [1603]) == (8, True, (4,))
    assert planned(8, 6, 1600, 8, [1203]) == (8, False, (4, 1))
    assert planned(8, 6, 1600, 7, [1203]) == (7, False, (3, 1))
    # a multi-rate run on 100/25 (N = 153) over 2000 steps recorded at
    # the ends leaps; its walk to step 1001 is a product with G^1000 and
    # one with G (8.4 us against a 19 us step)
    assert planned(100, 25, 2000, 2000, [1001], "alg1", 4) == (
        2000, False, (1000, 1))


def test_only_walking_leaps_build_the_short_rung(monkeypatch):
    # a spy on _raise: the digit counts after which it copies the power
    # into a rung buffer, one entry per call
    kept = []
    raise_ = stepping._raise

    def spy(a, t, bits, times_g=None, keep=None):
        kept.append(sorted(keep or ()))
        return raise_(a, t, bits, times_g, keep)

    monkeypatch.setattr(stepping, "_raise", spy)
    # leaping runs with a walk copy their short rung: G before the first
    # digit of 50's build, and G^3, for the walk of 21 steps to the last
    # step, after the first digit of 51's
    leap_case("monolithic", "r1", [0, 1213, 2010])
    leap_case("monolithic", "r1", [51 * 30 + 25], every=51)
    assert kept == [[0], [1]]
    # dense steps, a leaping run without walks (its snapshots and its last
    # step on the record grid), and a block-filling run with one (its
    # _power build and its Q build) copy none
    kept.clear()
    leap_case("alg1", "media4", [0], 200, 1)
    leap_case("monolithic", "r1", [0, 1250, 2000], 2000)
    leap_case("fd", "r1", [1603], 3200, 8)
    assert kept == [[], [], [], []]


def test_unstable_leaping_run_is_caught(monkeypatch, step_calls):
    # with the gate switched off, a leaping run at the step of
    # test_unstable_step_is_caught_by_energy_guard still stops at the
    # guard: 34 step calls per set bit of 50 build the power, then it leaps
    monkeypatch.setattr(SchemeConfig, "check_cfl", lambda *args: None)
    ops = build_operators(P, 10, 10)
    dt = 0.99 * classical_media_bound(ops)
    cfg = SchemeConfig("monolithic", dt, t_end=3000 * dt)
    with pytest.raises(InstabilityError, match="instability detected"):
        run_simulation(P, ops, cfg, [0.0], record_every=50)
    assert sum(step_calls) == 34 * 3


def test_unstable_dense_run_is_caught(monkeypatch, step_calls):
    # with the gate switched off, an alg1 run at the step of
    # test_unstable_step_is_caught_by_energy_guard, with 4 stent substeps
    # that leave the media's step as it is, takes dense steps and still
    # stops at the guard: 34 step calls (N + 1) build the step's map
    monkeypatch.setattr(SchemeConfig, "check_cfl", lambda *args: None)
    ops = build_operators(P, 10, 10)
    dt = 0.99 * classical_media_bound(ops)
    cfg = SchemeConfig("alg1", dt, t_end=300 * dt, substep_ratio=4)
    with pytest.raises(InstabilityError, match="instability detected"):
        run_simulation(P, ops, cfg, [0.0])
    assert sum(step_calls) == 34


def test_unstable_block_run_is_caught(monkeypatch, step_calls, block_fills):
    # with the gate switched off, an alg1 run with 4 stent substeps at 1.02
    # times the sharp limit grows slowly; recorded every step over 2000
    # steps, it fills its blocks after the first by block products and
    # still stops at the guard, which names record 341, in the second
    # block, as stepping does: 34 step calls (N + 1) build the step's map
    monkeypatch.setattr(SchemeConfig, "check_cfl", lambda *args: None)
    ops = build_operators(P, 10, 10)
    dt = 1.02 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h, 4)
    cfg = SchemeConfig("alg1", dt, t_end=2000 * dt, substep_ratio=4)
    with pytest.raises(InstabilityError) as err:
        run_simulation(P, ops, cfg, [0.0])
    assert block_fills == [True]
    assert sum(step_calls) == 34
    assert RECORD_BLOCK < 341 < 2 * RECORD_BLOCK
    assert str(err.value).endswith(f"at t={341 * dt:.6g}")


def test_trajectories_of_variants_converge_first_order():
    ops = small_ops()
    t_end = 150 * safe_dt(ops, frac=0.6)
    gaps = []
    for n in (200, 400):
        dt = t_end / n
        recs = {}
        for variant in ("alg1", "alg2"):
            cfg = SchemeConfig(variant, dt, t_end=t_end)
            recs[variant] = run_simulation(P, ops, cfg, [t_end])
        gaps.append(state_norm(recs["alg1"].snapshots[-1].state,
                               recs["alg2"].snapshots[-1].state))
    assert gaps[0] > 0
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.25)


def test_each_variant_is_first_order_in_time():
    # each variant's own time error on 50/25 over unit time, at 14
    # snapshots, against the exact-in-time solution of the semi-discrete
    # system: expm of its matrix, built from the assembled operators and
    # not from the kernel, so that a kernel defect cannot cancel.  Runs at
    # n0, 2 n0, 4 n0 and 8 n0 steps.  Windows, set before the first run:
    # every field's order over the finest pair in [0.9, 1.1], and alg1's c1
    # error, from its fresh stent trace, above ten times monolithic's
    ops = build_operators(P, 50, 25)
    n0, n1 = ops.psi_s.dim, ops.psi_m.dim
    intervals = 14
    step = scipy.linalg.expm(oracles.semidiscrete_matrix(P, ops) / intervals)
    exact = [np.concatenate([np.ones(n0), np.zeros(2 * n1)])]
    for _ in range(intervals):
        exact.append(step @ exact[-1])
    times = [j / intervals for j in range(intervals + 1)]
    base = stable_step_count(P, ops.mesh_s.h, ops.mesh_m.h, 1.0,
                             multiple_of=intervals)
    fields = (slice(0, n0), slice(n0, n0 + n1), slice(n0 + n1, None))
    errors = {}
    for variant in ("monolithic", "alg1", "alg2"):
        for level in (1, 2, 4, 8):
            n = level * base
            rec = run_simulation(P, ops, SchemeConfig(variant, 1.0 / n, 1.0),
                                 times, record_every=n // intervals)
            diff = np.abs([np.concatenate([s.state.y0, s.state.y1,
                                           s.state.y2]) for s in rec.snapshots]
                          - np.array(exact))
            errors[variant, level] = [diff[:, f].max() for f in fields]
        orders = np.log2(np.divide(errors[variant, 4], errors[variant, 8]))
        assert np.all((0.9 <= orders) & (orders <= 1.1)), (variant, orders)
    for level in (1, 2, 4, 8):
        assert errors["alg1", level][1] > 10 * errors["monolithic", level][1]


def test_baseline_configuration_runs_to_completion():
    # 50/25 elements, 6454 steps over unit time: stable, mass leaves the
    # coating, and the wall interface concentration has built up (its
    # later decay happens beyond this window and is checked on the
    # release horizon in the acceptance suite)
    ops = build_operators(P, 50, 25)
    cfg = SchemeConfig("alg1", 1.0 / 6454, t_end=1.0)
    rec = run_simulation(P, ops, cfg, [0.0, 1.0], record_every=50)
    assert np.all(np.isfinite(rec.monitors.energy))
    assert rec.monitors.stent_mass[-1] < rec.monitors.stent_mass[0]
    iface = rec.interface.c1_at_0
    assert iface[0] == 0.0
    assert iface[-1] > 100 * np.finfo(float).eps
    assert np.all(iface >= 0.0)


def test_stable_step_count_helper():
    n = stable_step_count(P, 0.028 / 50, 1.0 / 25, 1.0, multiple_of=10)
    dt = 1.0 / n
    assert dt <= sharp_dt_limit(P, 0.028 / 50, 1.0 / 25)
    assert n % 10 == 0
