import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stentsim import CflError, InstabilityError, ValidationError, paper_params
from stentsim.fdcheck import run_fd
from stentsim.fem import build_operators
from stentsim.params import energy_growth_rate
from stentsim.stepping import (
    RECORD_BLOCK,
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
    limit = sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)
    for dt in (1.01 * limit, 1.01 * classical_media_bound(ops)):
        bad = SchemeConfig("monolithic", dt, t_end=0.0)
        with pytest.raises(CflError, match="substep_domain=stent"):
            run_simulation(P, ops, bad, [0.0])
    SchemeConfig("monolithic", limit, t_end=0.0).check_cfl(P, ops)
    with pytest.raises(CflError):
        SchemeConfig("monolithic", 0.5 * limit, t_end=0.0,
                     cfl_safety=0.49).check_cfl(P, ops)
    # on a stent-limited mesh, substepping the stent relaxes the gate and
    # substepping the media does not
    ops = build_operators(P, 200, 1)
    dt = 2.0 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)
    SchemeConfig("monolithic", dt, t_end=0.0, substep_ratio=4).check_cfl(P, ops)
    with pytest.raises(CflError):
        SchemeConfig("monolithic", dt, t_end=0.0, substep_ratio=4,
                     substep_domain="media").check_cfl(P, ops)


def test_paper_step_count_passes_gate():
    ops = build_operators(P, 50, 25)
    cfg = SchemeConfig("alg1", 1.0 / 6454, t_end=1.0)
    cfg.check_cfl(P, ops)


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
    monkeypatch.setattr(SchemeConfig, "check_cfl", lambda self, p, ops: None)
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
    # the first non-finite record: step 300, inside the second block
    step = _Kernel.macro_step
    calls = []

    def poisoned(self, z, y2, variant):
        calls.append(1)
        z, y2 = step(self, z, y2, variant)
        return (z * np.nan, y2) if len(calls) == 300 else (z, y2)

    monkeypatch.setattr(_Kernel, "macro_step", poisoned)
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
