import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stentsim import ValidationError, paper_params
from stentsim.analysis import compare_records, fit_rate, prolong
from stentsim.fem import build_operators
from stentsim.stepping import (
    SchemeConfig,
    run_simulation,
    sharp_dt_limit,
)

import oracles

P = paper_params()


def run_record(n_s, n_m, n_steps, t_end, snaps, variant="monolithic"):
    ops = build_operators(P, n_s, n_m)
    cfg = SchemeConfig(variant, t_end / n_steps, t_end=t_end)
    return run_simulation(P, ops, cfg, snaps)


def aligned_setup(n_steps=60, t_end=None):
    ops = build_operators(P, 8, 6)
    dt = 0.5 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)
    t_end = n_steps * dt
    snaps = [0.0, t_end / 2, t_end]
    return n_steps, t_end, snaps


# ------------------------------------------------------------ prolongation


@given(
    n_test=st.integers(min_value=1, max_value=12),
    factor=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_prolong_preserves_p1_functions(n_test, factor, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n_test + 1)
    n_ref = n_test * factor
    fine = prolong(v, n_test, n_ref)
    # restriction to the shared nodes is the identity, bitwise
    np.testing.assert_array_equal(fine[::factor], v)
    # linear data prolongs to linear data
    lin = np.linspace(-2.0, 3.0, n_test + 1)
    fine_lin = prolong(lin, n_test, n_ref)
    np.testing.assert_allclose(fine_lin, np.linspace(-2.0, 3.0, n_ref + 1),
                               rtol=0, atol=1e-13)


@given(
    n_test=st.integers(min_value=1, max_value=12),
    factor=st.integers(min_value=1, max_value=8),
    rows=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_prolong_rows_match_prolonging_each_row(n_test, factor, rows, seed):
    v = np.random.default_rng(seed).standard_normal((rows, n_test + 1))
    fine = prolong(v, n_test, n_test * factor)
    assert fine.shape == (rows, n_test * factor + 1)
    for row, fine_row in zip(v, fine):
        np.testing.assert_array_equal(fine_row,
                                      prolong(row, n_test, n_test * factor))


def test_prolong_rejects_non_nested():
    with pytest.raises(ValidationError):
        prolong(np.ones(5), 4, 6)


# ---------------------------------------------------------------- fit_rate


def test_fit_rate_examples():
    assert fit_rate([0.2, 0.1, 0.05], [1, 0.5, 0.25]) == pytest.approx([1.0, 1.0])
    assert fit_rate([0.4, 0.1], [1, 0.5]) == pytest.approx([2.0])
    assert fit_rate([1e-3, 1e-3], [1, 0.5]) == pytest.approx([0.0])
    assert fit_rate([0.4, 0.1, 0.025], [1, 0.5, 0.25]) == pytest.approx([2.0, 2.0])


def test_fit_rate_validation():
    with pytest.raises(ValidationError):
        fit_rate([0.1], [1.0])
    with pytest.raises(ValidationError):
        fit_rate([0.1, 0.0], [1.0, 0.5])
    with pytest.raises(ValidationError):
        fit_rate([0.1, 0.05], [1.0, 0.6])


@given(
    p=st.floats(min_value=0.5, max_value=3.0),
    c=st.floats(min_value=1e-6, max_value=1e3),
    levels=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_fit_rate_exact_on_power_laws(p, c, levels):
    widths = [2.0 ** -i for i in range(levels)]
    errors = [c * w ** p for w in widths]
    for r in fit_rate(errors, widths):
        assert math.isclose(r, p, rel_tol=1e-9)


# --------------------------------------------------------- compare_records


def test_compare_record_with_itself_is_zero():
    n_steps, t_end, snaps = aligned_setup()
    rec = run_record(8, 6, n_steps, t_end, snaps)
    rep = compare_records(rec, rec)
    for name, norm, absval, rel in rep.rows():
        assert absval == 0.0


def test_constant_offset_on_stent_gives_sqrt_l():
    n_steps, t_end, snaps = aligned_setup()
    rec = run_record(8, 6, n_steps, t_end, snaps)
    shifted = run_record(8, 6, n_steps, t_end, snaps)
    for snap in shifted.snapshots:
        snap.state.y0 += 1.0
    rep = compare_records(shifted, rec)
    assert rep.c.linf_l2 == pytest.approx(math.sqrt(P.l), rel=1e-12)
    # constants carry no gradient
    assert rep.c.l2_h1 == pytest.approx(0.0, abs=1e-12)
    assert rep.c1.linf_l2 == 0.0


def test_absolute_errors_symmetric_under_swap():
    n_steps, t_end, snaps = aligned_setup()
    a = run_record(8, 6, n_steps, t_end, snaps, variant="alg1")
    b = run_record(8, 6, n_steps, t_end, snaps, variant="alg2")
    rab = compare_records(a, b)
    rba = compare_records(b, a)
    for (f1, n1, abs1, _), (f2, n2, abs2, _) in zip(rab.rows(), rba.rows()):
        assert (f1, n1) == (f2, n2)
        assert abs1 == pytest.approx(abs2, rel=1e-12)


def test_nested_refinement_comparison_runs():
    # same physics, refined mesh and step: errors small but nonzero
    n_steps, t_end, snaps = aligned_setup()
    coarse = run_record(8, 6, n_steps, t_end, snaps)
    fine = run_record(16, 12, 4 * n_steps, t_end, snaps)
    rep = compare_records(coarse, fine)
    assert 0 < rep.c.linf_l2 < math.sqrt(P.l)
    assert 0 < rep.c1.linf_l2
    assert rep.c1.rel_linf_l2 is not None
    assert rep.c2.l2_h1 is None


def test_relative_error_undefined_for_zero_reference():
    # reference c2 field is identically zero at t=0 snapshots only
    ops = build_operators(P, 4, 4)
    dt = 0.5 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)
    cfg = SchemeConfig("monolithic", dt, t_end=0.0)
    a = run_simulation(P, ops, cfg, [0.0])
    b = run_simulation(P, ops, cfg, [0.0])
    rep = compare_records(a, b)
    assert rep.c2.ref_linf_l2 == 0.0
    assert rep.c2.rel_linf_l2 is None
    assert rep.c.rel_linf_l2 == 0.0  # reference c is the unit state


def test_non_nested_meshes_rejected():
    n_steps, t_end, snaps = aligned_setup()
    a = run_record(8, 6, n_steps, t_end, snaps)
    b = run_record(12, 9, 2 * n_steps, t_end, snaps)
    with pytest.raises(ValidationError, match="nested"):
        compare_records(a, b)


def test_disjoint_snapshots_rejected():
    n_steps, t_end, _ = aligned_setup()
    a = run_record(8, 6, n_steps, t_end, [0.0])
    b = run_record(8, 6, n_steps, t_end, [t_end])
    with pytest.raises(ValidationError, match="disjoint"):
        compare_records(a, b)


@pytest.mark.parametrize("n_snaps", [1, 2, 7])
def test_block_norms_match_per_pair_oracle(n_snaps):
    # an alg1 record against a 2x refined reference on 4x the steps
    n_steps, t_end, _ = aligned_setup()
    snaps = [t_end * k / max(1, n_snaps - 1) for k in range(n_snaps)]
    test = run_record(8, 6, n_steps, t_end, snaps, variant="alg1")
    ref = run_record(16, 12, 4 * n_steps, t_end, snaps)
    got, want = compare_records(test, ref), oracles.error_norms_oracle(test,
                                                                       ref)
    for (f1, n1, abs1, rel1), (f2, n2, abs2, rel2) in zip(got.rows(),
                                                          want.rows()):
        assert (f1, n1) == (f2, n2)
        assert abs1 == pytest.approx(abs2, rel=1e-14, abs=0)
        assert rel1 == pytest.approx(rel2, rel=1e-14, abs=0)
    assert len(got.rows()) == len(want.rows()) == 8
    if n_snaps == 1:
        assert got.c.l2_l2 == 0.0


def test_snapshots_pair_on_actual_time():
    # a request that snaps to step k pairs with a reference snapshot
    # requested exactly at k*dt, as the same request at k*dt does
    n_steps, t_end, _ = aligned_setup()
    dt = t_end / n_steps
    ref = run_record(16, 12, 4 * n_steps, t_end, [0.0, 30 * dt])
    snapped = run_record(8, 6, n_steps, t_end, [0.0, 30.3 * dt])
    exact = run_record(8, 6, n_steps, t_end, [0.0, 30 * dt])
    assert snapped.snapshots[1].t == exact.snapshots[1].t
    assert compare_records(snapped, ref).rows() == compare_records(
        exact, ref).rows()


def test_equal_requests_on_different_steps_refused():
    # 5.4*dt lands on step 5 (t = 5*dt) of the coarse run and on step 11
    # (t = 5.5*dt) of the run at half the step: not one time
    _, t_end, _ = aligned_setup(n_steps=10)
    a = run_record(8, 6, 10, t_end, [0.54 * t_end])
    b = run_record(8, 6, 20, t_end, [0.54 * t_end])
    assert a.snapshots[0].t != b.snapshots[0].t
    with pytest.raises(ValidationError, match="disjoint"):
        compare_records(a, b)
