"""Small-scale smoke tests of the study drivers; the full-scale runs with
pinned tolerances live in the acceptance module."""

import pytest

from stentsim import ValidationError, paper_params
from stentsim.analysis import (
    compare_algorithms,
    convergence_study,
    make_reference,
    stepping_study,
)
from stentsim.stepping import stable_step_count

P = paper_params()


def test_convergence_study_small():
    table = convergence_study(P, n_m0=4, levels=2, stent_ratio=2,
                              ref_refine=2, t_end=0.2, n_snapshots=4)
    assert table.h_values == [0.25, 0.125]
    # errors decrease under refinement for every field and norm
    for name in ("c", "c1", "c2"):
        errs = [r.field(name).linf_l2 for r in table.reports]
        assert errs[1] < errs[0]
        assert len(table.rates_linf_l2[name]) == 1
    assert set(table.rates_l2_h1) == {"c", "c1"}
    rows = table.rows()
    assert any(r[5] != "" for r in rows)


def small_reference(t_end, n_test_steps):
    n_ref = n_test_steps * max(
        1, -(-stable_step_count(P, P.l / 16, 1.0 / 16, t_end) // n_test_steps)
    )
    snaps = [0.0, t_end / 2, t_end]
    return make_reference(P, 16, 16, n_ref, t_end, snaps), snaps


def test_stepping_study_small():
    n_steps = stable_step_count(P, P.l / 8, 1.0 / 4, 0.3, multiple_of=2)
    ref, snaps = small_reference(0.3, n_steps)
    reports = stepping_study(P, ref, 4, [1, 2], n_steps, 0.3, snaps)
    assert set(reports) == {1, 2}
    # refining the stent mesh helps every field
    for name in ("c", "c1", "c2"):
        assert (reports[2].field(name).linf_l2
                < reports[1].field(name).linf_l2)


@pytest.mark.parametrize("ratios", [[1.5], [2.9], [1, 0]])
def test_stepping_study_refuses_non_whole_ratios(ratios):
    # int() would run 1.5 as 1 and 2.9 as 2, keyed 1 and 2; no run starts
    with pytest.raises(ValidationError, match="whole number >= 1"):
        stepping_study(P, None, 4, ratios, 10, 0.3, [0.0])


def test_compare_algorithms_small():
    n_steps = stable_step_count(P, P.l / 8, 1.0 / 4, 0.3, multiple_of=2)
    ref, snaps = small_reference(0.3, n_steps)
    comp = compare_algorithms(P, ref, 8, 4, n_steps, 0.3, snaps)
    assert list(comp) == ["alg1", "alg2", "monolithic"]
    for rep in comp.values():
        assert rep.c.linf_l2 > 0
    # decoupling error is a perturbation of the shared discretization error
    for name in ("c", "c1", "c2"):
        vals = [rep.field(name).linf_l2 for rep in comp.values()]
        assert max(vals) < 2.0 * min(vals) + 1e-14
