"""Error norms between runs, refinement studies, and scheme comparisons.

References are fine-grid numerical runs, never manufactured solutions.
Snapshots pair on their actual times t (to 1e-9 relative).  Norms are
taken in blocks, a row per paired snapshot: the test rows are prolonged
onto the reference mesh by exact P1 interpolation (nested uniform
meshes) in one call, the L2 norms are one quadratic form of the
reference-mesh mass matrix and the H1 seminorms come from nodal
differences along the rows.  Time norms use the left-endpoint rectangle
rule over the common snapshot times.  Relative errors are normalized by
the reference field's own max-in-time L2 magnitude.

Every study returns a mapping of ``ErrorReport``: ``compare_algorithms``
keyed by variant (alg1, alg2, monolithic), ``stepping_study`` by
stent/media ratio; ``convergence_study``'s ``RateTable`` holds one
report per refinement level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllocationError, ValidationError
from .fem import assemble_mass, build_operators, mesh_widths
from .params import ModelParams
from .stepping import (
    SchemeConfig,
    SolutionRecord,
    run_simulation,
    stable_step_count,
    whole_number,
)

REL_FLOOR = 1e-14  # relative errors undefined below this reference magnitude

FIELDS = ("c", "c1", "c2")


@dataclass(frozen=True)
class FieldError:
    """Discrete error norms for one field against a reference run."""

    linf_l2: float
    l2_l2: float
    l2_h1: float | None  # None for the uptake field (no gradient norm)
    ref_linf_l2: float   # magnitude used for the relative versions

    def _rel(self, v):
        if v is None or self.ref_linf_l2 <= REL_FLOOR:
            return None
        return v / self.ref_linf_l2

    @property
    def rel_linf_l2(self) -> float | None:
        return self._rel(self.linf_l2)


@dataclass(frozen=True)
class ErrorReport:
    c: FieldError
    c1: FieldError
    c2: FieldError

    def field(self, name: str) -> FieldError:
        if name not in FIELDS:
            raise ValidationError(f"unknown field {name!r}")
        return getattr(self, name)

    def rows(self):
        """(field, norm, absolute, relative) tuples for tables/CSV."""
        out = []
        for name in FIELDS:
            fe = self.field(name)
            out.append((name, "linf_l2", fe.linf_l2, fe.rel_linf_l2))
            out.append((name, "l2_l2", fe.l2_l2, fe._rel(fe.l2_l2)))
            if fe.l2_h1 is not None:
                out.append((name, "l2_h1", fe.l2_h1, fe._rel(fe.l2_h1)))
        return out


def prolong(values: np.ndarray, n_test: int, n_ref: int) -> np.ndarray:
    """P1 interpolation from a uniform mesh with n_test elements onto a
    nested uniform refinement with n_ref elements, along the last axis
    (a 2-D array prolongs row by row).  Exact on shared nodes
    (prolong-then-restrict is the identity on nodal values)."""
    if n_ref % n_test != 0:
        raise ValidationError(
            f"reference mesh ({n_ref} elements) is not a refinement of the "
            f"test mesh ({n_test} elements)"
        )
    if values.shape[-1] != n_test + 1:
        raise ValidationError("nodal vector does not match the test mesh")
    k = n_ref // n_test
    idx = np.arange(n_ref + 1)
    elem = idx // k
    frac = (idx % k) / k
    left = values[..., np.minimum(elem, n_test)]
    right = values[..., np.minimum(elem + 1, n_test)]
    # on shared nodes frac is 0 and this is left itself (finite values)
    return (1.0 - frac) * left + frac * right


def _common_snapshots(test: SolutionRecord, ref: SolutionRecord):
    """Pairs of snapshots taken at the same time t, to 1e-9 relative.  A
    record's snapshots lie on distinct steps, so each pairs at most once."""
    tol = 1e-9 * max(1.0, max((s.t for s in ref.snapshots), default=1.0))
    pairs = [(snap, rsnap) for snap in test.snapshots
             for rsnap in ref.snapshots if abs(snap.t - rsnap.t) <= tol]
    if not pairs:
        raise ValidationError("disjoint snapshot time sets")
    return pairs


def compare_records(test: SolutionRecord, ref: SolutionRecord) -> ErrorReport:
    """Discrete-norm differences between a run and a nested-finer reference."""
    n_s_t, n_m_t = test.mesh_s.n_elems, test.mesh_m.n_elems
    if abs(test.mesh_s.a - ref.mesh_s.a) > 1e-14 * max(1.0, abs(ref.mesh_s.a)):
        raise ValidationError("records use different stent thickness")
    if ref.mesh_s.n_elems % n_s_t or ref.mesh_m.n_elems % n_m_t:
        raise ValidationError(
            "reference meshes must be nested refinements of the test meshes"
        )
    pairs = _common_snapshots(test, ref)
    dt = np.diff([rsnap.t for _, rsnap in pairs])

    def field(y, n_test, mesh, with_h1):
        """The errors of nodal vector y (y0, y1 or y2), a row per pair."""
        mass = assemble_mass(mesh)
        want = np.array([getattr(rsnap.state, y) for _, rsnap in pairs])
        got = np.array([getattr(tsnap.state, y) for tsnap, _ in pairs])
        diff = prolong(got, n_test, mesh.n_elems) - want
        l2 = np.sqrt(np.maximum(mass.quadratic(diff), 0.0))
        # the stiffness form v.Sv as sum (v[i+1] - v[i])^2 / h: equal in
        # exact arithmetic, without its cancellation for near-constant v
        h1 = np.sqrt(np.sum(np.diff(diff) ** 2, axis=-1) / mesh.h)
        return FieldError(
            linf_l2=float(l2.max()),
            l2_l2=math.sqrt(dt @ l2[:-1] ** 2),
            l2_h1=math.sqrt(dt @ h1[:-1] ** 2) if with_h1 else None,
            ref_linf_l2=math.sqrt(max(mass.quadratic(want).max(), 0.0)),
        )

    return ErrorReport(c=field("y0", n_s_t, ref.mesh_s, True),
                       c1=field("y1", n_m_t, ref.mesh_m, True),
                       c2=field("y2", n_m_t, ref.mesh_m, False))


def fit_rate(errors, widths) -> list[float]:
    """Observed orders log2(e_i / e_{i+1}) for widths halving per level."""
    errors = [float(e) for e in errors]
    widths = [float(w) for w in widths]
    if len(errors) != len(widths) or len(errors) < 2:
        raise ValidationError("need equally many errors and widths, at least 2")
    for a, b in zip(widths, widths[1:]):
        if abs(b - a / 2.0) > 1e-9 * a:
            raise ValidationError("widths must halve from level to level")
    if any(e <= 0.0 for e in errors):
        raise ValidationError("errors must be positive to fit a rate")
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


@dataclass(frozen=True)
class RateTable:
    """Errors per refinement level plus fitted orders per adjacent pair,
    and the reference run they were measured against."""

    h_values: list[float]
    reports: list[ErrorReport]
    rates_linf_l2: dict[str, list[float]]   # per field c, c1, c2
    rates_l2_h1: dict[str, list[float]]     # per field c, c1
    reference: SolutionRecord

    def rows(self):
        """(level, h, field, norm, error, rate to the next level) tuples,
        the columns of convergence.csv; rate is "" where none is fitted."""
        out = []
        for i, (h, rep) in enumerate(zip(self.h_values, self.reports)):
            for name, norm, absval, _ in rep.rows():
                rates = self.rates_linf_l2 if norm == "linf_l2" else (
                    self.rates_l2_h1 if norm == "l2_h1" else None)
                rate = ""
                if rates is not None and name in rates and i < len(rates[name]):
                    rate = rates[name][i]
                out.append((i, h, name, norm, absval, rate))
        return out


def convergence_study(
    p: ModelParams,
    n_m0: int = 10,
    levels: int = 3,
    stent_ratio: int = 2,
    ref_refine: int = 3,
    t_end: float = 0.1,
    n_snapshots: int = 10,
    variant: str = "monolithic",
) -> RateTable:
    """Refinement study against a much finer run of the same scheme.

    Levels halve h starting from n_m0 media elements (stent elements a
    fixed multiple); the reference refines the finest level ref_refine
    more times.  Each level steps at the sharp stability limit, so dt
    scales with h^2 and the first-order time error stays subdominant.
    A reference too large to allocate raises ValidationError (key
    ``levels``).
    """
    if levels < 2:
        raise ValidationError("need at least two refinement levels",
                              key="levels")
    if ref_refine < 1:
        raise ValidationError("reference must be finer than the finest level")
    snapshot_times = [i * t_end / n_snapshots for i in range(n_snapshots + 1)]

    def run(n_m):
        # sharp-limit step count, landing the snapshots on the step grid
        n_s = stent_ratio * n_m
        n_steps = stable_step_count(p, *mesh_widths(p, n_s, n_m), t_end,
                                    multiple_of=n_snapshots)
        return make_reference(p, n_s, n_m, n_steps, t_end, snapshot_times,
                              variant)

    n_ref = n_m0 * 2 ** (levels - 1 + ref_refine)
    try:  # the largest run, allocated before any step is taken
        ref = run(n_ref)
    except (MemoryError, AllocationError) as exc:
        raise ValidationError(
            f"the reference mesh of {stent_ratio * n_ref}/{n_ref} elements "
            f"cannot be allocated ({exc})", key="levels") from None
    h_values, reports = [], []
    for level in range(levels):
        n_m = n_m0 * 2 ** level
        rec = run(n_m)
        h_values.append(1.0 / n_m)
        reports.append(compare_records(rec, ref))

    rates_linf = {
        name: fit_rate([r.field(name).linf_l2 for r in reports], h_values)
        for name in FIELDS
    }
    rates_h1 = {
        name: fit_rate([r.field(name).l2_h1 for r in reports], h_values)
        for name in ("c", "c1")
    }
    return RateTable(h_values, reports, rates_linf, rates_h1, ref)


def make_reference(
    p: ModelParams,
    n_s: int,
    n_m: int,
    n_steps: int,
    t_end: float,
    snapshot_times,
    variant: str = "monolithic",
) -> SolutionRecord:
    """One run of n_steps equal steps to t_end, recorded about 200 times:
    the fine-grid reference and every test run of the accuracy studies."""
    ops = build_operators(p, n_s, n_m)
    cfg = SchemeConfig(variant, t_end / n_steps, t_end=t_end)
    return run_simulation(p, ops, cfg, snapshot_times,
                          record_every=max(1, n_steps // 200))


def stepping_study(
    p: ModelParams,
    ref: SolutionRecord,
    n_m: int,
    ratios,
    n_steps: int,
    t_end: float,
    snapshot_times,
    variant: str = "alg1",
) -> dict[int, ErrorReport]:
    """Vary the stent/media element ratio at a fixed time step.

    For each ratio q the run uses q*n_m stent elements against the given
    fine reference; only the spatial ratio changes between rows.
    """
    ratios = [whole_number(q, "ratios") for q in ratios]
    out = {}
    for q in ratios:
        rec = make_reference(p, q * n_m, n_m, n_steps, t_end,
                             snapshot_times, variant)
        out[q] = compare_records(rec, ref)
    return out


def compare_algorithms(
    p: ModelParams,
    ref: SolutionRecord,
    n_s: int,
    n_m: int,
    n_steps: int,
    t_end: float,
    snapshot_times,
) -> dict[str, ErrorReport]:
    """Accuracy of the two decoupling strategies (and the fully explicit
    update) on identical meshes and steps, against one fine reference:
    reports keyed alg1, alg2, monolithic, in that order."""
    reports = {}
    for variant in ("alg1", "alg2", "monolithic"):
        rec = make_reference(p, n_s, n_m, n_steps, t_end, snapshot_times,
                             variant)
        reports[variant] = compare_records(rec, ref)
    return reports
