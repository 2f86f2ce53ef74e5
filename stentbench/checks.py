"""Correctness checks for the benchmark's workloads.

Every check recomputes what it needs with the benchmark's own numerics
(trapezoid sums, P1 mass-matrix norms, linear prolongation) or tests a
property the method must have.  None compares against a stored copy of
earlier output.  A failed check raises ``CheckFailed`` naming the check.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

FIELDS = ("c", "c1", "c2")

# Criterion 3's gate on the FD-FEM wall-field differences.
CROSSCHECK_GATE = 1e-4
# The FD-FEM gap of the study's reference must be at most this share of
# the smallest variant error it brackets, or the bracket says nothing.
STUDY_GAP_SHARE = 0.25
# Relative slack for values that two codes compute with the same formula
# in a different summation order.
ROUNDOFF = 1e-12


class CheckFailed(Exception):
    """A workload's output is wrong; the message names the check."""


def _fail(check: str, detail: str):
    raise CheckFailed(f"{check}: {detail}")


# ------------------------------------------------------------- reading


def read_table(path) -> dict[str, np.ndarray]:
    """Numeric CSV columns by header name."""
    with Path(path).open() as fh:
        rd = csv.DictReader(fh)
        rows = list(rd)
        names = rd.fieldnames or []
    return {n: np.array([float(r[n]) for r in rows]) for n in names}


def read_snapshots(path) -> dict[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Long-format snapshots: time -> field -> (x, value), sorted by x."""
    raw: dict[float, dict[str, list]] = {}
    with Path(path).open() as fh:
        for row in csv.DictReader(fh):
            slot = raw.setdefault(float(row["t"]), {})
            slot.setdefault(row["field"], []).append(
                (float(row["x"]), float(row["value"])))
    out = {}
    for t, fields in raw.items():
        out[t] = {}
        for name, pairs in fields.items():
            pairs.sort()
            out[t][name] = (np.array([x for x, _ in pairs]),
                            np.array([v for _, v in pairs]))
    return out


def read_error_rows(path) -> dict[tuple, float]:
    """(variant-or-empty, field, norm) -> absolute error from a study CSV."""
    out = {}
    with Path(path).open() as fh:
        for row in csv.DictReader(fh):
            key = (row.get("variant", ""), row["field"], row["norm"])
            out[key] = float(row["absolute"])
    return out


# ------------------------------------------------------------- numerics


def trapezoid(x: np.ndarray, v: np.ndarray) -> float:
    return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(x)))


def p1_l2(x: np.ndarray, d: np.ndarray) -> float:
    """Exact L2 norm of the piecewise-linear interpolant of nodal d."""
    a, b = d[:-1], d[1:]
    return math.sqrt(float(np.sum(np.diff(x) / 3.0 * (a * a + a * b + b * b))))


def _fields(snap):
    return (snap.state.y0, snap.state.y1, snap.state.y2)


def linf_l2(test, ref) -> dict[str, float]:
    """Max over shared snapshots of the L2 norm of test - ref per field,
    with test interpolated linearly onto ref's (nested) nodes."""
    if len(test.snapshots) != len(ref.snapshots):
        _fail("snapshots", f"{len(test.snapshots)} against {len(ref.snapshots)}")
    x_t = (test.mesh_s.nodes, test.mesh_m.nodes, test.mesh_m.nodes)
    x_r = (ref.mesh_s.nodes, ref.mesh_m.nodes, ref.mesh_m.nodes)
    worst = dict.fromkeys(FIELDS, 0.0)
    for ts, rs in zip(test.snapshots, ref.snapshots):
        if abs(ts.t_request - rs.t_request) > 1e-12 * max(1.0, rs.t_request):
            _fail("snapshots", f"requested at {ts.t_request} and {rs.t_request}")
        for name, xt, xr, vt, vr in zip(FIELDS, x_t, x_r, _fields(ts), _fields(rs)):
            d = np.interp(xr, xt, vt) - vr
            worst[name] = max(worst[name], p1_l2(xr, d))
    return worst


# ------------------------------------------------------------- release


def check_initial_mass(monitors, l: float):
    """Unit coating concentration over (-l, 0) holds mass l."""
    m0 = monitors["mass"][0]
    if not abs(m0 - l) <= 1e-14 * l:
        _fail("initial-mass", f"M0={m0!r}, expected l={l!r}")


def check_mass_nonincreasing(monitors):
    """The only exit for drug is the outflow at x = 1, so mass never grows."""
    d = np.diff(monitors["mass"])
    if d.size and d.max() > 1e-15 * monitors["mass"][0]:
        k = int(np.argmax(d))
        _fail("mass-nonincreasing",
              f"mass grows by {d[k]:.3e} at t={monitors['t'][k + 1]!r}")


def check_snapshot_mass(snapshots, monitors, phi: float):
    """Trapezoid integral of each snapshot equals the monitored mass.

    Row sums of the P1 mass matrix are the trapezoid weights, so the two
    agree to roundoff."""
    times = monitors["t"]
    m0 = monitors["mass"][0]
    for t, fields in snapshots.items():
        hit = np.nonzero(times == t)[0]
        if hit.size != 1:
            _fail("snapshot-mass", f"no monitor record at snapshot t={t!r}")
        mass = (trapezoid(*fields["c"]) + phi * trapezoid(*fields["c1"])
                + (1.0 - phi) * trapezoid(*fields["c2"]))
        if not abs(mass - monitors["mass"][hit[0]]) <= 1e-13 * m0:
            _fail("snapshot-mass",
                  f"t={t!r}: trapezoid {mass!r} against monitor "
                  f"{monitors['mass'][hit[0]]!r}")


def check_mass_balance(monitors, interface, pe: float, dp: float, dt: float):
    """Left-rectangle outflow sum closes M(t) - M0 to O(dt).

    The decoupled update lags the interface exchange (delta*P times the
    coating and wall traces) and, with substeps, the outflow (pe times
    c1(1)); summed over the run each lag telescopes to dt times a trace
    change, and every trace lies in [0, 1]."""
    mass = monitors["mass"]
    outflow = np.concatenate(([0.0], np.cumsum(interface["c1_at_1"][:-1])))
    resid = mass - mass[0] + pe * dt * outflow
    bound = dt * (2.0 * dp + pe)
    worst = float(np.max(np.abs(resid)))
    if not worst <= bound:
        _fail("mass-balance", f"max |residual| {worst:.3e} > {bound:.3e}")


def check_svg(path, n_series: int):
    text = Path(path).read_text()
    if text.count("<polyline") != n_series:
        _fail("svg", f"{path} holds {text.count('<polyline')} series, "
                     f"expected {n_series}")


def check_release(results: Path, params, dt: float, n_snapshots: int):
    monitors = read_table(results / "monitors.csv")
    interface = read_table(results / "interface.csv")
    snapshots = read_snapshots(results / "snapshots.csv")
    if len(snapshots) != n_snapshots:
        _fail("snapshot-count", f"{len(snapshots)} != {n_snapshots}")
    check_initial_mass(monitors, params.l)
    check_mass_nonincreasing(monitors)
    check_snapshot_mass(snapshots, monitors, params.phi)
    check_mass_balance(monitors, interface, params.pe,
                       params.delta * params.p_tilde, dt)
    check_svg(results / "interface.svg", 1)
    check_svg(results / "profiles.svg", n_snapshots)


# ------------------------------------------------------------- study


def check_study_agreement(table: dict, variants: dict, gap: dict, fd_ref):
    """Each variant's Linf(L2) error, recomputed against the FD reference,
    lies within the FD-FEM reference gap of the reported error (triangle
    inequality)."""
    for variant, rec in variants.items():
        own = linf_l2(rec, fd_ref)
        for name in FIELDS:
            reported = table[(variant, name, "linf_l2")]
            slack = gap[name] + ROUNDOFF * reported
            if not abs(own[name] - reported) <= slack:
                _fail("study-agreement",
                      f"{variant} {name}: {reported:.6e} reported, "
                      f"{own[name]:.6e} against FD, gap {gap[name]:.3e}")


def check_study_gap(table: dict, gap: dict):
    """The reference gap stays well below the errors it brackets."""
    for name in FIELDS:
        smallest = min(v for (var, f, n), v in table.items()
                       if f == name and n == "linf_l2")
        if not gap[name] <= STUDY_GAP_SHARE * smallest:
            _fail("study-gap", f"{name}: gap {gap[name]:.3e} against "
                               f"error {smallest:.3e}")


def check_study(results: Path, variants: dict, fem_ref, fd_ref):
    table = read_error_rows(results / "algorithm_comparison.csv")
    if sorted(variants) != sorted({v for v, _, _ in table}):
        _fail("study-variants", f"{sorted(variants)} against the table")
    gap = linf_l2(fd_ref, fem_ref)
    check_study_gap(table, gap)
    check_study_agreement(table, variants, gap, fd_ref)


# ------------------------------------------------------------- crosscheck


def check_crosscheck_gate(own: dict):
    for name in ("c1", "c2"):
        if not own[name] < CROSSCHECK_GATE:
            _fail("crosscheck-gate",
                  f"{name}: FD-FEM {own[name]:.3e} >= {CROSSCHECK_GATE}")


def check_crosscheck_report(table: dict, own: dict):
    """The reported differences are the ones the two runs really have."""
    for name in FIELDS:
        reported = table[("", name, "linf_l2")]
        if not abs(reported - own[name]) <= ROUNDOFF * own[name]:
            _fail("crosscheck-report",
                  f"{name}: reported {reported:.6e}, recomputed {own[name]:.6e}")


def check_crosscheck(results: Path, fem, fd):
    table = read_error_rows(results / "fd_comparison.csv")
    own = linf_l2(fd, fem)
    check_crosscheck_gate(own)
    check_crosscheck_report(table, own)
