"""Independent finite-difference solver used to cross-validate the FEM path.

Same PDE system, same uniform grids, but a completely separate
discretization: second-order central differences for both diffusion
terms and the advection term, with the Robin/flux interface and no-flux
boundary conditions imposed through ghost points eliminated to second
order.  Time stepping is fully explicit from level-k values only.

Monitors use trapezoid quadrature on nodal values, so no FEM machinery
enters this module's numerics.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CflError, InstabilityError, ValidationError
from .fem import MEDIA, STENT, build_mesh
from .params import ModelParams
from .stepping import (RunRecorder, SolutionRecord, record_echo,
                       sharp_dt_limit, step_count)


def run_fd(
    p: ModelParams,
    n_s: int,
    n_m: int,
    dt: float,
    t_end: float,
    snapshot_times,
    record_every: int = 1,
    stent_init: float = 1.0,
    hold_c1_at: float | None = None,
) -> SolutionRecord:
    """Explicit finite-difference run producing the same record shape.

    ``stent_init`` overrides the initial coating concentration (the
    standard initial data is 1).  ``hold_c1_at`` freezes the wall field
    at a constant, a manufactured mode used to test the uptake ODE in
    isolation.  The step is gated on the finite-element solver's
    ``sharp_dt_limit``, where this scheme is stable while the cell
    Peclet number pe*h_m is at most 2; a larger one is refused with
    CflError before the first step, since the central advection
    difference then grows at that limit.
    """
    if not dt > 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValidationError(f"t_end must be nonnegative, got {t_end}")
    mesh_s = build_mesh(STENT, n_s, l=p.l)
    mesh_m = build_mesh(MEDIA, n_m)
    h_s, h_m = mesh_s.h, mesh_m.h
    if p.pe * h_m > 2.0:
        raise CflError(
            f"cell Peclet number pe*h_m={p.pe * h_m:.6g} exceeds 2: the "
            f"central advection difference is unstable; refine the media "
            f"mesh to n_m >= {math.ceil(p.pe / 2.0)}"
        )
    limit = sharp_dt_limit(p, h_s, h_m)
    if dt > limit:
        raise CflError(
            f"dt={dt:.6g} exceeds the stability allowance {limit:.6g}"
        )

    n_steps = step_count(t_end, dt)
    config_echo = record_echo("fd", p, n_s, n_m, record_every,
                              variant="monolithic", dt_m=dt, t_end=t_end)
    rec = RunRecorder(mesh_s, mesh_m, snapshot_times, dt, n_steps,
                      record_every, t_end, config_echo)

    # the interface x = 0 carries one unknown per side: the last entry of
    # c (stent side) and the first entries of c1/c2 (wall side)
    c = np.full(n_s + 1, float(stent_init))
    c1 = np.zeros(n_m + 1)
    c2 = np.zeros(n_m + 1)
    if hold_c1_at is not None:
        c1[:] = hold_c1_at

    # trapezoid weights for the mass/energy monitors
    w_s = np.full(n_s + 1, h_s)
    w_s[0] = w_s[-1] = h_s / 2.0
    w_m = np.full(n_m + 1, h_m)
    w_m[0] = w_m[-1] = h_m / 2.0

    nu_s = dt * p.delta / (h_s * h_s)
    dp = p.delta * p.p_tilde
    ode_decay = 1.0 - dt * p.da / ((1.0 - p.phi) * p.k_part)
    ode_gain = dt * p.da / (1.0 - p.phi)

    def mass():
        return float(w_s @ c + p.phi * (w_m @ c1) + (1 - p.phi) * (w_m @ c2))

    def energy():
        return float(w_s @ (c * c) + w_m @ (c1 * c1) + w_m @ (c2 * c2))

    mass0 = mass()
    outflow_sum = 0.0

    for k in range(n_steps + 1):
        t = k * dt
        if rec.wants_monitor(k):
            m_k = mass()
            if not math.isfinite(m_k):
                raise InstabilityError(
                    f"instability detected: non-finite state at t={t:.6g}"
                )
            resid = m_k - mass0 + p.pe * dt * outflow_sum
            rec.monitor(k, t, c, c1, m_k, float(w_s @ c), energy(), resid)
        rec.maybe_snapshot(k, t, c, c1, c2)
        if k == n_steps:
            break
        outflow_sum += float(c1[-1])

        c_new = c.copy()
        c_new[1:-1] += nu_s * (c[2:] - 2.0 * c[1:-1] + c[:-2])
        c_new[0] += nu_s * 2.0 * (c[1] - c[0])
        c_new[-1] += nu_s * (
            2.0 * c[-2] - 2.0 * c[-1] + 2.0 * h_s * p.p_tilde * (c1[0] - c[-1])
        )

        if hold_c1_at is None:
            c1_new = c1.copy()
            c1_new[1:-1] += (dt / p.phi) * (
                (c1[2:] - 2.0 * c1[1:-1] + c1[:-2]) / (h_m * h_m)
                - p.pe * (c1[2:] - c1[:-2]) / (2.0 * h_m)
                - p.da * c1[1:-1]
                + (p.da / p.k_part) * c2[1:-1]
            )
            # x = 0: eliminate the ghost via the flux condition
            # (c1)_x(0) = pe*c1(0) + delta*P*(c1(0) - c(0-))
            beta = p.pe * c1[0] + dp * (c1[0] - c[-1])
            c1_new[0] += (dt / p.phi) * (
                2.0 * (c1[1] - c1[0]) / (h_m * h_m)
                - 2.0 * beta / h_m
                - p.pe * beta
                - p.da * c1[0]
                + (p.da / p.k_part) * c2[0]
            )
            # x = 1: no-flux ghost kills advection and mirrors diffusion
            c1_new[-1] += (dt / p.phi) * (
                2.0 * (c1[-2] - c1[-1]) / (h_m * h_m)
                - p.da * c1[-1]
                + (p.da / p.k_part) * c2[-1]
            )
        else:
            c1_new = c1

        c2 = ode_decay * c2 + ode_gain * c1
        c, c1 = c_new, c1_new

    return rec.build()
