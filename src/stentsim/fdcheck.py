"""Independent finite-difference solver used to cross-validate the FEM path.

Same PDE system, same uniform grids, but a completely separate
discretization: second-order central differences for both diffusion
terms and the advection term, with the Robin/flux interface and no-flux
boundary conditions imposed through ghost points eliminated to second
order.  Time stepping is fully explicit from level-k values only.

The step is linear, so its stencils are assembled once into one
tridiagonal operator T on the stacked nodal state z = [c; c1], where
c lives on [-l, 0] and c1 on [0, 1] and the interface carries both
c[-1] (x = 0-) and c1[0] (x = 0+).  With nu = dt*delta/h_s^2,
a = dt/phi, h = h_m and dp = delta*P, the rows of T are

    x = -l:  diag 1 - 2*nu,  upper 2*nu
    stent:   lower nu,  diag 1 - 2*nu,  upper nu
    x = 0-:  lower 2*nu,  diag 1 - 2*nu - 2*nu*h_s*P,  upper 2*nu*h_s*P
    x = 0+:  lower a*dp*(2/h + pe),  upper 2*a/h^2,
             diag 1 - a*(2/h^2 + da) - a*(2/h + pe)*(pe + dp)
    wall:    lower a*(1/h^2 + pe/(2h)),  diag 1 - a*(2/h^2 + da),
             upper a*(1/h^2 - pe/(2h))
    x = 1:   lower 2*a/h^2,  diag 1 - a*(2/h^2 + da)

The ghost points at x = -l and x = 1 mirror the interior neighbour (no
flux, and no advection at x = 1).  At x = 0- the ghost carries the flux
delta*c_x = delta*P*(c1(0) - c(0-)), which puts 2*nu*h_s*P on the
stent-to-wall off-diagonal.  At x = 0+ it carries (c1)_x(0) = beta =
pe*c1(0) + dp*(c1(0) - c(0-)); eliminating beta puts a*dp*(2/h + pe) on
the wall-to-stent off-diagonal and -a*(2/h + pe)*(pe + dp) on the first
wall diagonal entry.  One step is then

    z'  = T z + (dt*da/(phi*K)) [0; c2]
    c2' = (1 - dt*da/((1-phi)*K)) c2 + (dt*da/(1-phi)) c1

with every source from level k.  T is a ``TridiagonalMatrix`` whose
band is written here from the stencils above, so T z is its ``matvec``
and each source term one ``axpy``, as in the finite-element kernel; a
block of states steps as the columns of 2-D arrays.  No finite-element
assembly enters this module's numerics, and the monitors use trapezoid
quadrature on nodal values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CflError
from .fem import MEDIA, STENT, TridiagonalMatrix, build_mesh, mesh_widths
from .params import ModelParams
from .stepping import (BlockMonitor, RunRecorder, SchemeConfig,
                       SolutionRecord, axpy, sharp_dt_limit)


def check_fd(p: ModelParams, n_s: int, n_m: int, dt: float) -> None:
    """Refuse a finite-difference run that cannot be stable, before any
    stepping.

    The step is gated on the finite-element solver's single-rate
    ``sharp_dt_limit``, since this solver takes no substeps, and it is
    stable there while the cell Peclet number pe*h_m is at most 2; a
    larger one raises CflError, since the central advection difference
    then grows at that limit, and so does a dt above it (keyed
    ``time.dt_m``, the config key it comes from).
    """
    h_s, h_m = mesh_widths(p, n_s, n_m)
    if p.pe * h_m > 2.0:
        raise CflError(
            f"cell Peclet number pe*h_m={p.pe * h_m:.6g} exceeds 2: the "
            f"central advection difference is unstable; refine the media "
            f"mesh to n_m >= {math.ceil(p.pe / 2.0)}"
        )
    limit = sharp_dt_limit(p, h_s, h_m)
    if dt > limit:
        raise CflError(
            f"time.dt_m: dt={dt:.6g} exceeds the stability allowance "
            f"{limit:.6g} of the single-rate finite-difference solver",
            key="time.dt_m")


class _FdStep:
    """The assembled step (see the module docstring): T on z = [c; c1]
    as ``op``, the c2 source coefficient of the wall rows and the uptake
    update."""

    def __init__(self, p: ModelParams, mesh_s, mesh_m, dt: float):
        h_s, h = mesh_s.h, mesh_m.h
        self.n0 = n0 = mesh_s.n_elems + 1
        nu = dt * p.delta / (h_s * h_s)
        a = dt / p.phi
        dp = p.delta * p.p_tilde
        self.op = TridiagonalMatrix(
            np.zeros((3, n0 + mesh_m.n_elems + 1), order="F"))
        upper, diag, lower = self.op.upper, self.op.diag, self.op.lower

        diag[:n0] = 1.0 - 2.0 * nu
        upper[:n0 - 1] = nu
        lower[:n0 - 1] = nu
        upper[0] = 2.0 * nu
        lower[n0 - 2] = 2.0 * nu
        diag[n0 - 1] -= 2.0 * nu * h_s * p.p_tilde
        upper[n0 - 1] = 2.0 * nu * h_s * p.p_tilde

        diag[n0:] = 1.0 - a * (2.0 / (h * h) + p.da)
        upper[n0:] = a * (1.0 / (h * h) - p.pe / (2.0 * h))
        lower[n0:] = a * (1.0 / (h * h) + p.pe / (2.0 * h))
        upper[n0] = 2.0 * a / (h * h)
        lower[-1] = 2.0 * a / (h * h)
        lower[n0 - 1] = a * dp * (2.0 / h + p.pe)
        diag[n0] -= a * (2.0 / h + p.pe) * (p.pe + dp)

        self.coef_c2 = dt * p.da / (p.phi * p.k_part)
        self.ode_decay = 1.0 - dt * p.da / ((1.0 - p.phi) * p.k_part)
        self.ode_gain = dt * p.da / (1.0 - p.phi)

    def step(self, z, c2):
        """One step from (z, c2), one state or a block of states as the
        columns of 2-D arrays; returns the new (z, c2)."""
        n0 = self.n0
        zn = self.op.matvec(z)
        axpy(c2, zn[n0:], self.coef_c2)
        return zn, axpy(z[n0:], self.ode_decay * c2, self.ode_gain)


def _trapezoid_monitor(p: ModelParams, mesh_s, mesh_m) -> BlockMonitor:
    """Trapezoid-rule mass, stent mass and squared L2 norms of the record
    [c; c1; c2]; the energy form is diagonal."""
    def weights(mesh):
        w = np.full(mesh.n_elems + 1, mesh.h)
        w[0] = w[-1] = mesh.h / 2.0
        return w

    w_s, w_m = weights(mesh_s), weights(mesh_m)
    form = np.zeros((3, len(w_s) + 2 * len(w_m)), order="F")
    form[1] = np.concatenate([w_s, w_m, w_m])
    mass = np.concatenate([w_s, p.phi * w_m, (1.0 - p.phi) * w_m])
    return BlockMonitor(mass, w_s, TridiagonalMatrix(form))


def run_fd(
    p: ModelParams,
    n_s: int,
    n_m: int,
    dt: float,
    t_end: float,
    snapshot_times,
    record_every: int = 1,
) -> SolutionRecord:
    """Explicit finite-difference run from the standard initial data, with
    the finite-element run's record shape and config keys.  The time
    inputs are checked as for a finite-element run, by
    ``SchemeConfig("monolithic", dt, t_end)``, and ``check_fd`` gates
    stability, both before the first step.
    """
    cfg = SchemeConfig("monolithic", dt, t_end)
    check_fd(p, n_s, n_m, dt)
    mesh_s = build_mesh(STENT, n_s, l=p.l)
    mesh_m = build_mesh(MEDIA, n_m)
    rec = RunRecorder("fd", p, cfg, mesh_s, mesh_m, snapshot_times,
                      record_every, _trapezoid_monitor(p, mesh_s, mesh_m))
    z = np.concatenate([np.ones(n_s + 1), np.zeros(n_m + 1)])
    return rec.run(_FdStep(p, mesh_s, mesh_m, dt).step, z, np.zeros(n_m + 1))
