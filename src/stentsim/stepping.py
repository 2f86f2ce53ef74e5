"""Explicit time stepping for the coupled stent/media/uptake system.

Fully discrete update (one step of size dt, all sources from level k):

    Psi_s y0' = (Psi_s - dt*A) y0 + dt*delta*P * y1[0] * e_last
    Psi_m y1' = (Psi_m - (dt/phi)*B) y1 + (dt*da/(phi*K)) Psi_m y2
                + (dt/phi)*delta*P * y0[last] * e_first
    y2'       = (1 - dt*da/((1-phi)*K)) y2 + (dt*da/(1-phi)) y1

Three coupling variants are provided.  ``monolithic`` takes every source
from level k.  ``alg1`` first advances y0 and y2 from level-k data (the
two updates are data-independent and could run concurrently), then
advances y1 using the fresh stent trace and fresh y2.  ``alg2`` is
sequential: y2 first, then y1 (fresh y2, stale stent trace), then y0
(fresh wall trace).

Multi-rate stepping advances one subdomain in ``substep_ratio`` equal
substeps of dt/ratio per macro step while the trace it consumes stays
frozen, at level k except where the variant reads a fresh trace: alg1's
media reads the stent trace after the stent's whole macro step, alg2's
stent the wall trace after the media's.  Each media substep's uptake
source reads y2 from the substep's start (monolithic) or end (alg1,
alg2).  A ratio of 1 reproduces the single-rate step bitwise.

The kernel computes this as one stacked step.  With z = [y0; y1] and
Psi = blockdiag(Psi_s, Psi_m), the first two updates read

    Psi z' = U z + (dt*da/(phi*K)) Psi [0; y2]

where U = blockdiag(Psi_s - dt*A, Psi_m - (dt/phi)*B) carries the two
interface sources on the junction's off-diagonals: dt*delta*P at the top
right (last stent row, first media column) and (dt/phi)*delta*P at the
bottom left.  Psi's junction off-diagonal is zero, so its LDL^T factor
restarts there and each block solves exactly as it would alone.  Since
Psi_m^-1 (c Psi_m y2) = c y2, the uptake source is added after the
solve, and a monolithic step is one tridiagonal matvec, one LAPACK
``dpttrs`` solve, y1' += c*y2 and the y2 update.  The decoupled variants
start from that result and add exact corrections along the precomputed
columns g_s = dt*delta*P Psi_s^-1 e_last and g_m = (dt/phi)*delta*P
Psi_m^-1 e_first:

    alg1:  y1' += c*y2' + (y0'[last] - y0[last]) g_m
    alg2:  y1' += c*y2',  then  y0' += (y1'[0] - y1[0]) g_s

In a multi-rate macro step the stacked step is the first substep of both
subdomains and the substepped subdomain takes its other ratio - 1
substeps alone; a correction that reads the substepped subdomain's trace
waits for those substeps, the other is applied before them.

Stability: one rule, ``sharp_dt_limit``, the explicit-Euler limit of
the consistent-mass system.  The largest generalized eigenvalue of
stiffness against the P1 mass matrix is 12/h^2, and the interface
penalty and the advection term tighten the per-subdomain limits
further; a substepped subdomain gets ``substep_ratio`` times its own
limit.  ``SchemeConfig`` refuses a macro step above ``cfl_safety`` times
that limit before the first step, and requires t_end to be a whole
number of macro steps (``step_count``).  ``stable_step_count`` plans
step counts on the same limit.  A runaway run is still caught by an
energy monitor that aborts loudly instead of writing non-finite output.

Recording: ``RunRecorder.run`` is the one time loop, for this solver
and the finite-difference one.  At each step k it takes the record and
snapshot due at t = k*dt, adds y1(1) to the outflow sum and steps.  A
record [z; y2] goes into a preallocated block of RECORD_BLOCK rows; each
full block, and the last partial one, is measured in one shot by the
solver's ``BlockMonitor`` (two matrix-vector products for the masses,
two einsums for the energy), guarded, and stored.  The guards name the
first failing record at its own t, so a run stops with the message a
per-record check would give and before any output is written.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import CflError, InstabilityError, SingularMatrixError, ValidationError
from .fem import MEDIA, STENT, FemOperators, Mesh1D, TridiagonalMatrix
from .params import ModelParams, energy_growth_rate

VARIANTS = ("monolithic", "alg1", "alg2")
SUBSTEP_DOMAINS = (STENT, MEDIA)

# abort threshold: measured energy versus the theoretical growth envelope
ENERGY_GUARD_FACTOR = 10.0
# stable_step_count plans dt this factor below the sharp limit
STEP_MARGIN = 1.05


@dataclass(eq=False)
class SimState:
    """Nodal coefficients of the three fields at one time level."""

    y0: np.ndarray  # stent concentration, n_s + 1 nodes
    y1: np.ndarray  # extracellular concentration, n_m + 1 nodes
    y2: np.ndarray  # intracellular concentration, n_m + 1 nodes
    t: float


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping choices for one run.

    dt_m is the macro step; the substepped subdomain (default: stent)
    advances substep_ratio times per macro step with step dt_m/ratio.
    """

    variant: str
    dt_m: float
    t_end: float
    substep_ratio: int = 1
    cfl_safety: float = 1.0
    substep_domain: str = STENT

    def __post_init__(self):
        for key, ok, message in (
            ("variant", self.variant in VARIANTS,
             f"unknown variant {self.variant!r}; expected one of {VARIANTS}"),
            ("dt_m", self.dt_m > 0, f"dt_m must be positive, got {self.dt_m}"),
            ("t_end", not self.t_end < 0,
             f"t_end must be nonnegative, got {self.t_end}"),
            ("substep_ratio",
             isinstance(self.substep_ratio, int) and self.substep_ratio >= 1,
             f"substep_ratio must be an integer >= 1, got {self.substep_ratio}"),
            ("cfl_safety", 0 < self.cfl_safety <= 1,
             f"cfl_safety must lie in (0, 1], got {self.cfl_safety}"),
            ("substep_domain", self.substep_domain in SUBSTEP_DOMAINS,
             f"substep_domain must be one of {SUBSTEP_DOMAINS}"),
        ):
            if not ok:
                raise ValidationError(message, key=key)
        step_count(self.t_end, self.dt_m)

    def check_cfl(self, p: ModelParams, ops: FemOperators) -> None:
        limit = self.cfl_safety * sharp_dt_limit(
            p, ops.mesh_s.h, ops.mesh_m.h, self.substep_ratio,
            self.substep_domain)
        if self.dt_m > limit:
            raise CflError(
                f"dt_m={self.dt_m:.6g} exceeds the stability allowance "
                f"{limit:.6g} (cfl_safety={self.cfl_safety}, "
                f"substep_ratio={self.substep_ratio}, "
                f"substep_domain={self.substep_domain})"
            )


@dataclass(eq=False)
class Snapshot:
    t_request: float
    t: float
    state: SimState


@dataclass(eq=False)
class InterfaceSeries:
    """Trace values per recorded step: c(0-), c1(0+), c1(1).  ``t`` is
    the same array as the record's ``MonitorSeries.t``."""

    t: np.ndarray
    c_at_0: np.ndarray
    c1_at_0: np.ndarray
    c1_at_1: np.ndarray


@dataclass(eq=False)
class MonitorSeries:
    """Conservation and energy diagnostics per recorded step.

    balance_residual is M^k - M^0 + pe*dt*sum_{j<k} c1^j(1): for the
    monolithic single-rate scheme it is pure roundoff.
    """

    t: np.ndarray
    mass: np.ndarray
    stent_mass: np.ndarray
    energy: np.ndarray
    balance_residual: np.ndarray


@dataclass(eq=False)
class SolutionRecord:
    """Everything one run produces."""

    mesh_s: Mesh1D
    mesh_m: Mesh1D
    snapshots: list[Snapshot]
    interface: InterfaceSeries
    monitors: MonitorSeries
    config: dict = field(default_factory=dict)


def initial_state(ops: FemOperators) -> SimState:
    """Unit concentration in the coating, nothing in the tissue."""
    return SimState(
        y0=np.ones(ops.mesh_s.n_elems + 1),
        y1=np.zeros(ops.mesh_m.n_elems + 1),
        y2=np.zeros(ops.mesh_m.n_elems + 1),
        t=0.0,
    )


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt that end exactly at t_end; raises
    ValidationError (key dt_m) unless t_end/dt is a whole number to 1e-9
    relative, so a run never stops short of its requested time."""
    ratio = t_end / dt
    n = round(ratio)
    if abs(ratio - n) > 1e-9 * ratio:
        raise ValidationError(
            f"t_end={t_end!r} is not a whole number of steps of {dt!r} "
            f"(t_end/dt = {ratio:.12g})", key="dt_m")
    return n


def sharp_dt_limit(
    p: ModelParams,
    h_s: float,
    h_m: float,
    substep_ratio: int = 1,
    substep_domain: str = STENT,
) -> float:
    """Largest stable explicit macro step for the consistent-mass system.

    Uses 2/lambda_max estimates with lambda_max(Psi^-1 S) = 12/h^2 and a
    4/h bound for the interface rank-one terms, and caps the media step
    at the explicit-Euler advection-diffusion bound 2*phi/pe^2.
    """
    dp = p.delta * p.p_tilde
    dt_s = h_s * h_s / (6.0 * p.delta + 2.0 * h_s * dp)
    dt_m = min(
        p.phi * h_m * h_m / (6.0 + 2.0 * h_m * (dp + p.pe) + p.da * h_m * h_m),
        2.0 * p.phi / (p.pe * p.pe),
    )
    if substep_domain == STENT:
        return min(substep_ratio * dt_s, dt_m)
    return min(dt_s, substep_ratio * dt_m)


def stable_step_count(
    p: ModelParams,
    h_s: float,
    h_m: float,
    t_end: float,
    substep_ratio: int = 1,
    substep_domain: str = STENT,
    multiple_of: int = 1,
) -> int:
    """Number of macro steps covering t_end at STEP_MARGIN below
    sharp_dt_limit, rounded up to a multiple (so snapshot times can sit
    on the grid)."""
    limit = sharp_dt_limit(p, h_s, h_m, substep_ratio, substep_domain)
    n = max(1, math.ceil(STEP_MARGIN * t_end / limit))
    if multiple_of > 1:
        n = ((n + multiple_of - 1) // multiple_of) * multiple_of
    return n


class _MassFactor:
    """Prefactored LDL^T solve for a symmetric positive tridiagonal matrix."""

    def __init__(self, m: TridiagonalMatrix):
        d, e, info = dpttrf(m.diag, m.lower)
        if info != 0:
            raise SingularMatrixError("matrix numerically singular")
        self._d = d
        self._e = e

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = dpttrs(self._d, self._e, rhs)
        if info != 0:  # pragma: no cover - only reachable on bad arguments
            raise SingularMatrixError("matrix numerically singular")
        return x


def _minus(mass: TridiagonalMatrix, op: TridiagonalMatrix, factor: float):
    """mass - factor * op."""
    return TridiagonalMatrix(
        mass.lower - factor * op.lower,
        mass.diag - factor * op.diag,
        mass.upper - factor * op.upper,
    )


def _stack(top: TridiagonalMatrix, bottom: TridiagonalMatrix,
           top_right: float, bottom_left: float) -> TridiagonalMatrix:
    """blockdiag(top, bottom) with the two junction off-diagonal entries."""
    return TridiagonalMatrix(
        np.concatenate([top.lower, [bottom_left], bottom.lower]),
        np.concatenate([top.diag, bottom.diag]),
        np.concatenate([top.upper, [top_right], bottom.upper]),
    )


def _block(m: TridiagonalMatrix, lo: int, hi: int) -> TridiagonalMatrix:
    """The diagonal block of rows and columns lo..hi-1 (views)."""
    return TridiagonalMatrix(m.lower[lo:hi - 1], m.diag[lo:hi],
                             m.upper[lo:hi - 1])


class _Kernel:
    """Precomputed stacked operators and the monitors for one run.

    The state is z = [y0; y1] (y0 is z[:n0]) plus y2.  A macro step is
    one stacked step: ``upd`` = blockdiag(Psi_s - dt_s*A, Psi_m -
    (dt_media/phi)*B) with the interface sources src_s (top right) and
    src_m (bottom left) on its junction off-diagonals, one solve with
    ``fac``, the LDL^T factor of blockdiag(Psi_s, Psi_m), and the uptake
    source coef_y2*y2 added after the solve.  alg1 and alg2 then correct
    the trace they read fresh along the columns g_m and g_s (see the
    module docstring).  The stent advances in r_s substeps and the media
    in r_m per macro step; at most one of them exceeds 1, and its other
    substeps run on that block alone.  All variants route through here,
    so a multi-rate run with ratio 1 is bitwise identical to repeated
    single steps.
    """

    def __init__(
        self,
        p: ModelParams,
        ops: FemOperators,
        dt_m: float,
        substep_ratio: int = 1,
        substep_domain: str = STENT,
    ):
        self.n0 = n0 = ops.psi_s.dim
        self.r_s = substep_ratio if substep_domain == STENT else 1
        self.r_m = substep_ratio if substep_domain == MEDIA else 1
        dt_s = dt_m / self.r_s
        dt_media = dt_m / self.r_m

        dp = p.delta * p.p_tilde
        self.src_s = dt_s * dp
        self.src_m = dt_media / p.phi * dp
        self.upd = _stack(_minus(ops.psi_s, ops.mat_a, dt_s),
                          _minus(ops.psi_m, ops.mat_b, dt_media / p.phi),
                          self.src_s, self.src_m)
        self.coef_y2 = dt_media * p.da / (p.phi * p.k_part)
        self.ode_decay = 1.0 - dt_media * p.da / ((1.0 - p.phi) * p.k_part)
        self.ode_gain = dt_media * p.da / (1.0 - p.phi)

        self.psi = _stack(ops.psi_s, ops.psi_m, 0.0, 0.0)
        self.fac = _MassFactor(self.psi)
        # the blocks alone, for the substeps after the stacked one
        self.upd_s = _block(self.upd, 0, n0)
        self.upd_m = _block(self.upd, n0, self.psi.dim)
        self.fac_s = _MassFactor(ops.psi_s)
        self.fac_m = _MassFactor(ops.psi_m)

        # correction columns: the response of each block to a unit trace
        e = np.zeros(self.psi.dim)
        e[n0 - 1] = self.src_s
        e[n0] = self.src_m
        g = self.fac.solve(e)
        self.g_s, self.g_m = g[:n0], g[n0:]

        # monitors of the stacked record s = [z; y2]: row sums of the mass
        # matrices weigh mass and stent mass, blockdiag(Psi, Psi_m) the energy
        w_s = ops.psi_s.matvec(np.ones(n0))
        w_m = ops.psi_m.matvec(np.ones(ops.psi_m.dim))
        self.monitor = BlockMonitor(
            np.concatenate([w_s, p.phi * w_m, (1.0 - p.phi) * w_m]), w_s,
            _stack(self.psi, ops.psi_m, 0.0, 0.0), p.pe, energy_growth_rate(p))

    def _stent_steps(self, y0, trace_w):
        """The r_s - 1 stent substeps after the stacked one, in place,
        with the wall trace frozen at trace_w."""
        src = self.src_s * trace_w
        for _ in range(self.r_s - 1):
            rhs = self.upd_s.matvec(y0)
            rhs[-1] += src
            y0[:] = self.fac_s.solve(rhs)

    def _media_steps(self, y1, y2, trace_s, fresh_y2):
        """The r_m - 1 uptake+media substeps after the stacked one: y1 in
        place, the new y2 returned.  The stent trace is frozen at trace_s;
        the media source reads the substep's new y2 if fresh_y2."""
        src = self.src_m * trace_s
        for _ in range(self.r_m - 1):
            y2n = self.ode_decay * y2
            y2n += self.ode_gain * y1
            rhs = self.upd_m.matvec(y1)
            rhs[0] += src
            y1[:] = self.fac_m.solve(rhs)
            y1 += self.coef_y2 * (y2n if fresh_y2 else y2)
            y2 = y2n
        return y2

    def macro_step(self, z, y2, variant):
        """One macro step from (z, y2); returns the new (z, y2).

        monolithic feeds both subdomains level-k traces and the old y2;
        alg1 feeds the media the new stent trace and the new y2; alg2
        feeds the media the new y2 and the stent the new wall trace."""
        n0 = self.n0
        trace_s, trace_w = z[n0 - 1], z[n0]
        zn = self.fac.solve(self.upd.matvec(z))
        y0n, y1n = zn[:n0], zn[n0:]
        y2n = self.ode_decay * y2
        y2n += self.ode_gain * z[n0:]
        fresh_y2 = variant != "monolithic"
        y1n += self.coef_y2 * (y2n if fresh_y2 else y2)
        if variant == "alg1":
            self._stent_steps(y0n, trace_w)
            y1n += (y0n[-1] - trace_s) * self.g_m
            y2n = self._media_steps(y1n, y2n, y0n[-1], fresh_y2)
        else:
            y2n = self._media_steps(y1n, y2n, trace_s, fresh_y2)
            if variant == "alg2":
                y0n += (y1n[0] - trace_w) * self.g_s
                trace_w = y1n[0]
            self._stent_steps(y0n, trace_w)
        return zn, y2n


def check_snapshot_times(snapshot_times, t_end: float) -> list[float]:
    """The requested times as floats; raises ValidationError unless they
    are sorted ascending and lie within [0, t_end] (to 1e-9 relative)."""
    times = [float(ts) for ts in snapshot_times]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValidationError("snapshot_times must be sorted ascending")
    tol = 1e-9 * max(1.0, t_end)
    for ts in times:
        if ts < -tol or ts > t_end + tol:
            raise ValidationError(f"snapshot time {ts} outside [0, {t_end}]")
    return times


# records per monitor block: a run measures its records one block at a time
RECORD_BLOCK = 256


@dataclass(frozen=True, eq=False)
class BlockMonitor:
    """A solver's monitors of the record s = [z; y2], for a block of
    records at once (one row each).

    The mass is s @ mass_weights, the stent mass y0 @ stent_weights and
    the energy the quadratic form s . (form s).  The balance residual
    reads pe, and the energy guard reads growth; without it only the
    non-finite guard runs.
    """

    mass_weights: np.ndarray
    stent_weights: np.ndarray
    form: TridiagonalMatrix
    pe: float
    growth: float | None = None

    def measure(self, block: np.ndarray):
        """Mass, stent mass and energy of each row of block.  The energy
        sums the diagonal and the off-diagonal terms of the form in two
        einsums, which build no block-sized temporaries."""
        f = self.form
        energy = np.einsum("ij,j,ij->i", block, f.diag, block)
        energy += np.einsum("ij,j,ij->i", block[:, :-1], f.upper + f.lower,
                            block[:, 1:])
        return (block @ self.mass_weights,
                block[:, :len(self.stent_weights)] @ self.stent_weights,
                energy)


class RunRecorder:
    """The time loop of a run and the record it produces, for the
    finite-element and the finite-difference solver alike.

    The guards raise InstabilityError for the first record of a block
    whose mass or energy is non-finite or whose energy leaves
    ENERGY_GUARD_FACTOR times the growth envelope E(0)*exp(2*growth*t).
    Snapshot requests are snapped to the nearest step; requests landing
    on the same step are merged (first request wins).
    """

    def __init__(self, solver: str, p: ModelParams, cfg: SchemeConfig,
                 mesh_s, mesh_m, snapshot_times, record_every,
                 monitor: BlockMonitor):
        every = int(record_every)
        if every < 1:
            raise ValidationError(
                f"record_every must be at least 1, got {record_every!r}",
                key="record_every")
        self.dt = dt = cfg.dt_m
        self.n_steps = n_steps = step_count(cfg.t_end, dt)
        self.mesh_s = mesh_s
        self.mesh_m = mesh_m
        self.record_every = every
        self.monitor = monitor
        self.config = {
            "solver": solver,
            **asdict(cfg),
            "record_every": every,
            "n_s": mesh_s.n_elems,
            "n_m": mesh_m.n_elems,
            "params": asdict(p),
        }
        self._snap_steps: dict[int, float] = {}
        for ts in check_snapshot_times(snapshot_times, cfg.t_end):
            idx = min(n_steps, max(0, round(ts / dt)))
            self._snap_steps.setdefault(idx, ts)

        self.n0 = mesh_s.n_elems + 1
        self.nz = self.n0 + mesh_m.n_elems + 1
        self.n_records = n = n_steps // every + 1 + (n_steps % every > 0)
        # rows: t, mass, stent mass, energy, balance residual, c(0-),
        # c1(0+), c1(1)
        self._out = np.empty((8, n))
        t = self._out[0]
        t[:] = np.arange(n) * every
        t[-1] = n_steps
        t *= dt
        b = min(RECORD_BLOCK, n)
        self._block = np.empty((b, self.nz + mesh_m.n_elems + 1))
        self._outflow = np.empty(b)

    def run(self, step, z, y2) -> SolutionRecord:
        """Advance (z, y2) by ``step(z, y2) -> (z, y2)`` over n_steps
        steps and return the record.  At each step k this takes the
        record and the snapshot due at t = k*dt, then steps."""
        n, every, nz, n0 = self.n_steps, self.record_every, self.nz, self.n0
        block = self._block
        snapshots = []
        taken = 0          # records taken
        outflow_sum = 0.0  # y1(1) summed over the steps before k
        for k in range(n + 1):
            if k % every == 0 or k == n:
                j = taken % len(block)
                block[j, :nz] = z
                block[j, nz:] = y2
                self._outflow[j] = outflow_sum
                taken += 1
                if j + 1 == len(block) or taken == self.n_records:
                    self._flush(taken - j - 1, taken)
            ts = self._snap_steps.get(k)
            if ts is not None:
                t = k * self.dt
                state = SimState(z[:n0].copy(), z[n0:].copy(), y2.copy(), t)
                snapshots.append(Snapshot(t_request=ts, t=t, state=state))
            if k == n:
                break
            outflow_sum += float(z[-1])
            z, y2 = step(z, y2)
        t, mass, stent_mass, energy, resid, c0, c1_0, c1_1 = self._out
        return SolutionRecord(
            mesh_s=self.mesh_s,
            mesh_m=self.mesh_m,
            snapshots=snapshots,
            interface=InterfaceSeries(t=t, c_at_0=c0, c1_at_0=c1_0,
                                      c1_at_1=c1_1),
            monitors=MonitorSeries(t=t, mass=mass, stent_mass=stent_mass,
                                   energy=energy, balance_residual=resid),
            config=self.config,
        )

    def _flush(self, lo, hi):
        """Measure, guard and store records lo..hi-1, the block's rows."""
        block = self._block[:hi - lo]
        out = self._out[:, lo:hi]
        t = out[0]
        # a non-finite record is the guard's to report, not numpy's
        with np.errstate(over="ignore", invalid="ignore"):
            mass, stent_mass, energy = self.monitor.measure(block)
        if lo == 0:
            self._mass0, self._energy0 = mass[0], energy[0]
        finite = np.isfinite(mass) & np.isfinite(energy)
        bad = ~finite
        growth = self.monitor.growth
        if growth is not None:
            envelope = self._energy0 * np.exp(np.minimum(2.0 * growth * t,
                                                         700.0))
            bad |= energy > ENERGY_GUARD_FACTOR * envelope
        if bad.any():
            i = int(np.argmax(bad))
            if not finite[i]:
                raise InstabilityError(
                    f"instability detected: non-finite state at t={t[i]:.6g}"
                )
            raise InstabilityError(
                f"instability detected: energy {energy[i]:.6g} exceeds "
                f"{ENERGY_GUARD_FACTOR}x the growth envelope "
                f"{envelope[i]:.6g} at t={t[i]:.6g}"
            )
        out[1], out[2], out[3] = mass, stent_mass, energy
        np.subtract(mass, self._mass0, out=out[4])
        out[4] += (self.monitor.pe * self.dt) * self._outflow[:hi - lo]
        out[5] = block[:, self.n0 - 1]
        out[6] = block[:, self.n0]
        out[7] = block[:, self.nz - 1]


def run_simulation(
    p: ModelParams,
    ops: FemOperators,
    cfg: SchemeConfig,
    snapshot_times,
    record_every: int = 1,
) -> SolutionRecord:
    """Advance from t=0 to t_end recording monitors and snapshots.

    Raises CflError before stepping if dt_m exceeds cfl_safety times
    sharp_dt_limit, and InstabilityError if the state goes
    non-finite or the energy leaves the growth envelope by a factor
    ENERGY_GUARD_FACTOR.
    """
    cfg.check_cfl(p, ops)
    kern = _Kernel(p, ops, cfg.dt_m, cfg.substep_ratio, cfg.substep_domain)
    rec = RunRecorder("fem", p, cfg, ops.mesh_s, ops.mesh_m, snapshot_times,
                      record_every, kern.monitor)
    macro_step, variant = kern.macro_step, cfg.variant

    def step(z, y2):
        return macro_step(z, y2, variant)

    state = initial_state(ops)
    return rec.run(step, np.concatenate([state.y0, state.y1]), state.y2)
