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
solve, and a monolithic step is one BLAS ``dgbmv`` for the tridiagonal
matvec, one LAPACK ``dpttrs`` solve in that matvec's output, one
``daxpy`` for y1' += c*y2 and a scaling plus a ``daxpy`` for the y2
update.  The decoupled variants start from that result and add exact
corrections, one ``daxpy`` each, along the precomputed columns
g_s = dt*delta*P Psi_s^-1 e_last and g_m = (dt/phi)*delta*P
Psi_m^-1 e_first:

    alg1:  y1' += c*y2' + (y0'[last] - y0[last]) g_m
    alg2:  y1' += c*y2',  then  y0' += (y1'[0] - y1[0]) g_s

In a multi-rate macro step the stacked step is the first substep of both
subdomains and the substepped subdomain takes its other ratio - 1
substeps alone; a correction that reads the substepped subdomain's trace
waits for those substeps, the other is applied before them.  Every
variant and substep setting runs through these few calls, so results
are deterministic and independent of the BLAS thread count, but differ
at roundoff from an elementwise numpy evaluation of the same formulas,
since OpenBLAS fuses multiply-adds.  The same code steps a block of
states, the columns of 2-D z and y2, as the power's build does: there
the matvec is three band multiply-adds and each daxpy a numpy update
(``axpy``), with a row of per-column factors for the corrections, and
the solve one ``dpttrs`` with many right-hand sides, so a block differs
from one-state steps at roundoff.

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
and the finite-difference one.  Its state is one row x = [z; y2; q], q
the outflow sum of y1(1) over the steps taken.  A record is such a row
of a preallocated block of RECORD_BLOCK rows, taken every record_every
steps and at n_steps.  The loop goes over the blocks.  A records pass
reaches each record from the one before it by ``advance``; the block is
then measured in one shot by the solver's ``BlockMonitor`` (two
matrix-vector products for the masses, the form's
``TridiagonalMatrix.quadratic`` for the energy), guarded and stored;
then a snapshots pass takes the block's snapshots.  The guards name the
first failing record at its own t, so a run stops with the message a
per-record check would give and before any output.

The step, with q carried along, is one linear map G on x, so ``advance``
takes as many products x <- A x as fit with the power G^order, then
with each rung, then steps the rest.  A run whose plan builds makes the
power by one left-to-right binary powering (``_power``), multiplying by
G by stepping a block of its columns at a time; the rungs are prefixes
of that build.  A leaping run builds P = G^record_every and leaps each
full record interval; at record_every 1, P is G itself and each step one
product.  A run that fills record blocks builds Q = P^RECORD_BLOCK, the
same build carried 8 squarings further, and keeps P as the build passes
it: the first block's records are products with P, and each later block
is one product X_next = X_prev @ Q^T, written over X_prev.  A state off
the record grid, a snapshot or an off-grid last record, is walked from
the record at or before it: a snapshot into a scratch row, the last
record into its own.  Walks take products with the rungs below P: R =
G^(record_every // 2), left in the build's other buffer, and a short S =
G^p, p = record_every >> s, copied as the build passes it.  No state is
reached through a snapshot, so the records on the grid are the same bits
with and without snapshot requests; a snapshot and an off-grid last
record take the plan's rungs, which the snapshots help to choose.  One
comparison of fixed prices over the solver, input size and the
snapshots alone decides whether a run builds, to which order and with
which rungs (``RunRecorder`` documents the prices); the results differ
from stepping at roundoff only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from ._blas import daxpy, dpttrf, dpttrs
from .errors import (AllocationError, CflError, InstabilityError,
                     SingularMatrixError, ValidationError)
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
            ("dt_m", math.isfinite(self.dt_m) and self.dt_m > 0,
             f"dt_m must be positive and finite, got {self.dt_m}"),
            ("t_end", math.isfinite(self.t_end) and self.t_end >= 0,
             f"t_end must be finite and nonnegative, got {self.t_end}"),
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

    def check_cfl(self, p: ModelParams, h_s: float, h_m: float) -> None:
        """Raises CflError unless dt_m is within cfl_safety times the
        sharp limit of the meshes of widths h_s and h_m."""
        limit = self.cfl_safety * sharp_dt_limit(
            p, h_s, h_m, self.substep_ratio, self.substep_domain)
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
    ValidationError (key dt_m) unless t_end/dt is a finite whole number to
    1e-9 relative, so a run never stops short of its requested time."""
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValidationError(
            f"t_end/dt = {t_end!r}/{dt!r} overflows float64: it is not a "
            f"finite number of steps", key="dt_m")
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


def axpy(x: np.ndarray, y: np.ndarray, a) -> np.ndarray:
    """y += a * x in place, returned: one BLAS ``daxpy`` for a state, and
    numpy for a block of states as the columns of a 2-D y, where a may be
    a row of one factor per column and x one column for them all."""
    if y.ndim == 1:
        return daxpy(x, y, a=a)
    y += a * (x if x.ndim == 2 else x[:, None])
    return y


@dataclass(frozen=True, eq=False)
class _MassFactor:
    """The LDL^T factor (d, e) of a symmetric positive tridiagonal matrix,
    and its solve."""

    d: np.ndarray
    e: np.ndarray

    @classmethod
    def of(cls, m: TridiagonalMatrix) -> _MassFactor:
        d, e, info = dpttrf(m.diag, m.lower)
        if info != 0:
            raise SingularMatrixError("matrix numerically singular")
        return cls(d, e)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Psi^-1 rhs, for a vector or each column of a 2-D rhs, computed
        in rhs's own storage when it is contiguous in Fortran order: rhs
        is overwritten."""
        x, info = dpttrs(self.d, self.e, rhs, overwrite_b=1)
        if info != 0:  # pragma: no cover - only reachable on bad arguments
            raise SingularMatrixError("matrix numerically singular")
        return x


def _stack(top: np.ndarray, bottom: np.ndarray, top_right: float,
           bottom_left: float) -> TridiagonalMatrix:
    """blockdiag of the bands top and bottom, with the two junction
    off-diagonal entries written into the corners the blocks meet at."""
    band = np.hstack([top, bottom])
    n0 = top.shape[1]
    band[0, n0] = top_right
    band[2, n0 - 1] = bottom_left
    return TridiagonalMatrix(band)


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
    single steps.  Each block of ``upd`` is one expression over the
    assembled bands, and ``upd_s``/``upd_m`` are views of its band.  A
    block of states, as the columns of 2-D z and y2, takes the same
    steps, column by column.
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
        self.upd = _stack(ops.psi_s.band - dt_s * ops.mat_a.band,
                          ops.psi_m.band - dt_media / p.phi * ops.mat_b.band,
                          self.src_s, self.src_m)
        self.coef_y2 = dt_media * p.da / (p.phi * p.k_part)
        self.ode_decay = 1.0 - dt_media * p.da / ((1.0 - p.phi) * p.k_part)
        self.ode_gain = dt_media * p.da / (1.0 - p.phi)

        self.psi = _stack(ops.psi_s.band, ops.psi_m.band, 0.0, 0.0)
        self.fac = fac = _MassFactor.of(self.psi)
        # the blocks alone, for the substeps after the stacked one; band
        # corners hold junction entries they do not read, and the factor's
        # e[n0 - 1] is exactly 0, so its slices factor Psi_s and Psi_m
        self.upd_s = TridiagonalMatrix(self.upd.band[:, :n0])
        self.upd_m = TridiagonalMatrix(self.upd.band[:, n0:])
        self.fac_s = _MassFactor(fac.d[:n0], fac.e[:n0 - 1])
        self.fac_m = _MassFactor(fac.d[n0:], fac.e[n0:])

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
            _stack(self.psi.band, ops.psi_m.band, 0.0, 0.0),
            energy_growth_rate(p))

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
            y2n = axpy(y1, self.ode_decay * y2, self.ode_gain)
            rhs = self.upd_m.matvec(y1)
            rhs[0] += src
            y1[:] = self.fac_m.solve(rhs)
            axpy(y2n if fresh_y2 else y2, y1, self.coef_y2)
            y2 = y2n
        return y2

    def macro_step(self, z, y2, variant):
        """One macro step from (z, y2); returns the new (z, y2).  z and y2
        are one state, or a block of states as the columns of 2-D arrays.

        monolithic feeds both subdomains level-k traces and the old y2;
        alg1 feeds the media the new stent trace and the new y2; alg2
        feeds the media the new y2 and the stent the new wall trace."""
        n0 = self.n0
        trace_s, trace_w = z[n0 - 1], z[n0]
        zn = self.fac.solve(self.upd.matvec(z))
        y0n, y1n = zn[:n0], zn[n0:]
        y2n = axpy(z[n0:], self.ode_decay * y2, self.ode_gain)
        fresh_y2 = variant != "monolithic"
        axpy(y2n if fresh_y2 else y2, y1n, self.coef_y2)
        if variant == "alg1":
            self._stent_steps(y0n, trace_w)
            axpy(self.g_m, y1n, y0n[-1] - trace_s)
            y2n = self._media_steps(y1n, y2n, y0n[-1], fresh_y2)
        else:
            y2n = self._media_steps(y1n, y2n, trace_s, fresh_y2)
            if variant == "alg2":
                axpy(self.g_s, y0n, y1n[0] - trace_w)
                trace_w = y1n[0]
            self._stent_steps(y0n, trace_w)
        return zn, y2n


def check_snapshot_times(snapshot_times, t_end: float) -> list[float]:
    """The requested times as floats; raises ValidationError unless they
    are finite, sorted ascending and lie within [0, t_end] (to 1e-9
    relative)."""
    times = [float(ts) for ts in snapshot_times]
    for ts in times:
        if not math.isfinite(ts):
            raise ValidationError(f"snapshot time {ts} is not finite")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValidationError("snapshot_times must be sorted ascending")
    tol = 1e-9 * max(1.0, t_end)
    for ts in times:
        if ts < -tol or ts > t_end + tol:
            raise ValidationError(f"snapshot time {ts} outside [0, {t_end}]")
    return times


def whole_number(value, key: str) -> int:
    """value as an int; raises ValidationError (key) unless it is a whole
    number >= 1, so 2.0 is taken as 2 and 2.5 is refused, not truncated."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()
            and value >= 1):
        raise ValidationError(
            f"{key} must be a whole number >= 1, got {value!r}", key=key)
    return int(value)


# records per monitor block: a run measures its records one block at a time
RECORD_BLOCK = 256
# float64 entries that the power's buffers may hold together, 64 MiB: the
# build's two padded buffers and a copy of each rung but the power's half,
# so two fit up to order 2048, three up to 1664 and four up to 1440
LEAP_MAX_ENTRIES = 2 * 2048 ** 2
# the power's buffers are padded with zeros to a multiple of this order:
# OpenBLAS's threaded dgemm gives the bits of one thread at multiples of
# 32 (measured with 1 to 4 threads), not at 303, 404 or 408, so padded
# leaps keep results independent of the thread count
LEAP_PAD = 32
# columns of a power's buffer that one step call advances as a block when
# its build multiplies by G.  Best of 5 multiplications of an identity by
# G, monolithic, one BLAS thread, at orders m = 160, 416 and 1312: one
# column a call took 1.09, 4.07 and 25.9 ms, blocks of 32 columns 0.56,
# 1.91 and 19.2 ms, 64 0.34, 2.05 and 22.5 ms, 128 0.35, 2.00 and 23.3
# ms, 256 0.51, 2.02 and 23.1 ms, and the whole matrix 0.34, 2.03 and
# 26.3 ms with 9.6 MB more peak memory at 1312.  compare-fd at 100/100 (m
# = 320), best of 11 rounds: 52-55 ms for blocks of 16 to 256 columns
# (52 at 128), 97 ms for one column a call and 56 ms for the whole matrix
STEP_BLOCK = 4 * LEAP_PAD
# the prices of a run's plan, in ns (RunRecorder documents their basis): a
# step as the record loop takes it, by solver, (a + b * N) times
# (substep_ratio + 2) / 3 for a record width N; per entry of the padded
# power, a product with it and a multiplication of it by G; and a
# multiply-add of a matrix product, for the squarings and block fills
STEP_NS = {"fem": (7500.0, 14.5), "fd": (5400.0, 6.7)}
MATVEC_NS = 0.33
TIMES_G_NS = 17.0
MADD_NS = 0.045
# entries of the power below this are set to 0 as it is built: a product
# of two smaller ones is subnormal, and a 2048-order squaring that holds
# them took 2 s instead of 0.4 s (OpenBLAS dgemm, one thread); a leap
# then drops contributions below 1e-150 times the state's entries
LEAP_FLUSH = 1e-150


def _flush_to_zero(a: np.ndarray) -> None:
    """Set the entries of the Fortran-ordered a below LEAP_FLUSH to 0, in
    place, LEAP_PAD columns at a time."""
    mask = np.empty((len(a), LEAP_PAD), order="F")
    for j in range(0, a.shape[1], LEAP_PAD):
        cols = a[:, j:j + LEAP_PAD]
        np.greater_equal(np.abs(cols, out=mask), LEAP_FLUSH, out=mask)
        cols *= mask


def _padded(size: int) -> int:
    """The order of a power's buffers for a record width size: size + 1
    rounded up to a multiple of LEAP_PAD."""
    return -(-(size + 1) // LEAP_PAD) * LEAP_PAD


def _power(step, nz: int, size: int, order: int, rungs=()):
    """G^order, then the rungs G^o, o in ``rungs``, as a list of (A, o),
    where G is the map (z, y2, q) -> (step(z, y2), q + z[-1]) on
    x = [z; y2; q] and z has nz entries, each as the leading (size+1)^2
    block of a Fortran-ordered array padded with zeros to order
    ``_padded(size)``.  Left-to-right binary powering: per digit of order
    after its leading 1, square into the other buffer, then multiply by G
    where the digit is 1 and flush to zero, both in place.  The rungs are
    prefixes of the build: G^(order // 2) is left in the buffer the build
    frees, and each other one is copied as the build passes it.  G is
    never stored; since powers of G commute, G A is taken in place as step
    on A's first size + 1 columns, STEP_BLOCK columns to a call, each
    column alone, so the result does not depend on the block width."""
    m = _padded(size)
    a = np.zeros((m, m), order="F")
    np.fill_diagonal(a[:size + 1, :size + 1], 1.0)

    def times_g(a):
        for j in range(0, size + 1, STEP_BLOCK):
            cols = a[:, j:min(j + STEP_BLOCK, size + 1)]
            cols[size] += cols[nz - 1]
            cols[:nz], cols[nz:size] = step(cols[:nz], cols[nz:size])

    times_g(a)
    _flush_to_zero(a)
    t, done = np.zeros_like(a), 1  # done: the order of the power in a
    kept = {o: np.empty_like(a) for o in rungs if o != order // 2}
    for bit in bin(order)[3:]:
        if done in kept:
            np.copyto(kept[done], a)
        np.matmul(a, a, out=t)
        a, t, done = t, a, 2 * done + int(bit)
        if bit == "1":
            times_g(a)
        _flush_to_zero(a)
    return [(a, order), *((kept.get(o, t), o) for o in rungs)]


@dataclass(frozen=True, eq=False)
class BlockMonitor:
    """A solver's monitors of the record s = [z; y2], for a block of
    records at once (one row each).

    The mass is s @ mass_weights, the stent mass y0 @ stent_weights and
    the energy the quadratic form s . (form s).  The energy guard reads
    growth; without it only the non-finite guard runs.
    """

    mass_weights: np.ndarray
    stent_weights: np.ndarray
    form: TridiagonalMatrix
    growth: float | None = None

    def measure(self, block: np.ndarray):
        """Mass, stent mass and energy of each row of block."""
        return (block @ self.mass_weights,
                block[:, :len(self.stent_weights)] @ self.stent_weights,
                self.form.quadratic(block))


class RunRecorder:
    """The time loop of a run and the record it produces, for the
    finite-element and the finite-difference solver alike.

    The guards raise InstabilityError for the first record of a block
    whose mass or energy is non-finite or whose energy leaves
    ENERGY_GUARD_FACTOR times the growth envelope E(0)*exp(2*growth*t).
    Snapshot requests are snapped to the nearest step; two requests
    landing on the same step raise ValidationError.

    A run may build a power of the step (see the module docstring).  Its
    plan, (order, rungs), is the cheapest by fixed prices of stepping and
    of building G^order, with N the record width len(z) + len(y2) and m
    the padded order:
      stepping costs n_steps steps;
      G^order costs its build, bit_length(order) - 1 squarings of m^3
      multiply-adds and one multiplication by G per set bit; a product
      with P = G^record_every (at record_every 1, G itself: dense steps)
      per record on the grid, or, where the order is Q's, record_every *
      RECORD_BLOCK, per record of the first block and RECORD_BLOCK * m^2
      multiply-adds per filled block; and the walks, one from its record
      to each state off the record grid, priced exactly from their
      lengths as products with each rung in turn, then steps.
    A leaping run that walks keeps the rung R = G^(record_every // 2), and
    a block-filling run keeps P; the plan tries each with each short rung
    S = G^p, p = record_every >> s for s >= 1 below them, and none.  A run
    builds only where n_steps >= 2 * N, a floor that keeps short runs on
    the kernel's bits, and within one memory clause: (2 + c) * m^2 <=
    LEAP_MAX_ENTRIES, where the build's two buffers hold the power and the
    rung order // 2, and c counts the other rungs, each copied into a
    buffer of its own.  So a run leaps with R alone up to m = 2048, leaps
    with S or fills blocks up to m = 1664, and fills blocks with S, four
    buffers, up to m = 1440.

    The prices (STEP_NS, MATVEC_NS, TIMES_G_NS, MADD_NS) were measured
    once, best of 5 at one BLAS thread on a 2-core x86-64 host, and are
    never measured at run time, so a plan does not depend on the host.
    A step as the record loop takes it recording every step: 8.0, 10.0,
    13.6 and 25.2 us at N = 23, 153, 453 and 1003 (5.6 to 18 us
    recording every 1000th), about twice that with 4 substeps of either
    block.  The finite-difference step, timed beside the finite-element
    one (monolithic, 3000 steps, best of 5): 0.73 to 0.58 of its time at
    N = 23 to 1003 recording every step and 0.67 to 0.51 every 1000th,
    priced by those shares of the finite-element price, as 5.4 us + 6.7
    ns * N against 7.5 us + 14.5 ns * N.  A product: 0.21 to 0.36 ns per
    entry at m = 160 to 1312 (2.4 us at m = 32).  A multiplication by G:
    15 to 18 ns per entry at m = 160 to 1312.  A squaring or block fill:
    33 to 61 ps per multiply-add at m = 160 to 1312.  Runs of 3 took, as
    priced: criterion 3's n_s = 800 pair (N = 1003, 103 330 steps every
    2066, both solvers) 2.35-2.38 s stepping and 0.98-1.00 s leaping; the
    400/25 release run (N = 453, every step) 1.73-1.82 s stepping and
    1.31-1.39 s dense with block fills.
    """

    def __init__(self, solver: str, p: ModelParams, cfg: SchemeConfig,
                 mesh_s, mesh_m, snapshot_times, record_every,
                 monitor: BlockMonitor):
        every = whole_number(record_every, "record_every")
        self.dt = dt = cfg.dt_m
        self.solver = solver
        self.substep_ratio = cfg.substep_ratio
        self.pe = p.pe
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
            if idx in self._snap_steps:
                raise ValidationError(
                    f"snapshot times {self._snap_steps[idx]!r} and {ts!r} "
                    f"both land on step {idx} (t={idx * dt!r})")
            self._snap_steps[idx] = ts

        self.n0 = mesh_s.n_elems + 1
        self.nz = self.n0 + mesh_m.n_elems + 1
        self.size = self.nz + mesh_m.n_elems + 1
        order, _ = self.plan = self._plan()
        # records every record_every steps and at n_steps; rows: t, mass,
        # stent mass, energy, balance residual, c(0-), c1(0+), c1(1)
        n_records = -(-n_steps // every) + 1
        try:
            self._out = np.empty((8, n_records))
            # a row is a record [z; y2; q] padded to the power's order, q
            # the outflow sum y1(1) over the steps before its step; a
            # partial last block is filled in full and sliced, so every
            # product's shape stays padded
            width = _padded(self.size) if order else self.size + 1
            self._rows = np.zeros((min(RECORD_BLOCK, n_records), width))
            self._inside = np.zeros(width)  # a snapshot off the record grid
        except (MemoryError, ValueError) as exc:
            raise AllocationError(
                f"the record of {n_records:.6g} records ({n_steps:.6g} "
                f"steps, record_every {every}) cannot be allocated ({exc})",
                key="record_every") from None
        records = np.append(np.arange(0, n_steps, every), n_steps)
        np.multiply(records, dt, out=self._out[0])

    def _plan(self):
        """(order, rungs): the order of the power the run builds, or None
        if the run only steps, and the orders of the rungs that ``advance``
        takes products with after it, prefixes of the power's build.  The
        cheapest by the prices (see the class docstring) of stepping and,
        past the floor and within the memory clause, (record_every, R)
        and, where more than RECORD_BLOCK records lie on the grid, the
        block-filling (record_every * RECORD_BLOCK, P), with and without
        each short rung S where the run walks, and R only there.  A walk
        goes to each state off the record grid, a snapshot or an off-grid
        n, from the record at or before it: k % record_every steps."""
        every, n, (a, b) = self.record_every, self.n_steps, STEP_NS[self.solver]
        size, m, regular = self.size, _padded(self.size), n // every + 1
        walks = [k % every for k in sorted({*self._snap_steps, n}) if k % every]
        step = (a + b * size) * (self.substep_ratio + 2) / 3

        def price(order, rungs):
            """The power's price: its build, a product per record that no
            block fills, the filled blocks, and the walks."""
            fills, squarings = order > every, order.bit_length() - 1
            reached = min(regular, RECORD_BLOCK) if fills else regular
            filled = (regular - 1) // RECORD_BLOCK * RECORD_BLOCK * fills
            cost = m * m * (bin(order).count("1") * TIMES_G_NS
                            + (reached - 1) * MATVEC_NS
                            + (squarings * m + filled) * MADD_NS)
            for left in walks:
                for o in rungs:
                    cost += left // o * MATVEC_NS * m * m
                    left %= o
                cost += left * step
            return cost

        plans = {(None, ()): n * step}
        if n >= 2 * size:
            short = [every >> s for s in range(1, every.bit_length()) if walks]
            builds = [(every, (every // 2,) if walks else ())]
            if regular > RECORD_BLOCK:
                builds.append((every * RECORD_BLOCK, (every,)))
            for order, top in builds:
                for rungs in [top, *(top + (s,) for s in short
                                     if s not in top)]:
                    # the buffer pair, and a copy of each rung but order // 2
                    copies = sum(o != order // 2 for o in rungs)
                    if (2 + copies) * m * m <= LEAP_MAX_ENTRIES:
                        plans[order, rungs] = price(order, rungs)
        return min(plans, key=plans.get)

    # a non-finite step, leap or record is the guard's to report, not numpy's
    @np.errstate(over="ignore", invalid="ignore")
    def run(self, step, z, y2) -> SolutionRecord:
        """Advance (z, y2) by ``step(z, y2) -> (z, y2)`` over n_steps
        steps and return the record, one block of records at a time (see
        the module docstring)."""
        n, every, nz, n0 = self.n_steps, self.record_every, self.nz, self.n0
        size, n_records = self.size, self._out.shape[1]
        rows, inside = self._rows, self._inside
        # the power, then its rungs: advance's products, highest order first
        ladder = _power(step, nz, size, *self.plan) if self.plan[0] else []
        regular = n // every + 1  # records on a multiple of record_every

        def advance(x, k, stop, out):
            """The state x at step k advanced to step stop, into out: as
            many products with the power, then with each rung, as fit,
            then steps."""
            for a, o in ladder:
                while stop - k >= o:
                    k += o
                    x = np.matmul(a, x, out=out if k == stop else None)
            if k < stop:
                z, y2, q = x[:nz], x[nz:size], float(x[size])
                while k < stop:
                    q += float(z[-1])
                    z, y2 = step(z, y2)
                    k += 1
                out[:nz], out[nz:size], out[size] = z, y2, q
            return out

        snapshots = []
        pending = iter([*sorted(self._snap_steps), n + 1])
        snap = next(pending)
        rows[0, :nz], rows[0, nz:size] = z, y2
        # the records below this are in their rows: the initial state,
        # then those that a block product filled
        filled = 1
        for lo in range(0, n_records, len(rows)):
            hi = min(lo + len(rows), n_records)
            # each record from the one before it; rows[-1] holds the last
            # record of the block before
            for i in range(max(lo, filled), hi):
                advance(rows[i - 1 - lo], (i - 1) * every, min(i * every, n),
                        rows[i - lo])
            self._flush(rows[:hi - lo], lo)
            # the block's snapshots: each is read off its record's row, or
            # walked from it
            while snap < (n + 1 if hi == n_records else min(hi * every, n)):
                i = n_records - 1 if snap == n else snap // every
                x = rows[i - lo]
                if snap > i * every:
                    x = advance(x, i * every, snap, inside)
                t = snap * self.dt
                snapshots.append(Snapshot(self._snap_steps[snap], t, SimState(
                    x[:n0].copy(), x[n0:nz].copy(), x[nz:size].copy(), t)))
                snap = next(pending)
            if (self.plan[0] or 0) > every and hi < regular:
                np.matmul(rows, ladder[0][0].T, out=rows)
                filled = min(hi + len(rows), regular)
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

    def _flush(self, rows, lo):
        """Measure, guard and store records lo, lo+1, ..., the rows."""
        size = self.size
        block = rows[:, :size]
        out = self._out[:, lo:lo + len(rows)]
        t = out[0]
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
        out[4] += (self.pe * self.dt) * rows[:, size]
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
    cfg.check_cfl(p, ops.mesh_s.h, ops.mesh_m.h)
    kern = _Kernel(p, ops, cfg.dt_m, cfg.substep_ratio, cfg.substep_domain)
    rec = RunRecorder("fem", p, cfg, ops.mesh_s, ops.mesh_m, snapshot_times,
                      record_every, kern.monitor)
    macro_step, variant = kern.macro_step, cfg.variant

    def step(z, y2):
        return macro_step(z, y2, variant)

    state = initial_state(ops)
    return rec.run(step, np.concatenate([state.y0, state.y1]), state.y2)
