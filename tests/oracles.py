"""Independent oracles used by the test suite.

The assembly oracle integrates products of P1 hat functions with
two-point Gauss quadrature per element (exact for the polynomial
integrands that occur), building dense matrices with row = test index.
It shares no code path with the closed-form assembly under test.

The finite-difference step oracle applies the central-difference and
ghost-point stencils node by node with array slices, the form the
assembled operator in ``stentsim.fdcheck`` is built from.

The monitor oracles measure one state at a time with dot products, the
per-record form of the block monitors the run recorder applies.

The error-norm oracle measures one snapshot pair at a time, each L2
norm a matvec and a dot product, the per-pair form of the block norms
``stentsim.analysis.compare_records`` takes.

The semi-discrete oracle writes the finite-element system before time
stepping as one dense linear ODE, from the assembled operators and the
model constants alone, so that ``scipy.linalg.expm`` gives its exact
solution in time.

The record CSV oracle prints a record's three files value by value with
'%.16e', the per-row form of the numpy formatter ``stentsim.output``
writes them with.
"""

import math

import numpy as np

from stentsim.analysis import ErrorReport, FieldError, prolong
from stentsim.fem import TridiagonalMatrix, assemble_mass

# Gauss-Legendre points/weights on [-1, 1]
_GP = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))
_GW = (1.0, 1.0)


def _hat(nodes, j, x):
    """Value of the hat function centered at nodes[j] at point x."""
    n = len(nodes) - 1
    h = nodes[1] - nodes[0]
    v = 0.0
    if j > 0 and nodes[j - 1] <= x <= nodes[j]:
        v = (x - nodes[j - 1]) / h
    elif j < n and nodes[j] <= x <= nodes[j + 1]:
        v = (nodes[j + 1] - x) / h
    return v


def _hat_dx(nodes, j, x):
    """Derivative of the hat at nodes[j] at x (element-interior points only)."""
    n = len(nodes) - 1
    h = nodes[1] - nodes[0]
    if j > 0 and nodes[j - 1] < x < nodes[j]:
        return 1.0 / h
    if j < n and nodes[j] < x < nodes[j + 1]:
        return -1.0 / h
    return 0.0


def _quad_matrix(nodes, integrand):
    """Assemble a dense matrix M[j][i] = integral of integrand(i, j, x)."""
    n = len(nodes) - 1
    dim = n + 1
    out = np.zeros((dim, dim))
    for e in range(n):
        xl, xr = nodes[e], nodes[e + 1]
        mid, half = 0.5 * (xl + xr), 0.5 * (xr - xl)
        for gp, gw in zip(_GP, _GW):
            x = mid + half * gp
            w = half * gw
            for i in (e, e + 1):
                for j in (e, e + 1):
                    out[j, i] += w * integrand(i, j, x)
    return out


def dense(m):
    """The dense array of a TridiagonalMatrix."""
    out = np.diag(m.diag)
    out += np.diag(m.lower, -1)
    out += np.diag(m.upper, 1)
    return out


def tridiagonal(lower, diag, upper):
    """The TridiagonalMatrix with the given diagonals, built from a
    C-ordered band with zero corners."""
    band = np.zeros((3, len(diag)))
    band[0, 1:] = upper
    band[1] = diag
    band[2, :-1] = lower
    return TridiagonalMatrix(band)


def quad_mass(nodes):
    return _quad_matrix(nodes, lambda i, j, x: _hat(nodes, i, x) * _hat(nodes, j, x))


def quad_stiffness(nodes):
    return _quad_matrix(
        nodes, lambda i, j, x: _hat_dx(nodes, i, x) * _hat_dx(nodes, j, x)
    )


def quad_convection(nodes):
    # trial derivative against test value
    return _quad_matrix(
        nodes, lambda i, j, x: _hat_dx(nodes, i, x) * _hat(nodes, j, x)
    )


def quad_a(nodes, p):
    a = p.delta * quad_stiffness(nodes)
    a[-1, -1] += p.delta * p.p_tilde  # interface node x = 0 is last
    return a


def quad_b(nodes, p):
    b = (
        quad_stiffness(nodes)
        + p.da * quad_mass(nodes)
        + p.pe * quad_convection(nodes)
    )
    b[0, 0] += p.delta * p.p_tilde + p.pe  # interface node x = 0 is first
    return b


def fd_step_oracle(p, h_s, h_m, dt, c, c1, c2):
    """One explicit finite-difference step from (c, c1, c2), all sources
    from the given level; returns the new (c, c1, c2)."""
    nu_s = dt * p.delta / (h_s * h_s)
    dp = p.delta * p.p_tilde
    ode_decay = 1.0 - dt * p.da / ((1.0 - p.phi) * p.k_part)
    ode_gain = dt * p.da / (1.0 - p.phi)

    c_new = c.copy()
    c_new[1:-1] += nu_s * (c[2:] - 2.0 * c[1:-1] + c[:-2])
    c_new[0] += nu_s * 2.0 * (c[1] - c[0])
    c_new[-1] += nu_s * (
        2.0 * c[-2] - 2.0 * c[-1] + 2.0 * h_s * p.p_tilde * (c1[0] - c[-1])
    )

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

    c2 = ode_decay * c2 + ode_gain * c1
    return c_new, c1_new, c2


def fem_monitors(p, ops, y0, y1, y2):
    """Mass, stent mass and energy of one finite-element state.  The mass
    is the stent integral plus the phi-weighted extracellular and the
    (1-phi)-weighted intracellular integrals of the P1 interpolants, each
    a dot product with the row sums of the mass matrix; the energy is the
    sum of the three squared discrete L2 norms."""
    w_s = ops.psi_s.matvec(np.ones(len(y0)))
    w_m = ops.psi_m.matvec(np.ones(len(y1)))
    z = np.concatenate([y0, y1])
    w_z = np.concatenate([w_s, p.phi * w_m])
    mass = float(np.dot(w_z, z)) + (1.0 - p.phi) * float(np.dot(w_m, y2))
    energy = (float(np.dot(y0, ops.psi_s.matvec(y0)))
              + float(np.dot(y1, ops.psi_m.matvec(y1)))
              + float(np.dot(y2, ops.psi_m.matvec(y2))))
    return mass, float(np.dot(w_s, y0)), energy


def fd_monitors(p, h_s, h_m, c, c1, c2):
    """Mass, stent mass and energy of one finite-difference state, by the
    trapezoid rule on the nodal values."""
    w_s = np.full(len(c), h_s)
    w_s[0] = w_s[-1] = h_s / 2.0
    w_m = np.full(len(c1), h_m)
    w_m[0] = w_m[-1] = h_m / 2.0
    mass = float(w_s @ c + p.phi * (w_m @ c1) + (1 - p.phi) * (w_m @ c2))
    energy = float(w_s @ (c * c) + w_m @ (c1 * c1) + w_m @ (c2 * c2))
    return mass, float(w_s @ c), energy


def error_norms_oracle(test, ref):
    """The ErrorReport of ``test`` against the nested-finer ``ref``, one
    snapshot pair at a time: snapshots pair on their times t (to 1e-9
    relative), each test vector is prolonged alone, and each time norm
    sums a list."""
    tol = 1e-9 * max(1.0, max(s.t for s in ref.snapshots))
    pairs = [(s, r) for s in test.snapshots for r in ref.snapshots
             if abs(s.t - r.t) <= tol]
    times = np.array([r.t for _, r in pairs])

    def l2(v, mat):
        return math.sqrt(max(float(v @ mat.matvec(v)), 0.0))

    def h1(v, h):
        d = np.diff(v)
        return math.sqrt(float(d @ d) / h)

    def time_l2(values):
        if len(times) < 2:
            return 0.0
        return math.sqrt(float(np.sum(np.diff(times)
                                      * np.asarray(values[:-1]) ** 2)))

    def field(y, mesh_t, mesh_r, with_h1):
        mass = assemble_mass(mesh_r)
        errs, grads, mags = [], [], []
        for tsnap, rsnap in pairs:
            want = getattr(rsnap.state, y)
            d = prolong(getattr(tsnap.state, y), mesh_t.n_elems,
                        mesh_r.n_elems) - want
            errs.append(l2(d, mass))
            grads.append(h1(d, mesh_r.h))
            mags.append(l2(want, mass))
        return FieldError(linf_l2=max(errs), l2_l2=time_l2(errs),
                          l2_h1=time_l2(grads) if with_h1 else None,
                          ref_linf_l2=max(mags))

    return ErrorReport(c=field("y0", test.mesh_s, ref.mesh_s, True),
                       c1=field("y1", test.mesh_m, ref.mesh_m, True),
                       c2=field("y2", test.mesh_m, ref.mesh_m, False))


def semidiscrete_matrix(p, ops):
    """M of the semi-discrete system x' = M x, x = [y0; y1; y2]:

        Psi_s y0' = -A y0 + delta*P y1[0] e_last
        Psi_m y1' = -(1/phi) B y1 + (1/phi) delta*P y0[last] e_first
                    + (da/(phi*K)) Psi_m y2
        y2'       = (da/(1-phi)) y1 - (da/((1-phi)*K)) y2

    dense, from the operators ``build_operators`` assembles."""
    n0, n1 = ops.psi_s.dim, ops.psi_m.dim
    nz = n0 + n1
    dp = p.delta * p.p_tilde
    k = np.zeros((nz, nz))
    k[:n0, :n0] = dense(ops.mat_a)
    k[n0:, n0:] = dense(ops.mat_b) / p.phi
    k[n0 - 1, n0] = -dp
    k[n0, n0 - 1] = -dp / p.phi
    psi = np.zeros((nz, nz))
    psi[:n0, :n0] = dense(ops.psi_s)
    psi[n0:, n0:] = dense(ops.psi_m)
    m = np.zeros((nz + n1, nz + n1))
    m[:nz, :nz] = -np.linalg.solve(psi, k)
    eye = np.eye(n1)
    m[n0:nz, nz:] = p.da / (p.phi * p.k_part) * eye
    m[nz:, n0:nz] = p.da / (1.0 - p.phi) * eye
    m[nz:, nz:] = -p.da / ((1.0 - p.phi) * p.k_part) * eye
    return m


def record_csv_oracle(rec):
    """The bytes of snapshots.csv, interface.csv and monitors.csv for the
    record rec, each value printed by '%.16e', each line ended by \\r\\n."""
    def line(*values):
        return ",".join("%.16e" % v if isinstance(v, float) else v
                        for v in values) + "\r\n"

    snap = [line("t", "domain", "x", "field", "value")]
    for s in sorted(rec.snapshots, key=lambda s: s.t):
        for x, a, b in zip(rec.mesh_m.nodes.tolist(), s.state.y1.tolist(),
                           s.state.y2.tolist()):
            snap += [line(s.t, "m", x, "c1", a), line(s.t, "m", x, "c2", b)]
        snap += [line(s.t, "s", x, "c", v)
                 for x, v in zip(rec.mesh_s.nodes.tolist(),
                                 s.state.y0.tolist())]

    def table(header, *columns):
        return "".join([line(*header.split(","))]
                       + [line(*row) for row in
                          zip(*(c.tolist() for c in columns))]).encode()

    ifc, mon = rec.interface, rec.monitors
    return {
        "snapshots.csv": "".join(snap).encode(),
        "interface.csv": table("t,c_at_0,c1_at_0,c1_at_1", ifc.t,
                               ifc.c_at_0, ifc.c1_at_0, ifc.c1_at_1),
        "monitors.csv": table("t,mass,energy,mass_balance_residual", mon.t,
                              mon.mass, mon.energy, mon.balance_residual),
    }
