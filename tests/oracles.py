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
"""

import numpy as np

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
