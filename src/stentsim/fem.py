"""Uniform P1 meshes and tridiagonal operator assembly.

Matrix orientation: row = test index, column = trial index, so that a
matrix-vector product applies the Galerkin equations directly.  This only
matters for the nonsymmetric media operator, whose convection part would
otherwise be silently transposed.

All element integrals use the closed-form P1 formulas; the test suite
checks every entry against a two-point Gauss quadrature oracle.  The
rows are written straight into LAPACK bands, and A and B are band sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import dgbmv
from .errors import ValidationError
from .params import ModelParams

STENT = "stent"
MEDIA = "media"


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Uniform partition of one subdomain: stent (-l, 0) or media (0, 1)."""

    domain: str
    a: float
    b: float
    n_elems: int
    h: float
    nodes: np.ndarray


def build_mesh(domain: str, n_elems: int, l: float | None = None) -> Mesh1D:
    """Uniform mesh with n_elems elements over the named subdomain."""
    if n_elems < 1:
        raise ValidationError(f"n_elems must be at least 1, got {n_elems}")
    if domain == STENT:
        if l is None or not l > 0.0:
            raise ValidationError(f"stent mesh needs a positive thickness l, got {l}")
        a, b = -l, 0.0
    elif domain == MEDIA:
        a, b = 0.0, 1.0
    else:
        raise ValidationError(f"unknown domain {domain!r}")
    nodes = np.linspace(a, b, n_elems + 1)
    return Mesh1D(domain=domain, a=a, b=b, n_elems=n_elems,
                  h=(b - a) / n_elems, nodes=nodes)


@dataclass(frozen=True, eq=False)
class TridiagonalMatrix:
    """Tridiagonal operator stored only as its LAPACK band: a
    Fortran-ordered 3 x dim array of the upper diagonal, the diagonal and
    the lower diagonal (band[0, j+1] = M[j, j+1], band[2, j] = M[j+1, j]),
    of which ``upper``, ``diag`` and ``lower`` are views.  The corners
    band[0, 0] and band[2, -1] lie outside the matrix and never reach a
    result (see ``matvec``), so they need not be zero."""

    band: np.ndarray

    def __post_init__(self):
        # once here, or every dgbmv call would copy a C-ordered band
        band = np.asfortranarray(self.band, dtype=float)
        if band.ndim != 2 or band.shape[0] != 3 or band.shape[1] < 2:
            raise ValidationError(
                f"a tridiagonal matrix needs a 3 x n band with at least "
                f"2 rows, got shape {band.shape}")
        object.__setattr__(self, "band", band)

    @property
    def upper(self) -> np.ndarray:
        return self.band[0, 1:]

    @property
    def diag(self) -> np.ndarray:
        return self.band[1]

    @property
    def lower(self) -> np.ndarray:
        return self.band[2, :-1]

    @property
    def dim(self) -> int:
        return self.band.shape[1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x for a vector x, or for each column of a 2-D x.

        A vector takes one BLAS ``dgbmv``.  It computes one more row than
        the matrix has (BLAS wants kl + ku + 1 = 3, a one-element mesh has
        2); only that dropped row reads the lower corner, and none the
        upper.  A block takes three band multiply-adds in numpy, with
        x's memory order; they read no corner, and differ from ``dgbmv``
        at roundoff, since OpenBLAS fuses multiply-adds."""
        n = self.band.shape[1]
        if len(x) != n:
            raise ValidationError(
                f"dimension mismatch: matrix is {n}, vector is {len(x)}"
            )
        if x.ndim == 1:
            return dgbmv(n + 1, n, 1, 1, 1.0, self.band, x)[:n]
        out = self.diag[:, None] * x
        out[:-1] += self.upper[:, None] * x[1:]
        out[1:] += self.lower[:, None] * x[:-1]
        return out

    def quadratic(self, rows: np.ndarray) -> np.ndarray:
        """x . (M x) for each row x of a 2-D array, in two einsums (diagonal
        and off-diagonal terms) that build no temporaries of its size."""
        out = np.einsum("ij,j,ij->i", rows, self.diag, rows)
        out += np.einsum("ij,j,ij->i", rows[:, :-1], self.upper + self.lower,
                         rows[:, 1:])
        return out


def assemble_mass(mesh: Mesh1D) -> TridiagonalMatrix:
    """Consistent P1 mass matrix (no lumping): 2h/3 inside, h/3 at the
    ends, h/6 off the diagonal."""
    h = mesh.h
    band = np.empty((3, mesh.n_elems + 1), order="F")
    band[0] = band[2] = h / 6.0
    band[1] = 2.0 * h / 3.0
    band[1, [0, -1]] = h / 3.0
    return TridiagonalMatrix(band)


def assemble_stiffness(mesh: Mesh1D) -> TridiagonalMatrix:
    """P1 stiffness matrix: 2/h inside, 1/h at the ends, -1/h off."""
    h = mesh.h
    band = np.empty((3, mesh.n_elems + 1), order="F")
    band[0] = band[2] = -1.0 / h
    band[1] = 2.0 / h
    band[1, [0, -1]] = 1.0 / h
    return TridiagonalMatrix(band)


def assemble_a(mesh_s: Mesh1D, p: ModelParams) -> TridiagonalMatrix:
    """Stent operator: delta * stiffness plus the interface penalty
    delta*P at the x=0 node (last node of the stent mesh)."""
    if mesh_s.domain != STENT:
        raise ValidationError("assemble_a expects the stent mesh")
    band = p.delta * assemble_stiffness(mesh_s).band
    band[1, -1] += p.delta * p.p_tilde
    return TridiagonalMatrix(band)


def assemble_b(mesh_m: Mesh1D, p: ModelParams) -> TridiagonalMatrix:
    """Media operator: stiffness + da*mass + pe*convection plus the
    interface term (delta*P + pe) at the x=0 node (first node).

    Convection rows (test index j, trial columns): interior
    (-pe/2, 0, +pe/2); first row (-pe/2, +pe/2); last row (-pe/2, +pe/2).
    """
    if mesh_m.domain != MEDIA:
        raise ValidationError("assemble_b expects the media mesh")
    band = assemble_stiffness(mesh_m).band + p.da * assemble_mass(mesh_m).band
    half_pe = 0.5 * p.pe
    band[0] += half_pe
    band[2] -= half_pe
    band[1, 0] -= half_pe
    band[1, -1] += half_pe
    band[1, 0] += p.delta * p.p_tilde + p.pe
    return TridiagonalMatrix(band)


@dataclass(frozen=True, eq=False)
class FemOperators:
    """Everything assembly produces for one (stent, media) mesh pair.

    Mass matrices psi_s/psi_m and the two evolution operators mat_a/mat_b.
    """

    mesh_s: Mesh1D
    mesh_m: Mesh1D
    psi_s: TridiagonalMatrix
    psi_m: TridiagonalMatrix
    mat_a: TridiagonalMatrix
    mat_b: TridiagonalMatrix


def build_operators(p: ModelParams, n_s: int, n_m: int) -> FemOperators:
    """Assemble all operators for n_s stent and n_m media elements."""
    mesh_s = build_mesh(STENT, n_s, l=p.l)
    mesh_m = build_mesh(MEDIA, n_m)
    return FemOperators(
        mesh_s=mesh_s,
        mesh_m=mesh_m,
        psi_s=assemble_mass(mesh_s),
        psi_m=assemble_mass(mesh_m),
        mat_a=assemble_a(mesh_s, p),
        mat_b=assemble_b(mesh_m, p),
    )

