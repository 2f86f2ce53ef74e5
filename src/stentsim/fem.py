"""Uniform P1 meshes and tridiagonal operator assembly.

Matrix orientation: row = test index, column = trial index, so that a
matrix-vector product applies the Galerkin equations directly.  This only
matters for the nonsymmetric media operator, whose convection part would
otherwise be silently transposed.

All element integrals use the closed-form P1 formulas; the test suite
checks every entry against a two-point Gauss quadrature oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgbmv

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
    """Tridiagonal operator stored as its three diagonals.

    The diagonals are copied into ``band``, the Fortran-ordered 3 x dim
    LAPACK band storage (upper, diagonal, lower; zero corners), and
    become views of it, so an entry set after construction reaches the
    matvec too.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    band: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.diag)
        if n < 2:
            raise ValidationError(
                f"a tridiagonal matrix needs at least 2 rows, got {n}")
        if len(self.lower) != n - 1 or len(self.upper) != n - 1:
            raise ValidationError(
                "off-diagonals must be one entry shorter than the diagonal"
            )
        band = np.zeros((3, n), order="F")
        band[0, 1:] = self.upper
        band[1] = self.diag
        band[2, :-1] = self.lower
        for name, view in (("upper", band[0, 1:]), ("diag", band[1]),
                           ("lower", band[2, :-1]), ("band", band)):
            object.__setattr__(self, name, view)

    @property
    def dim(self) -> int:
        return len(self.diag)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """One BLAS ``dgbmv``.  It computes one more row than the matrix
        has, which is zero: BLAS wants at least kl + ku + 1 = 3 rows,
        and a one-element mesh has 2."""
        n = len(self.diag)
        if len(x) != n:
            raise ValidationError(
                f"dimension mismatch: matrix is {n}, vector is {len(x)}"
            )
        return dgbmv(n + 1, n, 1, 1, 1.0, self.band, x)[:n]


def _tridiag(n: int, lo: float, di: float, up: float) -> TridiagonalMatrix:
    return TridiagonalMatrix(
        lower=np.full(n - 1, lo),
        diag=np.full(n, di),
        upper=np.full(n - 1, up),
    )


def assemble_mass(mesh: Mesh1D) -> TridiagonalMatrix:
    """Consistent P1 mass matrix (no lumping): 2h/3 inside, h/3 at the
    ends, h/6 off the diagonal."""
    h = mesh.h
    m = _tridiag(mesh.n_elems + 1, h / 6.0, 2.0 * h / 3.0, h / 6.0)
    m.diag[0] = h / 3.0
    m.diag[-1] = h / 3.0
    return m


def assemble_stiffness(mesh: Mesh1D) -> TridiagonalMatrix:
    """P1 stiffness matrix: 2/h inside, 1/h at the ends, -1/h off."""
    h = mesh.h
    s = _tridiag(mesh.n_elems + 1, -1.0 / h, 2.0 / h, -1.0 / h)
    s.diag[0] = 1.0 / h
    s.diag[-1] = 1.0 / h
    return s


def assemble_a(mesh_s: Mesh1D, p: ModelParams) -> TridiagonalMatrix:
    """Stent operator: delta * stiffness plus the interface penalty
    delta*P at the x=0 node (last node of the stent mesh)."""
    if mesh_s.domain != STENT:
        raise ValidationError("assemble_a expects the stent mesh")
    s = assemble_stiffness(mesh_s)
    a = TridiagonalMatrix(
        lower=p.delta * s.lower, diag=p.delta * s.diag, upper=p.delta * s.upper
    )
    a.diag[-1] += p.delta * p.p_tilde
    return a


def assemble_b(mesh_m: Mesh1D, p: ModelParams) -> TridiagonalMatrix:
    """Media operator: stiffness + da*mass + pe*convection plus the
    interface term (delta*P + pe) at the x=0 node (first node).

    Convection rows (test index j, trial columns): interior
    (-pe/2, 0, +pe/2); first row (-pe/2, +pe/2); last row (-pe/2, +pe/2).
    """
    if mesh_m.domain != MEDIA:
        raise ValidationError("assemble_b expects the media mesh")
    n = mesh_m.n_elems + 1
    stiff = assemble_stiffness(mesh_m)
    mass = assemble_mass(mesh_m)
    half_pe = 0.5 * p.pe
    conv_diag = np.zeros(n)
    conv_diag[0] = -half_pe
    conv_diag[-1] = half_pe
    b = TridiagonalMatrix(
        lower=stiff.lower + p.da * mass.lower - half_pe,
        diag=stiff.diag + p.da * mass.diag + conv_diag,
        upper=stiff.upper + p.da * mass.upper + half_pe,
    )
    b.diag[0] += p.delta * p.p_tilde + p.pe
    return b


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

