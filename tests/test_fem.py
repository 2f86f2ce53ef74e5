import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stentsim import SingularMatrixError, ValidationError, paper_params
from stentsim.fem import (
    MEDIA,
    STENT,
    TridiagonalMatrix,
    assemble_a,
    assemble_b,
    assemble_mass,
    assemble_stiffness,
    build_mesh,
    build_operators,
)
from stentsim import stepping
from stentsim.stepping import _Kernel, _MassFactor, _stack, sharp_dt_limit

import oracles

P = paper_params()


def entrywise_close(dense, oracle, rtol=1e-12):
    scale = max(np.max(np.abs(oracle)), 1e-300)
    np.testing.assert_allclose(dense, oracle, rtol=rtol, atol=rtol * scale)


# ---------------------------------------------------------------- meshes


def test_media_mesh_quarters():
    m = build_mesh(MEDIA, 4)
    np.testing.assert_allclose(m.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)
    assert m.h == 0.25


def test_stent_mesh_two_elements():
    m = build_mesh(STENT, 2, l=0.028)
    np.testing.assert_allclose(m.nodes, [-0.028, -0.014, 0.0], atol=1e-18)
    assert m.h == pytest.approx(0.014, rel=1e-15)


def test_empty_mesh_rejected():
    with pytest.raises(ValidationError):
        build_mesh(MEDIA, 0)
    with pytest.raises(ValidationError):
        build_mesh(STENT, 3)  # missing thickness


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_mesh_nodes_uniform(n):
    m = build_mesh(STENT, n, l=0.028)
    assert m.nodes[0] == m.a and m.nodes[-1] == m.b
    widths = np.diff(m.nodes)
    assert np.all(widths > 0)
    ulp_scale = 4 * np.finfo(float).eps * max(abs(m.a), abs(m.b))
    np.testing.assert_allclose(widths, m.h, rtol=0, atol=ulp_scale)


# ------------------------------------------------------------- assembly


def test_mass_media_two_elements():
    # h=0.5: diagonal (1/6, 1/3, 1/6), off-diagonal 1/12
    m = assemble_mass(build_mesh(MEDIA, 2))
    np.testing.assert_allclose(m.diag, [1 / 6, 1 / 3, 1 / 6], rtol=1e-15)
    np.testing.assert_allclose(m.lower, [1 / 12, 1 / 12], rtol=1e-15)
    np.testing.assert_allclose(m.upper, [1 / 12, 1 / 12], rtol=1e-15)


def test_mass_single_element():
    m = assemble_mass(build_mesh(MEDIA, 1))
    entrywise_close(oracles.dense(m), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]])


@pytest.mark.parametrize("domain,n", [(MEDIA, 1), (MEDIA, 5), (STENT, 1), (STENT, 9)])
def test_mass_partition_of_unity(domain, n):
    mesh = build_mesh(domain, n, l=P.l)
    m = assemble_mass(mesh)
    total = m.diag.sum() + m.lower.sum() + m.upper.sum()
    assert total == pytest.approx(mesh.b - mesh.a, rel=1e-13)


def test_stent_operator_single_element():
    # closed form: [[d/l, -d/l], [-d/l, d/l + d*P]]
    a = assemble_a(build_mesh(STENT, 1, l=P.l), P)
    dl = P.delta / P.l
    expected = [[dl, -dl], [-dl, dl + P.delta * P.p_tilde]]
    entrywise_close(oracles.dense(a), expected)
    assert P.delta * P.p_tilde == pytest.approx(0.018, rel=1e-15)
    assert dl == pytest.approx(1.4285714285714286e-05, rel=1e-15)


@pytest.mark.parametrize("n", range(1, 65))
def test_assembly_matches_quadrature_oracle(n):
    mesh_s = build_mesh(STENT, n, l=P.l)
    mesh_m = build_mesh(MEDIA, n)
    entrywise_close(oracles.dense(assemble_mass(mesh_m)), oracles.quad_mass(mesh_m.nodes))
    entrywise_close(oracles.dense(assemble_mass(mesh_s)), oracles.quad_mass(mesh_s.nodes))
    entrywise_close(
        oracles.dense(assemble_stiffness(mesh_m)), oracles.quad_stiffness(mesh_m.nodes)
    )
    entrywise_close(oracles.dense(assemble_a(mesh_s, P)), oracles.quad_a(mesh_s.nodes, P))
    entrywise_close(oracles.dense(assemble_b(mesh_m, P)), oracles.quad_b(mesh_m.nodes, P))


@pytest.mark.parametrize("n", range(1, 65))
def test_row_sum_identities(n):
    # A @ 1 = delta*P * e_last;  B @ 1 = da * Psi_m @ 1 + (delta*P + pe) * e_first
    a = assemble_a(build_mesh(STENT, n, l=P.l), P)
    ones_s = np.ones(n + 1)
    expected_a = np.zeros(n + 1)
    expected_a[-1] = P.delta * P.p_tilde
    scale_a = np.max(np.abs(oracles.dense(a)))
    np.testing.assert_allclose(
        a.matvec(ones_s), expected_a, atol=1e-13 * max(scale_a, 1.0)
    )

    mesh_m = build_mesh(MEDIA, n)
    b = assemble_b(mesh_m, P)
    psi_m = assemble_mass(mesh_m)
    ones_m = np.ones(n + 1)
    expected_b = P.da * psi_m.matvec(ones_m)
    expected_b[0] += P.delta * P.p_tilde + P.pe
    scale_b = np.max(np.abs(oracles.dense(b)))
    np.testing.assert_allclose(
        b.matvec(ones_m), expected_b, atol=1e-13 * max(scale_b, 1.0)
    )
    # test-side constants: 1' B = da * (Psi_m 1)' + pe * e_last' + delta*P * e_first'
    col_sums = oracles.dense(b).sum(axis=0)
    expected_cols = P.da * psi_m.matvec(ones_m)
    expected_cols[-1] += P.pe
    expected_cols[0] += P.delta * P.p_tilde
    np.testing.assert_allclose(col_sums, expected_cols, atol=1e-13 * max(scale_b, 1.0))


def test_mass_matrices_spd_and_dominant():
    ops = build_operators(P, 8, 8)
    for m in (ops.psi_s, ops.psi_m):
        dense = oracles.dense(m)
        np.testing.assert_allclose(dense, dense.T, atol=0)
        assert np.all(m.diag > 0) and np.all(m.lower > 0)
        assert np.all(np.linalg.eigvalsh(dense) > 0)
        # strict diagonal dominance
        off = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
        assert np.all(np.diag(dense) > off)


def test_stent_operator_symmetric_psd():
    ops = build_operators(P, 12, 8)
    dense = oracles.dense(ops.mat_a)
    np.testing.assert_allclose(dense, dense.T, atol=0)
    eigs = np.linalg.eigvalsh(dense)
    assert np.all(eigs > -1e-18)
    ones = np.ones(dense.shape[0])
    assert ones @ dense @ ones == pytest.approx(P.delta * P.p_tilde, rel=1e-12)


def test_media_operator_skew_split():
    # B minus its convection part is symmetric; the remainder is the
    # skew convection (whenever pe > 0, B itself is nonsymmetric)
    mesh_m = build_mesh(MEDIA, 6)
    b = oracles.dense(assemble_b(mesh_m, P))
    assert not np.allclose(b, b.T)
    stiff = oracles.dense(assemble_stiffness(mesh_m))
    mass = oracles.dense(assemble_mass(mesh_m))
    sym_part = stiff + P.da * mass
    sym_part[0, 0] += P.delta * P.p_tilde + P.pe
    conv = b - sym_part
    entrywise_close(conv, P.pe * oracles.quad_convection(mesh_m.nodes))


def test_b_corner_entry_matches_oracle():
    mesh_m = build_mesh(MEDIA, 2)
    b = assemble_b(mesh_m, P)
    oracle = oracles.quad_b(mesh_m.nodes, P)
    assert b.diag[0] == pytest.approx(oracle[0, 0], rel=1e-12)


# ------------------------------------------------------------ tridiagonal


def test_solve_identity():
    ident = oracles.tridiagonal(np.zeros(3), np.ones(4), np.zeros(3))
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_allclose(_MassFactor.of(ident).solve(rhs.copy()), rhs,
                               atol=0)


def test_solve_constructed_solution():
    psi = assemble_mass(build_mesh(MEDIA, 2))
    ones = np.ones(3)
    x = _MassFactor.of(psi).solve(psi.matvec(ones))
    np.testing.assert_allclose(x, ones, rtol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
def test_solve_dominant_property(n, seed):
    # symmetric with a positive dominant diagonal, hence positive definite:
    # the only kind of matrix the solver factors
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1, 1, n - 1)
    bulk = np.zeros(n)
    bulk[:-1] += np.abs(off)
    bulk[1:] += np.abs(off)
    diag = bulk + rng.uniform(0.1, 2.0, n)
    m = oracles.tridiagonal(off, diag, off.copy())
    rhs = rng.standard_normal(n)
    x = _MassFactor.of(m).solve(rhs.copy())
    assert np.max(np.abs(m.matvec(x) - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))


def random_tridiagonal(rng, n):
    """A random matrix and the dense array of the diagonals it was given."""
    lower, diag, upper = (rng.standard_normal(n - 1), rng.standard_normal(n),
                          rng.standard_normal(n - 1))
    given = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    return oracles.tridiagonal(lower, diag, upper), given


def assert_matvec_matches_dense(m, given, x):
    # the diagonals the matrix shows are the ones it was given, and its
    # matvec is the dense product with them
    np.testing.assert_array_equal(oracles.dense(m), given)
    want = given @ x
    got = m.matvec(x)
    assert got.shape == want.shape
    scale = np.max(np.abs(given)) * np.max(np.abs(x))
    np.testing.assert_allclose(got, want, rtol=0, atol=4e-16 * scale)


@pytest.mark.parametrize("n", [2, 3])
def test_matvec_matches_dense_at_smallest_dims(n):
    # a 2-row matrix is the block of a one-element mesh, below the three
    # rows BLAS asks a band matvec for
    rng = np.random.default_rng(n)
    for _ in range(20):
        m, given = random_tridiagonal(rng, n)
        assert_matvec_matches_dense(m, given, rng.standard_normal(n))


@pytest.mark.parametrize("n", [2, 3, 17])
def test_block_matvec_matches_dense(n):
    # a 2-D x, C-ordered, Fortran-ordered and a column slice of a larger
    # Fortran-ordered buffer (as a power's build passes it), against the
    # dense product column by column, to 4 ulps of each entry's sum of
    # |terms|; the band corners are never read, and the result keeps x's
    # memory order
    rng = np.random.default_rng(100 + n)
    m, given = random_tridiagonal(rng, n)
    m.band[0, 0] = m.band[2, -1] = np.nan
    buf = np.asfortranarray(rng.standard_normal((n + 3, 7)))
    for x in (rng.standard_normal((n, 5)),
              np.asfortranarray(rng.standard_normal((n, 5))), buf[:n, 2:]):
        got = m.matvec(x)
        assert got.shape == x.shape
        assert got.flags.f_contiguous == (x.strides[0] < x.strides[1])
        bound = 4 * np.finfo(float).eps * (np.abs(given) @ np.abs(x))
        assert np.all(np.abs(got - given @ x) <= bound)
        for j in range(x.shape[1]):
            np.testing.assert_allclose(got[:, j], m.matvec(x[:, j].copy()),
                                       rtol=0, atol=bound[:, j].max())


def test_block_matvec_refuses_row_count_mismatch():
    m, _ = random_tridiagonal(np.random.default_rng(0), 5)
    for rows in (4, 6):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            m.matvec(np.zeros((rows, 3), order="F"))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=2**31))
def test_quadratic_matches_dense(n, seed):
    # x.(M x) per row against the dense product, to 1e-13 of the sum of
    # the magnitudes of its terms (a random M is indefinite, so the form
    # itself may cancel); the band corners are never read
    rng = np.random.default_rng(seed)
    m, given = random_tridiagonal(rng, n)
    m.band[0, 0] = m.band[2, -1] = np.nan
    rows = rng.standard_normal((5, n))
    got = m.quadratic(rows)
    assert got.shape == (5,)
    for x, q in zip(rows, got):
        scale = np.abs(x) @ np.abs(given) @ np.abs(x)
        assert abs(q - x @ oracles.dense(m) @ x) <= 1e-13 * scale


@pytest.mark.parametrize("n_top,n_bottom", [(2, 2), (3, 5), (9, 7)])
def test_stacked_matvec_carries_junction_entries(n_top, n_bottom):
    rng = np.random.default_rng(10 * n_top + n_bottom)
    (top, d_top), (bottom, d_bottom) = (random_tridiagonal(rng, n_top),
                                        random_tridiagonal(rng, n_bottom))
    n = n_top + n_bottom
    given = np.zeros((n, n))
    given[:n_top, :n_top] = d_top
    given[n_top:, n_top:] = d_bottom
    given[n_top - 1, n_top] = 0.7
    given[n_top, n_top - 1] = -1.3
    m = _stack(top.band, bottom.band, 0.7, -1.3)
    assert_matvec_matches_dense(m, given, rng.standard_normal(n))
    # each junction entry couples exactly one pair of rows and columns
    for j in (n_top - 1, n_top):
        e = np.zeros(n)
        e[j] = 1.0
        np.testing.assert_array_equal(m.matvec(e), given[:, j])
    # a column slice of the stacked band is its diagonal block, though
    # the slice's corner holds a junction entry
    x = rng.standard_normal(n)
    for lo, hi in ((0, n_top), (n_top, n)):
        assert_matvec_matches_dense(TridiagonalMatrix(m.band[:, lo:hi]),
                                    given[lo:hi, lo:hi], x[lo:hi])


def test_one_row_matrix_refused():
    with pytest.raises(ValidationError, match="at least 2 rows"):
        oracles.tridiagonal(np.array([]), np.array([1.0]), np.array([]))


def test_singular_pivot_detected():
    m = oracles.tridiagonal(np.array([1.0]), np.array([0.0, 1.0]),
                            np.array([1.0]))
    with pytest.raises(SingularMatrixError, match="singular"):
        _MassFactor.of(m)


# ----------------------------------------------------------- band layout


def test_band_stored_fortran_ordered():
    band = np.arange(12).reshape(3, 4)  # C-ordered integers
    m = TridiagonalMatrix(band)
    assert m.band.flags.f_contiguous and m.band.dtype == float
    np.testing.assert_array_equal(m.band, band)
    np.testing.assert_array_equal(m.upper, [1, 2, 3])
    np.testing.assert_array_equal(m.diag, [4, 5, 6, 7])
    np.testing.assert_array_equal(m.lower, [8, 9, 10])
    assert m.dim == 4
    # a Fortran-ordered float band, such as a column slice, is not copied
    fortran = np.asfortranarray(band, dtype=float)[:, 1:]
    assert TridiagonalMatrix(fortran).band is fortran


@pytest.mark.parametrize("shape", [(3,), (2, 4), (4, 4), (3, 1), (3, 0)])
def test_band_not_3_by_n_refused(shape):
    with pytest.raises(ValidationError, match="at least 2 rows"):
        TridiagonalMatrix(np.ones(shape))


@pytest.mark.parametrize("n", [1, 2, 9])
def test_operators_keep_entrywise_order(n):
    # every band sum computes each entry in the order of the entrywise
    # expression over the stiffness and mass diagonals
    mesh_s, mesh_m = build_mesh(STENT, n, l=P.l), build_mesh(MEDIA, n + 1)
    s_s = assemble_stiffness(mesh_s)
    a = assemble_a(mesh_s, P)
    diag = P.delta * s_s.diag
    diag[-1] += P.delta * P.p_tilde
    np.testing.assert_array_equal(a.diag, diag)
    np.testing.assert_array_equal(a.lower, P.delta * s_s.lower)
    np.testing.assert_array_equal(a.upper, P.delta * s_s.upper)

    stiff, mass = assemble_stiffness(mesh_m), assemble_mass(mesh_m)
    half_pe = 0.5 * P.pe
    conv_diag = np.zeros(n + 2)
    conv_diag[0] = -half_pe
    conv_diag[-1] = half_pe
    diag = stiff.diag + P.da * mass.diag + conv_diag
    diag[0] += P.delta * P.p_tilde + P.pe
    b = assemble_b(mesh_m, P)
    np.testing.assert_array_equal(b.diag, diag)
    np.testing.assert_array_equal(
        b.lower, stiff.lower + P.da * mass.lower - half_pe)
    np.testing.assert_array_equal(
        b.upper, stiff.upper + P.da * mass.upper + half_pe)


@pytest.mark.parametrize("ratio,domain", [(1, STENT), (3, STENT), (4, MEDIA)])
def test_kernel_operator_keeps_entrywise_order(ratio, domain):
    # upd is blockdiag(Psi_s - dt_s*A, Psi_m - (dt_media/phi)*B), entry
    # by entry, with the interface sources on its junction off-diagonals
    ops = build_operators(P, 5, 4)
    kern = _Kernel(P, ops, 1e-5, ratio, domain)
    dt_s, dt_media = 1e-5 / kern.r_s, 1e-5 / kern.r_m
    f = dt_media / P.phi
    s, m = (ops.psi_s, ops.mat_a), (ops.psi_m, ops.mat_b)
    np.testing.assert_array_equal(kern.upd.diag, np.concatenate(
        [s[0].diag - dt_s * s[1].diag, m[0].diag - f * m[1].diag]))
    np.testing.assert_array_equal(kern.upd.lower, np.concatenate(
        [s[0].lower - dt_s * s[1].lower, [kern.src_m],
         m[0].lower - f * m[1].lower]))
    np.testing.assert_array_equal(kern.upd.upper, np.concatenate(
        [s[0].upper - dt_s * s[1].upper, [kern.src_s],
         m[0].upper - f * m[1].upper]))
    dense = oracles.dense(kern.upd)
    n0 = kern.n0
    np.testing.assert_array_equal(oracles.dense(kern.upd_s), dense[:n0, :n0])
    np.testing.assert_array_equal(oracles.dense(kern.upd_m), dense[n0:, n0:])


@pytest.mark.parametrize("n_s,n_m", [(1, 1), (8, 6), (100, 25)])
def test_kernel_factors_once(monkeypatch, n_s, n_m):
    # one dpttrf, of blockdiag(Psi_s, Psi_m); its junction entry is
    # exactly 0, so its slices solve bitwise as each block's own factor
    ops = build_operators(P, n_s, n_m)
    calls, dpttrf = [], stepping.dpttrf
    monkeypatch.setattr(stepping, "dpttrf",
                        lambda *args: calls.append(args) or dpttrf(*args))
    kern = _Kernel(P, ops, 1e-5, 3, MEDIA)
    assert len(calls) == 1
    monkeypatch.undo()
    assert kern.fac.e[kern.n0 - 1] == 0.0
    rng = np.random.default_rng(n_s)
    for sliced, psi in ((kern.fac_s, ops.psi_s), (kern.fac_m, ops.psi_m)):
        rhs = rng.standard_normal(psi.dim)
        np.testing.assert_array_equal(sliced.solve(rhs.copy()),
                                      _MassFactor.of(psi).solve(rhs.copy()))


@pytest.mark.parametrize("domain", [STENT, MEDIA])
@pytest.mark.parametrize("variant", ["monolithic", "alg1", "alg2"])
def test_substeps_with_sliced_factor_match_block_factors(domain, variant):
    # the substeps after the stacked one solve with the slices of the
    # stacked factor; with each block's own factor they agree bitwise
    ops = build_operators(P, 8, 6)
    dt = 0.5 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h, 3, domain)
    kern, ref = _Kernel(P, ops, dt, 3, domain), _Kernel(P, ops, dt, 3, domain)
    ref.fac_s, ref.fac_m = _MassFactor.of(ops.psi_s), _MassFactor.of(ops.psi_m)
    z = np.concatenate([np.ones(9), np.zeros(7)])
    y2 = np.zeros(7)
    z_ref, y2_ref = z.copy(), y2.copy()
    for _ in range(5):
        z, y2 = kern.macro_step(z, y2, variant)
        z_ref, y2_ref = ref.macro_step(z_ref, y2_ref, variant)
        np.testing.assert_array_equal(z, z_ref)
        np.testing.assert_array_equal(y2, y2_ref)
    assert np.any(z[9:] != 0.0)


# ----------------------------------------------------------------- norms


def test_norm_examples():
    # squared discrete norms v' Psi v (L2), the form compare_records
    # takes, and v' S v (H1 seminorm), equal in exact arithmetic to the
    # sum of (v[i+1] - v[i])^2 / h that compare_records takes
    mesh_m = build_mesh(MEDIA, 8)
    mesh_s = build_mesh(STENT, 10, l=0.028)
    ones_m, ones_s = np.ones(9), np.ones(11)
    assert ones_m @ assemble_mass(mesh_m).matvec(ones_m) == pytest.approx(
        1.0, rel=1e-14)
    assert ones_s @ assemble_mass(mesh_s).matvec(ones_s) == pytest.approx(
        0.028, rel=1e-14)
    x = mesh_m.nodes.copy()
    assert x @ assemble_stiffness(mesh_m).matvec(x) == pytest.approx(
        1.0, rel=1e-13)


def test_norm_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        assemble_mass(build_mesh(MEDIA, 4)).matvec(np.ones(3))
    with pytest.raises(ValidationError):
        build_mesh("lumen", 4)
