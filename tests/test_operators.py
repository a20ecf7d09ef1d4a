import numpy as np
import pytest
import scipy.io
import scipy.sparse

from rkstieltjes.functions import catalog_function
from rkstieltjes.operators import (
    DENSE_EIG_LIMIT,
    DenseOperator,
    DiagonalOperator,
    SpectralInterval,
    TridiagonalOperator,
    from_dense_array,
    load_matrix,
    oracle_funv,
    save_matrix_market,
    spectral_interval,
    toeplitz_tridiagonal,
)


def test_spectral_interval_validation():
    iv = SpectralInterval(1.0, 4.0)
    assert iv.kappa == 4.0
    assert tuple(iv) == (1.0, 4.0)
    with pytest.raises(ValueError):
        SpectralInterval(4.0, 1.0)
    with pytest.raises(ValueError):
        SpectralInterval(-1.0, 4.0).require_positive()


def test_spectral_interval_shift_roundtrip():
    iv = SpectralInterval(2.0, 8.0)
    assert tuple(iv.shifted(-1.5)) == (0.5, 6.5)
    back = iv.shifted(-1.5).shifted(1.5)
    assert back.lower == pytest.approx(2.0) and back.upper == pytest.approx(8.0)


class TestTridiagonal:
    def test_toeplitz_exact_interval(self):
        """Eigenvalues of c*tridiag(-1,2,-1) are 2c(1 - cos(k pi/(n+1)))."""
        n, c = 50, 0.7
        op = toeplitz_tridiagonal(n, c)
        iv = op.exact_interval()
        w = np.linalg.eigvalsh(op.to_dense())
        assert iv.lower == pytest.approx(w[0], rel=1e-12)
        assert iv.upper == pytest.approx(w[-1], rel=1e-12)

    def test_two_by_two_solve(self):
        # tridiag(-1,2,-1) on n=2: A^{-1} e_1 = (2/3, 1/3)
        op = toeplitz_tridiagonal(2, 1.0)
        x = op.shifted_solve(0.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_shifted_solve_matches_dense(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(2.0, 4.0, 30)
        e = rng.uniform(-0.8, 0.8, 29)
        op = TridiagonalOperator(d, e)
        b = rng.standard_normal(30)
        for sigma in (-3.0, -0.1, 0.0):
            got = op.shifted_solve(sigma, b)
            want = np.linalg.solve(op.to_dense() - sigma * np.eye(30), b)
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_infinite_pole_solve_is_copy(self):
        op = toeplitz_tridiagonal(8, 1.0)
        b = np.arange(8.0)
        out = op.shifted_solve(np.inf, b)
        np.testing.assert_array_equal(out, b)
        assert out is not b

    def test_toeplitz_scale_detection(self):
        assert toeplitz_tridiagonal(12, 2.5).toeplitz_scale() == 2.5
        op = TridiagonalOperator(np.full(12, 5.0), np.full(11, -2.5))
        assert op.toeplitz_scale() == 2.5
        bent = TridiagonalOperator(np.linspace(1, 2, 12), np.full(11, -0.3))
        assert bent.toeplitz_scale() is None


def test_diag_shifted_consistency():
    rng = np.random.default_rng(0)
    ops = [
        DiagonalOperator(rng.uniform(1, 3, 10)),
        toeplitz_tridiagonal(10, 1.0),
        DenseOperator(np.eye(10) * 2 + 0.1 * np.ones((10, 10))),
    ]
    for op in ops:
        shifted = op.diag_shifted(-0.5)
        np.testing.assert_allclose(
            shifted.to_dense(), op.to_dense() - 0.5 * np.eye(10), atol=1e-14)


def test_gershgorin_encloses_spectrum():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((20, 20))
    a = a + a.T + 20 * np.eye(20)
    op = from_dense_array(a)
    iv = op.gershgorin()
    w = np.linalg.eigvalsh(a)
    assert iv.lower <= w[0] and w[-1] <= iv.upper


def test_spectral_interval_modes():
    op = toeplitz_tridiagonal(40, 1.0)
    exact = spectral_interval(op, mode="exact-small")
    w = np.linalg.eigvalsh(op.to_dense())
    assert exact.lower == pytest.approx(w[0], rel=1e-10)

    # Gershgorin on a discrete Laplacian touches zero; a floor is mandatory.
    with pytest.raises(ValueError):
        spectral_interval(op, mode="gershgorin")
    floored = spectral_interval(op, mode="gershgorin", floor=w[0])
    assert floored.lower == pytest.approx(w[0])

    # User bounds are trusted (the whole point is avoiding an eig solve);
    # only ordering is checked.
    user = spectral_interval(op, mode="user", bounds=(0.001, 5.0))
    assert tuple(user) == (0.001, 5.0)
    with pytest.raises(ValueError):
        spectral_interval(op, mode="user", bounds=(5.0, 0.001))
    with pytest.raises(ValueError):
        spectral_interval(op, mode="user")


def test_from_dense_array_chooses_storage():
    assert from_dense_array(np.diag([1.0, 2.0])).kind == "diagonal"
    tri = np.diag([2.0, 2, 2]) + np.diag([-1.0, -1], 1) + np.diag([-1.0, -1], -1)
    assert from_dense_array(tri).kind == "tridiagonal"
    full = np.ones((3, 3)) + np.eye(3) * 3
    assert from_dense_array(full).kind == "dense"
    with pytest.raises(ValueError):
        from_dense_array(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_matrix_market_roundtrip(tmp_path):
    op = toeplitz_tridiagonal(9, 1.5)
    path = str(tmp_path / "t.mtx")
    save_matrix_market(path, op)
    back = load_matrix(path)
    assert back.kind == "tridiagonal"
    np.testing.assert_allclose(back.to_dense(), op.to_dense(), atol=1e-14)


def test_matrix_market_array_form_picks_banded_storage(tmp_path):
    path = str(tmp_path / "a.mtx")
    scipy.io.mmwrite(path, toeplitz_tridiagonal(6, 2.0).to_dense())
    back = load_matrix(path)
    assert back.kind == "tridiagonal"
    np.testing.assert_array_equal(back.e, np.full(5, -2.0))


def test_symmetry_rule_is_relative_at_any_scale(tmp_path):
    # sub- and super-diagonal differ by 50%; tiny entries must not hide it
    m = scipy.sparse.diags([1e-20 * np.ones(3), 2e-20 * np.ones(4),
                            1.5e-20 * np.ones(3)], [-1, 0, 1])
    path = str(tmp_path / "u.mtx")
    scipy.io.mmwrite(path, m)
    with pytest.raises(ValueError, match="not symmetric"):
        load_matrix(path)
    with pytest.raises(ValueError, match="not symmetric"):
        from_dense_array(m.toarray())


def test_picker_refuses_silent_densification(tmp_path):
    n = DENSE_EIG_LIMIT + 1
    band = [np.full(n - abs(k), -1.0 if k else 4.0) for k in range(-2, 3)]
    path = str(tmp_path / "penta.mtx")
    scipy.io.mmwrite(path, scipy.sparse.diags(band, list(range(-2, 3))))
    with pytest.raises(ValueError, match=rf"order {n} with bandwidth 2"):
        load_matrix(path)


def test_load_plain_text_diagonal(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1.5\n2.5\n3.5\n")
    op = load_matrix(str(path))
    assert op.kind == "diagonal"
    np.testing.assert_array_equal(op.d, [1.5, 2.5, 3.5])


class TestShiftRule:
    """One near-singular rule and one dtype rule for the three storages."""

    def _storages(self, op):
        return [op, DenseOperator(op.to_dense()),
                DiagonalOperator(np.linalg.eigvalsh(op.to_dense()))]

    def test_eigenvalue_shift_refused_by_every_storage(self):
        op = toeplitz_tridiagonal(50)
        lam = np.linalg.eigvalsh(op.to_dense())[3]
        for storage in self._storages(op):
            for sigma in (lam, lam * (1 + 1e-13)):
                with pytest.raises(ValueError, match="near-singular"):
                    storage.shifted_solve(sigma, np.ones(50))

    def test_tiny_scale_is_not_singular(self):
        op = DiagonalOperator([1e-20, 2e-20, 3e-20])
        np.testing.assert_allclose(op.shifted_solve(-1e-20, np.ones(3)),
                                   [5e19, 1e20 / 3, 2.5e19], rtol=1e-15)

    def test_zero_imaginary_part_is_real(self):
        b = np.ones(8)
        for storage in self._storages(toeplitz_tridiagonal(8)):
            real = storage.shifted_solve(complex(-1.0, 0.0), b)
            assert real.dtype == np.float64
            np.testing.assert_array_equal(real, storage.shifted_solve(-1.0, b))
            assert storage.shifted_solve(complex(-1.0, 0.5), b).dtype == np.complex128

    def test_order_one_tridiagonal(self):
        op = toeplitz_tridiagonal(1)
        np.testing.assert_array_equal(op.shifted_solve(0.0, np.ones(1)), [0.5])
        with pytest.raises(ValueError, match="near-singular"):
            op.shifted_solve(2.0, np.ones(1))


class TestOracleFunv:
    """The three reference-solution routes must agree with dense eig."""

    def _dense_reference(self, op, f, v):
        w, q = np.linalg.eigh(op.to_dense())
        return q @ (f(w) * (q.T @ v))

    def test_sine_transform_route(self):
        op = toeplitz_tridiagonal(64, 0.3)
        f = catalog_function("power", -0.5)
        v = np.random.default_rng(1).standard_normal(64)
        got = oracle_funv(op, f, v)
        np.testing.assert_allclose(got, self._dense_reference(op, f, v),
                                   rtol=1e-11)

    def test_diagonal_route(self):
        d = np.linspace(0.5, 9.0, 33)
        op = DiagonalOperator(d)
        f = catalog_function("phi", 1)
        v = np.random.default_rng(2).standard_normal(33)
        np.testing.assert_allclose(oracle_funv(op, f, v), f(d) * v, rtol=1e-13)

    def test_dense_route_and_limit(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((25, 25))
        op = from_dense_array(a + a.T + 25 * np.eye(25))
        f = catalog_function("inverse")
        v = rng.standard_normal(25)
        got = oracle_funv(op, f, v)
        np.testing.assert_allclose(got, np.linalg.solve(op.to_dense(), v),
                                   rtol=1e-10)
        with pytest.raises(ValueError):
            oracle_funv(op, f, v, dense_limit=10)
