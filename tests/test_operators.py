import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla
import scipy.sparse

from rkstieltjes.functions import catalog_function
from rkstieltjes.rk import RKDecomposition, funv_driver, rk_build
from rkstieltjes.strategies import STRATEGIES
from rkstieltjes.operators import (
    DENSE_EIG_LIMIT,
    BandedOperator,
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


def _spd_band(n, k, seed=0):
    """A dense SPD matrix of order n and bandwidth exactly k."""
    rng = np.random.default_rng(seed)
    low = np.tril(np.triu(rng.uniform(-1.0, 1.0, (n, n)), -k), -1)
    low[np.arange(k, n), np.arange(n - k)] = 0.5  # the outer band is nonzero
    a = low + low.T
    return a + np.diag(np.abs(a).sum(axis=1) + rng.uniform(0.5, 2.0, n))


def _laplacian_2d(m):
    """Five-point Laplacian on an m x m grid: order m^2, bandwidth m."""
    t = scipy.sparse.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)],
                           [-1, 0, 1])
    eye = scipy.sparse.identity(m)
    return scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye)


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

    def test_exact_interval_matches_dense_eigenvalues(self):
        # Diagonally dominant and not Toeplitz, so the ends come from
        # bisection; the padded interval encloses the dense eigenvalues.
        rng = np.random.default_rng(17)
        n = 2000
        op = TridiagonalOperator(rng.uniform(2.0, 5.0, n),
                                 rng.uniform(-1.0, 1.0, n - 1))
        w = np.linalg.eigvalsh(op.to_dense())
        iv = op.exact_interval()
        assert iv.lower <= w[0] and w[-1] <= iv.upper
        np.testing.assert_allclose(tuple(iv), (w[0], w[-1]), rtol=1e-13)

    def test_exact_interval_has_no_order_cap(self):
        n = 6000
        assert n > DENSE_EIG_LIMIT
        op = TridiagonalOperator(np.linspace(3.0, 5.0, n), np.full(n - 1, 0.5))
        w = sla.eigvalsh_tridiagonal(op.d, op.e)
        iv = op.exact_interval()
        assert iv.lower <= w[0] and w[-1] <= iv.upper
        np.testing.assert_allclose(tuple(iv), (w[0], w[-1]), rtol=1e-14)

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


def test_from_dense_array_chooses_storage():
    assert isinstance(from_dense_array(np.diag([1.0, 2.0])), DiagonalOperator)
    tri = np.diag([2.0, 2, 2]) + np.diag([-1.0, -1], 1) + np.diag([-1.0, -1], -1)
    assert isinstance(from_dense_array(tri), TridiagonalOperator)
    full = np.ones((3, 3)) + np.eye(3) * 3
    assert isinstance(from_dense_array(full), DenseOperator)
    with pytest.raises(ValueError):
        from_dense_array(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("k", [2, 3, 7])
def test_picker_band_boundary_is_3k_plus_1(k):
    # The band LU array, (3k + 1) x n, is never larger than the matrix.
    n = 3 * k + 1
    assert isinstance(from_dense_array(_spd_band(n, k)), BandedOperator)
    assert isinstance(from_dense_array(_spd_band(n - 1, k)), DenseOperator)
    assert isinstance(from_dense_array(_spd_band(n, k + 1)), DenseOperator)


def test_picker_keeps_diagonal_and_tridiagonal_at_any_order():
    assert isinstance(from_dense_array(_spd_band(1, 0)), DiagonalOperator)
    assert isinstance(from_dense_array(_spd_band(2, 1)), TridiagonalOperator)
    assert isinstance(from_dense_array(_spd_band(4, 1)), TridiagonalOperator)


class TestBandedOperator:
    """Band storage agrees with dense storage of the same matrix."""

    N, K = 40, 3
    A = _spd_band(N, K)

    def _pair(self):
        op = from_dense_array(self.A)
        assert isinstance(op, BandedOperator) and op.k == self.K
        return op, DenseOperator(self.A)

    def _rhs(self):
        rng = np.random.default_rng(7)
        real = rng.standard_normal((self.N, 2))
        block = real + 1j * rng.standard_normal((self.N, 2))
        return [real[:, 0], real, block[:, 0], block]

    @pytest.mark.parametrize("sigma", [-0.5, 2.0, complex(1.0, 0.5)])
    def test_shifted_solve_matches_dense(self, sigma):
        op, dense = self._pair()
        for b in self._rhs():
            got = op.shifted_solve(sigma, b)
            assert got.shape == b.shape
            assert got.dtype == np.result_type(b, sigma)
            np.testing.assert_allclose(got, dense.shifted_solve(sigma, b),
                                       rtol=1e-13, atol=1e-14)

    def test_matvec_and_to_dense_match_dense(self):
        op, dense = self._pair()
        np.testing.assert_array_equal(op.to_dense(), self.A)
        for x in self._rhs():
            np.testing.assert_allclose(op.matvec(x), dense.matvec(x),
                                       rtol=1e-14, atol=1e-14)

    def test_intervals_enclose_the_spectrum(self):
        op, _ = self._pair()
        w = np.linalg.eigvalsh(self.A)
        iv = op.exact_interval()
        assert iv.lower <= w[0] and w[-1] <= iv.upper
        np.testing.assert_allclose(tuple(iv), (w[0], w[-1]), rtol=1e-13)
        np.testing.assert_allclose(tuple(op.gershgorin()),
                                   tuple(DenseOperator(self.A).gershgorin()),
                                   rtol=1e-14)

    def test_diag_shifted_stays_banded(self):
        op, _ = self._pair()
        shifted = op.diag_shifted(2.5)
        assert isinstance(shifted, BandedOperator)
        np.testing.assert_array_equal(shifted.to_dense(),
                                      self.A + 2.5 * np.eye(self.N))

    def test_funv_driver_matches_dense_storage(self, tmp_path):
        path = str(tmp_path / "lap.mtx")
        scipy.io.mmwrite(path, _laplacian_2d(12))
        op = load_matrix(path)
        assert isinstance(op, BandedOperator) and op.k == 12
        dense = DenseOperator(op.to_dense())
        f = catalog_function("power", -0.5)
        v = np.random.default_rng(3).standard_normal(op.n)
        got, want = (funv_driver(o, f, v, o.exact_interval(), "extended",
                                 tol=1e-8) for o in (op, dense))
        assert got.converged and got.ell == want.ell
        err = np.linalg.norm(got.x - want.x) / np.linalg.norm(want.x)
        assert err < 1e-13


def test_matrix_market_roundtrip(tmp_path):
    op = toeplitz_tridiagonal(9, 1.5)
    path = str(tmp_path / "t.mtx")
    save_matrix_market(path, op)
    back = load_matrix(path)
    assert isinstance(back, TridiagonalOperator)
    np.testing.assert_allclose(back.to_dense(), op.to_dense(), atol=1e-14)


@pytest.mark.parametrize("op", [
    DiagonalOperator([3.0, 1e-300, 2.5]),
    TridiagonalOperator([4.0, 3.0, 5.0, 2.0], [1.5, 0.0, -0.25]),
    DenseOperator(np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 1.0],
                            [0.5, 1.0, 5.0]])),
    from_dense_array(_spd_band(10, 3)),
], ids=["diagonal", "tridiagonal-zero-offdiagonal", "dense", "banded"])
def test_matrix_market_roundtrip_is_exact(tmp_path, op):
    path = str(tmp_path / "m.mtx")
    save_matrix_market(path, op)
    back = load_matrix(path)
    assert isinstance(back, type(op))
    np.testing.assert_array_equal(back.to_dense(), op.to_dense())


def test_matrix_market_writes_bands_without_dense_copy(tmp_path):
    op = toeplitz_tridiagonal(3000)
    path = str(tmp_path / "big.mtx")
    tracemalloc.start()
    try:
        save_matrix_market(path, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20  # a dense copy alone is 69 MiB
    back = load_matrix(path)
    np.testing.assert_array_equal(back.d, op.d)
    np.testing.assert_array_equal(back.e, op.e)


def test_matrix_market_writes_wide_bands_without_dense_copy(tmp_path):
    ab = np.random.default_rng(4).uniform(-1.0, 1.0, (4, 3000))
    ab[0] += 10.0
    op = BandedOperator(ab)
    path = str(tmp_path / "band.mtx")
    tracemalloc.start()
    try:
        save_matrix_market(path, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20  # a dense copy alone is 69 MiB
    back = load_matrix(path)
    assert isinstance(back, BandedOperator)
    np.testing.assert_array_equal(back.ab, op.ab)


def test_matrix_market_array_form_picks_banded_storage(tmp_path):
    path = str(tmp_path / "a.mtx")
    scipy.io.mmwrite(path, toeplitz_tridiagonal(6, 2.0).to_dense())
    back = load_matrix(path)
    assert isinstance(back, TridiagonalOperator)
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
    path = str(tmp_path / "penta.mtx")

    def pentadiagonal(n):
        band = [np.full(n - abs(k), -1.0 if k else 4.0) for k in range(-2, 3)]
        scipy.io.mmwrite(path, scipy.sparse.diags(band, list(range(-2, 3))))
        return load_matrix(path)

    n = DENSE_EIG_LIMIT + 1
    with pytest.raises(ValueError, match=rf"order {n} with bandwidth 2 would "
                       r"need dense storage, refused above order"):
        pentadiagonal(n)
    # At the order cap the same band is stored as a band.
    assert isinstance(pentadiagonal(DENSE_EIG_LIMIT), BandedOperator)


def test_load_plain_text_diagonal(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1.5\n2.5\n3.5\n")
    op = load_matrix(str(path))
    assert isinstance(op, DiagonalOperator)
    np.testing.assert_array_equal(op.d, [1.5, 2.5, 3.5])


class TestShiftRule:
    """One near-singular rule and one dtype rule for the four storages."""

    def _storages(self, op):
        return [op, DenseOperator(op.to_dense()),
                DiagonalOperator(np.linalg.eigvalsh(op.to_dense())),
                BandedOperator([op.d, np.append(op.e, 0.0)])]

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


class TestFactorCache:
    """``shifted_solve(..., factors=d)`` factors each sigma once and then
    repeats the fresh solve bit for bit; ``RKDecomposition`` owns one d."""

    def _storages(self, n=12):
        op = toeplitz_tridiagonal(n)
        return [op, DenseOperator(op.to_dense()),
                DiagonalOperator(np.linspace(0.5, 3.5, n)),
                from_dense_array(_spd_band(n, 3)),
                toeplitz_tridiagonal(2)]  # order < 3: tridiagonal via dense LU

    def test_cached_solve_equals_fresh_solve(self):
        rng = np.random.default_rng(5)
        for op in self._storages():
            real = rng.standard_normal((op.n, 3))
            rhs = [real[:, 0], real, real + 1j * rng.standard_normal((op.n, 3))]
            factors = {}
            for sigma in (-0.5, complex(1.0, 0.5), -0.5):
                for b in rhs:
                    fresh = op.shifted_solve(sigma, b)
                    for _ in range(2):  # the second call is a hit
                        got = op.shifted_solve(sigma, b, factors=factors)
                        assert got.shape == b.shape
                        np.testing.assert_array_equal(got, fresh)
                    assert len(factors) == 1

    def test_zero_and_negative_zero_are_two_shifts(self):
        # With -0.0 on the diagonal, the two zero shifts give solutions
        # that differ in the sign of a zero entry.
        op = DenseOperator([[-0.0, 1.0, 0.0], [1.0, -0.0, 1.0], [0.0, 1.0, 3.0]])
        b = -np.eye(3)[:, 1]
        factors = {}
        for sigma in (0.0, -0.0):
            got = op.shifted_solve(sigma, b, factors=factors)
            assert got.tobytes() == op.shifted_solve(sigma, b).tobytes()

    @pytest.mark.parametrize("storage", range(4))
    def test_extended_build_factors_once(self, storage, monkeypatch):
        op = self._storages(40)[storage]
        cls = type(op)
        calls = []
        factor = cls._factor

        def counting(self, sigma, block):
            calls.append(sigma)
            return factor(self, sigma, block)

        monkeypatch.setattr(cls, "_factor", counting)
        poles = STRATEGIES["extended"].first(None, 40)
        dec = rk_build(op, np.ones(40), poles)
        assert len(dec.poles_used) == 40
        assert calls == [0.0]
        assert not dec._factors  # a finished rk_build basis keeps none

    def test_refused_shift_raises_on_every_use(self):
        for op in self._storages(50)[:4]:
            lam = np.linalg.eigvalsh(op.to_dense())[3]
            dec = RKDecomposition(op, np.ones(50))
            dec.extend([-1.0])
            for _ in range(2):
                with pytest.raises(ValueError, match="near-singular"):
                    dec.extend([lam])
                assert not dec._factors  # dropped before factoring
            dec.extend([-1.0])
            assert [k[0] for k in dec._factors] == [-1.0]
            assert dec.poles_used == [-1.0, -1.0]

    def test_distinct_poles_keep_only_the_last_factor(self, monkeypatch):
        op = toeplitz_tridiagonal(200)
        dec = RKDecomposition(op, np.ones(200))
        factor = TridiagonalOperator._factor

        def checking(self, sigma, block):
            assert not dec._factors  # the old factor is gone first
            return factor(self, sigma, block)

        monkeypatch.setattr(TridiagonalOperator, "_factor", checking)
        for sigma in STRATEGIES["cauchy"].first(op.exact_interval(), 30):
            dec.extend([sigma])
            assert [k[0] for k in dec._factors] == [sigma]
        assert len(dec.poles_used) == 30


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
        # A non-Toeplitz tridiagonal above the limit is refused before any
        # n x n array exists.
        n = DENSE_EIG_LIMIT + 1
        big = TridiagonalOperator(np.arange(1.0, n + 1), np.ones(n - 1))
        with pytest.raises(ValueError, match="exceeds dense"):
            oracle_funv(big, f, np.ones(n))
