import copy
import os
import pickle
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla
import scipy.sparse

from rkstieltjes import operators
from rkstieltjes.functions import catalog_function
from rkstieltjes.rk import RKDecomposition, funv_driver, rk_build
from rkstieltjes.strategies import STRATEGIES
from rkstieltjes.operators import (
    DENSE_EIG_LIMIT,
    BandedOperator,
    DenseOperator,
    DiagonalOperator,
    HermitianOperator,
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

    @staticmethod
    def _solve_and_rule(monkeypatch, op, sigma, b):
        """(solution, pivots, rcond): what the shift rule was given on the
        rcond route, with the dominance skip forced off; the solution is
        the same bit for bit with the skip allowed."""
        seen = []
        rule = operators._require_regular

        def spy(shift, pivots, rcond=1.0):
            seen.append((pivots, rcond))
            return rule(shift, pivots, rcond)

        skipping = copy.copy(op).shifted_solve(sigma, b)  # its own factor
        monkeypatch.setattr(operators, "_require_regular", spy)
        norm = HermitianOperator._shifted_norm
        monkeypatch.setattr(HermitianOperator, "_shifted_norm",
                            lambda op, d, sigma: (*norm(op, d, sigma)[:2], False))
        x = op.shifted_solve(sigma, b)
        np.testing.assert_allclose(
            x, np.linalg.solve(op.to_dense() - sigma * np.eye(op.n), b),
            rtol=1e-12)
        assert x.tobytes() == skipping.tobytes()
        [(pivots, rcond)] = seen
        return x, pivots, rcond

    def test_spd_shift_gets_exact_rcond_where_lu_pivots(self, monkeypatch):
        # Partial pivoting swaps the first two rows (|e_1| > |d_1|), so the
        # LU is no L D L^T, yet A = L D L^T with D = I is SPD.
        d, e = np.array([1.0, 5.0, 5.0]), np.array([2.0, 2.0])
        ipiv = sla.lapack.dgttrf(e, d, e)[4]
        assert not np.array_equal(ipiv, [1, 2, 3])
        op = TridiagonalOperator(d, e)
        a = op.to_dense()
        exact = 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1))
        _, pivots, rcond = self._solve_and_rule(monkeypatch, op, 0.0, np.ones(3))
        np.testing.assert_array_equal(pivots, [1.0, 1.0, 1.0])
        assert rcond == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("sigma, dtype", [
        (2.5, float),                # inside the spectrum: indefinite
        (complex(-1.0, 0.5), float),
        (-1.0, complex),             # real sigma, complex block: L D L^T
    ])
    def test_pivoted_lu_fallback(self, monkeypatch, sigma, dtype):
        rng = np.random.default_rng(3)
        op = TridiagonalOperator(rng.uniform(2.0, 4.0, 20),
                                 rng.uniform(-0.8, 0.8, 19))
        b = rng.standard_normal((20, 2)).astype(dtype)
        if dtype is complex:
            b += 1j * rng.standard_normal((20, 2))
        x, pivots, _ = self._solve_and_rule(monkeypatch, op, sigma, b)
        assert x.dtype == np.result_type(b, sigma)
        if dtype is complex:
            # A real sigma left of the spectrum takes L D L^T for a complex
            # block too: a positive real D, one real solve of [Re B, Im B].
            assert np.isrealobj(pivots) and pivots.min() > 0.0
            for part, want in ((x.real, b.real), (x.imag, b.imag)):
                assert part.tobytes() == op.shifted_solve(sigma, want).tobytes()
            return
        # The L D L^T route hands the rule a positive real D.
        assert np.iscomplexobj(pivots) or pivots.min() < 0.0
        # The fallback is the band LU of the same matrix, bit for bit.
        band = BandedOperator([op.d, np.append(op.e, 0.0)])
        assert x.tobytes() == band.shifted_solve(sigma, b).tobytes()

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
        from_dense_array(_spd_band(10, 3)),
    ]
    for op in ops:
        shifted = op.diag_shifted(-0.5)
        assert type(shifted) is type(op)
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
    with pytest.raises(ValueError,
                       match="^unknown spectral interval mode 'exact'$"):
        spectral_interval(op, mode="exact")


@pytest.mark.parametrize("op", [
    pytest.param(DiagonalOperator([3.0, -1.0, 2.0, 0.5, 2.0]), id="diagonal"),
    pytest.param(TridiagonalOperator([4.0, 1.0, 3.0, 2.5, 5.0],
                                     [0.5, -1.0, 0.25, 2.0]), id="tridiagonal"),
])
def test_dense_eig_matches_eigh_of_the_dense_matrix(op):
    # Diagonal and tridiagonal storage decompose without a dense copy.
    dense = op.to_dense()
    w, q = op.dense_eig()
    np.testing.assert_allclose(w, np.linalg.eigh(dense)[0], rtol=1e-14,
                               atol=1e-14)
    np.testing.assert_allclose(q.T @ q, np.eye(op.n), atol=1e-14)
    np.testing.assert_allclose(dense @ q, q * w, atol=1e-13)


def test_from_dense_array_chooses_storage():
    assert isinstance(from_dense_array(np.diag([1.0, 2.0])), DiagonalOperator)
    tri = np.diag([2.0, 2, 2]) + np.diag([-1.0, -1], 1) + np.diag([-1.0, -1], -1)
    assert isinstance(from_dense_array(tri), TridiagonalOperator)
    full = np.ones((3, 3)) + np.eye(3) * 3
    assert isinstance(from_dense_array(full), DenseOperator)
    with pytest.raises(ValueError):
        from_dense_array(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError,
                       match=re.escape("expected a square matrix, got (2, 3)")):
        from_dense_array(np.ones((2, 3)))


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


def test_stored_matrix_is_read_only():
    # A cached factorization is valid only while the matrix stays as it was.
    a = _spd_band(6, 2)
    for op in (DenseOperator(a), from_dense_array(a)):
        stored = op.a if isinstance(op, DenseOperator) else op.ab
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 1.0
        dense = op.to_dense()
        dense[0, 0] = 1.0  # a writable copy
        np.testing.assert_array_equal(op.to_dense(), a)
        shifted = op.diag_shifted(1.0)
        assert type(shifted) is type(op) and shifted is not op
        np.testing.assert_array_equal(shifted.to_dense(), a + np.eye(6))


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


def _peak_bytes(call) -> int:
    """The peak of what ``call()`` allocates, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFactorMemory:
    """Every factorization works in place: a fresh shifted solve peaks
    near its one factor array, where a C-ordered array and the Fortran
    copy LAPACK needs of it peak near twice that.  The band is the
    five-point Laplacian of a 32 x 32 grid (n = 1024, k = 32)."""

    M = 32
    N = M * M

    def _laplacian(self, flip=False):
        # With the outer band's sign flipped the matrix is similar to the
        # Laplacian (by diag of +-1 per grid row) but no Z-matrix.
        op = from_dense_array(_laplacian_2d(self.M).toarray())
        return BandedOperator([*op.ab[:-1], -op.ab[-1]]) if flip else op

    @pytest.mark.parametrize("flip, sigma", [(True, -0.5), (False, 0.3 + 0.1j)],
                             ids=["not-a-z-band", "complex-shift"])
    def test_band_lu_peaks_near_one_lu_array(self, flip, sigma):
        op, b = self._laplacian(flip), np.ones(self.N)
        assert op.k == self.M
        itemsize = np.dtype(np.result_type(float, sigma)).itemsize
        peak = _peak_bytes(lambda: op.shifted_solve(sigma, b))
        assert peak < 1.25 * (3 * op.k + 1) * op.n * itemsize

    @pytest.mark.parametrize("sigma", [0.0, -0.5])
    def test_z_band_cholesky_peaks_near_one_band(self, sigma):
        # The factor, (k + 1) x n, and a few n-vectors: the shifted
        # diagonal, the pivots, the rcond's solve and the solution.
        op, b = self._laplacian(), np.ones(self.N)
        peak = _peak_bytes(lambda: op.shifted_solve(sigma, b))
        assert peak < 1.25 * (op.k + 1) * op.n * 8 + 16 * op.n * 8

    NARROW_N = 100_000

    def _narrow_z_band(self):
        """A Laplacian-like Z-band with k = 2, where the O(n) temporaries
        weigh as much as the factor, 3n numbers."""
        n = self.NARROW_N
        return BandedOperator([np.full(n, 2.5), np.full(n, -1.0),
                               np.full(n, -0.25)])

    @pytest.mark.parametrize("sigma, vectors", [(0.0, 2), (-0.5, 1)])
    def test_narrow_z_band_holds_few_vectors_beside_its_factor(self, sigma,
                                                              vectors):
        # Beside the factor a fresh solve holds the solution and, where
        # the rcond runs (sigma = 0 on this Laplacian-like band), the
        # pivots and the rcond's own vector: the shifted diagonal, the
        # passes over |d|, a copy of |pivots| and the rcond's right-hand
        # side used to peak at 7n.
        op, b = self._narrow_z_band(), np.ones(self.NARROW_N)
        assert op._z_band
        peak = _peak_bytes(lambda: op.shifted_solve(sigma, b))
        assert peak < (op.k + 1 + vectors + 0.25) * op.n * 8

    def test_narrow_band_interval_holds_two_vectors_beside_a_factor(self):
        # Beside the one factor, the band's shifted diagonal or the two
        # inverse-iteration vectors; with the last step's vectors kept into
        # the next factorization it peaked at 8n.
        op = self._narrow_z_band()
        peak = _peak_bytes(op.exact_interval)
        assert peak < (op.k + 1 + 2.25) * op.n * 8

    def test_band_interval_keeps_one_factor_alive(self):
        # Both ends bracket A and -A without a negated copy of the band.
        op = self._laplacian()
        peak = _peak_bytes(op.exact_interval)
        assert peak < 1.25 * (op.k + 1) * op.n * 8 + 16 * op.n * 8

    @pytest.mark.parametrize("sigma", [-0.5, complex(1.0, 0.5)])
    def test_dense_lu_peaks_near_one_matrix(self, sigma):
        n = 400
        op = DenseOperator(_spd_band(n, n - 1, seed=4))
        itemsize = np.dtype(np.result_type(float, sigma)).itemsize
        peak = _peak_bytes(lambda: op.shifted_solve(sigma, np.ones(n)))
        assert peak < 1.25 * n * n * itemsize


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


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600],
                         ids=["2^600", "2^-600"])
def test_symmetry_rule_holds_at_both_ends_of_the_float_range(scale):
    # Unscaled, both norms overflow (2^600) or underflow to 0 (2^-600),
    # and the skewed matrix passed as symmetric.
    skewed = scale * np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    for make in (DenseOperator, from_dense_array):
        with pytest.raises(ValueError, match="not symmetric"):
            make(skewed)
    symmetric = scale * toeplitz_tridiagonal(3).to_dense()
    assert isinstance(DenseOperator(symmetric), DenseOperator)
    assert isinstance(from_dense_array(symmetric), TridiagonalOperator)


def test_picker_refuses_silent_densification(tmp_path):
    path = str(tmp_path / "m.mtx")

    def load(m):
        scipy.io.mmwrite(path, m)
        return load_matrix(path)

    n = DENSE_EIG_LIMIT + 1
    # Corner entries make the bandwidth n - 1, too wide for band storage.
    wide = scipy.sparse.diags([np.full(n, 4.0)], [0], format="lil")
    wide[0, n - 1] = wide[n - 1, 0] = -1.0
    with pytest.raises(ValueError, match=rf"order {n} with bandwidth {n - 1} "
                       r"would need dense storage, refused above order"):
        load(wide)
    # A narrow band above the order cap is stored as a band.
    band = [np.full(n - abs(k), -1.0 if k else 4.0) for k in range(-2, 3)]
    op = load(scipy.sparse.diags(band, list(range(-2, 3))))
    assert type(op) is BandedOperator and op.k == 2


def test_load_plain_text_diagonal(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1.5\n2.5\n3.5\n")
    op = load_matrix(str(path))
    assert isinstance(op, DiagonalOperator)
    np.testing.assert_array_equal(op.d, [1.5, 2.5, 3.5])


@pytest.mark.parametrize("name, text, message", [
    ("d.txt", "1\nabc\n", "could not convert string 'abc' to float64"),
    ("a.mtx", "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n"
              "1 1 abc\n2 2 1\n", "Invalid floating-point value"),
])
def test_load_matrix_names_a_file_it_cannot_parse(tmp_path, name, text,
                                                  message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*"
                       + re.escape(message)):
        load_matrix(str(path))


class TestShiftRule:
    """One near-singular rule and one dtype rule for the four storages."""

    def _storages(self, op):
        return [op, DenseOperator(op.to_dense()),
                DiagonalOperator(np.linalg.eigvalsh(op.to_dense())),
                BandedOperator([op.d, np.append(op.e, 0.0)])]

    def test_the_rule_has_one_home(self):
        # Only the base class decides on a shift; every storage only
        # factors, so no storage can fork the rule.
        classes = [c for c in vars(operators).values()
                   if isinstance(c, type) and c.__module__ == operators.__name__]
        storages = [c for c in classes if issubclass(c, HermitianOperator)
                    and c is not HermitianOperator]
        assert set(storages) == {DenseOperator, BandedOperator,
                                 DiagonalOperator, TridiagonalOperator}
        for cls in classes:
            if cls is not HermitianOperator:
                assert not {"_factor", "_shifted_norm", "_norm",
                            "gershgorin"} & vars(cls).keys(), cls
        for cls in storages:
            assert "_decompose" in vars(cls), cls

    def test_eigenvalue_shift_refused_by_every_storage(self):
        op = toeplitz_tridiagonal(50)
        lam = np.linalg.eigvalsh(op.to_dense())[3]
        for storage in self._storages(op):
            for sigma in (lam, lam * (1 + 1e-13)):
                with pytest.raises(ValueError, match="near-singular"):
                    storage.shifted_solve(sigma, np.ones(50))

    @pytest.mark.parametrize("d, e", [(0.0, 1.0), (2.0, -1.0)])
    def test_rule_holds_at_the_bottom_of_the_float_range(self, d, e):
        # t * tridiag(e, d, e) of order 8, indefinite (pivoted LU) or SPD
        # (L D L^T), with t the smallest normal float: its inverse, with
        # entries up to 10 / t, is near or past overflow, where unscaled
        # condition numbers read 0 and the shift would be refused.
        t, n = np.finfo(float).tiny, 8
        unit = TridiagonalOperator(np.full(n, d), np.full(n - 1, e))
        op = TridiagonalOperator(t * unit.d, t * unit.e)
        b = np.full(n, 2.0 ** -8)
        want = unit.shifted_solve(0.0, b)
        for storage in (op, DenseOperator(op.to_dense()),
                        BandedOperator([op.d, np.append(op.e, 0.0)])):
            np.testing.assert_allclose(storage.shifted_solve(0.0, b) * t,
                                       want, rtol=1e-13)

    def test_tiny_scale_is_not_singular(self):
        op = DiagonalOperator([1e-20, 2e-20, 3e-20])
        np.testing.assert_allclose(op.shifted_solve(-1e-20, np.ones(3)),
                                   [5e19, 1e20 / 3, 2.5e19], rtol=1e-15)

    def test_overflowing_scaled_solve_names_the_shift(self):
        # A subnormal band passes the shift rule, which is scale invariant
        # only down to the smallest normal float, but its solution lies
        # beyond the float range: the scaled solve refuses it by name.
        unit = BandedOperator([[3, 3, 3, 3], [1, 1, 1, 0], [0.5, 0.5, 0, 0]])
        t = 2.0 ** -1070  # every entry below is a subnormal held exactly
        band, sigma = BandedOperator(t * unit.ab), -0.5 * t
        for op in (band, DenseOperator(band.to_dense())):
            with pytest.raises(ValueError, match=re.escape(f"sigma={sigma}")):
                op.shifted_solve(sigma, np.ones(4))
        # A right-hand side that keeps the solution in range still solves.
        np.testing.assert_allclose(band.shifted_solve(sigma, np.full(4, 2.0 ** -1000)),
                                   2.0 ** 70 * unit.shifted_solve(-0.5, np.ones(4)),
                                   rtol=1e-13)
        # An unscaled solve is returned as it is: no check, no wrapper.
        solve = np.negative
        assert operators._times(1.0, solve, sigma) is solve

    def test_subnormal_right_hand_side_solves_to_full_precision(self):
        # Operator, shift and right-hand side are all subnormal, held
        # exactly; the answer is that of the unit problem.  A scaled solve
        # against the unscaled right-hand side put a subnormal through the
        # triangular solves, 8.1% off in the second entry.
        unit = BandedOperator([[3, 3, 3, 3], [1, 1, 1, 0], [0.5, 0.5, 0, 0]])
        t = 2.0 ** -1070
        band = BandedOperator(t * unit.ab)
        want = unit.shifted_solve(-0.5, np.ones(4))
        for op in (band, DenseOperator(band.to_dense())):
            np.testing.assert_allclose(op.shifted_solve(-0.5 * t, np.full(4, t)),
                                       want, rtol=1e-14)

    def test_large_operator_solves_to_full_precision(self):
        # The other end of the range: the solution is scaled, not the
        # right-hand side, which stays normal down to its smallest entry.
        unit = BandedOperator([[3, 3, 3, 3], [1, 1, 1, 0], [0.5, 0.5, 0, 0]])
        t = 2.0 ** 400
        band = BandedOperator(t * unit.ab)
        b = np.full(4, 2.0 ** -700)
        want = unit.shifted_solve(-0.5, b) / t
        for op in (band, DenseOperator(band.to_dense())):
            np.testing.assert_allclose(op.shifted_solve(-0.5 * t, b), want,
                                       rtol=1e-14)

    def test_ldlt_and_diagonal_solves_at_the_bottom_of_the_range(self):
        # The tridiagonal L D L^T and the diagonal routes factor
        # c (A - sigma*I) like the band: a subnormal SPD operator solves to
        # the unit problem's answer, where the unscaled L D L^T was 6% off,
        # and a solution beyond the float range is refused by name, where
        # they returned nan and inf.
        t = 2.0 ** -1070
        unit = TridiagonalOperator(np.full(4, 3.0), np.ones(3))
        tri = TridiagonalOperator(t * unit.d, t * unit.e)
        diag = DiagonalOperator(t * unit.d)
        sigma = -0.5 * t
        np.testing.assert_allclose(tri.shifted_solve(sigma, np.full(4, t)),
                                   unit.shifted_solve(-0.5, np.ones(4)),
                                   rtol=1e-14)
        np.testing.assert_allclose(diag.shifted_solve(sigma, np.full(4, t)),
                                   np.full(4, 1.0 / 3.5), rtol=1e-15)
        for op in (tri, diag):
            with pytest.raises(ValueError, match=re.escape(f"sigma={sigma}")):
                op.shifted_solve(sigma, np.ones(4))

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


_ZERO_WIDTH_PROBE = textwrap.dedent("""
    import numpy as np
    from rkstieltjes.operators import (BandedOperator, DenseOperator,
        DiagonalOperator, toeplitz_tridiagonal)
    ops = [toeplitz_tridiagonal(40), toeplitz_tridiagonal(2),
           DenseOperator(toeplitz_tridiagonal(5).to_dense()),
           DiagonalOperator(np.arange(1.0, 6.0)),
           BandedOperator([np.full(9, 4.0), np.full(9, -1.0), np.full(9, 0.5)]),
           BandedOperator([np.full(9, 4.0), np.full(9, -1.0), np.full(9, -0.5)])]
    for _ in range(50):
        for op in ops:
            for sigma in (-1.0, complex(-1.0, 0.5)):
                for dtype in (float, complex):
                    for _ in range(2):  # a fresh factorization, then a hit
                        out = op.shifted_solve(sigma, np.ones((op.n, 0), dtype))
                        assert out.shape == (op.n, 0), out.shape
                        assert out.dtype == np.result_type(dtype, sigma)
    lam = np.linalg.eigvalsh(ops[0].to_dense())[3]
    for _ in range(2):
        try:
            ops[0].shifted_solve(lam, np.ones((40, 0)))
        except ValueError as exc:
            assert "near-singular" in str(exc)
        else:
            raise AssertionError("a refused shift solved a zero-width block")
    print("ok")
""")


@pytest.mark.parametrize("sigma", [-1.0, complex(-1.0, 0.5)])
def test_zero_width_block_is_an_empty_result(sigma):
    # In this process too: the (n, 0) result has the solve's dtype, and a
    # refused shift still raises.
    op = toeplitz_tridiagonal(6)
    for dtype in (float, complex):
        out = op.shifted_solve(sigma, np.ones((6, 0), dtype))
        assert out.shape == (6, 0)
        assert out.dtype == np.result_type(dtype, sigma)
    with pytest.raises(ValueError, match="near-singular"):
        op.shifted_solve(np.linalg.eigvalsh(op.to_dense())[2], np.ones((6, 0)))


def test_zero_width_block_never_reaches_lapack():
    # A zero-width block returns an (n, 0) result without a LAPACK call:
    # LAPACK solves on an empty right-hand side have corrupted the heap,
    # and glibc with MALLOC_CHECK_=3 turns such corruption into an abort,
    # which a fresh interpreter reports here instead of killing pytest.
    env = dict(os.environ, MALLOC_CHECK_="3")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _ZERO_WIDTH_PROBE], env=env,
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "ok\n"), out.stderr


class TestFactorCache:
    """Each operator keeps its last factorization, across calls, and a hit
    repeats the fresh solve bit for bit."""

    def _storages(self, n=12):
        op = toeplitz_tridiagonal(n)
        return [op, DenseOperator(op.to_dense()),
                DiagonalOperator(np.linspace(0.5, 3.5, n)),
                from_dense_array(_spd_band(n, 3)),
                toeplitz_tridiagonal(2)]  # order 2: the smallest L D L^T

    def test_cached_solve_equals_fresh_solve(self):
        rng = np.random.default_rng(5)
        for op in self._storages():
            real = rng.standard_normal((op.n, 3))
            rhs = [real[:, 0], real, real + 1j * rng.standard_normal((op.n, 3))]
            for sigma in (-0.5, complex(1.0, 0.5), -0.5):
                for b in rhs:
                    fresh = copy.copy(op).shifted_solve(sigma, b)
                    for _ in range(2):  # the second call is a hit
                        got = op.shifted_solve(sigma, b)
                        assert got.shape == b.shape
                        np.testing.assert_array_equal(got, fresh)
                    assert op._last_factor[0] == sigma

    def test_negative_zero_is_the_shift_zero(self, count_factors):
        # With -0.0 on the diagonal, A - 0.0*I and A + 0.0*I differ in the
        # sign of a zero; -0.0 is read as the pole 0.0, so both zero shifts
        # share one factorization and every solve is a fresh one's.
        op = DenseOperator([[-0.0, 1.0, 0.0], [1.0, -0.0, 1.0], [0.0, 1.0, 3.0]])
        b = -np.eye(3)[:, 1]
        fresh = copy.copy(op).shifted_solve(0.0, b).tobytes()
        seen = count_factors(op)
        for sigma in (0.0, -0.0, 0.0, complex(-0.0, 0.0)):
            assert op.shifted_solve(sigma, b).tobytes() == fresh
        assert seen == [(0, 0.0)]
        assert repr(op._last_factor[0]) == "0.0"

    @pytest.mark.parametrize("storage", range(4))
    def test_extended_build_factors_once(self, storage, count_factors):
        op = self._storages(40)[storage]
        seen = count_factors(op)
        poles = STRATEGIES["extended"].first(None, 40)
        for _ in range(2):  # the second build reuses the operator's factor
            dec = rk_build(op, np.ones(40), poles)
            assert len(dec.poles_used) == 40
        assert seen == [(0, 0.0)]
        assert op._last_factor[0] == 0.0  # the one factorization alive

    def test_extended_driver_calls_factor_once_per_operator(self,
                                                            count_factors):
        # Extended Krylov's only finite shift, sigma = 0, is factored at
        # the first call; each later call on the operator reuses it.
        op = from_dense_array(_laplacian_2d(10).toarray())
        assert type(op) is BandedOperator
        f, iv = catalog_function("power", -0.5), op.exact_interval()
        rng = np.random.default_rng(11)
        seen = count_factors(op)
        for _ in range(4):
            res = funv_driver(op, f, rng.standard_normal(op.n), iv,
                              strategy="extended", tol=1e-6)
            assert res.converged and 0.0 in res.poles_used
        assert seen == [(0, 0.0)]

    def test_refused_shift_raises_on_every_use(self):
        for op in self._storages(50)[:4]:
            lam = np.linalg.eigvalsh(op.to_dense())[3]
            dec = RKDecomposition(op, np.ones(50))
            dec.extend([-1.0])
            for _ in range(2):
                with pytest.raises(ValueError, match="near-singular"):
                    dec.extend([lam])
                assert op._last_factor is None  # dropped, and never stored
                with pytest.raises(ValueError, match="near-singular"):
                    op.shifted_solve(lam, np.ones(50))
                assert op._last_factor is None
            dec.extend([-1.0])
            assert op._last_factor[0] == -1.0
            assert dec.poles_used == [-1.0, -1.0]

    def test_distinct_poles_keep_only_the_last_factor(self, count_factors):
        op = toeplitz_tridiagonal(200)
        dec = RKDecomposition(op, np.ones(200))
        seen = count_factors(op)  # checks the old factor is gone first
        poles = STRATEGIES["cauchy"].first(op.exact_interval(), 30)
        for sigma in poles:
            dec.extend([sigma])
            assert op._last_factor[0] == sigma
        assert len(dec.poles_used) == 30
        assert [s for _, s in seen] == list(poles)

    def test_threads_share_an_operator(self):
        # Four threads, more than the cores, alternate two shifts on one
        # operator with a short switch interval, so calls miss and replace
        # the entry another thread just stored; every result equals a
        # serial solve on a fresh copy, bit for bit.
        op = from_dense_array(_spd_band(300, 4))
        rng = np.random.default_rng(13)
        rhs = [rng.standard_normal((op.n, 2)) for _ in range(2)]
        shifts = (-0.5, -2.0)
        want = {(s, i): copy.copy(op).shifted_solve(s, b).tobytes()
                for s in shifts for i, b in enumerate(rhs)}
        done, bad = [], []

        def work(i):
            for j in range(100):
                s = shifts[(i + j) % 2]
                if op.shifted_solve(s, rhs[i % 2]).tobytes() != want[s, i % 2]:
                    bad.append((i, j))
            done.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [0, 1, 2, 3] and not bad

    def test_pickle_and_deepcopy_after_a_cached_solve(self):
        for op in self._storages():
            b = np.linspace(1.0, 2.0, op.n)
            x = op.shifted_solve(-0.5, b)
            assert op._last_factor is not None
            for back in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op)):
                assert back._last_factor is None  # the entry stays behind
                assert type(back) is type(op)
                stored = back.a if isinstance(back, DenseOperator) else back.ab
                assert not stored.flags.writeable
                assert back.shifted_solve(-0.5, b).tobytes() == x.tobytes()


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
