"""Rational Krylov core: basis invariants, exactness, drivers."""
import math
import tracemalloc

import numpy as np
import pytest

from rkstieltjes.experiments import (
    emit_bounds,
    solutions_1d,
    timed_sweep,
    with_bounds,
)
from rkstieltjes.functions import catalog_function
from rkstieltjes.kronfun import KroneckerProblem, kron_fun
from rkstieltjes.operators import (
    DiagonalOperator,
    SpectralInterval,
    TridiagonalOperator,
    from_dense_array,
    oracle_funv,
    spectral_interval,
)
from rkstieltjes.poles import (
    cauchy_poles,
    extended_poles,
    polynomial_poles,
    zolotarev_poles,
)
from rkstieltjes.rk import (
    CHUNK_MIN_COLS,
    RKDecomposition,
    exactness_check,
    funv_driver,
    grow,
    iterates,
    rk_build,
    rk_funv,
)
from rkstieltjes.strategies import STRATEGIES


def _tridiag_op(n, scale=1.0):
    d = np.full(n, 2.0 * scale)
    e = np.full(n - 1, -1.0 * scale)
    return TridiagonalOperator(d, e)


def _dense_spd(n, seed, lo=1.0, hi=4.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(lo, hi, n)
    return q @ np.diag(lam) @ q.T, lam


@pytest.fixture
def small_problem():
    a, lam = _dense_spd(30, seed=5)
    op = from_dense_array(0.5 * (a + a.T))
    rng = np.random.default_rng(6)
    v = rng.standard_normal(30)
    return op, v, lam


class TestBasisInvariants:
    def test_orthonormal_columns(self, small_problem):
        op, v, _ = small_problem
        poles = list(zolotarev_poles((1.0, 4.0), 6)) + [math.inf] * 3
        dec = rk_build(op, v, poles)
        u = dec.basis
        m = dec.dim
        assert np.linalg.norm(u.T @ u - np.eye(m), 2) <= m * 1e-12

    def test_dimension_counts_seed(self, small_problem):
        op, v, _ = small_problem
        dec = rk_build(op, v, zolotarev_poles((1.0, 4.0), 5))
        assert dec.dim == 6  # seed + one vector per pole

    def test_seed_in_span(self, small_problem):
        op, v, _ = small_problem
        dec = rk_build(op, v, [-2.0, math.inf, -3.0])
        u = dec.basis
        resid = v - u @ (u.T @ v)
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(v)

    def test_reduced_matrix_symmetric_with_spectrum_inside(self, small_problem):
        op, v, lam = small_problem
        dec = rk_build(op, v, list(zolotarev_poles((1.0, 4.0), 4)) + [math.inf] * 4)
        h = dec.reduced_matrix()
        assert np.linalg.norm(h - h.T, 2) <= 1e-12
        ritz = np.linalg.eigvalsh(h)
        # Rayleigh quotient spectrum is pinched by the exact extremes
        assert ritz.min() >= lam.min() - 1e-10
        assert ritz.max() <= lam.max() + 1e-10

    def test_galerkin_orthogonality_for_inverse(self, small_problem):
        # For f(z) = 1/z the projected solve is a Galerkin method: the
        # residual of A x = v must be orthogonal to the search space.
        op, v, _ = small_problem
        dec = rk_build(op, v, list(zolotarev_poles((1.0, 4.0), 8)))
        x = rk_funv(dec, lambda w: 1.0 / w)
        r = op.matvec(x) - v
        assert np.linalg.norm(dec.basis.T @ r) <= 1e-10 * np.linalg.norm(v)


class _CountingTridiagonal(TridiagonalOperator):
    def __init__(self, d, e):
        super().__init__(d, e)
        self.matvecs = 0

    def matvec(self, x):
        self.matvecs += 1
        return super().matvec(x)


class TestStepCost:
    """A step runs the second Gram-Schmidt pass only when a column loses
    most of its norm, and a polynomial step reuses its block's product."""

    MIXED = [math.inf, 0.0, -0.5, -0.5, -1.0 + 0.5j, -1.0 - 0.5j, math.inf,
             -2.0, 0.0, -2.0, -1.0 + 0.5j] * 4

    @pytest.mark.parametrize("width, poles", [
        (1, extended_poles(200)),
        (2, extended_poles(200)),
        (1, MIXED),
    ], ids=["extended-200", "extended-200-width-2", "mixed-custom"])
    def test_orthonormal_to_1e_13(self, width, poles):
        op = _tridiag_op(2000)
        rng = np.random.default_rng(21)
        v = rng.standard_normal(2000) if width == 1 else rng.standard_normal((2000, width))
        dec = rk_build(op, v, poles)
        assert dec.dim == width * (len(poles) + 1)
        u = dec.basis
        assert np.linalg.norm(u.conj().T @ u - np.eye(dec.dim), 2) <= 1e-13

    def test_one_matvec_per_block(self):
        op = _CountingTridiagonal(np.full(500, 2.0), np.full(499, -1.0))
        v = np.random.default_rng(22).standard_normal(500)
        dec = rk_build(op, v, extended_poles(40))
        assert dec.dim == 41
        assert op.matvecs == 41  # one per block: the 20 polynomial steps add none

    @pytest.mark.parametrize("k", [3, 4, 6])
    @pytest.mark.parametrize("poles", [polynomial_poles(10), extended_poles(10)],
                             ids=["polynomial", "extended"])
    def test_k_distinct_eigenvalues_break_down_at_step_k(self, k, poles):
        op = DiagonalOperator(np.repeat(np.arange(1.0, k + 1), 3))
        dec = rk_build(op, np.arange(1.0, 3 * k + 1), poles)
        assert dec.breakdown
        assert dec.dim == len(dec.poles_used) == k


class TestExtend:
    def test_extend_matches_fresh_build(self, small_problem):
        op, v, _ = small_problem
        all_poles = list(zolotarev_poles((1.0, 4.0), 8))
        whole = rk_build(op, v, all_poles)
        part = rk_build(op, v, all_poles[:3])
        grown = part.extend(all_poles[3:])
        assert grown.dim == whole.dim
        # same space: cross-projector has full singular values
        s = np.linalg.svd(grown.basis.T @ whole.basis, compute_uv=False)
        assert np.all(np.abs(s - 1.0) <= 1e-10)
        hg = grown.reduced_matrix()
        hw = whole.reduced_matrix()
        fg = rk_funv(grown, lambda w: 1.0 / w)
        fw = rk_funv(whole, lambda w: 1.0 / w)
        np.testing.assert_allclose(fg, fw, atol=1e-10)
        assert hg.shape == hw.shape

    def test_extend_zero_poles_is_noop(self, small_problem):
        op, v, _ = small_problem
        dec = rk_build(op, v, [-2.0, -3.0])
        before = dec.basis.copy()
        out = dec.extend([])
        assert out.dim == 3
        np.testing.assert_array_equal(out.basis, before)

    def test_breakdown_caps_dimension(self):
        #3 distinct eigenvalues => Krylov space saturates at dimension 3
        d = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        op = from_dense_array(np.diag(d))
        v = np.ones(7)
        dec = rk_build(op, v, [math.inf] * 6)
        assert dec.dim == 3
        assert dec.breakdown

    def test_extend_after_breakdown_raises(self):
        d = np.array([1.0, 2.0, 3.0])
        op = from_dense_array(np.diag(d))
        dec = rk_build(op, np.ones(3), [math.inf] * 5)
        assert dec.breakdown
        with pytest.raises(RuntimeError):
            dec.extend([-1.0])

    def test_breakdown_is_still_exact(self):
        # saturated space reproduces f(A)v exactly for any f
        d = np.array([1.0, 2.0, 3.0, 1.0, 2.0])
        op = from_dense_array(np.diag(d))
        v = np.arange(1.0, 6.0)
        dec = rk_build(op, v, [math.inf] * 8)
        got = rk_funv(dec, lambda w: 1.0 / np.sqrt(w))
        np.testing.assert_allclose(got, v / np.sqrt(d), rtol=1e-12)


def _grow_one_pole_at_a_time(op, v, poles):
    """A basis grown by one ``extend`` call per pole, and the chunk widths
    seen after each call."""
    dec = RKDecomposition(op, v)
    layouts = []
    for sigma in poles:
        dec.extend([sigma])
        layouts.append(tuple(c.shape[1] for c in dec._chunks))
    return dec, layouts


class TestBasisBuffer:
    # At this order a chunk of CHUNK_BYTES holds fewer than CHUNK_MIN_COLS
    # columns, so the chunk width is CHUNK_MIN_COLS.
    N_CHUNKED = 20000

    @pytest.mark.parametrize("width", [1, 2])
    def test_one_pole_growth_matches_one_shot_build(self, width):
        n = self.N_CHUNKED
        op = _tridiag_op(n)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(n) if width == 1 else rng.standard_normal((n, width))
        poles = (list(zolotarev_poles((0.05, 4.0), 10)) + [math.inf] * 4) * 3
        whole = rk_build(op, v, poles)
        grown, layouts = _grow_one_pole_at_a_time(op, v, poles)
        c = CHUNK_MIN_COLS
        assert grown._chunk_cols == c
        # The first chunk doubles up to the chunk width, then chunks of that
        # width are added: 1 -> 43 columns (2 -> 86 for the block).
        assert grown.dim == whole.dim == width * (len(poles) + 1)
        chunks = -(-grown.dim // c)
        assert sorted(set(layouts)) == sorted(
            {(k,) for k in (2, 4, 8, 16, 32) if k > width}
            | {(c,) * j for j in range(2, chunks + 1)})
        # The one-shot build reserved its whole pole list at once.
        assert [ch.shape[1] for ch in whole._chunks] == [whole.dim]
        u, w = grown.basis, whole.basis
        assert u.flags.f_contiguous
        assert np.linalg.norm(w - u @ (u.T @ w)) <= 1e-12
        np.testing.assert_allclose(grown.reduced_matrix(), whole.reduced_matrix(),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(grown.reduced_seed(), whole.reduced_seed(),
                                   rtol=0, atol=1e-12)
        y = rng.standard_normal((grown.dim, width))
        np.testing.assert_allclose(grown.lift(y), u @ y if width > 1 else u @ y[:, 0],
                                   rtol=0, atol=1e-12)

    def test_filled_chunks_are_never_copied(self):
        n = self.N_CHUNKED
        op = _tridiag_op(n)
        dec = RKDecomposition(op, np.random.default_rng(3).standard_normal(n))
        while len(dec._chunks) < 2:
            dec.extend([math.inf])
        first = dec._chunks[0]
        snapshot = first.copy()
        address = first.__array_interface__["data"][0]
        while len(dec._chunks) < 4:
            dec.extend([math.inf])
        assert dec._chunks[0].__array_interface__["data"][0] == address
        np.testing.assert_array_equal(dec._chunks[0], snapshot)
        np.testing.assert_array_equal(dec.basis[:, :first.shape[1]], snapshot)

    def test_one_shot_builds_are_views(self):
        # A one-shot build past the chunk width is still one array, and
        # both rk_build's basis and the Kronecker bases are views of it.
        n = self.N_CHUNKED
        op = _tridiag_op(n)
        poles = [math.inf] * (CHUNK_MIN_COLS + 8)
        dec = rk_build(op, np.ones(n), poles)
        assert len(dec._chunks) == 1
        assert np.shares_memory(dec.basis, dec._chunks[0])
        prob = KroneckerProblem(op, op, np.ones(n), np.linspace(1.0, 2.0, n),
                                catalog_function("inverse"),
                                SpectralInterval(1e-9, 4.0))
        res = kron_fun(prob, poles, poles)
        for side in (res.left, res.right):
            assert side.shape == (n, len(poles) + 1)
            assert side.base is not None and side.flags.f_contiguous

    def test_pole_at_a_time_peak_is_basis_plus_one_chunk(self):
        n = self.N_CHUNKED
        op = _tridiag_op(n)
        v = np.random.default_rng(5).standard_normal(n)
        tracemalloc.start()
        try:
            dec, _ = _grow_one_pole_at_a_time(op, v, [math.inf] * 70)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dec._chunks) == 3
        assert peak < (dec.dim + CHUNK_MIN_COLS + 4) * n * 8

    def test_growth_after_a_refused_pole(self):
        # The refused extend opened a chunk and wrote nothing into it; the
        # next one must still start from the last block actually written.
        n = self.N_CHUNKED
        op = DiagonalOperator(np.linspace(1.0, 4.0, n))
        v = np.random.default_rng(4).standard_normal(n)
        dec = rk_build(op, v, [math.inf] * (CHUNK_MIN_COLS - 1))
        with pytest.raises(ValueError, match="singular"):
            dec.extend([1.0] + [math.inf] * (CHUNK_MIN_COLS + 8))
        dec.extend([-1.0] * (CHUNK_MIN_COLS + 16))
        ref = rk_build(op, v, [math.inf] * (CHUNK_MIN_COLS - 1))
        ref.extend([-1.0] * (CHUNK_MIN_COLS + 16))
        assert not dec.breakdown
        assert dec.dim == ref.dim == 2 * CHUNK_MIN_COLS + 16
        np.testing.assert_array_equal(dec.basis, ref.basis)

    def test_complex_promotion_after_several_chunks(self):
        n = self.N_CHUNKED
        op = _tridiag_op(n)
        v = np.random.default_rng(9).standard_normal(n)
        real = [math.inf, -0.5] * 20
        dec, _ = _grow_one_pole_at_a_time(op, v, real)
        assert len(dec._chunks) == 2
        before = dec.basis
        dec.extend([-1.0 + 0.5j, -1.0 - 0.5j, math.inf])
        assert all(np.iscomplexobj(c) and c.flags.f_contiguous for c in dec._chunks)
        u = dec.basis
        assert u.flags.f_contiguous
        assert dec.dim == len(real) + 4
        np.testing.assert_array_equal(u[:, :before.shape[1]], before)
        assert np.linalg.norm(u.conj().T @ u - np.eye(dec.dim), 2) <= 1e-12
        whole = rk_build(op, v, real + [-1.0 + 0.5j, -1.0 - 0.5j, math.inf])
        w = whole.basis
        assert np.linalg.norm(w - u @ (u.conj().T @ w)) <= 1e-12

    def test_earlier_basis_unchanged_by_growth(self, small_problem):
        op, v, _ = small_problem
        dec = rk_build(op, v, [-2.0])
        early = dec.basis
        snapshot = early.copy()
        for sigma in [math.inf, -3.0, math.inf, -1.5, math.inf, -0.5]:
            dec.extend([sigma])
        np.testing.assert_array_equal(early, snapshot)
        np.testing.assert_array_equal(dec.basis[:, :early.shape[1]], snapshot)

    def test_complex_promotion_keeps_layout(self, small_problem):
        op, v, _ = small_problem
        dec = rk_build(op, v, [-2.0, math.inf])
        dec.extend([-1.0 + 0.5j, -1.0 - 0.5j, math.inf])
        u = dec.basis
        assert np.iscomplexobj(u)
        assert u.flags.f_contiguous
        assert dec.dim == 6
        assert np.linalg.norm(u.conj().T @ u - np.eye(dec.dim), 2) <= 1e-12


class TestExactness:
    def test_rational_functions_reproduced(self, small_problem):
        op, v, _ = small_problem
        poles = list(zolotarev_poles((1.0, 4.0), 5)) + [math.inf, math.inf]
        rep = exactness_check(op, v, poles)
        assert rep.max_rel_err <= 1e-11, rep.worst()

    def test_report_members_cover_each_pole(self, small_problem):
        op, v, _ = small_problem
        poles = [-1.0, -2.0, math.inf]
        rep = exactness_check(op, v, poles)
        assert len(rep.members) >= len(poles)
        assert all(err >= 0.0 for err in rep.members.values())
        assert isinstance(rep.worst(), str)


class TestDrivers:
    def test_tol_and_ell_are_exclusive(self):
        op = _tridiag_op(50)
        f = catalog_function("inverse")
        v = np.ones(50)
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError):
            funv_driver(op, f, v, iv, tol=1e-6, ell=10)
        with pytest.raises(ValueError):
            funv_driver(op, f, v, iv)

    def test_ell_mode_runs_to_requested_order(self):
        op = _tridiag_op(60)
        f = catalog_function("power", -0.5)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(60)
        v /= np.linalg.norm(v)
        iv = spectral_interval(op, mode="exact-small")
        res = funv_driver(op, f, v, iv, strategy="zolotarev", ell=12)
        assert res.converged
        assert len(res.poles_used) == 12
        ref = oracle_funv(op, f, v)
        assert np.linalg.norm(res.x - ref) <= 1e-5

    def test_tol_mode_meets_oracle(self):
        op = _tridiag_op(80)
        f = catalog_function("phi", 1)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(80)
        v /= np.linalg.norm(v)
        iv = spectral_interval(op, mode="exact-small")
        res = funv_driver(op, f, v, iv, strategy="eds-laplace", tol=1e-7)
        assert res.converged
        ref = oracle_funv(op, f, v)
        rel = np.linalg.norm(res.x - ref) / np.linalg.norm(ref)
        # est_error drives the stop; true error should be in the same regime
        assert rel <= 1e-5

    def test_trace_rows_monotone_ell(self):
        op = _tridiag_op(40)
        f = catalog_function("inverse")
        v = np.ones(40) / math.sqrt(40)
        iv = spectral_interval(op, mode="exact-small")
        res = funv_driver(op, f, v, iv, strategy="extended", tol=1e-8, max_ell=40)
        ells = [row.ell for row in res.trace]
        assert ells == sorted(ells)
        assert res.trace[-1].est_error <= 1e-8

    def test_unconverged_flag(self):
        op = _tridiag_op(60)
        f = catalog_function("power", -0.5)
        v = np.ones(60) / math.sqrt(60)
        iv = spectral_interval(op, mode="exact-small")
        res = funv_driver(op, f, v, iv, strategy="polynomial", tol=1e-14, max_ell=5)
        assert not res.converged

    def test_custom_poles_strategy(self):
        op = _tridiag_op(30)
        f = catalog_function("inverse")
        rng = np.random.default_rng(3)
        v = rng.standard_normal(30)
        iv = spectral_interval(op, mode="exact-small")
        custom = list(zolotarev_poles(iv, 6))
        res = funv_driver(op, f, v, iv, strategy="custom", ell=6,
                          custom_poles=custom)
        assert tuple(res.poles_used) == tuple(custom)
        with pytest.raises(ValueError):
            funv_driver(op, f, v, iv, strategy="custom", ell=6)

    @pytest.mark.parametrize("strategy", ["extended", "eds-cauchy"])
    def test_estimate_equals_lifted_lag2_distance(self, strategy):
        op = _tridiag_op(200)
        f = catalog_function("power", -0.5)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(200)
        iv = spectral_interval(op, mode="exact-small")
        res = funv_driver(op, f, v, iv, strategy=strategy, tol=1e-4, max_ell=60)
        assert res.converged and len(res.trace) >= 4
        xs = [rk_funv(rk_build(op, v, res.poles_used[:row.ell]), f)
              for row in res.trace]
        assert all(math.isinf(row.est_error) for row in res.trace[:2])
        for k in range(2, len(res.trace)):
            want = np.linalg.norm(xs[k] - xs[k - 2]) / np.linalg.norm(xs[k])
            assert res.trace[k].est_error == pytest.approx(want, rel=1e-10)
        np.testing.assert_allclose(res.x, xs[-1], rtol=0,
                                   atol=1e-13 * np.linalg.norm(xs[-1]))

    @pytest.mark.parametrize("strategy", ["extended", "zolotarev"])
    def test_tol_mode_rejects_zero_max_ell(self, strategy):
        op = _tridiag_op(20)
        f = catalog_function("inverse")
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError, match="max_ell"):
            funv_driver(op, f, np.ones(20), iv, strategy=strategy, tol=1e-6,
                        max_ell=0)

    def test_empty_custom_pole_list_rejected(self):
        op = _tridiag_op(20)
        f = catalog_function("inverse")
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError, match="non-empty"):
            funv_driver(op, f, np.ones(20), iv, strategy="custom", tol=1e-6,
                        custom_poles=[])

    def test_ell_mode_short_custom_list_rejected(self):
        op = _tridiag_op(20)
        f = catalog_function("inverse")
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError, match="custom poles"):
            funv_driver(op, f, np.ones(20), iv, strategy="custom", ell=5,
                        custom_poles=[-1.0, -2.0])

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_ell_below_one_rejected(self, strategy):
        op = _tridiag_op(20)
        f = catalog_function("power", -0.5)
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError, match="pole counts must be >= 1"):
            funv_driver(op, f, np.ones(20), iv, strategy=strategy, ell=0,
                        custom_poles=[-1.0])

    def test_unknown_strategy(self):
        op = _tridiag_op(10)
        f = catalog_function("inverse")
        v = np.ones(10)
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError):
            funv_driver(op, f, v, iv, strategy="chebyshev", ell=3)


class TestErrorSweep:
    """The error curve of the experiments and the acceptance suite: the
    harness's ``timed_sweep`` over the lifted ``iterates``, with its bound
    column from ``emit_bounds``."""

    def test_absolute_errors_against_oracle(self):
        op = _tridiag_op(50)
        f = catalog_function("power", -0.5)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(50)
        v /= np.linalg.norm(v)
        iv = spectral_interval(op, mode="exact-small")
        ref = oracle_funv(op, f, v)
        curve = timed_sweep(solutions_1d(op, f, v, iv, "cauchy", 8), ref)
        rows = with_bounds(curve, STRATEGIES["cauchy"].bound, f, iv,
                           np.linalg.norm(v))
        assert [ell for ell, _, _ in rows] == list(range(1, 9))
        for ell, err, bound in rows:
            assert err <= bound
            # absolute error convention: the raw 2-norm distance
            dec = rk_build(op, v, cauchy_poles(iv, ell))
            direct = np.linalg.norm(rk_funv(dec, f) - ref)
            assert err == pytest.approx(direct, rel=1e-12)

    def test_short_custom_list_returns_rows_reached(self):
        op = _tridiag_op(30)
        f = catalog_function("inverse")
        v = np.ones(30)
        iv = spectral_interval(op, mode="exact-small")
        steps = iterates(op, f, v, "custom", iv, [1, 2, 5],
                         custom_poles=[-1.0, -2.0])
        ells = [len(dec.poles_used) for dec, _ in steps]
        assert ells == [1, 2]
        bounds = emit_bounds(STRATEGIES["custom"].bound, f, iv, ells, 1.0)
        assert all(math.isnan(b) for _, b in bounds)

    @pytest.mark.parametrize("strategy", ["extended", "zolotarev"])
    def test_counts_below_one_rejected(self, strategy):
        op = _tridiag_op(30)
        f = catalog_function("inverse")
        v = np.ones(30)
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError, match="pole counts must be >= 1"):
            iterates(op, f, v, strategy, iv, [0, 3])

    def test_bound_shift_restores_finite_anchor(self):
        # The run stays unshifted; only the bound column is evaluated for
        # f(. + eta) on the left-shifted interval so the anchor is finite.
        op = _tridiag_op(40)
        iv = spectral_interval(op, mode="exact-small")
        f = catalog_function("one_minus_exp_sqrt_over_z")  # f(0+) = inf
        v = np.ones(40) / math.sqrt(40)
        ref = oracle_funv(op, f, v)
        eta = 0.5 * iv.lower
        curve = list(timed_sweep(solutions_1d(op, f, v, iv, "zolotarev", 4),
                                 ref))
        bound = STRATEGIES["zolotarev"].bound
        rows = with_bounds(curve, bound, f, iv, np.linalg.norm(v),
                           shift=eta)
        assert [ell for ell, _, _ in rows] == [1, 2, 3, 4]
        for _, err, bnd in rows:
            assert math.isfinite(bnd)
            assert err <= bnd
        with pytest.raises(ValueError, match="anchor f\\(0\\+\\) is infinite"):
            with_bounds(curve, bound, f, iv, 1.0)


class TestIterates:
    def _setup(self):
        op = _tridiag_op(120)
        f = catalog_function("power", -0.5)
        v = np.random.default_rng(9).standard_normal(120)
        return op, f, v, spectral_interval(op, mode="exact-small")

    def test_nested_family_grows_one_basis(self):
        op, f, v, iv = self._setup()
        steps = list(iterates(op, f, v, "eds-cauchy", iv, [1, 3, 4, 9]))
        decs = {id(dec) for dec, _ in steps}
        assert len(decs) == 1
        dec = steps[-1][0]
        assert len(dec.poles_used) == 9
        # Each step took its poles in one extend call off the same stream.
        assert dec.poles_used == STRATEGIES["eds-cauchy"].first(iv, 9)
        _, y = steps[-1]
        np.testing.assert_allclose(dec.lift(y), rk_funv(dec, f), rtol=1e-14)

    def test_rebuilt_family_yields_fresh_bases(self):
        op, f, v, iv = self._setup()
        steps = list(iterates(op, f, v, "zolotarev", iv, [2, 5]))
        assert steps[0][0] is not steps[1][0]
        for (dec, y), count in zip(steps, (2, 5)):
            np.testing.assert_array_equal(dec.poles_used,
                                          zolotarev_poles(iv, count))
            assert y.shape == (count + 1, 1)

    def test_stops_after_breakdown(self):
        d = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        op = from_dense_array(np.diag(d))
        f = catalog_function("inverse")
        seen = []
        for dec, y in iterates(op, f, np.ones(5), "polynomial", (1.0, 3.0),
                               range(1, 10)):
            seen.append((len(dec.poles_used), dec.breakdown))
        # Three distinct eigenvalues: the third pole deflates away.
        assert seen == [(1, False), (2, False), (3, True)]
        np.testing.assert_allclose(dec.lift(y), np.ones(5) / d, rtol=1e-12)

    def test_grow_keeps_extending_unbroken_seeds(self):
        # Polynomial poles close the space of a matrix with three distinct
        # eigenvalues at the third pole; the other seed keeps growing.
        closing = from_dense_array(np.diag([1.0, 1.0, 2.0, 2.0, 3.0]))
        op, _, v, iv = self._setup()
        seen = []
        for small, big in grow(STRATEGIES["polynomial"], iv, range(1, 7),
                               [(closing, np.ones(5)), (op, v)]):
            seen.append((len(small.poles_used), small.breakdown,
                         len(big.poles_used)))
        assert seen == [(1, False, 1), (2, False, 2), (3, True, 3),
                        (3, True, 4), (3, True, 5), (3, True, 6)]
        np.testing.assert_array_equal(big.basis,
                                      rk_build(op, v, [np.inf] * 6).basis)

    def test_bad_arguments_raise_at_the_call(self):
        op, f, v, iv = self._setup()
        with pytest.raises(ValueError, match="unknown strategy"):
            iterates(op, f, v, "chebyshev", iv, [1])
        with pytest.raises(ValueError, match="non-empty"):
            iterates(op, f, v, "custom", iv, [1])
