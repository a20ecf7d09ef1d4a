"""Rational Krylov core: basis invariants, exactness, drivers."""
import math

import numpy as np
import pytest

from rkstieltjes.functions import catalog_function
from rkstieltjes.operators import (
    TridiagonalOperator,
    from_dense_array,
    oracle_funv,
    spectral_interval,
)
from rkstieltjes.poles import extended_poles, zolotarev_poles
from rkstieltjes.rk import (
    RKDecomposition,
    error_sweep,
    exactness_check,
    funv_driver,
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


class TestBasisBuffer:
    @pytest.mark.parametrize("width", [1, 2])
    def test_one_pole_growth_matches_one_shot_build(self, width):
        op = _tridiag_op(120)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(120) if width == 1 else rng.standard_normal((120, width))
        poles = (list(zolotarev_poles((0.05, 4.0), 10)) + [math.inf] * 4) * 2
        whole = rk_build(op, v, poles)
        grown = RKDecomposition(op, v)
        capacities = set()
        for sigma in poles:
            grown.extend([sigma])
            capacities.add(grown._buf.shape[1])
        # 1 -> 29 columns (2 -> 58 for the block) doubles five times
        assert sorted(capacities) == [width * 2 ** k for k in range(1, 6)]
        assert grown.dim == whole.dim == width * (len(poles) + 1)
        u, w = grown.basis, whole.basis
        assert np.linalg.norm(w - u @ (u.T @ w)) <= 1e-12
        np.testing.assert_allclose(grown.reduced_matrix(), whole.reduced_matrix(),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(grown.reduced_seed(), whole.reduced_seed(),
                                   rtol=0, atol=1e-12)

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
    def test_absolute_errors_against_oracle(self):
        op = _tridiag_op(50)
        f = catalog_function("power", -0.5)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(50)
        v /= np.linalg.norm(v)
        iv = spectral_interval(op, mode="exact-small")
        ref = oracle_funv(op, f, v)
        rows = error_sweep(op, f, v, iv, "cauchy", [1, 3, 5, 8], oracle=ref)
        assert [r.ell for r in rows] == [1, 3, 5, 8]
        for r in rows:
            assert r.true_error <= r.bound
        # absolute error convention: ell=1 error is the raw 2-norm distance
        dec_err = rows[0].true_error
        from rkstieltjes.poles import cauchy_poles
        dec = rk_build(op, v, cauchy_poles(iv, 1))
        direct = np.linalg.norm(rk_funv(dec, f) - ref)
        assert dec_err == pytest.approx(direct, rel=1e-12)

    def test_short_custom_list_returns_rows_reached(self):
        op = _tridiag_op(30)
        f = catalog_function("inverse")
        v = np.ones(30)
        iv = spectral_interval(op, mode="exact-small")
        ref = oracle_funv(op, f, v)
        rows = error_sweep(op, f, v, iv, "custom", [1, 2, 5], ref,
                           custom_poles=[-1.0, -2.0])
        assert [r.ell for r in rows] == [1, 2]
        assert all(math.isnan(r.bound) for r in rows)

    @pytest.mark.parametrize("strategy", ["extended", "zolotarev"])
    def test_counts_below_one_rejected(self, strategy):
        op = _tridiag_op(30)
        f = catalog_function("inverse")
        v = np.ones(30)
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError, match="pole counts must be >= 1"):
            error_sweep(op, f, v, iv, strategy, [0, 3], oracle_funv(op, f, v))

    def test_bound_shift_restores_finite_anchor(self):
        # The run stays unshifted; only the bound column is evaluated for
        # f(. + eta) on the left-shifted interval so the anchor is finite.
        op = _tridiag_op(40)
        iv = spectral_interval(op, mode="exact-small")
        f = catalog_function("one_minus_exp_sqrt_over_z")  # f(0+) = inf
        v = np.ones(40) / math.sqrt(40)
        ref = oracle_funv(op, f, v)
        eta = 0.5 * iv.lower
        rows = error_sweep(op, f, v, iv, "zolotarev", [2, 4],
                           oracle=ref, bound_shift=eta)
        for r in rows:
            assert math.isfinite(r.bound)
            assert r.true_error <= r.bound
        plain = error_sweep(op, f, v, iv, "zolotarev", [2, 4], oracle=ref)
        assert all(math.isinf(r.bound) for r in plain)


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
                                          zolotarev_poles(iv, count).poles)
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

    def test_bad_arguments_raise_at_the_call(self):
        op, f, v, iv = self._setup()
        with pytest.raises(ValueError, match="unknown strategy"):
            iterates(op, f, v, "chebyshev", iv, [1])
        with pytest.raises(ValueError, match="non-empty"):
            iterates(op, f, v, "custom", iv, [1])
