import math
from collections import Counter

import numpy as np
import pytest

from rkstieltjes.experiments import solutions_2d, timed_sweep, with_bounds
from rkstieltjes.functions import catalog_function
from rkstieltjes.kronfun import (
    KroneckerProblem,
    dense_kron_solution,
    funm_diag,
    kron_fun,
    kron_iterates,
    kron_problem,
    residual_bound,
    singular_decay_report,
    sylvester_residual,
    sylvester_residual_bound,
)
from rkstieltjes.operators import (
    DENSE_EIG_LIMIT,
    SpectralInterval,
    TridiagonalOperator,
    from_dense_array,
)
from rkstieltjes.poles import cauchy_kron_poles, laplace_kron_poles, zolotarev_poles
from rkstieltjes.strategies import KRON_PAIRS


def _inverse(d):
    return 1.0 / d


def _brute_force(f, a, bneg, fmat):
    """Dense Kronecker-sum oracle: vec convention is Fortran order and the
    difference A X - X B with B = -bneg."""
    na, nb = a.shape[0], bneg.shape[0]
    big = np.kron(np.eye(nb), a) - np.kron((-bneg).T, np.eye(na))
    lam, q = np.linalg.eigh(0.5 * (big + big.T))
    fv = (q * f(lam)) @ q.T
    x = fv @ fmat.reshape(-1, order="F")
    return x.reshape(na, nb, order="F")


class TestFunmDiag:
    def test_diagonal_pair_inverse(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([-1.0, -2.0])
        got = funm_diag(_inverse, a, b, np.ones((2, 2)))
        want = np.array([[1 / 2, 1 / 3], [1 / 3, 1 / 4]])
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_identity_function_returns_rhs(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        a = a + a.T + 6 * np.eye(3)
        b = -(a + 0.5 * np.eye(3))
        fmat = rng.standard_normal((3, 3))
        got = funm_diag(lambda d: np.ones_like(d), a, b, fmat)
        np.testing.assert_allclose(got, fmat, atol=1e-12)

    def test_scalar_case(self):
        got = funm_diag(_inverse, np.array([[3.0]]), np.array([[-2.0]]),
                        np.array([[1.0]]))
        assert got[0, 0] == pytest.approx(1.0 / 5.0)

    def test_general_symmetric_pair(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        a = 0.5 * (a + a.T) + 5 * np.eye(4)
        b = rng.standard_normal((4, 4))
        b = 0.5 * (b + b.T) - 5 * np.eye(4)
        fmat = rng.standard_normal((4, 4))
        got = funm_diag(_inverse, a, b, fmat)
        ref = _brute_force(lambda z: 1.0 / z, a, -b, fmat)
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_complex_hermitian_pair(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.5 * (a + a.conj().T) + 5 * np.eye(3)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = 0.5 * (b + b.conj().T) - 5 * np.eye(3)
        fmat = rng.standard_normal((3, 3))
        got = funm_diag(_inverse, a, b, fmat)
        # Solve the Sylvester system A X - X B = F directly
        import scipy.linalg

        ref = scipy.linalg.solve_sylvester(a, -b, fmat)
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_domain_error_names_difference(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])  # differences go negative
        f = catalog_function("power", -0.5)
        with pytest.raises(ValueError):
            funm_diag(f, a, b, np.ones((2, 2)))


def _tridiag(n, scale=1.0):
    return TridiagonalOperator(np.full(n, 2.0 * scale), np.full(n - 1, -scale))


def _make_problem(n=40, rank=2, seed=0, f=None, shift=3.0):
    # shift pushes the spectrum to [~shift, shift+4], keeping differences
    # positive when B = -A'
    rng = np.random.default_rng(seed)
    d = np.full(n, 2.0 + shift)
    e = np.full(n - 1, -1.0)
    a_op = TridiagonalOperator(d, e)
    bneg_op = TridiagonalOperator(d + 0.1, e)
    u = rng.standard_normal((n, rank))
    w = rng.standard_normal((n, rank))
    f = f or catalog_function("inverse")
    return kron_problem(a_op, bneg_op, u, w, f)


class TestProblemConstruction:
    def test_rank_and_rhs_norm(self):
        prob = _make_problem(rank=3)
        assert prob.rank == 3
        u, w = prob.u_factor, prob.v_factor
        assert prob.rhs_norm2() == pytest.approx(
            np.linalg.norm(u @ w.T, 2), rel=1e-12)

    def test_interval_is_union(self):
        prob = _make_problem()
        import scipy.linalg

        da = prob.a_op.to_dense()
        db = prob.bneg_op.to_dense()
        lo = min(np.linalg.eigvalsh(da).min(), np.linalg.eigvalsh(db).min())
        hi = max(np.linalg.eigvalsh(da).max(), np.linalg.eigvalsh(db).max())
        assert prob.interval.lower == pytest.approx(lo, rel=1e-8)
        assert prob.interval.upper == pytest.approx(hi, rel=1e-8)

    def test_factor_shape_validation(self):
        rng = np.random.default_rng(3)
        a_op = _tridiag(10)
        with pytest.raises(ValueError):
            kron_problem(a_op, a_op, rng.standard_normal((10, 2)),
                         rng.standard_normal((10, 3)),
                         catalog_function("inverse"))
        with pytest.raises(ValueError):
            kron_problem(a_op, _tridiag(12),
                         rng.standard_normal((10, 2)),
                         rng.standard_normal((10, 2)),
                         catalog_function("inverse"))

    @pytest.mark.parametrize("side", ["u_factor", "v_factor"])
    def test_complex_factor_refused(self, side):
        # A cast to float would drop the imaginary part without a word.
        a_op = _tridiag(6)
        factors = {"u_factor": np.ones((6, 1)), "v_factor": np.ones((6, 1))}
        factors[side] = (1 + 1j) * factors[side]
        with pytest.raises(ValueError, match=f"{side} is complex"):
            kron_problem(a_op, a_op, factors["u_factor"],
                         factors["v_factor"], catalog_function("inverse"))

    def test_integer_factors_become_float(self):
        a_op = _tridiag(6)
        prob = kron_problem(a_op, a_op, np.ones(6, dtype=int),
                            [[1]] * 6, catalog_function("inverse"))
        for factor in (prob.u_factor, prob.v_factor):
            assert factor.dtype == np.float64 and factor.shape == (6, 1)

    def test_one_dim_factor_promoted(self):
        rng = np.random.default_rng(4)
        a_op = _tridiag(8, scale=2.0)
        u = rng.standard_normal(8)
        w = rng.standard_normal(8)
        prob = kron_problem(a_op, a_op, u, w, catalog_function("inverse"))
        assert prob.u_factor.shape == (8, 1)
        assert prob.rank == 1


class TestKronFun:
    def test_matches_dense_inverse(self):
        prob = _make_problem(n=25, seed=5)
        psi, xi = laplace_kron_poles(prob.interval, 10)
        res = kron_fun(prob, psi, xi)
        x_lr = res.left @ res.core @ res.right.T
        x_ref = dense_kron_solution(prob)
        assert np.linalg.norm(x_lr - x_ref, 2) <= 1e-8 * np.linalg.norm(x_ref, 2)

    def test_matches_dense_power(self):
        prob = _make_problem(n=25, seed=6, f=catalog_function("power", -0.5))
        psi, xi = cauchy_kron_poles(prob.interval, 12)
        res = kron_fun(prob, psi, xi)
        x_lr = res.left @ res.core @ res.right.T
        x_ref = dense_kron_solution(prob)
        assert np.linalg.norm(x_lr - x_ref, 2) <= 1e-7 * np.linalg.norm(x_ref, 2)

    def test_ell_truncates_pole_sequences(self):
        prob = _make_problem(n=20, seed=7)
        psi, xi = laplace_kron_poles(prob.interval, 8)
        full = kron_fun(prob, psi, xi, ell=5)
        direct = kron_fun(prob, psi[:5], xi[:5])
        np.testing.assert_allclose(full.left @ full.core @ full.right.T,
                                   direct.left @ direct.core @ direct.right.T,
                                   atol=1e-12)
        with pytest.raises(ValueError):
            kron_fun(prob, psi, xi, ell=9)

    def test_storage_is_low_rank(self):
        prob = _make_problem(n=60, rank=2, seed=8)
        psi, xi = laplace_kron_poles(prob.interval, 6)
        res = kron_fun(prob, psi, xi)
        m = res.core.shape[0]
        assert res.left.shape == (60, m)
        assert m <= 2 * (6 + 1)  # block basis: rank * (poles + seed)

    def test_unequal_pole_counts_give_rectangular_core(self):
        # the two projection spaces may have different sizes
        prob = _make_problem(n=20, rank=1, seed=9)
        psi, _ = laplace_kron_poles(prob.interval, 4)
        _, xi = laplace_kron_poles(prob.interval, 6)
        res = kron_fun(prob, psi, xi)
        assert res.core.shape == (5, 7)
        with pytest.raises(ValueError):
            kron_fun(prob, psi, xi, ell=5)  # exceeds the shorter list


class _CountingTridiagonal(TridiagonalOperator):
    def __init__(self, d, e):
        super().__init__(d, e)
        self.calls = Counter()

    def matvec(self, x):
        self.calls["matvec"] += 1
        return super().matvec(x)

    def shifted_solve(self, sigma, rhs, factors=None):
        self.calls["solve"] += 1
        return super().shifted_solve(sigma, rhs, factors)


def _breakdown_problem():
    """n = 3 Toeplitz on both sides: ones(3) spans a two-dimensional
    invariant subspace and e_1 a three-dimensional one, so the left basis
    closes after two poles and the right one after three."""
    op = TridiagonalOperator(np.full(3, 2.0), np.full(2, -1.0))
    return kron_problem(op, op, np.ones(3), np.eye(3)[:, 0],
                        catalog_function("power", -0.5))


def _sweep_problem():
    return _make_problem(n=40, rank=2, seed=15, f=catalog_function("power", -0.5))


class TestKronIterates:
    @pytest.mark.parametrize("name, make, counts", [
        *(pytest.param(name, _sweep_problem, [1, 2, 5, 6, 11], id=name)
          for name in KRON_PAIRS),
        *(pytest.param(name, _breakdown_problem, [1, 2, 5],
                       id=f"breakdown-n3-{name}") for name in KRON_PAIRS),
    ])
    def test_equals_kron_fun_at_every_count(self, name, make, counts):
        prob = make()
        pair = KRON_PAIRS[name]
        results = list(kron_iterates(prob, pair, counts))
        assert len(results) == len(counts)
        for count, res in zip(counts, results):
            ref = kron_fun(prob, *pair.poles(prob.interval, count))
            for got, want in ((res.left, ref.left), (res.right, ref.right),
                              (res.core, ref.core)):
                np.testing.assert_array_equal(got, want)
            assert res.poles_left == ref.poles_left
            assert res.poles_right == ref.poles_right

    @pytest.mark.parametrize("name, step", [("eds-cauchy", "solve"),
                                            ("polynomial", "matvec")])
    def test_nested_pair_takes_one_step_per_pole(self, name, step):
        # Growing both bases: L poles cost L steps per side, plus one
        # projection matvec per block; rebuilding per count cost L(L+1)/2.
        # A polynomial step reuses its block's projection matvec.
        n, last = 60, 12
        a_op = _CountingTridiagonal(np.full(n, 2.0), np.full(n - 1, -1.0))
        bneg_op = _CountingTridiagonal(np.full(n, 2.5), np.full(n - 1, -1.0))
        rng = np.random.default_rng(16)
        prob = kron_problem(a_op, bneg_op, rng.standard_normal(n),
                            rng.standard_normal(n), catalog_function("inverse"))
        for op in (a_op, bneg_op):
            op.calls.clear()
        steps = list(kron_iterates(prob, KRON_PAIRS[name], range(1, last + 1)))
        assert len(steps) == last
        blocks = last + 1
        want = {"solve": Counter(solve=last, matvec=blocks),
                "matvec": Counter(matvec=blocks)}[step]
        for op in (a_op, bneg_op):
            assert op.calls == want

    def test_error_sweep_rows(self):
        # The harness's 2-D curve over kron_iterates, bounds from the pair.
        prob = _make_problem(n=30, seed=17, f=catalog_function("power", -0.5))
        x_ref = dense_kron_solution(prob)
        pair = KRON_PAIRS["cauchy-kron"]
        fnorm = prob.rhs_norm2()
        rows = with_bounds(timed_sweep(solutions_2d(prob, pair, 6), x_ref),
                           pair.bound, prob.f, prob.interval, fnorm)
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5, 6]
        for ell, err, bound in rows:
            x = kron_fun(prob, *pair.poles(prob.interval, ell)).materialize()
            assert err == float(np.linalg.norm(x - x_ref, ord=2))
            assert bound == pair.bound(prob.f, prob.interval, ell, fnorm)
            assert err <= bound

    def test_counts_below_one_raise_at_the_call(self):
        prob = _make_problem(n=10)
        with pytest.raises(ValueError, match=">= 1"):
            kron_iterates(prob, KRON_PAIRS["extended"], [0, 1])
        with pytest.raises(ValueError, match="pole counts must increase"):
            kron_iterates(prob, KRON_PAIRS["extended"], [5, 3])

    def test_results_list_the_poles_each_basis_consumed(self):
        prob = _breakdown_problem()
        for res in (kron_fun(prob, [np.inf] * 5, [np.inf] * 5),
                    list(kron_iterates(prob, KRON_PAIRS["polynomial"],
                                       [5]))[0]):
            assert res.poles_left == (np.inf,) * 2
            assert res.poles_right == (np.inf,) * 3


class TestResiduals:
    def test_residual_small_on_converged_solve(self):
        prob = _make_problem(n=30, seed=10)
        psi = zolotarev_poles(prob.interval, 14)
        xi = -psi
        res = kron_fun(prob, psi, xi)
        r = sylvester_residual(prob, res)
        assert r <= 1e-8 * prob.rhs_norm2()

    def test_residual_decreases_with_ell(self):
        prob = _make_problem(n=30, seed=11)
        psi = zolotarev_poles(prob.interval, 12)
        xi = -psi
        r_small = sylvester_residual(prob, kron_fun(prob, psi, xi, ell=2))
        r_big = sylvester_residual(prob, kron_fun(prob, psi, xi, ell=12))
        assert r_big < r_small * 1e-3

    def test_residual_bound_formula(self):
        iv = SpectralInterval(1.0, 4.0)
        b = sylvester_residual_bound(iv, 5, 2.5)
        from rkstieltjes.poles import rate_rho

        kappa = 4.0
        want = (1.0 + kappa) * 4.0 * rate_rho(1.0, 4.0) ** 5 * 2.5
        assert b == pytest.approx(want, rel=1e-13)

    def test_residual_bound_wrapper(self):
        prob = _make_problem(n=20, seed=12)
        assert residual_bound(prob, 6) == pytest.approx(
            sylvester_residual_bound(prob.interval, 6, prob.rhs_norm2()),
            rel=1e-13)


class TestDenseOracle:
    def test_limit_guard(self):
        # Non-Toeplitz tridiagonals and an explicit interval: the guard
        # refuses before any n x n array exists.
        n = DENSE_EIG_LIMIT + 1
        op = TridiagonalOperator(np.arange(1.0, n + 1), np.full(n - 1, 0.1))
        prob = KroneckerProblem(op, op, np.ones(n), np.ones(n),
                                catalog_function("inverse"),
                                SpectralInterval(0.5, n + 1.0))
        with pytest.raises(ValueError, match=f"order {n} exceeds"):
            dense_kron_solution(prob)

    def test_against_brute_force(self):
        prob = _make_problem(n=6, seed=13, f=catalog_function("phi", 1))
        x = dense_kron_solution(prob)
        ref = _brute_force(catalog_function("phi", 1),
                           prob.a_op.to_dense(),
                           prob.bneg_op.to_dense(),
                           prob.u_factor @ prob.v_factor.T)
        np.testing.assert_allclose(x, ref, rtol=1e-9)


def _svals(prob):
    return np.linalg.svd(dense_kron_solution(prob), compute_uv=False)


class TestSingularDecay:
    def test_report_rows_and_domination(self):
        prob = _make_problem(n=40, seed=14, f=catalog_function("power", -0.5))
        rows = singular_decay_report(prob, [1, 3, 5, 7], _svals(prob))
        assert [r[0] for r in rows] == [1, 3, 5, 7]
        for ell, sigma, bnd in rows:
            assert sigma <= bnd
        sig = [r[1] for r in rows]
        assert sig[-1] < sig[0]
