import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkstieltjes.experiments import solutions_2d, timed_sweep, with_bounds
from rkstieltjes import kronfun
from rkstieltjes.functions import catalog_function
from rkstieltjes.kronfun import (
    KroneckerProblem,
    KroneckerResult,
    _solve_projected,
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
    DiagonalOperator,
    SpectralInterval,
    TridiagonalOperator,
    from_dense_array,
)
from rkstieltjes.poles import cauchy_kron_poles, laplace_kron_poles, zolotarev_poles
from rkstieltjes.rk import build_together, rk_build
from rkstieltjes.strategies import KRON_PAIRS, mirror


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

    def test_non_finite_value_of_f_is_refused(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([-1.0, -2.0])  # differences 2, 3, 3 and 4
        with pytest.raises(ValueError, match="^f evaluated at eigenvalue "
                                             "difference 4 is not finite$"):
            funm_diag(lambda d: np.where(d > 3.5, np.inf, 1.0), a, b,
                      np.ones((2, 2)))

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

    def test_one_operator_is_enclosed_once(self, monkeypatch):
        # With A = -B on one object the interval is read once; each
        # exact_interval of a band is a run of O(n k^2) band Cholesky
        # factorizations, or an O(n^2 k) eigensolve where those fall back.
        op, other = _tridiag(30), _tridiag(30, scale=2.0)
        want = op.exact_interval()
        calls = []
        for o in (op, other):
            monkeypatch.setattr(o, "exact_interval",
                                lambda o=o, f=o.exact_interval: calls.append(o) or f())
        f = catalog_function("inverse")
        assert kron_problem(op, op, np.ones(30), np.ones(30), f).interval == want
        assert calls == [op]
        calls.clear()
        kron_problem(op, other, np.ones(30), np.ones(30), f)
        assert calls == [op, other]

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


@pytest.mark.parametrize("s", [600, -600])
def test_scaled_spectrum_scales_the_result(s):
    # f(2^s A, A = -B) F = 2^(-s/2) f(A) F for z^-1/2.  At 2^+-600 the
    # basis once overflowed or underflowed its column norms and returned a
    # rank-2 result 0.87 off.
    rng = np.random.default_rng(5)
    d = np.concatenate([np.linspace(1.0, 2.0, 20), np.linspace(50.0, 1000.0, 100)])
    u, w = rng.standard_normal((120, 2)), rng.standard_normal((120, 2))
    f, pair = catalog_function("power", -0.5), KRON_PAIRS["cauchy-kron"]

    def run(c):
        op = DiagonalOperator(c * d)
        prob = kron_problem(op, op, u, w, f)
        return kron_fun(prob, *pair.poles(prob.interval, 12)).materialize()

    base, got = run(1.0), run(2.0 ** s)
    err = np.linalg.norm(got * 2.0 ** (s / 2) - base)
    assert err <= 1e-12 * np.linalg.norm(base)


class _CountingTridiagonal(TridiagonalOperator):
    def __init__(self, d, e):
        super().__init__(d, e)
        self.calls = Counter()

    def matvec(self, x):
        self.calls["matvec"] += 1
        return super().matvec(x)

    def shifted_solve(self, sigma, rhs):
        self.calls["solve"] += 1
        return super().shifted_solve(sigma, rhs)


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


def _one_operator_problem(n=120, seed=31):
    """A = -B on one operator object, the source paper's 2-D setting."""
    op = _tridiag(n)
    rng = np.random.default_rng(seed)
    return kron_problem(op, op, rng.standard_normal((n, 2)),
                        rng.standard_normal((n, 2)),
                        catalog_function("power", -0.5))


def _separate_builds(prob, psi, xi):
    """kron_fun's result from one rk_build per side."""
    dec_u = rk_build(prob.a_op, prob.u_factor, psi)
    dec_v = rk_build(prob.bneg_op, prob.v_factor, [mirror(p) for p in xi])
    return _solve_projected(prob, dec_u, dec_v)


def _assert_same_result(got, want):
    for a, b in ((got.left, want.left), (got.right, want.right),
                 (got.core, want.core)):
        np.testing.assert_array_equal(a, b)
    assert got.poles_left == want.poles_left
    assert got.poles_right == want.poles_right


class TestSharedFactors:
    """With A = -B on one operator and a mirrored pair, both bases take the
    same shifts and factor each once between them."""

    @pytest.mark.parametrize("name", ["laplace-kron", "cauchy-kron",
                                      "eds-laplace", "eds-cauchy", "extended"])
    def test_one_factorization_per_distinct_finite_shift(self, name,
                                                         count_factors):
        prob = _one_operator_problem()
        pair, counts = KRON_PAIRS[name], [3, 7, 12]
        seen = count_factors(prob.a_op)
        psi, xi = pair.poles(prob.interval, 12)
        kron_fun(prob, psi, xi)
        distinct = len({p for p in psi if np.isfinite(p)})
        assert len(seen) == distinct
        # A fresh operator: kron_fun left its last shift cached.
        prob = _one_operator_problem()
        seen = count_factors(prob.a_op)
        list(kron_iterates(prob, pair, counts))
        if pair.nested:  # one basis pair grown through every count
            assert len(seen) == distinct
        else:
            assert len(seen) == sum(len(set(pair.first(prob.interval, c)))
                                    for c in counts)

    @pytest.mark.parametrize("name", list(KRON_PAIRS))
    def test_kron_fun_matches_kron_iterates_for_every_pair(self, name,
                                                           count_factors):
        # The same shifts on both paths: bit-identical results, and as
        # many factorizations on fresh operators.
        pair, ell = KRON_PAIRS[name], 9
        results, factors = [], []
        for solve in (lambda prob: kron_fun(prob, *pair.poles(prob.interval, ell)),
                      lambda prob: list(kron_iterates(prob, pair, [ell]))[-1]):
            prob = _one_operator_problem()
            seen = count_factors(prob.a_op)
            results.append(solve(prob))
            factors.append(len(seen))
        _assert_same_result(*results)
        assert factors[0] == factors[1]
        assert factors[0] == len({p for p in pair.first(prob.interval, ell)
                                  if np.isfinite(p)})

    @pytest.mark.parametrize("name", ["laplace-kron", "eds-cauchy"])
    def test_bit_identical_to_separate_builds(self, name):
        prob = _one_operator_problem()
        psi, xi = KRON_PAIRS[name].poles(prob.interval, 15)
        _assert_same_result(kron_fun(prob, psi, xi),
                            _separate_builds(prob, psi, xi))

    def test_distinct_operator_objects_keep_their_own_caches(self,
                                                             count_factors):
        prob = _one_operator_problem()
        op = prob.a_op
        twin = op.diag_shifted(0.0)
        psi = list(zolotarev_poles(prob.interval, 8))
        seen = count_factors(op, twin)
        apart = build_together([(op, prob.u_factor), (twin, prob.v_factor)],
                               psi)
        assert op._last_factor is not twin._last_factor
        assert op._last_factor[0] == twin._last_factor[0] == psi[-1]
        assert sorted(seen) == sorted((i, p) for i in (0, 1) for p in psi)
        seen.clear()
        shared = build_together([(op, prob.u_factor), (op, prob.v_factor)],
                                psi)
        assert sorted(seen) == sorted((0, p) for p in psi)
        for a, b in zip(apart, shared):
            np.testing.assert_array_equal(a.basis, b.basis)

    def test_unmirrored_pair_on_one_operator_factors_once_per_side(
            self, count_factors):
        # Each side repeats its own shift: -1 on A's basis, -2 on -B's.
        # Interleaved on the one operator, the two would refactor at every
        # step; grown one after the other, each side factors once.
        prob = _one_operator_problem()
        left, right = [-1.0, np.inf] * 4, [2.0, -np.inf] * 4
        seen = count_factors(prob.a_op)
        res = kron_fun(prob, left, right)
        assert seen == [(0, -1.0), (0, -2.0)]
        assert res.poles_left == tuple(left)
        # The right poles as the poles are read: -inf is inf.
        assert res.poles_right == (2.0, np.inf) * 4
        _assert_same_result(res, _separate_builds(prob, left, right))

    def test_negated_list_with_zero_and_infinity_shares_the_factors(
            self, count_factors):
        # The right list is the plain negation of the left one, so -0.0 and
        # -inf stand for the poles 0 and inf: both sides take the left
        # poles in lock-step, and the operator factors 0, -1 and 0 again.
        prob = _one_operator_problem()
        left, right = [0.0, np.inf, -1.0, 0.0], [-0.0, -np.inf, 1.0, 0.0]
        seen = count_factors(prob.a_op)
        res = kron_fun(prob, left, right)
        assert seen == [(0, 0.0), (0, -1.0), (0, 0.0)]
        assert res.poles_right == (0.0, np.inf, 1.0, 0.0)
        _assert_same_result(res, _separate_builds(prob, left, right))

    def test_unequal_lists_are_each_consumed_in_full(self):
        prob = _one_operator_problem()
        psi, xi = laplace_kron_poles(prob.interval, 6)
        for left, right in ((psi[:4], xi), (psi, xi[:3])):
            res = kron_fun(prob, left, right)
            assert res.poles_left == tuple(left)
            assert res.poles_right == tuple(right)
            _assert_same_result(res, _separate_builds(prob, left, right))

    def test_one_side_breaks_down_the_other_keeps_growing(self, count_factors,
                                                           monkeypatch):
        prob = _breakdown_problem()  # one operator; closes after 2 and 3
        psi, xi = cauchy_kron_poles(prob.interval, 5)
        seen = count_factors(prob.a_op)
        res = kron_fun(prob, psi, xi)
        assert res.poles_left == tuple(psi[:2])
        assert res.poles_right == tuple(xi[:3])
        assert [p for _, p in seen] == list(psi[:3])
        monkeypatch.undo()
        _assert_same_result(res, _separate_builds(prob, psi, xi))


def _residual_scale(prob, res):
    """(||A|| + ||B||) ||X|| + ||F||, the size of the residual's terms."""
    a, b = prob.a_op.to_dense(), -prob.bneg_op.to_dense()
    return ((np.linalg.norm(a, 2) + np.linalg.norm(b, 2)) * res.norm2()
            + prob.rhs_norm2())


def _assert_dense_residual(prob, res):
    """The residual against ||A X - X B - F||_2 formed densely."""
    a, b = prob.a_op.to_dense(), -prob.bneg_op.to_dense()
    x = res.materialize()
    f = prob.u_factor @ prob.v_factor.T
    dense = np.linalg.norm(a @ x - x @ b - f, 2)
    scale = _residual_scale(prob, res)
    assert abs(sylvester_residual(prob, res) - dense) <= 1e-13 * scale


def _spy_whole_splits(monkeypatch):
    """A list that records each remainder ``sylvester_residual`` forms:
    True for the whole image AU, False for a sketch of it."""
    whole = []

    def spy(basis, op, sketch, factor):
        whole.append(sketch is None)
        return remainder(basis, op, sketch, factor)

    remainder = kronfun._remainder
    monkeypatch.setattr(kronfun, "_remainder", spy)
    return whole


def _smooth_problem(n, rank):
    """The 1-D Laplacian on both sides, factors sin(j pi x) on a grid of
    [0, 1] with end points, close to its eigenvectors."""
    op = _tridiag(n)
    x = np.linspace(0.0, 1.0, n)[:, None]
    u = np.sin(np.pi * x * np.arange(1, rank + 1))
    return kron_problem(op, op, u, u.copy(), catalog_function("inverse"))


#: Poles added after a pair's own: infinity and the complex poles of
#: ``TestResiduals``'s ``complex`` case.
_EXTRA_POLES = [np.inf, -1.0 + 2.0j, -3.0 - 1.0j, -0.5 + 0.5j, -2.0 + 3.0j]


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

    @pytest.mark.parametrize("case", ["zolotarev", "complex", "breakdown",
                                      "orders"])
    def test_residual_matches_the_dense_reference(self, case):
        # Small problems: X materialized, ||A X - X B - F||_2 formed densely.
        if case == "orders":  # A of order 30, -B of order 40
            rng = np.random.default_rng(14)
            prob = kron_problem(_tridiag(30).diag_shifted(3.0),
                                _tridiag(40).diag_shifted(3.1),
                                rng.standard_normal((30, 2)),
                                rng.standard_normal((40, 2)),
                                catalog_function("inverse"))
        else:
            prob = _make_problem(n=40 if case == "breakdown" else 30, seed=14)
        if case == "complex":
            psi = [-1.0 + 2.0j, -3.0 - 1.0j, np.inf, -0.5 + 0.5j, -2.0 + 3.0j]
        else:
            psi = list(zolotarev_poles(prob.interval,
                                       30 if case == "breakdown" else 6))
        res = kron_fun(prob, psi, [mirror(p) for p in psi])
        if case == "complex":
            assert np.iscomplexobj(res.left) and np.iscomplexobj(res.right)
        if case == "breakdown":
            assert len(res.poles_left) < 30
        _assert_dense_residual(prob, res)

    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("ell", [1, 5, 12])
    @pytest.mark.parametrize("name", list(KRON_PAIRS))
    def test_every_pair_matches_the_dense_reference(self, name, ell, rank):
        prob = _make_problem(n=30, rank=rank, seed=20 + ell)
        res = kron_fun(prob, *KRON_PAIRS[name].poles(prob.interval, ell))
        _assert_dense_residual(prob, res)

    def test_result_built_by_hand_gives_the_same_residual(self):
        # Without the stored projections each side splits its whole image.
        prob = _make_problem(n=40, rank=2, seed=21)
        res = kron_fun(prob, *KRON_PAIRS["cauchy-kron"].poles(prob.interval, 7))
        by_hand = KroneckerResult(res.left, res.right, res.core,
                                  res.poles_left, res.poles_right)
        assert by_hand.projections is None
        got, want = (sylvester_residual(prob, r) for r in (by_hand, res))
        assert abs(got - want) <= 1e-13 * _residual_scale(prob, res)

    @settings(max_examples=40, deadline=None)
    @given(orders=st.tuples(st.integers(5, 40), st.integers(5, 40)),
           gap=st.floats(0.05, 2.0), rank=st.integers(1, 3),
           name=st.sampled_from(list(KRON_PAIRS)), ell=st.integers(1, 12),
           extra=st.lists(st.sampled_from(_EXTRA_POLES), max_size=4),
           seed=st.integers(0, 2 ** 16))
    def test_residual_matches_the_dense_reference_property(
            self, orders, gap, rank, name, ell, extra, seed):
        # A != -B: two orders and shifts; the pair's poles, then infinity
        # and complex poles mirrored onto -B.
        rng = np.random.default_rng(seed)
        na, nb = orders
        prob = kron_problem(_tridiag(na).diag_shifted(3.0),
                            _tridiag(nb).diag_shifted(3.0 + gap),
                            rng.standard_normal((na, rank)),
                            rng.standard_normal((nb, rank)),
                            catalog_function("inverse"))
        psi, xi = KRON_PAIRS[name].poles(prob.interval, ell)
        res = kron_fun(prob, [*psi, *extra], [*xi, *map(mirror, extra)])
        _assert_dense_residual(prob, res)

    @pytest.mark.parametrize("stored", [True, False])
    def test_basis_of_another_space_is_split_whole(self, stored, monkeypatch):
        # An orthonormal basis of the right shape whose span is no rational
        # Krylov space of A: the probe finds A U g outside [U, Q], so the
        # left side splits its whole image and the value stays right.
        prob = _make_problem(n=60, rank=2, seed=22)
        res = kron_fun(prob, *laplace_kron_poles(prob.interval, 5))
        other, _ = np.linalg.qr(np.random.default_rng(23).standard_normal(
            res.left.shape))
        swapped = dataclasses.replace(res, left=other)
        if not stored:
            swapped = dataclasses.replace(swapped, projections=None)
        whole = _spy_whole_splits(monkeypatch)
        _assert_dense_residual(prob, swapped)
        # Left: the sketch, refused by the probe, then the whole image.
        assert whole == ([False, True, False] if stored else [True, True])

    def test_kron_fun_bases_take_the_structured_split(self, monkeypatch):
        prob = _make_problem(n=200, rank=3, seed=24)
        whole = _spy_whole_splits(monkeypatch)
        for pair in KRON_PAIRS.values():
            sylvester_residual(prob, kron_fun(prob, *pair.poles(prob.interval,
                                                                12)))
        assert whole == [False] * 2 * len(KRON_PAIRS)

    @pytest.mark.parametrize("name", list(KRON_PAIRS))
    def test_smooth_factors_match_the_dense_reference(self, name):
        # Near-eigenvectors of A as factors, at ell = 30.
        prob = _smooth_problem(n=400, rank=3)
        res = kron_fun(prob, *KRON_PAIRS[name].poles(prob.interval, 30))
        _assert_dense_residual(prob, res)

    def test_basis_that_lost_orthogonality_is_split_whole(self, monkeypatch):
        # Both bases of a kron_fun result, perturbed by hand until
        # ||U*U - I||_2 reads about 3e-6: the stored U*AU then leaves part
        # of AU in span U, which no n x 3k block can hold.
        prob = _smooth_problem(n=800, rank=3)
        res = kron_fun(prob, *KRON_PAIRS["extended"].poles(prob.interval, 30))
        rng = np.random.default_rng(29)
        res = dataclasses.replace(res, **{
            side: getattr(res, side) + 1e-7 * rng.standard_normal(
                getattr(res, side).shape) for side in ("left", "right")})
        gram = res.left.T @ res.left - np.eye(res.left.shape[1])
        assert np.linalg.norm(gram) > 1e-8
        whole = _spy_whole_splits(monkeypatch)
        _assert_dense_residual(prob, res)
        assert whole == [False, True, False, True]

    def test_residual_memory_is_one_work_block_per_side(self):
        # Stacking [AU Y, U Y, U_F] and its right partner, as a residual
        # of n x (2m + k) blocks does, peaks near twice this budget.
        n = 2000
        prob = _make_problem(n=n, rank=2, seed=19)
        res = kron_fun(prob, *laplace_kron_poles(prob.interval, 25))
        block = n * (res.left.shape[1] + prob.rank) * 8
        tracemalloc.start()
        try:
            sylvester_residual(prob, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * block

    def test_residual_memory_is_a_few_rank_wide_blocks(self):
        # Each side splits with n x k and n x 3k blocks only; a split of
        # the whole image AU held 61 blocks of n x k here.
        n, rank = 2000, 2
        prob = _make_problem(n=n, rank=rank, seed=19)
        res = kron_fun(prob, *laplace_kron_poles(prob.interval, 25))
        tracemalloc.start()
        try:
            sylvester_residual(prob, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * rank * 8

    def test_result_of_another_problem_is_refused(self):
        small, big = _make_problem(n=30, seed=18), _make_problem(n=40, seed=18)
        psi = zolotarev_poles(small.interval, 4)
        res = kron_fun(small, psi, -psi)
        with pytest.raises(ValueError,
                           match=r"result.left has shape \(30, 10\), but A has order 40"):
            sylvester_residual(big, res)
        wide = dataclasses.replace(big, a_op=small.a_op,
                                   u_factor=small.u_factor)
        with pytest.raises(ValueError,
                           match=r"result.right has shape \(30, 10\), but -B has order 40"):
            sylvester_residual(wide, res)
        with pytest.raises(ValueError, match=r"result.core has shape \(10, 9\), "
                                             r"but its factors' widths need \(10, 10\)"):
            sylvester_residual(small, dataclasses.replace(res, core=res.core[:, :-1]))

    def test_projection_of_another_width_is_refused(self):
        prob = _make_problem(n=30, seed=18)
        psi = zolotarev_poles(prob.interval, 4)
        res = kron_fun(prob, psi, -psi)
        a_small, bneg_small = res.projections
        for i, pair, side in ((0, (a_small[:-1, :-1], bneg_small), "left"),
                              (1, (a_small, bneg_small[:, :-1]), "right")):
            with pytest.raises(ValueError, match=rf"result.projections\[{i}\] "
                                                 r"has shape \(\d+, 9\), but "
                                                 rf"result.{side} has width 10"):
                sylvester_residual(prob,
                                   dataclasses.replace(res, projections=pair))
        with pytest.raises(ValueError, match="result.projections must be "
                                             "the pair"):
            sylvester_residual(prob, dataclasses.replace(res,
                                                         projections=(a_small,)))

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


def test_all_lists_every_public_definition():
    import rkstieltjes.kronfun as kf

    own = {name for name, obj in vars(kf).items()
           if not name.startswith("_")
           and getattr(obj, "__module__", None) == kf.__name__}
    assert own == set(kf.__all__)
