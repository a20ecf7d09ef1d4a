"""Rational Krylov core: basis invariants, exactness, drivers."""
import dataclasses
import functools
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkstieltjes import rk
from rkstieltjes.experiments import (
    _eig_fixtures,
    diffusion_operator,
    emit_bounds,
    fixture_1d,
    solutions_1d,
    timed_sweep,
    with_bounds,
)
from rkstieltjes.functions import catalog_function
from rkstieltjes.kronfun import KroneckerProblem, kron_fun
from rkstieltjes.operators import (
    BandedOperator,
    DenseOperator,
    DiagonalOperator,
    SpectralInterval,
    TridiagonalOperator,
    from_dense_array,
    oracle_funv,
    spectral_interval,
)
from rkstieltjes.poles import cauchy_poles, zolotarev_poles
from rkstieltjes.rk import (
    CHECKPOINT_STRIDE,
    CHUNK_MIN_COLS,
    STOP_REASONS,
    DEFLATION_TOL,
    RKDecomposition,
    build_together,
    exactness_check,
    funv_driver,
    grow,
    iterates,
    rk_build,
    rk_funv,
)
from rkstieltjes.strategies import STRATEGIES, get_strategy

# The table's names and "custom", which the tests below run as a pole list.
STRATEGY_NAMES = [*STRATEGIES, "custom"]


def _first(name, ell, iv=None):
    """The first ``ell`` poles of the table's family ``name``."""
    return STRATEGIES[name].first(iv, ell)


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


@functools.lru_cache(maxsize=None)
def _block_fixture(storage):
    """An operator of the given storage, its spectral interval and its
    eigenvectors: the 1-D Laplacian (n = 800), a Laplacian-like Z-band
    with k = 2 (n = 800), and a dense matrix with eigenvalues spread over
    [1e-4, 4] (n = 400)."""
    if storage == "tridiagonal":
        op = _tridiag_op(800)
    elif storage == "band":
        op = BandedOperator([np.full(800, 3.0), np.full(800, -1.0),
                             np.full(800, -0.5)])
    else:
        g = np.random.default_rng(7).standard_normal((400, 400))
        q, _ = np.linalg.qr(g)
        op = DenseOperator((q * np.geomspace(1e-4, 4.0, 400)) @ q.T)
    return op, op.exact_interval(), np.linalg.eigh(op.to_dense())[1]


class TestBlockOrthogonality:
    # Smooth columns leave block remainders that are nearly dependent, so
    # the in-block pass cancels most of a column; before that column got
    # one more pass against the basis, the tridiagonal cases below lost
    # orthogonality to 8e-6 (width 3) and 3e-5 (width 4).
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(storage=st.sampled_from(["tridiagonal", "band", "dense"]),
           strategy=st.sampled_from(list(STRATEGIES)),
           kind=st.sampled_from(["gaussian", "smooth", "near-eigenvector"]),
           width=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    @example(storage="tridiagonal", strategy="extended", kind="smooth",
             width=3, seed=0)
    @example(storage="tridiagonal", strategy="polynomial", kind="smooth",
             width=4, seed=0)
    @example(storage="band", strategy="eds-cauchy", kind="smooth", width=4,
             seed=0)
    def test_block_basis_is_orthonormal(self, storage, strategy, kind, width,
                                        seed):
        op, iv, vecs = _block_fixture(storage)
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            v = rng.standard_normal((op.n, width))
        elif kind == "smooth":
            x = np.linspace(0.0, 1.0, op.n)[:, None]
            v = np.sin(np.pi * x * np.arange(1, width + 1))
        else:
            v = vecs[:, :width] + 1e-6 * rng.standard_normal((op.n, width))
        u = rk_build(op, v, _first(strategy, 25, iv)).basis
        assert np.linalg.norm(u.T @ u - np.eye(u.shape[1]), 2) <= 1e-13


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
        (1, _first("extended", 200)),
        (2, _first("extended", 200)),
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
        dec = rk_build(op, v, _first("extended", 40))
        assert dec.dim == 41
        assert op.matvecs == 41  # one per block: the 20 polynomial steps add none

    @pytest.mark.parametrize("storage", ["tridiagonal", "dense"])
    def test_lanes_get_fortran_blocks_and_match_lone_builds(self, storage,
                                                            monkeypatch):
        # C-ordered width-2 seeds; every block handed to the operator is a
        # Fortran block, and lock-step growth changes no bit of any lane.
        n = 300
        op = _tridiag_op(n) if storage == "tridiagonal" else \
            from_dense_array(_tridiag_op(n).to_dense() + np.ones((n, n)) / n)
        rng = np.random.default_rng(23)
        seeds = [(op, rng.standard_normal((n, 2))) for _ in range(2)]
        seen = []
        for name in ("matvec", "shifted_solve"):
            def spy(*args, method=getattr(op, name), name=name):
                seen.append((name, args[-1].flags.f_contiguous))
                return method(*args)
            monkeypatch.setattr(op, name, spy)
        together = build_together(seeds, self.MIXED)
        assert {name for name, _ in seen} == {"matvec", "shifted_solve"}
        assert all(f_order for _, f_order in seen)
        for dec, (_, v) in zip(together, seeds):
            lone = rk_build(op, v, self.MIXED)
            assert dec.dim == lone.dim == 2 * (len(self.MIXED) + 1)
            np.testing.assert_array_equal(dec.basis, lone.basis)
            np.testing.assert_array_equal(dec.reduced_matrix(), lone.reduced_matrix())
            np.testing.assert_array_equal(dec.reduced_seed(), lone.reduced_seed())

    @pytest.mark.parametrize("columns, width", [
        (lambda v, w: [v, v], 1),
        (lambda v, w: [v, 2.0 * v, w], 2),
        (lambda v, w: [v, w + 1e-13 * v], 2),
    ], ids=["repeated", "multiple-then-new", "nearly-dependent"])
    def test_in_block_pass_keeps_the_mgs_width(self, columns, width):
        n = 400
        rng = np.random.default_rng(24)
        seed = np.column_stack(columns(*rng.standard_normal((2, n))))
        kept = []  # column-by-column MGS, twice, with the same deflation rule
        for col in seed.T:
            w = col.copy()
            for _ in range(2):
                for q in kept:
                    w -= q * (q @ w)
            if np.linalg.norm(w) > DEFLATION_TOL * np.linalg.norm(col):
                kept.append(w / np.linalg.norm(w))
        dec = RKDecomposition(_tridiag_op(n), seed)
        assert dec.dim == len(kept) == width
        u = dec.basis
        assert np.abs(u.T @ u - np.eye(width)).max() <= 1e-14
        assert u.flags.f_contiguous

    @pytest.mark.parametrize("k", [3, 4, 6])
    @pytest.mark.parametrize("poles", [_first("polynomial", 10),
                                       _first("extended", 10)],
                             ids=["polynomial", "extended"])
    def test_k_distinct_eigenvalues_break_down_at_step_k(self, k, poles):
        op = DiagonalOperator(np.repeat(np.arange(1.0, k + 1), 3))
        dec = rk_build(op, np.arange(1.0, 3 * k + 1), poles)
        assert dec.breakdown
        assert dec.dim == len(dec.poles_used) == k


class TestWindow:
    """While every finite pole is one real shift, U*AU is block banded and a
    step reads the whole basis twice; any other pole record takes the full
    path, the code before the window existed."""

    @pytest.mark.parametrize("name, n, ell, width, blocks", [
        ("extended", 100_000, 220, 1, 2),  # criterion 5's extended sweep
        ("extended", 2000, 200, 2, 2),
        ("polynomial", 2000, 100, 1, 1),
    ], ids=["extended-criterion-5", "extended-width-2", "polynomial"])
    def test_reduced_matrix_is_banded_and_basis_orthonormal(
            self, name, n, ell, width, blocks):
        op, f = _tridiag_op(n), catalog_function("power", -0.5)
        v = fixture_1d(op, f, 7)[0]
        if width == 2:
            v = np.column_stack([v, np.random.default_rng(8).standard_normal(n)])
        dec = rk_build(op, v, _first(name, ell))
        assert dec.dim == width * (ell + 1)
        u = dec.basis
        fresh = u.T @ op.matvec(u)
        tiny = 4 * np.finfo(float).eps * 4.0  # ||A|| <= 4
        b = np.arange(dec.dim) // width
        outside = np.abs(b[:, None] - b[None, :]) > blocks
        assert np.abs(fresh[outside]).max() <= tiny
        h = dec.reduced_matrix()
        assert not h[outside].any()  # the window writes those entries as 0
        assert np.abs(h - fresh).max() <= tiny
        assert np.linalg.norm(u.T @ u - np.eye(dec.dim), 2) <= 5e-15

    @pytest.mark.parametrize("poles", [
        [math.inf, -0.1] * 30, [math.inf] * 60, [-0.1] * 60,
        [math.inf, -0.1, -0.1, math.inf, math.inf, -0.1] * 10,
        [-0.1, -0.1, math.inf, -0.1, math.inf, math.inf, math.inf] * 8,
    ], ids=["extended", "polynomial", "shift-invert", "mixed", "mixed-2"])
    def test_windows_drop_only_rounding(self, poles):
        # Above its window, a step's first-pass coefficients U*cand and its
        # block's column U*(A·block) are rounding, computed afresh.
        op = _tridiag_op(2000)
        dec = RKDecomposition(op, np.random.default_rng(12).standard_normal(2000))
        eps = np.finfo(float).eps
        for sigma in poles:
            first, cross = dec._windows(sigma)
            u, last = dec.basis, dec.last_block
            cand = op.matvec(last) if sigma == math.inf else \
                op.shifted_solve(sigma, last)
            assert np.abs(u[:, :first].T @ cand).max(initial=0.0) <= \
                4 * eps * np.linalg.norm(cand)
            dec.extend([sigma])
            col = u[:, :cross].T @ op.matvec(dec.last_block)
            assert np.abs(col).max(initial=0.0) <= 4 * eps * 4.0  # ||A|| <= 4
        assert first > 0  # the windows were open

    @pytest.mark.parametrize("name", ["extended", "polynomial"])
    def test_a_windowed_step_reads_the_basis_twice(self, name, monkeypatch):
        # A full read is a product with every filled column; the first
        # pass and the cross column of a windowed step read a few.
        op = _tridiag_op(3000)
        dec = RKDecomposition(op, np.random.default_rng(9).standard_normal(3000))
        full = []
        for fn in ("_adjoint_product", "_subtract_product"):
            def spy(parts, *args, fn=getattr(rk, fn)):
                if sum(p.shape[1] for p in parts) == dec.dim:
                    full.append(1)
                return fn(parts, *args)
            monkeypatch.setattr(rk, fn, spy)
        reads = []
        for sigma in _first(name, 80):
            full.clear()
            dec.extend([sigma])
            reads.append(len(full))
        # Step 1 sees no earlier infinite step, so it reads the whole
        # basis for its cross column too; step 2's first pass is full.
        assert reads[0] >= 2
        assert reads[2:] == [2] * 78

    # A second distinct shift, or a complex one, before any window opens.
    @pytest.mark.parametrize("strategy", [
        "zolotarev", "eds-cauchy",
        [-1.0, math.inf, -2.0, math.inf, -1.0] * 6,
        [math.inf, -1.0 + 0.5j, math.inf, -1.0 - 0.5j] * 6,
    ], ids=["zolotarev", "eds-cauchy", "two-shifts", "complex"])
    @pytest.mark.parametrize("width", [1, 2])
    def test_no_window_without_one_shift(self, strategy, width, monkeypatch):
        # Every window is the whole basis, the path whose arithmetic is
        # the code's before windows existed.
        op, f = _tridiag_op(1500), catalog_function("power", -0.5)
        v = np.random.default_rng(10).standard_normal((1500, width))
        seen = []
        windows = RKDecomposition._windows
        monkeypatch.setattr(RKDecomposition, "_windows",
                            lambda dec, s: seen.append(windows(dec, s))
                            or seen[-1])
        funv_driver(op, f, v, spectral_interval(op), strategy=strategy, ell=24)
        assert len(seen) == 24 and set(seen) == {(0, 0)}

    def test_window_ends_at_a_second_shift(self):
        # The one-shift prefix is windowed; from the second shift on every
        # window is the whole basis, and the band holds on the prefix.
        op = _tridiag_op(1500)
        v = np.random.default_rng(11).standard_normal(1500)
        dec = rk_build(op, v, _first("extended", 10))
        assert dec._windows(0.0) != (0, 0)
        assert dec._windows(-1.0) == (0, 0)
        dec.extend([-1.0, math.inf, 0.0])
        assert dec._windows(math.inf) == dec._windows(0.0) == (0, 0)
        h = dec.reduced_matrix()
        assert not h[:3, 4:11].any()
        assert np.abs(h[:, 11:]).min() > 0.0


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
    # The chunk width is CHUNK_MIN_COLS at every order: the layout tests
    # run at a small order and at one where 32 columns exceed 4 MiB.
    N_CHUNKED = 20000
    ORDERS = [2000, N_CHUNKED]

    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("width", [1, 2])
    def test_one_pole_growth_matches_one_shot_build(self, width, n):
        op = _tridiag_op(n)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(n) if width == 1 else rng.standard_normal((n, width))
        poles = (list(zolotarev_poles((0.05, 4.0), 10)) + [math.inf] * 4) * 3
        whole = rk_build(op, v, poles)
        grown, layouts = _grow_one_pole_at_a_time(op, v, poles)
        c = CHUNK_MIN_COLS
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

    @pytest.mark.parametrize("n", ORDERS)
    def test_lift_from_the_first_columns_of_several_chunks(self, n):
        op = _tridiag_op(n)
        rng = np.random.default_rng(12)
        dec, _ = _grow_one_pole_at_a_time(op, rng.standard_normal(n),
                                          _first("extended", 69))
        u = dec.basis
        assert len(dec._chunks) == 3
        for r in (1, CHUNK_MIN_COLS - 1, CHUNK_MIN_COLS, CHUNK_MIN_COLS + 1,
                  2 * CHUNK_MIN_COLS + 1, dec.dim):
            y = rng.standard_normal((r, 1))
            np.testing.assert_allclose(dec.lift(y), u[:, :r] @ y[:, 0],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", ORDERS)
    def test_filled_chunks_are_never_copied(self, n):
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

    @pytest.mark.parametrize("n", ORDERS)
    def test_one_shot_builds_are_views(self, n):
        # A one-shot build past the chunk width is still one array, and
        # both rk_build's basis and the Kronecker bases are views of it.
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

    def test_small_order_peak_is_basis_plus_one_chunk(self):
        # At n = 2000 the first chunk used to double up to 262 columns
        # (4 MiB), so the 64 -> 128 copy held 192 columns for a basis of
        # 65: the peak of an extended tolerance run to 80 columns.
        n = 2000
        op = _tridiag_op(n)
        v = np.random.default_rng(6).standard_normal(n)
        tracemalloc.start()
        try:
            dec, _ = _grow_one_pole_at_a_time(op, v, _first("extended", 79))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cap = sum(c.shape[1] for c in dec._chunks)
        assert dec.dim == 80 and cap == 3 * CHUNK_MIN_COLS
        assert peak < (dec.dim + CHUNK_MIN_COLS + 4) * n * 8 + 4 * cap ** 2 * 8

    def test_projections_grow_with_the_basis(self):
        # One pole at a time at n = 3e4 up to 140 columns, as the extended
        # tolerance loop grows: U*AU and U*v hold exactly the basis's
        # capacity, so the peak stays within the basis, one chunk and
        # O(m^2), and they cannot raise funv-tridiag-long's peak.
        n = 30000
        op = _tridiag_op(n)
        v = np.random.default_rng(5).standard_normal(n)
        tracemalloc.start()
        try:
            dec, _ = _grow_one_pole_at_a_time(op, v, _first("extended", 139))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cap = sum(c.shape[1] for c in dec._chunks)
        assert dec.dim == 140 and cap < dec.dim + CHUNK_MIN_COLS
        assert dec._h.shape == (cap, cap) and dec._rhs.shape == (cap, 1)
        assert peak < (dec.dim + CHUNK_MIN_COLS) * n * 8 + 4 * cap ** 2 * 8

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
        res = funv_driver(op, f, v, iv, strategy=custom, ell=6)
        assert tuple(res.poles_used) == tuple(custom)
        assert res.strategy == "custom"
        # A list is the caller's family; "custom" is no name of the table.
        with pytest.raises(ValueError, match="unknown strategy 'custom'"):
            funv_driver(op, f, v, iv, strategy="custom", ell=6)

    @pytest.mark.parametrize("poles", [
        pytest.param([-0.5, math.inf, 0.0, -3.0, -1.0 + 0.5j, -1.0 - 0.5j],
                     id="mixed"),
        pytest.param(np.array([-2.0, -0.25, -8.0, -1.0]), id="array"),
    ])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_ell_mode_on_a_list_is_a_build_of_its_prefix(self, poles, k):
        # Bit for bit: strategy=lst at ell=k projects through the basis of
        # the first k poles, with no bound.
        op = _tridiag_op(60)
        f = catalog_function("power", -0.5)
        v = np.random.default_rng(12).standard_normal(60)
        iv = spectral_interval(op, mode="exact-small")
        res = funv_driver(op, f, v, iv, strategy=poles, ell=k)
        dec = rk_build(op, v, poles[:k])
        np.testing.assert_array_equal(res.x, rk_funv(dec, f))
        assert res.poles_used == tuple(dec.poles_used)
        assert res.stop_reason == "fixed_ell" and math.isnan(res.trace[-1].bound)

    @pytest.mark.parametrize("strategy, mode, with_oracle", [
        pytest.param("extended", {"tol": 1e-4}, False, id="extended"),
        pytest.param("eds-cauchy", {"tol": 1e-4}, False, id="eds-cauchy"),
        # z^-1/2 is Cauchy-Stieltjes, so cauchy certifies it: one build.
        pytest.param("cauchy", {"tol": 1e-4}, False, id="cauchy"),
        pytest.param("cauchy", {"tol": 1e-6}, True, id="cauchy-oracle"),
        # f(0+) = inf leaves zolotarev without a certificate: the
        # checkpoint loop.
        pytest.param("zolotarev", {"tol": 1e-4}, False, id="zolotarev"),
        pytest.param("zolotarev", {"ell": 12}, False, id="zolotarev-ell"),
        pytest.param("extended", {"tol": 1e-4}, True, id="extended-oracle"),
    ])
    def test_estimate_equals_lifted_lag2_distance(self, strategy, mode,
                                                  with_oracle):
        op = _tridiag_op(200)
        f = catalog_function("power", -0.5)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(200)
        iv = spectral_interval(op, mode="exact-small")
        ref = oracle_funv(op, f, v) if with_oracle else None
        res = funv_driver(op, f, v, iv, strategy=strategy, max_ell=60,
                          oracle=ref, **mode)
        s = STRATEGIES[strategy]
        tol = mode.get("tol")
        vnorm = np.linalg.norm(v)
        one_count = tol is None or strategy == "cauchy"
        assert res.stop_reason == ("fixed_ell" if tol is None else
                                   "certified" if one_count else "tol")
        if tol is None:
            assert [row.ell for row in res.trace] == [mode["ell"]]
        elif one_count:  # the smallest count whose bound certifies tol
            target = tol * f(iv.upper) * vnorm
            ell_star = next(k for k in range(1, 61)
                            if s.bound(f, iv, k, vnorm) <= target)
            assert [row.ell for row in res.trace] == [ell_star]
        else:
            step = 1 if s.nested else CHECKPOINT_STRIDE
            assert len(res.trace) >= 4
            assert [row.ell for row in res.trace] == list(
                range(step, step * len(res.trace) + 1, step))
        xs = [rk_funv(rk_build(op, v, s.first(iv, row.ell)), f)
              for row in res.trace]
        for k, row in enumerate(res.trace):
            if k >= 2:
                want = np.linalg.norm(xs[k] - xs[k - 2]) / np.linalg.norm(xs[k])
                assert row.est_error == pytest.approx(want, rel=1e-10)
            else:  # nothing two back; a one-count run has one row
                np.testing.assert_equal(row.est_error,
                                        math.nan if one_count else math.inf)
            if ref is None:
                assert math.isnan(row.true_error)
            else:
                want = np.linalg.norm(xs[k] - ref) / np.linalg.norm(ref)
                assert row.true_error == pytest.approx(want, rel=1e-8)
                assert tol is None or not one_count or row.true_error <= tol
            np.testing.assert_equal(row.bound, s.bound(f, iv, row.ell, vnorm))
        # Converged at the first estimate within tol, and only there.
        ests = [row.est_error for row in res.trace]
        assert res.converged and not res.interval_violated
        assert one_count or (ests[-1] <= tol
                             and all(e > tol for e in ests[:-1]))
        np.testing.assert_allclose(res.x, xs[-1], rtol=0,
                                   atol=1e-13 * np.linalg.norm(xs[-1]))

    @pytest.mark.parametrize("mode, rows", [
        ({"ell": 5}, [(2, math.nan)]),
        ({"tol": 1e-12}, [(1, math.inf), (2, math.inf)]),
    ])
    def test_breakdown_ends_both_modes(self, mode, rows):
        # ones(3) lies in a two-dimensional invariant subspace of the
        # Toeplitz matrix: the second polynomial step closes the space.
        op = _tridiag_op(3)
        f = catalog_function("inverse")
        iv = spectral_interval(op, mode="exact-small")
        res = funv_driver(op, f, np.ones(3), iv, "polynomial", **mode)
        assert res.converged and res.poles_used == (math.inf, math.inf)
        np.testing.assert_equal([(r.ell, r.est_error) for r in res.trace], rows)
        np.testing.assert_allclose(res.x, np.linalg.solve(op.to_dense(),
                                                          np.ones(3)),
                                   rtol=1e-14)

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
        for empty in ([], np.array([])):
            for mode in ({"tol": 1e-6}, {"ell": 3}):
                with pytest.raises(ValueError, match=(
                        "^strategy: the custom pole list is empty$")):
                    funv_driver(op, f, np.ones(20), iv, strategy=empty, **mode)

    def test_ell_mode_short_custom_list_rejected(self):
        op = _tridiag_op(20)
        f = catalog_function("inverse")
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError, match=(
                "^ell=5 needs at least 5 custom poles, got 2$")):
            funv_driver(op, f, np.ones(20), iv, strategy=[-1.0, -2.0], ell=5)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_ell_below_one_rejected(self, strategy):
        op = _tridiag_op(20)
        f = catalog_function("power", -0.5)
        iv = spectral_interval(op, mode="exact-small")
        if strategy == "custom":
            strategy = [-1.0]
        with pytest.raises(ValueError, match="pole counts must be >= 1"):
            funv_driver(op, f, np.ones(20), iv, strategy=strategy, ell=0)

    def test_unknown_strategy(self):
        op = _tridiag_op(10)
        f = catalog_function("inverse")
        v = np.ones(10)
        iv = spectral_interval(op, mode="exact-small")
        with pytest.raises(ValueError):
            funv_driver(op, f, v, iv, strategy="chebyshev", ell=3)


def _mix_fixtures(n=300):
    """Toeplitz, diffusion and gapped operators with their intervals."""
    ops = {"toeplitz": _tridiag_op(n), "diffusion": diffusion_operator(n),
           "gapped": DiagonalOperator(_eig_fixtures(n)["gapped"])}
    return {k: (op, spectral_interval(op)) for k, op in ops.items()}


_CERTIFIED = [  # (strategy, catalog function): a finite bound for every f
    ("zolotarev", ("phi", 1)), ("zolotarev", ("phi", 3)),
    ("zolotarev", ("log1p_over_z",)),
    ("zolotarev", ("rational", np.array([1.0, 2.0]), np.array([-0.5, -3.0]))),
    ("cauchy", ("power", -0.5)), ("cauchy", ("power", -0.8)),
    ("cauchy", ("inverse",)), ("cauchy", ("log1p_over_z",)),
    ("cauchy", ("one_minus_exp_sqrt_over_z",)),
]
_UNCERTIFIED = [  # f(0+) = inf, f not Cauchy-Stieltjes, or a nested family
    ("zolotarev", ("power", -0.5)), ("zolotarev", ("inverse",)),
    ("zolotarev", ("lambertw_scaled",)), ("cauchy", ("phi", 1)),
    ("cauchy", ("lambertw_scaled",)), ("eds-laplace", ("phi", 1)),
    ("eds-cauchy", ("power", -0.5)),
]


def _pair_id(pair):
    return f"{pair[0]}-{pair[1][0]}"


def _checkpoint_loop(monkeypatch, *args, **kwargs):
    """funv_driver with the certified schedule switched off."""
    with monkeypatch.context() as mp:
        mp.setattr(rk, "_certified_count", lambda *a: None)
        return funv_driver(*args, **kwargs)


def _assert_same_result(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    np.testing.assert_equal([dataclasses.astuple(r) for r in got.trace],
                            [dataclasses.astuple(r) for r in want.trace])
    assert got.poles_used == want.poles_used
    assert (got.converged, got.stop_reason) == (want.converged, want.stop_reason)


class TestCertifiedTolerance:
    """Tolerance mode on an interval-optimal family with a finite bound:
    one build at the smallest certifying count ell*."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    @pytest.mark.parametrize("pair", _CERTIFIED, ids=_pair_id)
    def test_certified_pairs_meet_tol_with_one_build(self, pair, tol,
                                                     monkeypatch):
        strategy, spec = pair
        f = catalog_function(*spec)
        builds = []
        init = RKDecomposition.__init__
        monkeypatch.setattr(RKDecomposition, "__init__",
                            lambda dec, *a: builds.append(1) or init(dec, *a))
        for name, (op, iv) in _mix_fixtures().items():
            v = np.random.default_rng(11).standard_normal(op.n)
            builds.clear()
            res = funv_driver(op, f, v, iv, strategy=strategy, tol=tol,
                              max_ell=160)
            ref = oracle_funv(op, f, v)
            err = np.linalg.norm(res.x - ref) / np.linalg.norm(ref)
            assert (res.stop_reason, res.converged) == ("certified", True), name
            assert len(builds) == 1 and len(res.trace) == 1, name
            assert err <= tol, name
            [row] = res.trace
            assert math.isnan(row.est_error) and not res.interval_violated
            assert row.bound <= tol * f(iv.upper) * np.linalg.norm(v)

    @pytest.mark.parametrize("pair", _UNCERTIFIED, ids=_pair_id)
    def test_uncertified_pairs_keep_the_checkpoint_loop(self, pair,
                                                        monkeypatch):
        strategy, spec = pair
        f = catalog_function(*spec)
        for name, (op, iv) in _mix_fixtures(200).items():
            v = np.random.default_rng(12).standard_normal(op.n)
            args = (op, f, v, iv)
            kwargs = dict(strategy=strategy, tol=1e-8, max_ell=60)
            res = funv_driver(*args, **kwargs)
            assert res.stop_reason in ("tol", "max_ell"), name
            _assert_same_result(res, _checkpoint_loop(monkeypatch, *args,
                                                      **kwargs))

    def test_ell_star_beyond_max_ell_falls_back(self, monkeypatch):
        op, iv = _mix_fixtures(200)["toeplitz"]
        f = catalog_function("power", -0.5)
        v = np.random.default_rng(13).standard_normal(op.n)
        s = STRATEGIES["cauchy"]
        target = 1e-10 * f(iv.upper) * np.linalg.norm(v)
        assert s.bound(f, iv, 20, np.linalg.norm(v)) > target
        args, kwargs = (op, f, v, iv), dict(strategy="cauchy", tol=1e-10,
                                            max_ell=20)
        res = funv_driver(*args, **kwargs)
        assert [row.ell for row in res.trace] == [4, 8, 12, 16, 20]
        _assert_same_result(res, _checkpoint_loop(monkeypatch, *args, **kwargs))

    def test_tol_below_the_rounding_floor_is_not_certified(self, monkeypatch):
        # Toeplitz n = 2000: eps * b/a = 3.6e-10.  The bound reaches tol
        # 1e-13 at ell* <= 80, but the error of that build levels off near
        # 1e-11, so a tol below the floor takes the checkpoint loop, which
        # stops at the floor.
        op = _tridiag_op(2000)
        iv = spectral_interval(op)
        f = catalog_function("power", -0.5)
        v = np.random.default_rng(13).standard_normal(op.n)
        ref = oracle_funv(op, f, v)
        s, tol = STRATEGIES["cauchy"], 1e-13
        target = tol * f(iv.upper) * np.linalg.norm(v)
        ell_star = next(k for k in range(1, 81)
                        if s.bound(f, iv, k, np.linalg.norm(v)) <= target)
        x = rk_funv(rk_build(op, v, s.first(iv, ell_star)), f)
        assert np.linalg.norm(x - ref) / np.linalg.norm(ref) > 10 * tol
        args, kwargs = (op, f, v, iv), dict(strategy="cauchy", tol=tol,
                                            max_ell=80)
        res = funv_driver(*args, **kwargs)
        assert res.stop_reason == "floor" and not res.converged
        _assert_same_result(res, _checkpoint_loop(monkeypatch, *args, **kwargs))

    @pytest.mark.parametrize("interval", [
        (2.5e-6, 4.0), (1e-2, 1.6e4), (1e-3, 1e3), (1.0, 4.0), (1e-12, 1.0),
        (1.0, 1.0 + 1e-9), (3.0, 3.0),
    ])
    def test_ell_star_is_the_smallest_certifying_count(self, interval):
        iv = SpectralInterval(*interval)
        for strategy, spec in _CERTIFIED + _UNCERTIFIED:
            s, f = STRATEGIES[strategy], catalog_function(*spec)
            if s.nested:
                continue
            for tol, max_ell in itertools.product([1e-1, 1e-6, 1e-12],
                                                  [1, 7, 40, 400]):
                target = tol * f(iv.upper) * 2.0
                scan = next((k for k in range(1, max_ell + 1)
                             if s.bound(f, iv, k, 2.0) <= target), None)
                if tol < np.finfo(float).eps * iv.kappa:  # the rounding floor
                    scan = None
                assert rk._certified_count(s, f, iv, 2.0, tol, max_ell) == scan

    def test_wrong_interval_prints_no_bound_and_falls_back(self, monkeypatch):
        # The spectrum of tridiag(-1, 2, -1) at n = 200 reaches down to
        # 2.4e-4, far below the claimed lower end 1: the smallest Ritz value
        # proves the interval wrong from the first pole on.
        op = _tridiag_op(200)
        f = catalog_function("power", -0.5)
        v = np.random.default_rng(7).standard_normal(200)
        ref = oracle_funv(op, f, v)
        res = funv_driver(op, f, v, (1.0, 4.0), strategy="cauchy", ell=8)
        assert res.interval_violated and res.stop_reason == "fixed_ell"
        assert math.isnan(res.trace[-1].bound)
        assert np.linalg.norm(res.x - ref) / np.linalg.norm(ref) > 0.1
        args, kwargs = (op, f, v, (1.0, 4.0)), dict(strategy="cauchy",
                                                    tol=1e-6)
        res = funv_driver(*args, **kwargs)
        assert res.interval_violated and res.stop_reason != "certified"
        assert all(math.isnan(row.bound) for row in res.trace)
        assert len(res.trace) > 1  # the checkpoint loop ran
        _assert_same_result(res, _checkpoint_loop(monkeypatch, *args, **kwargs))

    def test_right_intervals_never_trip(self):
        f = catalog_function("power", -0.5)
        for name, (op, iv) in _mix_fixtures().items():
            v = np.random.default_rng(14).standard_normal(op.n)
            for strategy in STRATEGIES:
                res = funv_driver(op, f, v, iv, strategy=strategy, tol=1e-14,
                                  max_ell=60)
                assert not res.interval_violated, (name, strategy)


def _check_stop_reason(strategy, spec, breaks, ell, tol, max_ell, n_custom):
    """Run funv_driver on a 24-point diagonal and check that its stop
    reason agrees with its trace and ``converged``."""
    # Three distinct eigenvalues close every space at the third pole; 24
    # distinct ones close it once the basis fills R^24, at ell >= 24.
    d = np.repeat([1.0, 2.0, 4.0], 8) if breaks else np.linspace(1.0, 4.0, 24)
    op, f = DiagonalOperator(d), catalog_function(*spec)
    v = np.random.default_rng(15).standard_normal(24)
    poles = strategy
    if strategy == "custom":
        poles = list(-np.arange(1.0, n_custom + 1.0))
        if ell is not None:
            ell = min(ell, n_custom)
    mode = {"ell": ell} if ell is not None else {"tol": tol}
    res = funv_driver(op, f, v, (1.0, 4.0), strategy=poles, max_ell=max_ell,
                      **mode)
    ells = [row.ell for row in res.trace]
    last = res.trace[-1]
    assert ells == sorted(set(ells)) and ells[-1] == len(res.poles_used)
    assert res.stop_reason in STOP_REASONS and not res.interval_violated
    assert res.converged == (res.stop_reason in (
        "certified", "tol", "breakdown", "fixed_ell"))
    if res.stop_reason == "fixed_ell":
        assert ells == [ell] and math.isnan(last.est_error)
    elif res.stop_reason == "certified":
        assert len(ells) == 1 and math.isnan(last.est_error)
        assert last.bound <= tol * f(4.0) * np.linalg.norm(v)
    elif res.stop_reason == "tol":
        assert last.est_error <= tol
    elif res.stop_reason == "breakdown":
        assert ells[-1] <= 3 if breaks else ells[-1] >= op.n
    elif res.stop_reason == "max_ell":
        assert ells[-1] == max_ell and last.est_error > tol
    elif res.stop_reason == "floor":  # below eps * b/a, where tol is
        assert tol < last.est_error <= np.finfo(float).eps * 4.0
    else:  # poles_exhausted: the custom list ran out
        assert strategy == "custom" and ells[-1] == n_custom < max_ell
    if ell is None and res.stop_reason != "certified":
        floor = max(tol, np.finfo(float).eps * 4.0)
        assert all(row.est_error > floor for row in res.trace[:-1])


class TestStopReason:
    @settings(max_examples=60, deadline=None)
    @given(strategy=st.sampled_from(STRATEGY_NAMES),
           spec=st.sampled_from([("phi", 1), ("power", -0.5), ("inverse",)]),
           breaks=st.booleans(), ell=st.none() | st.integers(1, 12),
           tol=st.sampled_from([1e-2, 1e-5, 1e-9, 1e-13, 1e-16]),
           max_ell=st.integers(1, 30), n_custom=st.integers(1, 8))
    @example(strategy="cauchy", spec=("power", -0.5), breaks=False, ell=None,
             tol=1e-5, max_ell=30, n_custom=1)  # certified
    @example(strategy="custom", spec=("inverse",), breaks=False, ell=None,
             tol=1e-13, max_ell=30, n_custom=3)  # poles_exhausted
    @example(strategy="zolotarev", spec=("power", -0.5), breaks=False,
             ell=None, tol=1e-13, max_ell=24, n_custom=1)  # breakdown at 24
    @example(strategy="extended", spec=("inverse",), breaks=False, ell=None,
             tol=1e-16, max_ell=30, n_custom=1)  # floor at 4
    def test_reason_agrees_with_trace_and_converged(self, strategy, spec,
                                                    breaks, ell, tol, max_ell,
                                                    n_custom):
        _check_stop_reason(strategy, spec, breaks, ell, tol, max_ell, n_custom)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_reason_on_every_strategy_at_the_breakdown_draw(self, strategy):
        # The draw above that breaks down at ell = 24 on zolotarev.
        _check_stop_reason(strategy, ("power", -0.5), False, None, 1e-13, 24, 1)

    def test_converged_is_read_off_the_stop_reason(self):
        # A copy field by field, converged= included, and replace() keep it
        # derived: it cannot disagree with stop_reason.
        op = TridiagonalOperator(np.full(40, 2.0), np.full(39, -1.0))
        res = rk.funv_driver(op, catalog_function("inverse"), np.ones(40),
                             op.exact_interval(), "extended", tol=1e-8)
        assert res.converged and "converged" not in repr(res)
        again = dataclasses.replace(res, interval_violated=True)
        assert again.converged and again.interval_violated
        stopped = type(res)(x=res.x, trace=res.trace, converged=True,
                            strategy=res.strategy, poles_used=res.poles_used,
                            stop_reason="max_ell")
        assert not stopped.converged


def _gapped(n):
    """20 points in [1, 2] and the rest in [50, 1000]."""
    return np.concatenate([np.linspace(1.0, 2.0, 20),
                           np.linspace(50.0, 1000.0, n - 20)])


class TestScaledOperator:
    # f(2^s A) v = 2^(-s/2) f(A) v for z^-1/2.  At 2^+-600 a column norm
    # taken as sqrt(c.c) overflows or underflows, and the basis read it as
    # a breakdown: "converged" with a relative error of 0.92.
    @pytest.mark.parametrize("s", [600, -600, 1000, -1000])
    @pytest.mark.parametrize("strategy",
                             ["extended", "zolotarev", "eds-cauchy", "cauchy"])
    def test_scaled_spectrum_scales_the_result(self, strategy, s):
        d, f = _gapped(600), catalog_function("power", -0.5)
        v = np.random.default_rng(3).standard_normal(600)

        def run(c):
            return funv_driver(DiagonalOperator(c * d), f, v,
                               SpectralInterval(c, 1000.0 * c),
                               strategy=strategy, ell=12)

        base, res = run(1.0), run(2.0 ** s)
        assert res.stop_reason == base.stop_reason == "fixed_ell"
        # Compared in the units of the scale-1 result: 2^(s/2) is exact.
        err = np.linalg.norm(res.x * 2.0 ** (s / 2) - base.x)
        assert err <= 1e-12 * np.linalg.norm(base.x)


class TestFloor:
    # Toeplitz n = 2000, z^-1/2, tol 1e-13 < eps * b/a = 3.6e-10: the
    # checkpoint loop rebuilt cauchy and zolotarev 100 times (20,200 poles,
    # 12-15 s) and ran every nested family to max_ell = 400.
    @pytest.mark.parametrize("strategy, ell, rows", [
        ("cauchy", 28, 7), ("zolotarev", 48, 12), ("eds-cauchy", 35, 35),
        ("eds-laplace", 43, 43), ("extended", 86, 86),
    ])
    def test_tol_below_the_floor_stops_at_the_floor(self, strategy, ell, rows):
        op, f = _tridiag_op(2000), catalog_function("power", -0.5)
        v = np.random.default_rng(7).standard_normal(2000)
        iv = spectral_interval(op)
        floor = np.finfo(float).eps * iv.kappa
        res = funv_driver(op, f, v, iv, strategy=strategy, tol=1e-13,
                          max_ell=400)
        assert res.stop_reason == "floor" and not res.converged
        assert (res.ell, len(res.trace)) == (ell, rows)
        assert res.trace[-1].est_error <= floor
        assert all(row.est_error > floor for row in res.trace[:-1])
        ref = oracle_funv(op, f, v)
        assert np.linalg.norm(res.x - ref) <= floor * np.linalg.norm(ref)

    def test_tol_at_the_floor_stops_on_tol(self):
        # An estimate <= eps * b/a <= tol stops on tol first.
        op, f = _tridiag_op(2000), catalog_function("power", -0.5)
        v = np.random.default_rng(7).standard_normal(2000)
        iv = spectral_interval(op)
        res = funv_driver(op, f, v, iv, strategy="eds-cauchy",
                          tol=np.finfo(float).eps * iv.kappa, max_ell=400)
        assert res.stop_reason == "tol" and res.converged and res.ell == 35


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
        steps = iterates(op, f, v, [-1.0, -2.0], iv, [1, 2, 5])
        ells = [len(dec.poles_used) for dec, _ in steps]
        assert ells == [1, 2]
        bounds = emit_bounds(get_strategy([-1.0]).bound, f, iv, ells, 1.0)
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

    def test_lift_of_an_earlier_row_after_the_basis_grew(self):
        # iterates grows one basis: a y kept from an earlier row lifts from
        # that row's columns once later rows have grown it.
        op = _tridiag_op(200)
        f = catalog_function("power", -0.5)
        v = np.random.default_rng(3).standard_normal(200)
        iv = spectral_interval(op, mode="exact-small")
        rows = [(dec, y, dec.lift(y)) for dec, y in
                iterates(op, f, v, "extended", iv, range(1, 7))]
        dec = rows[-1][0]
        assert dec.dim == 7
        for _, y, x in rows:
            np.testing.assert_array_equal(dec.lift(y), x)
        with pytest.raises(ValueError,
                           match="y has 8 rows, but the basis has only 7"):
            dec.lift(np.ones((8, 1)))

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

    @pytest.mark.parametrize("strategy", ["eds-cauchy", "zolotarev", "extended"])
    def test_seeds_on_one_operator_share_each_factorization(self, strategy,
                                                            count_factors,
                                                            monkeypatch):
        # Both seeds take the same shifts: each is factored once for both
        # (extended's sigma = 0 once for the whole sweep), and every basis
        # is bit-identical to a build of its own.
        op, _, v, iv = self._setup()
        w = np.random.default_rng(10).standard_normal(op.n)
        s, counts = STRATEGIES[strategy], [2, 5, 9]
        seen = count_factors(op)
        steps = [list(decs) for decs in grow(s, iv, counts, [(op, v), (op, w)])]
        if s.nested:
            assert len(seen) == len({p for p in s.first(iv, 9) if np.isfinite(p)})
            steps, counts = steps[-1:], counts[-1:]
        else:
            assert len(seen) == sum(len(set(s.first(iv, c))) for c in counts)
        monkeypatch.undo()
        for decs, c in zip(steps, counts):
            for dec, seed in zip(decs, (v, w)):
                np.testing.assert_array_equal(
                    dec.basis, rk_build(op, seed, s.first(iv, c)).basis)

    def test_shared_factors_survive_one_seed_breaking_down(self):
        # On one operator with six distinct eigenvalues, a seed on two of
        # them closes at the second pole; the other grows to the sixth.
        op = DiagonalOperator(np.array([1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        short, full = np.eye(7)[0] + np.eye(7)[2], np.ones(7)
        poles = STRATEGIES["eds-cauchy"].first((1.0, 6.0), 8)
        decs = list(grow(STRATEGIES["eds-cauchy"], (1.0, 6.0), [8],
                         [(op, short), (op, full)]))[-1]
        assert [len(dec.poles_used) for dec in decs] == [2, 6]
        assert [dec.breakdown for dec in decs] == [True, True]
        for dec, seed in zip(decs, (short, full)):
            np.testing.assert_array_equal(dec.basis,
                                          rk_build(op, seed, poles).basis)

    def test_seeds_of_two_dtypes_do_not_alternate_factorizations(
            self, count_factors, monkeypatch):
        # A real and a complex seed on one operator grow in lock-step: the
        # factor cache keys on sigma alone, and the real factorization of
        # sigma = 0 solves the complex block too.  One in all.
        op = _tridiag_op(50)
        ones = np.ones(50)
        seen = count_factors(op)
        decs = list(grow(STRATEGIES["extended"], None, [10],
                         [(op, ones), (op, (1 + 1j) * ones)]))[-1]
        assert seen == [(0, 0.0)]
        monkeypatch.undo()
        poles = STRATEGIES["extended"].first(None, 10)
        for dec, seed in zip(decs, (ones, (1 + 1j) * ones)):
            np.testing.assert_array_equal(dec.basis,
                                          rk_build(op, seed, poles).basis)

    def test_a_range_of_counts_is_checked_in_o1(self, monkeypatch):
        # A range with start >= 1 and step >= 1 (nested tolerance runs pass
        # range(1, max_ell + 1)) is checked without reading each count; it
        # yields the steps of the same counts as a list.  Any other input
        # is read count by count, with the same refusals.
        op, f, v, iv = self._setup()
        calls, real = [], rk.count
        monkeypatch.setattr(rk, "count",
                            lambda c, name: calls.append(c) or real(c, name))
        steps = iterates(op, f, v, "eds-cauchy", iv, range(2, 401, 3))
        assert calls == []
        got = [len(dec.poles_used) for dec, _ in itertools.islice(steps, 4)]
        assert got == [2, 5, 8, 11] and calls == []
        listed = iterates(op, f, v, "eds-cauchy", iv, [2, 5, 8, 11])
        assert [len(dec.poles_used) for dec, _ in listed] == got
        assert calls == [2, 5, 8, 11]
        with pytest.raises(ValueError, match="pole counts must be >= 1"):
            iterates(op, f, v, "eds-cauchy", iv, range(0, 5))
        with pytest.raises(ValueError,
                           match="pole counts must increase, got 4 after 5"):
            iterates(op, f, v, "eds-cauchy", iv, range(5, 0, -1))
        assert list(iterates(op, f, v, "eds-cauchy", iv, range(1, 1))) == []

    def test_bad_arguments_raise_at_the_call(self):
        op, f, v, iv = self._setup()
        with pytest.raises(ValueError, match="unknown strategy"):
            iterates(op, f, v, "chebyshev", iv, [1])
        with pytest.raises(ValueError, match="custom pole list is empty"):
            iterates(op, f, v, [], iv, [1])
        # Counts that do not increase: refused before the first step.
        for strategy in ("eds-cauchy", "cauchy"):
            for counts in ([5, 3], [4, 4]):
                with pytest.raises(ValueError, match="pole counts must increase"):
                    iterates(op, f, v, strategy, iv, counts)


class TestOverlap:
    """Row k's eigensolve on a worker thread while row k + 1's basis step
    runs (``rk._solved_rows``), forced on and off through the private
    predicate ``rk._overlap_pays``: every output is bit-identical."""

    @staticmethod
    def _both(monkeypatch, *args, **kwargs):
        out = []
        for pays in (True, False):
            monkeypatch.setattr(rk, "_overlap_pays", lambda dec, pays=pays: pays)
            out.append(funv_driver(*args, **kwargs))
        monkeypatch.undo()
        return out

    @staticmethod
    def _assert_identical(a, b):
        np.testing.assert_array_equal(a.x, b.x)
        assert a.x.dtype == b.x.dtype and a.x.shape == b.x.shape
        np.testing.assert_array_equal(
            [dataclasses.astuple(row) for row in a.trace],
            [dataclasses.astuple(row) for row in b.trace])  # nan == nan here
        assert a.poles_used == b.poles_used
        assert a.stop_reason == b.stop_reason
        assert a.interval_violated == b.interval_violated

    @pytest.mark.parametrize("n, strategy, tol, oracle", [
        (20000, "extended", 1e-6, False),
        (3000, "eds-cauchy", 1e-8, False),
        (2000, "extended", 1e-8, True),
    ])
    def test_outputs_are_bit_identical(self, monkeypatch, n, strategy, tol,
                                       oracle):
        op = _tridiag_op(n)
        f = catalog_function("power", -0.5)
        v = np.random.default_rng(21).standard_normal(n)
        iv = spectral_interval(op, mode="exact-small")
        ref = oracle_funv(op, f, v) if oracle else None
        on, off = self._both(monkeypatch, op, f, v, iv, strategy, tol=tol,
                             max_ell=200, oracle=ref)
        self._assert_identical(on, off)
        assert on.stop_reason == "tol" and on.ell > 20
        # The gate as this process's BLAS set-up decides it gives the same.
        self._assert_identical(
            funv_driver(op, f, v, iv, strategy, tol=tol, max_ell=200,
                        oracle=ref), off)

    def test_breakdown_row_is_bit_identical(self, monkeypatch):
        op = DiagonalOperator(np.repeat([1.0, 2.0, 3.0, 5.0], 5))
        on, off = self._both(monkeypatch, op, catalog_function("inverse"),
                             np.ones(20), (1.0, 5.0), "polynomial", tol=1e-14)
        self._assert_identical(on, off)
        assert on.stop_reason == "breakdown" and len(on.poles_used) == 4

    @staticmethod
    def _custom(at=None, pole=None):
        """``funv_driver``'s arguments for a pole list on a diagonal
        operator, with ``pole`` (by default a refused one, singular)
        inserted at index ``at``."""
        d = np.linspace(1.0, 10.0, 400)
        poles = [math.inf, -0.5] * 40
        if at is not None:
            poles.insert(at, float(d[7]) if pole is None else pole)
        v = np.random.default_rng(22).standard_normal(400)
        return (DiagonalOperator(d), catalog_function("power", -0.5), v,
                (1.0, 10.0), poles)

    def _serial_stop(self):
        res = funv_driver(*self._custom(), tol=1e-6)
        assert res.stop_reason == "tol"
        return len(res.poles_used)

    def test_refused_pole_after_the_stop_row_is_not_raised(self, monkeypatch):
        stop = self._serial_stop()
        on, off = self._both(monkeypatch, *self._custom(stop), tol=1e-6)
        self._assert_identical(on, off)
        assert len(on.poles_used) == stop and on.stop_reason == "tol"

    def test_complex_pole_after_the_stop_row_keeps_x_real(self, monkeypatch):
        # The discarded step turns the basis complex; x is still lifted
        # from the stop row's real columns.
        stop = self._serial_stop()
        on, off = self._both(monkeypatch, *self._custom(stop, -1.0 + 0.5j),
                             tol=1e-6)
        self._assert_identical(on, off)
        assert on.x.dtype == np.float64 and len(on.poles_used) == stop

    def test_refused_pole_before_the_stop_row_raises_as_serial(self,
                                                               monkeypatch):
        args = self._custom(self._serial_stop() - 3)
        errors = []
        for pays in (True, False):
            monkeypatch.setattr(rk, "_overlap_pays", lambda dec, pays=pays: pays)
            with pytest.raises(ValueError, match="singular") as info:
                funv_driver(*args, tol=1e-6)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_worker_thread_is_joined_on_return_and_raise(self, monkeypatch):
        stop = self._serial_stop()
        monkeypatch.setattr(rk, "_overlap_pays", lambda dec: True)
        before = threading.active_count()
        funv_driver(*self._custom(stop), tol=1e-6)
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="singular"):
            funv_driver(*self._custom(stop - 3), tol=1e-6)
        assert threading.active_count() == before

    @pytest.mark.parametrize("environ, cpus, spare", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
        ({"OMP_NUM_THREADS": "1"}, 4, True),
        ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "1"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "2"}, 4, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, False),
        ({}, 4, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
    ])
    def test_blas_gate(self, environ, cpus, spare):
        # The first variable OpenBLAS reads that holds a thread count
        # decides; unset, it takes every CPU.
        assert rk._blas_leaves_cpu(environ, cpus) is spare

    def test_size_gates(self, monkeypatch):
        monkeypatch.setattr(rk, "_SPARE_CPU", True)
        n = TestBasisBuffer.N_CHUNKED  # chunks of CHUNK_MIN_COLS = 32 columns
        op = _tridiag_op(n)
        v = np.random.default_rng(23).standard_normal(n)
        dec = RKDecomposition(op, v)
        seen = {}
        for sigma in _first("extended", 69):
            dec.extend([sigma])
            seen[dec.dim] = rk._overlap_pays(dec)
        assert rk.OVERLAP_MIN_DIM == 48
        assert not any(seen[m] for m in range(2, 48))  # below the order
        assert seen[48] and seen[63]
        assert not seen[64]  # the last chunk is full: the step opens one
        assert seen[65] and seen[70]
        monkeypatch.setattr(rk, "_SPARE_CPU", False)
        assert not rk._overlap_pays(dec)
        monkeypatch.setattr(rk, "_SPARE_CPU", True)
        small, _ = _grow_one_pole_at_a_time(_tridiag_op(2000), v[:2000],
                                            _first("extended", 69))
        assert not rk._overlap_pays(small)  # under OVERLAP_MIN_BYTES
