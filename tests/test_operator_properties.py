"""Property tests: the four storages agree, and share one shift rule;
a rational Krylov space reproduces the rational functions of its poles.

Matrices are random symmetric band matrices of bandwidth at most 3, made
strictly diagonally dominant with a positive diagonal (so SPD, spectrum
above 0.1); each is built in every storage that can hold it.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rkstieltjes.operators import (
    BandedOperator,
    DenseOperator,
    DiagonalOperator,
    TridiagonalOperator,
)
from rkstieltjes.rk import exactness_check

_floats = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


def band_to_dense(ab):
    """The symmetric matrix of the lower band form ab[i, j] = A[j + i, j]."""
    n = ab.shape[1]
    a = np.diag(ab[0])
    for i in range(1, ab.shape[0]):
        a += np.diag(ab[i, :n - i], -i) + np.diag(ab[i, :n - i], i)
    return a


@st.composite
def spd_bands(draw, min_n=1, max_n=10):
    """Lower band form ab, (k + 1) x n, of an SPD band matrix; k = 1 (the
    tridiagonal case) in half the draws and 2 or 3 otherwise, capped at
    n - 1, the unused tail ab[i, n - i:] holds junk, and the off-diagonals
    are all zero in about a third of the draws."""
    n = draw(st.integers(min_n, max_n))
    k = min(draw(st.sampled_from([1, 1, 2, 3])), n - 1)
    ab = np.array(draw(st.lists(st.floats(-1.0, 1.0, **_floats),
                                min_size=(k + 1) * n, max_size=(k + 1) * n)),
                  dtype=float).reshape(k + 1, n)
    if draw(st.integers(0, 2)) == 0:
        ab[1:] = 0.0
    ab[0] = 0.0
    radii = np.abs(band_to_dense(ab)).sum(axis=1)
    ab[0] = np.array(draw(st.lists(st.floats(0.1, 10.0, **_floats),
                                   min_size=n, max_size=n))) + radii
    return ab


def storages(ab, scale=1.0):
    """The operator scale*A in every storage that can hold it, the most
    specialized first and dense last."""
    ab = scale * ab
    a = band_to_dense(ab)
    ops = [BandedOperator(ab), DenseOperator(a)]
    if not np.tril(a, -2).any():
        ops.insert(0, TridiagonalOperator(np.diag(a), np.diag(a, -1)))
    if not np.tril(a, -1).any():
        ops.insert(0, DiagonalOperator(np.diag(a)))
    return ops


def refuses(op, sigma) -> bool:
    try:
        op.shifted_solve(sigma, np.ones(op.n))
    except ValueError:
        return True
    return False


def exact_eigenvalue(ab, k):
    a = band_to_dense(ab)
    if not np.tril(a, -1).any():
        return float(ab[0, k % ab.shape[1]])
    w = np.linalg.eigvalsh(a)
    return float(w[k % w.size])


shifts = st.one_of(
    st.floats(-10.0, 0.0, **_floats),  # real, below the spectrum
    st.builds(complex, st.floats(-10.0, 10.0, **_floats),
              st.floats(0.1, 10.0, **_floats) | st.floats(-10.0, -0.1, **_floats)),
)


@settings(max_examples=60, deadline=None)
@given(spd_bands(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_matvec_agrees_across_storages(ab, width, seed):
    ops = storages(ab)
    x = np.random.default_rng(seed).standard_normal((ops[0].n, width))
    want = ops[-1].matvec(x)
    for op in ops:
        np.testing.assert_allclose(op.matvec(x), want, rtol=1e-13, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(spd_bands(), shifts, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_shifted_solve_agrees_across_storages(ab, sigma, width, seed):
    ops = storages(ab)
    b = np.random.default_rng(seed).standard_normal((ops[0].n, width))
    want = np.linalg.solve(ops[-1].to_dense() - sigma * np.eye(ops[-1].n), b)
    for op in ops:
        got = op.shifted_solve(sigma, b)
        assert got.shape == b.shape
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(spd_bands(), st.integers(0, 9))
def test_exact_eigenvalue_is_refused_by_every_storage(ab, k):
    sigma = exact_eigenvalue(ab, k)
    ops = storages(ab)
    # A computed eigenvalue is exact to rounding relative to ||A||, which is
    # not always singular relative to ||A - sigma*I||: for d = [1, 1] and
    # e = [1e-70], A - 1*I = 1e-70 * [[0, 1], [1, 0]] is perfectly
    # conditioned.  Such draws test nothing and are skipped.
    assume(np.linalg.cond(ops[-1].to_dense() - sigma * np.eye(ops[-1].n)) >= 1e15)
    for op in ops:
        with pytest.raises(ValueError, match="near-singular"):
            op.shifted_solve(sigma, np.ones(op.n))


@settings(max_examples=60, deadline=None)
@given(spd_bands(), st.integers(0, 9), shifts,
       st.sampled_from([2.0**-66, 2.0**66]))
# Powers of two scale A and sigma exactly, so an exactly singular
# A - sigma*I stays exactly singular; a scale of 1e-20 broke this example.
@example(ab=np.array([[1.0, 1.0], [2.220446049250313e-16, 0.0]]),
         k=0, sigma=-1.0, scale=2.0**-66)
def test_scaling_keeps_accept_or_refuse(ab, k, sigma, scale):
    for s in (exact_eigenvalue(ab, k), sigma):
        for op, scaled in zip(storages(ab), storages(ab, scale)):
            assert refuses(op, s) == refuses(scaled, scale * s)


@st.composite
def pole_mixes(draw):
    """1-7 negative poles in -10^[-3, 2], sometimes one of them repeated,
    and 0-3 infinite poles, in a random order."""
    finite = draw(st.lists(st.floats(-3.0, 2.0, **_floats),
                           min_size=1, max_size=7))
    poles = [-10.0 ** x for x in finite]
    if draw(st.booleans()):
        poles.append(draw(st.sampled_from(poles)))
    poles += [np.inf] * draw(st.integers(0, 3))
    return draw(st.permutations(poles))


@settings(max_examples=60, deadline=None)
@given(spd_bands(min_n=3, max_n=80), pole_mixes(),
       st.integers(0, 2**32 - 1))
def test_exactness_check_on_random_spaces(ab, poles, seed):
    # The threshold is acceptance criterion 1's.
    op = storages(ab)[0]
    v = np.random.default_rng(seed).standard_normal(op.n)
    assert exactness_check(op, v, poles).max_rel_err <= 1e-9
