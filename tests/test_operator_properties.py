"""Property tests: the three storages agree, and share one shift rule.

Matrices are random symmetric tridiagonals made strictly diagonally
dominant with a positive diagonal (so SPD, spectrum above 0.1), plus their
diagonal special case; each is built in every storage that can hold it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkstieltjes.operators import DenseOperator, DiagonalOperator, TridiagonalOperator

_floats = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def spd_tridiagonals(draw):
    """(d, e) of an SPD tridiagonal; e == 0 in about a third of the draws."""
    n = draw(st.integers(1, 10))
    e = np.array(draw(st.lists(st.floats(-1.0, 1.0, **_floats),
                               min_size=n - 1, max_size=n - 1)), dtype=float)
    if draw(st.integers(0, 2)) == 0:
        e[:] = 0.0
    base = np.array(draw(st.lists(st.floats(0.1, 10.0, **_floats),
                                  min_size=n, max_size=n)))
    radii = np.zeros(n)
    radii[:-1] += np.abs(e)
    radii[1:] += np.abs(e)
    return base + radii, e


def storages(d, e, scale=1.0):
    """The operator scale*T in every storage that can hold it."""
    d, e = scale * d, scale * e
    a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ops = [TridiagonalOperator(d, e), DenseOperator(a)]
    if not np.any(e):
        ops.append(DiagonalOperator(d))
    return ops


def refuses(op, sigma) -> bool:
    try:
        op.shifted_solve(sigma, np.ones(op.n))
    except ValueError:
        return True
    return False


def exact_eigenvalue(d, e, k):
    if not np.any(e):
        return float(d[k % d.size])
    w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    return float(w[k % w.size])


shifts = st.one_of(
    st.floats(-10.0, 0.0, **_floats),  # real, below the spectrum
    st.builds(complex, st.floats(-10.0, 10.0, **_floats),
              st.floats(0.1, 10.0, **_floats) | st.floats(-10.0, -0.1, **_floats)),
)


@settings(max_examples=60, deadline=None)
@given(spd_tridiagonals(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_matvec_agrees_across_storages(de, width, seed):
    ops = storages(*de)
    x = np.random.default_rng(seed).standard_normal((ops[0].n, width))
    want = ops[1].matvec(x)
    for op in ops:
        np.testing.assert_allclose(op.matvec(x), want, rtol=1e-13, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(spd_tridiagonals(), shifts, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_shifted_solve_agrees_across_storages(de, sigma, width, seed):
    ops = storages(*de)
    b = np.random.default_rng(seed).standard_normal((ops[0].n, width))
    want = np.linalg.solve(ops[1].to_dense() - sigma * np.eye(ops[1].n), b)
    for op in ops:
        got = op.shifted_solve(sigma, b)
        assert got.shape == b.shape
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(spd_tridiagonals(), st.integers(0, 9))
def test_exact_eigenvalue_is_refused_by_every_storage(de, k):
    sigma = exact_eigenvalue(*de, k)
    ops = storages(*de)
    # A computed eigenvalue is exact to rounding relative to ||A||, which is
    # not always singular relative to ||A - sigma*I||: for d = [1, 1] and
    # e = [1e-70], A - 1*I = 1e-70 * [[0, 1], [1, 0]] is perfectly
    # conditioned.  Such draws test nothing and are skipped.
    assume(np.linalg.cond(ops[1].to_dense() - sigma * np.eye(ops[1].n)) >= 1e15)
    for op in ops:
        with pytest.raises(ValueError, match="near-singular"):
            op.shifted_solve(sigma, np.ones(op.n))


@settings(max_examples=60, deadline=None)
@given(spd_tridiagonals(), st.integers(0, 9), shifts,
       st.sampled_from([1e-20, 1e20]))
def test_scaling_keeps_accept_or_refuse(de, k, sigma, scale):
    for s in (exact_eigenvalue(*de, k), sigma):
        for op, scaled in zip(storages(*de), storages(*de, scale)):
            assert refuses(op, s) == refuses(scaled, scale * s)
