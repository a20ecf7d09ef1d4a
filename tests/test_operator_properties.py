"""Property tests: the four storages agree, and share one shift rule;
a rational Krylov space reproduces the rational functions of its poles.

Matrices are random symmetric band matrices of bandwidth at most 3, made
strictly diagonally dominant with a positive diagonal (so SPD, spectrum
above 0.1); each is built in every storage that can hold it.
"""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rkstieltjes import operators
from rkstieltjes.experiments import diffusion_operator
from rkstieltjes.operators import (
    BandedOperator,
    DenseOperator,
    DiagonalOperator,
    TridiagonalOperator,
    toeplitz_tridiagonal,
)
from rkstieltjes.poles import cauchy_poles, zolotarev_poles
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


def band_storages(ab, scale=1.0):
    """The operator scale*A in every band storage that can hold it, the
    most specialized first."""
    ab = scale * ab
    a = band_to_dense(ab)
    ops = [BandedOperator(ab)]
    if not np.tril(a, -2).any():
        ops.insert(0, TridiagonalOperator(np.diag(a), np.diag(a, -1)))
    if not np.tril(a, -1).any():
        ops.insert(0, DiagonalOperator(np.diag(a)))
    return ops


def storages(ab, scale=1.0):
    """The operator scale*A in every storage that can hold it, the most
    specialized first and dense last."""
    return band_storages(ab, scale) + [DenseOperator(band_to_dense(scale * ab))]


_shifted_norm = BandedOperator._shifted_norm


def _never(op, d, sigma):
    """``BandedOperator._shifted_norm`` with the dominance bound forced
    off: every shift takes the rcond route."""
    anorm, c, _ = _shifted_norm(op, d, sigma)
    return anorm, c, False


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
@given(spd_bands(min_n=3, max_n=40).filter(lambda ab: ab.shape[0] == 2),
       st.floats(1e-3, 10.0, **_floats), st.integers(0, 39),
       st.integers(0, 2**32 - 1))
def test_tridiagonal_routes_match_dense_storage(ab, gap, k, seed):
    # Left of the spectrum A - sigma*I is SPD: the L D L^T route, which
    # hands the shift rule the exact rcond where the dominance bound does
    # not clear it first (forced here; these draws are all dominant).  On
    # an eigenvalue it is indefinite or singular: the pivoted LU fallback.
    tri = TridiagonalOperator(ab[0], ab[1, :-1])
    dense = DenseOperator(band_to_dense(ab))
    w = np.linalg.eigvalsh(dense.a)
    b = np.random.default_rng(seed).standard_normal(tri.n)
    sigma = w[0] - gap
    m = dense.a - sigma * np.eye(tri.n)
    rconds = []
    rule = operators._require_regular

    def spy(shift, pivots, rcond=1.0):
        rconds.append(rcond)
        return rule(shift, pivots, rcond)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_require_regular", spy)
        mp.setattr(BandedOperator, "_shifted_norm", _never)
        got = tri.shifted_solve(sigma, b)
    np.testing.assert_allclose(got, dense.shifted_solve(sigma, b),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(tri.shifted_solve(sigma, b), got)
    exact = 1.0 / (np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1))
    np.testing.assert_allclose(rconds, [exact], rtol=1e-8)
    sigma = exact_eigenvalue(ab, k)
    assume(np.linalg.cond(dense.a - sigma * np.eye(tri.n)) >= 1e15)
    for op in (tri, dense):
        with pytest.raises(ValueError, match="near-singular"):
            op.shifted_solve(sigma, b)


@settings(max_examples=60, deadline=None)
@given(spd_bands(), st.integers(0, 9), shifts,
       st.sampled_from([2.0**-66, 2.0**66]))
# Powers of two scale A and sigma exactly, so an exactly singular
# A - sigma*I stays exactly singular; a scale of 1e-20 broke this example.
@example(ab=np.array([[1.0, 1.0], [2.220446049250313e-16, 0.0]]),
         k=0, sigma=-1.0, scale=2.0**-66)
# A - 1*I = [[0, t], [t, 0]] with t the smallest normal float: perfectly
# conditioned, but unscaled factors put its inverse near overflow.
@example(ab=np.array([[1.0, 1.0], [np.finfo(float).tiny, 0.0]]),
         k=0, sigma=0.0, scale=2.0**66)
def test_scaling_keeps_accept_or_refuse(ab, k, sigma, scale):
    for s in (exact_eigenvalue(ab, k), sigma):
        for op, scaled in zip(storages(ab), storages(ab, scale)):
            assert refuses(op, s) == refuses(scaled, scale * s)


def _dominance_spy(mp) -> list[bool]:
    """Record whether Varah's bound cleared each factorization's shift."""
    answers = []

    def spy(op, d, sigma):
        out = _shifted_norm(op, d, sigma)
        answers.append(out[2])
        return out

    mp.setattr(BandedOperator, "_shifted_norm", spy)
    return answers


def _rcond(a, sigma) -> float:
    m = a - sigma * np.eye(a.shape[0])
    return 1.0 / (np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1))


@settings(max_examples=60, deadline=None)
@given(spd_bands(), st.integers(0, 9), shifts | st.floats(-10.0, 40.0, **_floats),
       st.sampled_from([1.0, 2.0**-1000, 2.0**1000]))
def test_dominance_skip_keeps_accept_or_refuse(ab, k, sigma, scale):
    # Skipping the rcond where Varah's bound clears it accepts and refuses
    # the same shifts as the forced rcond route, at every scale down to the
    # bottom of the float range, and skips only truly well-conditioned ones.
    for s in (exact_eigenvalue(ab, k), sigma):
        for op in band_storages(ab, scale):
            with pytest.MonkeyPatch.context() as mp:
                cleared = _dominance_spy(mp)
                refused = refuses(op, scale * s)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(BandedOperator, "_shifted_norm", _never)
                assert refuses(op, scale * s) == refused
            if any(cleared):
                assert _rcond(band_to_dense(ab), s) > operators._SINGULAR_TOL


@pytest.mark.parametrize("op", [
    TridiagonalOperator(np.full(50, 2.0), np.full(49, -1.0)),
    BandedOperator([np.full(40, 6.0), np.full(40, -4.0), np.full(40, 1.0)]),
], ids=["tridiagonal", "band"])
def test_refused_shift_prints_its_rcond(op):
    # Just left of the spectrum: SPD, pivot ratio fine, rcond below the
    # rule's.  The text is the rcond route's (L D L^T exact, gbcon's
    # estimate for the band) with the skip allowed or forced off.
    w = np.linalg.eigvalsh(op.to_dense())
    sigma = w[0] - 1e-14 * w[-1]
    texts = []
    for allowed in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not allowed:
                mp.setattr(BandedOperator, "_shifted_norm", _never)
            with pytest.raises(ValueError, match="near-singular") as err:
                op.shifted_solve(sigma, np.ones(op.n))
        texts.append(str(err.value))
    assert texts[0] == texts[1]
    printed = float(texts[0].rsplit(" ", 1)[1].rstrip(")"))
    assert printed <= operators._SINGULAR_TOL
    if isinstance(op, TridiagonalOperator):
        assert printed == pytest.approx(_rcond(op.to_dense(), sigma), rel=0.06)


@pytest.mark.parametrize("make", [toeplitz_tridiagonal, diffusion_operator])
def test_dominance_skips_the_rcond_at_zolotarev_poles(make):
    # Every Zolotarev pole of the 1-D fixtures clears Varah's bound, so no
    # shift rule call and no rcond solve; sigma = 0 on the Laplacian, whose
    # interior rows have margin 0, never does.
    op = make(1500)
    ones = np.ones(op.n)
    poles = zolotarev_poles(op.exact_interval(), 25)
    with pytest.MonkeyPatch.context() as mp:
        rule_calls = []
        mp.setattr(operators, "_require_regular",
                   lambda *args: rule_calls.append(args))
        cleared = _dominance_spy(mp)
        for sigma in poles:
            op.shifted_solve(sigma, ones)
        assert cleared == [True] * len(poles) and rule_calls == []
        cleared.clear()
        toeplitz_tridiagonal(1500).shifted_solve(0.0, ones)
        assert cleared == [False] and len(rule_calls) == 1


def _norm_pass_spy(mp) -> list[bool]:
    """Record, per factorization, whether it ran the O(n) norm passes:
    ``_shifted_norm``'s own, or the exact norm of the rcond route after an
    O(1) answer (``_norm``)."""
    passes = []
    norm = BandedOperator._norm

    def spy(op, d, sigma):
        out = _shifted_norm(op, d, sigma)
        passes.append(out[0] is not None)
        return out

    def spy_norm(op, sigma):
        passes.append(True)
        return norm(op, sigma)

    mp.setattr(BandedOperator, "_shifted_norm", spy)
    mp.setattr(BandedOperator, "_norm", spy_norm)
    return passes


@pytest.mark.parametrize("make", [toeplitz_tridiagonal, diffusion_operator])
def test_stieltjes_poles_skip_the_norm_passes(make):
    # Every Zolotarev and Cauchy pole lies below the lower Gershgorin end
    # (0 on these Laplacians) by a margin, so its shift check is O(1);
    # sigma = 0 has alpha = 0 and runs the passes.
    op = make(2000)
    ones = np.ones(op.n)
    iv = op.exact_interval()
    poles = [*zolotarev_poles(iv, 30), *cauchy_poles(iv, 30)]
    with pytest.MonkeyPatch.context() as mp:
        passes = _norm_pass_spy(mp)
        for sigma in poles:
            op.shifted_solve(sigma, ones)
        assert passes == [False] * len(poles)
        passes.clear()
        op.shifted_solve(0.0, ones)
        assert passes == [True]


def _o_n_route(op):
    """A copy of ``op`` whose shift checks all run the O(n) passes: no
    shift lies at or below a lower Gershgorin end of -inf."""
    slow = copy.copy(op)
    slow._gl = -math.inf
    return slow


def _seen(op, sigma, b, forced_rcond):
    """What a factorization at sigma shows: the solve's bits or the
    refusal's text, the dominance answers and the rconds the shift rule
    got (not for diagonal storage, which calls the rule only to refuse
    and has no rcond), with the rcond route forced or not.  A copy
    factors, so the factor cache hides nothing."""
    op, rconds, rule = copy.copy(op), [], operators._require_regular

    def spy(shift, pivots, rcond=1.0):
        rconds.append(float(rcond).hex())  # its bits, NaN included
        return rule(shift, pivots, rcond)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_require_regular", spy)
        answers = _dominance_spy(mp)
        if forced_rcond:  # over the spy, which still records the answers
            answering = BandedOperator._shifted_norm
            mp.setattr(BandedOperator, "_shifted_norm",
                       lambda op, d, s: (*answering(op, d, s)[:2], False))
        try:
            out = op.shifted_solve(sigma, b).tobytes()
        except ValueError as err:
            out = str(err)
    return out, answers, None if isinstance(op, DiagonalOperator) else rconds


def _near(sigma, steps):
    return [sigma + j * math.ulp(sigma) for j in steps]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spd_bands(), st.booleans(),
       st.sampled_from([1.0, 2.0**-1000, 2.0**1000, 2.0**-256, 2.0**256,
                        2.0**-252, 2.0**252, 2.0**-249, 2.0**249]),
       st.floats(0.0, 100.0, **_floats), st.integers(-16, 16))
def test_o1_shift_check_matches_the_o_n_passes(ab, laplacian, scale, far, j):
    # Below the lower Gershgorin end gl the shift check reads the two ends
    # alone.  It gives the O(n) passes' decisions, solves and texts bit for
    # bit: at gl and one float either side of it, near the threshold
    # alpha = 2 tol ||M||_1 and the O(1) route's margin above it, far
    # below gl and inside the Gershgorin discs, at scales that do and do
    # not need ``_unit_scale``, and with gl near 0 (as on a Laplacian; a
    # diagonal entry may be 0).
    if laplacian:
        ab = ab.copy()
        ab[0] -= BandedOperator(ab).gershgorin().lower
    tol, eps = operators._SINGULAR_TOL, np.finfo(float).eps
    for op in band_storages(ab, scale):
        gl, gu = op.gershgorin()
        b = np.linspace(-1.0, 2.0, op.n)
        # alpha = 2 tol ||M||_1, and alpha - 2 tol ||M||_1 = the margin
        # 8 eps (|gl| + |gu| + |sigma|), whose sigma has the sign of `edge`.
        threshold = (gl - 2 * tol * gu) / (1 - 2 * tol)
        edge = gl - 2 * tol * gu - 8 * eps * (abs(gl) + abs(gu))
        margin = edge / (1 - 2 * tol + math.copysign(8 * eps, edge))
        shifts = [gl, math.nextafter(gl, -math.inf), math.nextafter(gl, math.inf),
                  gl - scale * far, *_near(threshold, (j, -j)),
                  *_near(margin, (j, -j)), 0.5 * (gl + gu), gu]
        for sigma in shifts:
            for forced in (False, True):
                assert (_seen(op, sigma, b, forced)
                        == _seen(_o_n_route(op), sigma, b, forced)), sigma


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


def _band_ends(ab):
    """The unpadded extreme eigenvalues from ``eigvals_banded``, the
    reference of the band interval."""
    w = operators.sla.eigvals_banded(ab, lower=True)
    return w[0], w[-1]


def _refuse(*args, **kwargs):
    raise AssertionError("eigvals_banded reached")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spd_bands(max_n=40), st.sampled_from([1.0, 2.0**600, 2.0**-600]))
def test_band_interval_encloses_the_eigensolver_ends(ab, scale):
    # The inertia brackets, every draw held in band storage, at scales
    # that need ``_unit_scale``: the eigensolver's ends lie inside, within
    # 1e-10 relative; the eigensolver is not called and no RuntimeWarning
    # is emitted.
    op = BandedOperator(scale * ab)
    lo, hi = _band_ends(op.ab)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(operators.sla, "eigvals_banded", _refuse)
        warnings.simplefilter("error", RuntimeWarning)
        iv = op.exact_interval()
    assert iv.lower <= lo and hi <= iv.upper
    assert iv.lower >= lo - 1e-10 * lo and iv.upper <= hi + 1e-10 * hi


def _refusal(interval) -> str:
    with pytest.raises(ValueError) as exc:
        operators.positive_interval(interval)
    return str(exc.value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spd_bands(max_n=40), st.booleans(), st.floats(0.01, 1.0, **_floats))
def test_band_interval_of_an_unfactorable_band_is_the_eigensolvers(
        ab, singular, at):
    # A graph Laplacian (off-diagonals <= 0, zero row sums: singular), or
    # the band shifted so that its smallest eigenvalue is negative.  The
    # interval is the eigensolver's, and so is its refusal text.
    ab = ab.copy()
    if singular:
        ab[1:] = -np.abs(ab[1:])
        ab[0] = 0.0
        ab[0] = BandedOperator(ab)._radii
    else:
        lo, hi = _band_ends(ab)
        ab[0] -= lo + at * (hi - lo)
    op = BandedOperator(ab)
    want = operators._enclose(*_band_ends(op.ab))
    iv = op.exact_interval()
    assert iv == want
    assert _refusal(iv) == _refusal(want)


@pytest.mark.parametrize("budget", [1, operators._BRACKET_BUDGET])
def test_band_interval_keeps_to_its_factorization_budget(budget, monkeypatch):
    # At most the budget per end; one factorization cannot close a bracket
    # that starts at the Gershgorin end, so it falls back to the
    # eigensolver.
    ab = np.zeros((4, 60))
    ab[0], ab[1, :-1], ab[3, :-3] = np.linspace(3.0, 9.0, 60), -1.0, 0.5
    op = BandedOperator(ab)
    calls, real = [], operators._band_cholesky
    monkeypatch.setattr(operators, "_band_cholesky",
                        lambda *args: calls.append(args[1]) or real(*args))
    monkeypatch.setattr(operators, "_BRACKET_BUDGET", budget)
    iv = op.exact_interval()
    assert len(calls) <= 2 * budget
    lo, hi = _band_ends(op.ab)
    if budget == 1:
        assert iv == operators._enclose(lo, hi)
    else:
        assert iv.lower <= lo and hi <= iv.upper


@pytest.mark.parametrize("m", [32, 70])
def test_five_point_laplacian_interval_by_inertia(m, monkeypatch):
    # funv-mtx-dense's 32 x 32 grid and the 70 x 70 one (n = 4900, k = 70),
    # against the closed form 4 - 2 cos(i t) - 2 cos(j t), t = pi/(m + 1):
    # 8 sin^2(t/2) and 8 cos^2(t/2) at the ends.
    n = m * m
    ab = np.zeros((m + 1, n))
    ab[0], ab[m, :n - m] = 4.0, -1.0
    ab[1, :n - 1] = np.where(np.arange(1, n) % m, -1.0, 0.0)
    monkeypatch.setattr(operators.sla, "eigvals_banded", _refuse)
    iv = BandedOperator(ab).exact_interval()
    t = math.pi / (m + 1)
    lo, hi = 8.0 * math.sin(t / 2) ** 2, 8.0 * math.cos(t / 2) ** 2
    assert lo * (1 - 1e-10) <= iv.lower <= lo
    assert hi <= iv.upper <= hi * (1 + 1e-10)
