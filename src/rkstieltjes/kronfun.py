"""Matrix functions of Kronecker sums with low-rank right-hand sides.

For symmetric A (m x m), B (n x n) and F = U_F V_F^T of rank k, the target
is the m x n matrix X with vec(X) = f(I (x) A + B (x) I) vec(F).  Both
Kronecker factors are projected onto small rational Krylov spaces -- A
against the left poles, -B against the ``mirror`` images of the right
poles, which is the same space as B^T against the right poles -- and the
compressed problem is solved by double diagonalization.  X never gets
formed at full size unless explicitly materialized.  The factors are
real; error curves against a dense reference are the harness's
(``experiments.timed_sweep`` over ``kron_iterates``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.linalg as sla

from .bounds import singular_value_bound, sylvester_residual_bound
from .functions import StieltjesFunction
from . import operators
from .operators import (HermitianOperator, SpectralInterval, as_block, as_poles,
                        count, finite, positive_interval)
from .rk import RKDecomposition, build_together, grow, rk_build
from .strategies import KronPair, mirror

__all__ = [
    "KroneckerProblem",
    "KroneckerResult",
    "kron_problem",
    "kron_fun",
    "kron_iterates",
    "funm_diag",
    "sylvester_residual",
    "residual_bound",
    "dense_kron_solution",
    "singular_decay_report",
]


@dataclass(frozen=True)
class KroneckerProblem:
    """Inputs of the two-sided problem.

    ``bneg_op`` acts as -B: spectra of ``a_op`` and ``bneg_op`` must both
    sit inside ``interval`` on the positive axis so that every eigenvalue
    difference lambda_A - lambda_B stays in the function's domain; an
    (a, b) pair is stored as ``operators.positive_interval`` reads it.
    """

    a_op: HermitianOperator
    bneg_op: HermitianOperator
    u_factor: np.ndarray
    v_factor: np.ndarray
    f: StieltjesFunction
    interval: SpectralInterval

    def __post_init__(self):
        # The one coercion of the factors: real float blocks, with a 1-D
        # vector read as one column.
        for name, op, side in (("u_factor", self.a_op, "left"),
                               ("v_factor", self.bneg_op, "right")):
            m, _ = as_block(getattr(self, name))
            if np.iscomplexobj(m):
                raise ValueError(f"{name} is complex; the Kronecker solver "
                                 "takes real factors")
            if m.size == 0:
                raise ValueError(f"{name} has no columns; the Kronecker solver "
                                 "takes factors of rank >= 1")
            m = finite(m.astype(float, copy=False), name)
            if m.shape[0] != op.n:
                raise ValueError(f"{name} rows must match the {side} "
                                 "operator order")
            object.__setattr__(self, name, m)
        if self.u_factor.shape[1] != self.v_factor.shape[1]:
            raise ValueError("u_factor and v_factor must share the rank dimension")
        object.__setattr__(self, "interval", positive_interval(self.interval))

    @property
    def rank(self) -> int:
        return self.u_factor.shape[1]

    def rhs_norm2(self) -> float:
        """||F||_2 = ||U_F V_F^T||_2 without forming F."""
        ru = np.linalg.qr(self.u_factor, mode="r")
        rv = np.linalg.qr(self.v_factor, mode="r")
        return float(np.linalg.norm(ru @ rv.T, ord=2))


@dataclass(frozen=True)
class KroneckerResult:
    """Low-rank approximation X ~ left @ core @ right^T with orthonormal
    left/right factors, so ||X||_2 == ||core||_2 and singular values of the
    approximation are those of the core.

    ``projections`` is the pair (U*AU, V*(-B)V) that the double
    diagonalization read, the small matrices whose eigenvalues are the
    Ritz values of both sides; ``sylvester_residual`` splits the operator
    images with it in O(n m k).  A result built without it (None) has its
    whole images split there, in O(n (m + k)^2)."""

    left: np.ndarray
    right: np.ndarray
    core: np.ndarray
    poles_left: tuple
    poles_right: tuple
    projections: tuple | None = None

    @property
    def storage_rank(self) -> int:
        return self.core.shape[0]

    def materialize(self) -> np.ndarray:
        return self.left @ self.core @ self.right.conj().T

    def norm2(self) -> float:
        return float(np.linalg.norm(self.core, ord=2))


def kron_problem(a_op: HermitianOperator, bneg_op: HermitianOperator,
                 u_factor: np.ndarray, v_factor: np.ndarray,
                 f: StieltjesFunction,
                 interval: SpectralInterval | None = None) -> KroneckerProblem:
    """Assemble a problem; ``interval=None`` is the hull of the exact
    intervals of A and -B (one enclosure when they are one operator)."""
    if interval is None:
        interval = a_op.exact_interval()
        if bneg_op is not a_op:
            interval = interval.hull(bneg_op.exact_interval())
    return KroneckerProblem(a_op, bneg_op, u_factor, v_factor, f, interval)


def funm_diag(f: Callable[[np.ndarray], np.ndarray], a_small: np.ndarray,
              b_small: np.ndarray, f_small: np.ndarray) -> np.ndarray:
    """Evaluate the compressed solution by double diagonalization.

    With A = Q_A D_A Q_A^* and B = Q_B D_B Q_B^*, the (i, j) entry of the
    rotated right-hand side is scaled by f evaluated at the eigenvalue
    difference (D_A)_ii - (D_B)_jj; a difference outside f's domain is a
    modelling error in the caller's intervals and is reported as such.
    """
    a_small = np.asarray(a_small)
    b_small = np.asarray(b_small)
    wa, qa = np.linalg.eigh(0.5 * (a_small + a_small.conj().T))
    wb, qb = np.linalg.eigh(0.5 * (b_small + b_small.conj().T))
    diff = wa[:, None] - wb[None, :]
    if isinstance(f, StieltjesFunction):
        low = diff.min() + f.shift
        if low <= 0.0:
            i, j = np.unravel_index(np.argmin(diff), diff.shape)
            raise ValueError(
                "eigenvalue difference "
                f"{wa[i]:.6g} - ({wb[j]:.6g}) = {diff[i, j]:.6g} leaves the "
                "function domain (argument must stay positive); widen the "
                "interval or add a spectral shift")
    vals = np.asarray(f(diff), dtype=float)
    if not np.all(np.isfinite(vals)):
        i, j = np.unravel_index(int(np.argmax(~np.isfinite(vals))), vals.shape)
        raise ValueError(
            f"f evaluated at eigenvalue difference {diff[i, j]:.6g} "
            "is not finite")
    rotated = qa.conj().T @ np.asarray(f_small) @ qb
    return qa @ (vals * rotated) @ qb.conj().T


def kron_fun(problem: KroneckerProblem, left_poles, right_poles,
             ell: int | None = None) -> KroneckerResult:
    """Project both sides and solve the compressed problem.

    ``left_poles`` drive the space for A seeded with U_F; ``right_poles``
    are the poles for B^T seeded with V_F, realized on -B as their
    ``mirror`` images (the two spaces coincide).  ``ell`` truncates both
    pole lists; omitted, the full lists are offered.  A basis that closes
    early (total deflation) consumes fewer, and the result lists the poles
    each side consumed.  A NaN (``operators.as_poles``) or an empty list
    is refused before any work.  Shifts on -B equal to the left poles, as
    from every pair of ``KRON_PAIRS``, grow both bases in lock-step
    (``rk.build_together``); other lists build one side after the other,
    so two shift sequences never interleave on one operator.
    """
    left = as_poles(left_poles, "left_poles")
    right = as_poles(right_poles, "right_poles")
    count(min(len(left), len(right)), "pole counts")
    if ell is not None:
        if count(ell, "ell") > min(len(left), len(right)):
            raise ValueError(
                f"ell={ell} exceeds the supplied pole counts "
                f"({len(left)} left, {len(right)} right)")
        left, right = left[:ell], right[:ell]
    shifts = [mirror(p) for p in right]
    seeds = [(problem.a_op, problem.u_factor), (problem.bneg_op, problem.v_factor)]
    if shifts == left:
        dec_u, dec_v = build_together(seeds, left)
    else:
        dec_u, dec_v = (rk_build(op, v, poles)
                        for (op, v), poles in zip(seeds, (left, shifts)))
    return _solve_projected(problem, dec_u, dec_v)


def _solve_projected(problem: KroneckerProblem, dec_u: RKDecomposition,
                     dec_v: RKDecomposition) -> KroneckerResult:
    """Solve the problem compressed onto the bases of A (``dec_u``) and of
    -B (``dec_v``) by double diagonalization.  The result lists the poles
    each basis consumed, those of -B's basis as the right poles (for B^T)
    they stand for."""
    a_small = dec_u.reduced_matrix()
    b_small = -dec_v.reduced_matrix()  # projection of B in the shared basis
    f_small = dec_u.reduced_seed() @ dec_v.reduced_seed().conj().T
    core = funm_diag(problem.f, a_small, b_small, f_small)
    bneg_small = np.negative(b_small, out=b_small)  # V*(-B)V, exactly
    return KroneckerResult(left=dec_u.basis, right=dec_v.basis, core=core,
                           poles_left=tuple(dec_u.poles_used),
                           poles_right=tuple(map(mirror, dec_v.poles_used)),
                           projections=(a_small, bneg_small))


def kron_iterates(problem: KroneckerProblem, pair: KronPair,
                  counts: Iterable[int]) -> Iterator[KroneckerResult]:
    """Yield ``kron_fun(problem, *pair.poles(problem.interval, count))``
    at each pole count in the increasing ``counts``: the two-seed case of
    ``rk.grow``, seeds (A, U_F) and (-B, V_F), so a nested pair builds L
    blocks per side for a sweep to L.  Earlier results keep their values.
    """
    seeds = [(problem.a_op, problem.u_factor),
             (problem.bneg_op, problem.v_factor)]
    steps = grow(pair, problem.interval, counts, seeds)
    return (_solve_projected(problem, dec_u, dec_v) for dec_u, dec_v in steps)


def sylvester_residual(problem: KroneckerProblem,
                       result: KroneckerResult) -> float:
    """||A X - X B - F||_2 for the rank-structured approximation X = U Y V*,
    never forming an m x n matrix.

    The residual is [AU Y, U Y, U_F] [V, (-B)V, -V_F]*.  Each side splits
    (``_split``) [AU, U_F] = U [H, E] + Q [R_a, R_x], with Q orthonormal
    and orthogonal to U, and likewise (-B)V = V H_n + Q' R_n,
    V_F = V E_v + Q' R_v.  So the residual is [U, Q] L K* [V, Q']* with
    L = [[H Y, Y, E], [R_a Y, 0, R_x]] and K = [[I, H_n, -E_v],
    [0, R_n, -R_v]], and its 2-norm is that of the small L K*, (2m + k)
    columns wide, m the basis width and k the rank.

    For a rational Krylov basis U of A seeded with U_F, (I - UU*)AU has
    rank at most k and U_F lies in span U, so Q needs only 3k columns: with
    H the stored projection, a side costs O(n m k) flops and holds O(n k)
    numbers.  A seeded Gaussian probe checks that split, and where it
    leaves more than ``SPLIT_TOL`` sqrt(n) times the interval's upper end
    (a bound on ||A|| and ||B||) outside [U, Q], or the result stores no
    projections, the side splits the whole image AU instead: O(n (m + k)^2)
    flops and one n x (m + k) work block.  That is the route of a result
    built without projections and of a basis of another space (one that
    is not the rational Krylov basis of its side).  On ``kron_fun``'s own
    results the probe accepts the structured split on all but a rare side
    where it reads just above its line, which then costs the whole split
    and gets the same value (README).  Either way the value is the
    residual of X to within about 2 SPLIT_TOL sqrt(n) upper ||X||, besides
    the rounding of the sums that form it.  A result whose factors or
    projections do not fit the problem raises ValueError.
    """
    _check_fits(problem, result)
    u, v, y = result.left, result.right, result.core
    hu, hv = result.projections or (None, None)
    upper = problem.interval.upper
    h, e, ra, rx = _split(u, problem.a_op, problem.u_factor, hu, upper)
    hn, ev, rn, rv = _split(v, problem.bneg_op, problem.v_factor, hv, upper)
    mv = v.shape[1]
    left = np.block([[h @ y, y, e],
                     [ra @ y, np.zeros((ra.shape[0], mv)), rx]])
    right = np.block([[np.eye(mv), hn, -ev],
                      [np.zeros((rn.shape[0], mv)), rn, -rv]])
    return float(np.linalg.norm(left @ right.conj().T, ord=2))


#: How much of op(U g) the structured split of ``sylvester_residual`` may
#: leave outside [U, Q], g its standard Gaussian probe, as a fraction of
#: sqrt(n) times the interval's upper end: the rounding of an n-term inner
#: product, where bases that keep their orthogonality read 3-8 times less
#: from n = 30 to 3e5, though up to about the line itself at n = 800,
#: rank 3, ell = 25 (1.08 times it on one side).  In expectation the probe
#: reads ||M||_F >= ||M||_2 of the part M of op U left out, which changes
#: the residual by at most ||M||_2 ||X||; the whole image is split where
#: the probe reads more.
SPLIT_TOL = 16 * np.finfo(float).eps

#: Seed of the Gaussian sketch and probe of ``_split``.
_SKETCH_SEED = 2011


def _split(basis: np.ndarray, op: HermitianOperator, factor: np.ndarray,
           h: np.ndarray | None, upper: float) -> tuple[np.ndarray, ...]:
    """H, E, R_a and R_x with [op basis, factor] = basis [H, E] + Q [R_a,
    R_x], Q orthonormal and orthogonal to ``basis``.

    Given the projection ``h`` = U* op U, Q orthonormalizes the remainder
    of [op U G, factor], G a seeded Gaussian m x 2k sketch: the range of
    (I - UU*) op U has rank at most k for a rational Krylov basis, and G
    mixes every column of U into it, whichever carries a direction.  Then
    R_a = (op Q)*U - (Q*U) H and R_x = Q*factor - (Q*U) E read Q against
    the exact images, so a Q that rounding left off orthogonality still
    splits them.  A probe g accepts this split when the norm of
    op U g - U H g - Q R_a g is at most SPLIT_TOL sqrt(n) upper.
    Otherwise, or without ``h``, the whole image is split: H and E are the
    coefficients of [op U, factor] and [R_a, R_x] the R factor of its
    remainder, Q never formed.  That route serves a result without
    projections and a basis that is not the rational Krylov basis of
    ``op`` and ``factor``; a ``kron_fun`` basis takes the sketch but on a
    rare probe that reads just above its line."""
    n, m = basis.shape
    k = factor.shape[1]
    if h is not None:
        rng = np.random.default_rng(_SKETCH_SEED)
        sketch = rng.standard_normal((m, min(m, 2 * k)))
        g = rng.standard_normal(m)
        coef, work = _remainder(basis, op, sketch, factor)
        q, _ = sla.qr(work, mode="economic", overwrite_a=True,
                      check_finite=False)
        del work
        e = coef[:, -k:]
        qu = q.conj().T @ basis
        ra = -(qu @ h)
        for lo in range(0, q.shape[1], k):  # n x k matvec temporaries
            ra[lo:lo + k] += op.matvec(q[:, lo:lo + k]).conj().T @ basis
        rx = q.conj().T @ factor - qu @ e
        image = op.matvec(basis @ g)
        miss = np.linalg.norm(image - basis @ (h @ g) - q @ (ra @ g))
        if miss <= SPLIT_TOL * math.sqrt(n) * upper:
            return h, e, ra, rx
        del q, image
    coef, work = _remainder(basis, op, None, factor)
    _, r = sla.qr(work, overwrite_a=True, mode="raw", check_finite=False)
    return coef[:, :m], coef[:, m:], r[:, :m], r[:, m:]


def _remainder(basis: np.ndarray, op: HermitianOperator,
               sketch: np.ndarray | None, factor: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients C of W = [op basis sketch, factor] in the orthonormal
    ``basis``, by two classical Gram-Schmidt passes, and the remainder
    W - basis C, in one Fortran-ordered work block; ``sketch`` None stands
    for the identity."""
    # op's image before the work block: matvecs take temporaries.
    image = op.matvec(basis if sketch is None else basis @ sketch)
    c = image.shape[1]
    work = np.empty((basis.shape[0], c + factor.shape[1]),
                    dtype=np.result_type(basis, factor), order="F")
    work[:, :c] = image
    work[:, c:] = factor
    del image
    coef = basis.conj().T @ work
    work -= basis @ coef
    again = basis.conj().T @ work
    work -= basis @ again
    return coef + again, work


def _check_fits(problem: KroneckerProblem, result: KroneckerResult) -> None:
    """Refuse a result of another problem: its factors' rows must match the
    orders of A and -B, its core the factors' widths, and a stored
    projection its factor's width on both sides."""
    shape = {name: np.shape(getattr(result, name))
             for name in ("left", "right", "core")}
    for name, op, what in (("left", problem.a_op, "A"),
                           ("right", problem.bneg_op, "-B")):
        if len(shape[name]) != 2 or shape[name][0] != op.n:
            raise ValueError(f"result.{name} has shape {shape[name]}, but "
                             f"{what} has order {op.n}: the result is not "
                             "of this problem")
    want = (shape["left"][1], shape["right"][1])
    if shape["core"] != want:
        raise ValueError(f"result.core has shape {shape['core']}, but its "
                         f"factors' widths need {want}")
    if result.projections is None:
        return
    if len(result.projections) != 2:
        raise ValueError("result.projections must be the pair "
                         "(U*AU, V*(-B)V)")
    for i, (side, width) in enumerate(zip(("left", "right"), want)):
        got = np.shape(result.projections[i])
        if got != (width, width):
            raise ValueError(f"result.projections[{i}] has shape {got}, but "
                             f"result.{side} has width {width}")


def dense_kron_solution(problem: KroneckerProblem) -> np.ndarray:
    """Reference solution by full diagonalization of both operators.

    Cost is cubic in each order; refused above ``DENSE_EIG_LIMIT`` like the
    other dense fallbacks.
    """
    big = max(problem.a_op.n, problem.bneg_op.n)
    limit = operators.DENSE_EIG_LIMIT
    if big > limit:
        raise ValueError(f"order {big} exceeds dense reference limit {limit}")
    a_dense = problem.a_op.to_dense()
    bneg_dense = problem.bneg_op.to_dense()
    f_full = problem.u_factor @ problem.v_factor.T
    return funm_diag(problem.f, a_dense, -bneg_dense, f_full)


def singular_decay_report(problem: KroneckerProblem, ells: Sequence[int],
                          svals: np.ndarray) -> list[tuple]:
    """Rows (ell, sigma_{1+ell*k}(X), bound) measuring how fast the exact
    solution's singular values ``svals`` (descending, as ``np.linalg.svd``
    returns them) fall against the a-priori estimate for the class of f."""
    fnorm = problem.rhs_norm2()
    k = problem.rank
    rows = []
    for ell in ells:
        idx = ell * k  # 0-based position of sigma_{1 + ell*k}
        sigma = float(svals[idx]) if idx < svals.size else 0.0
        bound = singular_value_bound(problem.f, problem.interval, ell, fnorm)
        rows.append((int(ell), sigma, bound))
    return rows


def residual_bound(problem: KroneckerProblem, ell: int) -> float:
    """A-priori Sylvester residual bound for the mirrored pole pair."""
    return sylvester_residual_bound(problem.interval, ell, problem.rhs_norm2())
