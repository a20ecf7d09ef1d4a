"""Matrix functions of Kronecker sums with low-rank right-hand sides.

For symmetric A (m x m), B (n x n) and F = U_F V_F^T of rank k, the target
is the m x n matrix X with vec(X) = f(I (x) A + B (x) I) vec(F).  Both
Kronecker factors are projected onto small rational Krylov spaces -- A
against the left poles, -B against the negated right poles, which is the
same space as B^T against the right poles -- and the compressed problem is
solved by double diagonalization.  X never gets formed at full size unless
explicitly materialized.  The factors are real; error curves against a
dense reference are the harness's (``experiments.timed_sweep`` over
``kron_iterates``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bounds import singular_value_bound, sylvester_residual_bound
from .functions import StieltjesFunction
from . import operators
from .operators import (HermitianOperator, SpectralInterval, as_block, count,
                        finite, positive_interval)
from .rk import RKDecomposition, grow, rk_build
from .strategies import KronPair

__all__ = [
    "KroneckerProblem",
    "KroneckerResult",
    "kron_problem",
    "kron_fun",
    "kron_iterates",
    "funm_diag",
    "sylvester_residual",
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
    approximation are those of the core."""

    left: np.ndarray
    right: np.ndarray
    core: np.ndarray
    poles_left: tuple
    poles_right: tuple

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
    """Assemble a problem, enclosing both spectra in one interval when the
    caller does not pin it."""
    if interval is None:
        iva, ivb = a_op.exact_interval(), bneg_op.exact_interval()
        interval = SpectralInterval(min(iva.lower, ivb.lower),
                                    max(iva.upper, ivb.upper))
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
    are the poles for B^T seeded with V_F, realized on -B with flipped
    signs (the two spaces coincide).  ``ell`` truncates both pole lists;
    omitted, the full lists are offered.  A basis that closes early
    (total deflation) consumes fewer, and the result lists the poles each
    side consumed.  An empty list is refused.
    """
    left, right = list(left_poles), list(right_poles)
    count(min(len(left), len(right)), "pole counts")
    if ell is not None:
        if count(ell, "ell") > min(len(left), len(right)):
            raise ValueError(
                f"ell={ell} exceeds the supplied pole counts "
                f"({len(left)} left, {len(right)} right)")
        left, right = left[:ell], right[:ell]
    dec_u = rk_build(problem.a_op, problem.u_factor, left)
    # rk.extend reads a zero imaginary part as real and +-inf as a matvec.
    dec_v = rk_build(problem.bneg_op, problem.v_factor, [-p for p in right])
    return _solve_projected(problem, dec_u, dec_v, operator.neg)


def _solve_projected(problem: KroneckerProblem, dec_u: RKDecomposition,
                     dec_v: RKDecomposition,
                     mirror: Callable[[complex], complex]) -> KroneckerResult:
    """Solve the problem compressed onto the bases of A (``dec_u``) and of
    -B (``dec_v``) by double diagonalization.  The result lists the poles
    each basis consumed; ``mirror`` maps a pole of -B's basis to the
    right pole (for B^T) it stands for."""
    a_small = dec_u.reduced_matrix()
    b_small = -dec_v.reduced_matrix()  # projection of B in the shared basis
    f_small = dec_u.reduced_seed() @ dec_v.reduced_seed().conj().T
    core = funm_diag(problem.f, a_small, b_small, f_small)
    return KroneckerResult(left=dec_u.basis, right=dec_v.basis, core=core,
                           poles_left=tuple(dec_u.poles_used),
                           poles_right=tuple(map(mirror, dec_v.poles_used)))


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
    return (_solve_projected(problem, dec_u, dec_v, pair.mirror)
            for dec_u, dec_v in steps)


def sylvester_residual(problem: KroneckerProblem,
                       result: KroneckerResult) -> float:
    """||A X - X B - F||_2 for the rank-structured approximation, via thin
    QR of the stacked low-rank factors (never forms an m x n matrix)."""
    u, v, y = result.left, result.right, result.core
    au = problem.a_op.matvec(u)
    nbv = problem.bneg_op.matvec(v)  # (-B) columnwise: realizes the -XB term
    lstack = np.hstack([au @ y, u @ y, problem.u_factor])
    rstack = np.hstack([v, nbv, -problem.v_factor])
    rl = np.linalg.qr(lstack, mode="r")
    rr = np.linalg.qr(rstack, mode="r")
    return float(np.linalg.norm(rl @ rr.conj().T, ord=2))


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
