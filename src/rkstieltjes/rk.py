"""Block rational Arnoldi bases and the matrix-function driver.

The decomposition object owns the orthonormal basis U of
span{ q(A)^-1 [v, Av, ..., A^(l-1) v] } together with the projected
quantities U*AU and U*v, grown one pole at a time.  Infinite poles
contribute a multiplication step, finite poles a shifted solve, so the
classical polynomial and extended spaces are the special cases with all
poles at infinity resp. alternating infinity / zero.  Error curves against
a reference are the harness's (``experiments.timed_sweep`` over
``iterates``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .functions import StieltjesFunction
from .operators import HermitianOperator, as_block, positive_interval
from .poles import cauchy_poles, zolotarev_poles
from .strategies import Strategy, get_strategy, strategy_bound

__all__ = [
    "DEFLATION_TOL",
    "RKDecomposition",
    "rk_build",
    "rk_funv",
    "ExactnessReport",
    "exactness_check",
    "FunvTraceRow",
    "FunvResult",
    "funv_driver",
    "grow",
    "iterates",
    "CHECKPOINT_STRIDE",
]

DEFLATION_TOL = 1e-12

#: Pole-count step between the rebuilt bases of the interval-optimal
#: families in tolerance mode.
CHECKPOINT_STRIDE = 4

#: Most products of two resolvents that ``exactness_check`` verifies.
EXACTNESS_MAX_PAIRS = 10


def _column_norms(x: np.ndarray) -> list[float]:
    """2-norms of the columns of a narrow block; one 1-D norm per column
    costs less than ``norm(x, axis=0)`` at the widths met here."""
    return [np.linalg.norm(x[:, j]) for j in range(x.shape[1])]


class RKDecomposition:
    """Growing orthonormal basis of a rational Krylov space.

    Attributes of interest: ``basis`` (n x m, orthonormal columns),
    ``poles_used`` (one entry per consumed pole), ``breakdown`` (the last
    candidate block deflated away completely, i.e. the space became
    A-invariant and every further iterate is exact).

    The columns live in one Fortran-order n x capacity buffer that grows
    in place: a new block is written into the next free columns, and
    running out of room reallocates to max(needed, 2 * capacity), so a
    pole-at-a-time caller copies O(n m) in total rather than per step.
    ``extend`` reserves room for its whole pole list first, so a one-shot
    build allocates once.  ``basis``, ``dim`` and ``last_block`` are views
    of the filled columns; a ``basis`` taken earlier keeps its values,
    because filled columns are never written again.

    Step cost: each appended block's product A·block is kept (n x width
    numbers), so a polynomial step takes it as its candidate with no
    matvec, and the last block column of U*AU as its first-pass
    coefficients.  A step reads the n x m basis once for the first-pass
    coefficients (shifted-solve steps only), once for the first-pass
    update, twice more when the second Gram-Schmidt pass runs, and once
    for the cross product U*(A·block): 2 to 5 passes, where a plain block
    CGS2 step takes 5.
    """

    def __init__(self, op: HermitianOperator, v: np.ndarray):
        block, _ = as_block(v)
        if block.shape[0] != op.n:
            raise ValueError(
                f"seed has {block.shape[0]} rows, operator order is {op.n}")
        self.op = op
        self.seed_ndim = np.asarray(v).ndim
        self.block_width = block.shape[1]
        self.seed_norm = float(np.linalg.norm(block))
        if self.seed_norm == 0.0:
            raise ValueError("seed block is zero")

        n = op.n
        dtype = np.complex128 if np.iscomplexobj(block) else np.float64
        self._buf = np.zeros((n, 0), dtype=dtype, order="F")
        self._m = 0
        self._h = np.zeros((0, 0), dtype=dtype)
        self._rhs = np.zeros((0, self.block_width), dtype=dtype)
        self._block_sizes: list[int] = []
        self.poles_used: list[complex] = []
        self.breakdown = False
        self._factors: dict = {}  # shifted_solve's cache, one per basis

        self._seed_cache = block.astype(dtype, copy=True)
        kept = self._append_block(self._seed_cache)
        if kept == 0:  # pragma: no cover - zero norm is caught above
            raise ValueError("seed block deflated away entirely")

    # -- geometry ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of orthonormal basis vectors accumulated so far."""
        return self._m

    @property
    def basis(self) -> np.ndarray:
        return self._buf[:, :self._m]

    @property
    def last_block(self) -> np.ndarray:
        w = self._block_sizes[-1]
        return self._buf[:, self._m - w:self._m]

    def reduced_matrix(self) -> np.ndarray:
        """Projection U*AU, symmetrized to kill roundoff skew."""
        h = self._h
        return 0.5 * (h + h.conj().T)

    def reduced_seed(self) -> np.ndarray:
        """Projection U*v of the seed block (m x k)."""
        return self._rhs

    def lift(self, y: np.ndarray) -> np.ndarray:
        """x = U y for reduced coordinates y, matching the seed's shape."""
        x = self.basis @ y
        if self.seed_ndim == 1:
            return x[:, 0]
        return x

    # -- growth -----------------------------------------------------------

    def _reserve(self, cols: int) -> None:
        """Make room for ``cols`` basis columns."""
        cap = self._buf.shape[1]
        if cols <= cap:
            return
        buf = np.empty((self._buf.shape[0], max(cols, 2 * cap)),
                       dtype=self._buf.dtype, order="F")
        buf[:, :self._m] = self.basis
        self._buf = buf

    def _promote_complex(self) -> None:
        if not np.iscomplexobj(self._buf):
            buf = np.empty(self._buf.shape, dtype=np.complex128, order="F")
            buf[:, :self._m] = self.basis
            self._buf = buf
            self._h = self._h.astype(np.complex128)
            self._rhs = self._rhs.astype(np.complex128)

    def _orthonormalize(self, cand: np.ndarray,
                        coeffs: np.ndarray | None = None) -> np.ndarray:
        """Block Gram-Schmidt against the basis, then a column-by-column
        pass inside the block with rank-revealing deflation (drop when the
        surviving norm is below tol times the column's incoming norm).

        ``coeffs`` are the first-pass coefficients U*cand when the caller
        already holds them.  The second pass against the basis runs only
        when some column keeps less than 1/sqrt(2) of its incoming norm
        ("twice is enough": Giraud, Langou and Rozloznik 2005), so a
        near-dependent candidate always gets both passes."""
        u = self.basis
        pre = _column_norms(cand)
        if coeffs is None:
            coeffs = u.conj().T @ cand
        cand = cand - u @ coeffs
        # ||cand - U c||^2 = ||cand||^2 - ||c||^2: a column keeps less than
        # 1/sqrt(2) of its norm exactly when ||c|| is more than 1/sqrt(2)
        # of it, which reads m numbers instead of n.
        if any(c > p / math.sqrt(2.0) for c, p in zip(_column_norms(coeffs), pre)):
            cand = cand - u @ (u.conj().T @ cand)
        kept: list[np.ndarray] = []
        for j in range(cand.shape[1]):
            w = cand[:, j]
            for _ in range(2):
                for q in kept:
                    w = w - q * (q.conj() @ w)
            nrm = np.linalg.norm(w)
            if nrm <= DEFLATION_TOL * max(pre[j], self.seed_norm * 1e-300):
                continue
            kept.append(w / nrm)
        if not kept:
            return np.zeros((cand.shape[0], 0), dtype=cand.dtype)
        return np.column_stack(kept)

    def _append_block(self, cand: np.ndarray,
                      coeffs: np.ndarray | None = None) -> int:
        block = self._orthonormalize(cand, coeffs)
        width = block.shape[1]
        if width == 0:
            return 0
        m = self._m
        aw = self.op.matvec(block)
        cross = self.basis.conj().T @ aw
        corner = block.conj().T @ aw
        self._a_last = aw  # a polynomial step's candidate

        h = np.zeros((m + width, m + width), dtype=np.result_type(self._h, block))
        h[:m, :m] = self._h
        h[:m, m:] = cross
        h[m:, :m] = cross.conj().T
        h[m:, m:] = corner
        self._h = h
        self._reserve(m + width)
        self._buf[:, m:m + width] = block
        self._m = m + width
        # Earlier rows of U*v are final because earlier columns never
        # change; later blocks are orthogonal to the seed only up to
        # roundoff, so project exactly rather than padding with zeros.
        self._rhs = np.vstack([self._rhs, block.conj().T @ self._seed_cache])
        self._block_sizes.append(width)
        return width

    def extend(self, poles: Iterable[complex]) -> "RKDecomposition":
        """Consume poles (inf for a multiplication step) until the list is
        exhausted or the space becomes invariant.

        Refuses to grow a decomposition already flagged by total deflation;
        an empty pole list is a no-op either way.
        """
        poles = list(poles)
        if poles and self.breakdown:
            raise RuntimeError(
                "decomposition was closed by total deflation (invariant "
                "subspace reached); it cannot be extended")
        self._reserve(self._m + len(poles) * self.block_width)
        for sigma in poles:
            if self.breakdown:
                break
            sigma = complex(sigma)
            if sigma.imag == 0.0:
                sigma = sigma.real
            elif not np.iscomplexobj(self._buf):
                self._promote_complex()
            if isinstance(sigma, float) and math.isinf(sigma):
                # A·last_block and U*(A·last_block), the last block column
                # of U*AU, were computed when that block was appended.
                cand = self._a_last
                coeffs = self._h[:, self._m - self._block_sizes[-1]:]
            else:
                cand = self.op.shifted_solve(sigma, self.last_block,
                                             factors=self._factors)
                coeffs = None
            kept = self._append_block(np.asarray(cand, dtype=self._buf.dtype),
                                      coeffs)
            self.poles_used.append(sigma)
            if kept == 0:
                self.breakdown = True
        return self


def rk_build(op: HermitianOperator, v: np.ndarray, poles) -> RKDecomposition:
    """Build the rational Krylov basis of (op, v) for the given poles.

    The finished basis keeps no factorization: a full pole list is not
    extended again, and a dense factor costs n^2 numbers.
    """
    dec = RKDecomposition(op, v)
    dec.extend(poles)
    dec._factors.clear()
    return dec


def _reduced_funv(dec: RKDecomposition,
                  f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Coordinates y = Q f(L) Q* U*v (m x k) of the Galerkin iterate in the
    basis, where U*AU = Q L Q*."""
    w, q = np.linalg.eigh(dec.reduced_matrix())
    coeff = q.conj().T @ dec.reduced_seed()
    return q @ (np.asarray(f(w))[:, None] * coeff)


def rk_funv(dec: RKDecomposition, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Galerkin extraction x = U f(U*AU) U*v, matching the seed's shape."""
    return dec.lift(_reduced_funv(dec, f))


# -- exactness ------------------------------------------------------------


@dataclass(frozen=True)
class ExactnessReport:
    """Relative errors of rational functions the space must reproduce
    exactly (up to roundoff)."""

    members: dict
    max_rel_err: float

    def worst(self) -> str:
        label = max(self.members, key=self.members.get)
        return f"{label}: {self.members[label]:.3e}"


def _rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    denom = np.linalg.norm(ref)
    if denom == 0.0:
        return float(np.linalg.norm(x))
    return float(np.linalg.norm(x - ref) / denom)


def _fmt_pole(sigma) -> str:
    if isinstance(sigma, complex):
        return f"{sigma.real:g}{sigma.imag:+g}j"
    return f"{sigma:g}"


def exactness_check(op: HermitianOperator, v: np.ndarray,
                    poles) -> ExactnessReport:
    """Verify the Galerkin extraction reproduces resolvents at the chosen
    poles, products of two resolvent factors, and the monomials unlocked
    by infinite poles.

    Each member r is evaluated two ways: exactly via shifted solves /
    matvecs on the full operator, and through the reduced problem; the
    space built with those poles must make the two agree.
    """
    poles = list(poles)
    dec = rk_build(op, v, poles)
    block, _ = as_block(np.asarray(v, dtype=dec.basis.dtype))

    def reduced(f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return dec.basis @ _reduced_funv(dec, f)

    members: dict = {}

    finite = [s for s in poles if not (isinstance(s, float) and math.isinf(s))]
    n_inf = len(poles) - len(finite)

    for sigma in dict.fromkeys(finite):  # distinct, order-preserving
        ref = op.shifted_solve(sigma, block)
        got = reduced(lambda w: 1.0 / (w - sigma))
        members[f"resolvent(sigma={_fmt_pole(sigma)})"] = _rel_err(got, ref)

    pairs = itertools.combinations(finite, 2)
    for si, sj in itertools.islice(pairs, EXACTNESS_MAX_PAIRS):
        ref = op.shifted_solve(si, op.shifted_solve(sj, block))
        got = reduced(lambda w: 1.0 / ((w - si) * (w - sj)))
        members[f"product(sigma={_fmt_pole(si)},{_fmt_pole(sj)})"] = _rel_err(got, ref)

    ref = block
    for p in range(n_inf + 1):
        got = reduced(lambda w: w ** float(p))
        members[f"monomial(z^{p})"] = _rel_err(got, ref)
        if p < n_inf:
            ref = op.matvec(ref)

    worst = max(members.values()) if members else 0.0
    return ExactnessReport(members=members, max_rel_err=worst)


# -- driver ---------------------------------------------------------------


@dataclass(frozen=True)
class FunvTraceRow:
    """One convergence-trace entry: pole count, lag-2 estimate, true error
    against an oracle when available (nan otherwise), a-priori bound (nan
    when no certificate covers the strategy)."""

    ell: int
    est_error: float
    true_error: float
    bound: float


@dataclass(frozen=True)
class FunvResult:
    x: np.ndarray
    trace: tuple
    converged: bool
    strategy: str
    poles_used: tuple

    @property
    def ell(self) -> int:
        return self.trace[-1].ell if self.trace else 0


def grow(s: Strategy, iv, counts: Iterable[int],
         seeds: Sequence[tuple[HermitianOperator, np.ndarray]],
         custom_poles: Sequence[complex] | None = None
         ) -> Iterator[list[RKDecomposition]]:
    """Yield one decomposition per ``(op, v)`` seed, all taking the poles
    of ``s``, at each pole count in the increasing ``counts``.

    Nested families extend each unbroken basis by the poles up to the next
    count in one ``extend`` call, and stop after every basis has broken
    down or the stream runs out (one short of a count yields its shorter
    bases once).  Interval-optimal families build fresh bases for every
    count.  Counts below 1 and a missing custom list raise ValueError at
    the call.
    """
    counts = list(counts)
    if counts and min(counts) < 1:
        raise ValueError(f"pole counts must be >= 1, got {min(counts)}")
    stream = s.stream(iv, custom_poles) if s.nested else None
    return _grow(s, iv, counts, seeds, stream)


def _fixed_poles(s: Strategy, iv, count: int) -> np.ndarray:
    """The interval-optimal poles of ``s`` at ``count``, called through
    this module's global of the factory's name (``zolotarev_poles``,
    ``cauchy_poles``): perfbench's tracer wraps those globals to time pole
    generation."""
    return globals().get(s.fixed.__name__, s.fixed)(iv, count)


def _grow(s: Strategy, iv, counts: list[int], seeds,
          stream: Iterator[complex] | None):
    if stream is None:
        for count in counts:
            poles = _fixed_poles(s, iv, count)
            yield [rk_build(op, v, poles) for op, v in seeds]
        return
    decs = [RKDecomposition(op, v) for op, v in seeds]
    taken = 0
    for count in counts:
        need = count - taken
        batch = list(itertools.islice(stream, need))
        if need > 0 and not batch:
            return
        taken += len(batch)
        for dec in decs:
            if not dec.breakdown:
                dec.extend(batch)
        yield decs
        if all(dec.breakdown for dec in decs) or len(batch) < need:
            return


def iterates(op: HermitianOperator, f: StieltjesFunction, v: np.ndarray,
             strategy: str, iv, counts: Iterable[int],
             custom_poles: Sequence[complex] | None = None
             ) -> Iterator[tuple[RKDecomposition, np.ndarray]]:
    """Yield ``(dec, y)`` at each pole count in the increasing ``counts``,
    where y are the reduced coordinates of the Galerkin iterate in
    ``dec.basis`` (``dec.lift(y)`` is the iterate itself): the one-seed
    case of ``grow``.  Counts below 1, an unknown strategy and a missing
    custom list raise ValueError at the call.
    """
    steps = grow(get_strategy(strategy), iv, counts, [(op, v)], custom_poles)
    return ((dec, _reduced_funv(dec, f)) for dec, in steps)


def funv_driver(op: HermitianOperator, f: StieltjesFunction, v: np.ndarray,
                interval, strategy: str = "zolotarev",
                tol: float | None = None, ell: int | None = None,
                max_ell: int = 80, oracle: np.ndarray | None = None,
                custom_poles: Sequence[complex] | None = None) -> FunvResult:
    """Approximate f(A)v to a relative tolerance or at a fixed pole count.

    Exactly one of ``tol`` / ``ell`` picks the mode.  In tolerance mode the
    error estimate is the relative distance between the current iterate and
    the one two trace entries back; nested strategies add one pole per
    entry, while the interval-optimal families (zolotarev/cauchy) are
    rebuilt from scratch at pole counts ``CHECKPOINT_STRIDE``,
    ``2 * CHECKPOINT_STRIDE``, ... (4, 8, ...), capped at ``max_ell``.
    ``oracle`` (a reference solution) fills the true-error column.  In
    ``ell=`` mode a custom list shorter than ``ell`` raises ValueError.

    Nested strategies compute the estimate in reduced coordinates: with
    x_k = U y_k and U orthonormal, ||x_k - x_(k-2)|| = ||y_k - [y_(k-2); 0]||
    and ||x_k|| = ||y_k||, so only the final iterate is lifted (every step
    is lifted only when ``oracle`` asks for the true error).  Iterates are
    not kept: memory is the basis, O(n * capacity), plus the last two
    reduced or (for the rebuilt families) full iterates.
    """
    if (tol is None) == (ell is None):
        raise ValueError("pass exactly one of tol= or ell=")
    if tol is not None and max_ell < 1:
        raise ValueError(f"max_ell must be >= 1, got {max_ell}")
    iv = positive_interval(interval)
    s = get_strategy(strategy)
    if ell is not None and s.name == "custom" and len(custom_poles or ()) < ell:
        raise ValueError(f"ell={ell} needs at least {ell} custom poles, "
                         f"got {len(custom_poles or ())}")
    if ell is not None:
        counts = [ell]
    elif s.nested:
        counts = range(1, max_ell + 1)
    else:
        counts = [*range(CHECKPOINT_STRIDE, max_ell, CHECKPOINT_STRIDE), max_ell]
    steps = iterates(op, f, v, strategy, iv, counts, custom_poles)

    vnorm = float(np.linalg.norm(v))

    def true_err(x: np.ndarray | None) -> float:
        if oracle is None:
            return math.nan
        return _rel_err(as_block(x)[0], as_block(oracle)[0])

    def row(count: int, est: float, err: float) -> FunvTraceRow:
        return FunvTraceRow(count, est, err,
                            strategy_bound(strategy, f, iv, count, vnorm))

    if ell is not None:
        dec, y = next(steps)
        x = dec.lift(y)
        return FunvResult(x=x, trace=(row(len(dec.poles_used), math.nan,
                                          true_err(x)),),
                          converged=True, strategy=strategy,
                          poles_used=tuple(dec.poles_used))

    trace: list[FunvTraceRow] = []
    recent: list[np.ndarray] = []  # the last two iterates

    def record(z: np.ndarray, count: int, err: float) -> float:
        """Trace iterate z (a reduced y, or a full x) and return the lag-2
        estimate; an iterate two back with fewer rows is zero-padded."""
        if len(recent) == 2:
            ref = recent[0]
            r = ref.shape[0]
            num = math.hypot(float(np.linalg.norm(z[:r] - ref)),
                             float(np.linalg.norm(z[r:])))
            den = float(np.linalg.norm(z))
            est = num / den if den > 0.0 else 0.0
        else:
            est = math.inf
        recent[:] = recent[-1:] + [z]
        trace.append(row(count, est, err))
        return est

    # Nested iterates share one basis and are compared in reduced
    # coordinates; each rebuilt family's checkpoint has its own basis, so
    # those iterates are compared lifted.
    converged = False
    for dec, y in steps:
        x = dec.lift(y) if oracle is not None or not s.nested else None
        est = record(y if s.nested else x, len(dec.poles_used), true_err(x))
        if dec.breakdown or est <= tol:
            converged = True
            break
    x = dec.lift(recent[-1]) if s.nested else recent[-1]
    return FunvResult(x=x, trace=tuple(trace), converged=converged,
                      strategy=strategy, poles_used=tuple(dec.poles_used))
