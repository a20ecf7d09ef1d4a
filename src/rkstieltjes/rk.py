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
import os
from contextlib import closing
from dataclasses import InitVar, dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.linalg import get_blas_funcs

from .functions import StieltjesFunction
from .operators import (HermitianOperator, as_block, as_poles, count, finite,
                        positive_interval)
from .poles import cauchy_poles, zolotarev_poles
from .strategies import Strategy, get_strategy, strategy_bound

__all__ = [
    "DEFLATION_TOL",
    "RKDecomposition",
    "rk_build",
    "build_together",
    "rk_funv",
    "ExactnessReport",
    "exactness_check",
    "FunvTraceRow",
    "FunvResult",
    "funv_driver",
    "grow",
    "iterates",
    "CHECKPOINT_STRIDE",
    "INTERVAL_SLACK",
    "STOP_REASONS",
]

DEFLATION_TOL = 1e-12

#: A Ritz value may round past an end of a correct interval by about
#: m * eps * ||A||; one beyond it by more than this share of the upper end
#: proves that the interval misses the spectrum.
INTERVAL_SLACK = 1e-10

#: ``FunvResult.stop_reason`` values, and the ones that count as converged.
STOP_REASONS = ("certified", "tol", "breakdown", "max_ell",
                "poles_exhausted", "fixed_ell", "floor")
_CONVERGED = frozenset({"certified", "tol", "breakdown", "fixed_ell"})

#: Pole-count step between the rebuilt bases of the interval-optimal
#: families in tolerance mode.
CHECKPOINT_STRIDE = 4

#: Most products of two resolvents that ``exactness_check`` verifies.
EXACTNESS_MAX_PAIRS = 10

#: Chunk width of the basis at every order: the first chunk doubles with a
#: copy up to this many columns; after that a full chunk closes at its
#: filled columns and a new one of at least this many columns opens, so no
#: filled column is copied again.  Every chunk adds Python and BLAS calls
#: to each pass over the basis, so chunks are not made narrower.
CHUNK_MIN_COLS = 32

#: Smallest reduced order whose eigensolve a nested tolerance run hands to
#: a worker thread while the next basis step runs (``_overlap_pays``).
OVERLAP_MIN_DIM = 48

#: Smallest basis, in bytes, for which it does so.
OVERLAP_MIN_BYTES = 4 << 20


#: A fast column norm inside [2^-500, 2^500] is kept; outside it (0 and
#: inf included) its square may have underflowed or overflowed.
_NORM_RANGE = (2.0 ** -500, 2.0 ** 500)


def _column_norms(x: np.ndarray) -> list[float]:
    """2-norms of the columns of a narrow block: sqrt(c.c) of each real
    column made unit-stride, the bits of ``np.linalg.norm`` at a fraction
    of its call cost (``np.vdot``, which raises no overflow warning).  A
    norm that reads 0, inf or lies outside ``_NORM_RANGE`` is taken again
    by BLAS ``nrm2``, which scales as it sums, so a column of any finite
    scale gets its norm; a zero-length column reads 0."""
    norms = []
    for c in np.asfortranarray(x).T:
        if c.dtype.kind == "f":
            s = math.sqrt(np.vdot(c, c))
        else:
            with np.errstate(over="ignore"):
                s = float(np.linalg.norm(c))
        if not _NORM_RANGE[0] <= s <= _NORM_RANGE[1] and c.size:
            s = float(get_blas_funcs("nrm2", (c,))(c))
        norms.append(s)
    return norms


def _adjoint_product(parts: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """U* x for U stored as the column chunks ``parts`` (none while the
    basis is empty).  Each chunk's product is written into its rows of one
    result, with no per-chunk temporary and no stacking pass."""
    if len(parts) == 1:
        return parts[0].conj().T @ x
    out = np.empty((sum(p.shape[1] for p in parts), x.shape[1]),
                   dtype=np.result_type(*parts, x))
    lo = 0
    for p in parts:
        hi = lo + p.shape[1]
        np.matmul(p.conj().T, x, out=out[lo:hi])
        lo = hi
    return out


def _subtract_product(parts: list[np.ndarray], y: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """x - U y for U stored as the column chunks ``parts``.  One column
    against one chunk is one gemv and a subtraction.  Otherwise it is
    computed in place in x when x is Fortran-ordered (else in a Fortran
    copy), and every chunk's product lands in one n x k Fortran scratch
    block rather than a new temporary per chunk; for k > 1 that layout also
    makes numpy's matmul faster than into a C-ordered result (a width-2
    ``rk_build`` at n = 3e4 took 16% less time).  scipy's gemv/gemm with
    beta = 1 would save the scratch pass, but scipy and numpy load separate
    OpenBLAS libraries: with two BLAS threads, alternating between their
    thread pools made a width-1 ``rk_build`` at n = 2e4 about 5x slower on
    a 2-vCPU Xeon."""
    if len(parts) == 1 and x.shape[1] == 1:  # one gemv: fewest calls
        return x - parts[0] @ y
    x = np.asfortranarray(x)
    scratch = np.empty_like(x, order="F")
    lo = 0
    for p in parts:
        np.matmul(p, y[lo:lo + p.shape[1]], out=scratch)
        x -= scratch
        lo += p.shape[1]
    return x


def _sweep_out(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w minus its components along the orthonormal columns of ``q``, by
    two modified Gram-Schmidt sweeps; w is not written."""
    for _ in range(2):
        for c in q.T:
            w = w - c * (c.conj() @ w)
    return w


_MIXED = "mixed"


def _one_shift(shift, sigma):
    """What a pole record knows of its finite poles after ``sigma`` when
    it knew ``shift`` before: None while it has none, the one shift while
    every finite pole is that real number, else ``_MIXED`` (a second
    shift or a complex one), which no later pole changes."""
    if sigma == math.inf or shift is _MIXED or sigma == shift:
        return shift
    if shift is None and not isinstance(sigma, complex):
        return sigma
    return _MIXED


def _columns_from(parts: list[np.ndarray], lo: int) -> list[np.ndarray]:
    """Views of the columns from ``lo`` on of U stored as ``parts``."""
    if not lo:
        return parts
    out = []
    for p in parts:
        if lo < p.shape[1]:
            out.append(p[:, lo:])
        lo = max(lo - p.shape[1], 0)
    return out


def _lift(parts: list[np.ndarray], y: np.ndarray, seed_ndim: int) -> np.ndarray:
    """U y for U stored as the column chunks ``parts``, from the first
    y.shape[0] columns, as a 1-D vector when ``seed_ndim`` is 1."""
    r = y.shape[0]
    first, *rest = parts
    x = first[:, :r] @ y[:first.shape[1]]
    lo = first.shape[1]
    for p in rest:
        if lo >= r:
            break
        x += p[:, :r - lo] @ y[lo:lo + p.shape[1]]
        lo += p.shape[1]
    return x[:, 0] if seed_ndim == 1 else x


class RKDecomposition:
    """Growing orthonormal basis of a rational Krylov space.

    Attributes of interest: ``basis`` (n x m, orthonormal columns),
    ``poles_used`` (one entry per consumed pole), ``breakdown`` (the last
    candidate block deflated away completely, i.e. the space became
    A-invariant and every further iterate is exact).

    The columns live in a list of Fortran-order chunks.  While the basis
    is small it is one buffer that doubles with a copy, up to
    ``CHUNK_MIN_COLS`` columns at every order n.  After that a full chunk
    is closed at its filled columns and a new one of that width opens, so
    no filled column is copied again and a pole-at-a-time caller holds at
    most one chunk of spare room.  ``extend`` reserves room for its whole
    pole list first, so a one-shot build is one contiguous array.
    ``basis`` is a view of the filled columns while they sit in one chunk
    and a Fortran copy once they span several; ``last_block`` is always a
    view.  A ``basis`` taken earlier keeps its values, because filled
    columns are never written again.

    Step cost: a block is orthonormalized straight into the basis's spare
    columns, so the matvec, the next shifted solve and the cross product
    all take one Fortran view and no block is copied; U*AU and U*v hold
    the basis's capacity and grow only with it.  Each block's A·block is
    kept (n x width numbers), so a polynomial step takes it as its
    candidate with no matvec, and the last block column of U*AU as its
    first-pass coefficients.

    Passes over the n x m basis: while every finite pole so far is one
    real shift (``extended``, ``polynomial``, one-shift lists), U*AU is
    block banded and the first pass and the cross product U*(A·block)
    read only the last few blocks (``_windows``).  Such a step reads the
    whole basis twice: one full Gram-Schmidt pass, which always runs.  On
    any other pole record a step reads it once for the first-pass
    coefficients (shifted-solve steps only), once for the first-pass
    update, twice more when the second pass runs, and once for the cross
    product: 2 to 5 passes, where a plain block CGS2 step takes 5.  Each
    pass runs chunk by chunk, and an update over several chunks subtracts
    in place through one n x width scratch block, so a step makes no
    n x m temporary.
    """

    def __init__(self, op: HermitianOperator, v: np.ndarray):
        block, _ = as_block(finite(v, "seed"))
        if block.shape[0] != op.n:
            raise ValueError(
                f"seed has {block.shape[0]} rows, operator order is {op.n}")
        self.op = op
        self.seed_ndim = np.asarray(v).ndim
        self.block_width = block.shape[1]
        seed_norm = float(np.linalg.norm(block))
        if not 0.0 < seed_norm < math.inf:
            raise ValueError(f"seed norm must be > 0 and finite, got {seed_norm}")

        n = op.n
        dtype = np.complex128 if np.iscomplexobj(block) else np.float64
        self._chunks = [np.zeros((n, 0), dtype=dtype, order="F")]
        self._closed = 0  # columns in the chunks before the last
        self._m = 0
        self._h = np.empty((0, 0), dtype=dtype)  # U*AU in its leading m x m
        self._rhs = np.empty((0, self.block_width), dtype=dtype)  # U*v, m rows
        self._last_width = 0  # columns of the last block
        self._starts: list[int] = []  # first column of each block
        self._shift = None  # _one_shift of poles_used
        self._cross = 0  # where the last block's column of U*AU starts
        self.poles_used: list[complex] = []
        self.breakdown = False

        self._seed_cache = block.astype(dtype, copy=True)
        self._append_block(self._seed_cache.copy(order="F"))

    # -- geometry ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of orthonormal basis vectors accumulated so far."""
        return self._m

    def _parts(self) -> list[np.ndarray]:
        """The filled columns, one Fortran view per chunk that has any."""
        fill = self._m - self._closed
        return self._chunks[:-1] + ([self._chunks[-1][:, :fill]] if fill else [])

    @property
    def basis(self) -> np.ndarray:
        """The n x m basis: a view while it is one chunk, else a copy."""
        parts = self._parts()
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=1)

    @property
    def last_block(self) -> np.ndarray:
        # A block never straddles two chunks; the last chunk is empty only
        # right after extend opened it.
        w = self._last_width
        fill = self._m - self._closed
        if fill:
            return self._chunks[-1][:, fill - w:fill]
        return self._chunks[-2][:, -w:]

    def reduced_matrix(self) -> np.ndarray:
        """Projection U*AU, symmetrized to kill roundoff skew."""
        h = self._h[:self._m, :self._m]
        return 0.5 * (h + h.conj().T)

    def reduced_seed(self) -> np.ndarray:
        """Projection U*v of the seed block (m x k)."""
        return self._rhs[:self._m]

    def lift(self, y: np.ndarray) -> np.ndarray:
        """x = U y for reduced coordinates y (r x k), matching the seed's
        shape.  y may belong to an earlier row of this basis: it is lifted
        from the first r columns, which never change once filled.  A y with
        more rows than ``dim`` raises ValueError."""
        if y.shape[0] > self._m:
            raise ValueError(f"y has {y.shape[0]} rows, but the basis has "
                             f"only {self._m} columns")
        return _lift(self._parts(), y, self.seed_ndim)

    # -- growth -----------------------------------------------------------

    def _reserve(self, cols: int) -> None:
        """Make room for ``cols`` more columns in the last chunk; U*AU and
        U*v grow to the basis's new capacity with it."""
        last, m = self._chunks[-1], self._m
        fill = m - self._closed
        if fill + cols <= last.shape[1]:
            return
        if len(self._chunks) == 1 and last.shape[1] < CHUNK_MIN_COLS:
            width = max(fill + cols, min(2 * last.shape[1], CHUNK_MIN_COLS))
        else:  # a new chunk, after the last one closes at its filled columns
            width = max(cols, CHUNK_MIN_COLS)
            if fill:  # (an extend that raised left it empty: it is replaced)
                self._chunks[-1:] = [last[:, :fill], last]
                self._closed, fill = m, 0
        self._chunks[-1] = np.empty((last.shape[0], width), dtype=last.dtype,
                                    order="F")
        self._chunks[-1][:, :fill] = last[:, :fill]  # a doubling's copy
        del last  # a doubled chunk's old buffer goes before U*AU grows
        cap, h, rhs = self._closed + width, self._h, self._rhs
        self._h = np.zeros((cap, cap), dtype=h.dtype)  # zero outside windows
        self._rhs = np.empty((cap, self.block_width), dtype=rhs.dtype)
        self._h[:m, :m], self._rhs[:m] = h[:m, :m], rhs[:m]

    def _promote_complex(self) -> None:
        """Turn the chunks complex one at a time, so the real and complex
        copies of at most one chunk are alive together."""
        last = len(self._chunks) - 1
        for i, chunk in enumerate(self._chunks):
            fill = self._m - self._closed if i == last else chunk.shape[1]
            buf = np.empty(chunk.shape, dtype=np.complex128, order="F")
            buf[:, :fill] = chunk[:, :fill]
            self._chunks[i] = buf
        self._h = self._h.astype(np.complex128)
        self._rhs = self._rhs.astype(np.complex128)

    def _orthonormalize(self, parts: list[np.ndarray], cand: np.ndarray,
                        coeffs: np.ndarray | None = None,
                        lo: int = 0) -> np.ndarray:
        """Block Gram-Schmidt against the basis (its chunks ``parts``), then
        a column-by-column pass inside the block with rank-revealing
        deflation (drop when the surviving norm is below tol times the
        column's incoming norm).  The kept columns are written straight
        into the basis's reserved spare columns, and returned as a view of
        them; only ``_m`` makes them filled.  ``cand`` may be overwritten.

        The first pass runs against the basis columns from ``lo`` on
        (``_windows``), with ``coeffs`` = their U*cand when the caller
        already holds them.  After a local first pass (lo > 0) one full
        pass always follows.  After a full one the second pass runs only
        when some column keeps less than 1/sqrt(2) of its incoming norm
        ("twice is enough": Giraud, Langou and Rozloznik 2005), so a
        near-dependent candidate always gets both passes.  The in-block
        pass applies the same test to each column: one it leaves with less
        than 1/sqrt(2) of its norm after the basis passes carries their
        error against U magnified by that cancellation, so it gets one more
        pass against U and the kept columns (near-dependent block
        remainders, as A makes from smooth seed columns)."""
        pre = _column_norms(cand)
        local = _columns_from(parts, lo)
        if coeffs is None:
            coeffs = _adjoint_product(local, cand)
        cand = _subtract_product(local, coeffs, cand)
        # ||cand - U c||^2 = ||cand||^2 - ||c||^2: a column keeps less than
        # 1/sqrt(2) of its norm exactly when ||c|| is more than 1/sqrt(2)
        # of it, which reads m numbers instead of n.
        if lo or any(c > p / math.sqrt(2.0)
                     for c, p in zip(_column_norms(coeffs), pre)):
            cand = _subtract_product(parts, _adjoint_product(parts, cand), cand)
        fill, kept = self._m - self._closed, 0
        out = self._chunks[-1][:, fill:fill + cand.shape[1]]
        for j in range(cand.shape[1]):
            w = cand[:, j]
            nrm, = _column_norms(w[:, None])
            if kept:
                post = nrm
                w = _sweep_out(out[:, :kept], w)
                nrm, = _column_norms(w[:, None])
                if DEFLATION_TOL * pre[j] < nrm < post / math.sqrt(2.0):
                    # The sweep cancelled most of w, so the basis passes'
                    # error against U, eps * post, is large beside nrm:
                    # one more pass against U and the kept columns.
                    w = _subtract_product(
                        parts, _adjoint_product(parts, w[:, None]), w[:, None])
                    w = _sweep_out(out[:, :kept], w[:, 0])
                    nrm, = _column_norms(w[:, None])
            if nrm <= DEFLATION_TOL * pre[j]:
                continue
            np.divide(w, nrm, out=out[:, kept])
            kept += 1
        return out[:, :kept]

    def _append_block(self, cand: np.ndarray, coeffs: np.ndarray | None = None,
                      first: int = 0, cross: int = 0) -> int:
        """Orthonormalize ``cand`` into the next block (first pass from
        column ``first``) and project it: its column of U*AU is computed
        from column ``cross`` on; above it stays the zero ``_reserve``
        wrote (``_windows``)."""
        self._reserve(cand.shape[1])
        m, parts = self._m, self._parts()
        block = self._orthonormalize(parts, cand, coeffs, first)
        width = block.shape[1]
        if width == 0:
            return 0
        aw = self.op.matvec(block)
        self._a_last = aw  # a polynomial step's candidate
        new = slice(m, m + width)
        self._h[cross:m, new] = col = _adjoint_product(
            _columns_from(parts, cross), aw)
        self._h[new, cross:m] = col.conj().T
        self._h[new, new] = block.conj().T @ aw
        # Earlier rows of U*v are final because earlier columns never
        # change; later blocks are orthogonal to the seed only up to
        # roundoff, so project exactly rather than padding with zeros.
        self._rhs[new] = block.conj().T @ self._seed_cache
        self._starts.append(m)
        self._cross = cross
        self._m = m + width
        self._last_width = width
        return width

    def _windows(self, sigma) -> tuple[int, int]:
        """The first basis columns of the next step's first pass and of its
        block's column of U*AU, where the pole record proves every entry
        above them zero, else 0 (the whole basis).

        While every finite pole, ``sigma`` included, is one real shift s,
        the space after step j is span{(A - sI)^d V : -f_j <= d <= p_j}
        for the seed block V, f_j finite and p_j infinite poles so far (a
        Laurent-polynomial space: Jagels and Reichel, Linear Algebra Appl.
        431, 2009).  So with A Hermitian, A maps the blocks before an
        infinite step's block into the space up to that block, and
        (A - sI)^-1 does the same for a finite step.  Block j is made by
        step j (block 0 is the seed) and the next block is block k:
        * its column of U*AU is zero above the block of the last infinite
          step before k;
        * a finite step's first-pass coefficients U*(A - sI)^-1 u, u in
          block k - 1, are zero above the block of the last finite step
          before k - 1;
        * an infinite step's are the last block column of U*AU, zero above
          where that column started.
        The argument holds block by block; ``_starts`` holds each block's
        first column, so a narrower deflated block counts its real width.
        """
        if _one_shift(self._shift, sigma) is _MIXED:
            return 0, 0
        poles, k = self.poles_used, len(self._starts)
        j = k - 1  # the last infinite step before k, else 0: the seed
        while j > 0 and poles[j - 1] != math.inf:
            j -= 1
        if sigma == math.inf:
            return self._cross, self._starts[j]
        i = k - 2  # the last finite step before k - 1, else 0
        while i > 0 and poles[i - 1] == math.inf:
            i -= 1
        return self._starts[max(i, 0)], self._starts[j]

    def extend(self, poles: Iterable[complex]) -> "RKDecomposition":
        """Consume poles (inf for a multiplication step) until the list is
        exhausted or the space becomes invariant.

        Refuses a NaN pole before any step and a decomposition closed by
        total deflation (an empty list is a no-op either way).
        """
        poles = as_poles(poles, "poles")
        if poles and self.breakdown:
            raise RuntimeError(
                "decomposition was closed by total deflation (invariant "
                "subspace reached); it cannot be extended")
        self._reserve(len(poles) * self.block_width)
        for sigma in poles:
            if self.breakdown:
                break
            if isinstance(sigma, complex) and not np.iscomplexobj(self._chunks[-1]):
                self._promote_complex()
            first, cross = self._windows(sigma)
            if sigma == math.inf:
                # A·last_block and U*(A·last_block), the last block column
                # of U*AU, were computed when that block was appended.
                cand = self._a_last
                coeffs = self._h[first:self._m,
                                 self._m - self._last_width:self._m]
            else:
                cand = self.op.shifted_solve(sigma, self.last_block)
                coeffs = None
            self.breakdown = self._append_block(
                np.asarray(cand, dtype=self._chunks[-1].dtype), coeffs,
                first, cross) == 0
            self.poles_used.append(sigma)
            self._shift = _one_shift(self._shift, sigma)
        return self


def _extend_together(decs: Sequence[RKDecomposition],
                     poles: Iterable[complex]) -> None:
    """Extend every unbroken decomposition of ``decs`` by ``poles``, the
    one routine that grows several bases.  They grow in lock-step, one
    pole each in turn after reserving room for the whole list, so those
    on one operator factor each shift once between them (``operators``
    module doc); a lone one takes one ``extend`` call.  No basis depends
    on the order in which they grow."""
    poles = as_poles(poles, "poles")
    lanes = [dec for dec in decs if not dec.breakdown]
    if len(lanes) == 1:
        lanes[0].extend(poles)
        return
    for dec in lanes:
        dec._reserve(len(poles) * dec.block_width)
    for sigma in poles:
        for dec in lanes:
            if not dec.breakdown:
                dec.extend([sigma])


def build_together(seeds: Sequence[tuple[HermitianOperator, np.ndarray]],
                   poles: Iterable[complex]) -> list[RKDecomposition]:
    """The rational Krylov bases of the ``(op, v)`` seeds for one pole
    list, grown in lock-step by ``_extend_together``."""
    decs = [RKDecomposition(op, v) for op, v in seeds]
    _extend_together(decs, poles)
    return decs


def rk_build(op: HermitianOperator, v: np.ndarray, poles) -> RKDecomposition:
    """Build the rational Krylov basis of (op, v) for the given poles: the
    one-seed case of ``build_together``."""
    return build_together([(op, v)], poles)[0]


def _ritz(h: np.ndarray, rhs: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W, Q and Q* rhs for the reduced matrix h = Q W Q*, its Ritz values
    w ascending: the part of ``_reduced_funv`` that does not call f."""
    w, q = np.linalg.eigh(h)
    return w, q, q.conj().T @ rhs


def _galerkin(f: Callable[[np.ndarray], np.ndarray], w: np.ndarray,
              q: np.ndarray, coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w and y = Q f(W) coeff from the output of ``_ritz``."""
    return w, q @ (np.asarray(f(w))[:, None] * coeff)


def _reduced_funv(dec: RKDecomposition, f: Callable[[np.ndarray], np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The Ritz values w, ascending, and the coordinates y = Q f(W) Q* U*v
    (m x k) of the Galerkin iterate in the basis, where U*AU = Q W Q*."""
    return _galerkin(f, *_ritz(dec.reduced_matrix(), dec.reduced_seed()))


def rk_funv(dec: RKDecomposition, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Galerkin extraction x = U f(U*AU) U*v, matching the seed's shape."""
    return dec.lift(_reduced_funv(dec, f)[1])


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
    poles = as_poles(poles, "poles")
    dec = rk_build(op, v, poles)
    block, _ = as_block(np.asarray(v, dtype=dec.basis.dtype))

    def reduced(f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return as_block(rk_funv(dec, f))[0]

    members: dict = {}

    finite = [s for s in poles if s != math.inf]
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
    """``funv_driver``'s answer.  ``stop_reason`` says why the loop ended,
    one of ``STOP_REASONS``; ``converged`` is true for ``certified``,
    ``tol``, ``breakdown`` and ``fixed_ell``, not for ``floor``.
    ``interval_violated`` is set when a Ritz value proved the interval
    wrong (``INTERVAL_SLACK``); those rows carry no bound."""

    x: np.ndarray
    trace: tuple
    strategy: str
    poles_used: tuple
    stop_reason: str | None = None
    interval_violated: bool = False
    # Taken from a caller that copies a result field by field, and dropped:
    # the property below (also its default) derives it from stop_reason.
    converged: InitVar[bool | None] = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in _CONVERGED

    @property
    def ell(self) -> int:
        return self.trace[-1].ell if self.trace else 0


def grow(s: Strategy, iv, counts: Iterable[int],
         seeds: Sequence[tuple[HermitianOperator, np.ndarray]]
         ) -> Iterator[list[RKDecomposition]]:
    """Yield one decomposition per ``(op, v)`` seed, all taking the poles
    of ``s``, at each pole count in the increasing ``counts``.

    Nested families extend every unbroken basis by the poles up to the
    next count, in lock-step (``_extend_together``), and stop after every
    basis has broken down or the stream runs out (one short of a count
    yields its shorter bases once).  Interval-optimal families build fresh
    bases for every count (``build_together``).  A count that is not an
    integer >= 1 or not above the one before raises ValueError at the
    call; a ``range`` with start >= 1 and step >= 1 is checked in O(1).
    """
    if not (isinstance(counts, range) and counts.start >= 1 and counts.step >= 1):
        counts = [count(c, "pole counts") for c in counts]
        for before, c in zip(counts, counts[1:]):
            if c <= before:
                raise ValueError(f"pole counts must increase, got {c} after {before}")
    stream = s.stream(iv) if s.nested else None
    return _grow(s, iv, counts, seeds, stream)


def _fixed_poles(s: Strategy, iv, count: int) -> np.ndarray:
    """The interval-optimal poles of ``s`` at ``count``, called through
    this module's global of the factory's name (``zolotarev_poles``,
    ``cauchy_poles``): perfbench's tracer wraps those globals to time pole
    generation."""
    return globals().get(s.fixed.__name__, s.fixed)(iv, count)


def _grow(s: Strategy, iv, counts: Sequence[int], seeds,
          stream: Iterator[complex] | None):
    if stream is None:
        for count in counts:
            poles = _fixed_poles(s, iv, count)
            yield build_together(seeds, poles)
        return
    decs = [RKDecomposition(op, v) for op, v in seeds]
    taken = 0
    for count in counts:
        need = count - taken
        batch = list(itertools.islice(stream, need))
        if not batch:
            return
        taken += len(batch)
        _extend_together(decs, batch)
        yield decs
        if all(dec.breakdown for dec in decs) or len(batch) < need:
            return


def iterates(op: HermitianOperator, f: StieltjesFunction, v: np.ndarray,
             strategy: str | Sequence[complex], iv, counts: Iterable[int]
             ) -> Iterator[tuple[RKDecomposition, np.ndarray]]:
    """Yield ``(dec, y)`` at each pole count in the increasing ``counts``,
    where y are the reduced coordinates of the Galerkin iterate in
    ``dec.basis`` (``dec.lift(y)`` is the iterate itself, also after later
    steps have grown ``dec``, which nested families reuse): the one-seed
    case of ``grow``.  ``strategy`` is a name or a pole list
    (``get_strategy``).  Counts that are not increasing integers >= 1, an
    unknown strategy and an empty list raise ValueError at the call.
    """
    steps = grow(get_strategy(strategy), iv, counts, [(op, v)])
    return ((dec, _reduced_funv(dec, f)[1]) for dec, in steps)


def _rounding_floor(iv) -> float:
    """eps * b/a, the rounding floor of the shifted solves, where
    ``_certified_count`` stops certifying and ``_funv_loop`` stops."""
    return np.finfo(float).eps * iv.kappa


def _certified_count(s: Strategy, f: StieltjesFunction, iv, vnorm: float,
                     tol: float, max_ell: int) -> int | None:
    """The smallest ell <= ``max_ell`` with s.bound(f, iv, ell, ||v||) <=
    tol * f(b) * ||v||, or None when there is none, including every pair
    whose bound is inf or nan.  A tol below eps * b/a, the rounding floor
    of the shifted solves, gets None too: the bound holds in exact
    arithmetic only, and at n = 2000 the errors level off near 1e-11.
    Both certified bounds fall strictly with ell (a rate below 1 times a
    constant that is fixed or grows like log ell), so a bisection over
    [1, max_ell] finds it in about log2(max_ell) bound calls."""
    target = tol * f(iv.upper) * vnorm
    if not (tol >= _rounding_floor(iv) and target > 0.0
            and s.bound(f, iv, max_ell, vnorm) <= target):
        return None
    lo, hi = 0, max_ell  # bound(lo) > target >= bound(hi); lo = 0 stands for none
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if s.bound(f, iv, mid, vnorm) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def funv_driver(op: HermitianOperator, f: StieltjesFunction, v: np.ndarray,
                interval, strategy: str | Sequence[complex] = "zolotarev",
                tol: float | None = None, ell: int | None = None,
                max_ell: int = 80, oracle: np.ndarray | None = None
                ) -> FunvResult:
    """Approximate f(A)v to a relative tolerance or at a fixed pole count.

    ``strategy`` is a name of the strategy table or the caller's own pole
    list (``get_strategy``), which runs as the nested family ``custom``.
    Exactly one of ``tol`` / ``ell`` picks the mode.  Every run is one loop
    over a schedule of pole counts (``_funv_loop``):

    * ``ell=`` runs the one count ``ell``: its row's estimate is nan and
      the result is converged (``stop_reason`` ``fixed_ell``).  A custom
      list shorter than ``ell`` raises ValueError.
    * ``tol=`` on an interval-optimal family (zolotarev/cauchy) whose bound
      is finite for f first runs the one count ell*, the smallest
      ell <= ``max_ell`` with bound(ell) <= tol * f(b) * ||v||.  Every
      Stieltjes f is positive and decreasing, so ||f(A)v|| >= f(b) ||v||
      when the spectrum lies in [a, b]: one build certifies a relative
      error <= tol, and ``stop_reason`` is ``certified``.  The bound holds
      in exact arithmetic, so a tol below eps * b/a, the rounding floor of
      the shifted solves, is not certified.  If a Ritz value of the build
      lies outside the interval (``INTERVAL_SLACK``), the certificate is
      void: the run falls through to the checkpoint loop below, with
      ``interval_violated`` set.
    * Otherwise ``tol=`` stops on an estimate: the relative distance
      between the current iterate and the one two trace entries back.
      Nested strategies add one pole per entry; the interval-optimal
      families are rebuilt from scratch at pole counts
      ``CHECKPOINT_STRIDE``, ``2 * CHECKPOINT_STRIDE``, ... (4, 8, ...),
      capped at ``max_ell``.  This covers the pairs without a certificate
      (zolotarev on an f with f(0+) = inf, cauchy on an f that is not
      Cauchy-Stieltjes), ell* > ``max_ell``, a tol below the floor and
      every nested family (the EDS bound column is a reference curve, not
      a certificate).  It ends with ``tol``, ``breakdown`` (an invariant
      subspace: the iterate is exact), ``max_ell``, ``poles_exhausted``
      (a custom list ran out) or ``floor``: with a tol below eps * b/a,
      at the first estimate <= eps * b/a, where more poles stop helping.

    Every row checks the Ritz values of its basis against the interval;
    a row whose check trips carries bound nan and sets
    ``interval_violated``.  ``oracle`` (a finite reference solution of the
    seed's block shape) fills the true-error column.

    Nested strategies compute the estimate in reduced coordinates: with
    x_k = U y_k and U orthonormal, ||x_k - x_(k-2)|| = ||y_k - [y_(k-2); 0]||
    and ||x_k|| = ||y_k||, so only the final iterate is lifted (every step
    is lifted only when ``oracle`` asks for the true error).  Iterates are
    not kept: memory is the basis, O(n * capacity), plus the last two
    reduced or (for the rebuilt families) full iterates.

    A nested family in ``tol=`` mode may solve row k's reduced
    eigenproblem on one worker thread while this thread grows row k + 1's
    basis step.  It does so from reduced order ``OVERLAP_MIN_DIM`` on a
    basis of at least ``OVERLAP_MIN_BYTES`` whose last chunk has room for
    the step, and only when the environment OpenBLAS read at load
    (OPENBLAS_NUM_THREADS, else GOTO_NUM_THREADS, else OMP_NUM_THREADS)
    pins BLAS to one thread and a second CPU is free; with more BLAS
    threads the run stays serial.  The result is bit-identical either
    way: a step grown past the stop row is discarded, and an error it
    raised is not seen.  f is called on this thread only, and the worker
    is joined before the call returns or raises.
    """
    if (tol is None) == (ell is None):
        raise ValueError("pass exactly one of tol= or ell=")
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    max_ell = count(max_ell, "max_ell")
    iv = positive_interval(interval)
    s = get_strategy(strategy)
    if ell is not None:  # named for ell, in the words of grow's check
        ell = count(ell, "ell: pole counts")
        if s.name == "custom" and len(got := s.first(iv, ell)) < ell:
            raise ValueError(f"ell={ell} needs at least {ell} custom poles, "
                             f"got {len(got)}")
    if oracle is not None:  # compared as blocks: (n,) and (n, 1) agree
        oracle, want = np.asarray(oracle), as_block(v)[0].shape
        if oracle.ndim not in (1, 2) or as_block(oracle)[0].shape != want:
            raise ValueError(f"oracle has shape {oracle.shape}, not the "
                             f"seed's block shape {want}")
        oracle = as_block(finite(oracle, "oracle"))[0]
    vnorm = float(np.linalg.norm(v))

    def loop(counts, **stop) -> FunvResult:
        return _funv_loop(op, f, v, s, iv, vnorm, counts, oracle, **stop)

    if ell is not None:
        return loop([ell], fixed="fixed_ell")
    if s.nested:
        return loop(range(1, max_ell + 1), tol=tol)
    ell_star = _certified_count(s, f, iv, vnorm, tol, max_ell)
    if ell_star is not None:
        res = loop([ell_star], fixed="certified")
        if not res.interval_violated:
            return res
    res = loop([*range(CHECKPOINT_STRIDE, max_ell, CHECKPOINT_STRIDE), max_ell],
               tol=tol)
    # A void certificate is reported even if no checkpoint trips.
    return res if ell_star is None else replace(res, interval_violated=True)


def _blas_leaves_cpu(environ, cpus: int) -> bool:
    """Whether BLAS runs one thread with a second CPU free, as OpenBLAS
    reads ``environ`` when it loads: the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS that holds an integer >= 1
    decides, and with none OpenBLAS takes every CPU."""
    for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(environ.get(key, ""))
        except ValueError:
            continue
        if threads >= 1:
            return threads == 1 and cpus >= 2
    return False


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: Read once, at import: numpy, imported above, has loaded OpenBLAS.
_SPARE_CPU = _blas_leaves_cpu(os.environ, _cpus())


def _overlap_pays(dec: RKDecomposition) -> bool:
    """Whether this row's eigensolve overlaps the next basis step
    (``_solved_rows``); the step must not allocate a chunk.  Below these
    sizes the hand-off costs more than it hides: overlapping every row
    made ``extended`` requests at n = 2000 (76 poles) 27-33% slower and
    ``eds-cauchy`` ones at n = 1e5 (32 poles) 1-5% slower, one BLAS
    thread on a 2-vCPU Xeon."""
    last, m = dec._chunks[-1], dec.dim
    return (_SPARE_CPU and m >= OVERLAP_MIN_DIM
            and last.shape[0] * m * last.itemsize >= OVERLAP_MIN_BYTES
            and m - dec._closed + dec.block_width <= last.shape[1])


def _solved_rows(steps, f, overlap: bool):
    """Yield ``(dec, w, y, used, breakdown, lift)`` for each basis of the
    one-seed ``grow`` output ``steps``: ``_reduced_funv``'s w and y, the
    row's pole count and breakdown flag, and a function that lifts from
    the row's columns.

    With ``overlap``, a row that ``_overlap_pays`` runs ``_ritz`` on one
    worker thread while this thread grows the next step, so ``dec`` may
    hold one step more than ``used`` (its lift stays real even if that
    step made the basis complex).  An exception of that step is raised
    when the next row is asked for.  The worker is joined when the
    generator closes."""
    pool = None
    try:
        got = next(steps, None)
        while got is not None:
            dec, = got
            used, broke, failed = len(dec.poles_used), dec.breakdown, None
            if not (overlap and _overlap_pays(dec)):
                w, y = _reduced_funv(dec, f)
                yield dec, w, y, used, broke, dec.lift
                got = next(steps, None)
                continue
            if pool is None:  # imported here: most runs never overlap
                from concurrent.futures import ThreadPoolExecutor
                pool = ThreadPoolExecutor(max_workers=1)
            job = pool.submit(_ritz, dec.reduced_matrix(), dec.reduced_seed())
            lift = partial(_lift, dec._parts(), seed_ndim=dec.seed_ndim)
            try:
                got = next(steps, None)
            except Exception as exc:
                got, failed = None, exc
            w, y = _galerkin(f, *job.result())
            del job  # its result holds the m x m eigenvectors
            yield dec, w, y, used, broke, lift
            if failed is not None:
                raise failed
    finally:
        if pool is not None:
            pool.shutdown()


def _funv_loop(op: HermitianOperator, f: StieltjesFunction, v: np.ndarray,
               s: Strategy, iv, vnorm: float, counts, oracle,
               tol: float | None = None, fixed: str | None = None
               ) -> FunvResult:
    """``funv_driver``'s one loop over the increasing pole ``counts``: it
    stops at the first row with an estimate <= ``tol`` (else <= the
    rounding floor eps * b/a, as ``floor``), or, when ``fixed`` names the
    stop reason of a one-count schedule, at that row.  A nested family in
    tolerance mode may overlap each row's eigensolve with the next basis
    step (``_solved_rows``)."""
    rows = _solved_rows(grow(s, iv, counts, [(op, v)]), f,
                        s.nested and tol is not None)
    trace: list[FunvTraceRow] = []
    recent: list[np.ndarray] = []  # the last two iterates
    violated, slack = False, INTERVAL_SLACK * iv.upper
    floor = _rounding_floor(iv)  # an estimate <= tol stops first
    # Nested iterates share one basis and are compared in reduced
    # coordinates; each rebuilt family's checkpoint has its own basis, so
    # those iterates are compared lifted.  An iterate two back with fewer
    # rows is zero-padded.
    with closing(rows):
        for dec, w, y, used, broke, lift in rows:
            x = lift(y) if oracle is not None or not s.nested else None
            z = y if s.nested else x
            if len(recent) < 2:  # nothing two back; a one-count run has one step
                est = math.nan if fixed else math.inf
            else:
                r = recent[0].shape[0]
                num = math.hypot(float(np.linalg.norm(z[:r] - recent[0])),
                                 float(np.linalg.norm(z[r:])))
                den = float(np.linalg.norm(z))
                est = num / den if den > 0.0 else 0.0
            recent = [*recent[-1:], z]
            # Ritz values lie in [lambda_min, lambda_max]: one beyond the
            # interval by more than the rounding slack proves it wrong.
            outside = bool(w[0] < iv.lower - slack or w[-1] > iv.upper + slack)
            violated = violated or outside
            trace.append(FunvTraceRow(
                used, est,
                math.nan if oracle is None else _rel_err(as_block(x)[0], oracle),
                math.nan if outside else strategy_bound(s, f, iv, used, vnorm)))
            reason = ("breakdown" if broke else fixed or (
                "tol" if est <= tol else "floor" if est <= floor else None))
            if reason:
                break
        else:  # the schedule ran out before a stop
            reason = "poles_exhausted" if used < counts[-1] else "max_ell"
    x = lift(recent[-1]) if s.nested else recent[-1]
    return FunvResult(x=x, trace=tuple(trace), strategy=s.name,
                      poles_used=tuple(dec.poles_used[:used]), stop_reason=reason,
                      interval_violated=violated)
