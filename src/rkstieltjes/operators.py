"""Real symmetric operators with shifted solves and spectral enclosures.

Two storage formats hold every operator: dense, and symmetric band
(``BandedOperator``), whose k = 0 and k = 1 cases are the subclasses
``DiagonalOperator`` and ``TridiagonalOperator``.  Every operator knows how
to apply itself to a block of vectors, solve (A - sigma*I) X = RHS for real
or complex shifts, and produce a guaranteed enclosure of its spectrum.
Shifts of ``inf`` act as the identity (the corresponding rational factor is
simply omitted); the rational Krylov layer takes a matvec for an infinite
pole and never makes that call, so the identity is kept for direct callers.
Every pole is read by ``as_pole``, every pole list by ``as_poles``: one
with zero imaginary part is real, -0.0 is 0.0, -inf is inf and NaN raises.

Shift rule, one for every storage (``HermitianOperator._factor``): sigma
is refused (ValueError) when the smallest pivot of A - sigma*I (partial
pivoting, D of L D L^T, or the diagonal itself) is at most
``_SINGULAR_TOL`` times the largest, or its reciprocal 1-norm condition
number is at most ``_SINGULAR_TOL``: exact for diagonal storage, an SPD
tridiagonal L D L^T and an SPD Z-matrix band (below), LAPACK's
``gecon``/``gbcon`` estimate otherwise.
Pivots alone miss an eigenvalue whose eigenvector is localized: every
pivot can stay O(1).  Both tests are scale invariant down to the smallest
normal float: where the norm of A - sigma*I nears either end of the float
range, it is factored times a power of two (``_unit_scale``).
The rcond is skipped where Varah's bound (Lin. Algebra Appl. 11, 1975)
clears it twice over and the pivot ratio passes: with r_i = sum_(j != i)
|a_ij| and alpha = min_i(|m_ii| - r_i) > 0, ||M^-1||_inf <= 1/alpha, so
for M = A - sigma*I = M^T, rcond >= alpha / ||M||_1.  The true rcond and
LAPACK's estimate are both at least the bound, and every other shift,
each refused one included, takes the rcond route, so no decision and no
error text changes.  Every operator keeps r and its Gershgorin ends gl =
min(d - r) and gu = max(d + r), so below the spectrum, where every finite
pole of the Stieltjes families lies, the check is O(1)
(``HermitianOperator._shifted_norm``); other shifts (sigma = 0 on a
Laplacian, where alpha = 0) run O(n) passes.

Band solves are pivoted band LU (LAPACK ``gbtrf``/``gbtrs``) at every
bandwidth, with three exceptions: diagonal solves divide elementwise;
tridiagonal solves with a real sigma at order >= 2 first try L D L^T
without pivoting (``pttrf``/``pttrs``), which succeeds exactly when
A - sigma*I is SPD, as it is for a positive definite A and every finite
pole of the Stieltjes families (real and <= 0); and a band with k >= 2
whose stored off-diagonals are all <= 0 (decided once, when it is built)
first tries band Cholesky (``pbtrf``/``pbtrs``) at a real sigma.  Its
success proves c (A - sigma*I) an SPD Z-matrix, a Stieltjes matrix, as
it is for the discretized diffusion operators (a five-point Laplacian)
at every such pole; its inverse is entrywise nonnegative, so
||M^-1||_1 = max(M^-1 1) and one ``pbtrs`` against a vector of ones gives
the exact rcond, and the pivots are D of L D L^T, the squares of
diag(L).  A failed Cholesky, a complex sigma or any other band takes the
band LU.  Every array LAPACK factors is built in Fortran order, so every
factorization works in place with no transient copy; dense storage
factors the transpose of its symmetric copy, which is the copy itself.

Factor cache: each operator keeps its last factorization of A - sigma*I
(LU, band LU or Cholesky, tridiagonal L D L^T, or the shifted diagonal)
as one ``(sigma, solve)`` entry, keyed by sigma alone as ``as_pole``
reads it.  A real sigma has a real factorization, which solves a complex
block as one real block [Re B, Im B].  A ``shifted_solve`` at that sigma,
in this call or a later one, runs only the triangular solves,
bit-identical to a fresh solve.  A miss drops the entry before it
factors, so an operator holds at most one factorization: n numbers for
diagonal storage, 2n for a tridiagonal L D L^T, (k + 1) n for a band
Cholesky, (3k + 1) n for a band LU, n^2 for dense.  A refused sigma
raises before anything is stored, so it raises on every use.  Threads
may share an operator: the entry is swapped in one assignment and every
solve allocates its own output, so two misses at once may both factor
but never return a wrong result.  Copies and pickles start without the
entry (``__getstate__``), and the stored matrix is read-only, in them
too.

MatrixMarket files (array or coordinate) and dense arrays share one storage
picker: square, ||A - A^T||_F <= ``_SYM_TOL`` ||A||_F, and the bandwidth k
picks diagonal (k = 0), tridiagonal (k = 1), band (3k + 1 <= n, so the band
LU array, (3k + 1) x n, is no larger than the matrix) or dense storage.
Dense storage above order ``DENSE_EIG_LIMIT`` is refused, never picked
silently (``DenseOperator(a)`` asks for it); a band fits at any order.
Other files are a plain text diagonal, one value per line.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

#: Order above which dense eigendecompositions are refused.
DENSE_EIG_LIMIT = 4000

#: Relative symmetry tolerance accepted on ingestion.
_SYM_TOL = 1e-12

#: A shift is refused when the pivot ratio or the reciprocal condition
#: number of A - sigma*I is at or below this.
_SINGULAR_TOL = 1e-13

#: Machine epsilon as a Python float, for the O(1) shift check's scalars.
_EPS = float(np.finfo(float).eps)

#: Band Cholesky factorizations per end of ``BandedOperator.exact_interval``
#: before it falls back to ``scipy.linalg.eigvals_banded``.
_BRACKET_BUDGET = 32

#: ``exact_interval`` closes the bracket of an end of the band spectrum at
#: this share of the end, or at 4 eps max(|gl|, |gu|), its rounding floor.
_BRACKET_CLOSE = 2e-14


@dataclass(frozen=True)
class SpectralInterval:
    """Closed interval [lower, upper] enclosing the spectrum; the endpoints
    are stored as floats."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        try:
            lower, upper = float(self.lower), float(self.upper)
        except (TypeError, ValueError):
            raise ValueError("spectral interval endpoints must be reals, got "
                             f"{self.lower!r}, {self.upper!r}") from None
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("spectral interval endpoints must be finite")
        if self.lower > self.upper:
            raise ValueError(
                f"empty spectral interval [{self.lower}, {self.upper}]"
            )

    @property
    def kappa(self) -> float:
        """Condition ratio upper/lower (positive intervals only)."""
        return self.upper / self.require_positive().lower

    def require_positive(self) -> "SpectralInterval":
        if self.lower <= 0.0:
            raise ValueError(
                f"interval [{self.lower}, {self.upper}] is not positive"
            )
        return self

    def shifted(self, c: float) -> "SpectralInterval":
        return SpectralInterval(self.lower + c, self.upper + c)

    def hull(self, other: "SpectralInterval") -> "SpectralInterval":
        """The smallest interval enclosing this one and ``other``."""
        return SpectralInterval(min(self.lower, other.lower),
                                max(self.upper, other.upper))

    def __iter__(self):
        yield self.lower
        yield self.upper


def positive_interval(interval) -> SpectralInterval:
    """``interval`` (a SpectralInterval or a pair of reals, not a string)
    as a finite SpectralInterval with 0 < a <= b; else ValueError.  The one
    reading of a caller's interval."""
    if not isinstance(interval, SpectralInterval):
        try:
            a, b = () if isinstance(interval, (str, bytes)) else interval
        except (TypeError, ValueError):
            raise ValueError("interval must be a SpectralInterval or a pair "
                             f"(a, b) of reals, got {interval!r}") from None
        interval = SpectralInterval(a, b)
    return interval.require_positive()


def count(value, name: str) -> int:
    """``value`` as an int >= 1 (as ``operator.index`` takes it, so not 2.0):
    every pole count, order and size; else ValueError naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return value


def finite(a, name: str) -> np.ndarray:
    """``a`` as an array; ValueError naming ``name`` unless every entry is
    finite.  Run where outside data comes in, never per solve (``as_block``)."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a[~np.isfinite(a)][0]}")
    return a


def as_block(rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """View ``rhs`` as an (n, k) block; report whether it was 1-D."""
    rhs = np.asarray(rhs)
    if rhs.ndim == 1:
        return rhs[:, None], True
    if rhs.ndim != 2:
        raise ValueError(f"expected vector or block, got ndim={rhs.ndim}")
    return rhs, False


def _restore(block: np.ndarray, was_1d: bool) -> np.ndarray:
    return block[:, 0] if was_1d else block


def as_pole(sigma, name: str = "pole") -> float | complex:
    """``sigma`` as a float when its imaginary part is zero, else a complex:
    the one reading of a pole or shift, which decides when two shifts are
    the same pole.  -0.0 reads as 0.0 and -inf (or a complex inf) as inf;
    a NaN in either part is refused, naming ``name``."""
    sigma = complex(sigma) + 0.0  # -0.0 + 0.0 is 0.0
    if sigma != sigma:
        raise ValueError(f"{name} is NaN")
    re = sigma.real
    return sigma if sigma.imag != 0.0 else abs(re) if math.isinf(re) else re


def as_poles(poles, name: str) -> list:
    """The poles of an iterable as ``as_pole`` reads them, all before any is
    used; a NaN raises ``"{name}: pole {i} is NaN"``."""
    poles = list(poles)
    try:
        return [as_pole(p) for p in poles]
    except ValueError:  # read again, naming each pole, to name the refused one
        return [as_pole(p, f"{name}: pole {i}") for i, p in enumerate(poles)]


def _pivot_ratio(pivots: np.ndarray) -> float:
    """min |p| / max |p| (0 where every pivot is 0); positive real pivots,
    as an SPD factorization gives, are read with no |p| copy."""
    if np.isrealobj(pivots) and (lo := pivots.min()) > 0.0:
        return lo / pivots.max()
    pivots = np.abs(pivots)
    return pivots.min() / (pivots.max() or 1.0)  # all zero: ratio 0


def _require_regular(sigma: complex, pivots: np.ndarray, rcond: float) -> None:
    """The shift rule of the module docstring; NaN refuses too."""
    ratio = _pivot_ratio(pivots)
    if not (ratio > _SINGULAR_TOL and rcond > _SINGULAR_TOL):
        raise ValueError(
            f"shift sigma={sigma} is singular or near-singular for this "
            f"operator (pivot ratio {ratio:.1e}, reciprocal condition "
            f"number {rcond:.1e})"
        )


def _unit_scale(anorm: float) -> float:
    """1.0 for a norm within 2^+-256; else the power of two c with c * anorm
    in [1, 2) (capped at 2^1023).

    Every storage factors c (A - sigma*I) and scales by c (``_times``), so
    LAPACK and the diagonal's division work on numbers far from both ends
    of the float range, where unscaled condition estimators return 0 for
    an inverse near overflow, so the shift rule is scale invariant.  A power of two scales
    every rounding exactly, so the solves are bit-identical to unscaled
    ones.
    """
    e = math.frexp(anorm)[1]
    return 1.0 if -256 < e <= 256 else math.ldexp(1.0, min(1 - e, 1023))


def _pbtrf(ab: np.ndarray, c: float, diag: np.ndarray) -> np.ndarray | None:
    """The lower band Cholesky factor L of the band whose off-diagonals are
    c times those of the lower band form ``ab`` and whose diagonal is
    ``diag``, by LAPACK ``pbtrf`` in O(n k^2), or None where a pivot is not
    positive (the band is not numerically positive definite).  The band is
    built in Fortran order, so ``pbtrf`` factors it in place."""
    m = np.empty(ab.shape, order="F")
    np.multiply(ab, c, out=m)
    m[0] = diag
    factor, info = sla.lapack.dpbtrf(m, lower=1, overwrite_ab=1)
    return factor if info == 0 else None


def _band_cholesky(ab: np.ndarray, sigma: float, anorm: float,
                   sign: float = 1.0):
    """``(c, L)``: the lower band Cholesky factor L of c (B - sigma*I),
    B = ``sign`` * A (+-A), for A in the lower band form ``ab`` and c the
    ``_unit_scale`` of ``anorm`` >= ||B - sigma*I|| (``_pbtrf``).  L is
    None where a pivot is not positive: c (B - sigma*I) is not numerically
    positive definite, so by Sylvester's law of inertia B has an
    eigenvalue at or below sigma, up to the factorization's backward
    error."""
    c = _unit_scale(anorm)
    diag = sign * ab[0]  # c (B - sigma I)'s diagonal, in one vector
    diag -= sigma
    diag *= c
    return c, _pbtrf(ab, sign * c, diag)


def _times(c: float, solve, sigma: complex):
    """B -> (A - sigma*I)^-1 B, given ``solve`` for c (A - sigma*I).

    A small operator (c > 1) solves against c * B, whose solution is the
    answer itself; a large one (c < 1) solves against B and scales the
    solution by c.  So no LAPACK intermediate is much smaller than B or the
    answer, and the powers of two are exact.  The shift rule is scale
    invariant only down to the smallest normal float, so a subnormal
    operator can pass it with a solution beyond the float range: a scaled
    solve that leaves a non-finite entry raises a ValueError naming sigma.
    An unscaled solve (c == 1) is returned as it is.
    """
    if c == 1.0:
        return solve

    def scaled(b):
        with np.errstate(over="ignore"):
            if c > 1.0:
                x = c * b
                if np.isfinite(x).all():
                    x = solve(x)
            else:
                x = solve(b)
                x *= c
        if not np.isfinite(x).all():
            raise ValueError(
                f"shift sigma={sigma}: the solution of (A - sigma*I) x = b "
                "overflows the float range")
        return x
    return scaled


def _require_symmetric(a, name: str) -> None:
    """ValueError unless A (dense or sparse) is square with
    ||A - A^T||_F <= _SYM_TOL ||A||_F.  Both norms are taken of c A, with c
    the ``_unit_scale`` of max |a_ij|, so neither overflows nor underflows
    to 0 at any scale."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got {a.shape}")
    def entries(x):
        return x if isinstance(x, np.ndarray) else x.data
    c = _unit_scale(np.abs(entries(a)).max(initial=0.0))
    if c != 1.0:
        a = c * a
    dev, norm = (np.linalg.norm(entries(x)) for x in (a - a.T, a))
    if dev > _SYM_TOL * norm:
        raise ValueError(
            f"{name}: not symmetric, ||A - A^T|| = {dev / c:.3e} "
            f"exceeds {_SYM_TOL:.0e} * ||A||"
        )


class HermitianOperator:
    """Base class; concrete storage lives in the subclasses."""

    #: ``(sigma, solve)`` of the last factorization (module doc), or None.
    _last_factor = None

    def __init__(self, n: int):
        self.n = int(n)

    def __getstate__(self) -> dict:
        # A solve is a closure: copies and pickles start without one.
        state = self.__dict__.copy()
        state.pop("_last_factor", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Unpickled and deep-copied arrays come back writable.
        self.__dict__.update(state)
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # -- mandatory interface -------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def shifted_solve(self, sigma: complex, rhs: np.ndarray) -> np.ndarray:
        """Solve (A - sigma*I) x = rhs; sigma == inf returns rhs unchanged
        and a near-singular sigma raises ValueError (see the module doc).

        The factorization is the operator's last one at this sigma, else a
        fresh one that replaces it (the factor cache of the module doc); a
        refused sigma is never stored.  A zero-width block still runs the
        shift rule and returns an (n, 0) array without a LAPACK call.
        Each storage lists this method in its own class dict, where a
        profiler can wrap it per storage.
        """
        sigma, (block, was_1d) = as_pole(sigma, "sigma"), as_block(rhs)
        if np.isinf(sigma):
            return _restore(block.copy(), was_1d)
        entry = self._last_factor
        if entry is not None and entry[0] == sigma:
            solve = entry[1]
        else:
            self._last_factor = None  # at most one alive, even while factoring
            solve = self._factor(sigma)
            self._last_factor = sigma, solve
        if block.shape[1] == 0:  # no LAPACK solve on an empty right-hand side
            return np.empty(block.shape,
                            np.result_type(block, np.float64, sigma))
        if np.iscomplexobj(block) and isinstance(sigma, float):  # [Re B, Im B]
            re, im = np.hsplit(solve(np.hstack((block.real, block.imag))), 2)
            return _restore(re + 1j * im, was_1d)
        return _restore(solve(block), was_1d)

    def _factor(self, sigma: complex):
        """Solver B -> (A - sigma*I)^-1 B, real for a real sigma;
        ValueError when the shift rule (module doc) refuses sigma.  The
        one home of the rule: each storage only factors (``_decompose``)."""
        d = self.d - sigma
        anorm, c, dominant = self._shifted_norm(d, sigma)
        pivots, ratio, rcond, solve = self._decompose(sigma, c, d)
        del d  # factored (or its buffer holds the pivots)
        if not (dominant and ratio > _SINGULAR_TOL):
            anorm = self._norm(sigma) if anorm is None else anorm
            _require_regular(sigma, pivots, rcond(c * anorm))
        return _times(c, solve, sigma)

    def _decompose(self, sigma: complex, c: float, d: np.ndarray):
        """``(pivots, ratio, rcond, solve)`` of c (A - sigma*I), whose
        diagonal is c ``d``: the pivots of its factorization and their
        ratio (``_pivot_ratio``), ``rcond(||c (A - sigma*I)||_1)``, its
        reciprocal 1-norm condition number, and B -> (c (A - sigma*I))^-1 B.
        ``d`` is scratch: a storage may overwrite it."""
        raise NotImplementedError

    def _discs(self, radii: np.ndarray) -> None:
        """Keep the off-diagonal absolute row sums (= column sums) r and
        the Gershgorin ends min(d - r), max(d + r) (module doc)."""
        self._radii = radii
        self._gl = float(np.min(self.d - radii))
        self._gu = float(np.max(self.d + radii))

    def _norm(self, sigma: complex) -> float:
        """||A - sigma*I||_1, by one O(n) pass."""
        return np.max(np.abs(self.d - sigma) + self._radii)

    def _shifted_norm(self, d: np.ndarray,
                      sigma: complex) -> tuple[float | None, float, bool]:
        """For M = A - sigma*I with diagonal ``d``: ||M||_1, its
        ``_unit_scale`` c, and whether Varah's bound clears the rcond half
        of the shift rule twice over (module doc); the factor 2 covers the
        rounding of alpha and of LAPACK's estimate.  A margin below the
        normal range is exact (gradual underflow), so c * alpha compares
        in the units of c, scale invariant like the rule.

        A real sigma first tries ||M||_1 = gu - sigma and alpha = gl -
        sigma, off the passes' values by a few ulps of S = |gl| + |gu| +
        |sigma|: "dominant", with c = 1 and ||M||_1 as None (``_norm``
        computes it), where alpha - 2 tol ||M||_1 > 8 eps S and ||M||_1
        lies well inside 2^+-256, so the passes would say the same."""
        if isinstance(sigma, float):
            anorm, alpha = self._gu - sigma, self._gl - sigma
            slack = 8.0 * _EPS * (abs(self._gl) + abs(self._gu) + abs(sigma))
            if (alpha - 2.0 * _SINGULAR_TOL * anorm > slack
                    and -250 < math.frexp(anorm)[1] <= 250):
                return None, 1.0, True
        work = np.abs(d)  # |d| + r, then |d| - r, in one buffer
        work += self._radii
        anorm = np.max(work)
        c = _unit_scale(anorm)
        np.abs(d, out=work)
        work -= self._radii
        alpha = np.min(work)
        return anorm, c, c * alpha > 2.0 * _SINGULAR_TOL * (c * anorm)

    def gershgorin(self) -> SpectralInterval:
        return SpectralInterval(self._gl, self._gu)

    def to_dense(self) -> np.ndarray:
        raise NotImplementedError

    def diag_shifted(self, c: float) -> "HermitianOperator":
        """Return a new operator representing A + c*I (same storage)."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def dense_eig(self):
        """Full eigendecomposition (w, Q); refuses orders above
        ``DENSE_EIG_LIMIT``."""
        if self.n > DENSE_EIG_LIMIT:
            raise ValueError(
                f"order {self.n} exceeds dense eigendecomposition limit "
                f"{DENSE_EIG_LIMIT}"
            )
        return self._eig()

    def _eig(self):
        return np.linalg.eigh(self.to_dense())

    def exact_interval(self) -> SpectralInterval:
        """Tight enclosure from a dense eigendecomposition."""
        w, _ = self.dense_eig()
        return _enclose(w[0], w[-1])


def _enclose(lo: float, hi: float) -> SpectralInterval:
    # Widen by a few ulps so rounding in the eigensolver cannot push an
    # eigenvalue outside the reported interval.
    pad = 8.0 * np.finfo(float).eps * max(abs(lo), abs(hi), 1e-300)
    return SpectralInterval(lo - pad, hi + pad)


def _band_lowest(ab: np.ndarray, gl: float, gu: float,
                 floor: float = -math.inf, sign: float = 1.0) -> float | None:
    """A lower bound of the smallest eigenvalue of the band B = ``sign`` * A
    (+-A, so -A needs no copy), for A in the lower band form ``ab`` and B's
    Gershgorin ends ``gl`` <= ``gu``, by a bracket [lo, hi] closed to
    ``_BRACKET_CLOSE`` (``BandedOperator.exact_interval``).

    lo is the last shift t whose ``_band_cholesky`` succeeds, starting
    from max(gl - 8 eps scale, ``floor``), scale = max(|gl|, |gu|).  hi is the
    least of min_i b_ii, every shift whose factorization fails, and the
    Rayleigh quotients of two inverse-iteration steps on each successful
    factor.  The next shift is that quotient less the residual norm,
    which keeps it below the spectrum once the vector has converged;
    where that is not above lo, or after a failure, it is the bracket's
    midpoint.  None where the first shift fails, a solve overflows, or
    the bracket is still open after ``_BRACKET_BUDGET`` factorizations.
    One factor is alive at a time: each is dropped after its two steps.
    """
    scale = max(abs(gl), abs(gu))
    lo = max(gl - 8.0 * _EPS * scale, floor)
    # e_i^T B e_i >= the smallest eigenvalue
    hi = float(ab[0].min()) if sign > 0 else -float(ab[0].max())
    x = np.random.default_rng(0).standard_normal((ab.shape[1], 1))
    x /= np.abs(x).max()
    found, t = False, lo
    for _ in range(_BRACKET_BUDGET):
        c, factor = _band_cholesky(ab, t, max(gu - t, t - gl), sign)
        step = math.inf  # after a failure: the midpoint
        if factor is None:
            if not found:
                return None
            hi = t
        else:
            lo, found = t, True
            # Two steps of inverse iteration, each vector scaled to a
            # largest entry of 1, so no 2-norm below over- or underflows.
            for _ in range(2):
                prev = x
                y = sla.lapack.dpbtrs(factor, x, lower=1)[0]
                s = max(float(y.max()), -float(y.min()))  # max |y|, or NaN
                if not s < math.inf:
                    return None
                y /= s
                x = y
            factor = y = None
            # c (B - lo I) (s x) = prev: Rayleigh quotient and residual of
            # c (B - lo I) at x, then both in units of A.
            xx = float(np.vdot(x, x))
            mu = float(np.vdot(x, prev)) / (s * xx)
            r = prev - (mu * s) * x
            hi = min(hi, lo + mu / c)
            step = math.sqrt(float(np.vdot(r, r)) / xx) / (s * c)
            prev = r = None  # only x lives on to the next factorization
        close = max(_BRACKET_CLOSE * abs(hi), 4.0 * _EPS * scale)
        if hi - lo <= close:
            return lo
        t = hi - max(step, 0.5 * close)
        if not t > lo:
            t = 0.5 * (lo + hi)
    return None


class DenseOperator(HermitianOperator):
    """Dense symmetric storage, O(n^2) matvec, LU-based shifted solves.
    The stored ``a`` is read-only."""

    def __init__(self, a: np.ndarray):
        a = finite(np.asarray(a, dtype=float), "matrix")
        _require_symmetric(a, "matrix")
        super().__init__(a.shape[0])
        self.a = 0.5 * (a + a.T)  # store an exactly symmetric copy
        self.a.flags.writeable = False  # the cached factorization stays valid
        off = np.abs(self.a)
        np.fill_diagonal(off, 0.0)  # off-diagonal sums, no cancellation
        self._discs(off.sum(axis=1))

    @property
    def d(self) -> np.ndarray:
        """The diagonal, a read-only view of ``a``."""
        return np.diag(self.a)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x

    shifted_solve = HermitianOperator.shifted_solve

    def _decompose(self, sigma: complex, c: float, d: np.ndarray):
        m = self.a.astype(d.dtype)
        m[np.diag_indices_from(m)] = d
        if c != 1.0:
            m *= c
        getrf, gecon = sla.get_lapack_funcs(("getrf", "gecon"), (m,))
        # m is symmetric, so m.T, its Fortran-ordered view, is m itself:
        # getrf factors it in place, with no transposed copy.
        lu, piv, _ = getrf(m.T, overwrite_a=True)
        pivots = np.diag(lu)
        return (pivots, _pivot_ratio(pivots), lambda cnorm: gecon(lu, cnorm)[0],
                lambda b: sla.lu_solve((lu, piv), b))

    def to_dense(self) -> np.ndarray:
        return self.a.copy()

    def diag_shifted(self, c: float) -> "DenseOperator":
        return DenseOperator(self.a + c * np.eye(self.n))


class BandedOperator(HermitianOperator):
    """Symmetric band storage with LAPACK band Cholesky or band LU shifted
    solves (module doc).

    ``ab`` is the lower band form read by ``scipy.linalg.eig_banded``:
    ``ab[i, j] = A[j + i, j]`` for the bandwidth k = ``ab.shape[0] - 1``,
    capped at n - 1; the unused tail ``ab[i, n - i:]`` is ignored.  The
    stored ``ab`` is read-only.  Diagonal (k = 0) and tridiagonal (k = 1)
    storage are the subclasses below, which share everything here but their
    own solves and spectral routes.
    """

    def __init__(self, ab: np.ndarray):
        ab = np.array(ab, dtype=float)
        if ab.ndim != 2 or 0 in ab.shape:
            raise ValueError(
                f"band: expected a (k + 1, n) array with n >= 1, got {ab.shape}")
        super().__init__(ab.shape[1])
        ab = ab[:self.n]
        for i in range(1, ab.shape[0]):
            ab[i, self.n - i:] = 0.0
        self.ab = finite(ab, "band")
        self.ab.flags.writeable = False
        self.k = self.ab.shape[0] - 1
        # The stored off-diagonals that hold a nonzero.
        self._offsets = [i for i in range(1, self.k + 1) if self.ab[i].any()]
        # Whether a real shift tries band Cholesky first (``_decompose``):
        # k >= 2 and no stored off-diagonal is positive, so every
        # A - sigma*I is a Z-matrix.
        self._z_band = self.k >= 2 and not (self.ab[1:] > 0.0).any()
        radii = np.zeros(self.n)
        for i in self._offsets:
            e = np.abs(self.ab[i, :self.n - i])
            radii[i:] += e
            radii[:-i] += e
        self._discs(radii)

    @property
    def d(self) -> np.ndarray:
        """The diagonal, a read-only view of ``ab``."""
        return self.ab[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        block, was_1d = as_block(x)
        out = self.ab[0][:, None] * block
        for i in self._offsets:
            e = self.ab[i, :self.n - i, None]
            out[:-i] += e * block[i:]
            out[i:] += e * block[:-i]
        return _restore(out, was_1d)

    shifted_solve = HermitianOperator.shifted_solve

    def _decompose(self, sigma: complex, c: float, d: np.ndarray):
        n, k = self.n, self.k
        if self._z_band and isinstance(sigma, float):
            factor = _pbtrf(self.ab, c, c * d if c != 1.0 else d)
            if factor is not None:
                # c (A - sigma*I) = L L^T is an SPD Z-matrix, so its inverse
                # is entrywise nonnegative and its 1-norm is max(M^-1 1)
                # exactly.  The D of L D L^T are the squares of diag(L),
                # written over d, which the factor no longer needs; the
                # rcond solves in place in its vector of ones.
                pbtrs = sla.lapack.dpbtrs
                pivots = np.square(factor[0], out=d)

                def rcond(cnorm):
                    x = pbtrs(factor, np.ones((n, 1)), lower=1,
                              overwrite_b=1)[0]
                    return 1.0 / (cnorm * x.max())
                return (pivots, _pivot_ratio(pivots), rcond,
                        lambda b: pbtrs(factor, b, lower=1)[0])
        # General band form of A - sigma*I with kl = ku = k and room for
        # the fill-in of partial pivoting: A[i, j] sits in row 2k + i - j.
        # In Fortran order, so gbtrf factors it in place.
        m = np.zeros((3 * k + 1, n), dtype=d.dtype, order="F")
        m[2 * k] = d
        for i in self._offsets:
            m[2 * k + i, :n - i] = m[2 * k - i, i:] = self.ab[i, :n - i]
        if c != 1.0:
            m *= c
        gbtrf, gbcon, gbtrs = sla.get_lapack_funcs(("gbtrf", "gbcon", "gbtrs"), (m,))
        lu, piv, _ = gbtrf(m, k, k, overwrite_ab=True)
        return (lu[2 * k], _pivot_ratio(lu[2 * k]),
                lambda cnorm: gbcon(k, k, lu, piv, cnorm)[0],
                lambda b: gbtrs(lu, k, k, b, piv)[0])

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.ab[0])
        for i in self._offsets:
            j = np.arange(self.n - i)
            a[j + i, j] = a[j, j + i] = self.ab[i, :self.n - i]
        return a

    def exact_interval(self) -> SpectralInterval:
        """The two ends of the spectrum by inertia (``_band_lowest``, O(n k^2)
        per band Cholesky factorization): the lower end on A, with no shift
        below 0, and the upper on -A, both through ``_enclose``.
        ``scipy.linalg.eigvals_banded`` (O(n^2 k), no n x n array) takes
        over where A itself has no Cholesky factor (indefinite or singular
        input), where an end is still open after ``_BRACKET_BUDGET``
        factorizations, and where the interval's lower end is not
        positive, so every interval ``positive_interval`` refuses is the
        eigensolver's."""
        lo = _band_lowest(self.ab, self._gl, self._gu, floor=0.0)
        neg_hi = None if lo is None else _band_lowest(
            self.ab, -self._gu, -self._gl, sign=-1.0)
        if neg_hi is not None:
            iv = _enclose(lo, -neg_hi)
            if iv.lower > 0.0:
                return iv
        w = sla.eigvals_banded(self.ab, lower=True)
        return _enclose(w[0], w[-1])

    def diag_shifted(self, c: float) -> "BandedOperator":
        """A + c*I in the same class (a subclass is a band too)."""
        shifted = object.__new__(type(self))
        BandedOperator.__init__(shifted, [self.ab[0] + c, *self.ab[1:]])
        return shifted


class DiagonalOperator(BandedOperator):
    """Diagonal storage, the band with k = 0; solves are elementwise
    divisions."""

    def __init__(self, d: np.ndarray):
        # A 1-D d is a (1, n) band; any other shape fails the band's check.
        super().__init__(np.asarray(d, dtype=float)[None])

    # Listed per class, like ``shifted_solve``, so a profiler can wrap it
    # per storage.
    matvec = BandedOperator.matvec
    shifted_solve = HermitianOperator.shifted_solve

    def _decompose(self, sigma: complex, c: float, d: np.ndarray):
        # The pivots are the diagonal, whose ratio is the exact rcond.  At
        # or below min d, their ends are min d - sigma and max d - sigma,
        # exactly (subtraction rounds monotonically); c moves no ratio > tol.
        if isinstance(sigma, float) and sigma <= self._gl:
            ratio = (self._gl - sigma) / ((self._gu - sigma) or 1.0)
        else:
            ratio = _pivot_ratio(d)
        d = c * d if c != 1.0 else d
        return d, ratio, lambda cnorm: 1.0, lambda b: b / d[:, None]

    def _eig(self):
        # Closed form: the sorted entries and permuted unit vectors.
        order = np.argsort(self.d)
        return self.d[order], np.eye(self.n)[:, order]

    def exact_interval(self) -> SpectralInterval:
        return _enclose(float(self.d.min()), float(self.d.max()))


class TridiagonalOperator(BandedOperator):
    """Symmetric tridiagonal storage, the band with k = 1 (k = 0 at order
    1), with O(n) shifted solves."""

    def __init__(self, d: np.ndarray, e: np.ndarray):
        d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
        if d.ndim != 1 or e.shape != (d.size - 1,):
            raise ValueError(
                f"tridiagonal: expected d of shape (n,) and e of shape "
                f"(n - 1,), got {d.shape} and {e.shape}")
        super().__init__([d, np.append(e, 0.0)])

    @property
    def e(self) -> np.ndarray:
        """The off-diagonal, a read-only view of ``ab`` (empty at order 1)."""
        return self.ab[1, :-1] if self.k else self.ab[0, :0]

    matvec = BandedOperator.matvec
    shifted_solve = HermitianOperator.shifted_solve

    def _decompose(self, sigma: complex, c: float, d: np.ndarray):
        if self.n > 1 and np.isrealobj(d):  # pttrf: n >= 2
            pttrf, pttrs = sla.get_lapack_funcs(("pttrf", "pttrs"), (d,))
            # pttrf overwrites both inputs: d, and c * e for the read-only
            # e, which f2py would write into.
            dd, l, info = pttrf(d if c == 1.0 else c * d, c * self.e,
                                overwrite_d=True, overwrite_e=True)
            if info == 0:
                # c (A - sigma*I) = L D L^T is SPD (every pivot > 0), and the
                # absolute value of its inverse is the inverse of the factors
                # with -|l|.
                def rcond(cnorm):
                    x = pttrs(dd, -np.abs(l), np.ones((self.n, 1)))[0]
                    return 1.0 / (cnorm * x.max())
                return dd, dd.min() / dd.max(), rcond, lambda b: pttrs(dd, l, b)[0]
            d = self.d - sigma  # in place of the overwritten one
        return super()._decompose(sigma, c, d)

    def _eig(self):
        return sla.eigh_tridiagonal(self.d, self.e)

    # -- Toeplitz special case ----------------------------------------------

    def toeplitz_scale(self) -> float | None:
        """Scale c when this is c*tridiag(-1, 2, -1), else None."""
        if self.n < 2:
            return None
        c = -self.e[0]
        if c <= 0.0:
            return None
        if np.all(self.d == 2.0 * c) and np.all(self.e == -c):
            return float(c)
        return None

    def exact_interval(self) -> SpectralInterval:
        c = self.toeplitz_scale()
        if c is not None:
            # Eigenvalues of c*tridiag(-1,2,-1): 2c*(1 - cos(k*pi/(n+1))).
            t = np.pi / (self.n + 1)
            return _enclose(
                2.0 * c * (1.0 - math.cos(t)),
                2.0 * c * (1.0 - math.cos(self.n * t)),
            )
        # The two extreme eigenvalues alone, by bisection: O(n) work and
        # memory, no eigenvectors and no order cap.
        lo, hi = (sla.eigvalsh_tridiagonal(self.d, self.e, select="i",
                                           select_range=(i, i))[0]
                  for i in (0, self.n - 1))
        return _enclose(lo, hi)


def toeplitz_tridiagonal(n: int, scale: float = 1.0) -> TridiagonalOperator:
    """The 1-D diffusion stencil c*tridiag(-1, 2, -1) of order n."""
    n = count(n, "n")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    return TridiagonalOperator(
        np.full(n, 2.0 * scale), np.full(n - 1, -scale)
    )


# ---------------------------------------------------------------------------
# spectral interval estimation


def spectral_interval(
    op: HermitianOperator,
    mode: str = "exact-small",
    floor: float | None = None,
) -> SpectralInterval:
    """Enclosure of the spectrum of ``op``.

    Parameters
    ----------
    mode : {"gershgorin", "exact-small"}
        ``gershgorin`` uses disc bounds and clamps the lower end at
        ``floor`` (required whenever the disc lower bound is <= 0, as for
        discrete Laplacians).  ``exact-small`` computes the extreme
        eigenvalues: in closed form for c*tridiag(-1, 2, -1), by bisection
        for other tridiagonals, by inertia for other band storage (band
        Cholesky brackets, O(n k^2) per factorization, at most
        ``_BRACKET_BUDGET`` per end, with ``eigvals_banded`` as the
        fallback; ``BandedOperator.exact_interval``), and from a dense
        decomposition otherwise (order capped by ``DENSE_EIG_LIMIT``).
    """
    if mode == "gershgorin":
        iv = op.gershgorin()
        if floor is not None:
            if not floor > 0.0:
                raise ValueError(f"gershgorin floor must be > 0, got {floor!r}")
            return SpectralInterval(max(iv.lower, float(floor)), iv.upper)
        if iv.lower <= 0.0:
            raise ValueError(
                "Gershgorin lower bound is non-positive "
                f"({iv.lower:.3e}); pass an explicit positive floor"
            )
        return iv
    if mode == "exact-small":
        return op.exact_interval()
    raise ValueError(f"unknown spectral interval mode {mode!r}")


# ---------------------------------------------------------------------------
# reference evaluation paths (oracles)


def oracle_funv(
    op: HermitianOperator,
    f,
    v: np.ndarray,
) -> np.ndarray:
    """Reference f(A) v through an exact eigendecomposition.

    Dense decompositions are refused above ``DENSE_EIG_LIMIT``; the constant
    tridiagonal Toeplitz family c*tridiag(-1,2,-1) is handled at any order
    through its closed-form sine eigenvectors (an orthonormal DST-I).
    """
    block, was_1d = as_block(v)
    if isinstance(op, TridiagonalOperator):
        c = op.toeplitz_scale()
        if c is not None:
            from scipy.fft import dst

            n = op.n
            lam = 2.0 * c * (1.0 - np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
            coeff = dst(block, type=1, norm="ortho", axis=0)
            out = dst(f(lam)[:, None] * coeff, type=1, norm="ortho", axis=0)
            return _restore(out, was_1d)
    if isinstance(op, DiagonalOperator):
        return _restore(f(op.d)[:, None] * block, was_1d)
    w, q = op.dense_eig()
    out = q @ (f(w)[:, None] * (q.T @ block))
    return _restore(out, was_1d)


# ---------------------------------------------------------------------------
# file ingestion


def load_matrix(path: str) -> HermitianOperator:
    """Build an operator from a matrix file.

    MatrixMarket files (``.mtx``/``.mm`` or a ``%%MatrixMarket`` header)
    are accepted in array or coordinate form and go through the storage
    picker.  Any other file is read as a plain text diagonal, one value per
    line.  A file either reader cannot parse is refused naming ``path``.
    """
    with open(path, "rb") as fh:
        head = fh.read(64)
    market = path.endswith((".mtx", ".mm")) or head.startswith(b"%%MatrixMarket")
    if market:
        import scipy.io
    try:
        a = scipy.io.mmread(path) if market else np.loadtxt(path, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if market:
        return _pick_storage(a, path)
    if a.ndim != 1:
        raise ValueError(
            f"{path}: expected one diagonal value per line, got shape {a.shape}"
        )
    return DiagonalOperator(a)


def from_dense_array(m: np.ndarray) -> HermitianOperator:
    """Wrap a dense array, dropping to banded storage when possible."""
    return _pick_storage(np.asarray(m, dtype=float), "matrix")


def _pick_storage(m, name: str) -> HermitianOperator:
    """Store a square symmetric matrix (dense array or scipy.sparse) by its
    bandwidth k: diagonal (k = 0), tridiagonal (k = 1), banded while the
    band LU array, (3k + 1) x n, is no larger than the matrix, else dense
    (refused above order ``DENSE_EIG_LIMIT``)."""
    import scipy.sparse

    m = scipy.sparse.csr_array(m, dtype=float)
    _require_symmetric(m, name)
    n = m.shape[0]
    coo = m.tocoo()
    nz = coo.data != 0.0
    row, col, val = coo.row[nz], coo.col[nz], coo.data[nz]
    band = int(np.abs(col - row).max(initial=0))
    if band >= 2 and 3 * band + 1 > n:
        if n > DENSE_EIG_LIMIT:
            raise ValueError(
                f"{name}: order {n} with bandwidth {band} would need "
                f"dense storage, refused above order {DENSE_EIG_LIMIT}; build "
                "DenseOperator(a) to ask for it explicitly"
            )
        return DenseOperator(m.toarray())
    # Lower band form; each off-diagonal is the mean of A's two triangles.
    ab = np.zeros((band + 1, n))
    low = row >= col
    ab[row[low] - col[low], col[low]] = val[low]
    ab[col[~low] - row[~low], row[~low]] += val[~low]
    ab[1:] *= 0.5
    if band == 0:
        return DiagonalOperator(ab[0])
    if band == 1:
        return TridiagonalOperator(ab[0], ab[1, :-1])
    return BandedOperator(ab)


def save_matrix_market(path: str, op: HermitianOperator) -> None:
    """Write an operator in MatrixMarket coordinate form; the band storages
    write their bands without an n x n array."""
    import scipy.io
    import scipy.sparse

    if isinstance(op, BandedOperator):
        off = op._offsets
        bands = [op.ab[i, :op.n - i] for i in off]
        m = scipy.sparse.diags([op.ab[0], *bands, *bands],
                               [0, *off, *(-i for i in off)], shape=(op.n, op.n))
    else:
        m = op.to_dense()
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(m))
