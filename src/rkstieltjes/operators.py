"""Real symmetric operators with shifted solves and spectral enclosures.

Four storage formats are supported: dense, diagonal, symmetric tridiagonal
and symmetric band.  Every operator knows how to apply itself to a block of
vectors, solve (A - sigma*I) X = RHS for real or complex shifts, and
produce a guaranteed enclosure of its spectrum.  Shifts of ``inf`` act as
the identity (the corresponding rational factor is simply omitted), which
is the convention the rational Krylov layer relies on; a shift with zero
imaginary part is real.

Shift rule, one for every storage: sigma is refused (ValueError) when the
smallest pivot of A - sigma*I (partial pivoting) is at most
``_SINGULAR_TOL`` times the largest, or its reciprocal 1-norm condition
number is at most ``_SINGULAR_TOL``: exact for diagonal storage and an SPD
tridiagonal L D L^T, LAPACK's ``gecon``/``gtcon``/``gbcon`` estimate
otherwise.  Both are scale invariant.  Pivots alone miss an eigenvalue
whose eigenvector is localized: every pivot can stay O(1).

Factor cache: ``shifted_solve(sigma, rhs, factors=d)`` keeps the
factorization of A - sigma*I (LU, band or tridiagonal LU, or the shifted
diagonal) in the caller's dict ``d``, keyed by sigma (0.0 apart from -0.0)
and the dtype of the solve, and on a later call with the same sigma runs
only the triangular solves, so the result is bit-identical to a fresh
solve.  The caller owns the dict and uses it with one operator only; each
``RKDecomposition`` keeps one, so the operator itself holds no state and
may be shared between threads.  The dict keeps only the last factor, and a
miss drops it before factoring, because a dense factor costs n^2 numbers;
the only repeated finite pole, extended Krylov's sigma = 0, needs no more.
The shift rule runs with the factorization, and a refused sigma raises
before anything is stored, so it raises on every use.

MatrixMarket files (array or coordinate) and dense arrays share one storage
picker: square, ||A - A^T||_F <= ``_SYM_TOL`` ||A||_F, and the bandwidth k
picks diagonal (k = 0), tridiagonal (k = 1), band (3k + 1 <= n, so the band
LU array, (3k + 1) x n, is no larger than the matrix) or dense storage.
Order above ``DENSE_EIG_LIMIT`` with k >= 2 is refused, never stored
silently (``DenseOperator(a)`` or ``BandedOperator(ab)`` asks for it).
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


@dataclass(frozen=True)
class SpectralInterval:
    """Closed interval [lower, upper] enclosing the spectrum."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("spectral interval endpoints must be finite")
        if self.lower > self.upper:
            raise ValueError(
                f"empty spectral interval [{self.lower}, {self.upper}]"
            )

    @property
    def kappa(self) -> float:
        """Condition ratio upper/lower (positive intervals only)."""
        if self.lower <= 0.0:
            raise ValueError("kappa requires a positive interval")
        return self.upper / self.lower

    def require_positive(self) -> "SpectralInterval":
        if self.lower <= 0.0:
            raise ValueError(
                f"interval [{self.lower}, {self.upper}] is not positive"
            )
        return self

    def shifted(self, c: float) -> "SpectralInterval":
        return SpectralInterval(self.lower + c, self.upper + c)

    def __iter__(self):
        yield self.lower
        yield self.upper


def positive_interval(interval) -> SpectralInterval:
    """``interval`` (a SpectralInterval or an (a, b) pair) as a
    SpectralInterval with 0 < a <= b; ValueError otherwise."""
    if not isinstance(interval, SpectralInterval):
        interval = SpectralInterval(float(interval[0]), float(interval[1]))
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


def _solve_args(sigma: complex, rhs: np.ndarray):
    """(sigma, block, was_1d): sigma as a float when its imaginary part is
    zero, ``rhs`` as an (n, k) block."""
    sigma = complex(sigma)
    block, was_1d = as_block(rhs)
    return (sigma.real if sigma.imag == 0.0 else sigma), block, was_1d


def _require_regular(sigma: complex, pivots: np.ndarray, rcond: float = 1.0) -> None:
    """The shift rule of the module docstring; NaN refuses too."""
    pivots = np.abs(pivots)
    ratio = pivots.min() / max(pivots.max(), 1e-300)
    if not (ratio > _SINGULAR_TOL and rcond > _SINGULAR_TOL):
        raise ValueError(
            f"shift sigma={sigma} is singular or near-singular for this "
            f"operator (pivot ratio {ratio:.1e}, reciprocal condition "
            f"number {rcond:.1e})"
        )


def _solver(op: "HermitianOperator", sigma: complex, block: np.ndarray,
            factors: dict | None):
    """``op._factor(sigma, block)``, taken from or stored in ``factors``.

    The key tells 0.0 from -0.0 and carries the block's dtype, which picks
    the tridiagonal and band LAPACK routines, so a hit repeats the fresh solve bit
    for bit.  A refused sigma raises in ``_factor``, before the store.
    """
    if factors is None:
        return op._factor(sigma, block)
    key = (sigma, math.copysign(1.0, sigma.real), block.dtype.char)
    solve = factors.get(key)
    if solve is None:
        factors.clear()  # at most one factor alive, even while factoring
        solve = factors[key] = op._factor(sigma, block)
    return solve


def _dense_factor(a: np.ndarray, sigma: complex):
    """LU solver of (a - sigma*I) X = B; ``a`` is not modified."""
    m = a.astype(np.result_type(a, sigma))
    m[np.diag_indices_from(m)] -= sigma
    anorm = np.linalg.norm(m, 1)
    getrf, gecon = sla.get_lapack_funcs(("getrf", "gecon"), (m,))
    lu, piv, _ = getrf(m, overwrite_a=True)
    _require_regular(sigma, np.diag(lu), gecon(lu, anorm)[0])
    return lambda b: sla.lu_solve((lu, piv), b)


def _require_symmetric(a, name: str) -> None:
    """ValueError unless A (dense or sparse) is square with
    ||A - A^T||_F <= _SYM_TOL ||A||_F."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got {a.shape}")
    dev, norm = (np.linalg.norm(x if isinstance(x, np.ndarray) else x.data)
                 for x in (a - a.T, a))
    if dev > _SYM_TOL * norm:
        raise ValueError(
            f"{name}: not symmetric, ||A - A^T|| = {dev:.3e} "
            f"exceeds {_SYM_TOL:.0e} * ||A||"
        )


class HermitianOperator:
    """Base class; concrete storage lives in the subclasses."""

    def __init__(self, n: int):
        self.n = int(n)

    # -- mandatory interface -------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def shifted_solve(self, sigma: complex, rhs: np.ndarray,
                      factors: dict | None = None) -> np.ndarray:
        """Solve (A - sigma*I) x = rhs; sigma == inf returns rhs unchanged
        and a near-singular sigma raises ValueError (see the module doc).

        ``factors`` is the caller's factor cache for this operator (see the
        module doc): a dict, empty at first, that keeps the last
        factorization, or None to factor afresh.  A refused sigma is never
        stored.  Each storage lists this method in its own class dict,
        where a profiler can wrap it per storage.
        """
        sigma, block, was_1d = _solve_args(sigma, rhs)
        if np.isinf(sigma):
            return _restore(block.copy(), was_1d)
        return _restore(_solver(self, sigma, block, factors)(block), was_1d)

    def _factor(self, sigma: complex, block: np.ndarray):
        """Solver B -> (A - sigma*I)^-1 B for blocks of ``block``'s dtype;
        ValueError when the shift rule refuses sigma."""
        raise NotImplementedError

    def gershgorin(self) -> SpectralInterval:
        raise NotImplementedError

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


class DenseOperator(HermitianOperator):
    """Dense symmetric storage, O(n^2) matvec, LU-based shifted solves."""

    def __init__(self, a: np.ndarray):
        a = finite(np.asarray(a, dtype=float), "matrix")
        _require_symmetric(a, "matrix")
        super().__init__(a.shape[0])
        self.a = 0.5 * (a + a.T)  # store an exactly symmetric copy

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x

    shifted_solve = HermitianOperator.shifted_solve

    def _factor(self, sigma: complex, block: np.ndarray):
        return _dense_factor(self.a, sigma)

    def gershgorin(self) -> SpectralInterval:
        d = np.diag(self.a)
        radii = np.sum(np.abs(self.a), axis=1) - np.abs(d)
        return SpectralInterval(float(np.min(d - radii)), float(np.max(d + radii)))

    def to_dense(self) -> np.ndarray:
        return self.a.copy()

    def diag_shifted(self, c: float) -> "DenseOperator":
        return DenseOperator(self.a + c * np.eye(self.n))


class DiagonalOperator(HermitianOperator):
    """Diagonal storage; solves are elementwise divisions."""

    def __init__(self, d: np.ndarray):
        d = finite(np.asarray(d, dtype=float).ravel(), "diagonal")
        if d.size == 0:
            raise ValueError("diagonal operator needs at least one entry")
        super().__init__(d.size)
        self.d = d.copy()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        block, was_1d = as_block(x)
        return _restore(self.d[:, None] * block, was_1d)

    shifted_solve = HermitianOperator.shifted_solve

    def _factor(self, sigma: complex, block: np.ndarray):
        denom = self.d - sigma
        _require_regular(sigma, denom)
        return lambda b: b / denom[:, None]

    def gershgorin(self) -> SpectralInterval:
        return SpectralInterval(float(self.d.min()), float(self.d.max()))

    def to_dense(self) -> np.ndarray:
        return np.diag(self.d)

    def _eig(self):
        # Closed form: the sorted entries and permuted unit vectors.
        order = np.argsort(self.d)
        return self.d[order], np.eye(self.n)[:, order]

    def exact_interval(self) -> SpectralInterval:
        return _enclose(float(self.d.min()), float(self.d.max()))

    def diag_shifted(self, c: float) -> "DiagonalOperator":
        return DiagonalOperator(self.d + c)


class TridiagonalOperator(HermitianOperator):
    """Symmetric tridiagonal storage with O(n) banded shifted solves."""

    def __init__(self, d: np.ndarray, e: np.ndarray):
        d = finite(np.asarray(d, dtype=float).ravel(), "diagonal")
        e = finite(np.asarray(e, dtype=float).ravel(), "off-diagonal")
        if e.size != d.size - 1:
            raise ValueError(
                f"off-diagonal length {e.size} does not match order {d.size}"
            )
        super().__init__(d.size)
        self.d = d.copy()
        self.e = e.copy()
        # Off-diagonal absolute row sums (= column sums), read by every
        # factorization's norm estimate and by ``gershgorin``.
        self._radii = np.zeros(self.n)
        self._radii[:-1] += np.abs(self.e)
        self._radii[1:] += np.abs(self.e)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        block, was_1d = as_block(x)
        out = self.d[:, None] * block
        out[:-1] += self.e[:, None] * block[1:]
        out[1:] += self.e[:, None] * block[:-1]
        return _restore(out, was_1d)

    shifted_solve = HermitianOperator.shifted_solve

    def _factor(self, sigma: complex, block: np.ndarray):
        if self.n < 3:  # the LAPACK tridiagonal wrappers need order >= 3
            return _dense_factor(self.to_dense(), sigma)
        d = self.d - sigma
        gttrf, gtcon, gttrs = sla.get_lapack_funcs(
            ("gttrf", "gtcon", "gttrs"), (d, block))
        lu = gttrf(self.e, d, self.e)[:5]
        dl, u, du, du2, ipiv = lu
        anorm = np.max(np.abs(d) + self._radii)
        if (np.isrealobj(u) and u.min() > 0.0
                and np.array_equal(ipiv, np.arange(1, self.n + 1))):
            # No interchanges, positive pivots: A - sigma*I = L D L^T is SPD and
            # |(A - sigma*I)^-1| is the inverse of the factors with -|l|, -|e|.
            x = gttrs(-np.abs(dl), u, -np.abs(du), du2, ipiv, np.ones((self.n, 1)))
            rcond = 1.0 / (anorm * x[0].max())
        else:
            rcond = gtcon(*lu, anorm)[0]
        _require_regular(sigma, u, rcond)
        return lambda b: gttrs(*lu, b)[0]

    def gershgorin(self) -> SpectralInterval:
        return SpectralInterval(float(np.min(self.d - self._radii)),
                                float(np.max(self.d + self._radii)))

    def to_dense(self) -> np.ndarray:
        return np.diag(self.d) + np.diag(self.e, 1) + np.diag(self.e, -1)

    def _eig(self):
        return sla.eigh_tridiagonal(self.d, self.e)

    def diag_shifted(self, c: float) -> "TridiagonalOperator":
        return TridiagonalOperator(self.d + c, self.e)

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


class BandedOperator(HermitianOperator):
    """Symmetric band storage with LAPACK band LU shifted solves.

    ``ab`` is the lower band form read by ``scipy.linalg.eig_banded``:
    ``ab[i, j] = A[j + i, j]`` for the bandwidth k = ``ab.shape[0] - 1``;
    the unused tail ``ab[i, n - i:]`` is ignored.
    """

    def __init__(self, ab: np.ndarray):
        ab = np.array(ab, dtype=float)
        if ab.ndim != 2 or 0 in ab.shape:
            raise ValueError(f"band: expected a (k + 1, n) array, got {ab.shape}")
        super().__init__(ab.shape[1])
        ab = ab[:self.n]
        for i in range(1, ab.shape[0]):
            ab[i, self.n - i:] = 0.0
        self.ab = finite(ab, "band")
        self.k = self.ab.shape[0] - 1
        # The stored off-diagonals that hold a nonzero, and the off-diagonal
        # absolute row sums (= column sums), as in TridiagonalOperator.
        self._offsets = [i for i in range(1, self.k + 1) if self.ab[i].any()]
        self._radii = np.zeros(self.n)
        for i in self._offsets:
            e = np.abs(self.ab[i, :self.n - i])
            self._radii[i:] += e
            self._radii[:-i] += e

    def matvec(self, x: np.ndarray) -> np.ndarray:
        block, was_1d = as_block(x)
        out = self.ab[0][:, None] * block
        for i in self._offsets:
            e = self.ab[i, :self.n - i, None]
            out[:-i] += e * block[i:]
            out[i:] += e * block[:-i]
        return _restore(out, was_1d)

    shifted_solve = HermitianOperator.shifted_solve

    def _factor(self, sigma: complex, block: np.ndarray):
        # General band form of A - sigma*I with kl = ku = k and room for
        # the fill-in of partial pivoting: A[i, j] sits in row 2k + i - j.
        n, k = self.n, self.k
        m = np.zeros((3 * k + 1, n), dtype=np.result_type(self.ab, sigma, block))
        m[2 * k] = self.ab[0] - sigma
        for i in self._offsets:
            m[2 * k + i, :n - i] = m[2 * k - i, i:] = self.ab[i, :n - i]
        anorm = np.max(np.abs(m[2 * k]) + self._radii)
        gbtrf, gbcon, gbtrs = sla.get_lapack_funcs(("gbtrf", "gbcon", "gbtrs"), (m,))
        lu, piv, _ = gbtrf(m, k, k, overwrite_ab=True)
        _require_regular(sigma, lu[2 * k], gbcon(k, k, lu, piv, anorm)[0])
        return lambda b: gbtrs(lu, k, k, b, piv)[0]

    def gershgorin(self) -> SpectralInterval:
        return SpectralInterval(float(np.min(self.ab[0] - self._radii)),
                                float(np.max(self.ab[0] + self._radii)))

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.ab[0])
        for i in self._offsets:
            j = np.arange(self.n - i)
            a[j + i, j] = a[j, j + i] = self.ab[i, :self.n - i]
        return a

    def exact_interval(self) -> SpectralInterval:
        # Eigenvalues only, from the band: no n x n array.
        w = sla.eigvals_banded(self.ab, lower=True)
        return _enclose(w[0], w[-1])

    def diag_shifted(self, c: float) -> "BandedOperator":
        ab = self.ab.copy()
        ab[0] += c
        return BandedOperator(ab)


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
        for other tridiagonals, from the band for band storage, and from a
        dense decomposition otherwise (order capped by ``DENSE_EIG_LIMIT``).
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
    line.
    """
    with open(path, "rb") as fh:
        head = fh.read(64)
    if path.endswith((".mtx", ".mm")) or head.startswith(b"%%MatrixMarket"):
        import scipy.io

        return _pick_storage(scipy.io.mmread(path), path)
    d = np.loadtxt(path, dtype=float, ndmin=1)
    if d.ndim != 1:
        raise ValueError(
            f"{path}: expected one diagonal value per line, got shape {d.shape}"
        )
    return DiagonalOperator(d)


def from_dense_array(m: np.ndarray) -> HermitianOperator:
    """Wrap a dense array, dropping to banded storage when possible."""
    return _pick_storage(np.asarray(m, dtype=float), "matrix")


def _pick_storage(m, name: str) -> HermitianOperator:
    """Store a square symmetric matrix (dense array or scipy.sparse) by its
    bandwidth k: diagonal (k = 0), tridiagonal (k = 1), banded while the
    band LU array, (3k + 1) x n, is no larger than the matrix, else dense."""
    import scipy.sparse

    m = scipy.sparse.csr_array(m, dtype=float)
    _require_symmetric(m, name)
    n = m.shape[0]
    coo = m.tocoo()
    nz = coo.data != 0.0
    row, col, val = coo.row[nz], coo.col[nz], coo.data[nz]
    band = int(np.abs(col - row).max(initial=0))
    if band >= 2 and n > DENSE_EIG_LIMIT:
        raise ValueError(
            f"{name}: order {n} with bandwidth {band} would need "
            f"dense storage, refused above order {DENSE_EIG_LIMIT}; build "
            "DenseOperator(a) to ask for it explicitly"
        )
    if band >= 2 and 3 * band + 1 > n:
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

    if isinstance(op, DiagonalOperator):
        bands = {0: op.d}
    elif isinstance(op, TridiagonalOperator):
        bands = {0: op.d, 1: op.e}
    elif isinstance(op, BandedOperator):
        bands = {i: op.ab[i, :op.n - i] for i in (0, *op._offsets)}
    else:
        bands = {}
    off = [i for i in bands if i]
    m = scipy.sparse.diags([*bands.values(), *(bands[i] for i in off)],
                           [*bands, *(-i for i in off)],
                           shape=(op.n, op.n)) if bands else op.to_dense()
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(m))
