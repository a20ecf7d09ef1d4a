"""Real symmetric operators with shifted solves and spectral enclosures.

Three storage formats are supported: dense, diagonal and symmetric
tridiagonal.  Every operator knows how to apply itself to a block of
vectors, solve (A - sigma*I) X = RHS for real or complex shifts, and
produce a guaranteed enclosure of its spectrum.  Shifts of ``inf`` act as
the identity (the corresponding rational factor is simply omitted), which
is the convention the rational Krylov layer relies on; a shift with zero
imaginary part is real.

Shift rule, one for every storage: sigma is refused (ValueError) when the
smallest pivot of A - sigma*I (partial pivoting) is at most
``_SINGULAR_TOL`` times the largest, or its reciprocal 1-norm condition
number is at most ``_SINGULAR_TOL``: exact for diagonal storage and an SPD
tridiagonal L D L^T, LAPACK's ``gecon``/``gtcon`` estimate otherwise.
Both are scale invariant.  Pivots alone miss an eigenvalue whose
eigenvector is localized: every pivot can stay O(1).

MatrixMarket files (array or coordinate) and dense arrays share one
storage picker: square, ||A - A^T||_F <= ``_SYM_TOL`` ||A||_F, and the
bandwidth picks diagonal, tridiagonal or dense storage.  Dense storage
above order ``DENSE_EIG_LIMIT`` is refused, never built silently
(``DenseOperator(a)`` asks for it).  Other files are a plain text
diagonal, one value per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg as sla
import scipy.sparse
from scipy.fft import dst

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


def _dense_solve(a: np.ndarray, sigma: complex, block: np.ndarray) -> np.ndarray:
    """LU solve of (a - sigma*I) X = block; ``a`` is not modified."""
    m = a.astype(np.result_type(a, sigma))
    m[np.diag_indices_from(m)] -= sigma
    anorm = np.linalg.norm(m, 1)
    getrf, gecon = sla.get_lapack_funcs(("getrf", "gecon"), (m,))
    lu, piv, _ = getrf(m, overwrite_a=True)
    _require_regular(sigma, np.diag(lu), gecon(lu, anorm)[0])
    return sla.lu_solve((lu, piv), block)


def _require_symmetric(a, name: str) -> None:
    """ValueError unless A (dense or sparse) is square with
    ||A - A^T||_F <= _SYM_TOL ||A||_F."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got {a.shape}")
    dev, norm = (np.linalg.norm(x.data if scipy.sparse.issparse(x) else x)
                 for x in (a - a.T, a))
    if dev > _SYM_TOL * norm:
        raise ValueError(
            f"{name}: not symmetric, ||A - A^T|| = {dev:.3e} "
            f"exceeds {_SYM_TOL:.0e} * ||A||"
        )


class HermitianOperator:
    """Base class; concrete storage lives in the subclasses."""

    kind: str = "abstract"

    def __init__(self, n: int):
        self.n = int(n)

    # -- mandatory interface -------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def shifted_solve(self, sigma: complex, rhs: np.ndarray) -> np.ndarray:
        """Solve (A - sigma*I) x = rhs; sigma == inf returns rhs unchanged
        and a near-singular sigma raises ValueError (see the module doc)."""
        raise NotImplementedError

    def gershgorin(self) -> SpectralInterval:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        raise NotImplementedError

    def diag_shifted(self, c: float) -> "HermitianOperator":
        """Return a new operator representing A + c*I (same storage)."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def dense_eig(self, limit: int = DENSE_EIG_LIMIT):
        """Full eigendecomposition (w, Q); refuses orders above ``limit``."""
        if self.n > limit:
            raise ValueError(
                f"order {self.n} exceeds dense eigendecomposition limit {limit}"
            )
        return self._eig()

    def _eig(self):
        return np.linalg.eigh(self.to_dense())

    def exact_interval(self, limit: int = DENSE_EIG_LIMIT) -> SpectralInterval:
        """Tight enclosure from a dense eigendecomposition."""
        w, _ = self.dense_eig(limit)
        return _enclose(w[0], w[-1])


def _enclose(lo: float, hi: float) -> SpectralInterval:
    # Widen by a few ulps so rounding in the eigensolver cannot push an
    # eigenvalue outside the reported interval.
    pad = 8.0 * np.finfo(float).eps * max(abs(lo), abs(hi), 1e-300)
    return SpectralInterval(lo - pad, hi + pad)


class DenseOperator(HermitianOperator):
    """Dense symmetric storage, O(n^2) matvec, LU-based shifted solves."""

    kind = "dense"

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        _require_symmetric(a, "matrix")
        super().__init__(a.shape[0])
        self.a = 0.5 * (a + a.T)  # store an exactly symmetric copy

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x

    def shifted_solve(self, sigma: complex, rhs: np.ndarray) -> np.ndarray:
        sigma, block, was_1d = _solve_args(sigma, rhs)
        if np.isinf(sigma):
            return _restore(block.copy(), was_1d)
        return _restore(_dense_solve(self.a, sigma, block), was_1d)

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

    kind = "diagonal"

    def __init__(self, d: np.ndarray):
        d = np.asarray(d, dtype=float).ravel()
        if d.size == 0:
            raise ValueError("diagonal operator needs at least one entry")
        super().__init__(d.size)
        self.d = d.copy()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        block, was_1d = as_block(x)
        return _restore(self.d[:, None] * block, was_1d)

    def shifted_solve(self, sigma: complex, rhs: np.ndarray) -> np.ndarray:
        sigma, block, was_1d = _solve_args(sigma, rhs)
        if np.isinf(sigma):
            return _restore(block.copy(), was_1d)
        denom = self.d - sigma
        _require_regular(sigma, denom)
        return _restore(block / denom[:, None], was_1d)

    def gershgorin(self) -> SpectralInterval:
        return SpectralInterval(float(self.d.min()), float(self.d.max()))

    def to_dense(self) -> np.ndarray:
        return np.diag(self.d)

    def _eig(self):
        # Closed form: the sorted entries and permuted unit vectors.
        order = np.argsort(self.d)
        return self.d[order], np.eye(self.n)[:, order]

    def exact_interval(self, limit: int = DENSE_EIG_LIMIT) -> SpectralInterval:
        return _enclose(float(self.d.min()), float(self.d.max()))

    def diag_shifted(self, c: float) -> "DiagonalOperator":
        return DiagonalOperator(self.d + c)


class TridiagonalOperator(HermitianOperator):
    """Symmetric tridiagonal storage with O(n) banded shifted solves."""

    kind = "tridiagonal"

    def __init__(self, d: np.ndarray, e: np.ndarray):
        d = np.asarray(d, dtype=float).ravel()
        e = np.asarray(e, dtype=float).ravel()
        if e.size != d.size - 1:
            raise ValueError(
                f"off-diagonal length {e.size} does not match order {d.size}"
            )
        super().__init__(d.size)
        self.d = d.copy()
        self.e = e.copy()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        block, was_1d = as_block(x)
        out = self.d[:, None] * block
        out[:-1] += self.e[:, None] * block[1:]
        out[1:] += self.e[:, None] * block[:-1]
        return _restore(out, was_1d)

    def shifted_solve(self, sigma: complex, rhs: np.ndarray) -> np.ndarray:
        sigma, block, was_1d = _solve_args(sigma, rhs)
        if np.isinf(sigma):
            return _restore(block.copy(), was_1d)
        if self.n < 3:  # the LAPACK tridiagonal wrappers need order >= 3
            return _restore(_dense_solve(self.to_dense(), sigma, block), was_1d)
        d = self.d - sigma
        gttrf, gtcon, gttrs = sla.get_lapack_funcs(
            ("gttrf", "gtcon", "gttrs"), (d, block))
        lu = gttrf(self.e, d, self.e)[:5]
        dl, u, du, du2, ipiv = lu
        anorm = np.max(np.abs(d) + self._radii())
        if (np.isrealobj(u) and u.min() > 0.0
                and np.array_equal(ipiv, np.arange(1, self.n + 1))):
            # No interchanges, positive pivots: A - sigma*I = L D L^T is SPD and
            # |(A - sigma*I)^-1| is the inverse of the factors with -|l|, -|e|.
            x = gttrs(-np.abs(dl), u, -np.abs(du), du2, ipiv, np.ones((self.n, 1)))
            rcond = 1.0 / (anorm * x[0].max())
        else:
            rcond = gtcon(*lu, anorm)[0]
        _require_regular(sigma, u, rcond)
        return _restore(gttrs(*lu, block)[0], was_1d)

    def _radii(self) -> np.ndarray:
        """Off-diagonal absolute row sums (= column sums)."""
        radii = np.zeros(self.n)
        radii[:-1] += np.abs(self.e)
        radii[1:] += np.abs(self.e)
        return radii

    def gershgorin(self) -> SpectralInterval:
        radii = self._radii()
        return SpectralInterval(
            float(np.min(self.d - radii)), float(np.max(self.d + radii))
        )

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

    def exact_interval(self, limit: int = DENSE_EIG_LIMIT) -> SpectralInterval:
        c = self.toeplitz_scale()
        if c is not None:
            # Eigenvalues of c*tridiag(-1,2,-1): 2c*(1 - cos(k*pi/(n+1))).
            t = np.pi / (self.n + 1)
            return _enclose(
                2.0 * c * (1.0 - math.cos(t)),
                2.0 * c * (1.0 - math.cos(self.n * t)),
            )
        return super().exact_interval(limit)


def toeplitz_tridiagonal(n: int, scale: float = 1.0) -> TridiagonalOperator:
    """The 1-D diffusion stencil c*tridiag(-1, 2, -1) of order n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    return TridiagonalOperator(
        np.full(n, 2.0 * scale), np.full(n - 1, -scale)
    )


# ---------------------------------------------------------------------------
# spectral interval estimation


def spectral_interval(
    op: HermitianOperator,
    mode: str = "exact-small",
    floor: float | None = None,
    bounds: tuple[float, float] | None = None,
    dense_limit: int = DENSE_EIG_LIMIT,
) -> SpectralInterval:
    """Enclosure of the spectrum of ``op``.

    Parameters
    ----------
    mode : {"gershgorin", "exact-small", "user"}
        ``gershgorin`` uses disc bounds and clamps the lower end at
        ``floor`` (required whenever the disc lower bound is <= 0, as for
        discrete Laplacians).  ``exact-small`` computes eigenvalues, via
        closed form where available and a dense decomposition otherwise
        (order capped by ``dense_limit``).  ``user`` passes ``bounds``
        through after validation.
    """
    if mode == "user":
        if bounds is None:
            raise ValueError("mode='user' requires explicit bounds")
        return SpectralInterval(float(bounds[0]), float(bounds[1]))
    if mode == "gershgorin":
        iv = op.gershgorin()
        if floor is not None:
            if floor <= 0.0:
                raise ValueError("gershgorin floor must be positive")
            return SpectralInterval(max(iv.lower, float(floor)), iv.upper)
        if iv.lower <= 0.0:
            raise ValueError(
                "Gershgorin lower bound is non-positive "
                f"({iv.lower:.3e}); pass an explicit positive floor"
            )
        return iv
    if mode == "exact-small":
        return op.exact_interval(dense_limit)
    raise ValueError(f"unknown spectral interval mode {mode!r}")


# ---------------------------------------------------------------------------
# reference evaluation paths (oracles)


def oracle_funv(
    op: HermitianOperator,
    f,
    v: np.ndarray,
    dense_limit: int = DENSE_EIG_LIMIT,
) -> np.ndarray:
    """Reference f(A) v through an exact eigendecomposition.

    Dense decompositions are refused above ``dense_limit``; the constant
    tridiagonal Toeplitz family c*tridiag(-1,2,-1) is handled at any order
    through its closed-form sine eigenvectors (an orthonormal DST-I).
    """
    block, was_1d = as_block(v)
    if isinstance(op, TridiagonalOperator):
        c = op.toeplitz_scale()
        if c is not None:
            n = op.n
            lam = 2.0 * c * (1.0 - np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
            coeff = dst(block, type=1, norm="ortho", axis=0)
            out = dst(f(lam)[:, None] * coeff, type=1, norm="ortho", axis=0)
            return _restore(out, was_1d)
    if isinstance(op, DiagonalOperator):
        return _restore(f(op.d)[:, None] * block, was_1d)
    w, q = op.dense_eig(dense_limit)
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
        return _pick_storage(scipy.io.mmread(path), path)
    d = np.loadtxt(path, dtype=float, ndmin=1)
    if d.ndim != 1:
        raise ValueError(
            f"{path}: expected one diagonal value per line, got shape {d.shape}"
        )
    return DiagonalOperator(d)


def from_dense_array(m: np.ndarray, name: str = "matrix") -> HermitianOperator:
    """Wrap a dense array, dropping to banded storage when possible."""
    return _pick_storage(np.asarray(m, dtype=float), name)


def _pick_storage(m, name: str) -> HermitianOperator:
    """Store a square symmetric matrix (dense array or scipy.sparse) as
    diagonal, tridiagonal or dense by its bandwidth."""
    m = scipy.sparse.csr_array(m, dtype=float)
    _require_symmetric(m, name)
    coo = m.tocoo()
    band = int(np.abs(coo.col - coo.row)[coo.data != 0.0].max(initial=0))
    if band == 0:
        return DiagonalOperator(m.diagonal())
    if band == 1:
        return TridiagonalOperator(
            m.diagonal(), 0.5 * (m.diagonal(1) + m.diagonal(-1)))
    if m.shape[0] > DENSE_EIG_LIMIT:
        raise ValueError(
            f"{name}: order {m.shape[0]} with bandwidth {band} would need "
            f"dense storage, refused above order {DENSE_EIG_LIMIT}; build "
            "DenseOperator(a) to ask for it explicitly"
        )
    return DenseOperator(m.toarray())


def save_matrix_market(path: str, op: HermitianOperator) -> None:
    """Write an operator in MatrixMarket coordinate form."""
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(op.to_dense()))
