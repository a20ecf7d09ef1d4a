"""Real symmetric operators with shifted solves and spectral enclosures.

Three storage formats are supported: dense, diagonal and symmetric
tridiagonal.  Every operator knows how to apply itself to a block of
vectors, solve (A - sigma*I) X = RHS for real or complex shifts, and
produce a guaranteed enclosure of its spectrum.  Shifts of ``inf`` act as
the identity (the corresponding rational factor is simply omitted), which
is the convention the rational Krylov layer relies on.

Matrix ingestion covers MatrixMarket files (dense or coordinate; the
bandwidth decides which storage class is used) and plain text files with
one diagonal entry per line.
"""

from __future__ import annotations

import math
import os
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

#: Relative deviation allowed when checking a pivot/denominator for
#: near-singularity in shifted solves.
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


class HermitianOperator:
    """Base class; concrete storage lives in the subclasses."""

    kind: str = "abstract"

    def __init__(self, n: int):
        self.n = int(n)

    # -- mandatory interface -------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def shifted_solve(self, sigma: complex, rhs: np.ndarray) -> np.ndarray:
        """Solve (A - sigma*I) x = rhs; sigma == inf returns rhs unchanged."""
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
        w, q = np.linalg.eigh(self.to_dense())
        return w, q

    def exact_interval(self, limit: int = DENSE_EIG_LIMIT) -> SpectralInterval:
        """Tight enclosure from a dense eigendecomposition."""
        w, _ = self.dense_eig(limit)
        return _enclose(w[0], w[-1])

    @staticmethod
    def _is_inf_shift(sigma: complex) -> bool:
        return not np.isfinite(sigma)


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
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"dense operator needs a square array, got {a.shape}")
        dev = np.linalg.norm(a - a.T)
        scale = max(np.linalg.norm(a), 1e-300)
        if dev > _SYM_TOL * scale:
            raise ValueError(
                f"matrix is not symmetric: ||A - A^T|| = {dev:.3e} "
                f"exceeds {_SYM_TOL:.0e} * ||A||"
            )
        super().__init__(a.shape[0])
        self.a = 0.5 * (a + a.T)  # store an exactly symmetric copy

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x

    def shifted_solve(self, sigma: complex, rhs: np.ndarray) -> np.ndarray:
        block, was_1d = as_block(rhs)
        if self._is_inf_shift(sigma):
            return _restore(block.copy(), was_1d)
        m = self.a - sigma * np.eye(self.n)
        lu, piv = sla.lu_factor(m)
        pivots = np.abs(np.diag(lu))
        if pivots.min() <= _SINGULAR_TOL * max(pivots.max(), 1e-300):
            raise ValueError(
                f"shift sigma={sigma} is singular or near-singular for this operator"
            )
        out = sla.lu_solve((lu, piv), block)
        return _restore(out, was_1d)

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
        block, was_1d = as_block(rhs)
        if self._is_inf_shift(sigma):
            return _restore(block.copy(), was_1d)
        denom = self.d - sigma
        floor = _SINGULAR_TOL * max(np.max(np.abs(self.d)), abs(sigma), 1.0)
        if np.min(np.abs(denom)) <= floor:
            raise ValueError(
                f"shift sigma={sigma} collides with a diagonal entry"
            )
        return _restore(block / denom[:, None], was_1d)

    def gershgorin(self) -> SpectralInterval:
        return SpectralInterval(float(self.d.min()), float(self.d.max()))

    def to_dense(self) -> np.ndarray:
        return np.diag(self.d)

    def dense_eig(self, limit: int = DENSE_EIG_LIMIT):
        # Diagonal case is closed form at any order.
        order = np.argsort(self.d)
        w = self.d[order]
        q = np.zeros((self.n, self.n)) if self.n <= limit else None
        if q is None:
            raise ValueError(
                f"order {self.n} exceeds dense eigendecomposition limit {limit}"
            )
        q[order, np.arange(self.n)] = 1.0
        return w, q

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
        if self.n > 1:
            out[:-1] += self.e[:, None] * block[1:]
            out[1:] += self.e[:, None] * block[:-1]
        return _restore(out, was_1d)

    def shifted_solve(self, sigma: complex, rhs: np.ndarray) -> np.ndarray:
        block, was_1d = as_block(rhs)
        if self._is_inf_shift(sigma):
            return _restore(block.copy(), was_1d)
        dtype = complex if (np.iscomplexobj(block) or isinstance(sigma, complex)
                            and sigma.imag != 0.0) else float
        if isinstance(sigma, complex) and sigma.imag == 0.0:
            sigma = sigma.real
        ab = np.zeros((3, self.n), dtype=dtype)
        ab[0, 1:] = self.e
        ab[1, :] = self.d - sigma
        ab[2, :-1] = self.e
        try:
            out = sla.solve_banded((1, 1), ab, block.astype(dtype, copy=False))
        except np.linalg.LinAlgError as exc:  # exactly singular pivot
            raise ValueError(
                f"shift sigma={sigma} is singular for this operator"
            ) from exc
        # A banded LU has no pivot report here; a cheap residual check
        # catches near-singular shifts instead.
        resid = self.matvec(out) - sigma * out - block
        rscale = np.linalg.norm(block) + np.linalg.norm(out) * (
            np.max(np.abs(self.d)) + 2 * np.max(np.abs(self.e), initial=0.0)
            + abs(sigma)
        )
        if not np.all(np.isfinite(out)) or np.linalg.norm(resid) > 1e-8 * max(
            rscale, 1e-300
        ):
            raise ValueError(
                f"shift sigma={sigma} is near-singular for this operator"
            )
        return _restore(out, was_1d)

    def gershgorin(self) -> SpectralInterval:
        radii = np.zeros(self.n)
        if self.n > 1:
            radii[:-1] += np.abs(self.e)
            radii[1:] += np.abs(self.e)
        return SpectralInterval(
            float(np.min(self.d - radii)), float(np.max(self.d + radii))
        )

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.d)
        if self.n > 1:
            a += np.diag(self.e, 1) + np.diag(self.e, -1)
        return a

    def dense_eig(self, limit: int = DENSE_EIG_LIMIT):
        if self.n > limit:
            raise ValueError(
                f"order {self.n} exceeds dense eigendecomposition limit {limit}"
            )
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
    are accepted in dense or coordinate form; the bandwidth picks the
    storage class (diagonal, tridiagonal, dense).  Any other file is read
    as a plain text diagonal, one value per line.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "rb") as fh:
        head = fh.read(64)
    is_mm = path.endswith((".mtx", ".mm")) or head.startswith(b"%%MatrixMarket")
    if not is_mm:
        d = np.loadtxt(path, dtype=float, ndmin=1)
        if d.ndim != 1:
            raise ValueError(
                f"{path}: expected one diagonal value per line, got shape {d.shape}"
            )
        return DiagonalOperator(d)

    m = scipy.io.mmread(path)
    if scipy.sparse.issparse(m):
        m = m.tocoo()
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{path}: matrix is not square {m.shape}")
        offsets = m.col - m.row
        mask = m.data != 0.0
        band = int(np.max(np.abs(offsets[mask]), initial=0))
        if band <= 1:
            n = m.shape[0]
            d = np.zeros(n)
            lo = np.zeros(max(n - 1, 0))
            up = np.zeros(max(n - 1, 0))
            for r, c, x in zip(m.row, m.col, m.data):
                if r == c:
                    d[r] += x
                elif c == r + 1:
                    up[r] += x
                else:
                    lo[c] += x
            if np.max(np.abs(lo - up), initial=0.0) > _SYM_TOL * max(
                np.max(np.abs(up), initial=0.0), 1.0
            ):
                raise ValueError(f"{path}: sub- and super-diagonals differ")
            if band == 0:
                return DiagonalOperator(d)
            return TridiagonalOperator(d, 0.5 * (lo + up))
        m = m.toarray()
    m = np.asarray(m, dtype=float)
    return from_dense_array(m, name=path)


def from_dense_array(m: np.ndarray, name: str = "matrix") -> HermitianOperator:
    """Wrap a dense array, dropping to banded storage when possible."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got {m.shape}")
    dev = np.linalg.norm(m - m.T)
    if dev > _SYM_TOL * max(np.linalg.norm(m), 1e-300):
        raise ValueError(
            f"{name}: not symmetric, ||A - A^T|| = {dev:.3e}"
        )
    m = 0.5 * (m + m.T)
    off = m - np.diag(np.diag(m))
    if not np.any(off):
        return DiagonalOperator(np.diag(m))
    band1 = off - np.diag(np.diag(off, 1), 1) - np.diag(np.diag(off, -1), -1)
    if not np.any(band1):
        return TridiagonalOperator(np.diag(m), np.diag(m, 1))
    return DenseOperator(m)


def save_matrix_market(path: str, op: HermitianOperator) -> None:
    """Write an operator in MatrixMarket coordinate form."""
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(op.to_dense()))
