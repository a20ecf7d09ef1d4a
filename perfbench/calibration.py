"""Fixed numpy/scipy kernels that measure how fast the host runs right now.

On a shared host the same code runs up to 1.5x slower for stretches of
minutes, so request throughput alone moves with the host, not with the
library.  The benchmark runs one of these kernels between requests; none
calls rkstieltjes, so a change to the library cannot move them.  Each has
the shape of the work that dominates its workloads, since the host slows
memory-bound, compute-bound and interpreter-bound code by different
amounts:

- ``krylov``: rational Krylov steps at the mixes' sizes (n = 2000): a
  tridiagonal shifted solve, Gram-Schmidt against the basis so far and a
  small dense eigenproblem;
- ``wide``: Gram-Schmidt of one vector against a 50 000 x 64 basis and a
  copy of that basis, the memory-bound work of long-basis growth;
- ``dense-lu``: an LU factorization of a dense 600 x 600 matrix, the work
  of a shifted solve in dense storage.

Each kernel's reference time is a fixed scale: about its median time when
run alone in a loop on a quiet host (2-vCPU Intel Xeon, KVM, scipy-openblas
0.3.31 with one thread).  Throughput is reported as if every request had
run on a host where the kernel takes that long.  Between requests a kernel
finds colder caches and takes longer, so the normalized figure reads above
wall-clock throughput even on a quiet host; only its changes carry meaning.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg

_rng = np.random.default_rng(20190806)

_N = 2000
_COLUMNS = 24
_BANDS = np.vstack([-np.ones(_N), 2.5 * np.ones(_N), -np.ones(_N)])
_START = _rng.standard_normal(_N)
_SMALL = _rng.standard_normal((_COLUMNS, _COLUMNS))

_WIDE = _rng.standard_normal((50_000, 64)) / np.sqrt(50_000)
_WIDE_V = _rng.standard_normal(50_000)

_DENSE = _rng.standard_normal((600, 600)) + 600.0 * np.eye(600)


def krylov() -> np.ndarray:
    """Rational-Krylov-shaped steps on fixed inputs at n = 2000."""
    basis = np.empty((_N, _COLUMNS))
    basis[:, 0] = _START / np.linalg.norm(_START)
    for j in range(1, _COLUMNS):
        w = scipy.linalg.solve_banded((1, 1), _BANDS + 0.01 * j, basis[:, j - 1])
        w -= basis[:, :j] @ (basis[:, :j].T @ w)
        basis[:, j] = w / np.linalg.norm(w)
    np.linalg.eigh(_SMALL + _SMALL.T)
    scipy.linalg.expm(0.01 * _SMALL)
    return basis


def wide() -> np.ndarray:
    """One Gram-Schmidt pass and one copy of a 25 MB basis."""
    w = _WIDE_V - _WIDE @ (_WIDE.T @ _WIDE_V)
    return np.hstack([_WIDE, w[:, None]])


def dense_lu() -> tuple:
    """LU factorization of a fixed dense 600 x 600 matrix."""
    return scipy.linalg.lu_factor(_DENSE)


# name -> (kernel, reference seconds)
KERNELS: dict[str, tuple[Callable[[], object], float]] = {
    "krylov": (krylov, 3.2e-3),
    "wide": (wide, 1.2e-2),
    "dense-lu": (dense_lu, 6.5e-3),
}
