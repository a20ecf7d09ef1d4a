"""One SHA-256 per request group of the rkstieltjes tree at ROOT.

    python tools/fingerprint.py ROOT

imports the library from ROOT/src and runs a fixed set of requests built
from its own fixtures (``experiments.fixture_1d``/``fixture_2d`` on
tridiagonal, band, diagonal and dense storage), so "bit-identical to
another tree" is this command run on both trees and a ``diff`` of the
output.  Each digest covers every output of its group: x, every trace
row, the poles used, the stop reason and the interval flag of a
``funv_driver`` result; the factors, core, poles and projections of a
``kron_fun`` result and its ``sylvester_residual``.  Groups:

* ``nested-tol``: nested families run to a tolerance (``extended``,
  ``polynomial``, both EDS streams, a real pole list), width-1 and block
  seeds, one run with an oracle and one large enough for the overlapped
  eigensolve where the host allows it;
* ``rebuilt-tol``: ``zolotarev``/``cauchy`` to a tolerance, certified,
  rebuilt at checkpoints, below the rounding floor and on a disproved
  interval;
* ``fixed-ell``: every family at a fixed pole count;
* ``kron``: every Kronecker pair at rank 1 and 2, with the residual;
* ``complex``: complex pole lists on width-1 seeds, in every mode and
  on a rank-1 Kronecker problem;
* ``complex-block``: the same on block seeds and rank 2, whose block
  adjoint products round differently when the order of a sum changes.

BLAS is pinned to one thread before numpy loads (unless the environment
already sets ``OPENBLAS_NUM_THREADS``): the bits depend on the thread
count.  A run takes a few seconds.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _load(root: str):
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    import rkstieltjes  # noqa: F401  (the tree's own copy)
    from rkstieltjes import experiments, functions, kronfun, operators, rk
    from rkstieltjes.strategies import KRON_PAIRS
    return experiments, functions, kronfun, operators, rk, KRON_PAIRS


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, item) -> None:
        h = self._h
        if item is None or isinstance(item, (bool, str, int)):
            h.update(repr(item).encode())
        elif isinstance(item, (float, complex)):
            z = complex(item)
            h.update(struct.pack("<dd", z.real, z.imag))
        elif isinstance(item, (tuple, list)):
            h.update(f"[{len(item)}".encode())
            for x in item:
                self.add(x)
            h.update(b"]")
        else:
            import numpy as np
            a = np.ascontiguousarray(item)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _second_difference(m: int):
    """tridiag(-1, 2, -1) of order m as a dense array."""
    import numpy as np
    return 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)


def main(root: str) -> None:
    experiments, functions, kronfun, operators, rk, KRON_PAIRS = _load(root)
    import numpy as np

    power = functions.catalog_function("power", -0.5)
    phi = functions.catalog_function("phi", 1)
    inverse = functions.catalog_function("inverse")
    toeplitz = operators.toeplitz_tridiagonal(400)
    diffusion = experiments.diffusion_operator(300)
    t, eye = _second_difference(14), np.eye(14)
    lap = operators.from_dense_array(np.kron(eye, t) + np.kron(t, eye))  # k = 14
    dense = operators.DenseOperator(_second_difference(150))
    gapped = operators.DiagonalOperator(np.sort(np.concatenate(
        [np.linspace(1e-3, 1e-1, 20), np.linspace(10.0, 1e3, 280)])))
    fixtures = [(toeplitz, power), (diffusion, phi), (lap, power),
                (gapped, power), (dense, phi)]

    def block(op, k, seed):
        return np.random.default_rng(seed).standard_normal((op.n, k))

    real_list = [math.inf, -0.5, 0.0, -2.0, math.inf, -0.1] * 10
    complex_list = [math.inf, -0.5 + 0.3j, 0.0, -1.0 - 0.6j, -0.2] * 10
    groups = {name: Digest() for name in (
        "nested-tol", "rebuilt-tol", "fixed-ell", "kron", "complex",
        "complex-block")}

    def funv(group, op, f, v, iv, strategy, **kw):
        res = rk.funv_driver(op, f, v, iv, strategy, **kw)
        groups[group].add([res.x, [tuple(r.__dict__.values()) for r in res.trace],
                           list(res.poles_used), res.strategy,
                           res.stop_reason, res.interval_violated])

    for seed, (op, f) in enumerate(fixtures):
        v, iv, oracle = experiments.fixture_1d(op, f, seed)
        for seeds in (v, block(op, 2, seed)):
            for strategy in ("extended", "polynomial", "eds-cauchy",
                             "eds-laplace", real_list):
                funv("nested-tol", op, f, seeds, iv, strategy, tol=1e-8,
                     max_ell=60)
            for strategy in ("zolotarev", "cauchy"):
                for tol in (1e-4, 1e-9, 1e-15):
                    funv("rebuilt-tol", op, f, seeds, iv, strategy, tol=tol,
                         max_ell=40)
            for strategy in ("zolotarev", "cauchy", "extended", "eds-cauchy",
                             "eds-laplace", "polynomial", real_list):
                funv("fixed-ell", op, f, seeds, iv, strategy, ell=17)
            group = "complex" if seeds is v else "complex-block"
            funv(group, op, f, seeds, iv, complex_list, tol=1e-8)
            funv(group, op, f, seeds, iv, complex_list, ell=13)
        funv("nested-tol", op, f, v, iv, "extended", tol=1e-8, max_ell=60,
             oracle=oracle)
        funv("complex", op, f, v, iv, complex_list, tol=1e-8, oracle=oracle)
        # An interval that misses the top of the spectrum.
        narrow = (iv.lower, 0.5 * iv.upper)
        funv("rebuilt-tol", op, f, v, narrow, "cauchy", tol=1e-6, max_ell=40)
        funv("nested-tol", op, f, v, narrow, "extended", tol=1e-6, max_ell=40)
    big = operators.toeplitz_tridiagonal(20000)
    v, iv, _ = experiments.fixture_1d(big, power, 9)
    funv("nested-tol", big, power, v, iv, "extended", tol=1e-7, max_ell=200)

    for seed, (op, f) in enumerate([(toeplitz, inverse), (diffusion, phi)]):
        problems = [experiments.fixture_2d(op, f, seed)[0],
                    kronfun.kron_problem(op, op, block(op, 2, seed),
                                         block(op, 2, seed + 10), f)]
        for prob in problems:
            for name, pair in KRON_PAIRS.items():
                res = kronfun.kron_fun(prob, *pair.poles(prob.interval, 12))
                groups["kron"].add([res.left, res.right, res.core,
                                    list(res.poles_left), list(res.poles_right),
                                    list(res.projections),
                                    kronfun.sylvester_residual(prob, res)])
            poles = complex_list[:12]
            res = kronfun.kron_fun(prob, poles, [-p for p in poles])
            groups["complex" if prob.rank == 1 else "complex-block"].add([
                res.left, res.right, res.core, list(res.projections),
                kronfun.sylvester_residual(prob, res)])

    for name, digest in groups.items():
        print(f"{digest.hexdigest()}  {name}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1])
