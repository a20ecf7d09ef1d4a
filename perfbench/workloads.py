"""The four closed-loop workloads: fixtures, request streams, oracles, gates.

A workload is one process sending one request at a time.  Each request
gets a fresh seed vector (1-D) or factor pair (Kronecker) drawn from the
workload seed; ``solve`` is the library call a user makes and is the only
part that is timed as a request, ``check`` runs the exact oracle and the
class's error gate and is harness time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import scipy.io
import scipy.sparse

# Sizes of each workload's fixtures.  "toy" is for the self-test only.
SIZES = {
    "full": {"tridiag_n": 30_000, "grid": 32, "mix_n": 2000, "kron_n": 1500},
    "toy": {"tridiag_n": 2000, "grid": 10, "mix_n": 300, "kron_n": 120},
}

TRIDIAG_TOL = 1e-6
MIX_TOL = 1e-8
MIX_FIXED_ELL = 30
KRON_ELLS = (10, 15, 20, 25)
KRON_RANK = 2
EDS_FACTOR = 10.0  # an EDS Kronecker pair may be this much worse than canonical

# Relative-error ceilings per request class.  Tolerance-mode requests stop
# on a lag-2 estimate, so the true error may exceed the tolerance; 100x is
# the fixed allowance.  Kronecker ceilings are one to two decades above the
# errors the canonical pairs reach at each ell on these fixtures.
TOL_CEILING_FACTOR = 100.0
FIXED_ELL_CEILING = 1e-4
KRON_CEILINGS = {
    "cauchy-kron": {10: 1e-2, 15: 1e-3, 20: 1e-5, 25: 1e-6},
    "laplace-kron": {10: 1e-1, 15: 1e-2, 20: 1e-3, 25: 1e-5},
}


@dataclass
class Outcome:
    ok: bool
    rel_error: float
    ell: int
    reason: str = ""


@dataclass
class Request:
    label: str
    solve: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    setup: Callable[[], dict]
    prepare: Callable[[dict], dict]
    requests: Callable[[dict, dict, np.random.Generator, object], Iterator[Request]]
    round_len: int  # requests in one cycle of the mix
    prefix: int  # requests every run makes; ell.p50 and rel_error.max use these
    # The calibration kernel of the workload's dominant work, and how many
    # times it runs before each request: about a tenth of a request's time.
    calib: tuple[str, int] = ("krylov", 1)
    probe: Callable[[dict, dict, np.random.Generator, object], list[str]] | None = None


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def _gate(err: float, ceiling: float, ell: int) -> Outcome:
    if not math.isfinite(err):
        return Outcome(False, err, ell, "non-finite result")
    if err > ceiling:
        return Outcome(False, err, ell, f"error {err:.3e} > ceiling {ceiling:.1e}")
    return Outcome(True, err, ell)


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# 1-D: funv_driver


@dataclass
class FunvFixture:
    op: object
    f: object
    iv: object


def _funv_oracle(lib, fx: FunvFixture) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form oracle_funv; for dense storage the eigendecomposition it
    would redo on every call is computed once here."""
    if isinstance(fx.op, lib.operators.DenseOperator):
        w, q = fx.op.dense_eig()
        fw = fx.f(w)
        return lambda v: q @ (fw * (q.T @ v))
    return lambda v: lib.operators.oracle_funv(fx.op, fx.f, v)


def funv_request(lib, tracer, fx: FunvFixture, oracle, v: np.ndarray,
                 strategy: str, tol: float | None = None,
                 ell: int | None = None, max_ell: int = 80) -> Request:
    ceiling = TOL_CEILING_FACTOR * tol if tol is not None else FIXED_ELL_CEILING

    def solve():
        return lib.rk.funv_driver(fx.op, fx.f, v, fx.iv, strategy=strategy,
                                  tol=tol, ell=ell, max_ell=max_ell)

    def check(res) -> Outcome:
        with tracer.span("harness.oracle"), tracer.paused():
            ref = oracle(v)
        with tracer.span("harness.check"), tracer.paused():
            return _gate(rel_err(res.x, ref), ceiling, len(res.poles_used))

    mode = f"tol={tol:g}" if tol is not None else f"ell={ell}"
    return Request(f"{strategy} {mode}", solve, check)


def _tridiag_long(lib, size: dict, workdir: str) -> Workload:
    """A basis of about 140 columns makes basis growth (rk.extend) the
    bottleneck; every solve is at the single shift 0."""
    n = size["tridiag_n"]

    def setup() -> dict:
        op = lib.operators.toeplitz_tridiagonal(n)
        return {"fx": FunvFixture(op, lib.functions.catalog_function("power", -0.5),
                                  lib.operators.spectral_interval(op))}

    def prepare(fx: dict) -> dict:
        return {"oracle": _funv_oracle(lib, fx["fx"])}

    def requests(fx, h, rng, tracer):
        while True:
            with tracer.span("harness.input"):
                v = _unit(rng, n)
            yield funv_request(lib, tracer, fx["fx"], h["oracle"], v, "extended",
                               tol=TRIDIAG_TOL, max_ell=400)

    return Workload("funv-tridiag-long", setup, prepare, requests, round_len=1, prefix=1,
                    calib=("wide", 25))


def laplacian_2d(m: int) -> scipy.sparse.coo_matrix:
    """Five-point Laplacian on an m x m grid, order m^2, bandwidth m."""
    t = scipy.sparse.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)],
                           [-1, 0, 1])
    eye = scipy.sparse.identity(m)
    return (scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye)).tocoo()


def _mtx_dense(lib, size: dict, workdir: str) -> Workload:
    """load_matrix stores any matrix of bandwidth above 1 dense, the path
    every non-tridiagonal user matrix takes; a fresh dense LU per shifted
    solve then dominates."""
    m = size["grid"]
    path = os.path.join(workdir, f"laplacian2d-{m}.mtx")
    scipy.io.mmwrite(path, laplacian_2d(m))  # harness: written before set-up

    def setup() -> dict:
        op = lib.operators.load_matrix(path)
        return {"fx": FunvFixture(op, lib.functions.catalog_function("power", -0.5),
                                  lib.operators.spectral_interval(op))}

    def prepare(fx: dict) -> dict:
        return {"oracle": _funv_oracle(lib, fx["fx"])}

    def requests(fx, h, rng, tracer):
        n = fx["fx"].op.n
        while True:
            with tracer.span("harness.input"):
                v = _unit(rng, n)
            yield funv_request(lib, tracer, fx["fx"], h["oracle"], v, "extended",
                               tol=TRIDIAG_TOL, max_ell=400)

    return Workload("funv-mtx-dense", setup, prepare, requests, round_len=1, prefix=6,
                    calib=("dense-lu", 8))


def gapped_spectrum(n: int) -> np.ndarray:
    """Diagonal of the fig-cauchy-1d-eig 'gapped' fixture: 20 Chebyshev
    points in [1e-3, 1e-1] and the rest in [10, 1e3]."""
    def cheb(lo, hi, k):
        j = np.arange(1, k + 1)
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * j - 1) * np.pi / (2 * k))
    return np.sort(np.concatenate([cheb(1e-3, 1e-1, 20), cheb(10.0, 1e3, n - 20)]))


MIX_TYPES = (
    ("cauchy", MIX_TOL, None), ("eds-cauchy", MIX_TOL, None),
    ("extended", MIX_TOL, None), ("zolotarev", MIX_TOL, None),
    ("eds-laplace", MIX_TOL, None),
    ("zolotarev", None, MIX_FIXED_ELL), ("cauchy", None, MIX_FIXED_ELL),
)


def _small_mix(lib, size: dict, workdir: str) -> Workload:
    """Many short requests over every 1-D pole family and both driver modes
    spread the time over all 1-D layers; the fixed families rebuild the
    space at each checkpoint instead of growing it."""
    n = size["mix_n"]

    def setup() -> dict:
        ops, fn = lib.operators, lib.functions
        pairs = {
            "toeplitz": (ops.toeplitz_tridiagonal(n), fn.catalog_function("power", -0.5)),
            "diffusion": (lib.experiments.diffusion_operator(n),
                          fn.catalog_function("phi", 1)),
            "gapped": (ops.DiagonalOperator(gapped_spectrum(n)),
                       fn.catalog_function("power", -0.5)),
        }
        return {k: FunvFixture(op, f, ops.spectral_interval(op))
                for k, (op, f) in pairs.items()}

    def prepare(fx: dict) -> dict:
        return {k: _funv_oracle(lib, v) for k, v in fx.items()}

    def requests(fx, h, rng, tracer):
        while True:
            for key in fx:
                for strategy, tol, ell in MIX_TYPES:
                    with tracer.span("harness.input"):
                        v = _unit(rng, n)
                    req = funv_request(lib, tracer, fx[key], h[key], v, strategy,
                                       tol=tol, ell=ell, max_ell=160)
                    req.label = f"{key} {req.label}"
                    yield req

    return Workload("funv-small-mix", setup, prepare, requests,
                    round_len=3 * len(MIX_TYPES), prefix=2 * 3 * len(MIX_TYPES))


# ---------------------------------------------------------------------------
# Kronecker: kron_fun


class KronOracle:
    """dense_kron_solution's double diagonalization with the two
    eigendecompositions hoisted out of the request loop.  With A = -B = op
    the exact solution is Q (f(w_i + w_j) * (Q^T U)(Q^T V)^T) Q^T; errors are
    measured in the Frobenius norm in the rotated basis, where it is the
    same norm."""

    def __init__(self):
        self._eig: dict = {}
        self._vals: dict = {}

    def add(self, op, f) -> None:
        if id(op) not in self._eig:
            self._eig[id(op)] = op.dense_eig()
        w, _ = self._eig[id(op)]
        self._vals[(id(op), id(f))] = f(w[:, None] + w[None, :])

    def rel_error(self, problem, result) -> float:
        _, q = self._eig[id(problem.a_op)]
        vals = self._vals[(id(problem.a_op), id(problem.f))]
        exact = vals * ((q.T @ problem.u_factor) @ (q.T @ problem.v_factor).T)
        approx = (q.T @ result.left) @ result.core @ (q.T @ result.right).T
        return rel_err(approx, exact)


@dataclass
class KronClass:
    label: str
    fixture: str     # operator key
    function: str    # function key
    pair: str        # "canonical" or "eds"
    family: str      # canonical family, also the EDS pair's reference


KRON_CLASSES = (
    KronClass("cauchy-kron", "toeplitz", "power", "canonical", "cauchy-kron"),
    KronClass("eds-cauchy-kron", "toeplitz", "power", "eds", "cauchy-kron"),
    KronClass("laplace-kron", "diffusion", "phi", "canonical", "laplace-kron"),
    KronClass("zolotarev-inverse", "toeplitz", "inverse", "canonical", "laplace-kron"),
)


def kron_pair(lib, cls: KronClass, iv, ell: int):
    if cls.pair == "canonical":
        maker = (lib.poles.cauchy_kron_poles if cls.family == "cauchy-kron"
                 else lib.poles.laplace_kron_poles)
        return maker(iv, ell)
    variant = "cauchy" if cls.family == "cauchy-kron" else "laplace"
    # The EDS Kronecker pairs have no public name; this is the builder the
    # experiments and the CLI use.
    return lib.experiments._kron_pole_pair(variant, "eds", iv, ell)


def kron_request(lib, tracer, fx: dict, oracle: KronOracle, cls: KronClass,
                 ell: int, u: np.ndarray, v: np.ndarray) -> Request:
    op, iv = fx["ops"][cls.fixture], fx["ivs"][cls.fixture]
    f = fx["funcs"][cls.function]
    kf = lib.kronfun

    def solve():
        problem = kf.kron_problem(op, op, u, v, f, interval=iv)
        psi, xi = kron_pair(lib, cls, iv, ell)
        res = kf.kron_fun(problem, psi, xi)
        if cls.function == "inverse":
            return problem, res, kf.sylvester_residual(problem, res), \
                kf.residual_bound(problem, ell)
        return problem, res, None, None

    def check(out) -> Outcome:
        problem, res, resid, bound = out
        with tracer.span("harness.oracle"), tracer.paused():
            err = oracle.rel_error(problem, res)
            if cls.pair == "eds":
                canon = KronClass(cls.family, cls.fixture, cls.function,
                                  "canonical", cls.family)
                psi, xi = kron_pair(lib, canon, iv, ell)
                ref_err = oracle.rel_error(problem, kf.kron_fun(problem, psi, xi))
        with tracer.span("harness.check"), tracer.paused():
            got = len(res.poles_left)
            if resid is not None:
                if not (math.isfinite(resid) and resid <= bound):
                    return Outcome(False, err, got,
                                   f"residual {resid:.3e} > bound {bound:.3e}")
                return _gate(err, math.inf, got)
            if cls.pair == "eds":
                return _gate(err, EDS_FACTOR * ref_err, got)
            return _gate(err, KRON_CEILINGS[cls.family][ell], got)

    return Request(f"{cls.label} ell={ell}", solve, check)


def _kron_2d(lib, size: dict, workdir: str) -> Workload:
    """The only workload on kron_fun, block seeds and the Kronecker pole
    pairs, including the EDS Cauchy pair and the Sylvester residual."""
    n = size["kron_n"]

    def setup() -> dict:
        ops = {"toeplitz": lib.operators.toeplitz_tridiagonal(n),
               "diffusion": lib.experiments.diffusion_operator(n)}
        fn = lib.functions
        return {"ops": ops,
                "ivs": {k: lib.operators.spectral_interval(op) for k, op in ops.items()},
                "funcs": {"power": fn.catalog_function("power", -0.5),
                          "phi": fn.catalog_function("phi", 1),
                          "inverse": fn.catalog_function("inverse")}}

    def prepare(fx: dict) -> dict:
        oracle = KronOracle()
        for cls in KRON_CLASSES:
            oracle.add(fx["ops"][cls.fixture], fx["funcs"][cls.function])
        return {"oracle": oracle}

    def requests(fx, h, rng, tracer):
        while True:
            for ell in KRON_ELLS:
                for cls in KRON_CLASSES:
                    with tracer.span("harness.input"):
                        u = rng.standard_normal((n, KRON_RANK))
                        v = rng.standard_normal((n, KRON_RANK))
                    yield kron_request(lib, tracer, fx, h["oracle"], cls, ell, u, v)

    def probe(fx, h, rng, tracer) -> list[str]:
        """The EDS Laplace Kronecker pair fails its gate at the seed (its
        right poles are not negated).  It is run once per ell outside the
        timed loop and reported, so the defect stays visible."""
        cls = KronClass("eds-laplace-kron", "diffusion", "phi", "eds", "laplace-kron")
        lines = []
        with tracer.paused():
            for ell in KRON_ELLS:
                u = rng.standard_normal((n, KRON_RANK))
                v = rng.standard_normal((n, KRON_RANK))
                req = kron_request(lib, tracer, fx, h["oracle"], cls, ell, u, v)
                o = req.check(req.solve())
                lines.append(f"known defect {req.label}: rel_error {o.rel_error:.3e} "
                             f"gate {'PASS' if o.ok else 'FAIL'} {o.reason}".rstrip())
        return lines

    per_round = len(KRON_ELLS) * len(KRON_CLASSES)
    return Workload("kron-2d", setup, prepare, requests, round_len=per_round,
                    prefix=3 * per_round, probe=probe)


BUILDERS = {
    "funv-tridiag-long": _tridiag_long,
    "funv-mtx-dense": _mtx_dense,
    "funv-small-mix": _small_mix,
    "kron-2d": _kron_2d,
}


def build(name: str, lib, size: str, workdir: str) -> Workload:
    return BUILDERS[name](lib, SIZES[size], workdir)
