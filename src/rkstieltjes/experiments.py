"""Bundled convergence experiments with CSV artifacts.

Each experiment compares pole-selection strategies on a fixed matrix
family and writes one trace CSV per strategy (columns ell,true_error,bound
with absolute 2-norm errors), one bound-curve CSV, and -- for the
Kronecker studies -- a singular-value CSV.  Sizes default to desk scale so
an exact reference solution is always available: 1-D runs use the
closed-form sine-transform or diagonal oracle, 2-D runs a full double
diagonalization.  Given the same seed the error columns are bit-identical
across runs; timing columns are informative only.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    cauchy_bound,
    kron_cauchy_bound,
    kron_laplace_bound,
    laplace_bound,
)
from .functions import StieltjesFunction, catalog_function
from .kronfun import (
    KroneckerProblem,
    dense_kron_solution,
    kron_fun,
    singular_decay_report,
)
from .operators import (
    DiagonalOperator,
    SpectralInterval,
    TridiagonalOperator,
    oracle_funv,
    toeplitz_tridiagonal,
)
from .poles import (
    cauchy_kron_poles,
    eds_next,
    eds_poles,
    eds_start,
    laplace_kron_poles,
    mobius_kron,
    rate_rho,
)
from .rk import RKDecomposition, error_sweep, rk_funv

__all__ = [
    "EXPERIMENT_IDS",
    "ExperimentConfig",
    "run_experiment",
    "emit_bounds",
    "diffusion_operator",
]

EXPERIMENT_IDS = (
    "fig-lapl-1d",
    "fig-cauchy-1d",
    "fig-cauchy-1d-eig",
    "fig-cauchy-1d-funcs",
    "table-times",
    "fig-lapl-2d",
    "fig-cauchy-2d",
)

# (default n, maximum n): 1-D families use O(n) solves and an O(n log n)
# oracle; the 2-D cap keeps the dense reference solution tractable.
_SIZE_TABLE = {
    "fig-lapl-1d": (2000, 200_000),
    "fig-cauchy-1d": (2000, 200_000),
    "fig-cauchy-1d-eig": (2000, 200_000),
    "fig-cauchy-1d-funcs": (2000, 200_000),
    "table-times": (100_000, 200_000),
    "fig-lapl-2d": (300, 1500),
    "fig-cauchy-2d": (300, 1500),
}

_DEFAULT_ELL = {
    "fig-lapl-1d": 40,
    "fig-cauchy-1d": 40,
    "fig-cauchy-1d-eig": 40,
    "fig-cauchy-1d-funcs": 40,
    "table-times": 220,
    "fig-lapl-2d": 25,
    "fig-cauchy-2d": 25,
}

TIME_TOLERANCES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int | None = None
    ell_max: int | None = None
    seed: int = 0
    outdir: str = "."
    gnuplot: bool = False
    threads: int = 1
    dense_limit: int = 4000
    conjectured_gamma: bool = False

    def resolved(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(
                f"field 'experiment': unknown id {self.experiment!r}; "
                f"expected one of {', '.join(EXPERIMENT_IDS)}")
        default_n, max_n = _SIZE_TABLE[self.experiment]
        n = default_n if self.n is None else int(self.n)
        if not 16 <= n <= max_n:
            raise ValueError(
                f"field 'n': {n} outside the supported range [16, {max_n}] "
                f"for {self.experiment}")
        ell = _DEFAULT_ELL[self.experiment] if self.ell_max is None \
            else int(self.ell_max)
        if ell < 4:
            raise ValueError(f"field 'ell_max': {ell} must be >= 4")
        if self.seed < 0:
            raise ValueError(f"field 'seed': {self.seed} must be >= 0")
        if self.threads < 1:
            raise ValueError(f"field 'threads': {self.threads} must be >= 1")
        return replace(self, n=n, ell_max=ell)


# ---------------------------------------------------------------------------
# fixtures


def diffusion_operator(n: int, eps: float = 1e-2,
                       dt: float = 0.1) -> TridiagonalOperator:
    """Stiffness-scaled 1-D heat-equation matrix (eps*dt/h^2)*tridiag(-1,2,-1)
    on a unit interval with n interior points, h = 1/(n+1).  Deliberately
    ill-conditioned: the lower spectral edge eps*dt*pi^2 stays put while the
    upper edge grows like 4*eps*dt*(n+1)^2."""
    return toeplitz_tridiagonal(n, eps * dt * (n + 1) ** 2)


def _unit_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# CSV plumbing


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: str, header: Sequence[str],
               rows: Sequence[Sequence]) -> str:
    """Write atomically: a temp file in the target directory is renamed
    over the destination, so a crash never leaves a half-written CSV."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-", suffix=".csv")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _write_gnuplot(path: str, title: str, curve_files: dict,
                   ycol: int = 2) -> str:
    lines = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'poles'",
        "set ylabel 'error'",
        f"set title '{title}'",
        "set key outside",
    ]
    plots = [
        f"'{os.path.basename(fname)}' using 1:{ycol} skip 1 "
        f"with linespoints title '{label}'"
        for label, fname in curve_files.items()
    ]
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-", suffix=".gp")
    with os.fdopen(fd, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# bound curves


def emit_bounds(f: StieltjesFunction, interval, ells: Sequence[int],
                norm: float, mode: str, out_path: str | None = None,
                shift: float = 0.0,
                conjectured_gamma: bool = False) -> list[tuple]:
    """A-priori bound curve (ell, bound) for one of the four certified
    settings: ``laplace-1d``, ``cauchy-1d``, ``laplace-kron``,
    ``cauchy-kron``.

    Laplace-type bounds anchor at f(0+); when that diverges a positive
    ``shift`` eta is required, and the curve is evaluated for f(.+eta) on
    the left-shifted interval.
    """
    iv = interval if isinstance(interval, SpectralInterval) else \
        SpectralInterval(float(interval[0]), float(interval[1]))
    iv.require_positive()
    if mode not in ("laplace-1d", "cauchy-1d", "laplace-kron", "cauchy-kron"):
        raise ValueError(f"unknown bound mode {mode!r}")
    f_b, iv_b = f, iv
    if mode.startswith("laplace"):
        if shift:
            f_b = f.with_shift(shift)
            iv_b = iv.shifted(-shift).require_positive()
        elif math.isinf(f.limit_at_zero()):
            raise ValueError(
                f"{f.label}: the bound anchor f(0+) is infinite; pass a "
                "positive shift eta (e.g. half the lower spectral edge) so "
                "the curve anchors at the finite value f(eta)")
    rows = []
    for ell in ells:
        ell = int(ell)
        if mode == "laplace-1d":
            b = laplace_bound(f_b, iv_b, ell, norm,
                              conjectured_gamma=conjectured_gamma)
        elif mode == "cauchy-1d":
            b = cauchy_bound(f_b, iv_b, ell, norm)
        elif mode == "laplace-kron":
            b = kron_laplace_bound(f_b, iv_b, ell, norm,
                                   conjectured_gamma=conjectured_gamma)
        else:
            b = kron_cauchy_bound(f_b, iv_b, ell, norm)
        rows.append((ell, b))
    if out_path is not None:
        _write_csv(out_path, ("ell", "bound"), rows)
    return rows


# ---------------------------------------------------------------------------
# 1-D studies


def _sweep_to_csv(op, f, v, iv, strategy, ells, oracle, path,
                  conjectured_gamma=False, bound_shift=0.0) -> str:
    rows = error_sweep(op, f, v, iv, strategy, ells, oracle,
                       conjectured_gamma=conjectured_gamma,
                       bound_shift=bound_shift)
    return _write_csv(path, ("ell", "true_error", "bound"),
                      [(r.ell, r.true_error, r.bound) for r in rows])


def _run_panel_1d(cfg: ExperimentConfig, op, f: StieltjesFunction, stem: str,
                  strategies: Sequence[str], bound_mode: str,
                  bound_shift: float = 0.0,
                  interval: SpectralInterval | None = None) -> list[str]:
    iv = op.exact_interval() if interval is None else interval
    rng = np.random.default_rng(cfg.seed)
    v = _unit_normal(rng, op.n)
    oracle = oracle_funv(op, f, v)
    ells = range(1, cfg.ell_max + 1)

    def one(strategy: str) -> str:
        path = os.path.join(cfg.outdir, f"{stem}-{strategy}.csv")
        return _sweep_to_csv(op, f, v, iv, strategy, ells, oracle, path,
                             conjectured_gamma=cfg.conjectured_gamma,
                             bound_shift=bound_shift)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            paths = list(pool.map(one, strategies))
    else:
        paths = [one(s) for s in strategies]

    bound_path = os.path.join(cfg.outdir, f"{stem}-bound.csv")
    emit_bounds(f, iv, ells, float(np.linalg.norm(v)), bound_mode,
                out_path=bound_path, shift=bound_shift,
                conjectured_gamma=cfg.conjectured_gamma)
    paths.append(bound_path)
    if cfg.gnuplot:
        curves = {s: os.path.join(cfg.outdir, f"{stem}-{s}.csv")
                  for s in strategies}
        curves["bound"] = bound_path
        paths.append(_write_gnuplot(os.path.join(cfg.outdir, f"{stem}.gp"),
                                    stem, curves))
    return paths


def _run_fig_lapl_1d(cfg: ExperimentConfig) -> list[str]:
    op = diffusion_operator(cfg.n)
    strategies = ("extended", "zolotarev", "eds-laplace")
    paths = _run_panel_1d(cfg, op, catalog_function("phi", 1),
                          "fig-lapl-1d-phi1", strategies, "laplace-1d")
    # z^(-3/2) W(z) has an infinite anchor at 0+; its bound curve uses the
    # half-edge shift.
    iv = op.exact_interval()
    paths += _run_panel_1d(cfg, op, catalog_function("lambertw_scaled"),
                           "fig-lapl-1d-lambertw", strategies, "laplace-1d",
                           bound_shift=0.5 * iv.lower)
    return paths


def _run_fig_cauchy_1d(cfg: ExperimentConfig) -> list[str]:
    op = toeplitz_tridiagonal(cfg.n, 1.0)
    return _run_panel_1d(cfg, op, catalog_function("power", -0.5),
                         "fig-cauchy-1d",
                         ("extended", "cauchy", "eds-cauchy"), "cauchy-1d")


def _eig_fixtures(n: int) -> dict:
    k = np.arange(1, n + 1)
    shifted = 2.0 + 1e-3 - 2.0 * np.cos(k * np.pi / (n + 1))
    m_low = 20
    gapped = np.concatenate([
        _cheb_points(1e-3, 1e-1, m_low),
        _cheb_points(10.0, 1e3, n - m_low),
    ])
    return {
        "equispaced": np.linspace(1.0 / n, 1.0, n),
        "shifted": shifted,
        "gapped": np.sort(gapped),
    }


def _cheb_points(lo: float, hi: float, m: int) -> np.ndarray:
    j = np.arange(1, m + 1)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * j - 1) * np.pi / (2 * m))


def _run_fig_cauchy_1d_eig(cfg: ExperimentConfig) -> list[str]:
    f = catalog_function("power", -0.5)
    paths = []
    for tag, diag in _eig_fixtures(cfg.n).items():
        op = DiagonalOperator(diag)
        paths += _run_panel_1d(cfg, op, f, f"fig-cauchy-1d-eig-{tag}",
                               ("extended", "cauchy", "eds-cauchy"),
                               "cauchy-1d")
    return paths


def _run_fig_cauchy_1d_funcs(cfg: ExperimentConfig) -> list[str]:
    op = toeplitz_tridiagonal(cfg.n, 1.0)
    panels = (
        ("fig-cauchy-1d-funcs-sqrtexp",
         catalog_function("one_minus_exp_sqrt_over_z")),
        ("fig-cauchy-1d-funcs-pow02", catalog_function("power", -0.2)),
        ("fig-cauchy-1d-funcs-pow08", catalog_function("power", -0.8)),
    )
    paths = []
    for stem, f in panels:
        paths += _run_panel_1d(cfg, op, f, stem,
                               ("extended", "cauchy", "eds-cauchy"),
                               "cauchy-1d")
    return paths


# ---------------------------------------------------------------------------
# iteration/time table


def _timed_nested_run(op, f, v, iv, strategy: str, max_ell: int,
                      oracle: np.ndarray) -> list[tuple]:
    """Per-step (ell, abs_error, cumulative_seconds) for a nested strategy.

    Timing covers basis growth and reduced extraction (the method); the
    oracle comparison is measurement overhead and excluded.
    """
    from .rk import _pole_stream  # shared strategy -> stream mapping

    stream = _pole_stream(strategy, iv, None)
    rows = []
    elapsed = 0.0
    t0 = time.perf_counter()
    dec = RKDecomposition(op, v)
    elapsed += time.perf_counter() - t0
    for _ in range(max_ell):
        t0 = time.perf_counter()
        dec.extend([next(stream)])
        x = rk_funv(dec, f)
        elapsed += time.perf_counter() - t0
        err = float(np.linalg.norm(x - oracle))
        rows.append((len(dec.poles_used), err, elapsed))
        if dec.breakdown:
            break
    return rows


def _run_table_times(cfg: ExperimentConfig) -> list[str]:
    op = toeplitz_tridiagonal(cfg.n, 1.0)
    iv = op.exact_interval()
    f = catalog_function("power", -0.5)
    rng = np.random.default_rng(cfg.seed)
    v = _unit_normal(rng, cfg.n)
    oracle = oracle_funv(op, f, v)
    xnorm = float(np.linalg.norm(oracle))

    caps = {"eds-cauchy": min(60, cfg.ell_max), "extended": cfg.ell_max}
    paths, summary = [], []
    for strategy, cap in caps.items():
        rows = _timed_nested_run(op, f, v, iv, strategy, cap, oracle)
        trace = [(ell, err,
                  cauchy_bound(f, iv, ell, 1.0) if strategy == "eds-cauchy"
                  else math.nan)
                 for ell, err, _ in rows]
        paths.append(_write_csv(
            os.path.join(cfg.outdir, f"table-times-{strategy}.csv"),
            ("ell", "true_error", "bound"), trace))
        for tol in TIME_TOLERANCES:
            hit = next(((ell, sec) for ell, err, sec in rows
                        if err / xnorm <= tol), None)
            summary.append((f"{tol:g}", strategy,
                            hit[0] if hit else "",
                            f"{hit[1]:.4g}" if hit else ""))
    paths.append(_write_csv(
        os.path.join(cfg.outdir, "table-times-summary.csv"),
        ("tolerance", "strategy", "iterations", "seconds"), summary))
    return paths


# ---------------------------------------------------------------------------
# Kronecker studies


def _eds_kron_cauchy_pair(iv: SpectralInterval, count: int):
    """Nested analog of the two-sided Cauchy pole pair: equidistributed
    points on the normalized interval, pushed through the same Moebius
    chart, mirrored for the second factor."""
    mob = mobius_kron(iv)
    state = eds_start(mob.endpoint)
    psi = []
    for _ in range(count):
        s, state = eds_next(state)
        psi.append(float(mob.inv(-s)))
    xi = [-p for p in psi]
    return psi, xi


def _kron_pole_pair(variant: str, strategy: str, iv: SpectralInterval,
                    ell: int):
    if strategy == "extended":
        seq = [math.inf if j % 2 == 0 else 0.0 for j in range(ell)]
        return seq, list(seq)
    if strategy == "polynomial":
        seq = [math.inf] * ell
        return seq, list(seq)
    if strategy == "canonical":
        maker = laplace_kron_poles if variant == "laplace" else cauchy_kron_poles
        psi, xi = maker(iv, ell)
        return list(psi.poles), list(xi.poles)
    if strategy == "eds":
        if variant == "laplace":
            psi = list(eds_poles(iv, ell, "laplace").poles)
            return psi, [-p for p in psi]
        return _eds_kron_cauchy_pair(iv, ell)
    raise ValueError(f"unknown Kronecker strategy {strategy!r}")


def _run_kron(cfg: ExperimentConfig, variant: str, stem: str) -> list[str]:
    if variant == "laplace":
        op = diffusion_operator(cfg.n)
        f = catalog_function("phi", 1)
        bound_mode = "laplace-kron"
    else:
        op = toeplitz_tridiagonal(cfg.n, 1.0)
        f = catalog_function("power", -0.5)
        bound_mode = "cauchy-kron"
    iv = op.exact_interval()
    rng = np.random.default_rng(cfg.seed)
    u = _unit_normal(rng, cfg.n)[:, None]
    w = _unit_normal(rng, cfg.n)[:, None]
    prob = KroneckerProblem(op, op, u, w, f, iv)
    x_ref = dense_kron_solution(prob, dense_limit=cfg.dense_limit)
    fnorm = prob.rhs_norm2()
    ells = range(1, cfg.ell_max + 1)

    def one(strategy: str) -> str:
        rows = []
        for ell in ells:
            psi, xi = _kron_pole_pair(variant, strategy, iv, ell)
            res = kron_fun(prob, psi, xi)
            err = float(np.linalg.norm(res.materialize() - x_ref, ord=2))
            if strategy == "canonical":
                if variant == "laplace":
                    b = kron_laplace_bound(
                        f, iv, ell, fnorm,
                        conjectured_gamma=cfg.conjectured_gamma)
                else:
                    b = kron_cauchy_bound(f, iv, ell, fnorm)
            else:
                b = math.nan
            rows.append((ell, err, b))
        return _write_csv(os.path.join(cfg.outdir, f"{stem}-{strategy}.csv"),
                          ("ell", "true_error", "bound"), rows)

    strategies = ("extended", "polynomial", "canonical", "eds")
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            paths = list(pool.map(one, strategies))
    else:
        paths = [one(s) for s in strategies]

    bound_path = os.path.join(cfg.outdir, f"{stem}-bound.csv")
    emit_bounds(f, iv, ells, fnorm, bound_mode, out_path=bound_path,
                conjectured_gamma=cfg.conjectured_gamma)
    paths.append(bound_path)

    svals = np.linalg.svd(x_ref, compute_uv=False)
    decay = singular_decay_report(prob, list(ells), variant,
                                  dense_limit=cfg.dense_limit,
                                  conjectured_gamma=cfg.conjectured_gamma)
    sv_rows = [(j + 1, float(s)) for j, s in enumerate(svals[:cfg.ell_max + 1])]
    paths.append(_write_csv(os.path.join(cfg.outdir, f"{stem}-singvals.csv"),
                            ("index", "sigma"), sv_rows))
    paths.append(_write_csv(
        os.path.join(cfg.outdir, f"{stem}-singval-bounds.csv"),
        ("ell", "sigma_1_plus_ell_k", "bound"), decay))

    if cfg.gnuplot:
        curves = {s: os.path.join(cfg.outdir, f"{stem}-{s}.csv")
                  for s in strategies}
        curves["bound"] = bound_path
        paths.append(_write_gnuplot(os.path.join(cfg.outdir, f"{stem}.gp"),
                                    stem, curves))
    return paths


def _run_fig_lapl_2d(cfg: ExperimentConfig) -> list[str]:
    return _run_kron(cfg, "laplace", "fig-lapl-2d")


def _run_fig_cauchy_2d(cfg: ExperimentConfig) -> list[str]:
    return _run_kron(cfg, "cauchy", "fig-cauchy-2d")


_RUNNERS: dict[str, Callable[[ExperimentConfig], list[str]]] = {
    "fig-lapl-1d": _run_fig_lapl_1d,
    "fig-cauchy-1d": _run_fig_cauchy_1d,
    "fig-cauchy-1d-eig": _run_fig_cauchy_1d_eig,
    "fig-cauchy-1d-funcs": _run_fig_cauchy_1d_funcs,
    "table-times": _run_table_times,
    "fig-lapl-2d": _run_fig_lapl_2d,
    "fig-cauchy-2d": _run_fig_cauchy_2d,
}


def run_experiment(cfg: ExperimentConfig) -> list[str]:
    """Run one experiment and return the list of files written."""
    cfg = cfg.resolved()
    os.makedirs(cfg.outdir, exist_ok=True)
    return _RUNNERS[cfg.experiment](cfg)
