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

import itertools
import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .functions import StieltjesFunction, catalog_function
from .kronfun import (
    KroneckerProblem,
    dense_kron_solution,
    kron_error_sweep,
    singular_decay_report,
)
from .operators import (
    DiagonalOperator,
    SpectralInterval,
    TridiagonalOperator,
    oracle_funv,
    positive_interval,
    toeplitz_tridiagonal,
)
# perfbench's tracer wraps ``experiments.eds_next``, so the name stays
# here; the EDS Kronecker pairs step the sequence in ``poles.eds_pole_iter``,
# where its ``poles.eds_next`` wrapper times each step.
from .poles import eds_next  # noqa: F401
from .rk import error_sweep, iterates
from .strategies import (
    CANONICAL,
    STRATEGIES,
    KronPair,
    get_strategy,
    strategy_bound,
)

__all__ = [
    "EXPERIMENT_IDS",
    "ExperimentConfig",
    "run_experiment",
    "emit_bounds",
    "diffusion_operator",
    "write_csv",
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


def _write_atomic(path: str, lines: Iterable[str]) -> str:
    """Write one line per item atomically: a temp file in the target
    directory is renamed over the destination, so a crash or a line that
    fails to format leaves the old file and no temp file behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-",
                               suffix=os.path.splitext(path)[1])
    try:
        with os.fdopen(fd, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> str:
    """Write a CSV atomically (see ``_write_atomic``)."""
    return _write_atomic(path, itertools.chain(
        [",".join(header)], (",".join(_fmt(x) for x in row) for row in rows)))


def _write_gnuplot(outdir: str, stem: str, labels: Sequence[str]) -> str:
    """``{stem}.gp``, plotting the curve ``{stem}-{label}.csv`` per label."""
    lines = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'poles'",
        "set ylabel 'error'",
        f"set title '{stem}'",
        "set key outside",
    ]
    plots = [
        f"'{stem}-{label}.csv' using 1:2 skip 1 "
        f"with linespoints title '{label}'"
        for label in labels
    ]
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    return _write_atomic(os.path.join(outdir, f"{stem}.gp"), lines)


def _per_strategy(cfg: ExperimentConfig, one: Callable[[str], str],
                  strategies: Sequence[str]) -> list[str]:
    """``one(strategy)`` for every strategy, on ``cfg.threads`` threads."""
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(one, strategies))
    return [one(s) for s in strategies]


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
    iv = positive_interval(interval)
    variant, _, dim = mode.partition("-")
    if variant not in CANONICAL or dim not in ("1d", "kron"):
        raise ValueError(f"unknown bound mode {mode!r}")
    canonical = get_strategy(CANONICAL[variant])
    bound = canonical.bound if dim == "1d" else canonical.kron.bound
    f_b, iv_b = f, iv
    if variant == "laplace":
        if shift:
            f_b = f.with_shift(shift)
            iv_b = iv.shifted(-shift).require_positive()
        elif math.isinf(f.limit_at_zero()):
            raise ValueError(
                f"{f.label}: the bound anchor f(0+) is infinite; pass a "
                "positive shift eta (e.g. half the lower spectral edge) so "
                "the curve anchors at the finite value f(eta)")
    rows = [(int(ell), bound(f_b, iv_b, int(ell), norm,
                             conjectured_gamma=conjectured_gamma))
            for ell in ells]
    if out_path is not None:
        write_csv(out_path, ("ell", "bound"), rows)
    return rows


# ---------------------------------------------------------------------------
# 1-D studies


def _run_panel_1d(cfg: ExperimentConfig, op, f: StieltjesFunction, stem: str,
                  strategies: Sequence[str], bound_mode: str,
                  bound_shift: float = 0.0) -> list[str]:
    iv = op.exact_interval()
    rng = np.random.default_rng(cfg.seed)
    v = _unit_normal(rng, op.n)
    oracle = oracle_funv(op, f, v)
    ells = range(1, cfg.ell_max + 1)

    def one(strategy: str) -> str:
        rows = error_sweep(op, f, v, iv, strategy, ells, oracle,
                           conjectured_gamma=cfg.conjectured_gamma,
                           bound_shift=bound_shift)
        return write_csv(os.path.join(cfg.outdir, f"{stem}-{strategy}.csv"),
                         ("ell", "true_error", "bound"),
                         [(r.ell, r.true_error, r.bound) for r in rows])

    paths = _per_strategy(cfg, one, strategies)
    bound_path = os.path.join(cfg.outdir, f"{stem}-bound.csv")
    emit_bounds(f, iv, ells, float(np.linalg.norm(v)), bound_mode,
                out_path=bound_path, shift=bound_shift,
                conjectured_gamma=cfg.conjectured_gamma)
    paths.append(bound_path)
    if cfg.gnuplot:
        paths.append(_write_gnuplot(cfg.outdir, stem, [*strategies, "bound"]))
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

    Timing covers basis growth and extraction, lift included (the method);
    the oracle comparison is measurement overhead and excluded.
    """
    rows = []
    elapsed = 0.0
    t0 = time.perf_counter()
    for dec, y in iterates(op, f, v, strategy, iv, range(1, max_ell + 1)):
        x = dec.lift(y)
        elapsed += time.perf_counter() - t0
        err = float(np.linalg.norm(x - oracle))
        rows.append((len(dec.poles_used), err, elapsed))
        t0 = time.perf_counter()
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
        trace = [(ell, err, strategy_bound(strategy, f, iv, ell, 1.0))
                 for ell, err, _ in rows]
        paths.append(write_csv(
            os.path.join(cfg.outdir, f"table-times-{strategy}.csv"),
            ("ell", "true_error", "bound"), trace))
        for tol in TIME_TOLERANCES:
            hit = next(((ell, sec) for ell, err, sec in rows
                        if err / xnorm <= tol), None)
            summary.append((f"{tol:g}", strategy,
                            hit[0] if hit else "",
                            f"{hit[1]:.4g}" if hit else ""))
    paths.append(write_csv(
        os.path.join(cfg.outdir, "table-times-summary.csv"),
        ("tolerance", "strategy", "iterations", "seconds"), summary))
    return paths


# ---------------------------------------------------------------------------
# Kronecker studies


def _kron_pair_for(variant: str, strategy: str) -> KronPair:
    """The table's Kronecker pair behind an experiment label:
    ``canonical`` is the certified pair of the function class, ``eds`` its
    nested analog."""
    name = {"canonical": CANONICAL[variant], "eds": f"eds-{variant}"}.get(
        strategy, strategy)
    record = STRATEGIES.get(name)
    if record is None or record.kron is None:
        raise ValueError(f"unknown Kronecker strategy {strategy!r}")
    return record.kron


def _kron_pole_pair(variant: str, strategy: str, iv: SpectralInterval,
                    ell: int):
    return _kron_pair_for(variant, strategy).poles(iv, ell)


def _run_kron(cfg: ExperimentConfig, variant: str) -> list[str]:
    stem = cfg.experiment
    if variant == "laplace":
        op = diffusion_operator(cfg.n)
        f = catalog_function("phi", 1)
    else:
        op = toeplitz_tridiagonal(cfg.n, 1.0)
        f = catalog_function("power", -0.5)
    iv = op.exact_interval()
    rng = np.random.default_rng(cfg.seed)
    u = _unit_normal(rng, cfg.n)[:, None]
    w = _unit_normal(rng, cfg.n)[:, None]
    prob = KroneckerProblem(op, op, u, w, f, iv)
    x_ref = dense_kron_solution(prob, dense_limit=cfg.dense_limit)
    fnorm = prob.rhs_norm2()
    ells = range(1, cfg.ell_max + 1)

    def one(strategy: str) -> str:
        rows = kron_error_sweep(prob, _kron_pair_for(variant, strategy), ells,
                                x_ref, conjectured_gamma=cfg.conjectured_gamma)
        return write_csv(os.path.join(cfg.outdir, f"{stem}-{strategy}.csv"),
                         ("ell", "true_error", "bound"), rows)

    strategies = ("extended", "polynomial", "canonical", "eds")
    paths = _per_strategy(cfg, one, strategies)
    bound_path = os.path.join(cfg.outdir, f"{stem}-bound.csv")
    emit_bounds(f, iv, ells, fnorm, f"{variant}-kron", out_path=bound_path,
                conjectured_gamma=cfg.conjectured_gamma)
    paths.append(bound_path)

    svals = np.linalg.svd(x_ref, compute_uv=False)
    decay = singular_decay_report(prob, list(ells), variant, svals,
                                  conjectured_gamma=cfg.conjectured_gamma)
    sv_rows = [(j + 1, float(s)) for j, s in enumerate(svals[:cfg.ell_max + 1])]
    paths.append(write_csv(os.path.join(cfg.outdir, f"{stem}-singvals.csv"),
                           ("index", "sigma"), sv_rows))
    paths.append(write_csv(
        os.path.join(cfg.outdir, f"{stem}-singval-bounds.csv"),
        ("ell", "sigma_1_plus_ell_k", "bound"), decay))

    if cfg.gnuplot:
        paths.append(_write_gnuplot(cfg.outdir, stem, [*strategies, "bound"]))
    return paths


_RUNNERS: dict[str, Callable[[ExperimentConfig], list[str]]] = {
    "fig-lapl-1d": _run_fig_lapl_1d,
    "fig-cauchy-1d": _run_fig_cauchy_1d,
    "fig-cauchy-1d-eig": _run_fig_cauchy_1d_eig,
    "fig-cauchy-1d-funcs": _run_fig_cauchy_1d_funcs,
    "table-times": _run_table_times,
    "fig-lapl-2d": lambda cfg: _run_kron(cfg, "laplace"),
    "fig-cauchy-2d": lambda cfg: _run_kron(cfg, "cauchy"),
}


def run_experiment(cfg: ExperimentConfig) -> list[str]:
    """Run one experiment and return the list of files written."""
    cfg = cfg.resolved()
    os.makedirs(cfg.outdir, exist_ok=True)
    return _RUNNERS[cfg.experiment](cfg)
