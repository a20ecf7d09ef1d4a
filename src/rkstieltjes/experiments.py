"""Bundled convergence experiments with CSV artifacts: the measurement
harness around the library.

Each experiment compares pole-selection strategies on a fixed matrix
family and writes one trace CSV per strategy (columns ell,true_error,bound
with absolute 2-norm errors), one bound-curve CSV, and -- for the
Kronecker studies -- a singular-value CSV.  Sizes default to desk scale so
an exact reference solution is always available: 1-D runs use the
closed-form sine-transform or diagonal oracle, 2-D runs a full double
diagonalization.  Given the same seed the error columns are bit-identical
across runs at one BLAS thread count; another thread count changes them
by rounding (``table-times`` at n = 20000 does, from 1 to 2 OpenBLAS
threads).  Timing columns are informative only.  Every error curve,
here and in the acceptance suite, is one ``timed_sweep``, and every bound
column one ``emit_bounds`` call.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .functions import StieltjesFunction, catalog_function
from .kronfun import (
    KroneckerProblem,
    dense_kron_solution,
    kron_iterates,
    kron_problem,
    singular_decay_report,
)
from .operators import (
    DiagonalOperator,
    SpectralInterval,
    TridiagonalOperator,
    count,
    oracle_funv,
    positive_interval,
    toeplitz_tridiagonal,
)
# perfbench's tracer wraps ``experiments.eds_next``, so the name stays
# here; the EDS Kronecker pairs step the sequence in ``poles.eds_pole_iter``,
# where its ``poles.eds_next`` wrapper times each step.
from .poles import eds_next  # noqa: F401
from .rk import iterates
from .strategies import CANONICAL, STRATEGIES, KronPair, get_strategy

__all__ = [
    "EXPERIMENT_IDS",
    "ExperimentConfig",
    "run_experiment",
    "emit_bounds",
    "diffusion_operator",
    "first_at_or_below",
    "fixture_1d",
    "fixture_2d",
    "solutions_1d",
    "solutions_2d",
    "timed_sweep",
    "with_bounds",
    "write_csv",
]

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

    def resolved(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(
                f"field 'experiment': unknown id {self.experiment!r}; "
                f"expected one of {', '.join(EXPERIMENT_IDS)}")
        default_n, max_n, default_ell, _ = _EXPERIMENTS[self.experiment]
        n = default_n if self.n is None else count(self.n, "field 'n'")
        if not 16 <= n <= max_n:
            raise ValueError(
                f"field 'n': {n} outside the supported range [16, {max_n}] "
                f"for {self.experiment}")
        ell = (default_ell if self.ell_max is None
               else count(self.ell_max, "field 'ell_max'"))
        if ell < 4:
            raise ValueError(f"field 'ell_max': {ell} must be >= 4")
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ValueError(f"field 'seed' must be an integer, got "
                             f"{self.seed!r}") from None
        if seed < 0:
            raise ValueError(f"field 'seed': {seed} must be >= 0")
        count(self.threads, "field 'threads'")
        return replace(self, n=n, ell_max=ell, seed=seed)


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


def fixture_1d(op, f: StieltjesFunction, seed: int) -> tuple:
    """(v, interval, oracle): a unit seed vector drawn from
    ``default_rng(seed)``, the exact spectral interval and f(A)v."""
    v = _unit_normal(np.random.default_rng(seed), op.n)
    return v, op.exact_interval(), oracle_funv(op, f, v)


def fixture_2d(op, f: StieltjesFunction, seed: int) -> tuple:
    """(problem, x_ref): f(I⊗A − Bᵀ⊗I) vec(u wᵀ) with A = −B = ``op`` and
    unit u, w drawn in that order from ``default_rng(seed)``, and its dense
    reference solution."""
    rng = np.random.default_rng(seed)
    u = _unit_normal(rng, op.n)[:, None]
    w = _unit_normal(rng, op.n)[:, None]
    prob = kron_problem(op, op, u, w, f)
    return prob, dense_kron_solution(prob)


def solutions_1d(op, f: StieltjesFunction, v, iv, strategy: str,
                 max_ell: int) -> Iterator[tuple[int, np.ndarray]]:
    """Lazy (ell, x_ell) for ell = 1..max_ell: ``rk.iterates``, lifted;
    it ends early where a nested basis breaks down."""
    return ((len(dec.poles_used), dec.lift(y)) for dec, y in
            iterates(op, f, v, strategy, iv, range(1, max_ell + 1)))


def solutions_2d(problem: KroneckerProblem, pair: KronPair,
                 max_ell: int) -> Iterator[tuple[int, np.ndarray]]:
    """Lazy (ell, X_ell) for ell = 1..max_ell: ``kron_iterates``,
    materialized."""
    counts = range(1, max_ell + 1)
    return ((ell, res.materialize()) for ell, res in
            zip(counts, kron_iterates(problem, pair, counts)))


def timed_sweep(solutions: Iterable[tuple[int, np.ndarray]],
                reference: np.ndarray) -> Iterator[tuple[int, float, float]]:
    """Lazy (ell, abs_error, cumulative_seconds) over ``solutions``
    (``solutions_1d`` or ``solutions_2d``); the method runs only as far as
    the caller reads.  abs_error is the 2-norm ||x_ell - reference||: of
    the vector in 1-D, the spectral norm in 2-D.

    Timing covers basis growth and extraction, lift included (the method);
    the error norm and the caller's work are excluded.
    """
    elapsed = 0.0
    t0 = time.perf_counter()
    for ell, x in solutions:
        elapsed += time.perf_counter() - t0
        yield ell, float(np.linalg.norm(x - reference, 2)), elapsed
        t0 = time.perf_counter()


def first_at_or_below(curve: Iterable[tuple[int, float, float]], tol: float,
                      scale: float) -> tuple[int, float, float] | None:
    """The first (ell, abs_error, seconds) row of ``curve`` whose error
    relative to ``scale`` is at or below ``tol``, or None; a lazy curve is
    read only that far."""
    return next((row for row in curve if row[1] / scale <= tol), None)


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


def _write_panel(cfg: ExperimentConfig, stem: str, labels: Sequence[str],
                 sweep: Callable[[str], list], bound_rows: list) -> list[str]:
    """One panel: ``{stem}-{label}.csv`` with the (ell, true_error, bound)
    rows of ``sweep(label)`` per label, on ``cfg.threads`` threads, then
    ``{stem}-bound.csv`` and, with ``cfg.gnuplot``, ``{stem}.gp``."""
    def one(label: str) -> str:
        return write_csv(os.path.join(cfg.outdir, f"{stem}-{label}.csv"),
                         ("ell", "true_error", "bound"), sweep(label))

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        paths = list(pool.map(one, labels))
    paths.append(write_csv(os.path.join(cfg.outdir, f"{stem}-bound.csv"),
                           ("ell", "bound"), bound_rows))
    if cfg.gnuplot:
        paths.append(_write_gnuplot(cfg.outdir, stem, [*labels, "bound"]))
    return paths


# ---------------------------------------------------------------------------
# bound curves


def emit_bounds(bound, f: StieltjesFunction, interval, ells: Sequence[int],
                norm: float, shift: float = 0.0) -> list[tuple]:
    """Bound curve (ell, bound(f, interval, ell, norm)) of a strategy
    record's ``bound`` (a ``Strategy`` or a ``KronPair``).

    A positive ``shift`` eta evaluates the curve for f(.+eta) on the
    left-shifted interval [a - eta, b - eta], the finite-anchor workaround
    when f(0+) diverges; a curve that comes out infinite because f(0+) does
    is refused without one.
    """
    iv = positive_interval(interval)
    if shift:
        f = f.with_shift(shift)
        iv = iv.shifted(-shift).require_positive()
    rows = [(int(ell), bound(f, iv, int(ell), norm)) for ell in ells]
    if math.isinf(f.limit_at_zero()) and any(math.isinf(b) for _, b in rows):
        raise ValueError(
            f"{f.label}: the bound anchor f(0+) is infinite; pass a "
            "positive shift eta (e.g. half the lower spectral edge) so "
            "the curve anchors at the finite value f(eta)")
    return rows


def with_bounds(curve: Iterable[tuple], bound, f: StieltjesFunction,
                interval, norm: float, shift: float = 0.0) -> list[tuple]:
    """The rows (ell, abs_error, bound) of a timed curve, read whole, with
    the ``emit_bounds`` column of ``bound`` at the pole counts reached."""
    rows = list(curve)
    column = emit_bounds(bound, f, interval, [ell for ell, _, _ in rows],
                         norm, shift)
    return [(ell, err, b) for (ell, err, _), (_, b) in zip(rows, column)]


# ---------------------------------------------------------------------------
# 1-D studies


def _run_panels_1d(cfg: ExperimentConfig, variant: str,
                   panels: Sequence[tuple]) -> list[str]:
    """Each ``(stem, op, f, shift)`` panel compares the extended Krylov
    space, the certified poles of the function class ``variant`` and their
    nested EDS analog with the class's bound curve (``emit_bounds`` with
    ``shift``)."""
    strategies = ("extended", CANONICAL[variant], f"eds-{variant}")
    paths = []
    for stem, op, f, shift in panels:
        v, iv, oracle = fixture_1d(op, f, cfg.seed)
        vnorm = float(np.linalg.norm(v))

        def sweep(strategy: str) -> list:
            return with_bounds(
                timed_sweep(solutions_1d(op, f, v, iv, strategy, cfg.ell_max),
                            oracle),
                get_strategy(strategy).bound, f, iv, vnorm, shift)

        paths += _write_panel(cfg, stem, strategies, sweep, emit_bounds(
            get_strategy(CANONICAL[variant]).bound, f, iv,
            range(1, cfg.ell_max + 1), vnorm, shift))
    return paths


def _run_fig_lapl_1d(cfg: ExperimentConfig) -> list[str]:
    op = diffusion_operator(cfg.n)
    # z^(-3/2) W(z) has an infinite anchor at 0+; its bound curve uses the
    # half-edge shift.
    return _run_panels_1d(cfg, "laplace", [
        ("fig-lapl-1d-phi1", op, catalog_function("phi", 1), 0.0),
        ("fig-lapl-1d-lambertw", op, catalog_function("lambertw_scaled"),
         0.5 * op.exact_interval().lower),
    ])


def _run_fig_cauchy_1d(cfg: ExperimentConfig) -> list[str]:
    return _run_panels_1d(cfg, "cauchy", [
        ("fig-cauchy-1d", toeplitz_tridiagonal(cfg.n, 1.0),
         catalog_function("power", -0.5), 0.0),
    ])


def _eig_fixtures(n: int) -> dict:
    m_low = 20  # points in the low cluster of ``gapped``
    if n <= m_low:
        raise ValueError(f"field 'n': fig-cauchy-1d-eig needs n >= "
                         f"{m_low + 1}, got {n}")
    k = np.arange(1, n + 1)
    shifted = 2.0 + 1e-3 - 2.0 * np.cos(k * np.pi / (n + 1))
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
    return _run_panels_1d(cfg, "cauchy", [
        (f"fig-cauchy-1d-eig-{tag}", DiagonalOperator(diag), f, 0.0)
        for tag, diag in _eig_fixtures(cfg.n).items()
    ])


def _run_fig_cauchy_1d_funcs(cfg: ExperimentConfig) -> list[str]:
    op = toeplitz_tridiagonal(cfg.n, 1.0)
    return _run_panels_1d(cfg, "cauchy", [
        ("fig-cauchy-1d-funcs-sqrtexp", op,
         catalog_function("one_minus_exp_sqrt_over_z"), 0.0),
        ("fig-cauchy-1d-funcs-pow02", op,
         catalog_function("power", -0.2), 0.0),
        ("fig-cauchy-1d-funcs-pow08", op,
         catalog_function("power", -0.8), 0.0),
    ])


# ---------------------------------------------------------------------------
# iteration/time table


def _run_table_times(cfg: ExperimentConfig) -> list[str]:
    op = toeplitz_tridiagonal(cfg.n, 1.0)
    f = catalog_function("power", -0.5)
    v, iv, oracle = fixture_1d(op, f, cfg.seed)
    vnorm, xnorm = float(np.linalg.norm(v)), float(np.linalg.norm(oracle))

    caps = {"eds-cauchy": min(60, cfg.ell_max), "extended": cfg.ell_max}
    paths, summary = [], []
    for strategy, cap in caps.items():
        rows = list(timed_sweep(solutions_1d(op, f, v, iv, strategy, cap),
                                oracle))
        paths.append(write_csv(
            os.path.join(cfg.outdir, f"table-times-{strategy}.csv"),
            ("ell", "true_error", "bound"),
            with_bounds(rows, get_strategy(strategy).bound, f, iv, vnorm)))
        for tol in TIME_TOLERANCES:
            hit = first_at_or_below(rows, tol, xnorm)
            summary.append((f"{tol:g}", strategy,
                            hit[0] if hit else "",
                            f"{hit[2]:.4g}" if hit else ""))
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
    prob, x_ref = fixture_2d(op, f, cfg.seed)
    ells = range(1, cfg.ell_max + 1)
    fnorm = prob.rhs_norm2()

    def sweep(label: str) -> list:
        pair = _kron_pair_for(variant, label)
        return with_bounds(
            timed_sweep(solutions_2d(prob, pair, cfg.ell_max), x_ref),
            pair.bound, f, prob.interval, fnorm)

    paths = _write_panel(
        cfg, stem, ("extended", "polynomial", "canonical", "eds"), sweep,
        emit_bounds(_kron_pair_for(variant, "canonical").bound, f,
                    prob.interval, ells, fnorm))

    svals = np.linalg.svd(x_ref, compute_uv=False)
    decay = singular_decay_report(prob, list(ells), svals)
    sv_rows = [(j + 1, float(s)) for j, s in enumerate(svals[:cfg.ell_max + 1])]
    paths.append(write_csv(os.path.join(cfg.outdir, f"{stem}-singvals.csv"),
                           ("index", "sigma"), sv_rows))
    paths.append(write_csv(
        os.path.join(cfg.outdir, f"{stem}-singval-bounds.csv"),
        ("ell", "sigma_1_plus_ell_k", "bound"), decay))
    return paths


# id -> (default n, maximum n, default ell_max, runner).  1-D families use
# O(n) solves and an O(n log n) oracle; the 2-D cap keeps the dense
# reference solution tractable.
_EXPERIMENTS: dict[str, tuple[int, int, int,
                              Callable[[ExperimentConfig], list[str]]]] = {
    "fig-lapl-1d": (2000, 200_000, 40, _run_fig_lapl_1d),
    "fig-cauchy-1d": (2000, 200_000, 40, _run_fig_cauchy_1d),
    "fig-cauchy-1d-eig": (2000, 200_000, 40, _run_fig_cauchy_1d_eig),
    "fig-cauchy-1d-funcs": (2000, 200_000, 40, _run_fig_cauchy_1d_funcs),
    "table-times": (100_000, 200_000, 220, _run_table_times),
    "fig-lapl-2d": (300, 1500, 25, lambda cfg: _run_kron(cfg, "laplace")),
    "fig-cauchy-2d": (300, 1500, 25, lambda cfg: _run_kron(cfg, "cauchy")),
}

EXPERIMENT_IDS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> list[str]:
    """Run one experiment and return the list of files written."""
    cfg = cfg.resolved()
    os.makedirs(cfg.outdir, exist_ok=True)
    return _EXPERIMENTS[cfg.experiment][3](cfg)
