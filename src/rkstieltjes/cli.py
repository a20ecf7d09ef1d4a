"""Command-line front end.

Subcommands: ``funv`` (approximate f(A)v with a chosen pole strategy),
``kronfun`` (low-rank evaluation on a Kronecker-sum argument), ``poles``
(generate pole files), ``experiment`` (bundled convergence studies), and
``accept`` (the acceptance suite).  All tabular output is CSV.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .acceptance import run_acceptance
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    diffusion_operator,
    run_experiment,
    write_csv,
)
from .functions import parse_function_spec
from .kronfun import KroneckerProblem, dense_kron_solution, kron_fun
from .operators import (
    HermitianOperator,
    SpectralInterval,
    count,
    load_matrix,
    oracle_funv,
    positive_interval,
    spectral_interval,
    toeplitz_tridiagonal,
)
from .poles import read_pole_file, write_pole_file
from .rk import funv_driver
from .strategies import KRON_PAIRS, STRATEGIES

# Strategy names the CLI generates poles for; ``custom`` takes a file.
_NAMED = [name for name in STRATEGIES if name != "custom"]


# ---------------------------------------------------------------------------
# argument helpers


def _parse_matrix(spec: str, option: str) -> HermitianOperator:
    """tridiag:n[:scale] | diffusion:n[:eps[:dt]] | diag:path | a matrix file;
    a refused order names ``option`` and the spec."""
    kind, sep, rest = spec.partition(":")
    if sep and kind in ("tridiag", "diffusion"):
        text, *params = rest.split(":")
        try:
            n = _count_arg(text)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{option} {spec!r}: n {exc}") from None
        if kind == "tridiag":
            return toeplitz_tridiagonal(n, float(params[0]) if params else 1.0)
        eps = float(params[0]) if params else 1e-2
        dt = float(params[1]) if len(params) > 1 else 0.1
        return diffusion_operator(n, eps, dt)
    return load_matrix(rest if sep and kind == "diag" else spec)


def _parse_interval(spec: str, op: HermitianOperator) -> SpectralInterval:
    if spec == "auto":
        return spectral_interval(op, mode="exact-small")
    if spec.startswith("gershgorin"):
        floor = None
        if ":" in spec:
            floor = float(spec.split(":", 1)[1])
        return spectral_interval(op, mode="gershgorin", floor=floor)
    return SpectralInterval(*_split_interval(spec))


def _split_interval(spec: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in spec.split(","))
    except ValueError:
        raise SystemExit(f"--interval: expected 'a,b' (see --help), got {spec!r}")
    return lo, hi


def _count_arg(text: str) -> int:
    """argparse ``type`` of the count options: a refusal names the option."""
    try:
        return count(int(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _load_factor(path: str) -> np.ndarray:
    """A factor as stored; ``KroneckerProblem`` coerces it."""
    return np.load(path) if path.endswith(".npy") else np.loadtxt(path, ndmin=2)


# ---------------------------------------------------------------------------
# subcommand: funv


def _cmd_funv(args) -> int:
    op = _parse_matrix(args.matrix, "--matrix")
    f = parse_function_spec(args.function)
    iv = _parse_interval(args.interval, op)

    if args.shift:
        eta = float(args.shift)
        f = f.with_shift(eta)
        op = op.diag_shifted(-eta)
        iv = iv.shifted(-eta).require_positive()

    if args.vector is not None:
        v = np.loadtxt(args.vector, dtype=float, ndmin=1)
        if v.size != op.n:
            raise SystemExit(
                f"--vector: length {v.size} does not match order {op.n}")
    else:
        rng = np.random.default_rng(args.seed)
        v = rng.standard_normal(op.n)
        v /= np.linalg.norm(v)

    strategy, custom = args.poles, None
    if strategy.startswith("custom:"):
        custom = list(read_pole_file(strategy[7:]))
        strategy = "custom"
    elif strategy not in _NAMED:
        raise SystemExit(
            f"--poles: unknown strategy {strategy!r}; expected one of "
            f"{', '.join(_NAMED)} or custom:FILE")

    oracle = None
    if args.oracle == "on":
        oracle = oracle_funv(op, f, v)

    result = funv_driver(
        op, f, v, iv, strategy=strategy,
        tol=args.tol, ell=args.ell, max_ell=args.max_ell,
        oracle=oracle, custom_poles=custom)

    if args.out:
        write_csv(args.out, ["ell", "est_error", "true_error", "bound"],
                  [(r.ell, r.est_error, r.true_error, r.bound)
                   for r in result.trace])
    last = result.trace[-1]
    status = "converged" if result.converged else "stopped"
    print(f"{status} at ell={last.ell} ({result.strategy}); "
          f"est_error={last.est_error:.3e} true_error={last.true_error:.3e} "
          f"bound={last.bound:.3e}")
    if args.out:
        print(f"trace written to {args.out}")
    return 0 if result.converged or args.tol is None else 1


# ---------------------------------------------------------------------------
# subcommand: kronfun


def _cmd_kronfun(args) -> int:
    a_op = _parse_matrix(args.a, "--a")
    bneg_op = _parse_matrix(args.bneg, "--bneg")
    f = parse_function_spec(args.function)

    if args.ufile or args.vfile:
        if not (args.ufile and args.vfile):
            raise SystemExit("--ufile and --vfile must be given together")
        u, w = _load_factor(args.ufile), _load_factor(args.vfile)
    else:
        rng = np.random.default_rng(args.seed)
        u = rng.standard_normal((a_op.n, args.rank))
        w = rng.standard_normal((bneg_op.n, args.rank))
        u /= np.linalg.norm(u, axis=0)
        w /= np.linalg.norm(w, axis=0)

    # One interval must enclose the spectra of both A and -B.
    iva, ivb = (_parse_interval(args.interval, op) for op in (a_op, bneg_op))
    iv = SpectralInterval(min(iva.lower, ivb.lower),
                          max(iva.upper, ivb.upper)).require_positive()

    prob = KroneckerProblem(a_op, bneg_op, u, w, f, iv)

    family = args.poles
    bound = math.nan
    if family.startswith("custom:"):
        spec = family[7:]
        if "," not in spec:
            raise SystemExit("--poles custom: expected custom:PSI_FILE,XI_FILE")
        psi_path, xi_path = spec.split(",", 1)
        psi = list(read_pole_file(psi_path))
        xi = list(read_pole_file(xi_path))
    elif family in KRON_PAIRS:
        pair = KRON_PAIRS[family]
        psi, xi = pair.poles(iv, args.ell)
        bound = pair.bound(f, iv, args.ell, prob.rhs_norm2())
    else:
        raise SystemExit(
            f"--poles: unknown family {family!r}; expected one of "
            f"{', '.join(KRON_PAIRS)} or custom:PSI_FILE,XI_FILE")

    res = kron_fun(prob, psi, xi, ell=args.ell)

    true_error = math.nan
    if args.oracle == "on":
        x_ref = dense_kron_solution(prob)
        true_error = float(np.linalg.norm(res.materialize() - x_ref, ord=2))

    if args.out:
        write_csv(args.out,
                  ["ell", "storage_rank", "norm2", "bound", "true_error"],
                  [(args.ell, res.storage_rank, res.norm2(), bound,
                    true_error)])
    if args.svd_report:
        svals = np.linalg.svd(res.core, compute_uv=False)
        write_csv(args.svd_report, ["index", "sigma"],
                  [(j + 1, float(s)) for j, s in enumerate(svals)])

    print(f"ell={args.ell} family={family} storage_rank={res.storage_rank} "
          f"norm2={res.norm2():.6e} bound={bound:.3e} "
          f"true_error={true_error:.3e}")
    return 0


# ---------------------------------------------------------------------------
# subcommand: poles


def _cmd_poles(args) -> int:
    # --out-xi asks for the Kronecker pair of a name; without it, a name of
    # both a 1-D strategy and a pair means the 1-D strategy.
    if args.out_xi:
        family = KRON_PAIRS.get(args.strategy)
        if family is None:
            raise SystemExit(
                f"{args.strategy} is a 1-D strategy with one pole list; "
                f"--out-xi needs a Kronecker pair: {', '.join(KRON_PAIRS)}")
    else:
        family = STRATEGIES.get(args.strategy)
        if family is None:
            raise SystemExit(
                f"{args.strategy} produces a pole pair; --out-xi FILE is "
                "required for the second factor")
    if family.needs_interval and args.interval is None:
        raise SystemExit(f"--interval a,b is required for {args.strategy}")
    iv = None
    if args.interval is not None:
        iv = positive_interval(_split_interval(args.interval))

    if args.out_xi:
        seq, xi = family.poles(iv, args.ell)
    else:
        seq = family.first(iv, args.ell)
    write_pole_file(args.out, seq)
    print(f"{args.ell} poles ({args.strategy}) -> {args.out}")
    if args.out_xi:
        write_pole_file(args.out_xi, xi)
        print(f"second-factor poles -> {args.out_xi}")
    return 0


# ---------------------------------------------------------------------------
# subcommand: experiment / accept


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        experiment=args.id, n=args.n, ell_max=args.ell_max, seed=args.seed,
        outdir=args.outdir, gnuplot=args.gnuplot, threads=args.threads)
    for path in run_experiment(cfg):
        print(path)
    return 0


def _cmd_accept(args) -> int:
    numbers = None
    if args.only:
        numbers = [int(t) for t in args.only.split(",")]
    ok = run_acceptance(numbers)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    # Only the subcommands that read these take them; the rest refuse them.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for generated vectors/factors")

    p = argparse.ArgumentParser(
        prog="rkstieltjes",
        description="Rational Krylov evaluation of Stieltjes matrix "
                    "functions with certified pole choices.")
    sub = p.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("funv", parents=[seeded],
                        help="approximate f(A)v")
    pf.add_argument("--matrix", required=True,
                    help="tridiag:n[:scale] | diffusion:n[:eps[:dt]] | "
                         "diag:path | matrix file")
    pf.add_argument("--function", required=True,
                    help="e.g. phi:1, power:-0.5, inverse, log1p, sqrt-exp, "
                         "lambertw, rational:w,p;w,p")
    pf.add_argument("--poles", default="zolotarev",
                    help=f"{'|'.join(_NAMED)}|custom:FILE")
    pf.add_argument("--interval", default="auto",
                    help="a,b | auto | gershgorin[:floor]")
    pf.add_argument("--shift", type=float, default=0.0,
                    help="evaluate f(.+eta) on the shifted operator")
    group = pf.add_mutually_exclusive_group(required=True)
    group.add_argument("--tol", type=float, help="stop at this error estimate")
    group.add_argument("--ell", type=_count_arg, help="use exactly this many poles")
    pf.add_argument("--max-ell", type=_count_arg, default=80)
    pf.add_argument("--vector", help="text file with the seed vector")
    pf.add_argument("--oracle", choices=("on", "off"), default="off",
                    help="compute true errors against a reference solution")
    pf.add_argument("--out", help="write the trace CSV here")
    pf.set_defaults(fn=_cmd_funv)

    pk = sub.add_parser("kronfun", parents=[seeded],
                        help="low-rank f(Kronecker sum) evaluation")
    pk.add_argument("--a", required=True, help="matrix spec for A (SPD)")
    pk.add_argument("--bneg", required=True,
                    help="matrix spec for -B (SPD); the argument is "
                         "I x A - B^T x I")
    pk.add_argument("--function", required=True)
    pk.add_argument("--rank", type=_count_arg, default=1,
                    help="rank of the generated right-hand side")
    pk.add_argument("--ufile", help="left factor file (.npy or text)")
    pk.add_argument("--vfile", help="right factor file (.npy or text)")
    pk.add_argument("--poles", default="cauchy-kron",
                    help=f"{'|'.join(KRON_PAIRS)}|custom:PSI,XI")
    pk.add_argument("--ell", type=_count_arg, required=True)
    pk.add_argument("--interval", default="auto",
                    help="a,b | auto | gershgorin[:floor]")
    pk.add_argument("--oracle", choices=("on", "off"), default="off")
    pk.add_argument("--out", help="write a one-row summary CSV here")
    pk.add_argument("--svd-report",
                    help="write singular values of the compressed core here")
    pk.set_defaults(fn=_cmd_kronfun)

    pp = sub.add_parser("poles", help="generate pole files")
    pp.add_argument("--strategy", required=True,
                    choices=list(dict.fromkeys([*_NAMED, *KRON_PAIRS])))
    pp.add_argument("--interval", help="a,b (spectral enclosure)")
    pp.add_argument("--ell", type=_count_arg, required=True)
    pp.add_argument("--out", required=True)
    pp.add_argument("--out-xi",
                    help="second file for the B^T-side poles of kron pairs")
    pp.set_defaults(fn=_cmd_poles)

    pe = sub.add_parser("experiment", parents=[seeded],
                        help="run a bundled convergence study")
    pe.add_argument("id", choices=EXPERIMENT_IDS)
    pe.add_argument("--n", type=_count_arg, help="matrix order (desk-scale default)")
    pe.add_argument("--ell-max", type=_count_arg)
    pe.add_argument("--outdir", default=".")
    pe.add_argument("--gnuplot", action="store_true",
                    help="also write a companion gnuplot script")
    pe.add_argument("--threads", type=_count_arg, default=1,
                    help="strategies run in parallel")
    pe.set_defaults(fn=_cmd_experiment)

    pa = sub.add_parser("accept", help="run the acceptance suite")
    pa.add_argument("--only", help="comma-separated criterion numbers")
    pa.set_defaults(fn=_cmd_accept)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
