"""The input boundary: every count goes through ``operators.count``, every
outside array through ``operators.finite``, every interval through
``operators.positive_interval`` and every pole list through
``operators.as_poles``, so a bad count, a non-finite entry or a malformed interval is refused with
a ValueError (CLI: exit 2) that names the argument, before any work is
done, and no shape is guessed."""
import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkstieltjes.bounds import (
    cauchy_bound,
    kron_cauchy_bound,
    kron_laplace_bound,
    laplace_bound,
    singular_value_bound,
    sylvester_residual_bound,
)
from rkstieltjes.cli import main
from rkstieltjes.experiments import ExperimentConfig, emit_bounds, run_experiment
from rkstieltjes.functions import catalog_function
from rkstieltjes.kronfun import (KroneckerProblem, kron_fun, kron_iterates,
                                 kron_problem)
from rkstieltjes.operators import (
    BandedOperator,
    DenseOperator,
    DiagonalOperator,
    SpectralInterval,
    TridiagonalOperator,
    oracle_funv,
    spectral_interval,
    toeplitz_tridiagonal,
)
from rkstieltjes.poles import (
    cauchy_kron_poles,
    cauchy_poles,
    eds_pole_iter,
    gamma_const,
    laplace_kron_poles,
    mobius_cauchy,
    mobius_kron,
    write_pole_file,
    zolotarev_poles,
    zolotarev_ratio,
)
from rkstieltjes.rk import (RKDecomposition, build_together, exactness_check,
                            funv_driver, iterates, rk_build)
from rkstieltjes.strategies import KRON_PAIRS, STRATEGIES

N = 30
OP = toeplitz_tridiagonal(N)
IV = OP.exact_interval()
F = catalog_function("power", -0.5)
V = np.ones(N) / math.sqrt(N)
PROBLEM = KroneckerProblem(OP, OP, V, V, F, IV)


def _cli(argv) -> tuple[int, str]:
    """(exit code, stderr) of ``main(argv)``; argparse's exit included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# -- NaN through the old <= / < guards ---------------------------------------


def test_nan_gershgorin_floor_refused():
    with pytest.raises(ValueError, match="floor"):
        spectral_interval(OP, "gershgorin", floor=math.nan)


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_non_finite_toeplitz_scale_refused(scale):
    with pytest.raises(ValueError, match="scale"):
        toeplitz_tridiagonal(N, scale)


def test_nan_scale_on_the_command_line_is_named():
    code, err = _cli(["funv", "--matrix", "tridiag:200:nan", "--function",
                      "inverse", "--ell", "4"])
    assert code == 2 and "scale" in err


@pytest.mark.parametrize("ell", [2.5, 0, -1])
def test_cauchy_type_certificates_check_ell(ell):
    # ell enters these bounds only as an exponent, so without the check a
    # bad count yields a plausible number (ell = 2.5 gives 0.0212).
    f = catalog_function("power", -0.5)
    for bound in (cauchy_bound, kron_cauchy_bound, singular_value_bound):
        with pytest.raises(ValueError, match="ell"):
            bound(f, (1.0, 4.0), ell, 1.0)
    with pytest.raises(ValueError, match="ell"):
        sylvester_residual_bound((1.0, 4.0), ell, 1.0)


def test_nan_kappa_refused():
    with pytest.raises(ValueError, match="kappa"):
        gamma_const(2, math.nan)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_non_finite_shift_refused(eta):
    with pytest.raises(ValueError, match="shift"):
        F.with_shift(eta)


# -- counts the CLI used to take ---------------------------------------------


@pytest.mark.parametrize("ell", ["-1", "0"])
def test_kronfun_custom_poles_refuse_a_count_below_one(tmp_path, ell):
    psi, xi = tmp_path / "psi.txt", tmp_path / "xi.txt"
    write_pole_file(str(psi), [-1.0, -2.0, -3.0, -4.0])
    write_pole_file(str(xi), [1.0, 2.0, 3.0, 4.0])
    code, err = _cli(["kronfun", "--a", f"tridiag:{N}", "--bneg",
                      f"tridiag:{N}", "--function", "inverse", "--poles",
                      f"custom:{psi},{xi}", f"--ell={ell}"])
    assert code == 2 and "--ell" in err


def test_kronfun_rank_zero_names_the_option():
    code, err = _cli(["kronfun", "--a", f"tridiag:{N}", "--bneg",
                      f"tridiag:{N}", "--function", "inverse", "--ell", "3",
                      "--rank", "0"])
    assert code == 2 and "--rank" in err


# -- seeds, factors and storages ---------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_seed_refused(bad):
    v = V.copy()
    v[3] = bad
    with pytest.raises(ValueError, match="seed must be finite"):
        RKDecomposition(OP, v)
    with pytest.raises(ValueError, match="seed must be finite"):
        funv_driver(OP, F, v, IV, strategy="eds-cauchy", tol=1e-8)


def test_seed_with_the_wrong_number_of_rows_refused():
    with pytest.raises(ValueError,
                       match=f"^seed has {N + 1} rows, operator order is {N}$"):
        RKDecomposition(OP, np.ones(N + 1))


def test_overflowing_seed_norm_refused():
    # Finite entries whose norm overflows: numpy warns, the basis refuses.
    with pytest.raises(ValueError, match="seed norm"), \
            pytest.warns(RuntimeWarning, match="overflow"):
        RKDecomposition(OP, np.full(N, 1e200))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        funv_driver(OP, F, V, IV, strategy="extended", tol=tol, max_ell=6)


@pytest.mark.parametrize("strategy", ["zolotarev", "cauchy", "eds-cauchy",
                                      "extended"])
def test_non_integral_ell_refused(strategy):
    with pytest.raises(ValueError, match="ell.*integer"):
        funv_driver(OP, F, V, IV, strategy=strategy, ell=2.5)


def test_non_integral_max_ell_refused():
    with pytest.raises(ValueError, match="max_ell.*integer"):
        funv_driver(OP, F, V, IV, strategy="extended", tol=1e-6, max_ell=2.5)


def test_non_integral_zolotarev_count_refused():
    with pytest.raises(ValueError, match="ell.*integer"):
        zolotarev_poles(IV, 3.5)


def test_nan_kronecker_factor_refused():
    u = V.copy()
    u[0] = math.nan
    with pytest.raises(ValueError, match="u_factor must be finite"):
        KroneckerProblem(OP, OP, u, V, F, IV)


@pytest.mark.parametrize("name", ["u_factor", "v_factor"])
def test_rank_zero_kronecker_factor_refused(name):
    factors = {"u_factor": V, "v_factor": V, name: np.ones((N, 0))}
    with pytest.raises(ValueError, match=f"{name} has no columns"):
        kron_problem(OP, OP, f=F, **factors)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: DenseOperator(np.full((3, 3), math.nan)), id="dense"),
    pytest.param(lambda: DiagonalOperator([1.0, math.nan]), id="diagonal"),
    pytest.param(lambda: TridiagonalOperator([2.0, math.nan], [-1.0]),
                 id="tridiagonal"),
    pytest.param(lambda: BandedOperator([[2.0, 2.0, 2.0], [-1.0, math.nan, 0.0],
                                         [0.5, 0.0, 0.0]]), id="banded"),
])
def test_nan_entry_refused_by_every_storage(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_non_integral_experiment_order_refused():
    with pytest.raises(ValueError, match="field 'n'"):
        ExperimentConfig(experiment="fig-lapl-1d", n=20.5).resolved()


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None, -1, math.nan])
def test_experiment_seed_is_an_integer_at_least_zero(seed, tmp_path):
    # Refused before any work, not inside numpy's default_rng.
    cfg = ExperimentConfig("fig-cauchy-1d", n=16, ell_max=4, seed=seed,
                           outdir=str(tmp_path))
    with pytest.raises(ValueError, match="field 'seed'"):
        run_experiment(cfg)
    assert not any(tmp_path.iterdir())


def test_experiment_seed_reads_any_integer_type():
    cfg = ExperimentConfig("fig-cauchy-1d", seed=np.int64(3)).resolved()
    assert cfg.seed == 3 and type(cfg.seed) is int


# -- every count entry point, fuzzed -----------------------------------------


def _library(call):
    def refusal(x):
        with pytest.raises(ValueError) as exc:
            call(x)
        return str(exc.value)
    return refusal


def _command(argv):
    def refusal(x):
        code, err = _cli([a.format(x=x) for a in argv])
        assert code == 2, err
        return err
    return refusal


_KRONFUN = ["kronfun", "--a", f"tridiag:{N}", "--bneg", f"tridiag:{N}",
            "--function", "inverse"]

# (entry point, the argument name its refusal must carry)
COUNT_ENTRIES = [
    (_library(lambda x: gamma_const(x, 4.0)), "ell"),
    (_library(lambda x: cauchy_bound(F, IV, x, 1.0)), "ell"),
    (_library(lambda x: kron_cauchy_bound(F, IV, x, 1.0)), "ell"),
    (_library(lambda x: singular_value_bound(F, IV, x, 1.0)), "ell"),
    (_library(lambda x: sylvester_residual_bound(IV, x, 1.0)), "ell"),
    (_library(lambda x: zolotarev_poles(IV, x)), "ell"),
    (_library(lambda x: cauchy_poles(IV, x)), "ell"),
    (_library(lambda x: laplace_kron_poles(IV, x)), "ell"),
    (_library(lambda x: cauchy_kron_poles(IV, x)), "ell"),
    *((_library(lambda x, s=s: s.first(IV, x)), "ell")
      for s in STRATEGIES.values()),
    *((_library(lambda x, p=p: p.poles(IV, x)), "ell")
      for p in KRON_PAIRS.values()),
    *((_library(lambda x, s=s: iterates(OP, F, V, s, IV, [x])),
       "pole counts") for s in [*STRATEGIES, [-1.0]]),
    (_library(lambda x: kron_iterates(PROBLEM, KRON_PAIRS["eds-cauchy"],
                                      [x])), "pole counts"),
    (_library(lambda x: funv_driver(OP, F, V, IV, "eds-cauchy", ell=x)),
     "ell"),
    (_library(lambda x: funv_driver(OP, F, V, IV, "zolotarev", tol=1e-6,
                                    max_ell=x)), "max_ell"),
    (_library(lambda x: kron_fun(PROBLEM, [-1.0], [1.0], ell=x)), "ell"),
    (_library(toeplitz_tridiagonal), "n"),
    (_library(lambda x: catalog_function("phi", x)), "phi index"),
    *((_library(lambda x, k=k: ExperimentConfig("fig-lapl-1d", **{k: x})
                .resolved()), k) for k in ("n", "ell_max", "threads")),
    (_command(["funv", "--matrix", f"tridiag:{N}", "--function", "inverse",
               "--ell={x}"]), "--ell"),
    (_command(["funv", "--matrix", "tridiag:{x}", "--function", "inverse",
               "--ell", "2"]), "--matrix"),
    (_command(["kronfun", "--a", f"tridiag:{N}", "--bneg", "diffusion:{x}",
               "--function", "inverse", "--ell", "2"]), "--bneg"),
    (_command(["funv", "--matrix", f"tridiag:{N}", "--function", "inverse",
               "--tol", "1e-6", "--max-ell={x}"]), "--max-ell"),
    (_command([*_KRONFUN, "--ell={x}"]), "--ell"),
    (_command([*_KRONFUN, "--ell", "3", "--rank={x}"]), "--rank"),
    (_command(["poles", "--strategy", "extended", "--out", "/dev/null",
               "--ell={x}"]), "--ell"),
    *((_command(["experiment", "fig-lapl-1d", f"--{opt}={{x}}"]), f"--{opt}")
      for opt in ("n", "ell-max", "threads")),
]

# Every float is refused, 3.0 too: a count is an integer.
BAD_COUNTS = st.one_of(st.integers(max_value=0), st.floats(),
                       st.sampled_from([math.nan, math.inf, -math.inf, 2.5]))


@given(st.sampled_from(COUNT_ENTRIES), BAD_COUNTS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_count_entry_point_refuses_and_names_its_argument(entry, x):
    refusal, name = entry
    assert name in refusal(x)


@given(st.one_of(st.floats(max_value=0.0),
                 st.sampled_from([math.nan, math.inf])))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_tol_refusal_names_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        funv_driver(OP, F, V, IV, strategy="extended", tol=tol)
    code, err = _cli(["funv", "--matrix", f"tridiag:{N}", "--function",
                      "inverse", f"--tol={tol!r}"])
    assert code == 2 and "tol" in err


# -- every interval entry point ----------------------------------------------

PHI = catalog_function("phi", 1)

# Short, long, absent, a string and a bare number; then pairs that are not
# finite, not positive or empty.
BAD_INTERVALS = [[0.5], (1.0, 2.0, 3.0), None, "12", 1.0, (math.nan, 1.0),
                 (0.0, 1.0), (2.0, 1.0), (1.0, math.inf), (-1.0, 2.0)]


def _entry(call, name, intervals=BAD_INTERVALS):
    return pytest.param(call, intervals, id=name)


INTERVAL_ENTRIES = [
    _entry(lambda iv: zolotarev_poles(iv, 3), "zolotarev_poles"),
    _entry(lambda iv: cauchy_poles(iv, 3), "cauchy_poles"),
    _entry(lambda iv: laplace_kron_poles(iv, 3), "laplace_kron_poles"),
    _entry(lambda iv: cauchy_kron_poles(iv, 3), "cauchy_kron_poles"),
    *(_entry(lambda iv, v=v: next(eds_pole_iter(iv, v)), f"eds_pole_iter-{v}")
      for v in ("laplace", "cauchy", "kron-cauchy")),
    _entry(mobius_cauchy, "mobius_cauchy"),
    _entry(mobius_kron, "mobius_kron"),
    *(_entry(lambda iv, b=b, f=f: b(f, iv, 3, 1.0), f"{b.__name__}-{f.family}")
      for b in (laplace_bound, cauchy_bound, kron_laplace_bound,
                kron_cauchy_bound, singular_value_bound)
      for f in (F, PHI)),
    _entry(lambda iv: sylvester_residual_bound(iv, 3, 1.0),
           "sylvester_residual_bound"),
    *(_entry(lambda iv, s=s: funv_driver(OP, F, V, iv, s, ell=2),
             f"funv_driver-{s}") for s in ("zolotarev", "extended")),
    _entry(lambda iv: emit_bounds(STRATEGIES["cauchy"].bound, F, iv, [1, 2],
                                  1.0), "emit_bounds"),
    _entry(lambda iv: KroneckerProblem(OP, OP, V, V, F, iv), "KroneckerProblem"),
    # kron_problem reads interval=None as the hull of both spectra.
    _entry(lambda iv: kron_problem(OP, OP, V, V, F, iv), "kron_problem",
           [iv for iv in BAD_INTERVALS if iv is not None]),
    _entry(lambda iv: zolotarev_ratio([-2.0], iv), "zolotarev_ratio"),
    *(_entry(lambda iv, s=s: s.first(iv, 3), f"first-{s.name}")
      for s in STRATEGIES.values() if s.needs_interval),
    *(_entry(lambda iv, p=p: p.poles(iv, 3), f"poles-{p.name}")
      for p in KRON_PAIRS.values() if p.needs_interval),
]


@pytest.mark.parametrize("entry, intervals", INTERVAL_ENTRIES)
def test_every_interval_entry_point_refuses_a_malformed_interval(entry,
                                                                 intervals):
    for iv in intervals:
        with pytest.raises(ValueError, match="interval"):
            entry(iv)


@pytest.mark.parametrize("lower, upper", [("a", 2), (None, 2), (1, [2])])
def test_spectral_interval_refuses_endpoints_that_are_not_reals(lower, upper):
    with pytest.raises(ValueError, match="interval endpoints must be reals"):
        SpectralInterval(lower, upper)


def test_spectral_interval_stores_float_endpoints():
    iv = SpectralInterval(1, 2)
    assert type(iv.lower) is float and type(iv.upper) is float


def test_kronecker_problem_takes_a_pair_like_funv_driver():
    assert KroneckerProblem(OP, OP, V, V, F, tuple(IV)).interval == IV


def test_kron_fun_refuses_an_empty_pole_list():
    with pytest.raises(ValueError, match="pole counts must be >= 1"):
        kron_fun(PROBLEM, [], [])


# -- shapes are read, never guessed ------------------------------------------


@pytest.mark.parametrize("build, shape", [
    pytest.param(lambda: DiagonalOperator(np.ones((2, 2))), "(1, 2, 2)",
                 id="diagonal-2d"),
    pytest.param(lambda: DiagonalOperator(3.0), "(1,)", id="diagonal-scalar"),
    pytest.param(lambda: TridiagonalOperator(np.ones((2, 2)), [-1.0]),
                 "(2, 2)", id="tridiagonal-2d-d"),
    pytest.param(lambda: TridiagonalOperator([2.0, 2.0], [[-1.0]]), "(1, 1)",
                 id="tridiagonal-2d-e"),
])
def test_storage_refuses_a_shape_it_would_have_flattened(build, shape):
    with pytest.raises(ValueError, match=re.escape(shape)):
        build()


def test_oracle_is_read_in_the_seed_block_shape():
    # (n,) and (n, 1) are the same block; a row would broadcast to n x n
    # and a wrong length would fail only after the basis is built.
    op = toeplitz_tridiagonal(200)
    v = np.random.default_rng(7).standard_normal(200)
    iv = op.exact_interval()
    ref = oracle_funv(op, F, v)
    errs = [funv_driver(op, F, v, iv, "cauchy", ell=12,
                        oracle=o).trace[0].true_error
            for o in (ref, ref[:, None])]
    assert errs[0] == errs[1] < 1e-6
    for bad in (ref[None, :], ref[:-1], ref[:, None, None]):
        with pytest.raises(ValueError, match="oracle has shape"):
            funv_driver(op, F, v, iv, "cauchy", ell=12, oracle=bad)
    # A non-finite oracle would read true_error nan without a word.
    for value in (np.nan, np.inf):
        bad = ref.copy()
        bad[3] = value
        with pytest.raises(ValueError, match="oracle must be finite"):
            funv_driver(op, F, v, iv, "cauchy", ell=12, oracle=bad)


def test_kronecker_row_factor_is_not_transposed():
    with pytest.raises(ValueError, match="u_factor rows must match the left"):
        KroneckerProblem(OP, OP, V[None, :], V, F, IV)


def test_kronfun_reads_a_one_line_text_factor_as_a_column(tmp_path):
    # The library takes a (1, n) array as one row; the CLI's text reader
    # still reads a file of one line as one column.
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(20), rng.standard_normal(20)
    outs = []
    for layout in ("row", "column"):
        paths = [tmp_path / f"{name}-{layout}.txt" for name in "uv"]
        for path, x in zip(paths, (u, v)):
            np.savetxt(path, x[None, :] if layout == "row" else x[:, None])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["kronfun", "--a", "tridiag:20", "--bneg", "tridiag:20",
                         "--function", "inverse", "--ell", "3",
                         "--ufile", str(paths[0]), "--vfile", str(paths[1])])
        assert code == 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1]


# -- one reading of a pole ---------------------------------------------------


def test_complex_typed_infinite_pole_is_a_polynomial_step():
    # read_pole_file returns a complex array when one pole is complex, so an
    # inf among them arrives complex-typed.
    poles = np.array([math.inf, -1.0], dtype=complex)
    report = exactness_check(OP, V, poles)
    assert report.max_rel_err <= 1e-12
    assert report.members == exactness_check(OP, V, [math.inf, -1.0]).members


# -- pole lists: read whole by operators.as_poles before any work -------------


# A NaN pole list and the index of its NaN.
NAN_POLE_LISTS = {
    "nan": ([math.nan, -1.0, math.inf], 0),
    "complex-nan-part": ([-1.0, complex(-2.0, math.nan), math.inf], 1),
    "nan-last": ([-1.0, math.inf, -2.0, math.nan], 3),
}

# Every entry point that takes a pole list, called with ``poles`` and a
# temporary file path, and the name its refusal gives the list (the path for
# ``write_pole_file``).
POLE_LIST_ENTRIES = {
    "rk_build": (lambda poles, path: rk_build(OP, V, poles), "poles"),
    "RKDecomposition.extend": (
        lambda poles, path: RKDecomposition(OP, V).extend(poles), "poles"),
    "build_together": (lambda poles, path: build_together(
        [(OP, V), (OP, np.arange(1.0, N + 1))], poles), "poles"),
    "kron_fun-left": (lambda poles, path: kron_fun(
        PROBLEM, poles, [1.0] * len(poles)), "left_poles"),
    "kron_fun-right": (lambda poles, path: kron_fun(
        PROBLEM, [-1.0] * len(poles), poles), "right_poles"),
    "exactness_check": (lambda poles, path: exactness_check(OP, V, poles),
                        "poles"),
    "funv_driver": (lambda poles, path: funv_driver(
        OP, F, V, IV, strategy=poles, ell=len(poles)), "strategy"),
    "zolotarev_ratio": (lambda poles, path: zolotarev_ratio(poles, IV),
                        "poles"),
    "write_pole_file": (lambda poles, path: write_pole_file(path, poles),
                        None),
}


@pytest.mark.parametrize("entry", POLE_LIST_ENTRIES)
@pytest.mark.parametrize("case", NAN_POLE_LISTS)
def test_every_pole_list_entry_point_refuses_nan_by_index(entry, case,
                                                          tmp_path,
                                                          monkeypatch):
    poles, index = NAN_POLE_LISTS[case]
    call, name = POLE_LIST_ENTRIES[entry]
    path = str(tmp_path / "poles.txt")
    factored = []
    factor = TridiagonalOperator._factor
    monkeypatch.setattr(OP, "_last_factor", None)  # every shift would factor
    monkeypatch.setattr(TridiagonalOperator, "_factor",
                        lambda op, sigma: factored.append(sigma)
                        or factor(op, sigma))
    with pytest.raises(ValueError) as exc:
        call(poles, path)
    assert str(exc.value) == f"{name or path}: pole {index} is NaN"
    assert factored == []
    assert not (tmp_path / "poles.txt").exists()


@pytest.mark.parametrize("sigma", [math.nan, complex(-1.0, math.nan)])
def test_a_nan_shift_is_refused_by_name(sigma):
    with pytest.raises(ValueError, match="^sigma is NaN$"):
        OP.shifted_solve(sigma, V)


@pytest.mark.parametrize("case", NAN_POLE_LISTS)
def test_refused_extend_leaves_the_decomposition_unchanged(case):
    dec = rk_build(OP, V, [-1.0, math.inf])
    basis, h = dec.basis.copy(), dec.reduced_matrix()
    with pytest.raises(ValueError, match="is NaN"):
        dec.extend(NAN_POLE_LISTS[case][0])
    assert dec.dim == 3 and dec.poles_used == [-1.0, math.inf]
    np.testing.assert_array_equal(dec.basis, basis)
    np.testing.assert_array_equal(dec.reduced_matrix(), h)
    dec.extend([-2.0])  # and it still grows
    assert dec.dim == 4
