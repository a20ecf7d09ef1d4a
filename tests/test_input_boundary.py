"""The input boundary: every count goes through ``operators.count`` and
every outside array through ``operators.finite``, so a bad count or a
non-finite entry is refused with a ValueError (CLI: exit 2) that names the
argument, before any work is done."""
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkstieltjes.bounds import (
    cauchy_bound,
    kron_cauchy_bound,
    singular_value_bound,
    sylvester_residual_bound,
)
from rkstieltjes.cli import main
from rkstieltjes.experiments import ExperimentConfig
from rkstieltjes.functions import catalog_function
from rkstieltjes.kronfun import (KroneckerProblem, kron_fun, kron_iterates,
                                 kron_problem)
from rkstieltjes.operators import (
    BandedOperator,
    DenseOperator,
    DiagonalOperator,
    SpectralInterval,
    TridiagonalOperator,
    spectral_interval,
    toeplitz_tridiagonal,
)
from rkstieltjes.poles import (
    cauchy_kron_poles,
    cauchy_poles,
    eds_poles,
    extended_poles,
    gamma_const,
    laplace_kron_poles,
    polynomial_poles,
    write_pole_file,
    zolotarev_poles,
)
from rkstieltjes.rk import RKDecomposition, funv_driver, iterates
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
    (_library(lambda x: eds_poles(IV, x, "laplace")), "ell"),
    (_library(extended_poles), "ell"),
    (_library(polynomial_poles), "ell"),
    *((_library(lambda x, s=s: s.first(IV, x)), "ell")
      for s in STRATEGIES.values()),
    *((_library(lambda x, p=p: p.poles(IV, x)), "ell")
      for p in KRON_PAIRS.values()),
    *((_library(lambda x, s=s: iterates(OP, F, V, s, IV, [x],
                                        custom_poles=[-1.0])),
       "pole counts") for s in STRATEGIES),
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
