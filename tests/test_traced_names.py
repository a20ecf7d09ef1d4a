"""The benchmark tracer in ``perfbench/tracer.py`` patches library names in
place and silently skips any that a refactor removed; these tests make such
a removal fail here instead, and a refactor that routes a request around a
wrapped name too."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rkstieltjes
from rkstieltjes import kronfun, rk
from rkstieltjes.functions import catalog_function
from rkstieltjes.operators import toeplitz_tridiagonal
from rkstieltjes.strategies import KRON_PAIRS

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("mod_name, owner_name, attr, layer", _tracer().WRAPPED)
def test_traced_name_exists_where_the_tracer_looks(mod_name, owner_name, attr, layer):
    module = importlib.import_module(f"rkstieltjes.{mod_name}")
    owner = module if owner_name is None else getattr(module, owner_name)
    assert attr in vars(owner), f"{layer}: {mod_name}.{owner_name or ''}.{attr} is gone"


def test_requests_pass_through_every_traced_layer():
    # One request of each kind the benchmark's layer split reads: the
    # layers below must see calls, or their time moves into another.  The
    # requests look up rk's and kronfun's names at call time, as the
    # benchmark does, so the tracer's patches apply.
    op = toeplitz_tridiagonal(200)
    iv = op.exact_interval()
    rng = np.random.default_rng(0)
    v = rng.standard_normal(op.n)
    u, w = rng.standard_normal((op.n, 2)), rng.standard_normal((op.n, 2))
    phi, inverse = catalog_function("phi", 1), catalog_function("inverse")
    tracer = _tracer().Tracer(rkstieltjes)
    tracer.install()
    try:
        for strategy in ("zolotarev", "eds-cauchy", "extended"):
            rk.funv_driver(op, phi, v, iv, strategy, tol=1e-8)
        funv = tracer.calls.copy()
        problem = kronfun.kron_problem(op, op, u, w, inverse, interval=iv)
        res = kronfun.kron_fun(problem, *KRON_PAIRS["cauchy-kron"].poles(iv, 8))
        kronfun.sylvester_residual(problem, res)
    finally:
        tracer.uninstall()
    kron = tracer.calls - funv
    for calls, layers in (
            (funv, ("rk.extend", "rk.driver", "poles.fixed", "poles.eds",
                    "bounds", "operators.shifted_solve", "operators.matvec",
                    "functions.eval")),
            (kron, ("rk.extend", "operators.shifted_solve", "kronfun.kron_fun",
                    "kronfun.funm_diag", "kronfun.residual", "functions.eval"))):
        for layer in layers:
            assert calls[layer] > 0, f"no call reached {layer}"
