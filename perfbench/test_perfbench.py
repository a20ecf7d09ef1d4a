"""Self-test of the benchmark at toy sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _toy(workload: str, trace: bool) -> dict:
    return run.run(workload, seed=3, seconds=0.2, trace=trace, root=ROOT,
                   size="toy", repeats=1)


@pytest.fixture(scope="module", params=sorted(workloads.BUILDERS))
def pair(request):
    """An untraced and a traced toy run of one workload, same seed."""
    return _toy(request.param, False), _toy(request.param, True)


def _emitted(summary: dict) -> dict:
    line = run.result_json(summary)
    out = json.loads(line)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def test_every_metric_emitted_with_unit(pair):
    plain, traced = pair
    for summary, key in ((plain, "end_to_end"), (traced, "per_layer")):
        metrics = _emitted(summary)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in metrics.items()} == want
        assert all(np.isfinite(v["value"]) for v in metrics.values())


def test_traced_run_matches_untraced(pair):
    plain, traced = pair
    assert traced["per_layer"]["ell.p50"][0] == plain["ell.p50"]
    assert traced["rel_error.max"] == plain["rel_error.max"]
    assert traced["absent"] == []


def test_layers_stay_on_their_workloads(pair):
    plain, traced = pair
    calls = traced["per_layer"]["kronfun.kron_fun.calls"][0]
    assert (calls > 0) == (plain["workload"] == "kron-2d")
    assert traced["per_layer"]["trace.coverage_frac"][0] >= 0.95


def _lib():
    return run.load_library(ROOT)


def test_gate_rejects_perturbed_funv_result():
    lib = _lib()
    op = lib.operators.toeplitz_tridiagonal(300)
    fx = workloads.FunvFixture(op, lib.functions.catalog_function("power", -0.5),
                               lib.operators.spectral_interval(op))
    oracle = workloads._funv_oracle(lib, fx)
    v = np.random.default_rng(0).standard_normal(op.n)
    req = workloads.funv_request(lib, tracing.Untraced(), fx, oracle, v,
                                 "cauchy", tol=1e-8)
    res = req.solve()
    assert req.check(res).ok
    for bad in (res.x * (1.0 + 1e-3), np.full_like(res.x, np.nan)):
        res_bad = type(res)(x=bad, trace=res.trace, converged=res.converged,
                            strategy=res.strategy, poles_used=res.poles_used)
        assert not req.check(res_bad).ok


def _kron_setup():
    lib = _lib()
    wl = workloads.build("kron-2d", lib, "toy", "")
    fx = wl.setup()
    return lib, fx, wl.prepare(fx)["oracle"]


def test_gate_rejects_perturbed_kron_result():
    lib, fx, oracle = _kron_setup()
    rng = np.random.default_rng(0)
    n = fx["ops"]["toeplitz"].n
    for cls in workloads.KRON_CLASSES:
        u, v = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        req = workloads.kron_request(lib, tracing.Untraced(), fx, oracle, cls, 15, u, v)
        problem, res, resid, bound = req.solve()
        assert req.check((problem, res, resid, bound)).ok, cls.label
        bad = type(res)(left=res.left, right=res.right, core=res.core * 1.01,
                        poles_left=res.poles_left, poles_right=res.poles_right)
        if resid is None:
            assert not req.check((problem, bad, None, None)).ok, cls.label
        else:
            assert not req.check((problem, res, 2.0 * bound, bound)).ok


def test_kron_oracle_matches_dense_kron_solution():
    lib, fx, oracle = _kron_setup()
    op, iv = fx["ops"]["toeplitz"], fx["ivs"]["toeplitz"]
    rng = np.random.default_rng(1)
    problem = lib.kronfun.kron_problem(op, op, rng.standard_normal((op.n, 2)),
                                       rng.standard_normal((op.n, 2)),
                                       fx["funcs"]["power"], interval=iv)
    psi, xi = lib.poles.cauchy_kron_poles(iv, 12)
    res = lib.kronfun.kron_fun(problem, psi, xi)
    exact = lib.kronfun.dense_kron_solution(problem)
    want = np.linalg.norm(res.materialize() - exact) / np.linalg.norm(exact)
    assert oracle.rel_error(problem, res) == pytest.approx(want, rel=1e-6)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kron-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
