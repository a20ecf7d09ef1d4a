import csv
import math
import os

import numpy as np
import pytest

from rkstieltjes import cli
from rkstieltjes.experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    _kron_pole_pair,
    _kron_pair_for,
    diffusion_operator,
    emit_bounds,
    run_experiment,
    write_csv,
)
from rkstieltjes.functions import catalog_function
from rkstieltjes.kronfun import KroneckerProblem, dense_kron_solution, kron_fun
from rkstieltjes.operators import spectral_interval
from rkstieltjes.poles import laplace_kron_poles
from rkstieltjes.strategies import KRON_PAIRS


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_experiment_ids_frozen():
    assert "fig-lapl-1d" in EXPERIMENT_IDS
    assert "table-times" in EXPERIMENT_IDS
    assert len(EXPERIMENT_IDS) == 7


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="experiment"):
            ExperimentConfig(experiment="fig-unknown").resolved()

    def test_bad_n(self):
        with pytest.raises(ValueError, match="n"):
            ExperimentConfig(experiment="fig-lapl-1d", n=0).resolved()

    def test_bad_ell(self):
        with pytest.raises(ValueError, match="ell_max"):
            ExperimentConfig(experiment="fig-lapl-1d", ell_max=-3).resolved()

    def test_bad_threads(self):
        with pytest.raises(ValueError, match="threads"):
            ExperimentConfig(experiment="fig-lapl-1d", threads=0).resolved()

    def test_defaults_fill_in(self):
        cfg = ExperimentConfig(experiment="fig-lapl-1d").resolved()
        assert cfg.n is not None and cfg.n > 0
        assert cfg.ell_max is not None and cfg.ell_max > 0


class TestDiffusionOperator:
    def test_left_endpoint_tracks_continuum(self):
        # eps*dt*pi^2 with the mesh factor; nearly n-independent
        for n in (50, 200):
            op = diffusion_operator(n)
            iv = spectral_interval(op, mode="exact-small")
            assert iv.lower == pytest.approx(1e-2 * 0.1 * math.pi ** 2,
                                             rel=2e-3)


class TestEmitBounds:
    def test_infinite_anchor_raises(self):
        f = catalog_function("power", -0.5)
        with pytest.raises(ValueError, match="shift"):
            emit_bounds(f, (0.5, 4.0), [1, 2, 3], norm=1.0, mode="laplace-1d")

    def test_shift_gives_finite_decreasing(self):
        f = catalog_function("power", -0.5)
        rows = emit_bounds(f, (0.5, 4.0), list(range(1, 9)), norm=1.0,
                           mode="laplace-1d", shift=0.25)
        assert [e for e, _ in rows] == list(range(1, 9))
        arr = np.asarray([b for _, b in rows])
        assert np.all(np.isfinite(arr))
        assert np.all(np.diff(arr) < 0.0)

    def test_cauchy_mode_finite_without_shift(self):
        f = catalog_function("power", -0.5)  # f(a) finite for a > 0
        rows = emit_bounds(f, (0.5, 4.0), [1, 4, 7], norm=2.0, mode="cauchy-1d")
        assert all(math.isfinite(b) and b > 0 for _, b in rows)

    def test_writes_csv(self, tmp_path):
        f = catalog_function("phi", 1)
        out = tmp_path / "bounds.csv"
        emit_bounds(f, (0.5, 4.0), [1, 2, 3], norm=1.0, mode="laplace-1d",
                    out_path=str(out))
        header, rows = _read_csv(str(out))
        assert header == ["ell", "bound"]
        assert len(rows) == 3
        assert int(rows[0][0]) == 1

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            emit_bounds(catalog_function("phi", 1), (0.5, 4.0), [1],
                        norm=1.0, mode="fourier")


class TestRunExperiment:
    def test_lapl_1d_artifacts_and_schema(self, tmp_path):
        cfg = ExperimentConfig(experiment="fig-lapl-1d", n=120, ell_max=6,
                               outdir=str(tmp_path))
        run_experiment(cfg)
        made = sorted(os.listdir(tmp_path))
        assert any(name.endswith("-bound.csv") for name in made)
        traces = [m for m in made if m.endswith(".csv")
                  and not m.endswith("-bound.csv")]
        assert traces
        header, rows = _read_csv(str(tmp_path / traces[0]))
        assert header == ["ell", "true_error", "bound"]
        assert len(rows) == 6
        for r in rows:
            assert float(r[1]) <= float(r[2]) * (1 + 1e-12)

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            out.mkdir()
            run_experiment(ExperimentConfig(experiment="fig-cauchy-1d",
                                            n=100, ell_max=5, seed=42,
                                            outdir=str(out)))
        for name in sorted(os.listdir(out1)):
            if not name.endswith(".csv"):
                continue
            _, rows1 = _read_csv(str(out1 / name))
            _, rows2 = _read_csv(str(out2 / name))
            assert rows1 == rows2, name

    def test_seed_changes_errors(self, tmp_path):
        outs = []
        for i, seed in enumerate((1, 2)):
            out = tmp_path / f"s{i}"
            out.mkdir()
            run_experiment(ExperimentConfig(experiment="fig-cauchy-1d",
                                            n=100, ell_max=4, seed=seed,
                                            outdir=str(out)))
            outs.append(out)
        name = next(m for m in sorted(os.listdir(outs[0]))
                    if m.endswith(".csv") and not m.endswith("-bound.csv"))
        _, rows1 = _read_csv(str(outs[0] / name))
        _, rows2 = _read_csv(str(outs[1] / name))
        err1 = [float(r[1]) for r in rows1]
        err2 = [float(r[1]) for r in rows2]
        assert err1 != err2

    def test_gnuplot_scripts(self, tmp_path):
        cfg = ExperimentConfig(experiment="fig-lapl-1d", n=80, ell_max=4,
                               outdir=str(tmp_path), gnuplot=True)
        run_experiment(cfg)
        gps = [m for m in os.listdir(tmp_path) if m.endswith(".gp")]
        assert gps
        text = (tmp_path / gps[0]).read_text()
        assert "logscale" in text

    def test_kron_experiment_small(self, tmp_path):
        cfg = ExperimentConfig(experiment="fig-cauchy-2d", n=40, ell_max=4,
                               outdir=str(tmp_path))
        run_experiment(cfg)
        made = sorted(os.listdir(tmp_path))
        assert any("singval" in m for m in made)
        name = next(m for m in made if m.endswith(".csv")
                    and "singval" not in m and not m.endswith("-bound.csv"))
        header, rows = _read_csv(str(tmp_path / name))
        assert header[0] == "ell"
        assert len(rows) == 4

    def test_no_partial_files_on_error(self, tmp_path):
        # invalid config must fail before any artifact lands in outdir
        cfg = ExperimentConfig(experiment="fig-lapl-1d", n=-5,
                               outdir=str(tmp_path))
        with pytest.raises(ValueError):
            run_experiment(cfg)
        assert os.listdir(tmp_path) == []


def test_csv_writer_keeps_old_file_when_a_row_fails(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(str(out), ("ell", "bound"), [(1, 0.5)])
    with pytest.raises(TypeError):
        write_csv(str(out), ("ell", "bound"), [(1, 0.25), (2, object())])
    assert out.read_text() == "ell,bound\n1,0.5\n"
    assert os.listdir(tmp_path) == ["t.csv"]


class TestKronPolePairs:
    def test_eds_laplace_pair_tracks_canonical(self):
        # The right space is built on -B, so the EDS Laplace pair must
        # negate its right poles like laplace_kron_poles does.
        n = 100
        op = diffusion_operator(n)
        f = catalog_function("phi", 1)
        iv = op.exact_interval()
        rng = np.random.default_rng(0)
        prob = KroneckerProblem(op, op, rng.standard_normal((n, 2)),
                                rng.standard_normal((n, 2)), f, iv)
        ref = dense_kron_solution(prob)

        def rel_err(psi, xi):
            x = kron_fun(prob, psi, xi).materialize()
            return np.linalg.norm(x - ref) / np.linalg.norm(ref)

        for ell in (5, 10, 15):
            psi, xi = laplace_kron_poles(iv, ell)
            canonical = rel_err(list(psi.poles), list(xi.poles))
            eds = rel_err(*_kron_pole_pair("laplace", "eds", iv, ell))
            assert eds <= 10.0 * canonical, (ell, eds, canonical)

    @pytest.mark.parametrize("variant", ["laplace", "cauchy"])
    def test_cli_eds_pair_matches_experiments(self, variant):
        # `kronfun --poles eds-<variant>` looks its pair up in KRON_PAIRS.
        iv = diffusion_operator(50).exact_interval()
        pair = KRON_PAIRS[f"eds-{variant}"]
        assert cli.KRON_PAIRS is KRON_PAIRS
        assert _kron_pair_for(variant, "eds") is pair
        assert _kron_pole_pair(variant, "eds", iv, 6) == pair.poles(iv, 6)
