import csv
import itertools
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
    first_at_or_below,
    fixture_1d,
    fixture_2d,
    run_experiment,
    solutions_1d,
    timed_sweep,
    write_csv,
)
from rkstieltjes.functions import catalog_function
from rkstieltjes.kronfun import KroneckerProblem, dense_kron_solution, kron_fun
from rkstieltjes.operators import (
    oracle_funv,
    spectral_interval,
    toeplitz_tridiagonal,
)
from rkstieltjes.rk import RKDecomposition
from rkstieltjes.poles import laplace_kron_poles
from rkstieltjes.strategies import KRON_PAIRS, STRATEGIES


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


# id -> (default n, default ell_max)
_DEFAULTS = {
    "fig-lapl-1d": (2000, 40),
    "fig-cauchy-1d": (2000, 40),
    "fig-cauchy-1d-eig": (2000, 40),
    "fig-cauchy-1d-funcs": (2000, 40),
    "table-times": (100_000, 220),
    "fig-lapl-2d": (300, 25),
    "fig-cauchy-2d": (300, 25),
}


def _expected_header(name):
    for suffix, header in (
            ("-singvals.csv", ["index", "sigma"]),
            ("-singval-bounds.csv", ["ell", "sigma_1_plus_ell_k", "bound"]),
            ("-bound.csv", ["ell", "bound"]),
            ("-summary.csv",
             ["tolerance", "strategy", "iterations", "seconds"])):
        if name.endswith(suffix):
            return header
    return ["ell", "true_error", "bound"]


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_every_experiment_at_toy_size(experiment, tmp_path):
    cfg = ExperimentConfig(experiment).resolved()
    assert (cfg.n, cfg.ell_max) == _DEFAULTS[experiment]
    n = 200 if experiment == "table-times" else 40
    paths = run_experiment(ExperimentConfig(
        experiment, n=n, ell_max=4, outdir=str(tmp_path), gnuplot=True))
    assert sorted(paths) == sorted(str(p) for p in tmp_path.iterdir())
    for path in paths:
        name = os.path.basename(path)
        if name.endswith(".gp"):
            assert (tmp_path / name).read_text().startswith("set datafile")
            continue
        header, rows = _read_csv(path)
        assert header == _expected_header(name), name
        assert rows, name


# Labels whose bound column is the panel's certified curve.
_CERTIFIED = ("zolotarev", "cauchy", "eds-laplace", "eds-cauchy", "canonical")


@pytest.mark.parametrize(
    "experiment", [e for e in EXPERIMENT_IDS if e != "table-times"])
def test_certified_bound_columns_equal_the_bound_curve(experiment, tmp_path):
    paths = run_experiment(ExperimentConfig(
        experiment, n=40, ell_max=4, outdir=str(tmp_path)))
    stems = [p[:-len("-bound.csv")] for p in paths if p.endswith("-bound.csv")]
    assert stems
    for stem in stems:
        _, curve = _read_csv(f"{stem}-bound.csv")
        assert len(curve) == 4
        certified = [f"{stem}-{label}.csv" for label in _CERTIFIED
                     if f"{stem}-{label}.csv" in paths]
        assert len(certified) == (1 if experiment.endswith("2d") else 2)
        for path in certified:
            _, rows = _read_csv(path)
            assert [[ell, bound] for ell, _, bound in rows] == curve, path


@pytest.mark.parametrize("experiment", ["fig-cauchy-1d", "fig-cauchy-2d"])
def test_thread_count_leaves_every_file_unchanged(experiment, tmp_path):
    files = []
    for threads in (1, 2):
        paths = run_experiment(ExperimentConfig(
            experiment, n=40, ell_max=4, outdir=str(tmp_path / str(threads)),
            gnuplot=True, threads=threads))
        files.append({os.path.basename(p): open(p, "rb").read()
                      for p in paths})
    assert files[0] == files[1]


class TestFixtures:
    def test_1d_fixture(self):
        op = diffusion_operator(60)
        f = catalog_function("phi", 1)
        v, iv, oracle = fixture_1d(op, f, 5)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        assert iv == op.exact_interval()
        np.testing.assert_array_equal(oracle, oracle_funv(op, f, v))
        v2, _, _ = fixture_1d(op, f, 5)
        np.testing.assert_array_equal(v, v2)

    def test_2d_fixture(self):
        op = toeplitz_tridiagonal(50, 1.0)
        f = catalog_function("power", -0.5)
        prob, x_ref = fixture_2d(op, f, 11)
        np.testing.assert_array_equal(x_ref, dense_kron_solution(prob))
        # Same numbers as drawing each factor as an (n, 1) block.
        rng = np.random.default_rng(11)
        for factor in (prob.u_factor, prob.v_factor):
            g = rng.standard_normal((50, 1))
            np.testing.assert_array_equal(factor, g / np.linalg.norm(g))
        assert prob.interval == op.exact_interval()

    def test_timed_sweep_is_lazy(self, monkeypatch):
        calls = []
        extend = RKDecomposition.extend

        def counting(self, poles):
            calls.append(len(poles))
            return extend(self, poles)

        monkeypatch.setattr(RKDecomposition, "extend", counting)
        op = toeplitz_tridiagonal(200, 1.0)
        f = catalog_function("power", -0.5)
        v, iv, oracle = fixture_1d(op, f, 0)
        rows = list(itertools.islice(
            timed_sweep(solutions_1d(op, f, v, iv, "eds-cauchy", 50), oracle),
            3))
        assert len(calls) == 3
        assert [ell for ell, _, _ in rows] == [1, 2, 3]
        seconds = [sec for _, _, sec in rows]
        assert seconds == sorted(seconds)

    def test_first_at_or_below_reads_only_that_far(self):
        read = []

        def curve():
            for row in [(1, 4.0, 0.1), (2, 1.0, 0.2), (3, 0.5, 0.3)]:
                read.append(row[0])
                yield row

        assert first_at_or_below(curve(), 0.5, 2.0) == (2, 1.0, 0.2)
        assert read == [1, 2]
        assert first_at_or_below(curve(), 0.1, 2.0) is None


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
        for bound in (STRATEGIES["zolotarev"].bound,
                      KRON_PAIRS["laplace-kron"].bound):
            with pytest.raises(ValueError, match="shift"):
                emit_bounds(bound, f, (0.5, 4.0), [1, 2, 3], norm=1.0)

    def test_shift_gives_finite_decreasing(self):
        f = catalog_function("power", -0.5)
        rows = emit_bounds(STRATEGIES["zolotarev"].bound, f, (0.5, 4.0),
                           list(range(1, 9)), norm=1.0, shift=0.25)
        assert [e for e, _ in rows] == list(range(1, 9))
        arr = np.asarray([b for _, b in rows])
        assert np.all(np.isfinite(arr))
        assert np.all(np.diff(arr) < 0.0)
        # the curve of f(. + eta) on [a - eta, b - eta]
        assert rows[2][1] == STRATEGIES["zolotarev"].bound(
            f.with_shift(0.25), (0.25, 3.75), 3, 1.0)

    def test_cauchy_mode_finite_without_shift(self):
        f = catalog_function("power", -0.5)  # f(a) finite for a > 0
        rows = emit_bounds(STRATEGIES["cauchy"].bound, f, (0.5, 4.0),
                           [1, 4, 7], norm=2.0)
        assert all(math.isfinite(b) and b > 0 for _, b in rows)

    def test_uncertified_curve_is_nan_not_refused(self):
        f = catalog_function("power", -0.5)
        rows = emit_bounds(STRATEGIES["extended"].bound, f, (0.5, 4.0),
                           [1, 2], norm=1.0)
        assert all(math.isnan(b) for _, b in rows)


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


def test_eig_experiment_refuses_a_size_below_its_clusters(tmp_path, capsys):
    # The gapped spectrum puts 20 points in its low cluster, so n <= 20
    # cannot be built; refused before anything is written.
    cfg = ExperimentConfig("fig-cauchy-1d-eig", n=16, outdir=str(tmp_path))
    with pytest.raises(ValueError, match="fig-cauchy-1d-eig needs n >= 21"):
        run_experiment(cfg)
    assert os.listdir(tmp_path) == []
    assert cli.main(["experiment", "fig-cauchy-1d-eig", "--n", "16",
                     "--outdir", str(tmp_path)]) == 2
    assert "needs n >= 21" in capsys.readouterr().err
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
            canonical = rel_err(list(psi), list(xi))
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
