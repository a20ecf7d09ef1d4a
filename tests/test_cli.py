"""End-to-end command coverage through main(argv)."""
import csv
import math

import numpy as np
import pytest

from rkstieltjes.cli import main
from rkstieltjes.poles import read_pole_file
from rkstieltjes.strategies import KRON_PAIRS, STRATEGIES


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestFunv:
    def test_ell_mode_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(["funv", "--matrix", "tridiag:80", "--function", "inverse",
                   "--poles", "zolotarev", "--ell", "8", "--oracle", "on",
                   "--out", str(out)])
        assert rc == 0
        header, rows = _read_csv(str(out))
        assert header == ["ell", "est_error", "true_error", "bound"]
        assert int(rows[-1][0]) == 8
        last = rows[-1]
        assert float(last[2]) <= float(last[3])

    def test_tol_mode_converges(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["funv", "--matrix", "tridiag:60", "--function", "phi:1",
                   "--poles", "eds-laplace", "--tol", "1e-6",
                   "--out", str(out)])
        assert rc == 0

    def test_tol_mode_failure_exit_code(self):
        # polynomial poles cannot reach 1e-12 in 3 steps
        rc = main(["funv", "--matrix", "tridiag:60", "--function",
                   "power:-0.5", "--poles", "polynomial", "--tol", "1e-12",
                   "--max-ell", "3"])
        assert rc != 0

    def test_shift_enables_bound(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["funv", "--matrix", "diffusion:64", "--function",
                   "lambertw", "--poles", "zolotarev", "--ell", "6",
                   "--shift", "0.004", "--out", str(out)])
        assert rc == 0
        _, rows = _read_csv(str(out))
        assert all(math.isfinite(float(r[3])) for r in rows)

    def test_vector_file(self, tmp_path):
        vec = tmp_path / "v.txt"
        np.savetxt(vec, np.ones(30))
        rc = main(["funv", "--matrix", "tridiag:30", "--function", "inverse",
                   "--poles", "extended", "--ell", "6", "--vector", str(vec)])
        assert rc == 0

    def test_rejects_tol_and_ell(self, capsys):
        with pytest.raises(SystemExit):
            main(["funv", "--matrix", "tridiag:30", "--function", "inverse",
                  "--poles", "zolotarev", "--tol", "1e-6", "--ell", "4"])

    def test_custom_pole_file(self, tmp_path):
        pf = tmp_path / "p.txt"
        pf.write_text("-1.0\n-2.0\n-3.0\n-4.0\n")
        rc = main(["funv", "--matrix", "tridiag:30", "--function", "inverse",
                   "--poles", f"custom:{pf}", "--ell", "4"])
        assert rc == 0

    def test_bad_matrix_spec(self, capsys):
        # unknown scheme falls through to "file path" and must fail cleanly
        rc = main(["funv", "--matrix", "hilbert:30", "--function", "inverse",
                   "--poles", "zolotarev", "--ell", "4"])
        assert rc == 2
        assert "hilbert" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["tridiag:2.5", "diffusion:0", "tridiag:"])
    def test_matrix_order_names_the_option_and_spec(self, spec, capsys):
        rc = main(["funv", "--matrix", spec, "--function", "inverse",
                   "--poles", "extended", "--ell", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--matrix {spec!r}: n must be an integer >= 1" in err

    def test_function_argument_it_cannot_use_is_refused(self, capsys):
        rc = main(["funv", "--matrix", "tridiag:20", "--function", "inverse:3",
                   "--ell", "2"])
        assert rc == 2
        assert "'inverse:3'" in capsys.readouterr().err

    def test_diag_file_goes_through_load_matrix(self, tmp_path, capsys):
        two_columns = tmp_path / "d.txt"
        two_columns.write_text("1 2\n3 4\n")
        rc = main(["funv", "--matrix", f"diag:{two_columns}", "--function",
                   "inverse", "--poles", "extended", "--ell", "2"])
        assert rc == 2
        assert "expected one diagonal value per line" in capsys.readouterr().err


class TestPoles:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "z.txt"
        rc = main(["poles", "--strategy", "zolotarev", "--interval", "1,10",
                   "--ell", "4", "--out", str(out)])
        assert rc == 0
        vals = [float(t) for t in out.read_text().split()
                if not t.startswith("#")]
        assert len(vals) == 4
        assert all(-10 < p < -1 for p in vals)

    def test_kron_pair_needs_out_xi(self, tmp_path):
        with pytest.raises(SystemExit, match="out-xi"):
            main(["poles", "--strategy", "cauchy-kron", "--interval", "1,4",
                  "--ell", "3", "--out", str(tmp_path / "psi.txt")])
        rc = main(["poles", "--strategy", "cauchy-kron", "--interval", "1,4",
                   "--ell", "3", "--out", str(tmp_path / "psi.txt"),
                   "--out-xi", str(tmp_path / "xi.txt")])
        assert rc == 0
        psi = [float(t) for t in (tmp_path / "psi.txt").read_text().split()]
        xi = [float(t) for t in (tmp_path / "xi.txt").read_text().split()]
        np.testing.assert_allclose(xi, [-p for p in psi])

    def test_out_xi_writes_the_pair_of_a_shared_name(self, tmp_path):
        # eds-cauchy names a 1-D strategy and a Kronecker pair with other
        # poles; --out-xi picks the pair, its absence the 1-D strategy.
        psi, xi, one = (str(tmp_path / f) for f in ("psi", "xi", "one"))
        base = ["poles", "--strategy", "eds-cauchy", "--interval", "1,4",
                "--ell", "5"]
        assert main(base + ["--out", psi, "--out-xi", xi]) == 0
        assert main(base + ["--out", one]) == 0
        want_psi, want_xi = KRON_PAIRS["eds-cauchy"].poles((1.0, 4.0), 5)
        np.testing.assert_array_equal(read_pole_file(psi), want_psi)
        np.testing.assert_array_equal(read_pole_file(xi), want_xi)
        np.testing.assert_array_equal(
            read_pole_file(one),
            STRATEGIES["eds-cauchy"].first((1.0, 4.0), 5))
        assert not np.array_equal(read_pole_file(one), want_psi)

    def test_out_xi_refused_for_a_1d_strategy(self, tmp_path):
        out = tmp_path / "p.txt"
        with pytest.raises(SystemExit, match="1-D strategy.*--out-xi"):
            main(["poles", "--strategy", "cauchy", "--interval", "1,4",
                  "--ell", "3", "--out", str(out),
                  "--out-xi", str(tmp_path / "xi.txt")])
        assert not out.exists()

    def test_extended_needs_no_interval(self, tmp_path):
        out = tmp_path / "e.txt"
        rc = main(["poles", "--strategy", "extended", "--ell", "5",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().split()[0] == "inf"

    @pytest.mark.parametrize("spec", ["1,2,3", "1,x"])
    def test_bad_interval_is_a_usage_error(self, spec):
        for argv in (["poles", "--strategy", "zolotarev", "--ell", "3",
                      "--out", "/dev/null"],
                     ["funv", "--matrix", "tridiag:20", "--function",
                      "inverse", "--ell", "3"]):
            with pytest.raises(SystemExit, match="--interval: expected 'a,b'"):
                main(argv + ["--interval", spec])

    @pytest.mark.parametrize("strategy, pair", [
        ("cauchy", False), ("eds-cauchy", False), ("cauchy-kron", True),
        ("eds-cauchy", True)])
    def test_single_point_interval_refused(self, tmp_path, capsys,
                                           strategy, pair):
        out, xi = tmp_path / "psi.txt", tmp_path / "xi.txt"
        argv = ["poles", "--strategy", strategy, "--interval", "2,2",
                "--ell", "3", "--out", str(out)]
        assert main(argv + (["--out-xi", str(xi)] if pair else [])) == 2
        assert ("interval [2, 2] is a single point"
                in capsys.readouterr().err)
        assert not out.exists() and not xi.exists()

    def test_underflowing_interval_named(self, tmp_path, capsys):
        out = tmp_path / "z.txt"
        assert main(["poles", "--strategy", "zolotarev", "--interval",
                     "1e-300,1e300", "--ell", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "interval [1e-300, 1e+300] is too wide" in err
        assert not out.exists()

    def test_interval_required_for_zolotarev(self):
        with pytest.raises(SystemExit, match="interval"):
            main(["poles", "--strategy", "zolotarev", "--ell", "3",
                  "--out", "/dev/null"])


class TestKronfun:
    def test_summary_row(self, tmp_path):
        out = tmp_path / "k.csv"
        rc = main(["kronfun", "--a", "tridiag:40:3", "--bneg", "tridiag:40:3",
                   "--function", "inverse", "--rank", "2",
                   "--poles", "laplace-kron", "--ell", "8",
                   "--oracle", "on", "--out", str(out)])
        assert rc == 0
        header, rows = _read_csv(str(out))
        assert header[:2] == ["ell", "storage_rank"]
        assert "true_error" in header
        row = dict(zip(header, rows[0]))
        assert int(row["ell"]) == 8
        assert float(row["true_error"]) <= float(row["bound"])

    def test_svd_report(self, tmp_path):
        rep = tmp_path / "sv.csv"
        rc = main(["kronfun", "--a", "tridiag:30:2", "--bneg", "tridiag:30:2",
                   "--function", "inverse", "--rank", "1",
                   "--poles", "cauchy-kron", "--ell", "5",
                   "--svd-report", str(rep)])
        assert rc == 0
        header, rows = _read_csv(str(rep))
        assert header == ["index", "sigma"]
        sig = [float(r[1]) for r in rows]
        assert sig == sorted(sig, reverse=True)

    def test_cauchy_pair_prints_no_bound_for_laplace_function(self, capsys):
        # phi_1 is not a Cauchy-Stieltjes function; funv --poles cauchy
        # prints nan for it too.
        rc = main(["kronfun", "--a", "tridiag:60", "--bneg", "tridiag:60",
                   "--function", "phi:1", "--poles", "cauchy-kron",
                   "--ell", "6"])
        assert rc == 0
        assert "bound=nan" in capsys.readouterr().out
        rc = main(["funv", "--matrix", "tridiag:60", "--function", "phi:1",
                   "--poles", "cauchy", "--ell", "6"])
        assert rc == 0
        assert "bound=nan" in capsys.readouterr().out

    def test_gershgorin_interval_encloses_both_operators(self, capsys):
        # -B = tridiag(-4, 8, -4) reaches 16, beyond A's Gershgorin disc.
        bounds = []
        for interval in ("gershgorin:0.01", "0.01,16"):
            rc = main(["kronfun", "--a", "tridiag:50:1", "--bneg",
                       "tridiag:50:4", "--function", "power:-0.5", "--ell",
                       "6", "--poles", "cauchy-kron", "--interval", interval])
            assert rc == 0
            bounds.append(capsys.readouterr().out.split("bound=")[1].split()[0])
        assert bounds[0] == bounds[1]

    def test_factor_files(self, tmp_path):
        u = tmp_path / "u.npy"
        v = tmp_path / "v.npy"
        rng = np.random.default_rng(0)
        np.save(u, rng.standard_normal((20, 2)))
        np.save(v, rng.standard_normal((20, 2)))
        rc = main(["kronfun", "--a", "tridiag:20:2", "--bneg", "tridiag:20:2",
                   "--function", "inverse", "--ufile", str(u),
                   "--vfile", str(v), "--poles", "extended", "--ell", "6"])
        assert rc == 0

    def test_complex_factor_file_refused(self, tmp_path, capsys):
        u = tmp_path / "u.npy"
        v = tmp_path / "v.npy"
        np.save(u, (1 + 1j) * np.ones((20, 1)))
        np.save(v, np.ones((20, 1)))
        rc = main(["kronfun", "--a", "tridiag:20:2", "--bneg", "tridiag:20:2",
                   "--function", "inverse", "--ufile", str(u),
                   "--vfile", str(v), "--poles", "extended", "--ell", "3"])
        assert rc == 2
        assert "u_factor is complex" in capsys.readouterr().err


class TestExperimentAndAccept:
    def test_experiment_writes_artifacts(self, tmp_path):
        rc = main(["experiment", "fig-lapl-1d", "--n", "80", "--ell-max", "4",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        import os
        assert any(f.endswith(".csv") for f in os.listdir(tmp_path))

    def test_accept_only_subset(self, capsys):
        rc = main(["accept", "--only", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "criterion  2" in out
        assert out.startswith("[PASS]")

    def test_accept_rejects_bad_numbers(self, capsys):
        rc = main(["accept", "--only", "0,99"])
        assert rc == 2
        assert "criterion" in capsys.readouterr().err


def test_no_subcommand_shows_usage(capsys):
    with pytest.raises(SystemExit):
        main([])


_POLES = ["poles", "--strategy", "extended", "--ell", "2", "--out", "/dev/null"]
_FUNV = ["funv", "--matrix", "tridiag:20", "--function", "inverse", "--ell", "2"]
_KRONFUN = ["kronfun", "--a", "tridiag:20", "--bneg", "tridiag:20",
            "--function", "inverse", "--ell", "2"]


@pytest.mark.parametrize("argv", [
    _POLES + ["--seed", "1"],
    _POLES + ["--threads", "2"],
    _POLES + ["--dense-limit", "10"],
    ["accept", "--only", "2", "--threads", "2"],
    ["accept", "--only", "2", "--seed", "1"],
    ["accept", "--only", "2", "--dense-limit", "10"],
    ["experiment", "fig-lapl-1d", "--dense-limit", "10"],
    _FUNV + ["--threads", "2"],
    _KRONFUN + ["--threads", "2"],
    _FUNV + ["--dense-limit", "10"],
    _KRONFUN + ["--dense-limit", "10"],
    pytest.param(_FUNV + ["--gamma-one"], id="funv--gamma-one"),
    pytest.param(_KRONFUN + ["--gamma-one"], id="kronfun--gamma-one"),
    pytest.param(["experiment", "fig-lapl-1d", "--gamma-one"],
                 id="experiment--gamma-one"),
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_option_a_subcommand_does_not_read_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
