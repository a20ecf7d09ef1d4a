"""End-to-end command coverage through main(argv)."""
import csv
import math
import re

import numpy as np
import pytest

from rkstieltjes.cli import main
from rkstieltjes.poles import read_pole_file
from rkstieltjes.strategies import KRON_PAIRS, STRATEGIES


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# A refused generated-matrix spec and what follows its name in the error.
MATRIX_REFUSALS = {
    "tridiag:2.5": "n must be an integer >= 1, got '2.5'",
    "diffusion:0": "n must be an integer >= 1, got '0'",
    "tridiag:": "n must be an integer >= 1, got ''",
    "tridiag:100:1:7": "expected tridiag:n[:scale]",
    "diffusion:100:0.01:0.1:9": "expected diffusion:n[:eps[:dt]]",
    "tridiag:100:abc": "scale must be a finite number > 0, got 'abc'",
    "tridiag:100:0": "scale must be a finite number > 0, got '0'",
    "diffusion:100:-1": "eps must be a finite number > 0, got '-1'",
    "diffusion:100:0.01:inf": "dt must be a finite number > 0, got 'inf'",
}


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

    @pytest.mark.parametrize("mode, reason", [
        (["--poles", "cauchy", "--tol", "1e-8"], "certified"),
        (["--poles", "eds-cauchy", "--tol", "1e-8"], "tol"),
        (["--poles", "polynomial", "--tol", "1e-8", "--max-ell", "3"], "max_ell"),
        (["--poles", "cauchy", "--ell", "5"], "fixed_ell"),
        (["--poles", "cauchy", "--tol", "1e-15"], "floor"),
    ])
    def test_status_line_names_the_stop_reason(self, mode, reason, capsys):
        rc = main(["funv", "--matrix", "tridiag:200", "--function",
                   "power:-0.5", *mode])
        out, err = capsys.readouterr()
        assert f"stop_reason={reason});" in out and err == ""
        assert rc == (1 if reason in ("max_ell", "floor") else 0)

    def test_wrong_interval_warns_and_prints_no_bound(self, tmp_path, capsys):
        # The spectrum reaches down to 2.4e-4, below the claimed 1.
        vec = tmp_path / "v.txt"
        np.savetxt(vec, np.random.default_rng(7).standard_normal(200))
        for mode in (["--ell", "8"], ["--tol", "1e-6"]):
            rc = main(["funv", "--matrix", "tridiag:200", "--function",
                       "power:-0.5", "--poles", "cauchy", "--interval", "1,4",
                       "--vector", str(vec), *mode])
            assert rc == 0
            out, err = capsys.readouterr()
            assert "bound=nan" in out and "stop_reason=certified" not in out
            assert "warning: a Ritz value lies outside the interval [1, 4]" in err

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

    @pytest.mark.parametrize("spec", MATRIX_REFUSALS)
    def test_matrix_order_names_the_option_and_spec(self, spec, capsys):
        rc = main(["funv", "--matrix", spec, "--function", "inverse",
                   "--poles", "extended", "--ell", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: --matrix {spec!r}: {MATRIX_REFUSALS[spec]}\n" == err

    def test_vector_file_must_be_one_value_per_line(self, tmp_path, capsys):
        # 5 x 2 has the order's size, 10, but is no vector.
        vec = tmp_path / "v.txt"
        np.savetxt(vec, np.ones((5, 2)))
        rc = main(["funv", "--matrix", "tridiag:10", "--function", "inverse",
                   "--ell", "2", "--vector", str(vec)])
        assert rc == 2
        assert (f"--vector {vec}: expected 10 values, one per line, got "
                "shape (5, 2)") in capsys.readouterr().err

    def test_vector_file_entry_that_is_no_real_number(self, tmp_path, capsys):
        vec = tmp_path / "v.txt"
        vec.write_text("1\n2\n-1+0.5j\n")
        rc = main(["funv", "--matrix", "tridiag:3", "--function", "inverse",
                   "--ell", "1", "--vector", str(vec)])
        assert rc == 2
        assert (f"error: --vector {vec}: could not convert string '-1+0.5j' "
                "to float64") in capsys.readouterr().err

    def test_unknown_strategy_exits_2(self, capsys):
        # Exit 1 is an unconverged run's; a refusal is a usage error.
        rc = main(["funv", "--matrix", "tridiag:20", "--function", "inverse",
                   "--ell", "2", "--poles", "bogus"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --poles: unknown strategy 'bogus'; expected one of "
            "zolotarev, cauchy, eds-laplace, eds-cauchy, extended, "
            "polynomial or custom:FILE\n")

    def test_custom_pole_file_shorter_than_ell(self, tmp_path, capsys):
        pf = tmp_path / "p.txt"
        pf.write_text("-1.0\n-2.0\n")
        rc = main(["funv", "--matrix", "tridiag:30", "--function", "inverse",
                   "--poles", f"custom:{pf}", "--ell", "3"])
        assert rc == 2
        assert "ell=3 needs at least 3 custom poles, got 2" in (
            capsys.readouterr().err)

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

    def test_kron_pair_needs_out_xi(self, tmp_path, capsys):
        assert main(["poles", "--strategy", "cauchy-kron", "--interval", "1,4",
                     "--ell", "3", "--out", str(tmp_path / "psi.txt")]) == 2
        assert "--out-xi FILE is required" in capsys.readouterr().err
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

    def test_out_xi_refused_for_a_1d_strategy(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert main(["poles", "--strategy", "cauchy", "--interval", "1,4",
                     "--ell", "3", "--out", str(out),
                     "--out-xi", str(tmp_path / "xi.txt")]) == 2
        assert re.search("1-D strategy.*--out-xi", capsys.readouterr().err)
        assert not out.exists()

    def test_extended_needs_no_interval(self, tmp_path):
        out = tmp_path / "e.txt"
        rc = main(["poles", "--strategy", "extended", "--ell", "5",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().split()[0] == "inf"

    @pytest.mark.parametrize("spec", ["1", "1,2,3", "1,x", "gershgorin:abc",
                                      "gershgorin-typo"])
    def test_bad_interval_is_a_usage_error(self, spec, capsys):
        for argv in (["poles", "--strategy", "zolotarev", "--ell", "3",
                      "--out", "/dev/null"],
                     ["funv", "--matrix", "tridiag:20", "--function",
                      "inverse", "--ell", "3"]):
            assert main(argv + ["--interval", spec]) == 2
            assert (f"error: --interval: expected 'a,b' (see --help), got "
                    f"{spec!r}\n") == capsys.readouterr().err

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

    def test_interval_required_for_zolotarev(self, capsys):
        assert main(["poles", "--strategy", "zolotarev", "--ell", "3",
                     "--out", "/dev/null"]) == 2
        assert ("--interval a,b is required for zolotarev"
                in capsys.readouterr().err)


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

    @pytest.mark.parametrize("spec", ["auto", "0.01,16", "gershgorin:0.01"])
    def test_interval_is_the_hull_of_both_sides(self, spec, monkeypatch):
        # Two operators: A's spectrum lies in [0, 4], -B's in [0, 16].
        from rkstieltjes import cli
        from rkstieltjes.operators import (SpectralInterval, spectral_interval,
                                           toeplitz_tridiagonal)

        built, make = [], cli.kron_problem
        monkeypatch.setattr(cli, "kron_problem",
                            lambda *a: built.append(make(*a)) or built[-1])
        rc = main(["kronfun", "--a", "tridiag:50:1", "--bneg", "tridiag:50:4",
                   "--function", "power:-0.5", "--ell", "4", "--poles",
                   "cauchy-kron", "--interval", spec])
        assert rc == 0
        sides = [toeplitz_tridiagonal(50, c) for c in (1.0, 4.0)]
        if spec == "auto":
            ivs = [op.exact_interval() for op in sides]
        elif spec.startswith("gershgorin"):
            ivs = [spectral_interval(op, mode="gershgorin", floor=0.01)
                   for op in sides]
        else:
            ivs = [SpectralInterval(0.01, 16.0)] * 2
        want = SpectralInterval(min(iv.lower for iv in ivs),
                                max(iv.upper for iv in ivs))
        assert len(built) == 1 and built[0].interval == want

    def test_one_spec_is_one_operator(self, tmp_path, capsys, monkeypatch):
        # The same spec for --a and --bneg parses and encloses one operator,
        # and prints what two equal operators print: the spellings
        # tridiag:40 and tridiag:40:1 parse the same matrix twice.  The
        # auto interval is kron_problem's, so its exact intervals count.
        from rkstieltjes import cli
        from rkstieltjes.operators import TridiagonalOperator

        parsed, enclosed = [], []
        parse, interval = cli._parse_matrix, TridiagonalOperator.exact_interval
        monkeypatch.setattr(cli, "_parse_matrix",
                            lambda *a: parsed.append(a) or parse(*a))
        monkeypatch.setattr(TridiagonalOperator, "exact_interval",
                            lambda op: enclosed.append(op) or interval(op))
        outs = []
        for bneg in ("tridiag:40", "tridiag:40:1"):
            parsed.clear()
            enclosed.clear()
            out = tmp_path / f"{bneg}.csv"
            rc = main(["kronfun", "--a", "tridiag:40", "--bneg", bneg,
                       "--function", "power:-0.5", "--rank", "2",
                       "--poles", "cauchy-kron", "--ell", "7", "--seed", "3",
                       "--out", str(out)])
            assert rc == 0
            outs.append((capsys.readouterr().out.splitlines()[0],
                         out.read_text()))
            if bneg == "tridiag:40":
                assert len(parsed) == 1 and len(enclosed) == 1
            else:
                assert len(parsed) == 2 and len(enclosed) == 2
        assert outs[0] == outs[1]

    def test_extended_pair_factors_zero_once(self, monkeypatch):
        # With one spec for --a and --bneg, both bases take sigma = 0 from
        # the extended pair, and the operator factors it once for both.
        from rkstieltjes.operators import TridiagonalOperator

        seen, factor = [], TridiagonalOperator._factor
        monkeypatch.setattr(TridiagonalOperator, "_factor",
                            lambda op, sigma: seen.append(sigma)
                            or factor(op, sigma))
        rc = main(["kronfun", "--a", "tridiag:30", "--bneg", "tridiag:30",
                   "--function", "power:-0.5", "--poles", "extended",
                   "--ell", "12"])
        assert rc == 0
        assert seen == [0.0]

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

    @pytest.mark.parametrize("extra, message", [
        (["--ufile", "u.txt"], "--ufile and --vfile must be given together"),
        (["--poles", "bogus"], "--poles: unknown family 'bogus'; expected "
         "one of laplace-kron, cauchy-kron, eds-laplace, eds-cauchy, "
         "extended, polynomial or custom:PSI_FILE,XI_FILE"),
        (["--poles", "custom:psi.txt"],
         "--poles custom: expected custom:PSI_FILE,XI_FILE"),
    ], ids=["ufile-alone", "unknown-poles", "custom-one-file"])
    def test_refusal_exits_2(self, extra, message, capsys):
        rc = main(["kronfun", "--a", "tridiag:20", "--bneg", "tridiag:20",
                   "--function", "inverse", "--ell", "2", *extra])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_text_factor_entry_that_is_no_real_number(self, tmp_path, capsys):
        u, v = tmp_path / "u.txt", tmp_path / "v.txt"
        u.write_text("1\n" * 20)
        v.write_text("1\n" * 19 + "x\n")
        rc = main(["kronfun", "--a", "tridiag:20:2", "--bneg", "tridiag:20:2",
                   "--function", "inverse", "--ufile", str(u),
                   "--vfile", str(v), "--poles", "extended", "--ell", "3"])
        assert rc == 2
        assert (f"error: --vfile {v}: could not convert string 'x' to "
                "float64") in capsys.readouterr().err

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


@pytest.mark.parametrize("argv, seed", [
    (["funv", "--matrix", "tridiag:20", "--function", "inverse", "--ell", "2"],
     "-1"),
    (["kronfun", "--a", "tridiag:20", "--bneg", "tridiag:20", "--function",
      "inverse", "--ell", "2"], "-3"),
    (["experiment", "fig-lapl-1d"], "1.5"),
], ids=["funv", "kronfun", "experiment"])
def test_seed_must_be_an_integer_of_at_least_zero(argv, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--seed={seed}"])
    assert exc.value.code == 2
    assert (f"argument --seed: must be an integer >= 0, got {seed!r}"
            in capsys.readouterr().err)


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
