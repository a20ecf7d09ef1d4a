import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkstieltjes.poles import (
    EdsState,
    as_rational,
    cauchy_kron_poles,
    cauchy_poles,
    eds_next,
    eds_pole_iter,
    eds_poles,
    eds_start,
    elliptic_K,
    extended_poles,
    gamma_const,
    jacobi_dn,
    laplace_kron_poles,
    mobius_cauchy,
    mobius_kron,
    polynomial_poles,
    rate_rho,
    read_pole_file,
    write_pole_file,
    zolotarev_poles,
    zolotarev_ratio,
)

# Frozen references (mpmath, 40 digits).
K_HALF = 1.8540746773013719          # K(k) at k = 1/sqrt(2)
RHO_1_4 = 0.028447149087636490       # exp(-pi^2 / log 16)
RHO_EQUAL = 8.0924029121421757e-4    # degenerate [c, c] interval
RHO_1_16 = 0.093187822953575873
GAMMA_1_PI = 3.1125424006106064      # 2.23 + (2/pi) log 4
CAUCHY_HAT_A = 0.07179676972449082   # transformed left endpoint, [1, 4]
KRON_TILDE_A = 0.12701665379258312
SIGMA1_QUARTER = 0.7535990807823625  # first EDS node at lower = 0.25


class TestScalarHelpers:
    def test_elliptic_K(self):
        assert elliptic_K(1.0 / math.sqrt(2.0)) == pytest.approx(K_HALF, rel=1e-13)
        assert elliptic_K(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_elliptic_K_small_complement(self):
        # With the complement passed explicitly the log singularity stays
        # accurate where k alone would have lost it to rounding.
        kp = 1e-8
        k = math.sqrt((1.0 - kp) * (1.0 + kp))
        val = elliptic_K(k, kp)
        # K ~ log(4/k') as k -> 1
        assert val == pytest.approx(math.log(4.0 / kp), rel=1e-4)

    def test_rate_rho_frozen(self):
        assert rate_rho(1.0, 4.0) == pytest.approx(RHO_1_4, rel=1e-13)
        assert rate_rho(3.0, 3.0) == pytest.approx(RHO_EQUAL, rel=1e-13)
        assert rate_rho(1.0, 16.0) == pytest.approx(RHO_1_16, rel=1e-13)

    @given(st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_rate_rho_range_and_monotonicity(self, a, b):
        r = rate_rho(a, b)
        assert 0.0 < r < 1.0
        # widening the interval can only slow convergence
        assert rate_rho(a, 2.0 * b) > r

    def test_gamma_const(self):
        assert gamma_const(1, math.pi) == pytest.approx(GAMMA_1_PI, rel=1e-14)
        assert gamma_const(9, 1234.5, conjectured=True) == 1.0
        # grows logarithmically in both arguments
        assert gamma_const(10, math.pi) > gamma_const(1, math.pi)
        assert gamma_const(1, 100.0) > gamma_const(1, math.pi)


class TestJacobiDn:
    def test_endpoint_values(self):
        kp = 0.3
        k = math.sqrt(1.0 - kp * kp)
        K = elliptic_K(k, kp)
        assert jacobi_dn(0.0, k, kp) == pytest.approx(1.0, rel=1e-14)
        assert jacobi_dn(K, k, kp) == pytest.approx(kp, rel=1e-12)

    def test_half_period_identity(self):
        # dn(K/2) = sqrt(k') for every modulus
        for kp in (0.9, 0.5, 0.1, 1e-3, 1e-6):
            k = math.sqrt((1.0 - kp) * (1.0 + kp))
            K = elliptic_K(k, kp)
            got = jacobi_dn(K / 2.0, k, kp)
            assert got == pytest.approx(math.sqrt(kp), rel=1e-10)

    def test_extreme_modulus_absolute(self):
        # Near k = 1 the value at u = K underflows toward k'; only absolute
        # accuracy is meaningful there.
        kp = 1e-10
        k = math.sqrt((1.0 - kp) * (1.0 + kp))
        K = elliptic_K(k, kp)
        assert abs(jacobi_dn(K, k, kp) - kp) < 1e-12

    def test_array_argument(self):
        kp = 0.4
        k = math.sqrt(1.0 - kp * kp)
        u = np.linspace(0.0, 1.0, 7)
        vals = jacobi_dn(u, k, kp)
        assert vals.shape == (7,)
        assert np.all(vals <= 1.0 + 1e-15) and np.all(vals >= kp - 1e-15)


class TestZolotarev:
    def test_single_pole_is_geometric_mean(self):
        (p,) = zolotarev_poles((1.0, 10.0), 1)
        assert p == pytest.approx(-math.sqrt(10.0), rel=1e-10)

    def test_poles_inside_mirrored_interval(self):
        for (a, b) in ((1.0, 10.0), (0.01, 1.0), (2.0, 3.0)):
            for ell in (1, 2, 5, 9):
                ps = np.asarray(list(zolotarev_poles((a, b), ell)))
                assert ps.shape == (ell,)
                assert np.all(ps > -b) and np.all(ps < -a)
                assert np.all(np.diff(ps) > 0)  # strictly increasing

    def test_ratio_bound_smoke(self):
        # equioscillation ratio on the symmetric two-interval problem
        a, b = 1.0, 10.0
        for ell in (2, 4):
            r = as_rational(zolotarev_poles((a, b), ell))
            ratio = zolotarev_ratio(r, (a, b), (-b, -a))
            assert ratio <= 4.0 * rate_rho(a, b) ** ell

    def test_as_rational_rejects_infinite(self):
        with pytest.raises(ValueError):
            as_rational(extended_poles(4))


class TestMobius:
    def test_cauchy_endpoint(self):
        m = mobius_cauchy((1.0, 4.0))
        assert m.endpoint == pytest.approx(CAUCHY_HAT_A, rel=1e-13)
        assert 1.0 / m.endpoint == pytest.approx(13.928203230275509, rel=1e-13)

    def test_kron_endpoint(self):
        m = mobius_kron((1.0, 4.0))
        assert m.endpoint == pytest.approx(KRON_TILDE_A, rel=1e-13)

    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=1.5, max_value=1e3),
           st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, a, scale, z):
        b = a * scale
        for m in (mobius_cauchy((a, b)), mobius_kron((a, b))):
            w = m(z)
            if math.isfinite(w) and abs(w) < 1e12:
                assert m.inv(w) == pytest.approx(z, rel=1e-8, abs=1e-8)

    def test_maps_interval_endpoints(self):
        # right endpoint b lands at 1, left endpoint at .endpoint
        for maker in (mobius_cauchy, mobius_kron):
            m = maker((1.0, 4.0))
            assert m(4.0) == pytest.approx(1.0, rel=1e-12)
            assert m(1.0) == pytest.approx(m.endpoint, rel=1e-12)


class TestCanonicalFamilies:
    def test_cauchy_single_pole(self):
        (p,) = cauchy_poles((1.0, 4.0), 1)
        assert p == pytest.approx(-2.0, rel=1e-13)

    def test_cauchy_poles_negative(self):
        ps = np.asarray(list(cauchy_poles((0.5, 80.0), 7)))
        assert ps.shape == (7,)
        assert np.all(ps < 0.0)
        assert np.all(np.isfinite(ps))

    def test_kron_pairs_are_mirrored(self):
        for maker in (laplace_kron_poles, cauchy_kron_poles):
            psi, xi = maker((1.0, 4.0), 3)
            np.testing.assert_allclose(np.asarray(list(xi)),
                                       -np.asarray(list(psi)), rtol=1e-14)
            assert np.all(np.asarray(list(psi)) < 0.0)

    def test_laplace_kron_single(self):
        psi, xi = laplace_kron_poles((1.0, 4.0), 1)
        assert list(psi)[0] == pytest.approx(-2.0, rel=1e-12)

    def test_extended_and_polynomial(self):
        ext = list(extended_poles(5))
        assert ext[0] == math.inf
        assert ext[1] == 0.0
        assert ext == [math.inf, 0.0, math.inf, 0.0, math.inf]
        assert all(math.isinf(p) for p in polynomial_poles(4))


class TestEds:
    def test_zeta_and_targets(self):
        assert EdsState.ZETA == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        # first three equidistribution targets frac(j * zeta)
        assert EdsState.ZETA % 1.0 == pytest.approx(0.7071067811865475)
        assert (2 * EdsState.ZETA) % 1.0 == pytest.approx(0.41421356237309503)
        assert (3 * EdsState.ZETA) % 1.0 == pytest.approx(0.12132034355964261)

    def test_first_node_frozen(self):
        state = eds_start(0.25)
        sig, state2 = eds_next(state)
        assert sig == pytest.approx(SIGMA1_QUARTER, rel=1e-12)
        assert state2.index == state.index + 1
        # nodes live strictly inside (lower, 1)
        assert 0.25 < sig < 1.0

    def test_start_validates(self):
        with pytest.raises(ValueError):
            eds_start(0.0)
        with pytest.raises(ValueError):
            eds_start(1.0)

    def test_nodes_fill_interval(self):
        state = eds_start(0.1)
        seen = []
        for _ in range(40):
            sig, state = eds_next(state)
            assert 0.1 < sig < 1.0
            seen.append(sig)
        # equidistributed, so the low and high ends are both visited
        assert min(seen) < 0.2 and max(seen) > 0.9

    def test_prefix_property(self):
        short = np.asarray(list(eds_poles((1.0, 4.0), 4, "cauchy")))
        long = np.asarray(list(eds_poles((1.0, 4.0), 9, "cauchy")))
        np.testing.assert_allclose(long[:4], short, rtol=1e-15)

    def test_iter_matches_batch(self):
        it = eds_pole_iter((2.0, 50.0), "laplace")
        from_iter = np.asarray([next(it) for _ in range(6)])
        batch = np.asarray(list(eds_poles((2.0, 50.0), 6, "laplace")))
        np.testing.assert_allclose(from_iter, batch, rtol=1e-15)

    def test_variants_differ_and_are_negative(self):
        lap = np.asarray(list(eds_poles((1.0, 4.0), 5, "laplace")))
        cau = np.asarray(list(eds_poles((1.0, 4.0), 5, "cauchy")))
        assert np.all(lap < 0.0) and np.all(cau < 0.0)
        assert not np.allclose(lap, cau)
        with pytest.raises(ValueError):
            eds_poles((1.0, 4.0), 5, "fourier")

    def test_kron_cauchy_variant_uses_the_mirror_chart(self):
        # Left poles of the nested two-sided Cauchy pair: the sequence
        # started at mobius_kron's endpoint, pulled back through that chart
        # onto (-inf, -a].
        mob = mobius_kron((1.0, 4.0))
        state, want = eds_start(mob.endpoint), []
        for _ in range(6):
            sig, state = eds_next(state)
            want.append(float(mob.inv(-sig)))
        got = list(eds_poles((1.0, 4.0), 6, "kron-cauchy").poles)
        assert got == want and all(p < -1.0 for p in got)


class TestPoleFiles:
    def test_roundtrip_with_infinite(self, tmp_path):
        path = str(tmp_path / "poles.txt")
        write_pole_file(path, extended_poles(4))
        back = read_pole_file(path)
        got = list(back)
        assert got[0] == math.inf and got[1] == 0.0
        assert len(got) == 4

    def test_roundtrip_precision(self, tmp_path):
        path = str(tmp_path / "z.txt")
        seq = zolotarev_poles((1.0, 123.456), 6)
        write_pole_file(path, seq)
        np.testing.assert_allclose(np.asarray(list(read_pole_file(path))),
                                   np.asarray(list(seq)), rtol=1e-16)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "annotated.txt"
        path.write_text("# leading comment\n-1.5\n\n# mid\ninf\n-2.25\n")
        got = list(read_pole_file(str(path)))
        assert got == [-1.5, math.inf, -2.25]

    def test_complex_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.txt")
        write_pole_file(path, np.array([1.0 + 2.0j, 3.0 - 4.0j]))
        got = np.asarray(list(read_pole_file(path)))
        np.testing.assert_allclose(got, [1 + 2j, 3 - 4j])

    def test_prefix_and_negated(self):
        seq = zolotarev_poles((1.0, 9.0), 5)
        pre = seq.prefix(2)
        assert list(pre) == list(seq)[:2]
        np.testing.assert_allclose(np.asarray(list(seq.negated())),
                                   -np.asarray(list(seq)))
