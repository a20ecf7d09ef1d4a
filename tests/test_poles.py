import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkstieltjes.acceptance import _eds_g
from rkstieltjes.operators import positive_interval
from rkstieltjes.poles import (
    EDS_ZETA,
    cauchy_kron_poles,
    cauchy_poles,
    eds_next,
    eds_pole_iter,
    eds_poles,
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
from rkstieltjes.strategies import KRON_PAIRS, STRATEGIES

# Frozen references (mpmath, 40 digits).
K_HALF = 1.8540746773013719          # K at k = k' = 1/sqrt(2)
RHO_1_4 = 0.028447149087636490       # exp(-pi^2 / log 16)
RHO_EQUAL = 8.0924029121421757e-4    # degenerate [c, c] interval
RHO_1_16 = 0.093187822953575873
GAMMA_1_PI = 3.1125424006106064      # 2.23 + (2/pi) log 4
CAUCHY_HAT_A = 0.07179676972449082   # transformed left endpoint, [1, 4]
KRON_TILDE_A = 0.12701665379258312
SIGMA1_QUARTER = 0.7535990807823625  # first EDS node at lower = 0.25
K_OF_KPRIME = {                      # K at complementary modulus k' (50 digits)
    1e-14: 33.622485663036530196,
    1e-8: 19.80697510507225654,
    1e-3: 8.2940514636154399645,
    0.5: 2.1565156474996432354,
}


class TestScalarHelpers:
    def test_elliptic_K(self):
        assert elliptic_K(1.0 / math.sqrt(2.0)) == pytest.approx(K_HALF, rel=1e-13)
        assert elliptic_K(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_elliptic_K_small_complement(self):
        # The complement is the argument, so the log singularity stays
        # accurate where k = sqrt(1 - k'^2) would have lost it to rounding.
        kp = 1e-8
        # K ~ log(4/k') as k -> 1
        assert elliptic_K(kp) == pytest.approx(math.log(4.0 / kp), rel=1e-4)

    @pytest.mark.parametrize("kp, want", K_OF_KPRIME.items())
    def test_elliptic_K_frozen(self, kp, want):
        assert elliptic_K(kp) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("kp, want", [(1e-160, 369.79990924016720007),
                                          (1e-200, 461.90331295992902744),
                                          (5e-324, 745.82636628250115293)])
    def test_elliptic_K_finite_where_kprime_squared_underflows(self, kp, want):
        # k'^2 is subnormal or 0 here, where ellipkm1 loses it or gives inf.
        assert elliptic_K(kp) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("kp", [0.0, -0.5, 1.5, math.nan])
    def test_complement_outside_unit_interval_refused(self, kp):
        with pytest.raises(ValueError, match="complementary modulus"):
            elliptic_K(kp)
        with pytest.raises(ValueError, match="complementary modulus"):
            jacobi_dn(0.5, kp)

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
        # grows logarithmically in both arguments
        assert gamma_const(10, math.pi) > gamma_const(1, math.pi)
        assert gamma_const(1, 100.0) > gamma_const(1, math.pi)


class TestJacobiDn:
    def test_endpoint_values(self):
        kp = 0.3
        K = elliptic_K(kp)
        assert jacobi_dn(0.0, kp) == pytest.approx(1.0, rel=1e-14)
        assert jacobi_dn(K, kp) == pytest.approx(kp, rel=1e-12)

    def test_half_period_identity(self):
        # dn(K/2) = sqrt(k') for every modulus
        for kp in (0.9, 0.5, 0.1, 1e-3, 1e-6, 1e-9, 1e-12):
            got = jacobi_dn(elliptic_K(kp) / 2.0, kp)
            assert got == pytest.approx(math.sqrt(kp), rel=1e-13)

    def test_extreme_modulus_absolute(self):
        kp = 1e-10
        assert jacobi_dn(elliptic_K(kp), kp) == pytest.approx(kp, rel=1e-13)

    def test_quarter_period_product(self):
        # dn(u) dn(K - u) = k', relatively, down to the small values near K
        kp = 1e-10
        K = elliptic_K(kp)
        u = np.linspace(0.0, K, 33)
        prod = jacobi_dn(u, kp) * jacobi_dn(K - u, kp)
        np.testing.assert_allclose(prod, kp, rtol=1e-13)

    def test_period_and_parity(self):
        kp = 0.3
        K = elliptic_K(kp)
        u = np.linspace(0.0, K, 9)
        base = jacobi_dn(u, kp)
        for image in (-u, 2.0 * K - u, u + 2.0 * K, u - 4.0 * K):
            np.testing.assert_allclose(jacobi_dn(image, kp), base, rtol=1e-13)

    def test_zero_modulus(self):
        # k = 0 is k' = 1, an ordinary input: dn is 1 exactly.
        assert jacobi_dn(0.7, 1.0) == 1.0
        np.testing.assert_array_equal(jacobi_dn(np.array([0.0, 2.0]), 1.0),
                                      [1.0, 1.0])

    def test_array_argument(self):
        kp = 0.4
        u = np.linspace(0.0, 1.0, 7)
        vals = jacobi_dn(u, kp)
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
            ratio = zolotarev_ratio(zolotarev_poles((a, b), ell), (a, b))
            assert ratio <= 4.0 * rate_rho(a, b) ** ell

    @pytest.mark.parametrize("a, b", [(1.0, 10.0), (1.0, 1000.0), (1e-3, 4.0),
                                      (1e-5, 1.0), (1e-8, 1.0)])
    @pytest.mark.parametrize("ell", [1, 2, 5, 10, 20])
    def test_ratio_matches_two_sided_grid(self, a, b, ell):
        # Independent of the symmetry the ratio relies on: max of |r| on a
        # geometric grid of [a, b] over min of |r| on its mirror image.
        poles = zolotarev_poles((a, b), ell)
        z = np.geomspace(a, b, 200_000)

        def abs_r(x):
            out = np.ones_like(x)
            with np.errstate(divide="ignore"):
                for p in poles:
                    out *= np.abs((x + p) / (x - p))
            return out

        grid = abs_r(z).max() / abs_r(-z).min()
        assert zolotarev_ratio(poles, (a, b)) == pytest.approx(grid, rel=1e-6)

    @pytest.mark.parametrize("poles, interval, match", [
        (extended_poles(4), (1.0, 10.0), "inf"),
        ([-2.0, 3.0], (1.0, 10.0), "inside"),
        ([-2.0], (1.0, 1.0), "0 < a < b"),
        ([-2.0], (0.0, 10.0), "0 < a < b"),
        ([-2.0], (-10.0, -1.0), "0 < a < b"),
        ([-2.0], (1.0, math.inf), "b < inf"),
    ], ids=["inf-pole", "pole-inside", "one-point", "zero-end", "negative",
            "half-line"])
    def test_ratio_refuses(self, poles, interval, match):
        with pytest.raises(ValueError, match=match):
            zolotarev_ratio(poles, interval)

    def test_extreme_ratio_pairs_multiply_to_ab(self):
        # u_j + u_(l+1-j) = K and dn(u) dn(K - u) = a/b, so mirrored poles
        # multiply to a*b; at a/b = 1e-9 this needs dn relatively accurate
        # near K.
        a, b, ell = 1e-9, 1.0, 40
        ps = zolotarev_poles((a, b), ell)
        np.testing.assert_allclose(ps * ps[::-1], a * b, rtol=1e-13)


class TestMobius:
    def test_cauchy_endpoint(self):
        endpoint, _ = mobius_cauchy((1.0, 4.0))
        assert endpoint == pytest.approx(CAUCHY_HAT_A, rel=1e-13)
        assert 1.0 / endpoint == pytest.approx(13.928203230275509, rel=1e-13)

    def test_kron_endpoint(self):
        endpoint, _ = mobius_kron((1.0, 4.0))
        assert endpoint == pytest.approx(KRON_TILDE_A, rel=1e-13)

    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=1.5, max_value=1e3))
    @settings(max_examples=80, deadline=None)
    def test_pullback_identities(self, a, scale):
        # The pullback sigma -> T^-1(-sigma) sends the normalized points
        # 1 and endpoint back to b and a, and -endpoint to the inner end
        # of the other set: 0 for the half-line, -a for the mirror.
        b = a * scale
        for maker, inner in ((mobius_cauchy, 0.0), (mobius_kron, -a)):
            endpoint, pullback = maker((a, b))
            assert pullback(-1.0) == pytest.approx(b, rel=1e-13)
            assert pullback(-endpoint) == pytest.approx(a, rel=1e-12)
            assert pullback(endpoint) == pytest.approx(inner, rel=1e-10,
                                                       abs=1e-12 * b)


# 50-digit mpmath references: the poles of each Cauchy-side family on
# [a, 1] at a position in the list (fixed families at ell = 40, the EDS
# streams from the same float targets frac(j/sqrt(2))).
CAUCHY_SIDE_REFS = {
    (1e-06, "cauchy"): {
        0: -92.702416060172411592, 20: -0.00081256438210598778124,
        39: -1.0787205366372628234e-8},
    (1e-06, "cauchy-kron"): {
        0: -100.99346818630591508, 20: -0.0011600541087280458463,
        39: -1.0198032809024224009e-6},
    (1e-06, "eds-cauchy"): {
        0: -0.047701771657210851838, 40: -232.50626756355899408,
        57: -1.534457856781128409e-6, 59: -0.00065309155987478106631},
    (1e-06, "kron-cauchy"): {
        0: -0.038769537355601351894, 40: -212.64186494838252256,
        57: -1.0188404410568473113e-6, 59: -0.00043912777749864565532},
    (2.5e-10, "cauchy"): {
        0: -41.017195135858695686, 20: -0.000011584854517456821669,
        39: -6.0950047698761608963e-12},
    (2.5e-10, "cauchy-kron"): {
        0: -43.420805800223965168, 20: -0.000016526246112219248755,
        39: -2.6151521697750944327e-10},
    (2.5e-10, "eds-cauchy"): {
        0: -0.0041137163091539543645, 40: -97.135864659433716524,
        57: -3.9566018052896347435e-10, 59: -5.6109762184080153048e-6},
    (2.5e-10, "kron-cauchy"): {
        0: -0.0033566090618377882551, 40: -91.629928425234600181,
        57: -2.6095305114271330246e-10, 59: -3.7703265461366287735e-6},
}

CAUCHY_SIDE_FAMILIES = {
    "cauchy": lambda iv: STRATEGIES["cauchy"].first(iv, 40),
    "cauchy-kron": lambda iv: KRON_PAIRS["cauchy-kron"].poles(iv, 40)[0],
    "eds-cauchy": lambda iv: STRATEGIES["eds-cauchy"].first(iv, 60),
    "kron-cauchy": lambda iv: KRON_PAIRS["eds-cauchy"].poles(iv, 60)[0],
}


@pytest.mark.parametrize("ratio, family", CAUCHY_SIDE_REFS)
def test_cauchy_side_poles_match_mpmath(ratio, family):
    poles = CAUCHY_SIDE_FAMILIES[family]((ratio, 1.0))
    for j, want in CAUCHY_SIDE_REFS[ratio, family].items():
        assert poles[j] == pytest.approx(want, rel=1e-13, abs=0.0), j


@pytest.mark.parametrize("family", CAUCHY_SIDE_FAMILIES)
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_cauchy_side_poles_scale_with_the_interval(family, scale):
    # b*(b - a) or a*b would under- or overflow at these scales.
    want = np.asarray(CAUCHY_SIDE_FAMILIES[family]((1.0, 4.0)))
    got = np.asarray(CAUCHY_SIDE_FAMILIES[family]((scale, 4.0 * scale)))
    np.testing.assert_allclose(got / scale, want, rtol=1e-13)


# 700-digit mpmath references: the ell = 4 Zolotarev poles of [a, 1] at a/b
# where sinh K cosh K overflows (1e-200) and where a/b is subnormal (1e-310).
ZOLOTAREV_WIDE_REFS = {
    1e-200: [-1.6817928305074291e-25, -1.1892071150027211e-75,
             -8.4089641525371453e-126, -5.9460355750136052e-176],
    1e-310: [-2.9906975624424399e-39, -6.6874030497642126e-117,
             -1.4953487812212177e-194, -3.3437015248821012e-272],
}

INTERVAL_FAMILIES = {
    **{name: s.first for name, s in STRATEGIES.items() if s.needs_interval},
    **{f"kron:{name}": (lambda iv, ell, p=p: p.poles(iv, ell)[0])
       for name, p in KRON_PAIRS.items() if p.needs_interval},
}


@pytest.mark.parametrize("family", INTERVAL_FAMILIES)
@pytest.mark.parametrize("lower", ZOLOTAREV_WIDE_REFS)
def test_wide_interval_poles_are_finite_and_negative(family, lower):
    iv = positive_interval((lower, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poles = np.asarray(INTERVAL_FAMILIES[family](iv, 12))
    assert np.all(np.isfinite(poles)) and np.all(poles < 0.0), poles


@pytest.mark.parametrize("lower", ZOLOTAREV_WIDE_REFS)
def test_wide_interval_zolotarev_poles_match_mpmath(lower):
    np.testing.assert_allclose(zolotarev_poles((lower, 1.0), 4),
                               ZOLOTAREV_WIDE_REFS[lower], rtol=2e-13)


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
        assert EDS_ZETA == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        # first three equidistribution targets frac(j * zeta)
        assert EDS_ZETA % 1.0 == pytest.approx(0.7071067811865475)
        assert (2 * EDS_ZETA) % 1.0 == pytest.approx(0.41421356237309503)
        assert (3 * EDS_ZETA) % 1.0 == pytest.approx(0.12132034355964261)

    def test_first_node_frozen(self):
        sig = eds_next(0.25, elliptic_K(0.25), 1)
        assert sig == pytest.approx(SIGMA1_QUARTER, rel=1e-12)
        # nodes live strictly inside (lower, 1)
        assert 0.25 < sig < 1.0

    def test_tiny_endpoint_matches_quadrature(self):
        # g(sigma_j^2) = s_j against the independent quadrature g
        for ap in (1e-6, 1e-8, 1e-10):
            big_m = elliptic_K(ap)
            for j in range(1, 61):
                sig = eds_next(ap, big_m, j)
                s = math.modf(j * EDS_ZETA)[0]
                assert abs(_eds_g(sig * sig, ap, big_m) - s) <= 1e-13

    def test_start_validates(self):
        # lower = 1 is a one-point interval, whose every node is 1.
        with pytest.raises(ValueError, match="complementary modulus"):
            eds_next(0.0, 1.0, 1)
        assert eds_next(1.0, elliptic_K(1.0), 1) == 1.0

    def test_nodes_fill_interval(self):
        big_m = elliptic_K(0.1)
        seen = [eds_next(0.1, big_m, j) for j in range(1, 41)]
        assert all(0.1 < sig < 1.0 for sig in seen)
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
        endpoint, pullback = mobius_kron((1.0, 4.0))
        big_m = elliptic_K(endpoint)
        want = [pullback(eds_next(endpoint, big_m, j)) for j in range(1, 7)]
        got = list(eds_poles((1.0, 4.0), 6, "kron-cauchy"))
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

    @pytest.mark.parametrize("poles", [[-1.0, math.nan, -math.inf],
                                       [-1.0, complex(math.nan, 1.0)],
                                       [-1.0 + 2.0j, complex(-1.0, math.nan)]])
    def test_write_refuses_nan(self, tmp_path, poles):
        path = tmp_path / "nan.txt"
        with pytest.raises(ValueError, match="pole 1 is NaN"):
            write_pole_file(str(path), np.array(poles))
        assert not path.exists()

    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "nan+1j", "1+nanj"])
    def test_read_refuses_nan_naming_file_and_line(self, tmp_path, token):
        path = tmp_path / "nan.txt"
        path.write_text(f"# header\n-1\n\n{token}\n-2\n")
        with pytest.raises(ValueError, match=re.escape(f"nan.txt:4: pole '{token}' is NaN")):
            read_pole_file(str(path))


def _read_text(tmp_path, text):
    path = tmp_path / "poles.txt"
    path.write_text(text)
    return read_pole_file(str(path))


POLE_MAKERS = {
    "zolotarev": lambda tmp: zolotarev_poles((1.0, 9.0), 5),
    "cauchy": lambda tmp: cauchy_poles((1.0, 9.0), 5),
    "eds-laplace": lambda tmp: eds_poles((1.0, 9.0), 5, "laplace"),
    "eds-cauchy": lambda tmp: eds_poles((1.0, 9.0), 5, "cauchy"),
    "eds-kron-cauchy": lambda tmp: eds_poles((1.0, 9.0), 5, "kron-cauchy"),
    "extended": lambda tmp: extended_poles(5),
    "polynomial": lambda tmp: polynomial_poles(5),
    "laplace-kron-psi": lambda tmp: laplace_kron_poles((1.0, 9.0), 5)[0],
    "laplace-kron-xi": lambda tmp: laplace_kron_poles((1.0, 9.0), 5)[1],
    "cauchy-kron-psi": lambda tmp: cauchy_kron_poles((1.0, 9.0), 5)[0],
    "cauchy-kron-xi": lambda tmp: cauchy_kron_poles((1.0, 9.0), 5)[1],
    "file": lambda tmp: _read_text(tmp, "-1.5\ninf\n0\n-2\n-3\n"),
    "complex-file": lambda tmp: _read_text(tmp, "-1.5\n1+2j\ninf\n0\n-3\n"),
}


@pytest.mark.parametrize("name", POLE_MAKERS)
def test_pole_functions_return_plain_arrays(name, tmp_path):
    poles = POLE_MAKERS[name](tmp_path)
    assert type(poles) is np.ndarray and poles.shape == (5,)
    assert poles.dtype == (complex if name == "complex-file" else float)
