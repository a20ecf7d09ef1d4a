import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkstieltjes.functions import (
    StieltjesFunction,
    catalog_function,
    lambert_w,
    parse_function_spec,
)

# Reference values computed independently (mpmath, 50 digits) and frozen.
PHI1_AT_1 = 0.6321205588285577       # (e - 1)/e
PHI2_AT_1 = 0.3678794411714423       # 1/e
W_AT_1 = 0.5671432904097838          # omega constant
SQRTEXP_AT_4 = 0.21616617919084683   # (1 - e^{-2})/4


def test_phi_one_and_two():
    phi1 = catalog_function("phi", 1)
    phi2 = catalog_function("phi", 2)
    assert phi1(1.0) == pytest.approx(PHI1_AT_1, rel=1e-14)
    assert phi2(1.0) == pytest.approx(PHI2_AT_1, rel=1e-14)
    assert phi1.limit_at_zero() == pytest.approx(1.0)
    assert phi2.limit_at_zero() == pytest.approx(0.5)


def test_phi_recurrence():
    # Decaying convention phi_j(z) = int_0^1 e^{-z t} t^{j-1}/(j-1)! dt gives
    # phi_{j+1}(z) = (1/j! - phi_j(z)) / z.  Only checked where the
    # subtraction is well conditioned; small z is covered by the frozen
    # series values below.
    for z in (0.1, 1.0, 30.0, 700.0):
        for j in (1, 2, 3, 4):
            left = catalog_function("phi", j + 1)(z)
            right = (1.0 / math.factorial(j) - catalog_function("phi", j)(z)) / z
            assert left == pytest.approx(right, rel=1e-10, abs=1e-300)


# phi_j(z) = sum_i (-z)^i / (i + j)!, mpmath @ 50 digits, at z on both sides
# of the |z| = 0.5 switch between the series and the recurrence.
PHI_Z = (1e-300, 1e-8, 0.49, 0.51, 30.0)
PHI_REF = {
    1: (1.0, 0.99999999500000001667, 0.79055837921547741023,
        0.78334200232889030824, 0.033333333333330214126),
    2: (0.5, 0.4999999983333333375, 0.4274318791520869179,
        0.42481960327668567012, 0.032222222222222326196),
    3: (0.16666666666666666667, 0.16666666625000000083,
        0.14809820581206751448, 0.14741254259473398015,
        0.015592592592592589127),
    4: (0.041666666666666666667, 0.041666666583333333472,
        0.03789481807061051466, 0.03775318445476997356,
        0.0050358024691358025847),
}


def test_phi_small_argument_series():
    # mpmath @ 40 digits: (e^{-z} - 1 + z)/z^2
    phi2 = catalog_function("phi", 2)
    assert phi2(1e-8) == pytest.approx(0.4999999983333333375, rel=1e-14)
    assert phi2(1e-4) == pytest.approx(0.49998333374999166681, rel=1e-14)
    for j, ref in PHI_REF.items():
        phi = catalog_function("phi", j)
        np.testing.assert_allclose(phi(np.array(PHI_Z)), ref, rtol=1e-14)
        assert phi(PHI_Z[0]) == ref[0]


def test_lambert_w_values():
    assert lambert_w(1.0) == pytest.approx(W_AT_1, rel=1e-14)
    assert lambert_w(0.0) == 0.0
    # W(x e^x) = x
    for x in (0.1, 1.0, 5.0, 20.0):
        assert lambert_w(x * math.exp(x)) == pytest.approx(x, rel=1e-13)


def test_sqrt_exp_value():
    f = catalog_function("one_minus_exp_sqrt_over_z")
    assert f(4.0) == pytest.approx(SQRTEXP_AT_4, rel=1e-14)
    assert f.limit_at_zero() == math.inf or f.limit_at_zero() > 0  # finite?


def test_sqrt_exp_limit_is_finite():
    # (1 - e^{-sqrt z})/z -> diverges like 1/sqrt(z); anchor must be inf
    f = catalog_function("one_minus_exp_sqrt_over_z")
    assert math.isinf(f.limit_at_zero())


def test_power_and_inverse():
    p = catalog_function("power", -0.5)
    assert p(4.0) == pytest.approx(0.5, rel=1e-15)
    assert math.isinf(p.limit_at_zero())
    inv = catalog_function("inverse")
    assert inv(8.0) == pytest.approx(0.125)
    assert inv.is_cauchy
    with pytest.raises(ValueError):
        catalog_function("power", 0.5)  # exponent must lie in (-1, 0)


def test_log1p_over_z():
    f = catalog_function("log1p_over_z")
    assert f(1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert f.limit_at_zero() == pytest.approx(1.0)


def test_rational_combination():
    f = catalog_function("rational", (2.0, 3.0), (-1.0, -4.0))
    # 2/(z+1) + 3/(z+4) at z=2: 2/3 + 1/2
    assert f(2.0) == pytest.approx(2.0 / 3.0 + 0.5, rel=1e-15)
    assert f.is_cauchy
    with pytest.raises(ValueError):
        catalog_function("rational", (2.0,), (1.0,))  # pole must be negative
    with pytest.raises(ValueError):
        catalog_function("rational", (-2.0,), (-1.0,))  # weight must be positive


def test_domain_guard():
    f = catalog_function("power", -0.5)
    with pytest.raises(ValueError):
        f(-1.0)
    with pytest.raises(ValueError):
        f(0.0)
    with pytest.raises(ValueError):
        f(math.nan)


def test_array_and_list_evaluation():
    f = catalog_function("phi", 1)
    arr = f(np.array([0.5, 1.0, 2.0]))
    assert arr.shape == (3,)
    lst = f([0.5, 1.0, 2.0])
    np.testing.assert_allclose(lst, arr)
    assert isinstance(f(1.0), float)


def test_with_shift_replaces():
    f = catalog_function("power", -0.5)
    g = f.with_shift(2.0)
    assert g(2.0) == pytest.approx(0.5)       # evaluates f(z + 2)
    h = g.with_shift(5.0)                      # replace, not accumulate
    assert h.shift == 5.0
    assert h(4.0) == pytest.approx(f(9.0))
    assert g.limit_at_zero() == pytest.approx(f(2.0))


def test_parse_function_spec():
    assert parse_function_spec("phi:1").label == catalog_function("phi", 1).label
    assert parse_function_spec("power:-0.5")(4.0) == pytest.approx(0.5)
    assert parse_function_spec("inverse")(2.0) == pytest.approx(0.5)
    assert parse_function_spec("log1p")(1.0) == pytest.approx(math.log(2.0))
    assert parse_function_spec("sqrt-exp")(4.0) == pytest.approx(SQRTEXP_AT_4)
    f = parse_function_spec("rational:2,-1;3,-4")
    assert f(2.0) == pytest.approx(2.0 / 3.0 + 0.5)
    lw = parse_function_spec("lambertw")
    assert lw(1.0) == pytest.approx(W_AT_1, rel=1e-13)  # 1^{-3/2} W(1)
    with pytest.raises(ValueError):
        parse_function_spec("nope:1")
    # An argument the name cannot use is refused, naming the spec.
    for spec in ("inverse:3", "log1p:7", "lambertw:2", "sqrt-exp:x",
                 "rational:2", "rational:", "phi:2.5", "power:"):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_function_spec(spec)


_W, _P = np.array([2.0, 3.0]), np.array([-1.0, -4.0])

# spec -> the catalog call it stands for, or None where it is refused.
SPEC_TABLE = {
    # every catalog name, bare and (where it takes one) with its argument
    "phi": ("phi",), "phi:": ("phi",), "phi:2": ("phi", 2),
    "power:-0.5": ("power", -0.5), "power:-0.25": ("power", -0.25),
    "log1p_over_z": ("log1p_over_z",),
    "one_minus_exp_sqrt_over_z": ("one_minus_exp_sqrt_over_z",),
    "lambertw_scaled": ("lambertw_scaled",), "inverse": ("inverse",),
    "rational:2,-1;3,-4": ("rational", _W, _P),
    "rational:2,-1;3,-4;": ("rational", _W, _P),
    "rational:2,-1": ("rational", np.array([2.0]), np.array([-1.0])),
    # the four CLI spellings, in any case
    "log1p": ("log1p_over_z",), "LOG1P": ("log1p_over_z",),
    "sqrt-exp": ("one_minus_exp_sqrt_over_z",),
    "Sqrt-Exp": ("one_minus_exp_sqrt_over_z",),
    "lambertw": ("lambertw_scaled",), "LambertW": ("lambertw_scaled",),
    "inv": ("inverse",), "INV": ("inverse",), "PHI:3": ("phi", 3),
    # refused: an argument a name cannot use, a missing one, an unknown name
    **dict.fromkeys(["phi:2.5", "phi:0", "phi:1;", "phi:2,3", "power",
                     "power:", "power:-1", "power:x", "inverse:",
                     "inverse:3", "inv:1", "log1p:7", "lambertw:2",
                     "sqrt-exp:x", "rational", "rational:", "rational:2",
                     "rational:2;3", "rational:2,-1;3", "rational:2,-1,5;3,-4",
                     "rational:2,1", "rational:,", "nope", "nope:1",
                     "nope:x"]),
}


@pytest.mark.parametrize("spec, call", SPEC_TABLE.items(), ids=list(SPEC_TABLE))
def test_function_spec_is_its_catalog_call(spec, call):
    # The spec reading leaves every per-name rule to catalog_function: a
    # spec gives the catalog's function, or a refusal that names the spec.
    if call is None:
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_function_spec(spec)
        return
    got, want = parse_function_spec(spec), catalog_function(*call)
    assert (got.label, got.family, got.base_limit0, got.shift) == (
        want.label, want.family, want.base_limit0, want.shift)
    z = np.array([0.3, 1.0, 2.5, 17.0])
    assert got(z).tobytes() == want(z).tobytes()


@pytest.mark.parametrize("name, params", [
    ("inverse", (3,)), ("log1p_over_z", (7,)), ("phi", (2, 9)),
    ("power", (-0.5, 3)),
])
def test_catalog_refuses_parameters_a_name_cannot_use(name, params):
    # Not the plain function, phi_2 or z^-0.5 without a word.
    with pytest.raises(ValueError, match=f"^{name} takes"):
        catalog_function(name, *params)


@given(st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=1e-6, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_complete_monotonicity_order_zero(z1, z2):
    """Every catalog member is positive and nonincreasing on (0, inf)."""
    lo, hi = sorted((z1, z2))
    for f in (catalog_function("phi", 1), catalog_function("power", -0.3),
              catalog_function("log1p_over_z"), catalog_function("inverse"),
              catalog_function("one_minus_exp_sqrt_over_z")):
        a, b = f(lo), f(hi)
        assert a > 0 and b > 0
        assert b <= a * (1 + 1e-12)


@given(st.floats(min_value=1e-4, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_lambertw_scaled_identity(z):
    # z^{-3/2} W(z) * z^{3/2} must invert back to W(z)
    f = catalog_function("lambertw_scaled")
    w = f(z) * z ** 1.5
    assert w * math.exp(w) == pytest.approx(z, rel=1e-10)


def test_laplace_cauchy_flags():
    assert not catalog_function("phi", 1).is_cauchy
    assert catalog_function("power", -0.5).is_cauchy
