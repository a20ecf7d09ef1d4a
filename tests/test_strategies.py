"""The strategy table: one record per pole family, and the bounds it names."""
import math
import os
import re

import numpy as np
import pytest

from rkstieltjes.bounds import (
    cauchy_bound,
    kron_cauchy_bound,
    kron_laplace_bound,
    laplace_bound,
    singular_value_bound,
)
from rkstieltjes.functions import catalog_function
from rkstieltjes.operators import SpectralInterval, positive_interval
from rkstieltjes.poles import (
    cauchy_kron_poles,
    cauchy_poles,
    eds_poles,
    extended_poles,
    laplace_kron_poles,
    polynomial_poles,
    zolotarev_poles,
)
from rkstieltjes.strategies import (
    CANONICAL,
    KRON_PAIRS,
    STRATEGIES,
    get_strategy,
    strategy_bound,
)

IV = SpectralInterval(0.05, 4.0)
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_names_and_kron_pairs():
    assert list(STRATEGIES) == ["zolotarev", "cauchy", "eds-laplace",
                                "eds-cauchy", "extended", "polynomial",
                                "custom"]
    assert list(KRON_PAIRS) == ["laplace-kron", "cauchy-kron", "eds-laplace",
                                "eds-cauchy", "extended", "polynomial"]
    assert CANONICAL == {"laplace": "zolotarev", "cauchy": "cauchy"}


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_each_record_has_one_pole_source(name):
    s = STRATEGIES[name]
    assert (s.stream is None) != (s.fixed is None)
    assert s.nested == (name not in ("zolotarev", "cauchy"))


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown strategy 'chebyshev'"):
        get_strategy("chebyshev")


@pytest.mark.parametrize("name, want", [
    ("zolotarev", lambda n: zolotarev_poles(IV, n).poles),
    ("cauchy", lambda n: cauchy_poles(IV, n).poles),
    ("eds-laplace", lambda n: eds_poles(IV, n, "laplace").poles),
    ("eds-cauchy", lambda n: eds_poles(IV, n, "cauchy").poles),
    ("extended", lambda n: extended_poles(n).poles),
    ("polynomial", lambda n: polynomial_poles(n).poles),
])
def test_first_poles_match_pole_functions(name, want):
    for count in (1, 2, 7):
        np.testing.assert_array_equal(STRATEGIES[name].first(IV, count),
                                      want(count))


def test_custom_stream():
    stream = STRATEGIES["custom"].stream
    assert list(stream(None, [-1.0, -2.0])) == [-1.0, -2.0]
    for empty in (None, []):
        with pytest.raises(ValueError, match="non-empty"):
            stream(None, empty)
    with pytest.raises(ValueError, match=">= 1"):
        STRATEGIES["zolotarev"].first(IV, 0)


def test_kron_pairs():
    for name, maker in (("laplace-kron", laplace_kron_poles),
                        ("cauchy-kron", cauchy_kron_poles)):
        psi, xi = maker(IV, 6)
        assert KRON_PAIRS[name].poles(IV, 6) == (list(psi.poles),
                                                 list(xi.poles))
    psi, xi = KRON_PAIRS["eds-laplace"].poles(IV, 6)
    assert psi == list(eds_poles(IV, 6, "laplace").poles)
    assert xi == [-p for p in psi]
    psi, xi = KRON_PAIRS["eds-cauchy"].poles(IV, 6)
    assert xi == [-p for p in psi] and all(p < 0 for p in psi)
    for name in ("extended", "polynomial"):
        psi, xi = KRON_PAIRS[name].poles(IV, 5)
        assert psi == xi == list(STRATEGIES[name].first(IV, 5))


def test_bounds_named_by_the_table():
    phi = catalog_function("phi", 1)
    power = catalog_function("power", -0.5)
    assert STRATEGIES["zolotarev"].bound(phi, IV, 6, 2.0) == laplace_bound(
        phi, IV, 6, 2.0)
    assert STRATEGIES["eds-cauchy"].bound(power, IV, 6, 2.0) == cauchy_bound(
        power, IV, 6, 2.0)
    assert KRON_PAIRS["laplace-kron"].bound(
        phi, IV, 6, 2.0, conjectured_gamma=True) == kron_laplace_bound(
            phi, IV, 6, 2.0, conjectured_gamma=True)
    assert KRON_PAIRS["cauchy-kron"].bound(power, IV, 6, 2.0) == \
        kron_cauchy_bound(power, IV, 6, 2.0)
    # phi_1 is not a Cauchy-Stieltjes function: no Cauchy certificate.
    for bound in (STRATEGIES["cauchy"].bound, STRATEGIES["eds-cauchy"].bound,
                  KRON_PAIRS["cauchy-kron"].bound):
        assert math.isnan(bound(phi, IV, 6, 2.0))
    for name in ("extended", "polynomial", "custom"):
        assert math.isnan(STRATEGIES[name].bound(phi, IV, 6, 2.0))
    for name in ("eds-laplace", "eds-cauchy", "extended", "polynomial"):
        assert math.isnan(KRON_PAIRS[name].bound(power, IV, 6, 2.0))
    for name, record in STRATEGIES.items():
        for f in (phi, power):
            want = record.bound(f, IV, 6, 2.0)
            got = strategy_bound(name, f, IV, 6, 2.0)
            assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("ell", [1, 5, 17])
def test_laplace_and_cauchy_type_bounds_share_their_forms(ell):
    # The Laplace-type bounds differ only in the constant (8 or 16); the
    # two f(2a) rho_[a,2b]^l Cauchy forms only in the (1 + kappa) factor.
    f = catalog_function("phi", 1)
    g = catalog_function("power", -0.5)
    kron = kron_laplace_bound(f, IV, ell, 3.0)
    assert laplace_bound(f, IV, ell, 3.0) == pytest.approx(kron / 2, rel=1e-15)
    assert singular_value_bound(f, IV, ell, 3.0, "laplace") == kron
    rho = math.exp(-math.pi ** 2 / math.log(4.0 * 2.0 * IV.upper / IV.lower))
    want = 4.0 * g.at(2.0 * IV.lower) * 3.0 * rho ** ell
    assert singular_value_bound(g, IV, ell, 3.0, "cauchy") == pytest.approx(
        want, rel=1e-15)
    assert kron_cauchy_bound(g, IV, ell, 3.0) == pytest.approx(
        (1.0 + IV.kappa) * want, rel=1e-15)


def test_positive_interval():
    assert positive_interval((0.5, 2)) == SpectralInterval(0.5, 2.0)
    assert positive_interval(IV) is IV
    with pytest.raises(ValueError, match="not positive"):
        positive_interval((0.0, 1.0))
    with pytest.raises(ValueError, match="empty"):
        positive_interval((2.0, 1.0))


def test_readme_lists_every_name_once():
    with open(README) as fh:
        text = fh.read()
    rows = re.findall(r"^\| `([a-z-]+)` \|", text, flags=re.M)
    assert rows == list(STRATEGIES)
