"""The strategy table: one record per pole family, and the bounds it names."""
import inspect
import itertools
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
    eds_pole_iter,
    gamma_const,
    laplace_kron_poles,
    rate_rho,
    zolotarev_poles,
)
from rkstieltjes.strategies import (
    CANONICAL,
    KRON_PAIRS,
    STRATEGIES,
    get_strategy,
    mirror,
    strategy_bound,
)

IV = SpectralInterval(0.05, 4.0)
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
CUSTOM = get_strategy([-1.0, -2.0])


def _eds(iv, ell, variant):
    """The first ``ell`` poles of ``eds_pole_iter(iv, variant)``."""
    return list(itertools.islice(eds_pole_iter(iv, variant), ell))


def test_names_and_kron_pairs():
    assert list(STRATEGIES) == ["zolotarev", "cauchy", "eds-laplace",
                                "eds-cauchy", "extended", "polynomial"]
    assert list(KRON_PAIRS) == ["laplace-kron", "cauchy-kron", "eds-laplace",
                                "eds-cauchy", "extended", "polynomial"]
    assert CANONICAL == {"laplace": "zolotarev", "cauchy": "cauchy"}


@pytest.mark.parametrize("s", [
    *(pytest.param(s, id=name) for name, s in STRATEGIES.items()),
    pytest.param(CUSTOM, id="custom"),
    *(pytest.param(s, id=f"kron-{name}") for name, s in KRON_PAIRS.items()),
])
def test_each_record_has_one_pole_source(s):
    assert (s.stream is None) != (s.fixed is None)
    assert s.nested == (s.name not in ("zolotarev", "cauchy", "laplace-kron",
                                       "cauchy-kron"))


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown strategy 'chebyshev'"):
        get_strategy("chebyshev")


@pytest.mark.parametrize("name, want", [
    ("zolotarev", lambda n: zolotarev_poles(IV, n)),
    ("cauchy", lambda n: cauchy_poles(IV, n)),
    ("eds-laplace", lambda n: _eds(IV, n, "laplace")),
    ("eds-cauchy", lambda n: _eds(IV, n, "cauchy")),
    # The closed forms of extended and plain Krylov.
    ("extended", lambda n: [math.inf if j % 2 == 0 else 0.0
                            for j in range(n)]),
    ("polynomial", lambda n: [math.inf] * n),
])
def test_first_poles_match_pole_functions(name, want):
    for count in (1, 2, 7):
        np.testing.assert_array_equal(STRATEGIES[name].first(IV, count),
                                      want(count))


@pytest.mark.parametrize("s, variant", [
    pytest.param(STRATEGIES["eds-laplace"], "laplace", id="eds-laplace"),
    pytest.param(STRATEGIES["eds-cauchy"], "cauchy", id="eds-cauchy"),
    pytest.param(KRON_PAIRS["eds-cauchy"], "kron-cauchy", id="kron-cauchy"),
])
def test_eds_families_are_prefixes_of_eds_pole_iter(s, variant):
    # Every EDS variant's first(iv, ell), to the bit, at intervals and
    # counts beyond IV: the first ell poles of its eds_pole_iter stream.
    for iv in ((1.0, 9.0), (2.5e-6, 4.0), (1e-2, 1.6e4)):
        for ell in (1, 5, 40):
            got, want = s.first(iv, ell), _eds(iv, ell, variant)
            assert [repr(p) for p in got] == [repr(p) for p in want]


def test_custom_stream():
    assert CUSTOM.name == "custom" and CUSTOM.nested
    assert not CUSTOM.needs_interval
    assert list(CUSTOM.stream(None)) == [-1.0, -2.0]
    assert list(CUSTOM.stream(IV)) == [-1.0, -2.0]  # a fresh pass each time
    assert CUSTOM.first(IV, 5) == [-1.0, -2.0]  # a short list stops early
    assert get_strategy(np.array([-3.0, math.inf])).first(None, 2) == [
        -3.0, math.inf]
    for empty in ([], (), np.array([])):
        with pytest.raises(ValueError, match="custom pole list is empty"):
            get_strategy(empty)
    with pytest.raises(ValueError, match=">= 1"):
        STRATEGIES["zolotarev"].first(IV, 0)


@pytest.mark.parametrize("poles, index", [
    ([math.nan], 0), ([-1.0, math.inf, np.nan], 2),
    (np.array([-1.0, complex(-2.0, math.nan)]), 1),
], ids=["nan", "third-of-three", "complex-nan-part"])
def test_custom_nan_pole_refused_by_index(poles, index):
    # Refused when the list is read, not at a shifted solve.
    with pytest.raises(ValueError) as exc:
        get_strategy(poles)
    assert str(exc.value) == f"strategy: pole {index} is NaN"


def test_kron_pairs():
    for name, maker in (("laplace-kron", laplace_kron_poles),
                        ("cauchy-kron", cauchy_kron_poles)):
        psi, xi = maker(IV, 6)
        assert KRON_PAIRS[name].poles(IV, 6) == (list(psi), list(xi))
    psi, xi = KRON_PAIRS["eds-laplace"].poles(IV, 6)
    assert psi == _eds(IV, 6, "laplace")
    assert xi == [-p for p in psi]
    psi, xi = KRON_PAIRS["eds-cauchy"].poles(IV, 6)
    assert xi == [-p for p in psi] and all(p < 0 for p in psi)
    for name in ("extended", "polynomial"):
        psi, xi = KRON_PAIRS[name].poles(IV, 5)
        assert psi == xi == list(STRATEGIES[name].first(IV, 5))
    # Both spaces take the left poles: the right space lives on -B, where
    # a literal right pole xi is -xi, the left pole again (0 and inf are
    # their own mirror images).
    for name, pair in KRON_PAIRS.items():
        psi, xi = pair.poles(IV, 6)
        assert psi == pair.first(IV, 6)
        assert all(-x == p or math.isinf(x) and math.isinf(p)
                   for p, x in zip(psi, xi)), name


def test_mirror_is_an_involution_fixing_zero_and_infinity():
    for p in (-3.5, 0.25, np.float64(-2.0), -1.0 + 0.5j, 2.0 - 3.0j):
        assert mirror(p) == -p and mirror(mirror(p)) == p
    # Poles as they are read: -0.0 is 0.0 and -inf is inf, so each zero
    # and infinity has the image 0.0 or inf, and that image is its own.
    for p, want in ((0.0, 0.0), (-0.0, 0.0), (math.inf, math.inf),
                    (-math.inf, math.inf), (complex(-math.inf, 0.0), math.inf)):
        image = mirror(p)
        assert repr(image) == repr(want) and repr(mirror(image)) == repr(want)


POINT = (2.0, 2.0)
SINGLE_POINT = re.escape(
    "interval [2, 2] is a single point; the Cauchy pole families need a < b")


@pytest.mark.parametrize("poles", [
    pytest.param(lambda: STRATEGIES["cauchy"].first(POINT, 3), id="cauchy"),
    pytest.param(lambda: STRATEGIES["eds-cauchy"].first(POINT, 3),
                 id="eds-cauchy"),
    pytest.param(lambda: KRON_PAIRS["cauchy-kron"].poles(POINT, 3),
                 id="cauchy-kron"),
    pytest.param(lambda: KRON_PAIRS["eds-cauchy"].poles(POINT, 3),
                 id="kron-cauchy-stream"),
])
def test_cauchy_families_refuse_a_single_point(poles):
    with pytest.raises(ValueError, match=SINGLE_POINT):
        poles()


WIDE = (1e-300, 1e300)  # a/b underflows to 0
TOO_WIDE = re.escape(
    "interval [1e-300, 1e+300] is too wide for the pole families: its "
    "lower endpoint normalized by the upper one underflows to 0")


@pytest.mark.parametrize("poles", [
    *(pytest.param(lambda name=name: STRATEGIES[name].first(WIDE, 3), id=name)
      for name in ("zolotarev", "cauchy", "eds-laplace", "eds-cauchy")),
    *(pytest.param(lambda name=name: KRON_PAIRS[name].poles(WIDE, 3),
                   id=f"kron-{name}")
      for name in ("laplace-kron", "cauchy-kron", "eds-laplace",
                   "eds-cauchy")),
])
def test_interval_families_name_an_underflowing_interval(poles):
    with pytest.raises(ValueError, match=TOO_WIDE):
        poles()


def test_baselines_ignore_an_underflowing_interval():
    for name in ("extended", "polynomial"):
        assert STRATEGIES[name].first(WIDE, 2) == STRATEGIES[name].first(
            None, 2)
        assert KRON_PAIRS[name].poles(WIDE, 2) == KRON_PAIRS[name].poles(
            None, 2)


def test_laplace_families_sit_at_a_single_point():
    for name in ("zolotarev", "eds-laplace"):
        assert STRATEGIES[name].first(POINT, 3) == [-2.0] * 3, name
    for name in ("laplace-kron", "eds-laplace"):
        assert KRON_PAIRS[name].poles(POINT, 3) == ([-2.0] * 3, [2.0] * 3)


def test_bounds_named_by_the_table():
    phi = catalog_function("phi", 1)
    power = catalog_function("power", -0.5)
    assert STRATEGIES["zolotarev"].bound(phi, IV, 6, 2.0) == laplace_bound(
        phi, IV, 6, 2.0)
    assert STRATEGIES["eds-cauchy"].bound(power, IV, 6, 2.0) == cauchy_bound(
        power, IV, 6, 2.0)
    assert KRON_PAIRS["laplace-kron"].bound(phi, IV, 6, 2.0) == \
        kron_laplace_bound(phi, IV, 6, 2.0)
    assert KRON_PAIRS["cauchy-kron"].bound(power, IV, 6, 2.0) == \
        kron_cauchy_bound(power, IV, 6, 2.0)
    # phi_1 is not a Cauchy-Stieltjes function: no Cauchy certificate.
    for bound in (STRATEGIES["cauchy"].bound, STRATEGIES["eds-cauchy"].bound,
                  KRON_PAIRS["cauchy-kron"].bound, cauchy_bound,
                  kron_cauchy_bound):
        assert math.isnan(bound(phi, IV, 6, 2.0))
    for record in (STRATEGIES["extended"], STRATEGIES["polynomial"], CUSTOM):
        assert math.isnan(record.bound(phi, IV, 6, 2.0))
    for name in ("eds-laplace", "eds-cauchy", "extended", "polynomial"):
        assert math.isnan(KRON_PAIRS[name].bound(power, IV, 6, 2.0))
    for record in (*STRATEGIES.values(), CUSTOM):
        for f in (phi, power):
            want = record.bound(f, IV, 6, 2.0)
            got = strategy_bound(record, f, IV, 6, 2.0)
            assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("ell", [1, 5, 17])
def test_laplace_and_cauchy_type_bounds_share_their_forms(ell):
    # The Laplace-type bounds differ only in the constant (8 or 16); the
    # two f(2a) rho_[a,2b]^l Cauchy forms only in the (1 + kappa) factor.
    # singular_value_bound takes the form of the class of f: Laplace for
    # phi_1, Cauchy for z^-1/2.
    f = catalog_function("phi", 1)
    g = catalog_function("power", -0.5)
    kron = kron_laplace_bound(f, IV, ell, 3.0)
    assert laplace_bound(f, IV, ell, 3.0) == pytest.approx(kron / 2, rel=1e-15)
    assert singular_value_bound(f, IV, ell, 3.0) == kron
    rho = math.exp(-math.pi ** 2 / math.log(4.0 * 2.0 * IV.upper / IV.lower))
    want = 4.0 * g(2.0 * IV.lower) * 3.0 * rho ** ell
    assert singular_value_bound(g, IV, ell, 3.0) == pytest.approx(
        want, rel=1e-15)
    assert kron_cauchy_bound(g, IV, ell, 3.0) == pytest.approx(
        (1.0 + IV.kappa) * want, rel=1e-15)


def test_observed_gamma_one_curve_is_a_bound_over_gamma_const():
    phi = catalog_function("phi", 1)
    rho = rate_rho(IV.lower, IV.upper)
    for ell in (1, 6, 40):
        assert laplace_bound(phi, IV, ell, 2.0) / gamma_const(
            ell, IV.kappa) == pytest.approx(
                8.0 * phi.limit_at_zero() * 2.0 * rho ** (0.5 * ell),
                rel=1e-14)


ALL_BOUNDS = {
    **{f"strategy:{name}": s.bound for name, s in STRATEGIES.items()},
    "strategy:custom": CUSTOM.bound,
    **{f"kron:{name}": p.bound for name, p in KRON_PAIRS.items()},
    **{b.__name__: b for b in (laplace_bound, cauchy_bound, kron_laplace_bound,
                               kron_cauchy_bound, singular_value_bound)},
}


@pytest.mark.parametrize("name", ALL_BOUNDS)
def test_every_bound_has_one_signature(name):
    assert list(inspect.signature(ALL_BOUNDS[name]).parameters) == [
        "f", "interval", "ell", "norm"]


def test_positive_interval():
    assert positive_interval((0.5, 2)) == SpectralInterval(0.5, 2.0)
    assert positive_interval(IV) is IV
    with pytest.raises(ValueError, match="not positive"):
        positive_interval((0.0, 1.0))
    with pytest.raises(ValueError, match="empty"):
        positive_interval((2.0, 1.0))


def _readme_strategy_table():
    """The cells of the rows of README's strategy table."""
    with open(README) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| name | poles | 1-D bound | Kronecker pair (bound) |")
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[start + 2:])
    return [[cell.strip() for cell in row.strip("|").split("|")]
            for row in rows]


def test_readme_lists_every_name_once():
    # One row per table name, then the caller's own list.
    names = [cells[0] for cells in _readme_strategy_table()]
    assert names == [*(f"`{name}`" for name in STRATEGIES), "`strategy=[…]`"]


def test_readme_names_only_kron_pairs_of_the_table():
    # A pair's name is a backticked word of letters and hyphens; bounds
    # carry underscores and the CLI's custom pair spaces.
    named = [name for cells in _readme_strategy_table()
             for name in re.findall(r"`([a-z]+(?:-[a-z]+)*)`", cells[3])]
    assert named == list(KRON_PAIRS)
