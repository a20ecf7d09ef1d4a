"""A-priori error bounds attached to the certified pole families.

All bounds are products (constant) * (rate)^steps with the constant built
from a function anchor (f(0+), f(a) or f(2a)), the interval condition
ratio and the seed norm.  They are exact consequences of the pole
construction, so the experiment layer may assert observed <= bound for the
certified strategies at every step.

Every certificate is ``bound(f, interval, ell, norm)`` and checks its own
function class: the Laplace-type bounds hold for every completely monotonic
f, the Cauchy-type ones are nan unless f is Cauchy-Stieltjes.
"""

from __future__ import annotations

import math

from .operators import SpectralInterval, count, positive_interval
from .poles import gamma_const, rate_rho

__all__ = [
    "laplace_bound",
    "cauchy_bound",
    "kron_laplace_bound",
    "kron_cauchy_bound",
    "sylvester_residual_bound",
    "singular_value_bound",
]


def _laplace_type(const: float, f, iv: SpectralInterval, ell: int,
                  norm: float) -> float:
    """const * gamma_{l,kappa} * f(0+) * norm * rho_{[a,b]}^(l/2); infinite
    when the anchor f(0+) diverges."""
    anchor = f.limit_at_zero()
    if math.isinf(anchor):
        return math.inf
    return (const * gamma_const(ell, iv.kappa) * anchor * norm
            * rate_rho(iv.lower, iv.upper) ** (0.5 * ell))


def _cauchy_mirror(f, iv: SpectralInterval, ell: int, norm: float,
                   factor: float = 1.0) -> float:
    """4 * f(2a) * factor * norm * rho_{[a,2b]}^l, the Cauchy-class rate
    against the mirrored interval; nan unless f is Cauchy-Stieltjes."""
    ell = count(ell, "ell")
    if not f.is_cauchy:
        return math.nan
    return (4.0 * f(2.0 * iv.lower) * factor * norm
            * rate_rho(iv.lower, 2.0 * iv.upper) ** ell)


def laplace_bound(f, interval, ell: int, norm: float) -> float:
    """8 * gamma_{l,kappa} * f(0+) * ||v|| * rho_{[a,b]}^(l/2).

    Valid for every completely monotonic f with finite f(0+) when the
    symmetric-interval poles of [a,b] are used; infinite when the anchor
    diverges (use a shifted function/operator pair to recover a finite
    constant).
    """
    return _laplace_type(8.0, f, positive_interval(interval), ell, norm)


def cauchy_bound(f, interval, ell: int, norm: float) -> float:
    """8 * f(a) * ||v|| * rho_{[a,4b]}^l for Cauchy-Stieltjes f with the
    half-line pole family; nan for any other f."""
    ell = count(ell, "ell")
    if not f.is_cauchy:
        return math.nan
    iv = positive_interval(interval)
    return 8.0 * f(iv.lower) * norm * rate_rho(iv.lower, 4.0 * iv.upper) ** ell


def kron_laplace_bound(f, interval, ell: int, norm: float) -> float:
    """16 * gamma_{l,kappa} * f(0+) * rho_{[a,b]}^(l/2) * ||F||_2."""
    return _laplace_type(16.0, f, positive_interval(interval), ell, norm)


def kron_cauchy_bound(f, interval, ell: int, norm: float) -> float:
    """4 * f(2a) * (1 + kappa) * rho_{[a,2b]}^l * ||F||_2 for
    Cauchy-Stieltjes f; nan for any other f."""
    iv = positive_interval(interval)
    return _cauchy_mirror(f, iv, ell, norm, factor=1.0 + iv.kappa)


def sylvester_residual_bound(interval, ell: int, fnorm: float) -> float:
    """(1 + kappa) * 4 * rho_{[a,b]}^l * ||F||_2 for the mirrored
    Zolotarev pole pair (Psi, -Psi)."""
    ell = count(ell, "ell")
    iv = positive_interval(interval)
    return (1.0 + iv.kappa) * 4.0 * rate_rho(iv.lower, iv.upper) ** ell * fnorm


def singular_value_bound(f, interval, ell: int, norm: float) -> float:
    """Decay bound on sigma_{1 + l*k} of the exact solution X for the class
    of f: 4 f(2a) rho_{[a,2b]}^l ||F||_2 for Cauchy-Stieltjes f and
    16 gamma_{l,kappa} f(0+) rho_{[a,b]}^(l/2) ||F||_2 for the others."""
    iv = positive_interval(interval)
    if f.is_cauchy:
        return _cauchy_mirror(f, iv, ell, norm)
    return _laplace_type(16.0, f, iv, ell, norm)
