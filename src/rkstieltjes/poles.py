"""Pole sequences for rational Krylov approximation of Stieltjes functions.

The optimal fixed-count sequences come from the classical third Zolotarev
problem on [-b,-a] u [a,b]: the extremal rational function has its poles at
-b*dn((2j-1)K/(2l)), expressed through the complete elliptic integral K
(``scipy.special.ellipkm1``) and the Jacobi dn function (the ascending
Landen transformation), both at the complementary modulus k' = a/b as
their only modulus.  Asymmetric problems (one interval against a half-line,
or against the mirror interval) reduce to the symmetric one through a
Moebius chart T(z) = (Delta + z - b)/(Delta - z + b); the poles of
the normalized problem come back through one closed-form pullback, giving
the half-line ("cauchy") and mirror-pair ("cauchy-kron") sequences.

For stopping-criterion driven runs the fixed-count sequences are awkward
because they are not nested; the equidistributed sequences (EDS) trade a
provable constant for nestedness.  They invert the cumulative equilibrium
distribution g at s_j = frac(j/sqrt(2)) in closed form, dn((1 - s_j) K).

Everything here is plain float arithmetic, and every pole family returns a
1-D float array; ``inf`` entries mark polynomial (Krylov) steps and are
legal in every consumer.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator

import numpy as np
from scipy.special import ellipkm1

from .operators import count, positive_interval

__all__ = [
    "elliptic_K",
    "jacobi_dn",
    "rate_rho",
    "gamma_const",
    "zolotarev_poles",
    "mobius_cauchy",
    "mobius_kron",
    "cauchy_poles",
    "laplace_kron_poles",
    "cauchy_kron_poles",
    "extended_poles",
    "polynomial_poles",
    "EDS_ZETA",
    "eds_next",
    "eds_poles",
    "eds_pole_iter",
    "zolotarev_ratio",
    "write_pole_file",
    "read_pole_file",
]


# ---------------------------------------------------------------------------
# elliptic special functions


def elliptic_K(kprime: float) -> float:
    """Complete elliptic integral K at complementary modulus k' in (0, 1].

    K is read from ``scipy.special.ellipkm1(k'^2)``; k' is the quantity
    every pole family holds (a/b or a chart's endpoint), so k = sqrt(1 - k'^2)
    is never formed and extreme condition ratios lose nothing.  Below
    k' = 1e-8, K = log(4/k') to rounding; that form is used there, so a k'^2
    that underflows still gives a finite K.  k' = 1 gives K = pi/2.
    """
    kprime = float(kprime)
    if not 0.0 < kprime <= 1.0:
        raise ValueError(f"complementary modulus must lie in (0,1], got {kprime}")
    if kprime < 1e-8:
        return math.log(4.0) - math.log(kprime)
    return float(ellipkm1(kprime * kprime))


def jacobi_dn(u, kprime: float):
    """Jacobi elliptic dn(u, k) for real u, complementary modulus k' in (0, 1].

    Ascending Landen transformation (A&S 16.14.3) until k' <= 1e-9, where
    the expansion about k = 1 (A&S 16.15.3) is exact to rounding.  Every
    term is positive, so nothing cancels: the result is accurate to a few
    ulps relative over the whole period (small values near u = K too) for
    k' down to 1e-12, and finite without overflow for subnormal k'.
    k' = 1 (k = 0) gives dn = 1 exactly.
    """
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    arr = np.abs(np.atleast_1d(arr).astype(float))  # dn is even
    kprime = float(kprime)
    period = 2.0 * elliptic_K(kprime)  # refuses k' outside (0, 1]
    if kprime == 1.0:
        return 1.0 if scalar else np.ones_like(arr)
    k = math.sqrt((1.0 - kprime) * (1.0 + kprime))
    # dn has period 2K; the base expansion holds on [0, K] only.
    v = arr % period
    v = np.minimum(v, period - v)
    chain = []
    while kprime > 1e-9 and len(chain) < 64:
        r = kprime * kprime / ((1.0 + k) * (1.0 + k))
        v = v / (1.0 + r)
        k, kprime = 2.0 * math.sqrt(k) / (1.0 + k), r
        chain.append(r)
    # (1 + h^2 (sinh v cosh v + v) tanh v) / cosh v with h = k'/2, where
    # h^2 sinh v cosh v tanh v = (h sinh v)^2 stays <= 1 on [0, K] while
    # sinh v cosh v alone overflows for small k'.
    if kprime >= 1e-300:
        h = 0.5 * kprime
        c, hs = np.cosh(v), h * np.sinh(v)
        d = (1.0 + hs * hs + h * h * v * np.tanh(v)) / c
    else:  # cosh K overflows: (h sinh v)^2 = exp(2 (v + log(k'/4))), h^2 = 0
        w = np.exp(-v)
        d = ((1.0 + np.exp(2.0 * (v + (math.log(kprime) - math.log(4.0)))))
             * (2.0 * w / (1.0 + w * w)))
    for r in reversed(chain):
        d = (d * d + r) / ((1.0 + r) * d)
    return float(d[0]) if scalar else d


# ---------------------------------------------------------------------------
# convergence-rate constants


def rate_rho(alpha: float, beta: float) -> float:
    """exp(-pi^2 / log(4*beta/alpha)), the per-step Zolotarev rate for
    [alpha, beta] against its mirror image."""
    alpha, beta = float(alpha), float(beta)
    if not 0.0 < alpha <= beta:
        raise ValueError(f"need 0 < alpha <= beta, got [{alpha}, {beta}]")
    return math.exp(-math.pi ** 2 / math.log(4.0 * beta / alpha))


def gamma_const(ell: int, kappa: float) -> float:
    """Slowly growing constant 2.23 + (2/pi) log(4 l sqrt(kappa/pi)) of the
    Laplace-type bounds."""
    ell = count(ell, "ell")
    if not kappa >= 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa!r}")
    return 2.23 + (2.0 / math.pi) * math.log(4.0 * ell * math.sqrt(kappa / math.pi))


# ---------------------------------------------------------------------------
# pole sequences


def _inner_endpoint(iv, endpoint: float) -> float:
    """``endpoint``, the inner end of ``iv`` normalized into (0, 1]."""
    if not endpoint > 0.0:
        raise ValueError(
            f"interval [{iv.lower:g}, {iv.upper:g}] is too wide for the pole "
            "families: its lower endpoint normalized by the upper one "
            "underflows to 0")
    return endpoint


def zolotarev_poles(interval, ell: int) -> np.ndarray:
    """Optimal poles for [a,b] against [-b,-a]: -b*dn((2j-1)K/(2l)).

    The complementary modulus a/b is passed through exactly, so extreme
    condition ratios do not lose the inner endpoint.  A one-point interval
    gives k' = 1, dn = 1 and every pole at -a.
    """
    iv = positive_interval(interval)
    ell = count(ell, "ell")
    ratio = _inner_endpoint(iv, iv.lower / iv.upper)
    j = np.arange(1, ell + 1, dtype=float)
    u = (2.0 * j - 1.0) * elliptic_K(ratio) / (2.0 * ell)
    return -iv.upper * jacobi_dn(u, ratio)


# ---------------------------------------------------------------------------
# Moebius charts


Pullback = Callable[[np.ndarray], np.ndarray]


def _chart(interval, mirror: bool) -> tuple[float, Pullback]:
    """(endpoint, pullback) of T(z) = (Delta + z - b) / (Delta - z + b).

    T fixes the shape of both charts; only Delta differs.  A normalized
    pole -sigma pulls back to (b + Delta) (c - sigma) / (1 - sigma) with
    c = (b - Delta)/(b + Delta) = (b^2 - Delta^2)/(b + Delta)^2, so c is
    formed without the subtraction b - Delta that loses every digit of a
    small a/b.  Everything is computed in units of b (r = a/b,
    d = Delta/b), so no product of endpoints under- or overflows.
    """
    iv = positive_interval(interval)
    a, b = iv.lower, iv.upper
    if not a < b:
        raise ValueError(f"interval [{a:g}, {b:g}] is a single point; "
                         "the Cauchy pole families need a < b")
    r = a / b
    if mirror:
        d = math.sqrt((1.0 - r) * (1.0 + r))
        endpoint = 2.0 * r * (1.0 - r) / (d + 1.0 - r) ** 2
        c = r * r / (1.0 + d) ** 2
    else:
        d = math.sqrt(1.0 - r)
        endpoint = c = r / (1.0 + d) ** 2
    scale = b * (1.0 + d)
    return (_inner_endpoint(iv, endpoint),
            lambda sigma: scale * (c - sigma) / (1.0 - sigma))


def mobius_cauchy(interval) -> tuple[float, Pullback]:
    """Chart sending (-inf, 0] u [a, b] onto [-1, -a^] u [a^, 1].

    Delta = sqrt(b^2 - a*b), a^ = a*b/(b + Delta)^2, and 1/a^ <= 4b/a.
    Returns a^ and the pullback sigma -> T^-1(-sigma).
    """
    return _chart(interval, mirror=False)


def mobius_kron(interval) -> tuple[float, Pullback]:
    """Chart sending (-inf, -a] u [a, b] onto [-1, -a~] u [a~, 1].

    Delta = sqrt(b^2 - a^2), a~ = 2a(b-a)/(Delta + b - a)^2, and
    1/a~ <= 2b/a.  Returns a~ and the pullback sigma -> T^-1(-sigma).
    """
    return _chart(interval, mirror=True)


def cauchy_poles(interval, ell: int) -> np.ndarray:
    """Poles for [a,b] against the half-line (-inf, 0].

    The symmetric Zolotarev poles of the normalized interval [a^, 1] are
    pulled back through the half-line chart; all images are negative
    reals.
    """
    endpoint, pullback = mobius_cauchy(interval)
    return pullback(-zolotarev_poles((endpoint, 1.0), ell))


def laplace_kron_poles(interval, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical Kronecker pole pair for Laplace-class functions.

    The left factor takes the symmetric Zolotarev poles of [a,b]; the
    literal right-side set is their elementwise negation (the right space
    is built on -B, where these become the same Zolotarev poles again).
    """
    psi = zolotarev_poles(interval, ell)
    return psi, -psi


def cauchy_kron_poles(interval, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker pole pair for Cauchy-class functions.

    Psi is the pullback of the Zolotarev poles of [a~, 1] through the
    mirror-pair chart (all negative); Xi is its elementwise negation.
    """
    endpoint, pullback = mobius_kron(interval)
    psi = pullback(-zolotarev_poles((endpoint, 1.0), ell))
    return psi, -psi


def extended_poles(ell: int) -> np.ndarray:
    """Alternating inf, 0, inf, 0, ... (extended Krylov), length ell."""
    return np.where(np.arange(count(ell, "ell")) % 2 == 0, math.inf, 0.0)


def polynomial_poles(ell: int) -> np.ndarray:
    """All-inf sequence (plain Krylov), length ell."""
    return np.full(count(ell, "ell"), math.inf)


# ---------------------------------------------------------------------------
# equidistributed sequences (EDS)


#: Step of the equidistribution targets s_j = frac(j * EDS_ZETA).
EDS_ZETA = 1.0 / math.sqrt(2.0)


def eds_next(lower: float, norm_const: float, j: int) -> float:
    """Node sigma-tilde_j = sqrt(t_j) in [lower, 1], g(t_j) = frac(j/sqrt(2)).

    ``norm_const`` is M = ``elliptic_K(lower)``; t = dn^2(u, k) with
    k' = lower turns g(t) into 1 - u/M.
    """
    s = math.modf(j * EDS_ZETA)[0]
    return jacobi_dn((1.0 - s) * norm_const, lower)


def eds_pole_iter(interval, variant: str) -> Iterator[float]:
    """Infinite stream of EDS poles for ``interval``.

    ``variant="laplace"`` rescales the normalized points to [-b, -a];
    ``variant="cauchy"`` pulls their negatives back through the half-line
    chart ``mobius_cauchy`` of the original interval.  ``"kron-cauchy"``
    (the left poles of the nested two-sided Cauchy pair) starts the
    sequence at the inner endpoint of the mirror chart ``mobius_kron``
    and pulls back through that chart instead.
    """
    iv = positive_interval(interval)
    a, b = iv.lower, iv.upper
    if variant == "laplace":
        lower, emit = _inner_endpoint(iv, a / b), lambda sig: -b * sig
    elif variant == "cauchy":
        lower, emit = a / b, mobius_cauchy(iv)[1]
    elif variant == "kron-cauchy":
        lower, emit = mobius_kron(iv)
    else:
        raise ValueError(f"unknown EDS variant {variant!r}")
    norm_const = elliptic_K(lower)
    for j in itertools.count(1):
        yield emit(eds_next(lower, norm_const, j))


def eds_poles(interval, ell: int, variant: str) -> np.ndarray:
    """First ``ell`` EDS poles; prefixes of a fixed infinite sequence."""
    it = eds_pole_iter(interval, variant)
    return np.array([next(it) for _ in range(count(ell, "ell"))])


# ---------------------------------------------------------------------------
# the witness ratio


#: Chebyshev points of the ``zolotarev_ratio`` search on [a, b].
RATIO_GRIDSIZE = 2000


def zolotarev_ratio(poles, interval) -> float:
    """Witness ratio max_{[a,b]} |r| / min_{[-b,-a]} |r| of the symmetric
    candidate r(z) = prod (z + p_j) / (z - p_j).

    Since r(-z) = 1/r(z), the minimum over [-b, -a] is 1/max over [a, b],
    and the ratio is that maximum squared.  The maximum is searched on a
    Chebyshev grid (extrema of near-optimal rationals cluster at the
    endpoints) and polished by zooming in on the best point.  Poles must
    be finite and outside [a, b], and 0 < a < b.
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=float))
    if not np.all(np.isfinite(poles)):
        raise ValueError(
            "pole sequence contains inf entries; the symmetric candidate "
            "requires finite poles")
    a, b = (float(t) for t in interval)
    if not 0.0 < a < b < math.inf:
        raise ValueError(f"interval [{a}, {b}] must satisfy 0 < a < b < inf")
    inside = (poles >= a) & (poles <= b)
    if np.any(inside):
        raise ValueError(
            f"pole {poles[inside][0]} lies inside [{a}, {b}]; the ratio is "
            "unbounded")

    def abs_r(z):
        return np.prod(np.abs((z[:, None] + poles) / (z[:, None] - poles)),
                       axis=1)

    x = np.cos(math.pi * np.arange(RATIO_GRIDSIZE) / (RATIO_GRIDSIZE - 1))
    grid = 0.5 * (a + b) + 0.5 * (b - a) * x[::-1]
    vals = abs_r(grid)
    i = int(np.argmax(vals))
    best = vals[i]
    width = 4.0 * (b - a) / RATIO_GRIDSIZE
    lo, hi = max(a, grid[i] - width), min(b, grid[i] + width)
    for _ in range(4):
        zoom = np.linspace(lo, hi, 33)
        vals = abs_r(zoom)
        i = int(np.argmax(vals))
        best = max(best, vals[i])
        step = (hi - lo) / 32.0
        lo, hi = max(a, zoom[i] - step), min(b, zoom[i] + step)
    return float(best) ** 2


# ---------------------------------------------------------------------------
# pole files


def write_pole_file(path: str, poles) -> None:
    """One pole per line, 17 significant digits, ``inf`` spelled literally.

    A NaN pole is refused: written as ``inf`` it would come back as a
    polynomial step."""
    lines = []
    for i, p in enumerate(np.atleast_1d(poles)):
        if np.isnan(p):
            raise ValueError(f"{path}: pole {i} is NaN")
        if isinstance(p, complex) and p.imag != 0.0:
            lines.append(f"{p.real:.17g}{p.imag:+.17g}j")
        elif not np.isfinite(np.real(p)):
            lines.append("inf")
        else:
            lines.append(f"{float(np.real(p)):.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pole_file(path: str) -> np.ndarray:
    """Parse a pole file; accepts ``inf`` and complex literals like 1+2j.

    The array is complex when the file holds a complex pole, float
    otherwise.  A NaN pole is refused with its file and line."""
    poles: list[complex | float] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.strip()
            if not tok or tok.startswith("#"):
                continue
            if tok.lower() in ("inf", "+inf", "infinity"):
                poles.append(math.inf)
                continue
            try:
                pole = float(tok)
            except ValueError:
                pole = complex(tok)
            if np.isnan(pole):
                raise ValueError(f"{path}:{lineno}: pole {tok!r} is NaN")
            poles.append(pole)
    if not poles:
        raise ValueError(f"{path}: no poles found")
    if any(isinstance(p, complex) for p in poles):
        return np.array(poles, dtype=complex)
    return np.array(poles, dtype=float)
