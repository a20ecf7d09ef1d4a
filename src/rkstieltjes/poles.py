"""Pole sequences for rational Krylov approximation of Stieltjes functions.

The optimal fixed-count sequences come from the classical third Zolotarev
problem on [-b,-a] u [a,b]: the extremal rational function has its poles at
-b*dn((2j-1)K/(2l), mu), expressed through the complete elliptic integral K
(``scipy.special.ellipkm1``) and the Jacobi dn function (the ascending
Landen transformation).  Asymmetric problems (one interval against a
half-line, or against the mirror interval) reduce to the symmetric one
through a Moebius chart T(z) = (Delta + z - b)/(Delta - z + b); the poles of
the normalized problem come back through one closed-form pullback, giving
the half-line ("cauchy") and mirror-pair ("cauchy-kron") sequences.

For stopping-criterion driven runs the fixed-count sequences are awkward
because they are not nested; the equidistributed sequences (EDS) trade a
provable constant for nestedness.  They invert the cumulative equilibrium
distribution g at s_j = frac(j/sqrt(2)) in closed form, dn((1 - s_j) K, k).

Everything here is plain float arithmetic, and every pole family returns a
1-D float array; ``inf`` entries mark polynomial (Krylov) steps and are
legal in every consumer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np
from scipy.special import ellipkm1

from .operators import positive_interval

__all__ = [
    "RationalFunctionFactored",
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
    "EdsState",
    "eds_start",
    "eds_next",
    "eds_poles",
    "eds_pole_iter",
    "as_rational",
    "zolotarev_ratio",
    "write_pole_file",
    "read_pole_file",
]


# ---------------------------------------------------------------------------
# elliptic special functions


def elliptic_K(k: float, kprime: float | None = None) -> float:
    """Complete elliptic integral K(k), k the modulus.

    K is read from ``scipy.special.ellipkm1(k'^2)``, k' = sqrt(1 - k^2).
    When the caller knows the complementary modulus to better accuracy than
    1 - k^2 can resolve (extreme condition ratios), it should pass
    ``kprime`` directly; the modulus argument is then only sanity-checked.
    Below k' = 1e-8, K = log(4/k') to rounding; that form is used there,
    so a k'^2 that underflows still gives a finite K.
    """
    k = float(k)
    if kprime is None:
        if not 0.0 <= k < 1.0:
            raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k}")
        if 1.0 - k <= 1e-10:
            warnings.warn(
                "modulus within 1e-10 of the degenerate endpoint k=1; "
                "K(k) is large and limited to the accuracy of 1-k^2",
                RuntimeWarning,
                stacklevel=2,
            )
        kprime = math.sqrt((1.0 - k) * (1.0 + k))
        if kprime == 0.0:
            raise ValueError("modulus k=1 is degenerate (K diverges)")
    else:
        kprime = float(kprime)
        if not 0.0 < kprime <= 1.0:
            raise ValueError(f"complementary modulus must lie in (0,1], got {kprime}")
    if kprime < 1e-8:
        return math.log(4.0) - math.log(kprime)
    return float(ellipkm1(kprime * kprime))


def jacobi_dn(u, k: float, kprime: float | None = None):
    """Jacobi elliptic dn(u, k) for real u, modulus 0 <= k < 1.

    Ascending Landen transformation (A&S 16.14.3) until k' <= 1e-9, where
    the expansion about k = 1 (A&S 16.15.3) is exact to rounding.  Every
    term is positive, so nothing cancels: the result is accurate to a few
    ulps relative over the whole period (small values near u = K too) for
    k' down to 1e-12, and finite without overflow for subnormal k'.  Pass
    ``kprime`` when sqrt(1 - k^2) cannot resolve it.
    """
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    arr = np.abs(np.atleast_1d(arr).astype(float))  # dn is even
    k = float(k)
    if kprime is None:
        if not 0.0 <= k < 1.0:
            raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k}")
        kprime = math.sqrt((1.0 - k) * (1.0 + k))
    if k < 1e-8:
        out = 1.0 - 0.5 * k * k * np.sin(arr) ** 2
        return float(out[0]) if scalar else out
    # dn has period 2K; the base expansion holds on [0, K] only.
    period = 2.0 * elliptic_K(k, kprime=kprime)
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
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
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
    """Optimal poles for [a,b] against [-b,-a]: -b*dn((2j-1)K/(2l), mu).

    mu = sqrt(1 - (a/b)^2); the complementary modulus a/b is passed through
    exactly, so extreme condition ratios do not lose the inner endpoint.
    Degenerate a == b collapses every pole to -a.
    """
    iv = positive_interval(interval)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    a, b = iv.lower, iv.upper
    if a == b:
        return np.full(ell, -a)
    ratio = _inner_endpoint(iv, a / b)
    mu = math.sqrt((1.0 - ratio) * (1.0 + ratio))
    big_k = elliptic_K(mu, kprime=ratio)
    j = np.arange(1, ell + 1, dtype=float)
    u = (2.0 * j - 1.0) * big_k / (2.0 * ell)
    return -b * jacobi_dn(u, mu, kprime=ratio)


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
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return np.where(np.arange(ell) % 2 == 0, math.inf, 0.0)


def polynomial_poles(ell: int) -> np.ndarray:
    """All-inf sequence (plain Krylov), length ell."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return np.full(ell, math.inf)


# ---------------------------------------------------------------------------
# equidistributed sequences (EDS)


@dataclass(frozen=True)
class EdsState:
    """Progress of the nested sequence on the normalized interval [a', 1]."""

    lower: float              # normalized inner endpoint a' in (0, 1)
    norm_const: float         # M = K(sqrt(1 - a'^2))
    index: int                # next 1-based index j

    ZETA = 1.0 / math.sqrt(2.0)


def eds_start(lower: float) -> EdsState:
    if not 0.0 < lower < 1.0:
        raise ValueError(f"normalized endpoint must be in (0,1), got {lower}")
    big_m = elliptic_K(math.sqrt((1.0 - lower) * (1.0 + lower)), kprime=lower)
    return EdsState(lower=float(lower), norm_const=big_m, index=1)


def eds_next(state: EdsState) -> tuple[float, EdsState]:
    """Emit sigma-tilde_j = sqrt(t_j) where g(t_j) = frac(j/sqrt(2))."""
    s = math.modf(state.index * EdsState.ZETA)[0]
    # t = dn^2(u, k), k = sqrt(1 - a'^2), turns g(t) into 1 - u/K.
    k = math.sqrt((1.0 - state.lower) * (1.0 + state.lower))
    sig = jacobi_dn((1.0 - s) * state.norm_const, k, kprime=state.lower)
    return sig, replace(state, index=state.index + 1)


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
        if a == b:
            while True:
                yield -a
        lower, emit = _inner_endpoint(iv, a / b), lambda sig: -b * sig
    elif variant == "cauchy":
        lower, emit = a / b, mobius_cauchy(iv)[1]
    elif variant == "kron-cauchy":
        lower, emit = mobius_kron(iv)
    else:
        raise ValueError(f"unknown EDS variant {variant!r}")
    state = eds_start(lower)
    while True:
        sig, state = eds_next(state)
        yield emit(sig)


def eds_poles(interval, count: int, variant: str) -> np.ndarray:
    """First ``count`` EDS poles; prefixes of a fixed infinite sequence."""
    if count < 1:
        raise ValueError("count must be >= 1")
    it = eds_pole_iter(interval, variant)
    return np.array([next(it) for _ in range(count)])


# ---------------------------------------------------------------------------
# factored rationals and the witness ratio


@dataclass(frozen=True)
class RationalFunctionFactored:
    """r(z) = prod (z - zeros_j) / prod (z - poles_j), equal degrees."""

    zeros: np.ndarray
    poles: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeros", np.atleast_1d(np.asarray(self.zeros)))
        object.__setattr__(self, "poles", np.atleast_1d(np.asarray(self.poles)))
        if self.zeros.size != self.poles.size:
            raise ValueError("factored rational needs equal numbers of zeros and poles")

    def abs_at(self, z):
        """|r(z)| elementwise; the z -> +-inf limit is 1 (equal degrees)."""
        arr = np.asarray(z, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr).astype(float)
        out = np.ones_like(arr)
        fin = np.isfinite(arr)
        zf = arr[fin]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            num = np.prod(np.abs(zf[:, None] - self.zeros[None, :]), axis=1)
            den = np.prod(np.abs(zf[:, None] - self.poles[None, :]), axis=1)
            vals = np.where(den == 0.0, math.inf, num / den)
        out[fin] = vals
        return float(out[0]) if scalar else out


def as_rational(poles) -> RationalFunctionFactored:
    """The symmetric extremal candidate with zeros at the mirrored poles."""
    poles = np.asarray(poles, dtype=float)
    if not np.all(np.isfinite(poles)):
        raise ValueError(
            "pole sequence contains inf entries; the factored extremal "
            "candidate requires finite poles"
        )
    return RationalFunctionFactored(zeros=-poles, poles=poles.copy())


def _cheb_grid(lo: float, hi: float, m: int) -> np.ndarray:
    # Chebyshev points cluster where extrema of near-optimal rationals live.
    k = np.arange(m, dtype=float)
    x = np.cos(math.pi * k / (m - 1)) if m > 1 else np.array([0.0])
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x[::-1]


def _refine_extremum(fun, x0: float, lo: float, hi: float, want_max: bool,
                     width: float) -> float:
    """Zoom a bracketing window around x0 to polish a smooth extremum."""
    best = fun(np.array([x0]))[0]
    left, right = max(lo, x0 - width), min(hi, x0 + width)
    for _ in range(4):
        grid = np.linspace(left, right, 33)
        vals = fun(grid)
        idx = int(np.argmax(vals) if want_max else np.argmin(vals))
        cand = vals[idx]
        best = max(best, cand) if want_max else min(best, cand)
        step = (right - left) / 32.0
        left = max(lo, grid[idx] - step)
        right = min(hi, grid[idx] + step)
    return best


#: Grid points of ``zolotarev_ratio`` on each side.
RATIO_GRIDSIZE = 2000


def zolotarev_ratio(r: RationalFunctionFactored, interval_max,
                    interval_min) -> float:
    """Witness ratio  max_{I1} |r| / min_{I2} |r|  on grids plus refinement.

    Both intervals must be finite.  ``interval_max`` must be free of poles
    of r (a pole there is reported as an error since the sup is infinite).
    Poles of r inside ``interval_min`` are expected (the extremal function
    lives there) and are handled per sub-interval between poles.
    """
    lo1, hi1 = float(interval_max[0]), float(interval_max[1])
    if not (math.isfinite(lo1) and math.isfinite(hi1) and lo1 < hi1):
        raise ValueError("interval_max must be a finite nondegenerate interval")
    real_poles = np.asarray(r.poles, dtype=float)
    inside = (real_poles >= lo1) & (real_poles <= hi1)
    if np.any(inside):
        raise ValueError(
            f"pole {real_poles[inside][0]} of r lies inside the max-side "
            "interval; the ratio is unbounded"
        )
    grid1 = _cheb_grid(lo1, hi1, RATIO_GRIDSIZE)
    vals1 = r.abs_at(grid1)
    imax = int(np.argmax(vals1))
    width1 = (hi1 - lo1) / RATIO_GRIDSIZE * 4.0
    vmax = _refine_extremum(r.abs_at, float(grid1[imax]), lo1, hi1, True,
                            width=width1)

    lo2, hi2 = float(interval_min[0]), float(interval_min[1])
    if not (math.isfinite(lo2) and math.isfinite(hi2) and lo2 < hi2):
        raise ValueError("interval_min must be a finite nondegenerate interval")
    inner = real_poles[(real_poles > lo2) & (real_poles < hi2)]
    cut = np.concatenate(([lo2], np.sort(inner), [hi2]))
    segments = [(s, e) for s, e in zip(cut[:-1], cut[1:]) if e > s]
    vmin = math.inf
    per_seg = max(64, RATIO_GRIDSIZE // max(len(segments), 1))
    for s, e in segments:
        # Trim away from interior pole endpoints to keep grids finite.
        pad = (e - s) * 1e-9
        gs = s + (pad if s in inner else 0.0)
        ge = e - (pad if e in inner else 0.0)
        grid = _cheb_grid(gs, ge, per_seg)
        vals = r.abs_at(grid)
        idx = int(np.argmin(vals))
        width = (ge - gs) / per_seg * 4.0
        vmin = min(vmin, _refine_extremum(r.abs_at, float(grid[idx]), gs, ge,
                                          False, width=width))
    if vmin <= 0.0:
        raise ValueError("r vanishes on the min-side interval; ratio undefined")
    return vmax / vmin


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
