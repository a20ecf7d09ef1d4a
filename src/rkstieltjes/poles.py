"""Pole sequences for rational Krylov approximation of Stieltjes functions.

The optimal fixed-count sequences come from the classical third Zolotarev
problem on [-b,-a] u [a,b]: the extremal rational function has its poles at
-b*dn((2j-1)K/(2l), mu), expressed through the complete elliptic integral K
and the Jacobi dn function, both implemented here with AGM recursions.
Asymmetric problems (one interval against a half-line, or against the
mirror interval) reduce to the symmetric one through Moebius maps, giving
the half-line ("cauchy") and mirror-pair ("cauchy-kron") sequences.

For stopping-criterion driven runs the fixed-count sequences are awkward
because they are not nested; the equidistributed sequences (EDS) trade a
provable constant for nestedness by inverting the cumulative equilibrium
distribution g at the fractional parts of j/sqrt(2).

Everything here is plain float arithmetic; ``inf`` entries mark polynomial
(Krylov) steps and are legal in every consumer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np
from scipy.integrate import quad

from .operators import SpectralInterval, positive_interval

__all__ = [
    "PoleSequence",
    "MobiusMap",
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
# elliptic special functions (AGM)


def elliptic_K(k: float, kprime: float | None = None) -> float:
    """Complete elliptic integral K(k), k the modulus, via the AGM.

    K(k) = pi / (2 * AGM(1, k')) with k' = sqrt(1 - k^2).  When the caller
    knows the complementary modulus to better accuracy than 1 - k^2 can
    resolve (extreme condition ratios), it should pass ``kprime`` directly;
    the modulus argument is then only sanity-checked.
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
    a, b = 1.0, kprime
    for _ in range(200):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _dn_agm(u: np.ndarray, k: float, kprime: float) -> np.ndarray:
    """Jacobi dn on the reduced range via the descending Landen/AGM chain."""
    a_seq = [1.0]
    c_seq = [k]
    b = kprime
    n = 0
    while abs(c_seq[-1]) > 1e-17 * a_seq[-1] and n < 64:
        a_next = 0.5 * (a_seq[-1] + b)
        c_next = 0.5 * (a_seq[-1] - b)
        b = math.sqrt(a_seq[-1] * b)
        a_seq.append(a_next)
        c_seq.append(c_next)
        n += 1
    phi = (2.0 ** n) * a_seq[n] * u
    phi1 = phi
    for m in range(n, 0, -1):
        s = np.clip(c_seq[m] / a_seq[m] * np.sin(phi), -1.0, 1.0)
        phi_down = 0.5 * (phi + np.arcsin(s))
        if m == 1:
            phi1 = phi
        phi = phi_down
    # A&S 16.4.4: dn u = cos(phi_0) / cos(phi_1 - phi_0).
    return np.cos(phi) / np.cos(phi1 - phi)


def jacobi_dn(u, k: float, kprime: float | None = None):
    """Jacobi elliptic dn(u, k) for real u, modulus 0 <= k < 1.

    Uses the descending Landen/AGM recursion.  On (K/2, K] the reflection
    dn(u) = k'/dn(K-u) keeps small values relatively accurate, which is
    what the pole formula needs near the inner spectral endpoint.
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
    big_k = elliptic_K(k, kprime=kprime)
    out = np.empty_like(arr)
    refl = (arr > 0.5 * big_k) & (arr <= big_k)
    plain = ~refl
    if np.any(plain):
        out[plain] = _dn_agm(arr[plain], k, kprime)
    if np.any(refl):
        out[refl] = kprime / _dn_agm(big_k - arr[refl], k, kprime)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# convergence-rate constants


def rate_rho(alpha: float, beta: float) -> float:
    """exp(-pi^2 / log(4*beta/alpha)), the per-step Zolotarev rate for
    [alpha, beta] against its mirror image."""
    alpha, beta = float(alpha), float(beta)
    if not 0.0 < alpha <= beta:
        raise ValueError(f"need 0 < alpha <= beta, got [{alpha}, {beta}]")
    return math.exp(-math.pi ** 2 / math.log(4.0 * beta / alpha))


def gamma_const(ell: int, kappa: float, conjectured: bool = False) -> float:
    """Slowly growing constant 2.23 + (2/pi) log(4 l sqrt(kappa/pi)).

    ``conjectured=True`` returns 1.0 (the numerically observed constant,
    exposed for plotting only; every proven bound uses the default).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if conjectured:
        return 1.0
    return 2.23 + (2.0 / math.pi) * math.log(4.0 * ell * math.sqrt(kappa / math.pi))


# ---------------------------------------------------------------------------
# pole sequences


@dataclass(frozen=True)
class PoleSequence:
    """An ordered pole multiset with its provenance and source interval.

    ``inf`` entries denote polynomial steps.  For Kronecker pole pairs the
    second member holds the literal right-side poles and is tagged
    ``custom``; location invariants are stated per provenance for the
    directly generated families only.
    """

    poles: np.ndarray
    provenance: str
    interval: SpectralInterval | None = None

    _PROVENANCES = (
        "zolotarev",
        "cauchy",
        "cauchy-kron",
        "eds-laplace",
        "eds-cauchy",
        "eds-kron-cauchy",
        "extended",
        "polynomial",
        "custom",
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "poles", np.atleast_1d(np.asarray(self.poles)))
        if self.provenance not in self._PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def __len__(self) -> int:
        return self.poles.size

    def __iter__(self):
        return iter(self.poles)

    def __getitem__(self, i):
        return self.poles[i]

    def prefix(self, m: int) -> "PoleSequence":
        if not 0 <= m <= len(self):
            raise ValueError(f"prefix length {m} out of range")
        return replace(self, poles=self.poles[:m].copy())

    def negated(self) -> "PoleSequence":
        """Elementwise negation (inf stays inf); provenance becomes custom."""
        return PoleSequence(-self.poles, "custom", self.interval)


def zolotarev_poles(interval, ell: int) -> PoleSequence:
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
        return PoleSequence(np.full(ell, -a), "zolotarev", iv)
    ratio = a / b
    mu = math.sqrt((1.0 - ratio) * (1.0 + ratio))
    big_k = elliptic_K(mu, kprime=ratio)
    j = np.arange(1, ell + 1, dtype=float)
    u = (2.0 * j - 1.0) * big_k / (2.0 * ell)
    poles = -b * jacobi_dn(u, mu, kprime=ratio)
    return PoleSequence(poles, "zolotarev", iv)


# ---------------------------------------------------------------------------
# Moebius maps


@dataclass(frozen=True)
class MobiusMap:
    """z -> (alpha*z + beta) / (gamma*z + delta) with nonzero determinant.

    ``endpoint`` stores the derived inner endpoint of the normalized
    problem (a-hat for the half-line reduction, a-tilde for the mirror
    pair); ``interval`` is the source [a, b].
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    endpoint: float | None = None
    interval: SpectralInterval | None = None

    def __post_init__(self) -> None:
        det = self.alpha * self.delta - self.beta * self.gamma
        if det == 0.0 or not math.isfinite(det):
            raise ValueError("Moebius map is not invertible")

    def __call__(self, z):
        arr = np.asarray(z, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr).astype(float)
        out = np.empty_like(arr)
        fin = np.isfinite(arr)
        with np.errstate(divide="ignore"):
            out[fin] = (self.alpha * arr[fin] + self.beta) / (
                self.gamma * arr[fin] + self.delta
            )
        if np.any(~fin):
            if self.gamma == 0.0:
                out[~fin] = math.inf
            else:
                out[~fin] = self.alpha / self.gamma
        return float(out[0]) if scalar else out

    def inv(self, z):
        """Apply the inverse map (delta*z - beta) / (-gamma*z + alpha)."""
        return MobiusMap(self.delta, -self.beta, -self.gamma, self.alpha)(z)


def _endpoint_map(a: float, b: float, delta: float, endpoint: float,
                  iv: SpectralInterval) -> MobiusMap:
    # Shared form T(z) = (Delta + z - b) / (Delta - z + b).
    return MobiusMap(
        alpha=1.0,
        beta=delta - b,
        gamma=-1.0,
        delta=delta + b,
        endpoint=endpoint,
        interval=iv,
    )


def mobius_cauchy(interval) -> MobiusMap:
    """Map sending (-inf, 0] u [a, b] onto [-1, -a^] u [a^, 1].

    Delta = sqrt(b^2 - a*b) and a^ = (b - Delta)/(Delta + b), computed in
    the rationalized form a*b/(b + Delta)^2 to avoid cancellation; the
    inverse condition ratio satisfies 1/a^ <= 4b/a.
    """
    iv = positive_interval(interval)
    a, b = iv.lower, iv.upper
    delta = math.sqrt(b * (b - a)) if b > a else 0.0
    if delta == 0.0:
        raise ValueError("mobius_cauchy needs a < b")
    ahat = a * b / (b + delta) ** 2
    return _endpoint_map(a, b, delta, ahat, iv)


def mobius_kron(interval) -> MobiusMap:
    """Map sending (-inf, -a] u [a, b] onto [-1, -a~] u [a~, 1].

    Delta = sqrt(b^2 - a^2), a~ = (Delta + a - b)/(Delta - a + b) in the
    rationalized form 2a(b-a)/(Delta + b - a)^2; 1/a~ <= 2b/a.
    """
    iv = positive_interval(interval)
    a, b = iv.lower, iv.upper
    delta = math.sqrt((b - a) * (b + a)) if b > a else 0.0
    if delta == 0.0:
        raise ValueError("mobius_kron needs a < b")
    atilde = 2.0 * a * (b - a) / (delta + b - a) ** 2
    return _endpoint_map(a, b, delta, atilde, iv)


def cauchy_poles(interval, ell: int) -> PoleSequence:
    """Poles for [a,b] against the half-line (-inf, 0].

    The symmetric Zolotarev poles of the normalized interval [a^, 1] are
    pulled back through the inverse Moebius map; all images are negative
    reals.
    """
    iv = positive_interval(interval)
    m = mobius_cauchy(iv)
    base = zolotarev_poles((m.endpoint, 1.0), ell)
    return PoleSequence(m.inv(base.poles), "cauchy", iv)


def laplace_kron_poles(interval, ell: int) -> tuple[PoleSequence, PoleSequence]:
    """Canonical Kronecker pole pair for Laplace-class functions.

    The left factor takes the symmetric Zolotarev poles of [a,b]; the
    literal right-side set is their elementwise negation (the right space
    is built on -B, where these become the same Zolotarev poles again).
    """
    psi = zolotarev_poles(interval, ell)
    return psi, psi.negated()


def cauchy_kron_poles(interval, ell: int) -> tuple[PoleSequence, PoleSequence]:
    """Kronecker pole pair for Cauchy-class functions.

    Psi is the pullback of the Zolotarev poles of [a~, 1] through the
    mirror-pair Moebius map (all negative); Xi is its elementwise
    negation.
    """
    iv = positive_interval(interval)
    m = mobius_kron(iv)
    base = zolotarev_poles((m.endpoint, 1.0), ell)
    psi = PoleSequence(m.inv(base.poles), "cauchy-kron", iv)
    return psi, psi.negated()


def extended_poles(ell: int) -> PoleSequence:
    """Alternating inf, 0, inf, 0, ... (extended Krylov), length ell."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    poles = np.where(np.arange(ell) % 2 == 0, math.inf, 0.0)
    return PoleSequence(poles, "extended", None)


def polynomial_poles(ell: int) -> PoleSequence:
    """All-inf sequence (plain Krylov), length ell."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return PoleSequence(np.full(ell, math.inf), "polynomial", None)


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


def _eds_g(t: float, a: float, big_m: float) -> float:
    """Cumulative equilibrium distribution g(t) on [a^2, 1].

    g(t) = (1/2M) * int_{a^2}^t dy / sqrt((y - a^2) y (1 - y)); the
    substitution y = a^2 + (1-a^2) u^2 removes the left endpoint
    singularity and the adaptive Gauss-Kronrod rule handles the rest.
    g(a^2) = 0 and g(1) = 1 by the choice of M.
    """
    a2 = a * a
    if t <= a2:
        return 0.0
    if t >= 1.0:
        return 1.0
    one_m_a2 = (1.0 - a) * (1.0 + a)
    u_t = math.sqrt((t - a2) / one_m_a2)

    def integrand(u: float) -> float:
        y = a2 + one_m_a2 * u * u
        return 1.0 / math.sqrt((1.0 - u * u) * y)

    val, _ = quad(integrand, 0.0, u_t, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val / big_m


def _eds_g_deriv(t: float, a: float, big_m: float) -> float:
    a2 = a * a
    return 1.0 / (2.0 * big_m * math.sqrt((t - a2) * t * (1.0 - t)))


def _invert_g(s: float, a: float, big_m: float) -> float:
    """Solve g(t) = s on (a^2, 1) by safeguarded Newton.

    The starting guess is the root of the linear fit to that -> g(e^that)-s
    through the points t = a^2 and t = a (that = log t), following the
    construction the sequence was published with.
    """
    a2 = a * a
    lo, hi = a2, 1.0  # g(lo)-s <= 0 <= g(hi)-s
    g_at_a = _eds_g(a, a, big_m)
    if g_at_a > 0.0:
        that = math.log(a) * (2.0 - s / g_at_a)
        t = math.exp(that)
    else:
        t = math.sqrt(a2)
    t = min(max(t, a2 + 1e-14 * (1.0 - a2)), 1.0 - 1e-14 * (1.0 - a2))
    for _ in range(80):
        resid = _eds_g(t, a, big_m) - s
        if abs(resid) <= 1e-13:
            break
        if resid > 0.0:
            hi = t
        else:
            lo = t
        step = resid / _eds_g_deriv(t, a, big_m)
        t_new = t - step
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)  # bisection fallback keeps the bracket
        if abs(t_new - t) <= 1e-16 * t:
            t = t_new
            break
        t = t_new
    return t


def eds_next(state: EdsState) -> tuple[float, EdsState]:
    """Emit sigma-tilde_j = sqrt(t_j) where g(t_j) = frac(j/sqrt(2))."""
    s = math.modf(state.index * EdsState.ZETA)[0]
    t = _invert_g(s, state.lower, state.norm_const)
    sig = math.sqrt(t)
    return sig, replace(state, index=state.index + 1)


def eds_pole_iter(interval, variant: str) -> Iterator[float]:
    """Infinite stream of EDS poles for ``interval``.

    ``variant="laplace"`` rescales the normalized points to [-b, -a];
    ``variant="cauchy"`` maps their negatives through the inverse
    half-line Moebius map of the original interval.  ``"kron-cauchy"``
    (the left poles of the nested two-sided Cauchy pair) starts the
    sequence at the inner endpoint of the mirror chart ``mobius_kron``
    and maps through that chart instead.
    """
    iv = positive_interval(interval)
    a, b = iv.lower, iv.upper
    if variant not in ("laplace", "cauchy", "kron-cauchy"):
        raise ValueError(f"unknown EDS variant {variant!r}")
    if variant == "kron-cauchy":
        mob = mobius_kron(iv)
        state = eds_start(mob.endpoint)
    elif a == b:
        while True:
            yield -a
    else:
        state = eds_start(a / b)
        mob = mobius_cauchy(iv) if variant == "cauchy" else None
    while True:
        sig, state = eds_next(state)
        if variant == "laplace":
            yield -b * sig
        else:
            yield float(mob.inv(-sig))


def eds_poles(interval, count: int, variant: str) -> PoleSequence:
    """First ``count`` EDS poles; prefixes of a fixed infinite sequence."""
    if count < 1:
        raise ValueError("count must be >= 1")
    it = eds_pole_iter(interval, variant)
    poles = np.array([next(it) for _ in range(count)])
    return PoleSequence(poles, f"eds-{variant}", positive_interval(interval))


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

    def __call__(self, z):
        arr = np.asarray(z, dtype=float)
        num = np.prod(arr[..., None] - self.zeros, axis=-1)
        den = np.prod(arr[..., None] - self.poles, axis=-1)
        with np.errstate(divide="ignore"):
            return num / den


def as_rational(seq: PoleSequence) -> RationalFunctionFactored:
    """The symmetric extremal candidate with zeros at the mirrored poles."""
    poles = np.asarray(seq.poles, dtype=float)
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
                     rounds: int = 4, width: float | None = None) -> float:
    """Zoom a bracketing window around x0 to polish a smooth extremum."""
    if width is None:
        width = (hi - lo) * 1e-2
    best = fun(np.array([x0]))[0]
    left, right = max(lo, x0 - width), min(hi, x0 + width)
    for _ in range(rounds):
        grid = np.linspace(left, right, 33)
        vals = fun(grid)
        idx = int(np.argmax(vals) if want_max else np.argmin(vals))
        cand = vals[idx]
        best = max(best, cand) if want_max else min(best, cand)
        step = (right - left) / 32.0
        left = max(lo, grid[idx] - step)
        right = min(hi, grid[idx] + step)
    return best


def zolotarev_ratio(r: RationalFunctionFactored, interval_max, interval_min,
                    gridsize: int = 2000) -> float:
    """Witness ratio  max_{I1} |r| / min_{I2} |r|  on grids plus refinement.

    ``interval_max`` must be finite and free of poles of r (a pole there is
    reported as an error since the sup is infinite); ``interval_min`` may
    be a half-line ``(-inf, c]``, covered by a reciprocal chart with the
    point at infinity included through the equal-degree limit |r| -> 1.
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
    grid1 = _cheb_grid(lo1, hi1, max(gridsize, 16))
    vals1 = r.abs_at(grid1)
    imax = int(np.argmax(vals1))
    width1 = (hi1 - lo1) / max(gridsize, 16) * 4.0
    vmax = _refine_extremum(r.abs_at, float(grid1[imax]), lo1, hi1, True,
                            width=width1)

    lo2, hi2 = float(interval_min[0]), float(interval_min[1])
    if not math.isfinite(hi2):
        raise ValueError("interval_min upper end must be finite")
    segments: list[tuple[float, float]] = []
    if math.isfinite(lo2):
        if lo2 >= hi2:
            raise ValueError("interval_min must be nondegenerate")
        lo_cover = lo2
    else:
        # Reciprocal chart: map u in [-1, 0) to z = c + 1/u, covering
        # (-inf, c-1]; the finite window [c-1, c] is gridded directly and
        # the point at infinity contributes |r(inf)| = 1.
        lo_cover = hi2 - 1.0
    inner = real_poles[(real_poles > lo_cover) & (real_poles < hi2)]
    cut = np.concatenate(([lo_cover], np.sort(inner), [hi2]))
    for s, e in zip(cut[:-1], cut[1:]):
        if e > s:
            segments.append((s, e))
    vmin = math.inf
    per_seg = max(64, int(gridsize / max(len(segments), 1)))
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
    if not math.isfinite(lo2):
        u = np.linspace(-1.0, -1e-9, max(gridsize // 2, 64))
        far = hi2 + 1.0 / u
        far_vals = r.abs_at(far)
        idx = int(np.argmin(far_vals))
        vmin = min(vmin, float(far_vals[idx]), 1.0)
        if 0 < idx < far.size - 1:
            vmin = min(vmin, _refine_extremum(
                r.abs_at, float(far[idx]), float(far[idx - 1]),
                float(far[idx + 1]), False,
                width=(far[idx + 1] - far[idx - 1]) / 4.0))
    if vmin <= 0.0:
        raise ValueError("r vanishes on the min-side interval; ratio undefined")
    return vmax / vmin


# ---------------------------------------------------------------------------
# pole files


def write_pole_file(path: str, seq: PoleSequence | np.ndarray) -> None:
    """One pole per line, 17 significant digits, ``inf`` spelled literally."""
    poles = seq.poles if isinstance(seq, PoleSequence) else np.atleast_1d(seq)
    lines = []
    for p in poles:
        if isinstance(p, complex) and p.imag != 0.0:
            lines.append(f"{p.real:.17g}{p.imag:+.17g}j")
        elif not np.isfinite(np.real(p)):
            lines.append("inf")
        else:
            lines.append(f"{float(np.real(p)):.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pole_file(path: str) -> PoleSequence:
    """Parse a pole file; accepts ``inf`` and complex literals like 1+2j."""
    poles: list[complex | float] = []
    with open(path) as fh:
        for line in fh:
            tok = line.strip()
            if not tok or tok.startswith("#"):
                continue
            if tok.lower() in ("inf", "+inf", "infinity"):
                poles.append(math.inf)
                continue
            try:
                poles.append(float(tok))
            except ValueError:
                poles.append(complex(tok))
    if not poles:
        raise ValueError(f"{path}: no poles found")
    if any(isinstance(p, complex) for p in poles):
        arr = np.array(poles, dtype=complex)
    else:
        arr = np.array(poles, dtype=float)
    return PoleSequence(arr, "custom", None)
