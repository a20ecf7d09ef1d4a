"""Catalog of Laplace- and Cauchy-Stieltjes functions.

Each catalog entry evaluates a scalar function f0 that is completely
monotonic on (0, inf) and carries the class tag ("laplace" when f0 is the
Laplace transform of a positive measure, "cauchy" for the strictly smaller
class with kernel 1/(t+z)).  A function object may also hold a positive
shift eta, in which case it represents z -> f0(z + eta); the shift is what
makes the a-priori bounds usable for functions with f0(0+) = inf, and it is
owned here so that pole generation, reduced evaluation and bound anchors
cannot disagree about it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.special

from .operators import count

__all__ = [
    "StieltjesFunction",
    "catalog_function",
    "parse_function_spec",
    "lambert_w",
]


@dataclass(frozen=True)
class StieltjesFunction:
    """A completely monotonic function with class tag and optional shift."""

    label: str
    family: str                       # "laplace" | "cauchy"
    base: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    base_limit0: float                # f0(0+); may be math.inf
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("laplace", "cauchy"):
            raise ValueError(f"unknown function class {self.family!r}")
        if not 0.0 <= self.shift < math.inf:
            raise ValueError(f"shift must be finite and >= 0, got {self.shift!r}")

    def __call__(self, z):
        """Evaluate f0(z + shift); defined for z + shift > 0 only."""
        arr = np.asarray(z, dtype=float)
        w = arr + self.shift
        if np.any(w <= 0.0):
            bad = float(np.min(arr))
            raise ValueError(
                f"{self.label} is undefined at z={bad!r} (z + shift must be > 0)"
            )
        out = self.base(w)
        return float(out) if arr.ndim == 0 else out

    def with_shift(self, eta: float) -> "StieltjesFunction":
        return replace(self, shift=float(eta))

    # -- anchors used by the a-priori bounds ---------------------------------

    def limit_at_zero(self) -> float:
        """f(0+) of the represented (shifted) function."""
        if self.shift > 0.0:
            return float(self.base(np.asarray(self.shift)))
        return self.base_limit0

    @property
    def is_cauchy(self) -> bool:
        return self.family == "cauchy"


# ---------------------------------------------------------------------------
# scalar kernels


def _phi_large(j: int, zl: np.ndarray) -> np.ndarray:
    # phi_1 = (1 - e^-z)/z, then phi_{i+1} = (1/i! - phi_i)/z; the upward
    # recurrence is only used away from 0 where it does not cancel.
    val = -np.expm1(-zl) / zl
    for i in range(1, j):
        val = (1.0 / math.factorial(i) - val) / zl
    return val


def _phi(j: int):
    def f(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        small = np.abs(z) < 0.5
        if np.any(small):
            zs = z[small]
            acc = np.ones_like(zs) / math.factorial(j)
            term = acc.copy()
            for i in range(1, 40):
                term = term * (-zs) / (i + j)
                acc = acc + term
                if np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(acc), 1e-300)):
                    break
            out[small] = acc
        if np.any(~small):
            out[~small] = _phi_large(j, z[~small])
        return out

    return f


def _power(alpha: float):
    def f(z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) ** (-alpha)

    return f


def _log1p_over_z(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    tiny = np.abs(z) < 1e-8
    out[tiny] = 1.0 - z[tiny] / 2.0 + z[tiny] ** 2 / 3.0
    out[~tiny] = np.log1p(z[~tiny]) / z[~tiny]
    return out


def _one_minus_exp_sqrt_over_z(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    s = np.sqrt(z)
    return -np.expm1(-s) / z


def lambert_w(x):
    """Principal branch W(x) for x >= 0 (``scipy.special.lambertw``)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("lambert_w is implemented for x >= 0 only")
    w = scipy.special.lambertw(arr).real
    return float(w) if arr.ndim == 0 else w


def _lambertw_scaled(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return z ** (-1.5) * lambert_w(z)


def _rational_negpoles(weights: np.ndarray, poles: np.ndarray):
    weights = np.asarray(weights, dtype=float)
    poles = np.asarray(poles, dtype=float)
    if weights.shape != poles.shape or weights.ndim != 1 or weights.size == 0:
        raise ValueError("rational catalog entry needs matching 1-D weights/poles")
    if np.any(weights <= 0.0):
        raise ValueError("rational weights must be positive")
    if np.any(poles >= 0.0):
        raise ValueError("rational poles must be negative")

    def f(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        flat = z.reshape(-1)
        vals = np.sum(weights[:, None] / (flat[None, :] - poles[:, None]), axis=0)
        return vals.reshape(z.shape)

    return f, float(np.sum(weights / -poles))


# ---------------------------------------------------------------------------
# catalog


def catalog_function(name: str, *params) -> StieltjesFunction:
    """Construct a catalog entry.

    Supported names: ``phi`` (param j >= 1), ``power`` (param -alpha with
    0 < alpha < 1), ``log1p_over_z``, ``one_minus_exp_sqrt_over_z``,
    ``lambertw_scaled``, ``rational`` (params: weights array, poles array).
    """
    if name == "phi":
        j = count(params[0], "phi index") if params else 1
        return StieltjesFunction(
            label=f"phi_{j}",
            family="laplace",
            base=_phi(j),
            base_limit0=1.0 / math.factorial(j),
        )
    if name == "power":
        if not params:
            raise ValueError("power needs an exponent, e.g. power(-0.5)")
        expo = float(params[0])
        alpha = -expo
        if not 0.0 < alpha < 1.0:
            raise ValueError(
                f"power exponent must lie in (-1, 0), got {expo}"
            )
        return StieltjesFunction(
            label=f"z^{expo:g}",
            family="cauchy",
            base=_power(alpha),
            base_limit0=math.inf,
        )
    if name == "log1p_over_z":
        return StieltjesFunction(
            label="log(1+z)/z",
            family="cauchy",
            base=_log1p_over_z,
            base_limit0=1.0,
        )
    if name == "one_minus_exp_sqrt_over_z":
        return StieltjesFunction(
            label="(1-exp(-sqrt(z)))/z",
            family="cauchy",
            base=_one_minus_exp_sqrt_over_z,
            base_limit0=math.inf,
        )
    if name == "lambertw_scaled":
        return StieltjesFunction(
            label="z^-1.5*W(z)",
            family="laplace",
            base=_lambertw_scaled,
            base_limit0=math.inf,
        )
    if name == "rational":
        if len(params) != 2:
            raise ValueError("rational needs (weights, poles)")
        f, lim = _rational_negpoles(*params)
        return StieltjesFunction(
            label="rational",
            family="cauchy",
            base=f,
            base_limit0=lim,
        )
    if name == "inverse":
        # z^-1 is the alpha -> 1 end of the power family; it is the natural
        # Sylvester test function and a Cauchy-Stieltjes function with
        # measure concentrated at t = 0.
        return StieltjesFunction(
            label="z^-1",
            family="cauchy",
            base=lambda z: 1.0 / np.asarray(z, dtype=float),
            base_limit0=math.inf,
        )
    raise ValueError(f"unknown catalog function {name!r}")


def parse_function_spec(spec: str) -> StieltjesFunction:
    """Parse CLI shorthand like ``phi:1``, ``power:-0.5`` or ``lambertw``.

    ``rational:w1,p1;w2,p2;...`` lists weight,pole pairs.  An argument
    that a name cannot use (``inverse:3``, ``phi:2.5``) raises a
    ``ValueError`` naming the spec.
    """
    name, sep, arg = spec.partition(":")
    name = name.strip().lower()
    aliases = {
        "phi": "phi",
        "power": "power",
        "log1p": "log1p_over_z",
        "log1p_over_z": "log1p_over_z",
        "sqrt-exp": "one_minus_exp_sqrt_over_z",
        "one_minus_exp_sqrt_over_z": "one_minus_exp_sqrt_over_z",
        "lambertw": "lambertw_scaled",
        "lambertw_scaled": "lambertw_scaled",
        "rational": "rational",
        "inverse": "inverse",
        "inv": "inverse",
    }
    if name not in aliases:
        raise ValueError(f"unknown function spec {spec!r}")
    name = aliases[name]
    try:
        if name == "phi":
            return catalog_function("phi", int(arg) if arg else 1)
        if name == "power":
            if not arg:
                raise ValueError("power needs an exponent, e.g. power:-0.5")
            return catalog_function("power", float(arg))
        if name == "rational":
            pairs = [p.partition(",") for p in arg.split(";") if p]
            if not pairs or not all(comma for _, comma, _ in pairs):
                raise ValueError("rational needs weight,pole pairs, "
                                 "e.g. rational:2,-1;3,-4")
            return catalog_function("rational",
                                    np.array([float(w) for w, _, _ in pairs]),
                                    np.array([float(q) for _, _, q in pairs]))
        if sep:
            raise ValueError(f"{name} takes no argument")
        return catalog_function(name)
    except ValueError as exc:
        raise ValueError(f"function spec {spec!r}: {exc}") from None
