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
        """Evaluate f0(z + shift); defined for z + shift > 0 only.  At
        shift 0, z itself goes to f0: z + 0.0 is z for every z > 0."""
        arr = np.asarray(z, dtype=float)
        w = arr + self.shift if self.shift else arr
        if not (w > 0.0).all():  # NaN refuses too
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


def _phi(j: int):
    # phi_1 = (1 - e^-z)/z has no cancellation at any z > 0.  For j >= 2
    # the upward recurrence phi_{i+1} = (1/i! - phi_i)/z cancels near 0, so
    # |z| < 0.5 sums the Taylor series sum_i (-z)^i/(i + j)! by Horner to
    # i = 17: the first term dropped is under 1e-21 of phi_j(0) = 1/j!.
    coeffs = [(-1.0) ** i / math.factorial(i + j) for i in range(17, -1, -1)]

    def f(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if j == 1:
            return -np.expm1(-z) / z
        out = np.empty_like(z)
        small = np.abs(z) < 0.5
        zs, zl = z[small], z[~small]
        acc = np.full_like(zs, coeffs[0])
        for c in coeffs[1:]:
            acc = acc * zs + c
        out[small] = acc
        val = -np.expm1(-zl) / zl
        for i in range(1, j):
            val = (1.0 / math.factorial(i) - val) / zl
        out[~small] = val
        return out

    return f


def _power(alpha: float):
    def f(z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) ** (-alpha)

    return f


def _log1p_over_z(z: np.ndarray) -> np.ndarray:
    # z > 0 (``StieltjesFunction.__call__``), where log1p has no cancellation.
    z = np.asarray(z, dtype=float)
    return np.log1p(z) / z


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


#: The catalog entries without parameters: label, class, f0, f0(0+).
#: z^-1 is the alpha -> 1 end of the power family; it is the natural
#: Sylvester test function and a Cauchy-Stieltjes function with measure
#: concentrated at t = 0.
_FIXED = {
    "log1p_over_z": ("log(1+z)/z", "cauchy", _log1p_over_z, 1.0),
    "one_minus_exp_sqrt_over_z": ("(1-exp(-sqrt(z)))/z", "cauchy",
                                  _one_minus_exp_sqrt_over_z, math.inf),
    "lambertw_scaled": ("z^-1.5*W(z)", "laplace", _lambertw_scaled, math.inf),
    "inverse": ("z^-1", "cauchy",
                lambda z: 1.0 / np.asarray(z, dtype=float), math.inf),
}

#: Most parameters each catalog name takes.
_MOST_PARAMS = {"phi": 1, "power": 1, "rational": 2, **dict.fromkeys(_FIXED, 0)}


def catalog_function(name: str, *params) -> StieltjesFunction:
    """Construct a catalog entry.

    Supported names: ``phi`` (param j >= 1), ``power`` (param -alpha with
    0 < alpha < 1), ``log1p_over_z``, ``one_minus_exp_sqrt_over_z``,
    ``lambertw_scaled``, ``rational`` (params: weights array, poles array),
    ``inverse``.  An unknown name, and more parameters than a name takes,
    raise ValueError.
    """
    if name not in _MOST_PARAMS:
        raise ValueError(f"unknown catalog function {name!r}")
    most = _MOST_PARAMS[name]
    if len(params) > most:
        raise ValueError(f"{name} takes {f'at most {most}' if most else 'no'} "
                         f"parameters, got {params!r}")
    if name == "phi":
        j = count(params[0], "phi index") if params else 1
        return StieltjesFunction(f"phi_{j}", "laplace", _phi(j),
                                 1.0 / math.factorial(j))
    if name == "power":
        if not params:
            raise ValueError("power needs an exponent, e.g. power(-0.5)")
        expo = float(params[0])
        if not 0.0 < -expo < 1.0:
            raise ValueError(f"power exponent must lie in (-1, 0), got {expo}")
        return StieltjesFunction(f"z^{expo:g}", "cauchy", _power(-expo), math.inf)
    if name == "rational":
        if len(params) != 2:
            raise ValueError("rational needs (weights, poles)")
        return StieltjesFunction("rational", "cauchy", *_rational_negpoles(*params))
    return StieltjesFunction(*_FIXED[name])


#: CLI spellings of catalog names; any other name is read as a catalog name.
_SPELLINGS = {"log1p": "log1p_over_z", "sqrt-exp": "one_minus_exp_sqrt_over_z",
              "lambertw": "lambertw_scaled", "inv": "inverse"}


def _params(arg: str) -> list:
    """The parameters that ARG spells: none, one number (an integer
    literal as an int, for phi's index), or the columns of ``;``-joined
    rows of numbers."""
    if "," in arg:
        rows = [[float(t) for t in row.split(",")]
                for row in arg.split(";") if row]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("rows of different lengths")
        return [np.array(col) for col in zip(*rows)]
    try:
        return [int(arg)] if arg else []
    except ValueError:
        return [float(arg)]


def parse_function_spec(spec: str) -> StieltjesFunction:
    """``catalog_function(NAME, *params)`` of CLI shorthand ``NAME[:ARG]``
    (``phi:1``, ``power:-0.5``, ``lambertw``, ``rational:w1,p1;w2,p2``),
    ARG read by ``_params``.  A colon after a name without parameters, and
    what the catalog refuses, raise a ``ValueError`` naming the spec."""
    name, sep, arg = spec.partition(":")
    name = name.strip().lower()
    name = _SPELLINGS.get(name, name)
    try:
        if sep and _MOST_PARAMS.get(name) == 0:
            raise ValueError(f"{name} takes no argument")
        # An unknown name is refused as such, before its ARG is read.
        params = _params(arg) if name in _MOST_PARAMS else []
        return catalog_function(name, *params)
    except ValueError as exc:
        raise ValueError(f"function spec {spec!r}: {exc}") from None
