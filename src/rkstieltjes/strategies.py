"""The pole strategies: one record per name, holding how its poles are
made, the a-priori bound that covers it and its Kronecker pole pair.

The paper pairs each function class with one pole choice: Laplace-Stieltjes
functions take the symmetric Zolotarev poles (``zolotarev``) and
Cauchy-Stieltjes functions the Moebius half-line poles (``cauchy``).  Each
has a nested equidistributed variant (``eds-laplace``, ``eds-cauchy``) and
a Kronecker pair for the two-sided solver; ``extended`` and ``polynomial``
are the uncertified baselines, and ``custom`` takes the caller's list.

Nested families hand out one pole stream, so a basis grows a pole at a
time; the interval-optimal families depend on the target count and are
regenerated for each count.  Every bound is called as
``bound(f, interval, ell, norm)`` and is nan where no certificate covers
the family or the function class.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .bounds import cauchy_bound, kron_cauchy_bound, kron_laplace_bound, laplace_bound
from .operators import SpectralInterval, count
from .poles import (
    cauchy_kron_poles,
    cauchy_poles,
    eds_pole_iter,
    extended_poles,
    polynomial_poles,
    zolotarev_poles,
)

__all__ = [
    "KronPair",
    "Strategy",
    "STRATEGIES",
    "KRON_PAIRS",
    "CANONICAL",
    "get_strategy",
    "strategy_bound",
]

Bound = Callable[..., float]  # (f, interval, ell, norm) -> bound
Stream = Callable[..., Iterator[complex]]  # (interval, custom_poles) -> poles


def _uncertified(f, interval, ell: int, norm: float) -> float:
    return math.nan


def _eds(variant: str) -> Stream:
    return lambda iv, custom_poles: eds_pole_iter(iv, variant)


def _repeating(period: np.ndarray) -> Stream:
    """Nested stream repeating one period of a baseline sequence."""
    poles = period.tolist()
    return lambda iv, custom_poles: itertools.cycle(poles)


def _custom(iv, custom_poles) -> Iterator[complex]:
    if custom_poles is None or len(custom_poles) == 0:
        raise ValueError("strategy 'custom' needs a non-empty custom_poles list")
    return iter(list(custom_poles))


@dataclass(frozen=True)
class Strategy:
    """One pole family.  Exactly one of ``stream`` (nested: a pole
    iterator for an interval and the custom list) and ``fixed`` (the
    interval-optimal set for a count) is set."""

    name: str
    stream: Stream | None = None
    fixed: Callable[[SpectralInterval, int], np.ndarray] | None = None
    bound: Bound = _uncertified
    kron: KronPair | None = None
    needs_interval: bool = True

    @property
    def nested(self) -> bool:
        return self.stream is not None

    def first(self, iv, ell: int) -> list:
        """The first ``ell`` poles of a named family."""
        ell = count(ell, "ell")
        if self.nested:
            return list(itertools.islice(self.stream(iv, None), ell))
        return list(self.fixed(iv, ell))


@dataclass(frozen=True)
class KronPair(Strategy):
    """Pole pair of the Kronecker-sum solver.  Its ``stream`` or ``fixed``
    gives the left poles (for A) like a 1-D family, and ``mirror`` maps
    each to a literal right pole (for B^T).  Both spaces grow with the
    left poles: the right space is built on -B, where the mirrored pole
    -p of a certified pair is p again, and 0 and inf, the baselines'
    poles, are their own mirror images."""

    mirror: Callable[[complex], complex] = operator.neg

    def poles(self, iv, ell: int) -> tuple[list, list]:
        """The left and the literal right poles at ``ell``."""
        psi = self.first(iv, ell)
        return psi, [self.mirror(p) for p in psi]


_EXTENDED = _repeating(extended_poles(2))
_POLYNOMIAL = _repeating(polynomial_poles(1))

STRATEGIES: dict[str, Strategy] = {s.name: s for s in (
    # The left poles of ``laplace_kron_poles`` are the Zolotarev poles.
    Strategy("zolotarev", fixed=zolotarev_poles, bound=laplace_bound,
             kron=KronPair("laplace-kron", fixed=zolotarev_poles,
                           bound=kron_laplace_bound)),
    Strategy("cauchy", fixed=cauchy_poles, bound=cauchy_bound,
             kron=KronPair("cauchy-kron",
                           fixed=lambda iv, ell: cauchy_kron_poles(iv, ell)[0],
                           bound=kron_cauchy_bound)),
    # The EDS variants carry the certified curve of their family as a
    # reference column.
    Strategy("eds-laplace", stream=_eds("laplace"), bound=laplace_bound,
             kron=KronPair("eds-laplace", stream=_eds("laplace"))),
    Strategy("eds-cauchy", stream=_eds("cauchy"), bound=cauchy_bound,
             kron=KronPair("eds-cauchy", stream=_eds("kron-cauchy"))),
    Strategy("extended", stream=_EXTENDED, needs_interval=False,
             kron=KronPair("extended", stream=_EXTENDED, mirror=operator.pos,
                           needs_interval=False)),
    Strategy("polynomial", stream=_POLYNOMIAL, needs_interval=False,
             kron=KronPair("polynomial", stream=_POLYNOMIAL,
                           mirror=operator.pos, needs_interval=False)),
    Strategy("custom", stream=_custom, needs_interval=False),
)}

KRON_PAIRS: dict[str, KronPair] = {
    s.kron.name: s.kron for s in STRATEGIES.values() if s.kron is not None}

#: The paper's pole choice for each function class.
CANONICAL = {"laplace": "zolotarev", "cauchy": "cauchy"}


def get_strategy(name: str) -> Strategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; expected one of "
                         f"{', '.join(STRATEGIES)}") from None


def strategy_bound(strategy: str, f, interval, ell: int, norm: float) -> float:
    """Bound column of a 1-D trace: the named record's ``bound``."""
    return get_strategy(strategy).bound(f, interval, ell, norm)
