"""The pole strategies: one record per name, holding how its poles are
made, the a-priori bound that covers it and its Kronecker pole pair.

The paper pairs each function class with one pole choice: Laplace-Stieltjes
functions take the symmetric Zolotarev poles (``zolotarev``) and
Cauchy-Stieltjes functions the Moebius half-line poles (``cauchy``).  Each
has a nested equidistributed variant (``eds-laplace``, ``eds-cauchy``) and
a Kronecker pair for the two-sided solver; ``extended`` and ``polynomial``
are the uncertified baselines.  A caller's own pole list is a strategy too:
``get_strategy`` turns it into a nested record named ``custom``.

Nested families hand out one pole stream, so a basis grows a pole at a
time; the interval-optimal families depend on the target count and are
regenerated for each count.  Every bound is called as
``bound(f, interval, ell, norm)`` and is nan where no certificate covers
the family or the function class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .bounds import cauchy_bound, kron_cauchy_bound, kron_laplace_bound, laplace_bound
from .operators import SpectralInterval, as_pole, as_poles, count
from .poles import cauchy_kron_poles, cauchy_poles, eds_pole_iter, zolotarev_poles

__all__ = [
    "KronPair",
    "Strategy",
    "STRATEGIES",
    "KRON_PAIRS",
    "CANONICAL",
    "get_strategy",
    "mirror",
    "strategy_bound",
]

Bound = Callable[..., float]  # (f, interval, ell, norm) -> bound
Stream = Callable[..., Iterator[complex]]  # (interval) -> poles


def _uncertified(f, interval, ell: int, norm: float) -> float:
    return math.nan


def _eds(variant: str) -> Stream:
    return lambda iv: eds_pole_iter(iv, variant)


def _repeating(period: tuple) -> Stream:
    """Nested stream repeating one period of a baseline sequence."""
    return lambda iv: itertools.cycle(period)


@dataclass(frozen=True)
class Strategy:
    """One pole family.  Exactly one of ``stream`` (nested: a pole
    iterator for an interval) and ``fixed`` (the interval-optimal set for
    a count) is set."""

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
        """The first ``ell`` poles, fewer where a custom list runs out."""
        ell = count(ell, "ell")
        if self.nested:
            return list(itertools.islice(self.stream(iv), ell))
        return list(self.fixed(iv, ell))


def mirror(p):
    """The one map, both ways, between a shift on -B and the literal right
    pole (for B^T) it stands for: -p as ``as_pole`` reads it, so 0.0 and
    inf are their own images, an involution on poles as they are read."""
    return as_pole(-p)


@dataclass(frozen=True)
class KronPair(Strategy):
    """Pole pair of the Kronecker-sum solver.  Its ``stream`` or ``fixed``
    gives the left poles (for A) like a 1-D family, and the literal right
    poles (for B^T) are their ``mirror`` images, so both bases, A's and
    -B's, take the left poles and grow in lock-step from one list."""

    def poles(self, iv, ell: int) -> tuple[list, list]:
        """The left and the literal right poles at ``ell``."""
        psi = self.first(iv, ell)
        return psi, [mirror(p) for p in psi]


_EXTENDED = _repeating((math.inf, 0.0))  # extended Krylov: inf, 0, inf, 0, ...
_POLYNOMIAL = _repeating((math.inf,))  # plain Krylov: inf, inf, ...

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
             kron=KronPair("extended", stream=_EXTENDED, needs_interval=False)),
    Strategy("polynomial", stream=_POLYNOMIAL, needs_interval=False,
             kron=KronPair("polynomial", stream=_POLYNOMIAL,
                           needs_interval=False)),
)}

KRON_PAIRS: dict[str, KronPair] = {
    s.kron.name: s.kron for s in STRATEGIES.values() if s.kron is not None}

#: The paper's pole choice for each function class.
CANONICAL = {"laplace": "zolotarev", "cauchy": "cauchy"}


def get_strategy(strategy: str | Sequence[complex]) -> Strategy:
    """The table's record for a name.  A sequence of poles is the caller's
    own family: a nested record named ``custom`` that hands out the poles
    in order, ignores the interval and has no bound.  An unknown name, an
    empty list and a NaN pole (``operators.as_poles``) raise ValueError."""
    if not isinstance(strategy, str):
        poles = as_poles(strategy, "strategy")
        if not poles:
            raise ValueError("strategy: the custom pole list is empty")
        return Strategy("custom", stream=lambda iv: iter(poles),
                        needs_interval=False)
    try:
        return STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of "
                         f"{', '.join(STRATEGIES)}") from None


def strategy_bound(s: Strategy, f, interval, ell: int, norm: float) -> float:
    """Bound column of a 1-D trace: the record's ``bound``."""
    return s.bound(f, interval, ell, norm)
