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
``bound(f, interval, ell, norm, conjectured_gamma=...)`` and is nan where
no certificate covers the family or the function class.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from .bounds import cauchy_bound, kron_cauchy_bound, kron_laplace_bound, laplace_bound
from .operators import SpectralInterval
from .poles import (
    PoleSequence,
    cauchy_kron_poles,
    cauchy_poles,
    eds_pole_iter,
    extended_poles,
    laplace_kron_poles,
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

Bound = Callable[..., float]
Stream = Callable[..., Iterator[complex]]  # (interval, custom_poles) -> poles


def _uncertified(f, interval, ell: int, norm: float,
                 conjectured_gamma: bool = False) -> float:
    return math.nan


def _cauchy_only(bound: Callable[..., float]) -> Bound:
    """The Cauchy-class certificates hold for Cauchy-Stieltjes f only."""
    def checked(f, interval, ell: int, norm: float,
                conjectured_gamma: bool = False) -> float:
        return bound(f, interval, ell, norm) if f.is_cauchy else math.nan
    return checked


def _eds(variant: str) -> Stream:
    return lambda iv, custom_poles: eds_pole_iter(iv, variant)


def _repeating(period: PoleSequence) -> Stream:
    """Nested stream repeating one period of a baseline sequence."""
    poles = period.poles.tolist()
    return lambda iv, custom_poles: itertools.cycle(poles)


def _custom(iv, custom_poles) -> Iterator[complex]:
    if custom_poles is None or len(custom_poles) == 0:
        raise ValueError("strategy 'custom' needs a non-empty custom_poles list")
    return iter(list(custom_poles))


def _prefix(stream: Stream, iv, count: int) -> list:
    return list(itertools.islice(stream(iv, None), count))


def _fixed_pair(maker) -> Callable:
    def pair(iv, ell: int):
        psi, xi = maker(iv, ell)
        return list(psi.poles), list(xi.poles)
    return pair


def _nested_pair(stream: Stream, mirror: Callable) -> Callable:
    """Left poles from a nested stream, right poles mirrored from them
    (0 and inf are their own mirror images, so the baselines keep them)."""
    def pair(iv, ell: int):
        psi = _prefix(stream, iv, ell)
        return psi, [mirror(p) for p in psi]
    return pair


@dataclass(frozen=True)
class KronPair:
    """Pole pair of the Kronecker-sum solver.  ``poles(iv, ell)`` returns
    the left poles (for A) and the literal right poles (for B^T)."""

    name: str
    poles: Callable[[SpectralInterval, int], tuple[list, list]]
    bound: Bound = _uncertified


@dataclass(frozen=True)
class Strategy:
    """One pole family.  Exactly one of ``stream`` (nested: a pole
    iterator for an interval and the custom list) and ``fixed`` (the
    interval-optimal set for a count) is set."""

    name: str
    stream: Stream | None = None
    fixed: Callable[[SpectralInterval, int], PoleSequence] | None = None
    bound: Bound = _uncertified
    kron: KronPair | None = None
    needs_interval: bool = True

    @property
    def nested(self) -> bool:
        return self.stream is not None

    def first(self, iv, count: int) -> list:
        """The first ``count`` poles of a named family."""
        if count < 1:
            raise ValueError(f"pole count must be >= 1, got {count}")
        if self.nested:
            return _prefix(self.stream, iv, count)
        return list(self.fixed(iv, count).poles)


_EXTENDED = _repeating(extended_poles(2))
_POLYNOMIAL = _repeating(polynomial_poles(1))

STRATEGIES: dict[str, Strategy] = {s.name: s for s in (
    Strategy("zolotarev", fixed=zolotarev_poles, bound=laplace_bound,
             kron=KronPair("laplace-kron", _fixed_pair(laplace_kron_poles),
                           kron_laplace_bound)),
    Strategy("cauchy", fixed=cauchy_poles, bound=_cauchy_only(cauchy_bound),
             kron=KronPair("cauchy-kron", _fixed_pair(cauchy_kron_poles),
                           _cauchy_only(kron_cauchy_bound))),
    # The EDS variants carry the certified curve of their family as a
    # reference column.
    Strategy("eds-laplace", stream=_eds("laplace"), bound=laplace_bound,
             kron=KronPair("eds-laplace",
                           _nested_pair(_eds("laplace"), operator.neg))),
    Strategy("eds-cauchy", stream=_eds("cauchy"),
             bound=_cauchy_only(cauchy_bound),
             kron=KronPair("eds-cauchy",
                           _nested_pair(_eds("kron-cauchy"), operator.neg))),
    Strategy("extended", stream=_EXTENDED, needs_interval=False,
             kron=KronPair("extended", _nested_pair(_EXTENDED, operator.pos))),
    Strategy("polynomial", stream=_POLYNOMIAL, needs_interval=False,
             kron=KronPair("polynomial",
                           _nested_pair(_POLYNOMIAL, operator.pos))),
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


def strategy_bound(strategy: str, f, interval, ell: int, vnorm: float,
                   conjectured_gamma: bool = False) -> float:
    """Bound column of a 1-D trace: the named record's ``bound``."""
    return get_strategy(strategy).bound(f, interval, ell, vnorm,
                                        conjectured_gamma=conjectured_gamma)
