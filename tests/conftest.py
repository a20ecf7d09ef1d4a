"""Shared test helpers."""
import pytest


@pytest.fixture
def count_factors(monkeypatch):
    """``count_factors(*ops)`` spies on the factorizations of ``ops`` and
    returns the list of ``(index into ops, sigma)`` they append to.  Every
    spied call also checks that the operator dropped its last
    factorization before making a new one.  Counting tests build their own
    operators, since an operator keeps its last factorization across
    calls."""
    def spy_on(*ops) -> list:
        seen = []
        for i, op in enumerate(ops):
            def spy(sigma, i=i, op=op, factor=op._factor):
                assert op._last_factor is None  # dropped before factoring
                seen.append((i, sigma))
                return factor(sigma)
            monkeypatch.setattr(op, "_factor", spy)
        return seen
    return spy_on
