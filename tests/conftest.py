"""Shared test helpers."""
import pytest
from hypothesis import settings

# ``--hypothesis-profile=explore``: fresh random draws on every run, none
# replayed from or saved to a database, and a failing draw printed with
# its reproduction blob.  Where CI is set, Hypothesis loads its own ``ci``
# profile instead, which is derandomized: it tries the same draws on every
# run.  A test that sets its own ``max_examples`` keeps that count, so an
# exploratory job repeats the run for more draws.
settings.register_profile("explore", derandomize=False, database=None,
                          print_blob=True, max_examples=1000)


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
