"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` records every later call of the
    method ``name`` on the class ``owner``, and returns the list of the
    calls' first arguments."""

    def install(owner, name) -> list:
        calls = []
        method = getattr(owner, name)

        def counted(self, first, *args, **kwargs):
            calls.append(first)
            return method(self, first, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install


@pytest.fixture
def count_draws(count_calls):
    """``count_draws(measure)`` records every later ``sample`` call on
    the measure's class, and returns the list of requested sizes."""
    return lambda measure: count_calls(type(measure), "sample")
