"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def count_draws(monkeypatch):
    """``count_draws(measure)`` records every later ``sample`` call on
    the measure's class, and returns the list of requested sizes."""

    def install(measure) -> list:
        calls = []
        draw = type(measure).sample

        def counted(self, n, seed=0):
            calls.append(n)
            return draw(self, n, seed)

        monkeypatch.setattr(type(measure), "sample", counted)
        return calls

    return install
