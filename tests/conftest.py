"""Fixtures shared by the test modules."""

import pytest

from kembed import oracle


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


@pytest.fixture
def count_rules(monkeypatch):
    """``count_rules()`` records every later build of a randomized
    rule's nodes by the oracle, and returns the list of the measures
    they were built on."""

    def install() -> list:
        measures = []
        build = oracle._rule_points

        def counted(measure, *args):
            measures.append(measure)
            return build(measure, *args)

        monkeypatch.setattr(oracle, "_rule_points", counted)
        return measures

    return install
