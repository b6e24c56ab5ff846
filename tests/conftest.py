"""Shared fixtures."""

import sys

import pytest

import quathyp.algebras
import quathyp.cli  # loads every module that binds ramification_set


@pytest.fixture
def ramification_calls(monkeypatch):
    """The algebras whose ramification set is built while the test runs.

    The modules import ``ramification_set`` by name, so every binding of
    it in a quathyp module is replaced by one counting wrapper.
    """
    inner = quathyp.algebras.ramification_set
    calls = []

    def counted(D):
        calls.append(D)
        return inner(D)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quathyp" and getattr(module, "ramification_set", None) is inner:
            monkeypatch.setattr(module, "ramification_set", counted)
    return calls
