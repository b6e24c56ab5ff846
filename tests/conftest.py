"""Shared fixtures."""

import sys

import pytest

import quathyp.algebras
import quathyp.cli  # loads every module that binds the counted functions
import quathyp.numtheory
import quathyp.symbols


def _count_calls(monkeypatch, inner):
    """The argument tuples of the calls made to ``inner`` while the test
    runs.  The modules import library functions by name, so every binding
    of ``inner`` in a quathyp module is replaced by one counting wrapper."""
    calls = []

    def counted(*args):
        calls.append(args)
        return inner(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quathyp" and getattr(module, inner.__name__, None) is inner:
            monkeypatch.setattr(module, inner.__name__, counted)
    return calls


@pytest.fixture
def ramification_calls(monkeypatch):
    """The calls building a ramification set while the test runs."""
    return _count_calls(monkeypatch, quathyp.algebras.ramification_set)


@pytest.fixture
def hilbert_calls(monkeypatch):
    """The Hilbert symbols evaluated by name while the test runs (not the
    ones that Hasse invariants read off square-class keys)."""
    return _count_calls(monkeypatch, quathyp.symbols.hilbert_symbol)


@pytest.fixture
def factor_calls(monkeypatch):
    """The integers factored while the test runs, one argument tuple per
    call to `numtheory.factor` (cache hits included)."""
    return _count_calls(monkeypatch, quathyp.numtheory.factor)
