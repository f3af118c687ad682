"""Fixtures shared by several test modules."""

import sys

import numpy as np
import pytest

from jacksonq import polyroots, qcore


@pytest.fixture
def root_solves(monkeypatch):
    """A list that gains one entry per roots_with_multiplicity call, made
    through polyroots or any jacksonq module that imports the name."""
    calls = []
    real = polyroots.roots_with_multiplicity

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("jacksonq.")
                and getattr(module, "roots_with_multiplicity", None) is real):
            monkeypatch.setattr(module, "roots_with_multiplicity", counted)
    return calls


@pytest.fixture
def series_evals(monkeypatch):
    """A list that gains one entry per one-point TruncatedSeries.eval
    call (an array of points does not count)."""
    calls = []
    real = qcore.TruncatedSeries.eval

    def counted(self, z):
        if np.ndim(z) == 0:
            calls.append(1)
        return real(self, z)

    monkeypatch.setattr(qcore.TruncatedSeries, "eval", counted)
    return calls
