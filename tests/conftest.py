"""Fixtures shared by several test modules."""

import sys

import pytest

from jacksonq import polyroots


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
