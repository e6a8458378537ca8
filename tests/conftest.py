"""Fixtures shared across the test suite."""

import pytest

from tdlf import _gmp


@pytest.fixture
def gmp_off(monkeypatch):
    """The GMP kernel switched off, as on a host where libgmp does not load:
    the wide products and remainders take the pure-Python layers."""
    monkeypatch.setattr(_gmp, "_lib", False)
