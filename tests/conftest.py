"""Fixtures shared by the test modules."""

import pytest

import subsum.base_summatory as base
from subsum.arith import GrowOnly


@pytest.fixture
def empty_mu_table(monkeypatch):
    """A fresh, empty shared (mu, M) prefix table, which Mertens and every mu
    node (parity's too) read.

    Returns the function that installs it, so a test can start over.
    """

    def reset():
        monkeypatch.setattr(base, "MERTENS_TABLE", GrowOnly(base._mu_and_mertens))

    reset()
    return reset
