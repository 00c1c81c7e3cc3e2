"""Fixtures shared by the test modules."""

import pytest

import subsum.base_summatory as base
from subsum.arith import GrowOnly


@pytest.fixture
def empty_mu_table(monkeypatch):
    """Fresh, empty shared mu tables: MU_TABLE and the (mu, M) prefix table
    over it, which Mertens and every mu node (parity's too) read.

    Returns the function that installs them, so a test can start over.
    """

    def reset():
        table = GrowOnly(base.mobius_sieve)
        monkeypatch.setattr(base, "MU_TABLE", table)
        monkeypatch.setattr(base, "MERTENS_TABLE", GrowOnly(base._mu_and_mertens))

    reset()
    return reset
