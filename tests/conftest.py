"""Fixtures shared by the test modules."""

import pytest

import subsum.base_summatory as base
import subsum.parity
from subsum.arith import GrowOnly


@pytest.fixture
def empty_mu_table(monkeypatch):
    """Fresh, empty shared mu tables: MU_TABLE (Mertens and parity) and the
    (mu, M) prefix table (Mertens and every mu node).

    Returns the function that installs them, so a test can start over.
    """

    def reset():
        table = GrowOnly(base.mobius_sieve)
        monkeypatch.setattr(base, "MU_TABLE", table)
        monkeypatch.setattr(subsum.parity, "MU_TABLE", table)
        monkeypatch.setattr(base, "MERTENS_TABLE", GrowOnly(base._mu_and_mertens))

    reset()
    return reset
