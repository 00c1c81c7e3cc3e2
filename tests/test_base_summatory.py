import random
from fractions import Fraction

import numpy as np
import pytest

from subsum.base_summatory import (
    ATOM_NAMES,
    CHI4_TABLE,
    catalog_atom,
    character_summatory,
    divisor_summatory,
    mertens,
    mobius_sieve,
    power_summatory,
)
from subsum.oracle import mobius_values


def test_count_summatory():
    # the counting sum #{n <= x} is the catalog atom "one", i.e. power_summatory(0, x)
    count = catalog_atom("one").summatory
    for x in (0, 10, 10**12):
        assert count(x) == x
        assert power_summatory(0, x) == x


def test_power_summatory_examples():
    assert power_summatory(1, 10) == 55
    assert power_summatory(2, 4) == 30
    assert power_summatory(0, 7) == 7
    assert power_summatory(3, 3) == 36


def test_power_summatory_against_loops():
    sums = [0, 0, 0, 0]
    for n in range(1, 10**4 + 1):
        for k in range(4):
            sums[k] += n**k
        if n % 117 == 0 or n < 64:
            for k in range(4):
                assert power_summatory(k, n) == sums[k], (k, n)


def test_power_summatory_rejects_large_k():
    with pytest.raises(ValueError):
        power_summatory(4, 10)


def test_power_summatory_overflow():
    with pytest.raises(OverflowError):
        power_summatory(3, 1 << 62)


def test_character_summatory_examples():
    assert character_summatory(CHI4_TABLE, 4) == 0
    assert character_summatory(CHI4_TABLE, 5) == 1
    assert character_summatory(CHI4_TABLE, 3) == 0
    assert character_summatory(CHI4_TABLE, 0) == 0


def test_character_summatory_bounded_partial_sums():
    # chi4 partial sums are 0 or 1, exhaustively
    for x in range(10**6 + 1):
        assert character_summatory(CHI4_TABLE, x) == (1 if x % 4 in (1, 2) else 0)


def test_character_summatory_other_period():
    table = (2, -1, -1)
    direct = 0
    for n in range(1, 1000):
        direct += table[(n - 1) % 3]
        assert character_summatory(table, n) == direct


def test_mertens_examples():
    assert mertens(0) == 0
    assert mertens(10) == -1


def test_mertens_against_linear_sieve():
    mu = mobius_values(10**5)
    prefix = np.cumsum(mu)
    for x in range(0, 2001):
        assert mertens(x) == int(prefix[x]), x
    rng = random.Random(5)
    for x in [rng.randrange(2000, 10**5) for _ in range(120)] + [10**4, 10**5]:
        assert mertens(x) == int(prefix[x]), x
    # the table holds M up to floor(x^(2/3)) = m^2 exactly at x = m^3
    for m in range(11, 47):
        for x in (m**3 - 1, m**3, m**3 + 1):
            assert mertens(x) == int(prefix[x]), x


def test_mobius_sieve_matches_linear_sieve():
    assert mobius_sieve(3000).tolist() == mobius_values(3000)


def test_divisor_summatory_examples():
    assert divisor_summatory(0) == 0
    assert divisor_summatory(1) == 1
    assert divisor_summatory(10) == 27


def test_divisor_summatory_against_divisor_sieve():
    limit = 10**5
    counts = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        counts[d::d] += 1
    prefix = np.cumsum(counts)
    rng = random.Random(6)
    for x in list(range(1, 600)) + [rng.randrange(600, limit) for _ in range(400)] + [limit]:
        assert divisor_summatory(x) == int(prefix[x]), x


def test_catalog_atoms():
    assert set(ATOM_NAMES) == {"one", "id", "id2", "id3", "chi4", "mu", "tau2"}
    assert catalog_atom("mu").deceleration == Fraction(2, 3)
    assert catalog_atom("tau2").deceleration == Fraction(1, 3)
    assert catalog_atom("one").deceleration == 0
    assert catalog_atom("id3").deceleration == 0
    assert catalog_atom("chi4").summatory(5) == 1
    assert catalog_atom("tau2").summatory(10) == 27
    assert catalog_atom("id2").summatory(4) == 30
    assert catalog_atom("mu").pointwise.eval(7, 1) == -1
    with pytest.raises(ValueError):
        catalog_atom("zeta")
