import random
from fractions import Fraction

import numpy as np
import pytest

from subsum.base_summatory import (
    ATOM_NAMES,
    catalog_atom,
    chi4_summatory,
    divisor_summatory,
    mertens,
    mobius_sieve,
    power_summatory,
)
from subsum.arith import I64_MAX, ikrt
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


def test_closed_forms_over_arrays_match_scalars():
    xs = np.array([0, 1, 2, 3, 4, 5, 999, 10**6 + 3, 2_480_000_000, 4_300_000_000])
    for k in range(4):
        want = [power_summatory(k, int(x)) for x in xs]
        assert [int(v) for v in power_summatory(k, xs)] == want, k
    want = [chi4_summatory(int(x)) for x in xs]
    assert [int(v) for v in chi4_summatory(xs)] == want
    with pytest.raises(ValueError):
        power_summatory(1, np.array([3, -1]))
    with pytest.raises(ValueError):
        chi4_summatory(np.array([-1]))
    with pytest.raises(ValueError):
        chi4_summatory(-1)
    with pytest.raises(OverflowError):  # one term past 128 bits fails the whole array
        power_summatory(3, np.array([1, 6 * 10**9, 2]))


def test_power_summatory_rejects_large_k():
    with pytest.raises(ValueError):
        power_summatory(4, 10)


def test_power_summatory_overflow():
    with pytest.raises(OverflowError):
        power_summatory(3, 1 << 62)


def test_chi4_summatory_examples():
    assert chi4_summatory(4) == 0
    assert chi4_summatory(5) == 1
    assert chi4_summatory(3) == 0
    assert chi4_summatory(0) == 0


def test_chi4_summatory_exhaustive():
    # against a running sum of chi4(n) = 1, 0, -1, 0 for n = 1, 2, 3, 4 (mod 4)
    chi4 = (1, 0, -1, 0)
    running = [0]
    for n in range(1, 10**6 + 1):
        running.append(running[-1] + chi4[(n - 1) % 4])
    for x, want in enumerate(running):
        assert chi4_summatory(x) == want, x
    got = chi4_summatory(np.arange(10**6 + 1, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == running


def test_chi4_summatory_at_input_cap():
    # I64_MAX = 3 (mod 4); an int64 array there must not wrap
    seam = list(range(I64_MAX - 3, I64_MAX + 1))
    want = [0, 1, 1, 0]
    assert [chi4_summatory(x) for x in seam] == want
    got = chi4_summatory(np.array(seam, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_mertens_examples():
    assert mertens(0) == 0
    assert mertens(10) == -1


def test_mertens_published_powers_of_ten():
    # M(10^k) for k = 0..10 (OEIS A084237)
    want = [1, -1, 1, 2, -23, -48, 212, 1037, 1928, -222, -33722]
    assert [mertens(10**k) for k in range(11)] == want


def _large_quotient_count(x):
    """How many k have x//k above the Mertens prefix table's bound u."""
    u = min(max(ikrt(x * x, 3), 1000), x)
    return x // (u + 1)


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
    # the large-quotient array gains an entry where x // (u + 1) steps
    counts = [_large_quotient_count(x) for x in range(1000, 10**5 + 1)]
    steps = [x for x in range(1001, 10**5 + 1) if counts[x - 1000] != counts[x - 1001]]
    assert len(steps) > 40
    for x in steps:
        for y in (x - 1, x, min(x + 1, 10**5)):
            assert mertens(y) == int(prefix[y]), y


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


def _t2_bounds():
    """Seams of the table and of the hyperbola's isqrt, plus random bounds up to 1e12."""
    limit = 1 << 18
    rng = random.Random(12)
    xs = {0, limit - 1, limit, limit + 1}
    for m in (2, 3, 100, 511, 512, 513, 1000, 10**5, 10**6):
        xs |= {m * m - 1, m * m, m * m + 1}
    xs |= {rng.randrange(1, limit) for _ in range(200)}
    xs |= {rng.randrange(limit, 10**12) for _ in range(30)}
    return sorted(xs)


def test_divisor_summatory_over_arrays_matches_hyperbola():
    from subsum.base_summatory import _hyperbola

    xs = _t2_bounds()
    got = divisor_summatory(np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [_hyperbola(x) for x in xs]
    assert [divisor_summatory(x) for x in xs] == got.tolist()
    empty = divisor_summatory(np.array([], dtype=np.int64))
    assert empty.size == 0
    with pytest.raises(ValueError):
        divisor_summatory(np.array([5, -1], dtype=np.int64))
    with pytest.raises(ValueError):
        divisor_summatory(-1)


def test_divisor_summatory_array_switches_to_python_ints(monkeypatch):
    # An array is int64 exactly when max * (bit_length(max) + 1), which bounds
    # T2(max), fits; moving the cap moves the switch without a huge T2.
    import subsum.base_summatory as base

    for y in _t2_bounds():
        assert divisor_summatory(y) <= y * (y.bit_length() + 1)
    assert base._t2_fits_int64(10**17) and not base._t2_fits_int64(2**58)

    xs = np.array([7, 10**5, 10**6 + 1], dtype=np.int64)
    want = divisor_summatory(xs).tolist()
    bound = (10**6 + 1) * ((10**6 + 1).bit_length() + 1)
    for cap, dtype in ((bound, np.int64), (bound - 1, object)):
        monkeypatch.setattr(base, "I64_MAX", cap)
        got = divisor_summatory(xs)
        assert got.dtype == dtype and got.tolist() == want, cap


def test_catalog_atoms():
    assert set(ATOM_NAMES) == {"one", "id", "id2", "id3", "chi4", "mu", "tau2"}
    assert catalog_atom("mu").deceleration == Fraction(2, 3)
    assert catalog_atom("tau2").deceleration == Fraction(1, 3)
    assert catalog_atom("one").deceleration == 0
    assert catalog_atom("id3").deceleration == 0
    assert catalog_atom("chi4").summatory(5) == 1
    assert catalog_atom("tau2").summatory(10) == 27
    assert catalog_atom("tau2").takes_arrays and not catalog_atom("mu").takes_arrays
    assert catalog_atom("id2").summatory(4) == 30
    assert catalog_atom("mu").pointwise.eval(7, 1) == -1
    with pytest.raises(ValueError):
        catalog_atom("zeta")
