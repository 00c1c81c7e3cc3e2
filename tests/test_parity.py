import random

import numpy as np
import pytest

from subsum.arith import ikrt, segmented_prime_count
from subsum.combinator import SummatoryEvaluator
from subsum.parity import (
    interval_prime_parity,
    prime_power_counts,
    unitary_divisor_summatory,
)


def _oracle_prime_power_total(a, b):
    """sum over j >= 1 of #{p : p^j in [a, b]}, via the segmented sieve."""
    total = segmented_prime_count(max(a, 2), b) if b >= 2 else 0
    j = 2
    while (1 << j) <= b:
        lo = max(2, ikrt(a - 1, j) + 1)
        hi = ikrt(b, j)
        if lo <= hi:
            total += segmented_prime_count(lo, hi)
        j += 1
    return total


def test_unitary_divisor_summatory_examples():
    assert unitary_divisor_summatory(0) == 0
    assert unitary_divisor_summatory(1) == 1
    assert unitary_divisor_summatory(10) == 23


def test_unitary_divisor_summatory_vs_evaluator():
    ev = SummatoryEvaluator("mu@2 * tau2")
    xs = list(range(0, 2001)) + [4096, 9999, 31623, 65536, 99991, 10**5]
    for x in xs:
        assert unitary_divisor_summatory(x) == ev.eval(x), x


def test_unitary_divisor_summatory_tail_in_segments(monkeypatch):
    # The vectorized tail d in [d_table, isqrt(x)] runs in SEGMENT-sized
    # chunks: a 7-element segment splits it into up to 781 chunks here.
    monkeypatch.setattr("subsum.parity.SEGMENT", 7)
    ev = SummatoryEvaluator("mu@2 * tau2")
    for x in (0, 1, 1000, 31**2, 10**6 + 3, 3 * 10**7 + 1):
        assert unitary_divisor_summatory(x) == ev.eval(x), x


def test_prime_power_counts_examples():
    assert prime_power_counts(10, 20) == [(4, 1)]
    assert prime_power_counts(2, 3) == []
    assert (10, 1) in prime_power_counts(1020, 1030)
    assert prime_power_counts(4, 4) == [(2, 1)]
    assert prime_power_counts(16, 16) == [(4, 1)]  # counted at j=4 only
    assert prime_power_counts(1, 1) == []


def test_prime_power_counts_against_enumeration():
    # enumerate p^j <= bound directly and compare interval counts
    bound = 3000
    powers = {}
    for p in range(2, bound):
        if all(p % q for q in range(2, p)):
            pj, j = p * p, 2
            while pj <= bound:
                powers.setdefault(j, []).append(pj)
                pj *= p
                j += 1
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randrange(1, bound)
        b = rng.randrange(a, bound)
        want = [
            (j, len([v for v in vals if a <= v <= b]))
            for j, vals in sorted(powers.items())
        ]
        want = [(j, c) for j, c in want if c]
        assert prime_power_counts(a, b) == want, (a, b)


def test_parity_examples():
    assert interval_prime_parity(10, 20).parity == 0
    assert interval_prime_parity(2, 2).parity == 1
    assert interval_prime_parity(100, 1000).parity == 1


def test_parity_report_fields():
    report = interval_prime_parity(1, 10)
    assert report.one_adjustment == 1
    assert report.t2star_b == 23
    assert report.t2star_a_minus_1 == 0
    assert report.corrections == [(2, 2), (3, 1)]  # 4, 9 and 8
    assert (report.t2star_b - report.t2star_a_minus_1 - report.one_adjustment) % 2 == 0
    assert report.parity == segmented_prime_count(1, 10) % 2


def test_parity_rejects_bad_interval():
    with pytest.raises(ValueError):
        interval_prime_parity(5, 4)
    with pytest.raises(ValueError):
        interval_prime_parity(0, 4)


def test_parity_rejects_past_input_cap():
    # Raised before any sieve: mu up to isqrt(2^63) would need 3e9 cells.
    with pytest.raises(OverflowError):
        interval_prime_parity(2**63, 2**63 + 10)


def test_parity_accepts_numpy_integer_endpoints():
    # unconverted, an np.int64 endpoint fails in ikrt (it has no bit_length)
    for a, b in ((1, 10), (10**6, 10**6 + 100), (10**10, 10**10 + 1000)):
        want = interval_prime_parity(a, b)
        for np_a, np_b in ((np.int64(a), np.int64(b)), (a, np.int64(b)), (np.int64(a), b)):
            got = interval_prime_parity(np_a, np_b)
            assert got == want, (a, b)
            assert type(got.t2star_b) is int and type(got.t2star_a_minus_1) is int


def test_congruence_mod4_random_intervals():
    rng = random.Random(12)
    for _ in range(150):
        a = rng.randrange(2, 10**6)
        b = a + rng.randrange(0, 10**4)
        left = unitary_divisor_summatory(b) - unitary_divisor_summatory(a - 1)
        right = 2 * _oracle_prime_power_total(a, b)
        assert left % 4 == right % 4, (a, b)


def test_parity_against_sieve_random_intervals():
    rng = random.Random(13)
    for _ in range(150):
        a = rng.randrange(1, 10**6)
        b = a + rng.randrange(0, 10**4)
        assert interval_prime_parity(a, b).parity == segmented_prime_count(a, b) % 2, (a, b)


def test_parity_additivity():
    rng = random.Random(14)
    for _ in range(100):
        a = rng.randrange(1, 10**6 - 2)
        b = rng.randrange(a + 2, min(a + 20000, 10**6))
        m = rng.randrange(a, b)
        whole = interval_prime_parity(a, b).parity
        split = interval_prime_parity(a, m).parity ^ interval_prime_parity(m + 1, b).parity
        assert whole == split, (a, m, b)
