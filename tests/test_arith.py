import random

import numpy as np
import pytest

from subsum.arith import (
    I128_MAX,
    I128_MIN,
    I64_MAX,
    SEGMENT,
    exact_sum,
    ikrt,
    is_prime,
    isqrt,
    primes_up_to,
    segmented_prime_count,
    wide_check,
)


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(26) == 5
    assert isqrt(10**18) == 10**9


def test_isqrt_near_perfect_squares():
    rng = random.Random(1)
    for _ in range(2000):
        r = rng.randrange(1, 1 << 32)
        assert isqrt(r * r) == r
        assert isqrt(r * r - 1) == r - 1
        assert isqrt(r * r + 1) == r


def test_ikrt_examples():
    assert ikrt(27, 3) == 3
    assert ikrt(26, 3) == 2
    assert ikrt(1, 40) == 1
    assert ikrt(0, 7) == 0
    assert ikrt(12345, 1) == 12345


def test_ikrt_exhaustive_small_k():
    for k in (2, 3, 4, 5):
        for n in range(10**6 + 1):
            r = ikrt(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k, r)


def test_ikrt_near_perfect_powers():
    rng = random.Random(2)
    for _ in range(500):
        k = rng.randrange(2, 12)
        r = rng.randrange(2, 10**4)
        n = r**k
        assert ikrt(n, k) == r
        assert ikrt(n - 1, k) == r - 1
        assert ikrt(n + 1, k) == r


def test_ikrt_huge_inputs():
    # beyond float range: exercised by the evaluator's rational cutoffs
    n = 7**300
    assert ikrt(n, 3) == 7**100
    assert ikrt(n - 1, 3) == 7**100 - 1


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(341)  # 11 * 31, base-2 pseudoprime
    assert is_prime(2**61 - 1)


def test_is_prime_against_sieve():
    limit = 10**6
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    for n in range(limit + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_large_composites():
    assert not is_prime((2**31 - 1) * (2**31 + 11))
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(18446744073709551557)  # largest prime below 2^64


def test_segmented_prime_count_examples():
    assert segmented_prime_count(10, 20) == 4
    assert segmented_prime_count(2, 2) == 1
    assert segmented_prime_count(24, 28) == 0
    assert segmented_prime_count(1, 1) == 0


def test_segmented_prime_count_against_sieve():
    limit = 10**5
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    pi = np.cumsum(flags)
    rng = random.Random(3)
    xs = list(range(2, 500)) + [rng.randrange(2, limit) for _ in range(300)] + [limit]
    for x in xs:
        assert segmented_prime_count(2, x) == int(pi[x]), x
    for _ in range(200):
        a = rng.randrange(1, limit)
        b = rng.randrange(a, limit)
        assert segmented_prime_count(a, b) == int(pi[b] - pi[a - 1]), (a, b)


def test_primes_up_to():
    assert primes_up_to(1).size == 0
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_wide_overflow_signaled():
    with pytest.raises(OverflowError):
        wide_check(I128_MAX + 1)
    with pytest.raises(OverflowError):
        wide_check(I128_MIN - 1)
    assert wide_check(I128_MAX) == I128_MAX
    assert wide_check(I128_MIN) == I128_MIN


def test_exact_sum_where_int64_would_wrap():
    big = 1 << 62
    just_past = I64_MAX // 3 + 1  # max|v| * n first exceeds I64_MAX at n = 3
    cases = [
        [big] * 4,
        [big, big, -big, -big, big - 1, -(big - 1), big, 7],
        [-big] * 3 + [big - 5],
        [],
        [just_past] * 3,
        [-just_past, just_past, -just_past],
        [just_past] * 2,
        list(range(-1000, 1001, 7)),
    ]
    for values in cases:
        arr = np.array(values, dtype=np.int64)
        assert exact_sum(arr) == sum(int(v) for v in values), values
    rng = random.Random(5)
    values = [rng.randrange(-(1 << 62), 1 << 62) for _ in range(5000)]
    assert exact_sum(np.array(values, dtype=np.int64)) == sum(values)
    # more elements than one segment: the fallback sums segment by segment
    assert exact_sum(np.full(SEGMENT + 3, big, dtype=np.int64)) == (SEGMENT + 3) * big
