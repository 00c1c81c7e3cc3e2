"""Slow, obviously-correct references used by tests and acceptance runs only.

Nothing here shares logic with the fast paths: factorization is trial
division (or, for bulk sweeps, a walk over the smallest-prime-factor table
that this module sieves itself), convolution is a literal divisor-pair
enumeration, and the Moebius sieve is the textbook linear sieve.
"""

from math import isqrt
from typing import Sequence

import numpy as np

from .arith import ikrt, wide_check
from .multfn import PrimePowerFn

_TRIAL_CAP = 10**12


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n by trial division; [] for n = 1."""
    if not 1 <= n <= _TRIAL_CAP:
        raise ValueError("outside trial-division budget")
    out = []
    for p in (2, 3):
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
    d = 5
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 2 if d % 6 == 5 else 4  # skip multiples of 2 and 3
    if n > 1:
        out.append((n, 1))
    return out


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = the smallest prime factor of n for 2 <= n <= limit; spf[0] = spf[1] = 0."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2  # anything still unset is prime
    spf[rest] = rest
    return spf.tolist()


def brute_pointwise(f: PrimePowerFn, n: int) -> int:
    """f(n) by trial-division factorization and multiplicativity."""
    value = 1
    for p, a in factorize(n):
        value *= f.eval(p, a)
    return value


def brute_summatory(f: PrimePowerFn, x: int) -> int:
    """sum_{n<=x} f(n), one factorization at a time."""
    if x < 0:
        raise ValueError("negative bound")
    if x > 10**7:
        raise ValueError("outside the brute-force budget")
    if x == 0:
        return 0
    return brute_summatory_batch([f], [x])[0][0]


def brute_summatory_batch(
    fs: Sequence[PrimePowerFn], checkpoints: Sequence[int]
) -> list[list[int]]:
    """Prefix sums of several descriptors at several checkpoints, in one sweep.

    One smallest-prime-factor walk per n; per-descriptor prime-power values
    are memoized (they are pure by contract).  Returns result[i][j] =
    sum_{n <= checkpoints[j]} fs[i](n).
    """
    if any(x < 1 for x in checkpoints):
        raise ValueError("checkpoints must be >= 1")
    order = sorted(range(len(checkpoints)), key=lambda i: checkpoints[i])
    limit = max(checkpoints)
    spf = smallest_prime_factors(limit)
    memos: list[dict[tuple[int, int], int]] = [{} for _ in fs]
    running = [0] * len(fs)
    out = [[0] * len(checkpoints) for _ in fs]
    at = 0
    for n in range(1, limit + 1):
        m = n
        powers = []
        while m > 1:
            p = spf[m]
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            powers.append((p, a))
        for i, f in enumerate(fs):
            value = 1
            memo = memos[i]
            for key in powers:
                got = memo.get(key)
                if got is None:
                    got = memo[key] = f.eval(*key)
                value *= got
            running[i] += value
        while at < len(order) and checkpoints[order[at]] == n:
            for i in range(len(fs)):
                out[i][order[at]] = wide_check(running[i])
            at += 1
    return out


def brute_convolution(
    f: PrimePowerFn, g: PrimePowerFn, k1: int, k2: int, n: int
) -> int:
    """sum over d1^k1 * d2^k2 = n of f(d1) g(d2), by direct enumeration."""
    if n < 1 or n > 10**6:
        raise ValueError("outside the brute-force budget")
    if k1 < 1 or k2 < 1:
        raise ValueError("stretch orders must be >= 1")
    total = 0
    d1 = 1
    while d1**k1 <= n:
        q, rem = divmod(n, d1**k1)
        if rem == 0:
            d2 = ikrt(q, k2)
            if d2**k2 == q:
                total += brute_pointwise(f, d1) * brute_pointwise(g, d2)
        d1 += 1
    return total


def mobius_values(limit: int) -> list[int]:
    """mu(0..limit) by the linear sieve (each composite crossed exactly once)."""
    if limit < 0:
        raise ValueError("negative limit")
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    composite = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            composite[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return mu
