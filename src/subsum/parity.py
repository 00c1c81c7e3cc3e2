"""Parity of #{p in [a, b]} without enumerating the primes.

For n >= 2 the unitary divisor count 2^omega(n) is divisible by 4 unless n is
a prime power, so the interval sum T2*(b) - T2*(a-1) taken mod 4 counts prime
powers mod 2.  Subtracting the cheap j >= 2 corrections (p^j in [a, b] means
p in [a^(1/j), b^(1/j)], a short scan with a primality test) isolates the
parity of the prime count itself:

    #{p in [a,b]} = (T2*(b) - T2*(a-1)) / 2 - sum_{j>=2} #{p : p^j in [a,b]}  (mod 2)

n = 1 contributes the odd value 1 and is handled by an explicit adjustment.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import SEGMENT, check_bound, ikrt, is_prime, wide_check
from .base_summatory import MU_TABLE, T2_TABLE, T2_TABLE_LIMIT, divisor_summatory


def unitary_divisor_summatory(x: int) -> int:
    """T2*(x) = sum_{n<=x} 2^omega(n), via sum_{d<=sqrt(x)} mu(d) T2(x/d^2).

    Agrees with evaluating the expression "mu@2 * tau2"; this specialized
    loop exists because the parity search hammers it at large x.
    """
    if x < 0:
        raise ValueError("negative bound")
    r = isqrt(x)
    mu = MU_TABLE.covering(r)
    # the tail (small x // d^2) is gathered from the shared T2 table, SEGMENT terms at a time
    table = T2_TABLE.covering(T2_TABLE_LIMIT)
    d_table = isqrt(x // T2_TABLE_LIMIT) + 1  # x // d^2 < table limit from here on
    total = 0
    for d in range(1, min(d_table, r + 1)):
        m = int(mu[d])
        if m:
            total += m * divisor_summatory(x // (d * d))
    for lo in range(d_table, r + 1, SEGMENT):
        hi = min(lo + SEGMENT, r + 1)
        ds = np.arange(lo, hi, dtype=np.int64)
        total += int(np.dot(mu[lo:hi].astype(np.int64), table[x // (ds * ds)]))
    return wide_check(total)


def prime_power_counts(a: int, b: int) -> list[tuple[int, int]]:
    """For j >= 2, how many primes p have p^j in [a, b]; zero counts omitted.

    Each prime power is counted once, at its true exponent (16 shows up under
    j = 4 only, via p = 2).
    """
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    out = []
    j = 2
    while (1 << j) <= b:
        lo = max(2, ikrt(a - 1, j) + 1)
        hi = ikrt(b, j)
        count = sum(1 for n in range(lo, hi + 1) if is_prime(n))
        if count:
            out.append((j, count))
        j += 1
    return out


@dataclass(frozen=True)
class ParityReport:
    """Parity of the prime count in [a, b] plus the quantities behind it."""

    parity: int
    t2star_b: int
    t2star_a_minus_1: int
    corrections: list[tuple[int, int]]
    one_adjustment: int


def interval_prime_parity(a: int, b: int) -> ParityReport:
    """Decide whether [a, b] contains an odd number of primes."""
    a, b = check_bound(a), check_bound(b)
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    t2star_b = unitary_divisor_summatory(b)
    t2star_a1 = unitary_divisor_summatory(a - 1)
    one_adjustment = 1 if a == 1 else 0
    interval = t2star_b - t2star_a1 - one_adjustment
    if interval % 2:
        # impossible while the summatories are right: every n >= 2 term is even
        raise ArithmeticError(
            f"self-check failed: T2*({b}) - T2*({a - 1}) - {one_adjustment} is odd"
        )
    corrections = prime_power_counts(a, b)
    parity = (interval % 4) // 2
    for _, count in corrections:
        parity ^= count & 1
    return ParityReport(
        parity=parity,
        t2star_b=t2star_b,
        t2star_a_minus_1=t2star_a1,
        corrections=corrections,
        one_adjustment=one_adjustment,
    )
