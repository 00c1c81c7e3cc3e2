"""Parity of #{p in [a, b]} without enumerating the primes.

For n >= 2 the unitary divisor count 2^omega(n) is divisible by 4 unless n is
a prime power, so the interval sum T2*(b) - T2*(a-1) taken mod 4 counts prime
powers mod 2.  Subtracting the cheap j >= 2 corrections (p^j in [a, b] means
p in [a^(1/j), b^(1/j)], a short scan with a primality test) isolates the
parity of the prime count itself:

    #{p in [a,b]} = (T2*(b) - T2*(a-1)) / 2 - sum_{j>=2} #{p : p^j in [a,b]}  (mod 2)

n = 1 contributes the odd value 1 and is handled by an explicit adjustment.
The interval sum is one `SummatoryEvaluator.eval_interval` of "mu@2 * tau2".
"""

from dataclasses import dataclass
from functools import cached_property

from .arith import check_bound, ikrt, is_prime
from .combinator import SummatoryEvaluator

_T2_STAR = "mu@2 * tau2"  # the unitary divisor count 2^omega(n) = sum_{d^2 e = n} mu(d) tau2(e)


def unitary_divisor_summatory(x: int) -> int:
    """T2*(x) = sum_{n<=x} 2^omega(n): one evaluation of "mu@2 * tau2"."""
    return SummatoryEvaluator(_T2_STAR).eval(x)


def prime_power_counts(a: int, b: int) -> list[tuple[int, int]]:
    """For j >= 2, how many primes p have p^j in [a, b]; zero counts omitted.

    Each prime power is counted once, at its true exponent (16 shows up under
    j = 4 only, via p = 2).
    """
    a, b = check_bound(a), check_bound(b)
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
    a: int
    b: int
    corrections: list[tuple[int, int]]
    one_adjustment: int

    # the endpoint values T2*(b) and T2*(a - 1): one evaluation each, on first read
    t2star_b = cached_property(lambda self: unitary_divisor_summatory(self.b))
    t2star_a_minus_1 = cached_property(lambda self: unitary_divisor_summatory(self.a - 1))


def interval_prime_parity(a: int, b: int) -> ParityReport:
    """Decide whether [a, b] contains an odd number of primes."""
    a, b = check_bound(a), check_bound(b)
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    one_adjustment = 1 if a == 1 else 0
    interval = SummatoryEvaluator(_T2_STAR).eval_interval(a, b) - one_adjustment
    if interval % 2:
        # impossible while the summatories are right: every n >= 2 term is even
        raise ArithmeticError(
            f"self-check failed: T2*({b}) - T2*({a - 1}) - {one_adjustment} is odd"
        )
    corrections = prime_power_counts(a, b)
    parity = (interval % 4) // 2
    for _, count in corrections:
        parity ^= count & 1
    return ParityReport(parity, a, b, corrections, one_adjustment)
