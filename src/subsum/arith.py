"""Exact integer primitives: floor roots, checked wide arithmetic, primality,
prime sieves (no smallest-factor table: only the oracle needs one, and builds
it), and the grow-only table that shares sieved prefixes between threads.

Everything here is pure integer arithmetic.  Floating point appears only as an
initial guess for k-th roots and is always followed by integer correction
steps, because rounding near perfect powers is a classic off-by-one source.
"""

import operator
from math import isqrt
from threading import Lock
from typing import Any, Callable

import numpy as np

# Signed fixed-width ranges used as overflow contracts.  Python ints never
# wrap, so "overflow" here means "left the contracted range" and is raised,
# never silently absorbed.
I64_MAX = (1 << 63) - 1  # also the one input cap (check_bound and the CLI)
I128_MIN = -(1 << 127)
I128_MAX = (1 << 127) - 1

# Elements per numpy pass in every segmented loop: large enough that per-pass
# dispatch stays far below the per-element work, small enough to bound memory.
SEGMENT = 1 << 20


def wide_check(value: int) -> int:
    """Return *value* unchanged if it fits a signed 128-bit word, else raise."""
    if value < I128_MIN or value > I128_MAX:
        raise OverflowError(f"value does not fit in signed 128 bits: {value}")
    return value


def check_bound(x) -> int:
    """Return the bound x as an int if 0 <= x <= I64_MAX, else raise; a numpy
    integer becomes a Python int (which cannot wrap), a float raises TypeError."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("negative bound")
    if x > I64_MAX:
        raise OverflowError(f"bound exceeds the input cap 2^63 - 1 = {I64_MAX}")
    return x


def ikrt(n: int, k: int = 2) -> int:
    """Floor k-th root: the unique r with r**k <= n < (r+1)**k.

    Exact for any nonnegative int n (not just 64-bit) and any k >= 1.
    """
    if n < 0:
        raise ValueError("ikrt of a negative number")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    if n.bit_length() <= k:
        return 1
    if n < (1 << 53):
        # float guess is within +-1 here; correct anyway
        r = int(n ** (1.0 / k))
    else:
        # Newton iteration from a power-of-two overestimate
        r = 1 << -(-n.bit_length() // k)
        while True:
            nxt = ((k - 1) * r + n // r ** (k - 1)) // k
            if nxt >= r:
                break
            r = nxt
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


# Smallest sieve-free Miller-Rabin witness set proven complete for n < 2^64,
# also trial-divided out first.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64 (Miller-Rabin, fixed witnesses)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending int64 array of the primes <= limit."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def segmented_prime_count(a: int, b: int) -> int:
    """Exact #{prime p : a <= p <= b} via a segmented sieve."""
    if a > b:
        raise ValueError("empty interval: a > b")
    lo = max(a, 2)
    if lo > b:
        return 0
    base = primes_up_to(isqrt(b))
    total = 0
    for start in range(lo, b + 1, SEGMENT):
        stop = min(start + SEGMENT - 1, b)
        flags = np.ones(stop - start + 1, dtype=bool)
        for p in base.tolist():
            first = max(p * p, (start + p - 1) // p * p)
            if first > stop:
                continue
            flags[first - start :: p] = False
        total += int(np.count_nonzero(flags))
    return total


def max_abs(arr: np.ndarray) -> int:
    """max|v| over a non-empty int64 array, from its max and min (no |arr| temporary)."""
    return max(int(arr.max()), -int(arr.min()))


def sum_fits_int64(arr: np.ndarray) -> bool:
    """True when no partial sum of the int64 array can wrap: max|v| * n <= I64_MAX."""
    return arr.size == 0 or max_abs(arr) * arr.size <= I64_MAX


def exact_sum(arr: np.ndarray) -> int:
    """Exact sum of a signed int64 (or narrower) array (no silent int64 wrap).

    When the int64 sum could wrap, each element is split as hi * 2^31 + lo
    with 0 <= lo < 2^31, and both halves are summed per segment, where they
    cannot wrap.
    """
    if sum_fits_int64(arr):
        return int(np.sum(arr, dtype=np.int64))
    total = 0
    for i in range(0, arr.size, SEGMENT):
        chunk = arr[i : i + SEGMENT]
        lo = int(np.sum(chunk & 0x7FFFFFFF, dtype=np.int64))
        hi = int(np.sum(chunk >> 31, dtype=np.int64))
        total += (hi << 31) + lo
    return total


class GrowOnly:
    """A table over 0..n, built on demand, that only ever grows.

    build(m) returns a table covering 0..m.  covering(n) returns the current
    table when it covers n; otherwise, under one lock, it builds one covering
    max(n, 2 * have, 64), so that growing costs amortized linear work.  The
    table is published once, with its coverage, and only ever replaced by a
    longer one, so it may be shared between threads as long as every reader
    uses the table covering() returned.
    """

    def __init__(self, build: Callable[[int], Any]):
        self._build = build
        self._state: tuple[int, Any] = (-1, None)
        self._lock = Lock()

    def covering(self, n: int) -> Any:
        have, table = self._state
        if have < n:
            with self._lock:
                have, table = self._state
                if have < n:
                    have = max(n, 2 * have, 64)
                    table = self._build(have)
                    self._state = (have, table)
        return table
