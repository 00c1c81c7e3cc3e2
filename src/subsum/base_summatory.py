"""Base summatory routines: the catalog atoms every expression bottoms out in.

Power sums and the chi4 sum close in O(1), for one bound or for an int64
array of bounds at once.  The Mertens function reads M(q <= u) from one
process-wide (mu, M) table over 0..u, u >= x^(2/3) (MERTENS_TABLE, which every
mu node also reads; its mu is a slice of the int8 MU_TABLE).  x <= u is one
read; above it, M(x//k) for the k with x//k > u is filled bottom-up, largest k
first, each as M(v) = 1 - sum_{d=2..v} M(v//d) in three numpy arrays; that is
what gives the ~x^(2/3) running time the deceleration table records.
The divisor summatory also takes one bound or an int64 array of them: bounds
up to 2^18 are gathered from one process-wide T2 prefix table (T2_TABLE,
which every tau2 node reads), and each larger one runs the Dirichlet hyperbola
identity at the sqrt(x) split; its catalog deceleration stays 1/3, the best
known exponent for it, which this package does not implement (see README).
"""

from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple

import numpy as np

from . import multfn
from .arith import I64_MAX, SEGMENT, GrowOnly, exact_sum, ikrt, primes_up_to, wide_check
from .multfn import PrimePowerFn


def _largest_bound(x) -> int:
    """The largest bound in x (an int or an int64 array; 0 if empty); none may be negative."""
    low = high = x
    if isinstance(x, np.ndarray):
        low, high = (int(x.min()), int(x.max())) if x.size else (0, 0)
    if low < 0:
        raise ValueError("negative bound")
    return high


def power_summatory(k: int, x):
    """Sum_{n<=x} n^k in closed form, exact; catalog supports k <= 3.

    x is an int or an int64 array of bounds (summed element-wise).  The sum
    grows with x, so the largest bound gives the extreme term, which is
    checked against 128 bits; an array is summed in int64 when 3 times that
    term fits (no intermediate exceeds it), else on Python ints.
    """
    top = _largest_bound(x)
    if not 0 <= k <= 3:
        raise ValueError("power summatory catalog covers k <= 3")
    if k == 0:
        return x
    array = isinstance(x, np.ndarray)
    if array and 3 * power_summatory(k, top) > I64_MAX:
        x = x.astype(object)
    half = x * (x + 1) // 2  # consecutive integers: exact division
    value = half if k == 1 else half * (2 * x + 1) // 3 if k == 2 else half * half
    return value if array else wide_check(value)


def chi4_summatory(x):
    """Sum_{n<=x} chi4(n), chi4 the non-principal character mod 4: 1 when
    x % 4 is 1 or 2, that is when bits 0 and 1 of x differ, else 0.

    x is an int or an int64 array of bounds (element-wise).  Only shifts and
    bit operations run (no division, and no x + 1 that could wrap), and every
    value is 0 or 1, so an int64 array stays int64.
    """
    _largest_bound(x)
    return (x ^ x >> 1) & 1


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as int8 (mu(0) stored as 0).

    Only the primes p <= sqrt(limit) are sieved, one SEGMENT-sized block at a
    time: each flips the sign of its multiples and divides them out of `rest`
    once, and zeroes the multiples of p^2.  A squarefree n left with rest > 1
    has exactly one prime factor above sqrt(limit), so its sign flips once more.
    """
    if limit < 0:
        raise ValueError("negative sieve limit")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    primes = primes_up_to(isqrt(limit)).tolist()
    dtype = np.int32 if limit < 1 << 31 else np.int64
    for lo in range(0, limit + 1, SEGMENT):
        block = mu[lo : lo + SEGMENT]
        rest = np.arange(lo, lo + block.size, dtype=dtype)
        for p in primes:
            block[-lo % p :: p] *= -1
            rest[-lo % p :: p] //= p
            block[-lo % (p * p) :: p * p] = 0
        block[rest > 1] *= -1
    return mu


# mu(0..m) for a growing m, shared by every caller in the process.  The lambda
# looks mobius_sieve up at call time, so a wrapper bound to the module name
# (a tracer, say) sees each sieve.
MU_TABLE = GrowOnly(lambda m: mobius_sieve(m))


def _mu_and_mertens(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu(0..m), M(0..m)): M is int32 while m < 2^31, which |M(n)| <= n makes safe."""
    mu = MU_TABLE.covering(m)[: m + 1]
    return mu, np.cumsum(mu, dtype=np.int32 if m < 1 << 31 else np.int64)


# (mu, M) over 0..m for a growing m, 5 bytes a cell: Mertens and every mu node
# (parity's too) read it.
MERTENS_TABLE = GrowOnly(_mu_and_mertens)

# Prefix-table threshold: u ~ x^(2/3) balances the sieve against the
# large-quotient sums, which cost O(x / sqrt(u)) array elements overall.
_MERTENS_FLOOR = 1000


def mertens(x: int) -> int:
    """M(x) = sum_{n<=x} mu(n), exact."""
    if x < 0:
        raise ValueError("negative bound")
    # the table covers at least u ~ x^(2/3); all of it serves as the prefix
    small = MERTENS_TABLE.covering(min(max(ikrt(x * x, 3), _MERTENS_FLOOR), x))[1]
    u = small.size - 1
    if x <= u:
        return int(small[x])
    # large[k] = M(x//k) for the k with x//k > u, filled from the top down:
    # M(v) = 1 - sum_{d=2..v} M(v//d) with v = x//k and r = isqrt(v).  For
    # d <= r, v//d = x//(kd) is a large[k*d] already filled or at most u; the
    # d > r are grouped by their quotient q <= v//(r+1).  |M(q)| <= q and q
    # has at most v/q^2 + 1 such d, so every term fits int64.
    kmax = x // (u + 1)
    large = np.zeros(kmax + 1, dtype=np.int64)
    for k in range(kmax, 0, -1):
        v = x // k
        r = isqrt(v)
        top = min(r, kmax // k)
        qs = np.arange(1, v // (r + 1) + 1, dtype=np.int64)
        counts = v // qs - np.maximum(v // (qs + 1), r)
        terms = (
            large[2 * k : top * k + 1 : k],
            small[v // np.arange(top + 1, r + 1, dtype=np.int64)],
            counts * small[1 : qs.size + 1],
        )
        large[k] = 1 - exact_sum(np.concatenate(terms))
    return int(large[1])


# T2(0..m), shared by every caller in the process: a bound up to the limit is
# one gather from it.
T2_TABLE_LIMIT = 1 << 18
T2_TABLE = GrowOnly(lambda m: np.cumsum(multfn.algorithm_m(multfn.TAU2, m).values, dtype=np.int64))


def _t2_fits_int64(y: int) -> bool:
    """T2(y) <= I64_MAX, proven by T2(y) <= y (ln y + 1) < y (bit_length(y) + 1)."""
    return y * (y.bit_length() + 1) <= I64_MAX


def _hyperbola(x: int) -> int:
    """T2(x) by the Dirichlet hyperbola identity, O(sqrt x)."""
    r = isqrt(x)
    # sum_{d<=r} x//d = (T2(x) + r^2) / 2 <= T2(x), so no partial sum wraps if T2(x) fits
    fits = _t2_fits_int64(x)
    s = 0
    for lo in range(1, r + 1, SEGMENT):
        hi = min(lo + SEGMENT - 1, r)
        q = x // np.arange(lo, hi + 1, dtype=np.int64)
        s += int(q.sum()) if fits else exact_sum(q)
    return wide_check(2 * s - r * r)


def divisor_summatory(x):
    """T2(x) = sum_{n<=x} tau2(n), exact.

    x is an int or an int64 array of bounds (summed element-wise).  Bounds up
    to T2_TABLE_LIMIT are read from T2_TABLE; each larger one runs the
    hyperbola.  An array is summed in int64 when T2(max) provably fits, else
    on Python ints.
    """
    top = _largest_bound(x)
    table = T2_TABLE.covering(T2_TABLE_LIMIT)
    if not isinstance(x, np.ndarray):
        return int(table[x]) if x <= T2_TABLE_LIMIT else _hyperbola(x)
    dtype = np.int64 if _t2_fits_int64(top) else object
    out = table[np.minimum(x, T2_TABLE_LIMIT)].astype(dtype, copy=False)
    for i in np.flatnonzero(x > T2_TABLE_LIMIT).tolist():
        out[i] = _hyperbola(int(x[i]))
    return out


class CatalogAtom(NamedTuple):
    pointwise: PrimePowerFn
    summatory: Callable[[int], int]
    deceleration: Fraction
    takes_arrays: bool = False  # summatory also maps an int64 array of bounds
    # covering(n): a shared (f, prefix) table over 0..m, m >= n; None: each node sieves its own
    covering: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None


_CATALOG: dict[str, CatalogAtom] = {
    "one": CatalogAtom(multfn.ONE, lambda x: power_summatory(0, x), Fraction(0), True),
    "id": CatalogAtom(multfn.ID, lambda x: power_summatory(1, x), Fraction(0), True),
    "id2": CatalogAtom(multfn.ID2, lambda x: power_summatory(2, x), Fraction(0), True),
    "id3": CatalogAtom(multfn.ID3, lambda x: power_summatory(3, x), Fraction(0), True),
    "chi4": CatalogAtom(multfn.CHI4, chi4_summatory, Fraction(0), True),
    "mu": CatalogAtom(
        multfn.MU, mertens, Fraction(2, 3), covering=lambda n: MERTENS_TABLE.covering(n)
    ),
    "tau2": CatalogAtom(multfn.TAU2, divisor_summatory, Fraction(1, 3), True),
}

ATOM_NAMES = tuple(sorted(_CATALOG))


def catalog_atom(name: str) -> CatalogAtom:
    """Pointwise descriptor, summatory routine and deceleration for an atom."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown atom {name!r}; catalog: {', '.join(ATOM_NAMES)}") from None
