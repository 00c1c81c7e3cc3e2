"""Multiplicative functions described by their values at prime powers.

A multiplicative f is pinned down by f(p^alpha); f(1) = 1 is implied and
never stored.  This module provides the sieve that computes f(1..x) for any
such descriptor in near-linear time, plus the two descriptor combinators
(Dirichlet convolution at prime powers, and the Dirichlet-series stretch
s -> k*s).

The sieve walks primes p <= sqrt(x) and, for each exact power p^alpha || n,
multiplies f(p^alpha) into cell n while dividing p^alpha out of a residue
array.  Whatever residue is left afterwards is a single prime > sqrt(x); the
final pass evaluates f at that residual prime (classic array formulations
sometimes write f(n, 1) here, but f is only defined at primes, so the
residue is what gets passed).
"""

from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Optional

import numpy as np

from .arith import I64_MAX, SEGMENT, exact_sum, primes_up_to, wide_check


@dataclass(frozen=True)
class PrimePowerFn:
    """A multiplicative function as a rule (p, alpha) -> f(p^alpha).

    eval must be deterministic.  eval_at_primes, when given, vectorizes the
    alpha = 1 case over an int64 array of primes; the sieve's residual pass
    uses it to avoid per-element Python calls.
    """

    name: str
    eval: Callable[[int, int], int]
    eval_at_primes: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )

    def values_at_primes(self, primes: np.ndarray) -> np.ndarray:
        if self.eval_at_primes is not None:
            return self.eval_at_primes(primes)
        uniq, inverse = np.unique(primes, return_inverse=True)
        vals = np.array([self.eval(int(p), 1) for p in uniq], dtype=np.int64)
        return vals[inverse]


@dataclass(frozen=True)
class PrefixValues:
    """f(1..x) as an int64 array; index 0 is unused padding."""

    x: int
    values: np.ndarray

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.x:
            raise IndexError(f"n={n} outside 1..{self.x}")
        return int(self.values[n])


def _scatter_multiply(cells: np.ndarray, offsets: np.ndarray, v: int) -> None:
    """cells[offsets] *= v, raising where numpy would silently wrap past I64_MAX."""
    if v == 0:
        cells[offsets] = 0
        return
    got = cells[offsets]
    if v != 1 and v != -1:
        top = int(np.abs(got).max(initial=0))
        if top > I64_MAX // abs(v):
            raise OverflowError(
                f"pointwise value exceeds signed 64 bits (cell {top} * {v})"
            )
    cells[offsets] = got * v


def _prime_power_values(f: PrimePowerFn, primes: list[int], x: int) -> dict[int, list[int]]:
    """Cache [f(p), f(p^2), ...] for every p while p^alpha <= x."""
    cache: dict[int, list[int]] = {}
    for p in primes:
        vals = []
        pa = p
        while pa <= x:
            vals.append(f.eval(p, len(vals) + 1))
            pa *= p
        cache[p] = vals
    return cache


def _sieve_segment(
    f: PrimePowerFn,
    lo: int,
    hi: int,
    primes: list[int],
    ppcache: dict[int, list[int]],
) -> np.ndarray:
    """Values f(lo..hi) given primes = all primes <= sqrt(global x)."""
    width = hi - lo + 1
    residue = np.arange(lo, hi + 1, dtype=np.int64)
    cells = np.ones(width, dtype=np.int64)
    for p in primes:
        fvals = ppcache[p]
        pa = p
        alpha = 1
        while pa <= hi:
            j_lo = (lo + pa - 1) // pa
            j_hi = hi // pa
            if j_lo > j_hi:
                break  # no multiple of p^alpha here, so none of higher powers
            offsets = np.arange(j_lo * pa - lo, width, pa)
            # drop j divisible by p: those belong to a higher exact power
            j0 = (j_lo + p - 1) // p * p
            if j0 <= j_hi:
                keep = np.ones(offsets.size, dtype=bool)
                keep[j0 - j_lo :: p] = False
                offsets = offsets[keep]
            if offsets.size:
                _scatter_multiply(cells, offsets, fvals[alpha - 1])
                residue[offsets] //= pa
            pa *= p
            alpha += 1
    leftover = residue != 1
    if lo == 1:
        leftover[0] = False  # n = 1: f(1) = 1, nothing to strip
    if np.any(leftover):
        rest = residue[leftover]
        vals = f.values_at_primes(rest)
        got = cells[leftover]
        caps = I64_MAX // np.maximum(np.abs(vals), 1)
        if np.any((np.abs(got) > caps) & (vals != 0)):
            raise OverflowError("pointwise value exceeds signed 64 bits")
        cells[leftover] = got * vals
    return cells


def algorithm_m(f: PrimePowerFn, x: int) -> PrefixValues:
    """All of f(1..x) by the prime-power stripping sieve; O(x^(1+eps))."""
    if x < 1:
        raise ValueError("prefix length must be >= 1")
    primes = primes_up_to(isqrt(x)).tolist()
    ppcache = _prime_power_values(f, primes, x)
    cells = _sieve_segment(f, 1, x, primes, ppcache)
    values = np.concatenate((np.zeros(1, dtype=np.int64), cells))
    return PrefixValues(x=x, values=values)


def algorithm_m_sum(f: PrimePowerFn, x: int) -> int:
    """Sum_{n<=x} f(n), segment by segment so memory stays O(sqrt(x) + SEGMENT)."""
    if x < 0:
        raise ValueError("negative summation bound")
    if x == 0:
        return 0
    primes = primes_up_to(isqrt(x)).tolist()
    ppcache = _prime_power_values(f, primes, x)
    seg = max(isqrt(x), SEGMENT)
    total = 0
    for lo in range(1, x + 1, seg):
        hi = min(lo + seg - 1, x)
        total += exact_sum(_sieve_segment(f, lo, hi, primes, ppcache))
    return wide_check(total)


def convolve_prime_power(f: PrimePowerFn, g: PrimePowerFn) -> PrimePowerFn:
    """Descriptor for the Dirichlet convolution f * g.

    At prime powers: h(p^a) = sum_{i=0..a} f(p^i) g(p^(a-i)) with the i = 0
    and i = a terms contributing g(p^a) and f(p^a) (f and g are 1 at p^0).
    """
    f_eval, g_eval = f.eval, g.eval

    def h_eval(p: int, a: int) -> int:
        total = f_eval(p, a) + g_eval(p, a)
        for i in range(1, a):
            total += f_eval(p, i) * g_eval(p, a - i)
        return total

    h_vec = None
    if f.eval_at_primes is not None and g.eval_at_primes is not None:
        fv, gv = f.eval_at_primes, g.eval_at_primes

        def h_vec(ps: np.ndarray) -> np.ndarray:  # h(p) = f(p) + g(p)
            return fv(ps) + gv(ps)

    return PrimePowerFn(
        name=f"({f.name} * {g.name})",
        eval=h_eval,
        eval_at_primes=h_vec,
    )


def stretch_prime_power(f: PrimePowerFn, k: int) -> PrimePowerFn:
    """Descriptor with Dirichlet series F(k*s): g(n^k) = f(n), else 0."""
    if k < 1:
        raise ValueError("stretch order must be >= 1")
    if k == 1:
        return f
    f_eval = f.eval

    def s_eval(p: int, a: int) -> int:
        return f_eval(p, a // k) if a % k == 0 else 0

    def s_vec(ps: np.ndarray) -> np.ndarray:  # alpha = 1 is never divisible
        return np.zeros(ps.shape, dtype=np.int64)

    return PrimePowerFn(
        name=f"{f.name}@{k}",
        eval=s_eval,
        eval_at_primes=s_vec,
    )


def _id_power_vec(square: bool):
    cap = 3037000499 if square else 2097151  # floor roots of 2^63 - 1

    def vec(ps: np.ndarray) -> np.ndarray:
        if ps.size and int(ps.max()) > cap:
            raise OverflowError("prime power exceeds signed 64 bits")
        return ps * ps if square else ps * ps * ps

    return vec


def _chi4_vec(ps: np.ndarray) -> np.ndarray:
    out = np.where(ps % 4 == 1, 1, -1).astype(np.int64)
    out[ps == 2] = 0
    return out


ONE = PrimePowerFn("one", lambda p, a: 1, eval_at_primes=lambda ps: np.ones(ps.shape, dtype=np.int64))
ID = PrimePowerFn("id", lambda p, a: p**a, eval_at_primes=lambda ps: ps.copy())
ID2 = PrimePowerFn("id2", lambda p, a: p ** (2 * a), eval_at_primes=_id_power_vec(True))
ID3 = PrimePowerFn("id3", lambda p, a: p ** (3 * a), eval_at_primes=_id_power_vec(False))
MU = PrimePowerFn("mu", lambda p, a: -1 if a == 1 else 0, eval_at_primes=lambda ps: np.full(ps.shape, -1, dtype=np.int64))
TAU2 = PrimePowerFn("tau2", lambda p, a: a + 1, eval_at_primes=lambda ps: np.full(ps.shape, 2, dtype=np.int64))
CHI4 = PrimePowerFn(
    "chi4",
    lambda p, a: 0 if p == 2 else (1 if p % 4 == 1 else (-1) ** a),
    eval_at_primes=_chi4_vec,
)

POINTWISE_ATOMS = {f.name: f for f in (ONE, ID, ID2, ID3, CHI4, MU, TAU2)}
