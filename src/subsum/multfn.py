"""Multiplicative functions described by their values at prime powers.

A multiplicative f is pinned down by f(p^alpha); f(1) = 1 is implied and
never stored.  This module provides the sieve that computes f(1..x) for any
such descriptor in near-linear time, plus the two descriptor combinators
(Dirichlet convolution at prime powers, and the Dirichlet-series stretch
s -> k*s).

The sieve walks primes p <= sqrt(x) and, for each exact power p^alpha || n,
multiplies f(p^alpha) into cell n while dividing p^alpha out of a residue
that starts as n.  What is left is 1 or a single prime > sqrt(x); the final
pass evaluates f at that residual prime (classic array formulations
sometimes write f(n, 1) here, but f is only defined at primes, so the
residue is what gets passed).

Every value the sieve forms in a segment lo..hi is f(m) for some m <= hi, so
a descriptor that declares a bound B(x) >= max|f(n)| over n <= x is trusted:
when B(hi) <= 2^63 - 1 the segment multiplies with no overflow check, in the
narrowest of int8, int16, int32 and int64 that holds B(hi).  A descriptor
without a bound, or with B(hi) above 2^63 - 1, has every multiply checked.
Either way algorithm_m returns int64 values.
"""

from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Optional

import numpy as np

from .arith import I64_MAX, SEGMENT, exact_sum, max_abs, primes_up_to, wide_check


@dataclass(frozen=True)
class PrimePowerFn:
    """A multiplicative function as a rule (p, alpha) -> f(p^alpha).

    eval must be deterministic.  eval_at_primes, when given, vectorizes the
    alpha = 1 case over an int64 array of primes into a new int64 array, which
    callers may overwrite; the sieve's residual pass uses it to avoid
    per-element Python calls.  bound, when given, maps x >= 1 to a proven
    B(x) >= max|f(n)| over 1 <= n <= x, non-decreasing in x.  The sieve trusts
    it and skips its overflow checks wherever B(x) <= 2^63 - 1, so a wrong
    bound gives wrong values; None (the default) keeps every check.
    """

    name: str
    eval: Callable[[int, int], int]
    eval_at_primes: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )
    bound: Optional[Callable[[int], int]] = field(default=None, compare=False)

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


def _checked_multiply(cells: np.ndarray, v) -> None:
    """cells *= v (v a scalar or an array like cells), raising OverflowError
    where int64 would wrap.  The bound max|cells| * max|v| <= I64_MAX is tried
    first (for a scalar it is exact; no cell ever holds -2^63, so |v| <= 1 is
    safe); each product is checked only when the bound fails."""
    if isinstance(v, np.ndarray):
        if max_abs(cells) * max_abs(v) > I64_MAX:
            caps = I64_MAX // np.maximum(np.abs(v), 1)
            if np.any((np.abs(cells) > caps) & (v != 0)):
                raise OverflowError("pointwise value exceeds signed 64 bits")
    elif abs(v) > 1 and max_abs(cells) > I64_MAX // abs(v):
        raise OverflowError(f"pointwise value exceeds signed 64 bits (cell * {v})")
    cells *= v


def _prime_power_values(f: PrimePowerFn, x: int) -> dict[int, list[int]]:
    """[f(p), f(p^2), ...] while p^alpha <= x, for every prime p <= sqrt(x) in order."""
    cache: dict[int, list[int]] = {}
    for p in primes_up_to(isqrt(x)).tolist():
        vals = []
        pa = p
        while pa <= x:
            vals.append(f.eval(p, len(vals) + 1))
            pa *= p
        cache[p] = vals
    return cache


def _narrowest_int(bound: int) -> type:
    """The narrowest signed numpy integer type holding every |v| <= bound <= 2^63 - 1."""
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _multiply(cells: np.ndarray, v) -> None:
    """cells *= v, unchecked: for cells whose declared bound covers every product."""
    np.multiply(cells, v, out=cells)


def _sieve_segment(f: PrimePowerFn, lo: int, hi: int, ppcache: dict[int, list[int]]) -> np.ndarray:
    """Values f(lo..hi) given ppcache = _prime_power_values(f, x) for hi <= x.

    Each value formed is f(m) for some m <= hi, so under a declared
    B(hi) <= 2^63 - 1 the cells skip the overflow checks and take the
    narrowest width holding B(hi), in which they are returned; else int64.
    The residual pass comes first: cell n starts at f of the prime left when
    every p^alpha || n, p <= sqrt(x), is divided out of n (1 when none is).
    Then level alpha of p is the strided view of the cells divisible by
    p^alpha.  Level 1 is multiplied by f(p) in place, then each deeper level,
    in increasing alpha, is overwritten by its values from before p times
    f(p^alpha).  A product so formed at n with p^(alpha+1) | n has the same
    operands as the exact one at n / p^(v_p(n) - alpha) <= x, so the checks
    raise for exactly the inputs where some exact product overflows.
    """
    width = hi - lo + 1
    bound = None if f.bound is None else f.bound(hi)
    if bound is not None and bound <= I64_MAX:
        dtype, multiply = _narrowest_int(bound), _multiply
    else:
        dtype, multiply = np.int64, _checked_multiply
    # Below 2^31 the divisions run in int32, held in the upper half of the
    # int64 array that values_at_primes reads, so widening allocates nothing.
    residue = np.empty(width, dtype=np.int64)
    work = residue.view(np.int32)[width:] if hi < 1 << 31 else residue
    work[:] = np.arange(lo, hi + 1, dtype=work.dtype)
    for p in ppcache:
        pa = p
        while (start := -lo % pa) < width:
            np.floor_divide(work[start::pa], p, out=work[start::pa])
            pa *= p
    keep = work != 1
    np.maximum(work, 2, out=work)  # any prime: its value is replaced by 1 below
    np.copyto(residue, work)  # they overlap: numpy copies as if through a temporary
    cells = f.values_at_primes(residue)
    del residue, work
    # cells = 1 where the residue was 1, as (cells - 1) * keep + 1 in place: a masked
    # write costs more than twice as much (a wrap in cells - 1 is undone by the + 1)
    cells -= 1
    cells *= keep
    cells += 1
    del keep
    if dtype is not np.int64:
        cells = cells.astype(dtype)  # |f(q)| <= B(hi) for the residual primes q too
    elif multiply is _checked_multiply and int(cells.min()) < -I64_MAX:
        # -2^63 times -1 wraps, and _checked_multiply takes |v| <= 1 as safe
        raise OverflowError("pointwise value -2^63 at a prime")
    for p, fvals in ppcache.items():
        levels = []
        pa = p
        while (start := -lo % pa) < width:
            levels.append(slice(start, None, pa))
            pa *= p
        if not levels:
            continue
        saved = [cells[level].copy() for level in levels[1:]]
        multiply(cells[levels[0]], fvals[0])
        for level, before, fa in zip(levels[1:], saved, fvals[1:]):
            multiply(before, fa)
            cells[level] = before
    return cells


def algorithm_m(f: PrimePowerFn, x: int) -> PrefixValues:
    """All of f(1..x) by the prime-power stripping sieve; O(x^(1+eps))."""
    if x < 1:
        raise ValueError("prefix length must be >= 1")
    values = np.empty(x + 1, dtype=np.int64)
    values[0] = 0
    values[1:] = _sieve_segment(f, 1, x, _prime_power_values(f, x))
    return PrefixValues(x=x, values=values)


def algorithm_m_sum(f: PrimePowerFn, x: int) -> int:
    """Sum_{n<=x} f(n), segment by segment so memory stays O(sqrt(x) + SEGMENT)."""
    if x < 0:
        raise ValueError("negative summation bound")
    if x == 0:
        return 0
    ppcache = _prime_power_values(f, x)
    seg = max(isqrt(x), SEGMENT)
    total = 0
    for lo in range(1, x + 1, seg):
        hi = min(lo + seg - 1, x)
        total += exact_sum(_sieve_segment(f, lo, hi, ppcache))
    return wide_check(total)


def convolve_prime_power(f: PrimePowerFn, g: PrimePowerFn) -> PrimePowerFn:
    """Descriptor for the Dirichlet convolution f * g.

    At prime powers: h(p^a) = sum_{i=0..a} f(p^i) g(p^(a-i)) with the i = 0
    and i = a terms contributing g(p^a) and f(p^a) (f and g are 1 at p^0).
    Each h(p^a) is kept (pure values, so racing writers store equal ones):
    unkept, nested self-convolutions cost about (2a)^depth operand calls.
    When both operands declare a bound, h declares 2 isqrt(x) B_f(x) B_g(x):
    |h(n)| <= tau(n) B_f B_g, and tau(n) <= 2 isqrt(n) because each divisor
    pair d <-> n/d has one member <= sqrt n.
    """
    f_eval, g_eval = f.eval, g.eval
    memo: dict[tuple[int, int], int] = {}

    def h_eval(p: int, a: int) -> int:
        total = memo.get((p, a))
        if total is None:
            total = f_eval(p, a) + g_eval(p, a)
            for i in range(1, a):
                total += f_eval(p, i) * g_eval(p, a - i)
            memo[p, a] = total
        return total

    h_vec = None
    if f.eval_at_primes is not None and g.eval_at_primes is not None:
        fv, gv = f.eval_at_primes, g.eval_at_primes

        def h_vec(ps: np.ndarray) -> np.ndarray:  # h(p) = f(p) + g(p)
            out = fv(ps)
            out += gv(ps)  # in place: nested powers hold one array per level
            return out

    h_bound = None
    if f.bound is not None and g.bound is not None:
        fb, gb = f.bound, g.bound

        def h_bound(x: int) -> int:
            return 2 * isqrt(x) * fb(x) * gb(x)

    return PrimePowerFn(
        name=f"({f.name} * {g.name})",
        eval=h_eval,
        eval_at_primes=h_vec,
        bound=h_bound,
    )


def stretch_prime_power(f: PrimePowerFn, k: int) -> PrimePowerFn:
    """Descriptor with Dirichlet series F(k*s): g(n^k) = f(n), else 0.

    g keeps f's bound: every non-zero g(n) is f(m) for m = n^(1/k) <= n.
    """
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
        bound=f.bound,
    )


def _id_power_vec(square: bool):
    cap = 3037000499 if square else 2097151  # floor roots of 2^63 - 1

    def vec(ps: np.ndarray) -> np.ndarray:
        if ps.size and int(ps.max()) > cap:
            raise OverflowError("prime power exceeds signed 64 bits")
        return ps * ps if square else ps * ps * ps

    return vec


def _chi4_vec(ps: np.ndarray) -> np.ndarray:
    out = ps & 2  # odd p: 0 when p & 3 is 1, 2 when it is 3
    np.subtract(1, out, out=out)
    out[ps == 2] = 0
    return out


def _unit_bound(x: int) -> int:
    return 1


ONE = PrimePowerFn(
    "one", lambda p, a: 1,
    eval_at_primes=lambda ps: np.ones(ps.shape, dtype=np.int64), bound=_unit_bound,
)
ID = PrimePowerFn("id", lambda p, a: p**a, eval_at_primes=lambda ps: ps.copy(), bound=lambda x: x)
ID2 = PrimePowerFn(
    "id2", lambda p, a: p ** (2 * a), eval_at_primes=_id_power_vec(True), bound=lambda x: x**2
)
ID3 = PrimePowerFn(
    "id3", lambda p, a: p ** (3 * a), eval_at_primes=_id_power_vec(False), bound=lambda x: x**3
)
MU = PrimePowerFn(
    "mu", lambda p, a: -1 if a == 1 else 0,
    eval_at_primes=lambda ps: np.full(ps.shape, -1, dtype=np.int64), bound=_unit_bound,
)
# tau2(n) <= 2 isqrt(n): each divisor pair d <-> n/d has one member <= sqrt n
TAU2 = PrimePowerFn(
    "tau2", lambda p, a: a + 1,
    eval_at_primes=lambda ps: np.full(ps.shape, 2, dtype=np.int64), bound=lambda x: 2 * isqrt(x),
)
CHI4 = PrimePowerFn(
    "chi4",
    lambda p, a: 0 if p == 2 else (1 if p % 4 == 1 else (-1) ** a),
    eval_at_primes=_chi4_vec,
    bound=_unit_bound,
)
