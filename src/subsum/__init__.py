"""subsum: exact summatory functions of multiplicative functions, sublinearly.

The package computes F(x) = sum_{n<=x} f(n) exactly for multiplicative f
built from a small catalog by Dirichlet convolution, stretching and
convolution powers, tracks the achievable running-time exponent (the
"deceleration") of each expression as an exact rational, and uses the
unitary-divisor summatory to decide the parity of the number of primes in an
interval without enumerating primes.
"""

from .arith import segmented_prime_count
from .combinator import (
    SummatoryEvaluator,
    catalog_derived,
    expr_deceleration,
    gaussian_dec,
    parse_expr,
    tau_k_dec,
)
from .multfn import algorithm_m, algorithm_m_sum
from .parity import interval_prime_parity

__version__ = "0.1.0"

__all__ = [
    "SummatoryEvaluator",
    "algorithm_m",
    "algorithm_m_sum",
    "catalog_derived",
    "expr_deceleration",
    "gaussian_dec",
    "interval_prime_parity",
    "parse_expr",
    "segmented_prime_count",
    "tau_k_dec",
    "__version__",
]
