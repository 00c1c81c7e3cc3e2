"""Metric definitions and the small statistics they need.

END_TO_END are measured untraced; the per-layer metrics come from the traced
run.  Each per-layer entry names the end-to-end metric it should move and
the workloads it mostly lives on; README.md has the same map as a table.
"""

import math

from workloads import EXPRESSIONS

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_qps": ("1/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def tail(values):
    """(value, percentile, n): the sample with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


def loglog_slope(points):
    """Least-squares slope of log(t) against log(x); the fitted exponent."""
    logs = [(math.log(x), math.log(t)) for x, t in points]
    n = len(logs)
    mx = sum(u for u, _ in logs) / n
    my = sum(v for _, v in logs) / n
    sxx = sum((u - mx) ** 2 for u, _ in logs)
    sxy = sum((u - mx) * (v - my) for u, v in logs)
    return sxy / sxx


# (metric, unit, better, layer, field, moves, mostly in).  `field` is a
# snapshot key, or a derived quantity computed in per_layer_metrics.
_LAYER_SPECS = (
    ("base_summatory.mertens.calls", "count", "lower", "base_summatory.mertens", "calls",
     "throughput_qps, latency_tail_s", "eval_cold"),
    ("base_summatory.mertens.self_s", "s", "lower", "base_summatory.mertens", "self_s",
     "throughput_qps, latency_tail_s", "eval_cold"),
    ("base_summatory.mobius_sieve.calls", "count", "lower", "base_summatory.mobius_sieve", "calls",
     "throughput_qps; setup_s on parity", "eval_cold, parity"),
    ("base_summatory.mobius_sieve.cells", "count", "lower", "base_summatory.mobius_sieve", "cells",
     "throughput_qps; setup_s on parity", "eval_cold, parity"),
    ("base_summatory.mobius_sieve.self_s", "s", "lower", "base_summatory.mobius_sieve", "self_s",
     "throughput_qps; setup_s on parity", "eval_cold, parity"),
    ("base_summatory.mobius_sieve.resieve_ratio", "ratio", "lower", "base_summatory.mobius_sieve",
     "cells/group_cells", "throughput_qps", "eval_cold, parity"),
    ("base_summatory.divisor_summatory.calls", "count", "lower", "base_summatory.divisor_summatory",
     "calls", "latency_p50_s", "parity"),
    ("base_summatory.divisor_summatory.self_s", "s", "lower", "base_summatory.divisor_summatory",
     "self_s", "latency_p50_s", "parity"),
    ("multfn.algorithm_m_sum.calls", "count", "lower", "multfn.algorithm_m_sum", "calls",
     "throughput_qps", "sieve"),
    ("multfn.algorithm_m_sum.cells", "count", "lower", "multfn.algorithm_m_sum", "cells",
     "throughput_qps", "sieve"),
    ("multfn.algorithm_m_sum.self_s", "s", "lower", "multfn.algorithm_m_sum", "self_s",
     "throughput_qps", "sieve"),
    ("multfn.algorithm_m_sum.cells_per_s", "1/s", "higher", "multfn.algorithm_m_sum",
     "cells/total_s", "throughput_qps", "sieve"),
    ("multfn.algorithm_m.calls", "count", "lower", "multfn.algorithm_m", "calls",
     "latency_p50_s, peak_rss_mib", "eval_cold, eval_shared"),
    ("multfn.algorithm_m.cells", "count", "lower", "multfn.algorithm_m", "cells",
     "latency_p50_s, peak_rss_mib", "eval_cold, eval_shared"),
    ("multfn.algorithm_m.self_s", "s", "lower", "multfn.algorithm_m", "self_s",
     "latency_p50_s, peak_rss_mib", "eval_cold, eval_shared"),
    ("multfn.algorithm_m.rebuild_ratio", "ratio", "lower", "multfn.algorithm_m",
     "cells/group_cells", "latency_p50_s, peak_rss_mib", "eval_cold, eval_shared"),
    ("combinator.build.self_s", "s", "lower", "combinator.build", "self_s",
     "latency_p50_s, latency_tail_s, throughput_qps", "eval_cold, eval_shared"),
    ("combinator.eval.calls", "count", "lower", "combinator.eval", "calls",
     "latency_p50_s, latency_tail_s, throughput_qps", "eval_cold, eval_shared"),
    ("combinator.eval.self_s", "s", "lower", "combinator.eval", "self_s",
     "latency_p50_s, latency_tail_s, throughput_qps", "eval_cold, eval_shared"),
    ("combinator.atom_calls_per_query", "ratio", "lower", "combinator.atom_calls",
     "calls/eval_calls", "latency_p50_s, latency_tail_s, throughput_qps", "eval_cold, eval_shared"),
    ("parity.interval_prime_parity.self_s", "s", "lower", "parity.interval_prime_parity", "self_s",
     "latency_p50_s, latency_tail_s", "parity"),
    ("parity.unitary_divisor_summatory.self_s", "s", "lower", "parity.unitary_divisor_summatory",
     "self_s", "latency_p50_s, latency_tail_s", "parity"),
    ("parity.prime_power_counts.self_s", "s", "lower", "parity.prime_power_counts", "self_s",
     "latency_p50_s, latency_tail_s", "parity"),
    ("arith.is_prime.calls", "count", "lower", "arith.is_prime", "calls",
     "latency_p50_s, latency_tail_s", "parity"),
    ("arith.is_prime.self_s", "s", "lower", "arith.is_prime", "self_s",
     "latency_p50_s, latency_tail_s", "parity"),
    ("arith.primes_up_to.calls", "count", "lower", "arith.primes_up_to", "calls",
     "throughput_qps, setup_s", "sieve, parity"),
    ("arith.primes_up_to.cells", "count", "lower", "arith.primes_up_to", "cells",
     "throughput_qps, setup_s", "sieve, parity"),
    ("arith.primes_up_to.self_s", "s", "lower", "arith.primes_up_to", "self_s",
     "throughput_qps, setup_s", "sieve, parity"),
)


def nonzero_counters(workload):
    """Counters that must be non-zero on a workload they mostly live on."""
    return [name for name, unit, _, _, _, _, where in _LAYER_SPECS
            if unit == "count" and workload in where.split(", ")]


def per_layer_specs():
    """Every per-layer metric as (name, unit, better, moves, mostly in)."""
    specs = [(name, unit, better, moves, where)
             for name, unit, better, _, _, moves, where in _LAYER_SPECS]
    for slug, _, _ in EXPRESSIONS.values():
        specs.append((f"combinator.fit_slope.{slug}", "exponent", "lower", "none directly",
                      "eval_cold"))
        specs.append((f"combinator.fit_gap.{slug}", "exponent", "lower", "none directly",
                      "eval_cold"))
    specs.append(("trace.overhead_ratio", "ratio", "lower", "none (cost of tracing)", "all"))
    return specs


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(snapshot):
    """(metrics, absent names) from a traced worker's snapshot."""
    layers = snapshot["layers"]
    bound = set(snapshot["bound"])
    metrics, absent = {}, []
    for name, unit, _, layer, field, _, _ in _LAYER_SPECS:
        if layer not in bound:
            absent.append(name)
            continue
        got = layers.get(layer, {})
        if field == "cells/group_cells":
            value = _ratio(got.get("cells", 0), got.get("group_cells", 0))
        elif field == "cells/total_s":
            value = _ratio(got.get("cells", 0), got.get("total_s", 0.0))
        elif field == "calls/eval_calls":
            value = _ratio(got.get("calls", 0), layers.get("combinator.eval", {}).get("calls", 0))
        else:
            value = got.get(field, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
