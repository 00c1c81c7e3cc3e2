"""In-memory span tracer, bound at the names the library's callers resolve.

Only the traced run installs it.  Each wrapper records one span per call:
duration, the part of it covered by child spans (so self time is the rest),
an optional cell count, and the current query, tag (expression) and scope
(evaluator) that the worker sets.  Spans are folded into per-layer totals as
they close, so memory stays flat however many calls a run makes.

A name is wrapped where its caller looks it up: `from ... import` copies a
function into the importing module, and `_AtomNode` keeps the `summatory`
it got from `catalog_atom` when the evaluator is built.  A wrapper on
`subsum.base_summatory.mertens` alone would count nothing.
"""

import importlib
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.cells = defaultdict(int)
        self.tag_calls = defaultdict(int)  # (layer, tag) -> calls
        self.group_max = defaultdict(int)  # (layer, group) -> largest cells in one call
        self.query = None
        self.tag = None
        self.scope = None
        self.bound = set()  # layers with at least one wrapper in place
        self._stack = []

    def span(self, name, fn, cells=None, group=None):
        """Wrap fn so each call records a span named `name`."""
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - child[0]
                total_s[name] += duration
                self.tag_calls[name, self.tag] += 1
                if cells is not None:
                    n = cells(*args)
                    self.cells[name] += n
                    if group is not None:
                        key = (name, group(*args))
                        self.group_max[key] = max(self.group_max[key], n)

        self.bound.add(name)
        return traced

    def count(self, name, fn):
        """Wrap fn with a call counter only (for cheap, very frequent calls)."""
        calls = self.calls

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        self.bound.add(name)
        return counted

    def group_cells(self, name):
        """Sum over groups of the largest single call: the cells a cache would need."""
        return sum(n for (layer, _), n in self.group_max.items() if layer == name)

    def snapshot(self):
        """Plain-JSON totals for the parent process."""
        layers = {}
        for name in sorted(self.bound | set(self.calls)):
            layers[name] = {
                "calls": self.calls.get(name, 0),
                "self_s": self.self_s.get(name, 0.0),
                "total_s": self.total_s.get(name, 0.0),
                "cells": self.cells.get(name, 0),
                "group_cells": self.group_cells(name),
            }
        by_tag = {
            name: {str(tag): n for (layer, tag), n in self.tag_calls.items() if layer == name}
            for name in ("base_summatory.mertens",)
        }
        return {"layers": layers, "bound": sorted(self.bound), "by_tag": by_tag}


def _limit_cells(limit):
    return limit + 1


def _sieve_cells(f, x):
    return x


# (module, attribute, layer, cells, group); group is given the tracer.
BINDINGS = (
    ("subsum.combinator", "algorithm_m", "multfn.algorithm_m", _sieve_cells, "scope"),
    ("subsum.multfn", "algorithm_m", "multfn.algorithm_m", _sieve_cells, "scope"),
    ("subsum.multfn", "algorithm_m_sum", "multfn.algorithm_m_sum", _sieve_cells, None),
    ("subsum.multfn", "primes_up_to", "arith.primes_up_to", _limit_cells, None),
    ("subsum.base_summatory", "primes_up_to", "arith.primes_up_to", _limit_cells, None),
    ("subsum.base_summatory", "mobius_sieve", "base_summatory.mobius_sieve", _limit_cells, "query"),
    ("subsum.parity", "mobius_sieve", "base_summatory.mobius_sieve", _limit_cells, "query"),
    ("subsum.parity", "divisor_summatory", "base_summatory.divisor_summatory", None, None),
    ("subsum.parity", "unitary_divisor_summatory", "parity.unitary_divisor_summatory", None, None),
    ("subsum.parity", "prime_power_counts", "parity.prime_power_counts", None, None),
    ("subsum.parity", "is_prime", "arith.is_prime", None, None),
    ("subsum.parity", "interval_prime_parity", "parity.interval_prime_parity", None, None),
)

# Catalog summatories that get a full span; the closed forms only a counter.
_ATOM_SPANS = {
    "mertens": "base_summatory.mertens",
    "divisor_summatory": "base_summatory.divisor_summatory",
}
ATOM_CALLS = "combinator.atom_calls"


def _group_fn(tracer, kind):
    if kind == "scope":
        return lambda f, x: (tracer.scope, id(f))
    if kind == "query":
        return lambda limit: tracer.query
    return None


def install(tracer):
    """Bind wrappers at every caller-visible name that still exists."""
    for module_name, attr, layer, cells, group in BINDINGS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        setattr(module, attr, tracer.span(layer, fn, cells, _group_fn(tracer, group)))

    combinator = importlib.import_module("subsum.combinator")
    base = importlib.import_module("subsum.base_summatory")
    catalog_atom = getattr(combinator, "catalog_atom", None)
    if catalog_atom is None:
        return
    spans = {getattr(base, attr): layer for attr, layer in _ATOM_SPANS.items() if hasattr(base, attr)}
    wrapped = {}

    def traced_catalog_atom(name):
        entry = catalog_atom(name)
        fn = entry.summatory
        if fn not in wrapped:
            inner = tracer.span(spans[fn], fn) if fn in spans else fn
            wrapped[fn] = tracer.count(ATOM_CALLS, inner)
        return entry._replace(summatory=wrapped[fn])

    for layer in spans.values():
        tracer.bound.add(layer)
    tracer.bound.add(ATOM_CALLS)
    combinator.catalog_atom = traced_catalog_atom
