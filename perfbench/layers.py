"""Per-layer figures of one traced pass, taken from the benchmark's side.

The standard-library profiler is attached to the pass process for the
operations only.  Self time is charged to the cmhilb module whose code ran;
time in the standard library or in builtins is charged to the nearest
cmhilb module up the caller graph, except Fraction arithmetic, which is its
own layer (`fractions`).  Frames of the benchmark itself (its timing loop
and the counting wrappers below) are tracing overhead and charged nowhere.

Two counts come from wrappers instead: coefficient products requested by
polynomial multiplication (the operands' term counts multiplied), and the
collections and pause time of the cyclic garbage collector.  Memo figures
are read through `cache_info()` when the pass ends.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import os
import pstats
import time
from collections import defaultdict

LAYERS = ("exactalg", "symfun", "partitions", "sl2", "orbits", "cli")

# (metric, module, function): cumulative seconds inside that function.
CUMULATIVE = (
    ("symfun.character_table_s", "symfun", "character_table"),
    ("symfun.graded_multiplicity_s", "symfun", "graded_multiplicity"),
    ("symfun.isotypic_character_s", "symfun", "isotypic_character"),
    ("symfun.regular_fiber_character_s", "symfun", "regular_fiber_character"),
    ("partitions.hook_polynomial_s", "partitions", "hook_polynomial"),
    ("sl2.decompose_s", "sl2", "decompose"),
)

# (module, function) pairs whose lru_cache statistics are reported.
MEMOS = (
    ("symfun", "_mn"),
    ("symfun", "_strip_removals"),
    ("symfun", "character_table"),
    ("symfun", "isotypic_character"),
    ("symfun", "_class_quotient_terms"),
    ("partitions", "hook_lengths"),
)

# Polynomial classes whose products are counted, with the slot holding
# their terms; a class the package no longer has is skipped.
COUNTED_PRODUCTS = (("LaurentPolynomial", "_terms"), ("QPolynomial", "_coeffs"))

BENCH = "bench"
UNATTRIBUTED = "unattributed"
_MAX_DEPTH = 64


def metric_names() -> list:
    names = [f"{layer}.self_s" for layer in LAYERS] + ["fractions.self_s"]
    names += ["exactalg.calls", "exactalg.exact_div_calls", "exactalg.gcd_calls", "exactalg.coeff_ops"]
    names += [name for name, _, _ in CUMULATIVE]
    names += [f"memo.{func}.{field}" for _, func in MEMOS for field in ("size", "hits", "misses")]
    names += ["gc.collections", "gc.pause_s"]
    return names


class Classifier:
    """Maps a profiler entry's file name to a layer, BENCH or None (charged
    to its caller)."""

    def __init__(self, src_dir: str):
        self.package = os.path.join(src_dir, "cmhilb") + os.sep
        self.bench = os.path.dirname(os.path.abspath(__file__)) + os.sep

    def __call__(self, filename: str):
        if filename.startswith(self.package):
            return "cmhilb." + os.path.basename(filename)[: -len(".py")]
        if filename.startswith(self.bench):
            return BENCH
        if os.path.basename(filename) == "fractions.py":
            return "fractions"
        return None


def attribute(stats: dict, classify) -> dict:
    """Self seconds per owner from pstats-style entries
    {func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})}, func = (file, line, name).

    An entry without an owner passes each caller edge's own seconds to that
    caller; a caller without an owner passes what it received on to its
    callers in proportion to their cumulative seconds, one level per round,
    until an owner takes it (or, after _MAX_DEPTH rounds, UNATTRIBUTED)."""
    owners = {func: classify(func[0]) for func in stats}
    totals = defaultdict(float)
    inbox = defaultdict(float)
    for func, (_, _, tt, _, callers) in stats.items():
        if owners[func] is not None:
            totals[owners[func]] += tt
        elif not callers:
            totals[UNATTRIBUTED] += tt
        else:
            for caller, edge in callers.items():
                inbox[caller] += edge[2]
    for _ in range(_MAX_DEPTH):
        current, inbox = inbox, defaultdict(float)
        for func, amount in current.items():
            if owners.get(func) is not None:
                totals[owners[func]] += amount
                continue
            callers = {c: e for c, e in stats.get(func, (0, 0, 0, 0, {}))[4].items() if c != func}
            weight = sum(edge[3] for edge in callers.values())
            if weight <= 0:
                totals[UNATTRIBUTED] += amount
                continue
            for caller, edge in callers.items():
                inbox[caller] += amount * edge[3] / weight
        if not inbox:
            break
    totals[UNATTRIBUTED] += sum(inbox.values())
    return dict(totals)


def _term_count(operand, slot: str) -> int:
    """Terms of a polynomial operand; a scalar counts as one term."""
    terms = getattr(operand, slot, None)
    return 1 if terms is None else len(terms)


class Tracer:
    """Context manager that profiles the block and collects the counts."""

    def __init__(self, src_dir: str):
        self.classify = Classifier(src_dir)
        self.profile = cProfile.Profile()
        self.products = [0]
        self.gc_runs = 0
        self.gc_pause = 0.0
        self._gc_started = 0.0
        self._restore = []

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_runs += 1
            self.gc_pause += time.perf_counter() - self._gc_started

    def _count_products(self):
        import cmhilb.exactalg as exactalg

        products = self.products
        for class_name, slot in COUNTED_PRODUCTS:
            cls = getattr(exactalg, class_name, None)
            if cls is None or "__mul__" not in vars(cls):
                continue
            original = vars(cls)["__mul__"]

            def counted(a, b, original=original, slot=slot):
                products[0] += _term_count(a, slot) * _term_count(b, slot)
                return original(a, b)

            for name in ("__mul__", "__rmul__"):
                if name in vars(cls):
                    self._restore.append((cls, name, vars(cls)[name]))
                    setattr(cls, name, counted)

    def __enter__(self):
        self._count_products()
        gc.callbacks.append(self._on_gc)
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        gc.callbacks.remove(self._on_gc)
        for cls, name, original in self._restore:
            setattr(cls, name, original)
        return False

    def metrics(self) -> dict:
        stats = pstats.Stats(self.profile).stats
        owners = attribute(stats, self.classify)
        out = {f"{layer}.self_s": owners.get(f"cmhilb.{layer}", 0.0) for layer in LAYERS}
        out["fractions.self_s"] = owners.get("fractions", 0.0)

        def entries(module):
            return [
                (func[2], entry) for func, entry in stats.items() if self.classify(func[0]) == f"cmhilb.{module}"
            ]

        exact = entries("exactalg")
        out["exactalg.calls"] = sum(entry[1] for _, entry in exact)
        out["exactalg.exact_div_calls"] = sum(entry[1] for name, entry in exact if name == "exact_div")
        out["exactalg.gcd_calls"] = sum(entry[1] for name, entry in exact if "gcd" in name)
        out["exactalg.coeff_ops"] = self.products[0]
        for metric, module, func in CUMULATIVE:
            out[metric] = sum(entry[3] for name, entry in entries(module) if name == func)
        for module, func in MEMOS:
            wrapped = getattr(importlib.import_module(f"cmhilb.{module}"), func, None)
            info = wrapped.cache_info() if hasattr(wrapped, "cache_info") else None
            for field in ("size", "hits", "misses"):
                key = "currsize" if field == "size" else field
                out[f"memo.{func}.{field}"] = getattr(info, key, 0)
        out["gc.collections"] = self.gc_runs
        out["gc.pause_s"] = self.gc_pause
        out["unattributed.self_s"] = owners.get(UNATTRIBUTED, 0.0)
        out["bench.self_s"] = owners.get(BENCH, 0.0)
        return out
