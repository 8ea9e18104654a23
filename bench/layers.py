"""Per-layer metrics from the spans that ``traced_cli.py`` records.

A span's self time is its duration minus the part of it that its child spans
cover (the union of their intervals, so overlapping worker-thread children
are not subtracted twice).
"""

from __future__ import annotations

from collections import defaultdict

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "khintchine.level_entries.self_s": "s",
    "khintchine.level_entries.calls": "count",
    "khintchine.level_entries.labels": "count",
    "khintchine.level_entries.reuse": "fraction",
    "khintchine.level_term_sum.self_s": "s",
    "khintchine.level_term_sum.terms": "count",
    "khintchine.level_term_sum.ns_per_term": "ns",
    "khintchine.tail_bound.self_s": "s",
    "khintchine.tail_bound.calls": "count",
    "khintchine.tail_bound.calls_per_eval": "count",
    "khintchine.kp_constant.self_s": "s",
    "khintchine.kp_constant.calls": "count",
    "khintchine.kp_constant.levels": "count",
    "khintchine.prefetch.self_s": "s",
    "khintchine.norm_equivalence_constants.self_s": "s",
    "khintchine.decay_rate.self_s": "s",
    "models.level_data.self_s": "s",
    "models.level_data.labels": "count",
    "models.irr_data.self_s": "s",
    "models.irr_data.calls": "count",
    "models.enumerate_level.self_s": "s",
    "chebyshev.self_s": "s",
    "chebyshev.calls": "count",
    "chebyshev.steps": "count",
    "rootsys.weight_system.self_s": "s",
    "rootsys.weight_system.calls": "count",
    "rootsys.q_matrix_spectrum.self_s": "s",
    "rootsys.quantum_dimension.self_s": "s",
    "rootsys.quantum_dimension_product.self_s": "s",
    "rootsys.quantum_dimension_product.calls": "count",
    "rootsys.weyl_dimension.self_s": "s",
    "verify.verify_model.self_s": "s",
    "fusion.self_s": "s",
    "cli.main.self_s": "s",
    "cli._emit.self_s": "s",
    "cli._emit.bytes": "count",
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.mpmath_s": "s",
    "import.schur_s": "s",
    "import.exact_s": "s",
    "trace.overhead": "fraction",
    "trace.coverage": "fraction",
}

# Span names, and the metric suffix their summed ``count`` field is reported as.
SPANS = {
    "khintchine.level_entries": "labels",
    "khintchine.level_term_sum": "terms",
    "khintchine.tail_bound": None,
    "khintchine.kp_constant": "levels",
    "khintchine.prefetch": None,
    "khintchine.norm_equivalence_constants": None,
    "khintchine.decay_rate": None,
    "models.level_data": "labels",
    "models.irr_data": None,
    "models.enumerate_level": None,
    "chebyshev": "steps",
    "rootsys.weight_system": None,
    "rootsys.q_matrix_spectrum": None,
    "rootsys.quantum_dimension": None,
    "rootsys.quantum_dimension_product": None,
    "rootsys.weyl_dimension": None,
    "verify.verify_model": None,
    "fusion": None,
    "cli.main": None,
    "cli._emit": "bytes",
}


def _union_ns(intervals) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def command_profile(spans: list[list]) -> dict:
    """Per span name: self_ns, calls, summed count, distinct keys, for one process."""
    children = defaultdict(list)
    for name, start, end, parent, count, key in spans:
        if parent >= 0:
            children[parent].append((start, end))
    profile = defaultdict(lambda: {"self_ns": 0, "calls": 0, "count": 0, "keys": set()})
    for index, (name, start, end, parent, count, key) in enumerate(spans):
        covered = [(max(lo, start), min(hi, end)) for lo, hi in children[index] if hi > start and lo < end]
        entry = profile[name]
        entry["self_ns"] += end - start - _union_ns(covered)
        entry["calls"] += 1
        entry["count"] += count
        if key is not None:
            entry["keys"].add(key)
    return profile


def layer_metrics(profiles: list[dict], traced_wall_s: float) -> dict:
    """Per-layer metric values of one traced pass (import and overhead excluded)."""
    total = {name: {"self_ns": 0, "calls": 0, "count": 0, "distinct": 0} for name in SPANS}
    for profile in profiles:
        for name, entry in profile.items():
            acc = total[name]
            for field in ("self_ns", "calls", "count"):
                acc[field] += entry[field]
            acc["distinct"] += len(entry["keys"])
    values = {}
    for name, acc in total.items():
        values[f"{name}.self_s"] = acc["self_ns"] / 1e9
        values[f"{name}.calls"] = acc["calls"]
        if SPANS[name]:
            values[f"{name}.{SPANS[name]}"] = acc["count"]
    entries = total["khintchine.level_entries"]
    values["khintchine.level_entries.reuse"] = 1 - entries["distinct"] / entries["calls"] if entries["calls"] else 0.0
    terms = total["khintchine.level_term_sum"]["count"]
    values["khintchine.level_term_sum.ns_per_term"] = (
        total["khintchine.level_term_sum"]["self_ns"] / terms if terms else 0.0
    )
    evals = total["khintchine.kp_constant"]["calls"]
    values["khintchine.tail_bound.calls_per_eval"] = (
        total["khintchine.tail_bound"]["calls"] / evals if evals else 0.0
    )
    values["trace.coverage"] = sum(acc["self_ns"] for acc in total.values()) / 1e9 / traced_wall_s
    return {name: v for name, v in values.items() if name in LAYER_METRICS}
