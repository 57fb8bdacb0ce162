"""Per-layer metrics from the spans of traced ops.

A span's self time is its duration minus the durations of its direct
children (calls are nested on one thread, so children never overlap).
Times and counts are means per traced op; ratios are taken over the whole
run.  The table below is the single list of per-layer metrics; the
``per_layer`` entries of BENCHMARK.json mirror it.
"""

from __future__ import annotations

# name -> (unit, better)
PER_LAYER = {
    "poly.mul_calls": ("1/op", "lower"),
    "poly.mul_self_s": ("s/op", "lower"),
    "poly.add_self_s": ("s/op", "lower"),
    "poly.pairs_examined": ("1/op", "lower"),
    "poly.pairs_kept": ("1/op", "lower"),
    "poly.pair_yield": ("ratio", "higher"),
    "symchern.schur_calls": ("1/op", "lower"),
    "symchern.schur_self_s": ("s/op", "lower"),
    "symchern.schur_hit_ratio": ("ratio", "higher"),
    "symchern.power_sum_self_s": ("s/op", "lower"),
    "symchern.flip_self_s": ("s/op", "lower"),
    "hrr.todd_self_s": ("s/op", "lower"),
    "hrr.ch_self_s": ("s/op", "lower"),
    "hrr.chi_p_self_s": ("s/op", "lower"),
    "hrr.chi_p_calls": ("1/op", "lower"),
    "hrr.chi_table_check_s": ("s/op", "lower"),
    "hrr.cache_hit_ratio": ("ratio", "higher"),
    "cone.generators_self_s": ("s/op", "lower"),
    "cone.certify_calls": ("1/op", "lower"),
    "cone.certify_self_s": ("s/op", "lower"),
    "cone.verify_self_s": ("s/op", "lower"),
    "cone.certified_ratio": ("ratio", "higher"),
    "cone.coef_max_bits": ("bits", "lower"),
    "varieties.descriptors": ("1/op", "higher"),
    "varieties.chern_numbers_calls": ("1/op", "lower"),
    "varieties.chern_numbers_self_s": ("s/op", "lower"),
    "varieties.chern_numbers_per_descriptor": ("ratio", "lower"),
    "varieties.check_signs_self_s": ("s/op", "lower"),
    "varieties.load_corpus_self_s": ("s/op", "lower"),
    "cli.import_s": ("s/op", "lower"),
    "cli.main_self_s": ("s/op", "lower"),
    "cli.stdout_bytes": ("B/op", "lower"),
    "cli.outside_main_s": ("s/op", "lower"),
    "trace.overhead_s": ("s/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# metric -> span names whose self times it sums.  The tangent/cotangent
# swap is symchern's concept; hrr's ChernFunctional.flipped implements it
# for functionals, so both count as symchern.flip.
SELF_TIMES = {
    "poly.mul_self_s": ("poly.GradedPoly.__mul__",),
    "poly.add_self_s": ("poly.GradedPoly.__add__",),
    "symchern.schur_self_s": ("symchern.schur",),
    "symchern.power_sum_self_s": ("symchern.power_sum",),
    "symchern.flip_self_s": ("symchern.flip_basis", "hrr.ChernFunctional.flipped"),
    "hrr.todd_self_s": ("hrr.todd_class",),
    "hrr.ch_self_s": ("hrr.ch_exterior_cotangent",),
    "hrr.chi_p_self_s": ("hrr.chi_p",),
    "hrr.chi_table_check_s": ("hrr.chi_table",),
    "cone.generators_self_s": ("cone.generators",),
    "cone.certify_self_s": ("cone.certify",),
    "cone.verify_self_s": ("cone.verify_certificate",),
    "varieties.chern_numbers_self_s": ("varieties.chern_numbers",),
    "varieties.check_signs_self_s": ("varieties.check_signs",),
    "varieties.load_corpus_self_s": ("varieties.load_corpus",),
    "cli.main_self_s": ("cli.main",),
}
CALLS = {
    "poly.mul_calls": "poly.GradedPoly.__mul__",
    "symchern.schur_calls": "symchern.schur",
    "hrr.chi_p_calls": "hrr.chi_p",
    "cone.certify_calls": "cone.certify",
    "varieties.chern_numbers_calls": "varieties.chern_numbers",
}


class OpTrace:
    """Self times (s) and call counts of one traced op."""

    def __init__(self, record: dict):
        names = record["names"]
        spans = record["spans"]
        child_ns = [0] * len(spans)
        for span in spans:
            if span is not None and span[1] >= 0:
                child_ns[span[1]] += span[3] - span[2]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.root_s = 0.0
        self.descriptors = 0
        for index, span in enumerate(spans):
            if span is None:
                continue
            name_id, parent, start, end = span
            name = names[name_id]
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - child_ns[index]) / 1e9
            self.calls[name] = self.calls.get(name, 0) + 1
            if parent < 0:
                self.root_s += (end - start) / 1e9
            # a descriptor is audited by check_signs or evaluated by chi_values
            if name == "varieties.check_signs" or (
                name == "varieties.chi_values" and names[spans[parent][0]] != "varieties.check_signs"
            ):
                self.descriptors += 1
        self.counters = record["counters"]
        self.import_s = record["import_s"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[OpTrace], traced_walls: list[float], untraced_walls: list[float], stdout_bytes: list[int]) -> dict[str, float]:
    ops = len(traces)
    total = {}
    for metric, names in SELF_TIMES.items():
        total[metric] = sum(t.self_s.get(n, 0.0) for t in traces for n in names)
    for metric, name in CALLS.items():
        total[metric] = sum(t.calls.get(name, 0) for t in traces)
    for key in ("poly.pairs_examined", "poly.pairs_kept"):
        total[key] = sum(t.counters[key] for t in traces)
    total["varieties.descriptors"] = sum(t.descriptors for t in traces)
    total["cli.import_s"] = sum(t.import_s for t in traces)
    total["cli.stdout_bytes"] = sum(stdout_bytes)
    total["cli.outside_main_s"] = sum(w - t.root_s for t, w in zip(traces, traced_walls))
    total["trace.overhead_s"] = sum(traced_walls) - sum(untraced_walls)
    metrics = {name: value / ops for name, value in total.items()}

    schur_calls = total["symchern.schur_calls"]
    hits = sum(t.counters["hrr.cache_hits"] for t in traces)
    lookups = hits + sum(t.counters["hrr.cache_misses"] for t in traces)
    metrics.update(
        {
            "poly.pair_yield": _ratio(total["poly.pairs_kept"], total["poly.pairs_examined"]),
            "symchern.schur_hit_ratio": _ratio(schur_calls - sum(t.counters["symchern.schur_distinct"] for t in traces), schur_calls),
            "hrr.cache_hit_ratio": _ratio(hits, lookups),
            "cone.certified_ratio": _ratio(sum(t.counters["cone.certified"] for t in traces), total["cone.certify_calls"]),
            "cone.coef_max_bits": max(t.counters["cone.coef_max_bits"] for t in traces),
            "varieties.chern_numbers_per_descriptor": _ratio(total["varieties.chern_numbers_calls"], total["varieties.descriptors"]),
            "trace.overhead_ratio": _ratio(total["trace.overhead_s"], sum(untraced_walls)),
        }
    )
    return {name: metrics[name] for name in PER_LAYER}
