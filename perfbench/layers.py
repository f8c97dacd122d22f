"""Layer boundaries the traced benchmark run wraps, and the per-layer metrics
computed from the spans recorded there.

A span is `[name, start_s, end_s, parent_index, counts]`; the layer of a span
is the part of its name before the first dot.  Self time is a span's duration
minus the durations of its direct children, so summing self times by layer
splits one CLI call's in-process time without double counting.
"""
from __future__ import annotations

import statistics

# (span name, module, attribute path).  Functions are rebound in every module
# that imported them, classes are timed through their methods, so a span
# opens wherever a caller looks the target up.
TARGETS = (
    ("cli.main", "ruleselect.cli", "main"),
    ("parser.parse_rules", "ruleselect.parser", "parse_rules"),
    ("parser.parse_facts", "ruleselect.parser", "parse_facts"),
    ("evaluation.EvalCache", "ruleselect.evaluation", "EvalCache.__init__"),
    ("evaluation.compute_errors", "ruleselect.evaluation", "compute_errors"),
    ("evaluation.check_fp_feasible", "ruleselect.evaluation", "check_fp_feasible"),
    ("bitset.PackedUniverse", "ruleselect._bitset", "PackedUniverse.__init__"),
    ("bitset.pack", "ruleselect._bitset", "PackedUniverse.pack"),
    ("bitset.pack_rows", "ruleselect._bitset", "PackedUniverse.pack_rows"),
    ("kernels.solve_exact_masks", "ruleselect._kernels", "solve_exact_masks"),
    ("kernels.size_profile_masks", "ruleselect._kernels", "size_profile_masks"),
    ("exact.solve_exact", "ruleselect.exact", "solve_exact"),
    ("exact.pareto_front", "ruleselect.exact", "pareto_front"),
    ("exact.bilevel_optimum", "ruleselect.exact", "bilevel_optimum"),
    ("covering.build_rbsc", "ruleselect.covering", "build_rbsc"),
    ("covering.build_pnpsc", "ruleselect.covering", "build_pnpsc"),
    ("covering.pnpsc_to_rbsc", "ruleselect.covering", "pnpsc_to_rbsc"),
    ("covering.solve_rbsc_greedy", "ruleselect.covering", "solve_rbsc_greedy"),
    ("covering.solve_pnpsc_approx", "ruleselect.covering", "solve_pnpsc_approx"),
)

LAYERS = ("parser", "evaluation", "bitset", "kernels", "exact", "covering", "cli")


def _count_kernel(args, result):
    n, words = args[0].shape
    return {"subsets": 2 ** n, "bytes": 2 ** n * words * 8}


def _count_cache(args, result):
    per_rule = args[0].per_rule
    return {"rules": len(per_rule), "derived": sum(len(v) for v in per_rule.values())}


# Counts taken at the same boundaries: (positional args, return value) -> counts.
COUNTERS = {
    "parser.parse_facts": lambda args, result: {"facts": len(result.facts)},
    "evaluation.EvalCache": _count_cache,
    "bitset.PackedUniverse": lambda args, result: {
        "universe": len(args[0].facts), "words": args[0].n_words},
    "kernels.solve_exact_masks": _count_kernel,
    "kernels.size_profile_masks": _count_kernel,
    "covering.pnpsc_to_rbsc": lambda args, result: {
        "skip_sets": len(result.sets) - len(args[0].sets)},
    "covering.solve_rbsc_greedy": lambda args, result: {
        "sets": len(args[0].sets), "elements": len(args[0].red) + len(args[0].blue)},
}

# Per-layer metrics: name -> (unit, better, which end-to-end figure it should
# move, on which workload).  Per-operation latencies (`eval_ms`, ...) are the
# medians printed by every run; `round_s` and `op_geomean_ms` are the gated
# end-to-end metrics they add up to.  Times and counts are per round (one pass
# through the workload's operation mix), medians over the traced rounds; a
# layer that never runs on a workload reads 0 there.
PER_LAYER = {
    "parser.parse_facts_ms": ("ms", "lower",
        "eval_ms and check_feasible_ms on eval_large; barely exact_front"),
    "parser.facts_per_s": ("1/s", "higher",
        "eval_ms and check_feasible_ms on eval_large; barely exact_front"),
    "evaluation.evalcache_ms": ("ms", "lower",
        "every operation on eval_large, eval_ms on greedy_sweep, and setup_s; "
        "under 3% on exact_front"),
    "evaluation.rules_evaluated": ("count", "lower",
        "every operation on eval_large (eval_subset_ms if evaluation turns lazy), "
        "eval_ms on greedy_sweep, and setup_s"),
    "evaluation.derived_facts": ("count", "lower",
        "every operation on eval_large, eval_ms on greedy_sweep, and setup_s"),
    "evaluation.compute_errors_ms": ("ms", "lower",
        "eval_ms and eval_subset_ms on eval_large, eval_ms on greedy_sweep"),
    "bitset.pack_ms": ("ms", "lower",
        "select_exact_fpfn_ms, select_exact_fp_ms, pareto_ms, bilevel_ms on exact_front"),
    "bitset.universe_facts": ("count", "lower",
        "select_exact_*, pareto_ms, bilevel_ms on exact_front"),
    "bitset.words": ("count", "lower",
        "select_exact_*, pareto_ms, bilevel_ms on exact_front"),
    "kernels.solve_exact_ms": ("ms", "lower",
        "select_exact_fpfn_ms and select_exact_fp_ms on exact_front; nothing elsewhere"),
    "kernels.size_profile_ms": ("ms", "lower",
        "pareto_ms and bilevel_ms on exact_front; nothing elsewhere"),
    "kernels.subsets": ("count", "lower",
        "select_exact_*, pareto_ms, bilevel_ms on exact_front; nothing elsewhere"),
    "kernels.subsets_per_s": ("1/s", "higher",
        "select_exact_*, pareto_ms, bilevel_ms on exact_front; nothing elsewhere"),
    "kernels.bytes_touched": ("B", "lower",
        "select_exact_*, pareto_ms, bilevel_ms on exact_front; nothing elsewhere"),
    "exact.self_ms": ("ms", "lower",
        "select_exact_*, pareto_ms, bilevel_ms on exact_front"),
    "covering.build_ms": ("ms", "lower",
        "select_greedy_fpfn_ms most, select_greedy_fp_ms less, on greedy_sweep"),
    "covering.pnpsc_to_rbsc_ms": ("ms", "lower",
        "select_greedy_fpfn_ms on greedy_sweep"),
    "covering.skip_sets": ("count", "lower",
        "select_greedy_fpfn_ms on greedy_sweep"),
    "covering.greedy_ms": ("ms", "lower",
        "select_greedy_fpfn_ms most, select_greedy_fp_ms less, on greedy_sweep"),
    "covering.sets": ("count", "lower",
        "select_greedy_fpfn_ms most, select_greedy_fp_ms less, on greedy_sweep"),
    "covering.elements": ("count", "lower",
        "select_greedy_fpfn_ms most, select_greedy_fp_ms less, on greedy_sweep"),
    "cli.self_ms": ("ms", "lower",
        "every per-operation latency, the short exact_front operations most"),
    "cli.main_ms": ("ms", "lower",
        "round_s on every workload"),
    "process.startup_ms": ("ms", "lower",
        "every per-operation latency, the short exact_front operations most; "
        "untraced round_s minus traced cli.main_ms"),
    "trace.overhead_ms": ("ms", "lower",
        "nothing: traced round_s minus untraced round_s, a check on the trace itself"),
    "failed_share": ("share", "lower",
        "every metric: failed operations over attempted ones"),
}

_SELF_MS = {  # per-round self time metric -> the spans it adds up
    "parser.parse_facts_ms": ("parser.parse_facts",),
    "evaluation.evalcache_ms": ("evaluation.EvalCache",),
    "evaluation.compute_errors_ms": ("evaluation.compute_errors",),
    "bitset.pack_ms": ("bitset.PackedUniverse", "bitset.pack", "bitset.pack_rows"),
    "kernels.solve_exact_ms": ("kernels.solve_exact_masks",),
    "kernels.size_profile_ms": ("kernels.size_profile_masks",),
    "exact.self_ms": ("exact.solve_exact", "exact.pareto_front", "exact.bilevel_optimum"),
    "covering.build_ms": ("covering.build_rbsc", "covering.build_pnpsc"),
    "covering.pnpsc_to_rbsc_ms": ("covering.pnpsc_to_rbsc",),
    "covering.greedy_ms": ("covering.solve_rbsc_greedy", "covering.solve_pnpsc_approx"),
    "cli.self_ms": ("cli.main",),
}
_SUMS = {  # per-round count metric -> (span name, count key)
    "evaluation.rules_evaluated": (("evaluation.EvalCache", "rules"),),
    "evaluation.derived_facts": (("evaluation.EvalCache", "derived"),),
    "kernels.subsets": (("kernels.solve_exact_masks", "subsets"),
                        ("kernels.size_profile_masks", "subsets")),
    "kernels.bytes_touched": (("kernels.solve_exact_masks", "bytes"),
                              ("kernels.size_profile_masks", "bytes")),
    "covering.skip_sets": (("covering.pnpsc_to_rbsc", "skip_sets"),),
    "covering.sets": (("covering.solve_rbsc_greedy", "sets"),),
    "covering.elements": (("covering.solve_rbsc_greedy", "elements"),),
}


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children (s)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _tally(calls):
    """Self seconds and summed counts by span name, plus cli.main seconds,
    over `calls`: a list of the spans of one CLI call each."""
    self_s, counts = {}, {}
    main_s = 0.0
    for spans in calls:
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            self_s[name] = self_s.get(name, 0.0) + own
            for key, value in (span[4] or {}).items():
                counts[name, key] = counts.get((name, key), 0) + value
            if name == "cli.main":
                main_s += span[2] - span[1]
    return self_s, counts, main_s


def layer_shares(calls) -> dict:
    """Share (%) of cli.main time spent in each layer's own code."""
    self_s, _, main_s = _tally(calls)
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, own in self_s.items():
        shares[name.split(".")[0]] += 100.0 * own / main_s if main_s else 0.0
    return shares


def round_metrics(calls) -> dict:
    """Per-round metrics of one traced pass through the operation mix."""
    self_s, counts, main_s = _tally(calls)
    out = {"cli.main_ms": 1000.0 * main_s}
    for metric, names in _SELF_MS.items():
        out[metric] = 1000.0 * sum(self_s.get(n, 0.0) for n in names)
    for metric, keys in _SUMS.items():
        out[metric] = sum(counts.get(key, 0) for key in keys)
    return out


def _rate(calls, span_names, key):
    self_s, counts, _ = _tally(calls)
    busy = sum(self_s.get(n, 0.0) for n in span_names)
    work = sum(counts.get((n, key), 0) for n in span_names)
    return work / busy if busy else 0.0


def run_metrics(traced_rounds, traced_round_s, untraced_round_s, failed_share) -> dict:
    """Every PER_LAYER metric from the traced rounds (each a list of calls)."""
    per_round = [round_metrics(calls) for calls in traced_rounds]
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    every_call = [call for calls in traced_rounds for call in calls]
    kernels = ("kernels.solve_exact_masks", "kernels.size_profile_masks")
    metrics["parser.facts_per_s"] = _rate(every_call, ("parser.parse_facts",), "facts")
    metrics["kernels.subsets_per_s"] = _rate(every_call, kernels, "subsets")
    for metric, key in (("bitset.universe_facts", "universe"), ("bitset.words", "words")):
        metrics[metric] = max((span[4] or {}).get(key, 0)
                              for spans in every_call for span in spans)
    untraced_ms = 1000.0 * statistics.median(untraced_round_s)
    # start-up is timed on untraced children, so the tracer's own imports and
    # wrapping stay out of it; they show in trace.overhead_ms instead
    metrics["process.startup_ms"] = untraced_ms - metrics["cli.main_ms"]
    metrics["trace.overhead_ms"] = 1000.0 * statistics.median(traced_round_s) - untraced_ms
    metrics["failed_share"] = failed_share
    return {name: {"value": metrics[name], "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items()}
