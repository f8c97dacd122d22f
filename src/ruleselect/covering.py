"""Set-system reductions and the threshold-sweep greedy approximation solvers.

A rule-selection problem maps to a red-blue instance (FP objective: cover the
truth facts, touch few spurious ones) or to a positive-negative instance
(FP+FN objective: uncovered positives and covered negatives both cost).  The
positive-negative problem is solved by augmenting with one "skip" set per
positive element and running the red-blue greedy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .evaluation import EvalCache, _cache_for, check_fp_feasible
from .model import (
    CoverageError,
    DataExample,
    InfeasibleError,
    RuleSet,
    Selection,
    ValidationError,
)
from .parser import format_fact


def _check_system(ground_a, ground_b, sets, kind_a, kind_b):
    if ground_a & ground_b:
        raise ValidationError(f"{kind_a} and {kind_b} elements overlap")
    labels = set()
    for label, members in sets:
        if label in labels:
            raise ValidationError(f"duplicate set label {label!r}")
        labels.add(label)
        stray = members - ground_a - ground_b
        if stray:
            raise ValidationError(
                f"set {label!r} contains unknown elements {sorted(stray)[:3]}")


@dataclass(frozen=True)
class RbscInstance:
    """Cover every blue element while covering as few red elements as possible."""

    red: frozenset
    blue: frozenset
    sets: tuple  # ordered (label, frozenset of element ids)
    back_map: dict = field(default_factory=dict)  # label -> rule name | None (synthetic)

    def __post_init__(self):
        _check_system(self.red, self.blue, self.sets, "red", "blue")


@dataclass(frozen=True)
class PnpscInstance:
    """Minimize uncovered positives plus covered negatives."""

    positive: frozenset
    negative: frozenset
    sets: tuple
    back_map: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_system(self.positive, self.negative, self.sets, "positive", "negative")

    def cost(self, labels: Iterable[str]) -> int:
        chosen = set(labels)
        union = set()
        for label, members in self.sets:
            if label in chosen:
                union |= members
        return len(self.positive - union) + len(self.negative & union)


@dataclass(frozen=True)
class GreedyConfig:
    """Threshold schedule policy for the greedy solver."""

    schedule: str = "both"  # powers-of-two | exact-counts | both

    def __post_init__(self):
        if self.schedule not in ("powers-of-two", "exact-counts", "both"):
            raise ValidationError(f"unknown schedule policy {self.schedule!r}")


@dataclass(frozen=True)
class CoverSelection:
    """A solver result; every reported quantity is recomputable from `chosen`."""

    chosen: tuple  # labels, sorted
    cost: int
    covered_red: frozenset = frozenset()
    covered_blue: frozenset = frozenset()
    uncovered_positive: frozenset = frozenset()
    covered_negative: frozenset = frozenset()


def fact_id(f) -> str:
    return format_fact(f)


def build_rbsc(rules: RuleSet, example: DataExample,
               cache: Optional[EvalCache] = None) -> RbscInstance:
    """Truth facts become blue, spurious derivable facts red, one set per rule.

    Sets are deliberately not deduplicated across rules with equal output, so
    labels stay in one-to-one correspondence with rules.
    """
    cache = _cache_for(rules, example.premise, cache)
    feas = check_fp_feasible(rules, example, cache)
    if not feas.ok:
        raise InfeasibleError(feas.missing)
    truth = example.truth.facts
    blue = frozenset(fact_id(f) for f in truth)
    red = frozenset(fact_id(f) for f in cache.union - truth)
    sets = tuple((r.name, frozenset(fact_id(f) for f in cache.per_rule[r.name]))
                 for r in rules.rules)
    return RbscInstance(red=red, blue=blue, sets=sets,
                        back_map={r.name: r.name for r in rules.rules})


def build_pnpsc(rules: RuleSet, example: DataExample,
                cache: Optional[EvalCache] = None) -> PnpscInstance:
    """Truth facts become positive, spurious derivable facts negative.

    No coverage requirement: truth facts no rule can derive simply stay
    uncovered and cost one each.
    """
    cache = _cache_for(rules, example.premise, cache)
    truth = example.truth.facts
    positive = frozenset(fact_id(f) for f in truth)
    negative = frozenset(fact_id(f) for f in cache.union - truth)
    sets = tuple((r.name, frozenset(fact_id(f) for f in cache.per_rule[r.name]))
                 for r in rules.rules)
    return PnpscInstance(positive=positive, negative=negative, sets=sets,
                         back_map={r.name: r.name for r in rules.rules})


def pnpsc_to_rbsc(instance: PnpscInstance) -> RbscInstance:
    """Augment with a two-element skip set {p, marker} per positive element p.

    Covering a positive via its skip set costs exactly one red (the marker),
    matching the cost of leaving it uncovered on the original instance.
    """
    markers = {}
    taken = instance.positive | instance.negative
    labels = {label for label, _ in instance.sets}
    for p in sorted(instance.positive):
        marker = f"skip:{p}"
        label = f"skip({p})"
        if marker in taken or label in labels:
            raise ValidationError(f"skip marker for {p!r} collides with existing ids")
        markers[p] = (label, marker)
    red = frozenset(instance.negative) | frozenset(m for _, m in markers.values())
    sets = list(instance.sets)
    back_map = dict(instance.back_map)
    for p in sorted(markers):
        label, marker = markers[p]
        sets.append((label, frozenset({p, marker})))
        back_map[label] = None
    return RbscInstance(red=red, blue=instance.positive, sets=tuple(sets),
                        back_map=back_map)


def _threshold_schedule(red_counts, policy: str):
    mx = max(red_counts) if red_counts else 0
    taus = {0, mx}
    if policy in ("powers-of-two", "both"):
        t = 1
        while t <= mx:
            taus.add(t)
            t *= 2
    if policy == "exact-counts" or (policy == "both" and len(set(red_counts)) <= 64):
        taus.update(red_counts)
    return sorted(taus)


def _greedy_pass(sets, red, blue):
    """One weighted-greedy run; `sets` must already cover blue.

    Rank per step: zero-new-red sets strictly first (most new blue, then
    label); otherwise smallest new-red/new-blue ratio, most new blue, then
    label.  Only sets contributing new blue are considered.
    """
    covered: set = set()
    chosen = []
    available = dict(sets)
    while not blue <= covered:
        best_key = None
        best_label = None
        for label, members in available.items():
            fresh = members - covered
            nb = len(fresh & blue)
            if nb == 0:
                continue
            nr = len(fresh & red)
            if nr == 0:
                key = (0, Fraction(0), -nb, label)
            else:
                key = (1, Fraction(nr, nb), -nb, label)
            if best_key is None or key < best_key:
                best_key = key
                best_label = label
        chosen.append(best_label)
        covered |= available.pop(best_label)
    return chosen, covered


def solve_rbsc_greedy(instance: RbscInstance,
                      config: Optional[GreedyConfig] = None) -> CoverSelection:
    """Threshold-sweep greedy: per threshold, restrict to sets with at most
    that many reds, cover blue greedily, and keep the best candidate overall.

    Candidates compare by fewest covered reds, then fewest sets, then
    lexicographic label list.  Fully deterministic and invariant under
    permutations of the set list.
    """
    config = config or GreedyConfig()
    union_all = set()
    for _, members in instance.sets:
        union_all |= members
    uncoverable = instance.blue - union_all
    if uncoverable:
        raise CoverageError(f"blue element {sorted(uncoverable)[0]!r} is in no set")

    red_counts = [len(members & instance.red) for _, members in instance.sets]
    best = None
    for tau in _threshold_schedule(red_counts, config.schedule):
        eligible = [(label, members) for (label, members), rc
                    in zip(instance.sets, red_counts) if rc <= tau]
        covered_by_eligible = set()
        for _, members in eligible:
            covered_by_eligible |= members
        if not instance.blue <= covered_by_eligible:
            continue
        chosen, covered = _greedy_pass(eligible, instance.red, instance.blue)
        labels = tuple(sorted(chosen))
        key = (len(covered & instance.red), len(labels), labels)
        if best is None or key < best[0]:
            best = (key, labels, covered)
    _, labels, covered = best
    return CoverSelection(
        chosen=labels,
        cost=len(covered & instance.red),
        covered_red=frozenset(covered & instance.red),
        covered_blue=frozenset(covered & instance.blue),
    )


def solve_pnpsc_approx(instance: PnpscInstance,
                       config: Optional[GreedyConfig] = None) -> CoverSelection:
    """Reduce to red-blue, run the greedy, drop skip sets, recost on the original."""
    rbsc = pnpsc_to_rbsc(instance)
    cover = solve_rbsc_greedy(rbsc, config)
    original = {label for label, _ in instance.sets}
    chosen = tuple(sorted(label for label in cover.chosen if label in original))
    union = set()
    members_by_label = dict(instance.sets)
    for label in chosen:
        union |= members_by_label[label]
    uncovered = frozenset(instance.positive - union)
    covered_neg = frozenset(instance.negative & union)
    return CoverSelection(
        chosen=chosen,
        cost=len(uncovered) + len(covered_neg),
        covered_blue=frozenset(instance.positive & union),
        uncovered_positive=uncovered,
        covered_negative=covered_neg,
    )


def map_back(cover: CoverSelection, back_map: dict) -> Selection:
    """Chosen labels back to rule names; synthetic skip labels are dropped."""
    names = []
    for label in cover.chosen:
        if label not in back_map:
            raise LookupError(f"label {label!r} has no back-mapping")
        origin = back_map[label]
        if origin is not None:
            names.append(origin)
    return frozenset(names)


def greedy_fp_bound(n_rules: int, truth_size: int) -> float:
    """Approximation factor the FP-objective greedy is held to empirically."""
    return 2.0 * math.sqrt(n_rules * max(1.0, math.log2(max(1, truth_size))))


def greedy_fpfn_bound(n_rules: int, truth_size: int) -> float:
    """Approximation factor the FP+FN-objective pipeline is held to empirically."""
    return 2.0 * math.sqrt((n_rules + truth_size) * max(1.0, math.log2(max(1, truth_size))))
