"""Set-system reductions and the threshold-sweep greedy approximation solvers.

A rule-selection problem maps to a red-blue instance (FP objective: cover the
truth facts, touch few spurious ones) or to a positive-negative instance
(FP+FN objective: uncovered positives and covered negatives both cost).  The
positive-negative problem is the red-blue one augmented with a "skip" set
{p, marker} per positive p (`pnpsc_to_rbsc`), kept implicit: the greedy
scans the rule sets only and takes skips in label order between scans
(`solve_pnpsc_approx` says why that is exact).  The greedy packs each set
into one int of a `_bitset.PackedUniverse`, so every step is unions and
popcounts.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from ._bitset import PackedUniverse
from .evaluation import check_fp_feasible, evaluated
from .model import (
    CoverageError,
    DataExample,
    InfeasibleError,
    RuleSet,
    ValidationError,
)


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
                f"set {label!r} contains unknown elements {sorted(map(str, stray))[:3]}")


@dataclass(frozen=True)
class RbscInstance:
    """Cover every blue element while covering as few red elements as possible."""

    red: frozenset
    blue: frozenset
    sets: tuple  # ordered (label, frozenset of elements)

    def __post_init__(self):
        _check_system(self.red, self.blue, self.sets, "red", "blue")


@dataclass(frozen=True)
class PnpscInstance:
    """Minimize uncovered positives plus covered negatives."""

    positive: frozenset
    negative: frozenset
    sets: tuple

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
class CoverSelection:
    """A solver result; every reported quantity is recomputable from `chosen`."""

    chosen: tuple  # labels, sorted
    cost: int


def _fact_sets(rules: RuleSet, example: DataExample):
    """Truth facts, spurious derivable facts, and one (rule name, facts) set per rule.

    The sets are the memoized evaluation outputs themselves, so elements
    compare as `Fact`s do: by value, whatever the spelling of a constant.
    They are deliberately not deduplicated across rules with equal output, so
    labels stay in one-to-one correspondence with rules.
    """
    truth = example.truth.facts
    cache = evaluated(rules, example.premise)
    sets = tuple((r.name, cache.per_rule[r.name]) for r in rules.rules)
    return truth, cache.union - truth, sets


def build_rbsc(rules: RuleSet, example: DataExample) -> RbscInstance:
    """Truth facts become blue, spurious derivable facts red, one set per rule."""
    missing = check_fp_feasible(rules, example)
    if missing:
        raise InfeasibleError(missing)
    blue, red, sets = _fact_sets(rules, example)
    return RbscInstance(red=red, blue=blue, sets=sets)


def build_pnpsc(rules: RuleSet, example: DataExample) -> PnpscInstance:
    """Truth facts become positive, spurious derivable facts negative.

    No coverage requirement: truth facts no rule can derive simply stay
    uncovered and cost one each.
    """
    positive, negative, sets = _fact_sets(rules, example)
    return PnpscInstance(positive=positive, negative=negative, sets=sets)


def _skips(instance: PnpscInstance):
    """(label, marker, positive) per positive element, in label order.

    Raises `ValidationError` when a label or marker is already taken, so the
    implicit skips of `solve_pnpsc_approx` stay a faithful stand-in for the
    explicit sets of `pnpsc_to_rbsc`.
    """
    skips = sorted(((f"skip({p})", f"skip:{p}", p) for p in instance.positive),
                   key=itemgetter(0))
    taken = instance.positive | instance.negative
    labels = {label for label, _ in instance.sets}
    for label, marker, p in skips:
        if marker in taken or label in labels:
            raise ValidationError(f"skip marker for {p!r} collides with existing ids")
        labels.add(label)
    return skips


def pnpsc_to_rbsc(instance: PnpscInstance) -> RbscInstance:
    """The explicit reduction: a two-element skip set {p, marker} per positive p.

    Covering a positive via its skip set costs exactly one red (the marker),
    matching the cost of leaving it uncovered on the original instance.
    `solve_pnpsc_approx` keeps these sets implicit; this function stays for
    the oracle tests and the benchmark's trace.
    """
    skips = _skips(instance)
    red = instance.negative | {marker for _, marker, _ in skips}
    sets = tuple((label, frozenset({p, marker})) for label, marker, p in skips)
    return RbscInstance(red=red, blue=instance.positive, sets=(*instance.sets, *sets))


def _thresholds(red_counts):
    """Red-count ceilings to sweep: every distinct count, or with more than 64
    of them the counts that 0, the maximum and the powers of two reach.

    A ceiling admits the same sets as the largest count at or below it, so
    only counts are ever needed.
    """
    counts = sorted(set(red_counts))
    if not counts:
        return [0]
    if len(counts) <= 64:
        return counts
    taus = [0, counts[-1]] + [1 << k for k in range(counts[-1].bit_length())]
    return sorted({counts[bisect_right(counts, t) - 1] for t in taus if t >= counts[0]})


def _greedy_pass(sets, red, blue, skips):
    """One weighted-greedy run over (label, mask) sets and implicit skip sets
    that together cover blue; returns the labels taken and their red count.

    Each step takes the set of smallest new-red/new-blue ratio, then most new
    blue, then lowest label, among the sets that still add blue.  `skips`
    lists (label, blue bit) in label order for skip sets of one blue and one
    red of their own (see `solve_pnpsc_approx`).  After each scan they are
    taken in order, with no rescan, while each beats the best key it found.
    """
    covered = 0
    chosen = []
    available = sets
    i = skipped = 0
    while blue & ~covered:
        best = None
        still = []
        for label, mask in available:
            fresh = mask & ~covered
            nb = (fresh & blue).bit_count()
            if nb == 0:
                continue  # covered only grows: this set never adds blue again
            still.append((label, mask))
            nr = (fresh & red).bit_count()
            # (nr/nb, -nb, label) below best's, with the ratios cross-multiplied
            if best is None or (nr * best[1], -nb, label) < (best[0] * nb, -best[1], best[2]):
                best = (nr, nb, label, mask)
        available = still
        before = skipped
        # skip key (1/1, -1, label) below best's: then below every set's after earlier skips
        while i < len(skips) and (skips[i][1] & covered or best is None
                                  or (best[1], -1, skips[i][0]) < (best[0], -best[1], best[2])):
            label, bit = skips[i]
            if not bit & covered:
                chosen.append(label)
                covered |= bit
                skipped += 1
            i += 1
        if skipped == before:
            chosen.append(best[2])
            covered |= best[3]
    return chosen, (covered & red).bit_count() + skipped


def _sweep(labels, masks, red, blue, skips):
    """Per threshold, restrict to sets with at most that many reds, cover blue
    greedily, and keep the best (reds, set count, sorted labels) key, or None
    if no threshold admits a cover.  Skips have one red: from threshold 1 on
    they are eligible and every blue is within reach.
    """
    red_counts = [(mask & red).bit_count() for mask in masks]
    best = None
    for tau in _thresholds(red_counts + ([1] if skips else [])):
        eligible = [(label, mask) for label, mask, rc in zip(labels, masks, red_counts)
                    if rc <= tau]
        live = skips if tau >= 1 else ()
        if not live:
            reach = 0
            for _, mask in eligible:
                reach |= mask
            if blue & ~reach:
                continue
        chosen, cost = _greedy_pass(eligible, red, blue, live)
        key = (cost, len(chosen), tuple(sorted(chosen)))
        if best is None or key < best:
            best = key
    return best


def solve_rbsc_greedy(instance: RbscInstance) -> CoverSelection:
    """Threshold-sweep greedy over the sets of a red-blue instance.

    Candidates compare by fewest covered reds, then fewest sets, then
    lexicographic label list.  Fully deterministic and invariant under
    permutations of the set list.
    """
    universe = PackedUniverse(instance.red | instance.blue)
    masks = universe.pack_rows([members for _, members in instance.sets])
    best = _sweep([label for label, _ in instance.sets], masks,
                  universe.pack(instance.red), universe.pack(instance.blue), ())
    if best is None:  # the last threshold admits every set
        missing = min(instance.blue.difference(*(members for _, members in instance.sets)),
                      key=str)
        raise CoverageError(f"blue element {missing!r} is in no set")
    cost, _, chosen = best
    return CoverSelection(chosen=chosen, cost=cost)


def solve_pnpsc_approx(instance: PnpscInstance) -> CoverSelection:
    """The red-blue greedy on `pnpsc_to_rbsc(instance)` with the skip sets
    kept implicit; skip labels are dropped and the rest recosted here.

    It takes the same steps as on the explicit sets.  While p is uncovered,
    skip set {p, marker} has key (ratio 1, one new blue, label), since its
    marker is in no other set.  Taking it covers p alone, which never lowers
    another set's key.  So skips that beat a scan's best key, taken lowest
    label first, still beat every set after each other, and only the rule
    sets are ever scanned; a rule taken can lower others' new reds, so a
    rescan follows it.
    """
    labels = [label for label, _ in instance.sets]
    universe = PackedUniverse(instance.positive | instance.negative)
    skips = [(label, 1 << universe.index[p]) for label, _, p in _skips(instance)]
    masks = universe.pack_rows([members for _, members in instance.sets])
    _, _, chosen = _sweep(labels, masks, universe.pack(instance.negative),
                          universe.pack(instance.positive), skips)
    original = set(labels)
    chosen = tuple(label for label in chosen if label in original)
    return CoverSelection(chosen=chosen, cost=instance.cost(chosen))


def greedy_fp_bound(n_rules: int, truth_size: int) -> float:
    """Approximation factor the FP-objective greedy is held to empirically."""
    return 2.0 * math.sqrt(n_rules * max(1.0, math.log2(max(1, truth_size))))


def greedy_fpfn_bound(n_rules: int, truth_size: int) -> float:
    """Approximation factor the FP+FN-objective pipeline is held to empirically."""
    return 2.0 * math.sqrt((n_rules + truth_size) * max(1.0, math.log2(max(1, truth_size))))
