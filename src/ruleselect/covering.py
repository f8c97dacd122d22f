"""Set-system reductions and the threshold-sweep greedy approximation solvers.

A rule-selection problem maps to one `SetSystem`: one set per rule, truth
facts blue, and red every derivable fact that is not blue.  As red-blue set
cover (`build_rbsc`) it is the FP objective, as positive-negative partial set
cover (`build_pnpsc`) the FP+FN one.  The greedy here and the exact solvers
read these systems as `pack` packs them into `_bitset.PackedUniverse` ints, a
red being any bit outside the blue mask, so every step is unions and
popcounts.  The positive-negative problem is the red-blue one plus a "skip"
set per blue p, {p, a fresh red}.  `pnpsc_to_rbsc` builds these sets; the
greedy keeps them implicit, scans the rule sets only and takes skips in label
order between scans (`solve_pnpsc_approx` says why that is exact).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import Iterable

from ._bitset import PackedUniverse
from .evaluation import check_fp_feasible, evaluated
from .model import (
    DataExample,
    InfeasibleError,
    Record,
    RuleSet,
    ValidationError,
)


class SetSystem(Record):
    """Blue elements and ordered (label, elements) sets, red being every set
    element that is not blue: cover every blue covering few reds (red-blue),
    or minimize `cost` (positive-negative: blue is positive and red negative)."""

    _fields = ("blue", "sets")

    def __new__(cls, blue: frozenset, sets: tuple):
        labels = set()
        for label, _ in sets:
            if label in labels:
                raise ValidationError(f"duplicate set label {label!r}")
            labels.add(label)
        return tuple.__new__(cls, (blue, sets))

    @property
    def red(self) -> frozenset:
        return frozenset().union(*(members for _, members in self.sets)) - self.blue

    def cost(self, labels: Iterable[str]) -> int:
        """Uncovered blue plus covered red elements of the sets `labels` name."""
        chosen = set(labels)
        union = set()
        for label, members in self.sets:
            if label in chosen:
                union |= members
        return len(self.blue ^ union)


class CoverSelection(Record):
    """A greedy answer: the chosen labels, sorted, their `cost` on the system
    solved, and the `greedy_bound` of the red-blue system the greedy ran on."""

    _fields = ("chosen", "cost", "bound")

    def __new__(cls, chosen: tuple, cost: int, bound: float):
        return tuple.__new__(cls, (chosen, cost, bound))


def build_pnpsc(rules: RuleSet, example: DataExample) -> SetSystem:
    """Truth facts become blue and each rule's outputs one set; the rest are red.

    No coverage requirement: truth facts no rule can derive stay uncovered
    and cost one each.  The sets are the memoized evaluation outputs, so
    elements compare as `Fact`s do, by value; they are not deduplicated
    across rules with equal output, so labels and rules stay one to one.
    """
    cache = evaluated(rules, example.premise)
    return SetSystem(blue=example.truth.facts,
                     sets=tuple((r.name, cache.per_rule[r.name]) for r in rules.rules))


def build_rbsc(rules: RuleSet, example: DataExample) -> SetSystem:
    """`build_pnpsc` once every truth fact is shown derivable, so that a
    red-blue cover exists; `InfeasibleError` names the ones that are not."""
    missing = check_fp_feasible(rules, example)
    if missing:
        raise InfeasibleError(missing)
    return build_pnpsc(rules, example)


def pack(system: SetSystem) -> tuple:
    """`(universe, set masks, blue mask)` over one `PackedUniverse` of blue and
    the sets' elements, set masks in set order; every other bit is red."""
    rows = [members for _, members in system.sets]
    universe = PackedUniverse(system.blue.union(*rows))
    return universe, universe.pack_rows(rows), universe.pack(system.blue)


def _skips(system: SetSystem):
    """(label, blue) per skip set, in label order; `ValidationError` when a
    label is already taken, by a set or by another skip."""
    skips = sorted(((f"skip({p})", p) for p in system.blue), key=itemgetter(0))
    labels = {label for label, _ in system.sets}
    for label, p in skips:
        if label in labels:
            raise ValidationError(f"skip label for {p!r} collides with existing ids")
        labels.add(label)
    return skips


def pnpsc_to_rbsc(system: SetSystem) -> SetSystem:
    """The explicit reduction: a skip set {p, marker} per blue p, marker red.

    Covering a blue via its skip set costs exactly one red (the marker),
    matching the cost of leaving it uncovered on the original system; a
    marker that is already an element raises `ValidationError`.
    `solve_pnpsc_approx` keeps these sets implicit; this function stays for
    the oracle tests and the benchmark's trace.
    """
    taken = system.blue | system.red
    sets = []
    for label, p in _skips(system):
        marker = f"skip:{p}"
        if marker in taken:
            raise ValidationError(f"skip marker for {p!r} collides with existing ids")
        sets.append((label, frozenset({p, marker})))
    return SetSystem(blue=system.blue, sets=(*system.sets, *sets))


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


def _greedy_pass(sets, blue, skips):
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
            nr = fresh.bit_count() - nb
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
    return chosen, (covered & ~blue).bit_count() + skipped


def _sweep(labels, masks, blue, skips):
    """Per threshold, take the sets of at most that many reds (non-blue bits),
    cover blue greedily, and keep the best (reds, set count, sorted labels)
    key, or None if no threshold admits a cover.  Skips have one red: from
    threshold 1 on they are eligible and every blue is within reach.
    """
    red_counts = [(mask & ~blue).bit_count() for mask in masks]
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
        chosen, cost = _greedy_pass(eligible, blue, live)
        key = (cost, len(chosen), tuple(sorted(chosen)))
        if best is None or key < best:
            best = key
    return best


def solve_rbsc_greedy(system: SetSystem) -> CoverSelection:
    """Threshold-sweep greedy for red-blue set cover, bound `greedy_bound(sets, blue)`.

    Candidates compare by fewest covered reds, then fewest sets, then
    lexicographic label list.  Fully deterministic and invariant under
    permutations of the set list.  `InfeasibleError` names the blue elements
    that no set holds.
    """
    _, masks, blue = pack(system)
    best = _sweep([label for label, _ in system.sets], masks, blue, ())
    if best is None:  # the last threshold admits every set
        raise InfeasibleError(system.blue.difference(*(members for _, members in system.sets)))
    cost, _, chosen = best
    return CoverSelection(chosen=chosen, cost=cost,
                          bound=greedy_bound(len(system.sets), len(system.blue)))


def solve_pnpsc_approx(system: SetSystem) -> CoverSelection:
    """The red-blue greedy on `pnpsc_to_rbsc(system)` with the skip sets kept
    implicit; skip labels are dropped and the rest recosted by `cost`.  The
    bound is the explicit reduction's, one skip set per blue counted.

    It takes the same steps as on the explicit sets.  While p is uncovered,
    skip set {p, marker} has key (ratio 1, one new blue, label), since its
    marker is a fresh red.  Taking it covers p alone, which never lowers
    another set's key.  So skips that beat a scan's best key, taken lowest
    label first, still beat every set after each other, and only the rule
    sets are ever scanned; a rule taken can lower others' new reds, so a
    rescan follows it.
    """
    labels = [label for label, _ in system.sets]
    universe, masks, blue = pack(system)
    skips = [(label, 1 << universe.index[p]) for label, p in _skips(system)]
    _, _, chosen = _sweep(labels, masks, blue, skips)
    original = set(labels)
    chosen = tuple(label for label in chosen if label in original)
    return CoverSelection(chosen=chosen, cost=system.cost(chosen),
                          bound=greedy_bound(len(labels) + len(skips), len(system.blue)))


def greedy_bound(n_sets: int, n_blue: int) -> float:
    """Approximation factor the greedy is held to empirically on a red-blue
    system of `n_sets` sets and `n_blue` blue elements; at least 1, which a
    set-free system would otherwise fall below.  For the FP+FN objective the
    system is `pnpsc_to_rbsc`'s, so `n_sets` counts the rule sets plus one
    skip set per blue, which `solve_pnpsc_approx` keeps implicit."""
    return max(1.0, 2.0 * math.sqrt(n_sets * max(1.0, math.log2(max(1, n_blue)))))
