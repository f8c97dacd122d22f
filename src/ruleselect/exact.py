"""Exact optimization by exhaustive subset enumeration.

All procedures here are exponential-time oracles over at most `max_rules`
rules: per-rule outputs are bit vectors over the fact universe
Eval(all rules, I) union J, and one kernel tabulates the least error and its
lowest subset mask per selection size.  Witnesses are canonical: the first
optimal subset with rule i (declaration order) at bit i, subsets ordered by
ascending mask.

In FP mode (zero false negatives) a rule that alone derives some truth fact
is in every feasible selection, as a blue element that one set alone covers
forces that set in red-blue set cover (Carr et al., SODA 2000).  These rules
are fixed before enumerating: the kernel sees only the free rules, over the
facts outside the forced rules' outputs, and every answer adds back the
forced rules, their size and their false positives.  The witness stays
canonical, because every feasible mask holds the forced bits and the free
rules keep their relative order.  So in FP mode `max_rules` and the kernel's
limits count the free rules, and the cap is checked after evaluation; FPFN
mode forces nothing and refuses on the declared rule count before evaluating.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._bitset import PackedUniverse
from .evaluation import check_fp_feasible, evaluated
from .model import (
    CapacityError,
    DataExample,
    InfeasibleError,
    ParetoPoint,
    RuleSet,
    Selection,
    ValidationError,
    rule_size,
)

OBJECTIVES = ("fp", "fpfn")


@dataclass(frozen=True)
class ExactConfig:
    max_rules: int = 24
    objective: str = "fpfn"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}")
        if self.max_rules < 1:
            raise ValidationError("max_rules must be positive")


def _check_cap(n: int, config: ExactConfig, what: str = "rules"):
    if n > config.max_rules:
        raise CapacityError(
            f"{n} {what} exceed the enumeration cap of {config.max_rules}")
    if n > _kernels.MAX_RULES:
        raise CapacityError(
            f"{n} {what} exceed the {_kernels.MAX_RULES}-rule limit of subset masks")


def _forced(rows: list, j: int) -> set:
    """Indices of the rules that alone derive some truth fact in `j`."""
    once = twice = 0
    for row in rows:
        twice |= once & row
        once |= row
    sole = once & ~twice & j
    return {i for i, row in enumerate(rows) if row & sole}


def _prepare(rules: RuleSet, example: DataExample, config: ExactConfig):
    """Kernel input, and what to add back to each of its answers.

    Returns `(rule_masks, j_mask, free, forced, extra_error)`.  The kernel
    enumerates the `free` rules over facts outside the forced rules' outputs;
    every answer also selects the `forced` rules, whose false positives
    `extra_error` counts.  Only FP mode forces rules.
    """
    fp = config.objective == "fp"
    if not fp:  # the cap counts every rule: refuse before evaluating
        _check_cap(len(rules), config)
    cache = evaluated(rules, example.premise)
    universe = PackedUniverse(cache.union | example.truth.facts)
    rows = universe.pack_rows([cache.per_rule[r.name] for r in rules.rules])
    j = universe.pack(example.truth.facts)
    forced = _forced(rows, j) if fp else set()
    free = [i for i in range(len(rows)) if i not in forced]
    if fp:
        _check_cap(len(free), config, f"free rules (of {len(rules)})")
        missing = check_fp_feasible(rules, example)
        if missing:
            raise InfeasibleError(missing)
    u_f = 0
    for i in forced:
        u_f |= rows[i]
    rule_masks = _kernels.as_words([rows[i] & ~u_f for i in free], universe.n_words)
    j_mask = _kernels.as_words([j & ~u_f], universe.n_words)[0]
    return (rule_masks, j_mask, [rules.rules[i] for i in free],
            [rules.rules[i] for i in forced], (u_f & ~j).bit_count())


def _selection(free: list, forced: list, mask: int) -> Selection:
    """The forced rules plus the free rules at the set bits of a kernel mask."""
    return frozenset([r.name for r in forced]
                     + [r.name for i, r in enumerate(free) if mask >> i & 1])


def solve_exact(rules: RuleSet, example: DataExample,
                config: Optional[ExactConfig] = None) -> tuple:
    """Optimum error and its canonical witness selection."""
    config = config or ExactConfig()
    rule_masks, j_mask, free, forced, extra = _prepare(rules, example, config)
    err, mask = _kernels.solve_exact_masks(
        rule_masks, j_mask, fp_only=config.objective == "fp")
    if mask < 0:
        raise InfeasibleError(frozenset())  # unreachable given the precondition
    return err + extra, _selection(free, forced, mask)


def pareto_front(rules: RuleSet, example: DataExample,
                 config: Optional[ExactConfig] = None) -> tuple:
    """All non-dominated (error, size) pairs, as `ParetoPoint`s by ascending
    error, with one canonical witness each.

    Size is the sum of premise-atom counts over the chosen rules.  In "fp"
    mode only zero-FN selections compete.
    """
    config = config or ExactConfig()
    rule_masks, j_mask, free, forced, extra = _prepare(rules, example, config)
    sizes = np.array([rule_size(r) for r in free], dtype=np.int64)
    best_err, witness = _kernels.size_profile_masks(
        rule_masks, sizes, j_mask, fp_only=config.objective == "fp")
    forced_size = sum(rule_size(r) for r in forced)
    points = []
    best_so_far = None
    for s in range(len(best_err)):  # ascending size; keep strict error improvements
        e = int(best_err[s])
        if e < 0:
            continue
        if best_so_far is None or e < best_so_far:
            best_so_far = e
            points.append(ParetoPoint(
                error=e + extra, size=s + forced_size,
                witness=_selection(free, forced, int(witness[s]))))
    points.sort(key=lambda p: p.error)
    return tuple(points)


def pareto_membership(rules: RuleSet, example: DataExample, error: int, size: int,
                      config: Optional[ExactConfig] = None) -> bool:
    """Is (error, size) a point of the Pareto front?"""
    front = pareto_front(rules, example, config)
    return any(p.error == error and p.size == size for p in front)


def bilevel_optimum(rules: RuleSet, example: DataExample,
                    config: Optional[ExactConfig] = None) -> ParetoPoint:
    """Minimize error first, then size: the front point of least error."""
    # ascending error; front errors are pairwise distinct
    return pareto_front(rules, example, config)[0]
