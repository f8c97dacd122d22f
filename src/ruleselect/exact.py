"""Exact optimization and decision procedures by exhaustive subset enumeration.

All procedures here are exponential-time oracles over at most `max_rules`
rules: per-rule outputs are bit vectors over the fact universe
Eval(all rules, I) union J, and one kernel tabulates the least error and its
lowest subset mask per selection size.  Witnesses are canonical: the first
optimal subset with rule i (declaration order) at bit i, subsets ordered by
ascending mask.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._bitset import PackedUniverse
from .evaluation import check_fp_feasible, compute_errors, evaluated
from .model import (
    CapacityError,
    DataExample,
    InfeasibleError,
    ParetoPoint,
    RuleSet,
    Selection,
    ValidationError,
    check_selection,
    rule_size,
    ruleset_size,
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


@dataclass(frozen=True)
class FrontResult:
    """Pareto-optimal (error, size) points, sorted by ascending error."""

    points: tuple


@dataclass(frozen=True)
class BilevelResult:
    """Minimum error, then minimum size among minimum-error selections."""

    error: int
    size: int
    witness: Selection


def _prepare(rules: RuleSet, example: DataExample, config: ExactConfig):
    if len(rules) > config.max_rules:
        raise CapacityError(
            f"{len(rules)} rules exceed the enumeration cap of {config.max_rules}")
    if len(rules) > _kernels.MAX_RULES:
        raise CapacityError(
            f"{len(rules)} rules exceed the {_kernels.MAX_RULES}-rule limit of subset masks")
    if config.objective == "fp":
        feas = check_fp_feasible(rules, example)
        if not feas.ok:
            raise InfeasibleError(feas.missing)
    cache = evaluated(rules, example.premise)
    universe = PackedUniverse(cache.union | example.truth.facts)
    rows = universe.pack_rows([cache.per_rule[r.name] for r in rules.rules])
    rule_masks = _kernels.as_words(rows, universe.n_words)
    j_mask = _kernels.as_words([universe.pack(example.truth.facts)], universe.n_words)[0]
    return rule_masks, j_mask


def _mask_to_selection(rules: RuleSet, mask: int) -> Selection:
    return frozenset(r.name for i, r in enumerate(rules.rules) if mask >> i & 1)


def solve_exact(rules: RuleSet, example: DataExample,
                config: Optional[ExactConfig] = None) -> tuple:
    """Optimum error and its canonical witness selection."""
    config = config or ExactConfig()
    rule_masks, j_mask = _prepare(rules, example, config)
    err, mask = _kernels.solve_exact_masks(
        rule_masks, j_mask, fp_only=config.objective == "fp")
    if mask < 0:
        raise InfeasibleError(frozenset())  # unreachable given the precondition
    return err, _mask_to_selection(rules, mask)


def decision_bound(rules: RuleSet, example: DataExample, k: int, objective: str,
                   config: Optional[ExactConfig] = None) -> bool:
    """Is there a selection with error at most k?"""
    config = _with_objective(config, objective)
    err, _ = solve_exact(rules, example, config)
    return err <= k


def decision_exact_value(rules: RuleSet, example: DataExample, k: int, objective: str,
                         config: Optional[ExactConfig] = None) -> bool:
    """Is the optimum error exactly k?"""
    config = _with_objective(config, objective)
    err, _ = solve_exact(rules, example, config)
    return err == k


def _with_objective(config: Optional[ExactConfig], objective: str) -> ExactConfig:
    base = config or ExactConfig()
    return ExactConfig(max_rules=base.max_rules, objective=objective)


def _size_profile(rules: RuleSet, example: DataExample, config: ExactConfig):
    rule_masks, j_mask = _prepare(rules, example, config)
    sizes = np.array([rule_size(r) for r in rules.rules], dtype=np.int64)
    return _kernels.size_profile_masks(
        rule_masks, sizes, j_mask, fp_only=config.objective == "fp")


def pareto_front(rules: RuleSet, example: DataExample,
                 config: Optional[ExactConfig] = None) -> FrontResult:
    """All non-dominated (error, size) pairs with one canonical witness each.

    Size is the sum of premise-atom counts over the chosen rules.  In "fp"
    mode only zero-FN selections compete.
    """
    config = config or ExactConfig()
    best_err, witness = _size_profile(rules, example, config)
    points = []
    best_so_far = None
    for s in range(len(best_err)):  # ascending size; keep strict error improvements
        e = int(best_err[s])
        if e < 0:
            continue
        if best_so_far is None or e < best_so_far:
            best_so_far = e
            points.append(ParetoPoint(
                error=e, size=s,
                witness=_mask_to_selection(rules, int(witness[s]))))
    points.sort(key=lambda p: p.error)
    return FrontResult(points=tuple(points))


def _candidate_point(rules: RuleSet, example: DataExample, candidate,
                     config: Optional[ExactConfig]):
    """The candidate's (error, size), or None when FP mode rules it out (FN > 0)."""
    sel = check_selection(rules, candidate)
    report = compute_errors(rules, sel, example)
    if (config or ExactConfig()).objective == "fp":
        if report.fn_count != 0:
            return None
        err = report.fp_count
    else:
        err = report.total
    return err, ruleset_size(sel, rules)


def is_pareto_optimal(rules: RuleSet, example: DataExample, candidate,
                      config: Optional[ExactConfig] = None) -> bool:
    """Is the candidate selection strictly dominated by no other selection?"""
    point = _candidate_point(rules, example, candidate, config)
    return point is not None and pareto_membership(rules, example, *point, config)


def pareto_membership(rules: RuleSet, example: DataExample, error: int, size: int,
                      config: Optional[ExactConfig] = None) -> bool:
    """Is (error, size) a point of the Pareto front?"""
    front = pareto_front(rules, example, config)
    return any(p.error == error and p.size == size for p in front.points)


def bilevel_optimum(rules: RuleSet, example: DataExample,
                    config: Optional[ExactConfig] = None) -> BilevelResult:
    """Minimize error first, then size; the result is always a front point."""
    front = pareto_front(rules, example, config)
    best = front.points[0]  # ascending error; front errors are pairwise distinct
    return BilevelResult(error=best.error, size=best.size, witness=best.witness)


def is_bilevel_optimal(rules: RuleSet, example: DataExample, candidate,
                       config: Optional[ExactConfig] = None) -> bool:
    """Does the candidate attain the bi-level optimal (error, size) pair?"""
    point = _candidate_point(rules, example, candidate, config)
    if point is None:
        return False
    opt = bilevel_optimum(rules, example, config)
    return point == (opt.error, opt.size)
