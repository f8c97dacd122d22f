"""Exact optimization by exhaustive subset enumeration.

All procedures here are exponential-time oracles over at most `max_rules`
rules.  They read the set systems the greedy reads (`covering.build_rbsc` in
FP mode, `build_pnpsc` in FPFN mode) as `covering.pack` packs them: per-rule
outputs are bit vectors over the facts Eval(all rules, I) union J, and one
enumeration tabulates the least error and its lowest subset mask per
selection size.  Up to `PURE_PYTHON_RULES` (16) enumerated rules it runs in
pure Python on the packed ints (`_bitset.subset_profile`); past that the
numpy kernel in `_kernels` runs, and only then is numpy loaded.
Witnesses are canonical: the first optimal subset with rule i (declaration
order) at bit i, subsets ordered by ascending mask.

In FP mode (zero false negatives) a rule that alone derives some truth fact
is in every feasible selection, as a blue element that one set alone covers
forces that set in red-blue set cover (Carr et al., SODA 2000).  These rules
are fixed before enumerating: the kernel sees only the free rules, over the
facts outside the forced rules' outputs, and every answer adds back the
forced rules, their size and their false positives.  The witness stays
canonical, because every feasible mask holds the forced bits and the free
rules keep their relative order.  So in FP mode `max_rules`, the
enumeration limits and `PURE_PYTHON_RULES` count the free rules, and the
cap is checked after evaluation, once infeasibility has been ruled out; FPFN
mode forces nothing and refuses on the declared rule count before evaluating.
"""
from __future__ import annotations

from typing import Optional

from ._bitset import subset_profile
from .covering import build_pnpsc, build_rbsc, pack
from .model import (
    CapacityError,
    DataExample,
    ParetoPoint,
    Record,
    RuleSet,
    ValidationError,
    rule_size,
)

OBJECTIVES = ("fp", "fpfn")
#: Most rules `_profile` enumerates in pure Python.  Timed in fresh processes
#: on a 2-vCPU host against importing numpy plus its kernel, pure Python won
#: at every size tried up to 17 rules: at 16 rules 22 vs 179 ms over 1 fact
#: word and 575 vs 1,054 ms over 500, at about half the kernel's peak memory;
#: at 12 rules 726 vs 1,390 ms over 10,000 words.  It lost from 18 rules x 40
#: words on, as its cost doubles per rule while the kernel's 2^16-subset block
#: stays flat.
PURE_PYTHON_RULES = 16


class ExactConfig(Record):
    _fields = ("max_rules", "objective")

    def __new__(cls, max_rules: int = 24, objective: str = "fpfn"):
        if objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}")
        if max_rules < 1:
            raise ValidationError("max_rules must be positive")
        return tuple.__new__(cls, (max_rules, objective))


def _check_cap(n: int, config: ExactConfig, what: str = "rules"):
    if n > config.max_rules:
        raise CapacityError(
            f"{n} {what} exceed the enumeration cap of {config.max_rules}")


def _forced(rows: list, j: int) -> set:
    """Indices of the rules that alone derive some truth fact in `j`."""
    once = twice = 0
    for row in rows:
        twice |= once & row
        once |= row
    sole = once & ~twice & j
    return {i for i, row in enumerate(rows) if row & sole}


def _profile(rows: list, j: int, n_words: int, fp_only: bool, sizes=None) -> tuple:
    """Per-size least error and lowest witness mask (lists, -1 = none); with
    no sizes, one entry: the least error over all subsets.

    Up to `PURE_PYTHON_RULES` rows enumerate in pure Python; only more load
    numpy.
    """
    if len(rows) <= PURE_PYTHON_RULES:
        return subset_profile(rows, sizes or [0] * len(rows), j, n_words, fp_only)
    try:
        from . import _kernels  # loads numpy
    except ImportError as e:
        raise ImportError(f"enumerating {len(rows)} free rules needs numpy, which did not import "
                          f"({e}); up to {PURE_PYTHON_RULES} free rules run without it",
                          name="numpy") from None

    masks = _kernels.as_words(rows, n_words)
    j_mask = _kernels.as_words([j], n_words)[0]
    if sizes is None:
        err, mask = _kernels.solve_exact_masks(masks, j_mask, fp_only=fp_only)
        return [err], [mask]
    best_err, witness = _kernels.size_profile_masks(masks, sizes, j_mask, fp_only=fp_only)
    return best_err.tolist(), witness.tolist()


def _points(rules: RuleSet, example: DataExample, config: ExactConfig,
            by_size: bool) -> list:
    """Per selection size, by ascending size, the least error and its
    canonical witness as a `ParetoPoint`; with `by_size` false, one point,
    the optimum.

    Builds and packs the set system, fixes the forced rules in FP mode and
    enumerates the free ones through `_profile`.  Each point also selects the
    forced rules, counts their false positives and has its witness's size.
    """
    fp = config.objective == "fp"
    if fp:  # infeasibility is reported ahead of the cap on the free rules
        system = build_rbsc(rules, example)
    else:  # the cap counts every rule: refuse before evaluating
        _check_cap(len(rules), config)
        system = build_pnpsc(rules, example)
    universe, rows, j = pack(system)
    forced = set()
    if fp:
        forced = _forced(rows, j)
        _check_cap(len(rows) - len(forced), config, f"free rules (of {len(rules)})")
    u_f = 0
    for i in forced:
        u_f |= rows[i]
    free = [i for i in range(len(rows)) if i not in forced]
    sizes = [rule_size(r) for r in rules.rules]
    errors, masks = _profile([rows[i] & ~u_f for i in free], j & ~u_f, universe.n_words, fp,
                             [sizes[i] for i in free] if by_size else None)
    extra = (u_f & ~j).bit_count()
    points = []
    for error, mask in zip(errors, masks):
        if mask < 0:
            continue
        chosen = [*forced] + [i for k, i in enumerate(free) if mask >> k & 1]
        points.append(ParetoPoint(error=error + extra, size=sum(sizes[i] for i in chosen),
                                  witness=frozenset(rules.rules[i].name for i in chosen)))
    return points


def solve_exact(rules: RuleSet, example: DataExample,
                config: Optional[ExactConfig] = None) -> tuple:
    """Optimum error and its canonical witness selection."""
    (point,) = _points(rules, example, config or ExactConfig(), by_size=False)
    return point.error, point.witness


def pareto_front(rules: RuleSet, example: DataExample,
                 config: Optional[ExactConfig] = None) -> tuple:
    """All non-dominated (error, size) pairs, as `ParetoPoint`s by ascending
    error, with one canonical witness each.

    Size is the sum of premise-atom counts over the chosen rules.  In "fp"
    mode only zero-FN selections compete.
    """
    front = []
    for point in _points(rules, example, config or ExactConfig(), by_size=True):
        if not front or point.error < front[-1].error:  # ascending size: strict improvements
            front.append(point)
    return tuple(reversed(front))


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
