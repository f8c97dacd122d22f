"""Rule selection engine: pick subsets of Horn rules minimizing FP/FN error.

The package evaluates candidate rules against a premise/truth data example,
reduces selection to red-blue or positive-negative set covering for greedy
approximation, and provides exhaustive exact solvers, Pareto-front
enumeration, and bi-level (error, then size) optimization.
"""
from .covering import (
    CoverSelection,
    PnpscInstance,
    RbscInstance,
    build_pnpsc,
    build_rbsc,
    greedy_fp_bound,
    greedy_fpfn_bound,
    pnpsc_to_rbsc,
    solve_pnpsc_approx,
    solve_rbsc_greedy,
)
from .evaluation import (
    EvalCache,
    check_fp_feasible,
    compute_errors,
    eval_rule,
    eval_ruleset,
    evaluated,
    jaccard,
)
from .generators import (
    GenSeed,
    SetCoverInstance,
    gen_random_ruleselect,
    gen_random_setcover,
    rules_from_set_cover,
    rules_from_set_cover_clones,
    rules_from_set_cover_indexed,
)
from .model import (
    BuiltinAtom,
    CapacityError,
    CoverageError,
    DataExample,
    ErrorReport,
    EvalLimits,
    EvaluationError,
    Fact,
    InfeasibleError,
    Instance,
    ParetoPoint,
    RelationalAtom,
    Rule,
    RuleSet,
    Term,
    ValidationError,
    Value,
    const,
    fact,
    rule_size,
    ruleset_size,
    validate,
    var,
)
from .parser import (
    ParseError,
    parse_facts,
    parse_rules,
    write_facts,
    write_rules,
)

__version__ = "0.1.0"

# The exact solvers need numpy, whose import costs more than a whole greedy
# or evaluation call; their names load on first use.
_EXACT_NAMES = frozenset({
    "BilevelResult",
    "ExactConfig",
    "FrontResult",
    "bilevel_optimum",
    "decision_bound",
    "decision_exact_value",
    "is_bilevel_optimal",
    "is_pareto_optimal",
    "pareto_front",
    "pareto_membership",
    "solve_exact",
})


def __getattr__(name):
    if name in _EXACT_NAMES:
        from . import exact
        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
