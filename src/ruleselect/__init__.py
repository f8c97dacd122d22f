"""Rule selection engine: pick subsets of Horn rules minimizing FP/FN error.

The package evaluates candidate rules against a premise/truth data example,
reduces selection to red-blue or positive-negative set covering for greedy
approximation, and provides exhaustive exact solvers, Pareto-front
enumeration, and bi-level (error, then size) optimization.
"""
import importlib

__version__ = "0.1.0"

# Every public name loads its module on first use, so a command imports only
# the modules it runs: `import ruleselect` alone loads none of them.  The
# exact names (`solve_exact`, `pareto_front`, ...) load `exact`, which loads
# numpy only to enumerate more than 16 rules.
_EXPORTS = {
    "covering": (
        "CoverSelection", "SetSystem", "build_pnpsc", "build_rbsc",
        "greedy_bound", "pnpsc_to_rbsc", "solve_pnpsc_approx",
        "solve_rbsc_greedy",
    ),
    "evaluation": (
        "check_fp_feasible", "compute_errors", "eval_rule", "eval_ruleset",
        "evaluated", "jaccard",
    ),
    "exact": (
        "ExactConfig", "bilevel_optimum", "pareto_front", "pareto_membership",
        "solve_exact",
    ),
    "generators": (
        "GenSeed", "SetCoverInstance", "gen_random_ruleselect",
        "gen_random_setcover", "rules_from_set_cover",
        "rules_from_set_cover_clones", "rules_from_set_cover_indexed",
    ),
    "model": (
        "BuiltinAtom", "CapacityError", "DataExample", "ErrorReport",
        "EvalLimits", "Fact", "InfeasibleError", "Instance", "ParetoPoint",
        "RelationalAtom", "Rule", "RuleSet", "Term", "ValidationError",
        "const", "fact", "rule_size", "ruleset_size", "validate", "var",
    ),
    "parser": (
        "ParseError", "parse_facts", "parse_rules", "write_facts",
        "write_rules",
    ),
}
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULES)


def __getattr__(name):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
