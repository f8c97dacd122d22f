import pytest
from hypothesis import HealthCheck, settings

from ruleselect import DataExample, parse_facts, parse_rules

# Some examples enumerate thousands of subsets; no per-example deadline.
settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

F1_RULES = """\
rule r1: Set1(x) -> B(x).
rule r2: Set2(x) -> B(x).
rule r3: Set3(x) -> B(x).
"""

F1_PREMISE = """\
Set1("u1")
Set1("u2")
Set1("a1")
Set2("u2")
Set2("u3")
Set2("a2")
Set3("u3")
Set3("a3")
"""

F1_TRUTH = """\
B("u1")
B("u2")
B("u3")
"""


@pytest.fixture(scope="session")
def f1():
    rules = parse_rules(F1_RULES)
    example = DataExample(premise=parse_facts(F1_PREMISE, schema=rules.premise_schema),
                          truth=parse_facts(F1_TRUTH, schema=rules.conclusion_schema))
    return rules, example


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Import numpy, its kernel and the exact solvers once, outside any timed
    example. Small instances enumerate in pure Python, so the kernel is
    warmed on its own."""
    import numpy as np

    from ruleselect import ExactConfig, _kernels, pareto_front, solve_exact
    from ruleselect.generators import GenSeed, gen_random_ruleselect

    rules, example = gen_random_ruleselect(GenSeed(seed=1, n_universe=3, n_sets=2))
    solve_exact(rules, example, ExactConfig(objective="fpfn"))
    pareto_front(rules, example)
    _kernels.size_profile_masks(np.zeros((1, 1), dtype=np.uint64), np.ones(1, dtype=np.int64),
                                np.zeros(1, dtype=np.uint64))
    yield
