from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from ruleselect import (
    EvalLimits,
    Fact,
    Instance,
    RelationalAtom,
    Rule,
    RuleSet,
    Term,
    ValidationError,
    const,
    fact,
    parse_rules,
    rule_size,
    ruleset_size,
    validate,
    var,
)


def test_fact_equality_is_strict_across_kinds():
    assert fact("R", "1") != fact("R", 1)
    assert fact("R", 1) == fact("R", Decimal("1.0"))
    assert hash(fact("R", 1)) == hash(fact("R", Decimal("1")))


def test_fact_ordering_numbers_before_texts():
    facts = [fact("R", "a"), fact("R", 2), fact("R", "1"), fact("R", Decimal("1.5"))]
    ordered = sorted(facts, key=Fact.sort_key)
    assert [f.args[0] for f in ordered] == [Decimal("1.5"), 2, "1", "a"]


def test_fact_rejects_floats_and_huge_ints():
    with pytest.raises(ValidationError):
        fact("R", 1.5)
    with pytest.raises(ValidationError):
        fact("R", 2**63)


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "sNaN"])
def test_non_finite_decimals_are_rejected(text):
    with pytest.raises(ValidationError):
        fact("R", Decimal(text))
    with pytest.raises(ValidationError):
        const(Decimal(text))


@pytest.mark.parametrize("bad", [True, 1.5, 2**63, b"u"])
def test_term_constants_are_checked(bad):
    with pytest.raises(ValidationError):
        Term(const=bad)


def test_term_constant_is_the_plain_value():
    assert Term(const=5) == const(5)
    assert Term(const="u") == const("u")


def test_fact_set_semantics():
    inst = Instance({"B": 1}, [fact("B", "u1"), fact("B", "u1"), fact("B", "u2")])
    assert len(inst) == 2


def test_instance_rejects_arity_mismatch():
    with pytest.raises(ValidationError):
        Instance({"B": 2}, [fact("B", "u1")])


def test_rule_size_single_atom():
    rules = parse_rules('rule r1: Set1(x) -> B(x).')
    assert rule_size(rules.rule("r1")) == 1


def test_rule_size_path_rule():
    rules = parse_rules('rule p: E(x,z), E(z,y) -> F(x,y).')
    assert rule_size(rules.rule("p")) == 2


def test_rule_size_counts_builtins():
    rules = parse_rules('rule m: A(x,u), A(y,v), jaccard_geq(u,v,0.5) -> L(x,y).')
    assert rule_size(rules.rule("m")) == 3


def test_ruleset_size(f1):
    rules, _ = f1
    assert ruleset_size(frozenset(), rules) == 0
    assert ruleset_size({"r1"}, rules) == 1
    assert ruleset_size({"r1", "r2", "r3"}, rules) == 3


def test_ruleset_size_unknown_name(f1):
    rules, _ = f1
    with pytest.raises(ValidationError):
        ruleset_size({"nope"}, rules)


@given(st.lists(st.sampled_from(["r1", "r2", "r3"]), unique=True),
       st.lists(st.sampled_from(["r1", "r2", "r3"]), unique=True))
def test_ruleset_size_monotone(a, b):
    rules = parse_rules('rule r1: S(x) -> B(x).\n'
                        'rule r2: S(x), T(x) -> B(x).\n'
                        'rule r3: S(x), T(x), U(x) -> B(x).\n')
    small, large = frozenset(a), frozenset(a) | frozenset(b)
    assert ruleset_size(small, rules) <= ruleset_size(large, rules)


def test_validate_accepts_f1_within_limits(f1):
    rules, _ = f1
    assert validate(rules, EvalLimits(1, 1)).ok


def test_validate_reports_both_limits_of_a_wide_rule():
    wide = parse_rules('rule w: E(x,z), E(z,y) -> F(x,y).')
    report = validate(wide, EvalLimits(1, 1))
    assert [(v.rule, v.reason) for v in report.violations] == [
        ("w", "premise has 2 atoms, limit 1"),
        ("w", "conclusion arity 2 exceeds limit 1"),
    ]
    assert validate(wide, EvalLimits(2, 2)).ok


def test_validate_rejects_unsafe_rule():
    rule = Rule("bad", (RelationalAtom("S", (var("x"),)),),
                RelationalAtom("B", (var("y"),)))
    rs = RuleSet.infer([rule])
    report = validate(rs)
    assert not report.ok
    assert any(v.rule == "bad" and "y" in v.reason for v in report.violations)


def test_validate_rejects_conclusion_arity_over_limit():
    rules = parse_rules('rule r1: Set1(x) -> B(x, x).')
    report = validate(rules, EvalLimits(1, 1))
    assert not report.ok
    assert any("arity 2" in v.reason for v in report.violations)


def test_validate_order_insensitive():
    # Built via the model layer: parse_rules would reject the unsafe rule outright.
    rule_a = Rule("a", (RelationalAtom("S", (var("x"),)),),
                  RelationalAtom("B", (var("y"),)))
    rule_b = Rule("b", (RelationalAtom("T", (var("x"), var("q"))),),
                  RelationalAtom("C", (var("x"),)))
    r1 = validate(RuleSet.infer([rule_a, rule_b]))
    r2 = validate(RuleSet.infer([rule_b, rule_a]))
    assert set(r1.violations) == set(r2.violations)
    assert not r1.ok


def test_ruleset_rejects_duplicate_names_and_overlap():
    rule = Rule("r", (RelationalAtom("S", (var("x"),)),),
                RelationalAtom("B", (var("x"),)))
    with pytest.raises(ValidationError):
        RuleSet.infer([rule, rule])
    loop = Rule("loop", (RelationalAtom("B", (var("x"),)),),
                RelationalAtom("B", (var("x"),)))
    with pytest.raises(ValidationError):
        RuleSet.infer([loop])
