import pickle
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
from ruleselect.model import checked_fact


def test_fact_equality_is_strict_across_kinds():
    assert fact("R", "1") != fact("R", 1)
    assert fact("R", 1) == fact("R", Decimal("1.0"))
    assert hash(fact("R", 1)) == hash(fact("R", Decimal("1")))


def test_fact_stored_hash_keeps_value_equality():
    one, one_decimal, text = Fact("R", (1,)), Fact("R", (Decimal("1.0"),)), Fact("R", ("1",))
    assert one == one_decimal and hash(one) == hash(one_decimal)
    assert len(frozenset([one, one_decimal])) == 1
    assert text != one and text != one_decimal
    assert len(frozenset([one, one_decimal, text])) == 2
    assert Fact("S", (1,)) != one
    assert checked_fact("R", (1,)) == one and hash(checked_fact("R", (1,))) == hash(one)
    assert (repr(one_decimal), str(one_decimal)) == (
        "Fact(relation='R', args=(Decimal('1.0'),))", "R(1.0)")
    assert pickle.loads(pickle.dumps(one_decimal)) == one_decimal


@pytest.mark.parametrize("name", ["relation", "args", "_hash", "other"])
def test_fact_is_immutable(name):
    f = fact("R", 1)
    with pytest.raises(AttributeError):
        setattr(f, name, 2)
    with pytest.raises(AttributeError):
        delattr(f, name)
    assert (f.relation, f.args, hash(f)) == ("R", (1,), hash(fact("R", 1)))


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


@pytest.mark.parametrize("args", [["a"], "a", None])
def test_fact_args_must_be_a_tuple(args):
    # a list would pass here and then fail to hash inside Instance
    with pytest.raises(ValidationError):
        Fact("R", args)


def test_term_constant_is_the_plain_value():
    assert Term(const=5) == const(5)
    assert Term(const="u") == const("u")


def test_fact_set_semantics():
    inst = Instance({"B": 1}, [fact("B", "u1"), fact("B", "u1"), fact("B", "u2")])
    assert len(inst) == 2


def test_instance_rejects_arity_mismatch():
    with pytest.raises(ValidationError):
        Instance({"B": 2}, [fact("B", "u1")])


def test_instance_buckets_hold_each_fact_once():
    inst = Instance({"B": 1, "C": 1},
                    [fact("B", 1), fact("B", Decimal("1.0")), fact("B", "1"), fact("B", 1)])
    assert sorted(map(str, inst.bucket("B"))) == ['B("1")', "B(1)"]
    assert inst.bucket("C") == () and inst.bucket("D") == ()
    with pytest.raises(ValidationError, match="undeclared relation D"):
        Instance({"B": 1}, [fact("B", 1), fact("D", 1)])


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
    validate(rules, EvalLimits(1, 1))


def test_validate_reports_both_limits_of_a_wide_rule():
    wide = parse_rules('rule w: E(x,z), E(z,y) -> F(x,y).')
    with pytest.raises(ValidationError, match=r"^rule w: premise has 2 atoms, limit 1$"):
        validate(wide, EvalLimits(1, 1))
    with pytest.raises(ValidationError,
                       match=r"^rule w: conclusion arity 2 exceeds limit 1$"):
        validate(wide, EvalLimits(2, 1))
    validate(wide, EvalLimits(2, 2))


def test_validate_rejects_unsafe_rule():
    rule = Rule("bad", (RelationalAtom("S", (var("x"),)),),
                RelationalAtom("B", (var("y"),)))
    with pytest.raises(ValidationError, match=r"^rule bad: unsafe: y unbound$"):
        validate(RuleSet.infer([rule]))


def test_validate_rejects_conclusion_arity_over_limit():
    rules = parse_rules('rule r1: Set1(x) -> B(x, x).')
    with pytest.raises(ValidationError, match=r"^rule r1: conclusion arity 2 exceeds limit 1$"):
        validate(rules, EvalLimits(1, 1))


def test_validate_order_insensitive():
    # Built via the model layer: parse_rules would reject the unsafe rule outright.
    rule_a = Rule("a", (RelationalAtom("S", (var("x"),)),),
                  RelationalAtom("B", (var("y"),)))
    rule_b = Rule("b", (RelationalAtom("T", (var("x"), var("q"))),),
                  RelationalAtom("C", (var("x"),)))
    for order in ([rule_a, rule_b], [rule_b, rule_a]):
        with pytest.raises(ValidationError, match=r"^rule a: unsafe: y unbound$"):
            validate(RuleSet.infer(order))
    validate(RuleSet.infer([rule_b]))


def test_ruleset_rejects_duplicate_names_and_overlap():
    rule = Rule("r", (RelationalAtom("S", (var("x"),)),),
                RelationalAtom("B", (var("x"),)))
    with pytest.raises(ValidationError):
        RuleSet.infer([rule, rule])
    loop = Rule("loop", (RelationalAtom("B", (var("x"),)),),
                RelationalAtom("B", (var("x"),)))
    with pytest.raises(ValidationError):
        RuleSet.infer([loop])
