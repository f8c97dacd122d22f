import copy
import pickle
import re
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from ruleselect import (
    BuiltinAtom,
    CoverSelection,
    DataExample,
    ErrorReport,
    EvalLimits,
    ExactConfig,
    Fact,
    Instance,
    ParetoPoint,
    RelationalAtom,
    Rule,
    RuleSet,
    SetSystem,
    Term,
    ValidationError,
    const,
    eval_rule,
    evaluated,
    fact,
    parse_facts,
    parse_rules,
    rule_size,
    ruleset_size,
    validate,
    var,
)
from ruleselect.generators import GenSeed, SetCoverInstance
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
    for f in (one, one_decimal, text, checked_fact("R", (1,))):
        assert type(f) is Fact and hash(f) == hash((f.relation, f.args))
        copies = [copy.copy(f), copy.deepcopy(f)]
        copies += [pickle.loads(pickle.dumps(f, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in copies:
            assert type(again) is Fact and again == f and again.args == f.args


@pytest.mark.parametrize("name", ["relation", "args", "_hash", "other"])
def test_fact_is_immutable(name):
    f = fact("R", 1)
    assert not hasattr(f, "__dict__")
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
    # argument tuples; of the numerically equal 1 and 1.0 the first one stays
    assert sorted(map(repr, inst.bucket("B"))) == ["('1',)", "(1,)"]
    assert inst.bucket("C") == () and inst.bucket("D") == ()
    with pytest.raises(ValidationError, match="undeclared relation D"):
        Instance({"B": 1}, [fact("B", 1), fact("D", 1)])


def test_instance_keeps_its_facts_and_counts_its_rows():
    facts = frozenset([fact("B", 1), fact("B", "u"), fact("C", 2, 3)])
    inst = Instance({"B": 1, "C": 2}, facts)
    assert inst.facts is facts and len(inst) == 3  # built from facts: no second set
    rows = Instance.from_rows({"B": 1, "C": 2}, {"B": [(Decimal("1.0"),), ("u",), (1,)],
                                                 "C": [(2, 3), (2, 3)]})
    assert len(rows) == 3 and rows.bucket("B") == ((Decimal("1.0"),), ("u",))
    assert rows == inst and hash(rows) == hash(inst)
    assert sorted(map(repr, rows.facts)) == sorted(map(repr, [
        fact("B", Decimal("1.0")), fact("B", "u"), fact("C", 2, 3)]))
    assert rows.facts is rows.facts  # built once, on first read
    with pytest.raises(ValidationError, match=r"^fact C/1 does not match declared arity 2$"):
        Instance.from_rows({"C": 2}, {"C": [(2, 3), (4,)]})
    with pytest.raises(ValidationError, match=r"^relation B has arity 0 < 1$"):
        Instance({"B": 0}, ())


def test_an_instance_pickles_without_its_memo():
    rules = parse_rules("rule r1: S(x) -> B(x).\nrule r2: S(x), T(x, y) -> B(y).")
    text = 'S(1)\nS("a")\nT(1, 2)\nT("a", 2.5)\nT(1, "b")\n'
    used = parse_facts(text, schema=rules.premise_schema)
    per_rule = evaluated(rules, used).per_rule
    assert used.lookup("T", (0,)) and used.facts  # the memo holds all three kinds
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        fresh = parse_facts(text, schema=rules.premise_schema)
        assert pickle.dumps(used, protocol) == pickle.dumps(fresh, protocol)
        loaded = pickle.loads(pickle.dumps(used, protocol))
        assert loaded == used and evaluated(rules, loaded).per_rule == per_rule


_RECORDS = [
    lambda: Term(var="x"),
    lambda: Term(None, 5),
    lambda: RelationalAtom("S", (var("x"),)),
    lambda: BuiltinAtom("jaccard_geq", (var("x"), const("a b")), Decimal("0.5")),
    lambda: Rule("r", (RelationalAtom("S", (var("x"),)),), RelationalAtom("B", (var("x"),))),
    lambda: DataExample(parse_facts("S(1)"), Instance.empty({"B": 1})),
    lambda: ErrorReport(fp=frozenset({fact("B", 1)}), fn=frozenset()),
    lambda: EvalLimits(2, max_conclusion_arity=3),
    lambda: ParetoPoint(error=1, size=2),
    lambda: ParetoPoint(1, 2, frozenset({"r"})),
    lambda: ExactConfig(),
    lambda: ExactConfig(5, objective="fp"),
    lambda: SetSystem(blue=frozenset({"b"}), sets=(("s", frozenset({"x", "b"})),)),
    lambda: SetSystem(frozenset({"p"}), ()),
    lambda: CoverSelection(chosen=("s",), cost=1, bound=2.0),
    lambda: SetCoverInstance(("u1", "u2"), (frozenset({"u1", "u2"}),)),
    lambda: GenSeed(1, 3, 2, fp_noise=0.5),
    lambda: fact("B", 1),
]


@pytest.mark.parametrize("make", _RECORDS)
def test_records_are_immutable_values(make):
    record, again = make(), make()
    assert record == again and hash(record) == hash(again) and record is not again
    assert record != "other" and record.__class__.__name__ in repr(record)
    values = tuple(getattr(record, field) for field in record._fields)
    assert tuple(record) == values and record == values
    name = record._fields[0]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = None
    assert pickle.loads(pickle.dumps(record)) == record == copy.copy(record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(record, protocol))
        assert loaded.__class__ is record.__class__ and loaded == record


def test_records_keep_their_defaults_and_checks():
    assert (ExactConfig().max_rules, ExactConfig().objective) == (24, "fpfn")
    assert ParetoPoint(1, 2).witness is None and BuiltinAtom("eq", (var("x"), var("y"))).threshold is None
    assert (GenSeed(1, 2, 3).density, GenSeed(1, 2, 3).join_rules) == (0.3, 0)
    assert ParetoPoint(1, 2) != ParetoPoint(1, 3) and Term(var="x") != Term(const="x")
    assert repr(ParetoPoint(1, 2)) == "ParetoPoint(error=1, size=2, witness=None)"
    checks = [
        (lambda: Term(), "term must be exactly one of variable or constant"),
        (lambda: RelationalAtom("S", ()), r"atom S\(\) needs at least one term"),
        (lambda: BuiltinAtom("nope", ()), "unknown builtin 'nope'"),
        (lambda: BuiltinAtom("eq", (var("x"),)), "builtin eq takes 2 terms"),
        (lambda: BuiltinAtom("eq", (var("x"), var("y")), Decimal(1)),
         "builtin eq: bad threshold usage"),
        (lambda: Rule("", (), None), "rule needs a name"),
        (lambda: Rule("r", (), None), "rule r: premise must be non-empty"),
        (lambda: EvalLimits(0, 1), "evaluation limits must be positive"),
        (lambda: ExactConfig(objective="f1"), "objective must be one of"),
        (lambda: ExactConfig(max_rules=0), "max_rules must be positive"),
        (lambda: GenSeed(1, 0, 1), "need at least one universe element and one set"),
        (lambda: SetCoverInstance(("u",), ()), "union of the sets must equal the universe"),
        (lambda: SetSystem(frozenset({"b"}), (("s", frozenset()),) * 2),
         "duplicate set label 's'"),
        (lambda: eval_rule(unsafe, Instance({"S": 1}, ())), "rule r is unsafe: y unbound"),
        (lambda: parse_rules("rule r: S(x) -> B(x).").rule("nope"), "unknown rule name 'nope'"),
        (lambda: GenSeed(1, 2, 3, fn_noise=-0.5), r"noise knobs must be in \[0, 1\]"),
        (lambda: GenSeed(1, 2, 3, fp_noise=1.5), r"noise knobs must be in \[0, 1\]"),
        (lambda: SetCoverInstance(("u", "u"), (frozenset({"u"}),)), "universe ids must be unique"),
        (lambda: Fact("", ()), "fact needs a relation name"),
    ]
    unsafe = Rule("r", (RelationalAtom("S", (var("x"),)),), RelationalAtom("B", (var("y"),)))
    for make, message in checks:
        with pytest.raises(ValidationError, match=f"^{message}"):
            make()
    with pytest.raises(ValidationError, match="^rule r: S has arity 2, atom uses 1$"):
        eval_rule(parse_rules("rule r: S(x) -> B(x).").rules[0], Instance({"S": 2}, ()))


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


@pytest.mark.parametrize("premise_schema, conclusion_schema, message", [
    ({}, {}, "rule r: undeclared premise relation S"),
    ({"S": 1}, {}, "rule r: undeclared conclusion relation B"),
    ({"S": 2}, {"B": 1}, "rule r: S used with arity 1, declared 2"),
    ({"S": 1}, {"B": 3}, "rule r: B used with arity 2, declared 3"),
])
def test_validate_checks_atoms_against_the_schemas(premise_schema, conclusion_schema, message):
    rule = Rule("r", (RelationalAtom("S", (var("x"),)), BuiltinAtom("neq", (var("x"), const(1)))),
                RelationalAtom("B", (var("x"), var("x"))))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        validate(RuleSet([rule], premise_schema, conclusion_schema))


def test_infer_rejects_a_relation_used_with_two_arities():
    x = var("x")
    a = Rule("a", (RelationalAtom("S", (x,)),), RelationalAtom("B", (x,)))
    b = Rule("b", (RelationalAtom("T", (x,)), RelationalAtom("S", (x, x))),
             RelationalAtom("C", (x,)))
    c = Rule("c", (RelationalAtom("T", (x,)),), RelationalAtom("B", (x, x)))
    with pytest.raises(ValidationError, match=r"^relation S used with arities 1 and 2$"):
        RuleSet.infer([a, b])
    with pytest.raises(ValidationError, match=r"^relation B used with arities 1 and 2$"):
        RuleSet.infer([a, c])


def test_ruleset_rejects_duplicate_names_and_overlap():
    rule = Rule("r", (RelationalAtom("S", (var("x"),)),),
                RelationalAtom("B", (var("x"),)))
    with pytest.raises(ValidationError):
        RuleSet.infer([rule, rule])
    loop = Rule("loop", (RelationalAtom("B", (var("x"),)),),
                RelationalAtom("B", (var("x"),)))
    with pytest.raises(ValidationError):
        RuleSet.infer([loop])
