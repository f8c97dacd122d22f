from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ruleselect import (
    DataExample,
    Instance,
    RelationalAtom,
    Rule,
    RuleSet,
    Term,
    ValidationError,
    build_pnpsc,
    build_rbsc,
    check_fp_feasible,
    compute_errors,
    const,
    eval_rule,
    eval_ruleset,
    evaluated,
    fact,
    jaccard,
    parse_facts,
    parse_rules,
    var,
    write_facts,
)
from ruleselect.generators import GenSeed, gen_random_ruleselect

from conftest import F1_PREMISE, F1_RULES, F1_TRUTH
from oracles import naive_eval_rule


def names(facts):
    return sorted(f.args[0] for f in facts)


def test_eval_rule_f1(f1):
    rules, example = f1
    out = eval_rule(rules.rule("r1"), example.premise)
    assert names(out) == ["a1", "u1", "u2"]


def test_eval_rule_path_join():
    rules = parse_rules('rule p: E(x,z), E(z,y) -> F(x,y).')
    premise = parse_facts('E(1, 2)\nE(2, 3)')
    out = eval_rule(rules.rule("p"), premise)
    assert out == frozenset({fact("F", 1, 3)})


def test_join_that_empties_before_the_head_is_bound():
    # Q is the smallest relation, so it binds y first; no R(_, 5) leaves no
    # binding before x, the head's variable, is bound.
    (rule,) = parse_rules("rule o: Q(y), R(x, y), P(x) -> Out(x).").rules
    schema = {"P": 1, "Q": 1, "R": 2}
    premise = parse_facts("Q(5)\nP(1)\nP(2)\nR(1, 2)\nR(2, 3)", schema=schema)
    assert eval_rule(rule, premise) == frozenset() == naive_eval_rule(rule, premise)
    premise = parse_facts("Q(5)\nP(1)\nP(2)\nR(1, 5)\nR(2, 3)", schema=schema)
    assert eval_rule(rule, premise) == {fact("Out", 1)} == naive_eval_rule(rule, premise)


def test_eval_rule_empty_premise(f1):
    rules, _ = f1
    empty = Instance({"Set1": 1, "Set2": 1, "Set3": 1}, ())
    assert eval_rule(rules.rule("r1"), empty) == frozenset()


def test_eval_rule_unknown_relation(f1):
    rules, _ = f1
    with pytest.raises(ValidationError):
        eval_rule(rules.rule("r1"), Instance({"Other": 1}, ()))


@pytest.mark.parametrize("text, facts, matches", [
    # a scan joins each binding with the whole relation: 3 x 3
    ("rule x: P(a, k), P(b, j) -> Q(a, b).", "P(1, 0)\nP(2, 0)\nP(3, 1)", 9),
    # an indexed step joins each binding with its bucket on k: 2 + 2 + 1
    ("rule y: P(a, k), P(b, k) -> Q(a, b).", "P(1, 0)\nP(2, 0)\nP(3, 1)", 5),
])
def test_join_limit_counts_the_matches_a_step_builds(monkeypatch, text, facts, matches):
    from ruleselect import CapacityError, evaluation

    (rule,) = parse_rules(text).rules
    premise = parse_facts(facts, schema={"P": 2})
    monkeypatch.setattr(evaluation, "MAX_JOIN_MATCHES", matches)
    assert eval_rule(rule, premise) == naive_eval_rule(rule, premise)
    monkeypatch.setattr(evaluation, "MAX_JOIN_MATCHES", matches - 1)
    with pytest.raises(CapacityError, match=f"^rule {rule.name}: joining P makes {matches} "
                                            f"matches, above the limit of {matches - 1}$"):
        eval_rule(rule, premise)


def test_eval_ruleset_unions(f1):
    rules, example = f1
    out = eval_ruleset(rules, {"r1", "r2"}, example.premise)
    assert names(out) == ["a1", "a2", "u1", "u2", "u3"]
    assert eval_ruleset(rules, frozenset(), example.premise) == frozenset()
    assert len(eval_ruleset(rules, {"r1", "r2", "r3"}, example.premise)) == 6


def test_evaluation_is_memoized_per_premise(monkeypatch):
    # A fresh parse, so no earlier test has evaluated on this premise yet.
    from ruleselect import evaluation, exact

    rules = parse_rules(F1_RULES)
    example = DataExample(parse_facts(F1_PREMISE, schema=rules.premise_schema),
                          parse_facts(F1_TRUTH, schema=rules.conclusion_schema))
    calls = []
    real_eval_rule = evaluation.eval_rule

    def counting_eval_rule(rule, premise, *interned):
        calls.append(rule.name)
        return real_eval_rule(rule, premise, *interned)

    monkeypatch.setattr(evaluation, "eval_rule", counting_eval_rule)
    compute_errors(rules, {"r1"}, example)
    check_fp_feasible(rules, example)
    build_rbsc(rules, example)
    build_pnpsc(rules, example)
    exact.solve_exact(rules, example)
    exact.pareto_front(rules, example)
    assert sorted(calls) == ["r1", "r2", "r3"]

    # an equal rule list built anew hits the memo
    rebuilt = parse_rules(F1_RULES)
    assert rebuilt is not rules
    full = evaluated(rules, example.premise)
    assert evaluated(rebuilt, example.premise) is full
    assert len(calls) == 3

    # a sub-list is its own rule list: evaluated separately, to the same outputs
    sub = RuleSet(rules.rules[:2], rules.premise_schema, rules.conclusion_schema)
    assert evaluated(sub, example.premise).per_rule == \
        {name: full.per_rule[name] for name in ("r1", "r2")}
    assert sorted(calls) == ["r1", "r1", "r2", "r2", "r3"]

    # an equal premise parsed anew starts its own memo
    premise = parse_facts(F1_PREMISE, schema=rules.premise_schema)
    assert premise == example.premise
    assert evaluated(rules, premise).per_rule == full.per_rule
    assert len(calls) == 8


def test_evaluation_memo_keeps_the_spelling_of_constants():
    premise = parse_facts("P(1)\nP(2)\n")
    derived = {}
    for literal in ("1", "1.0", "1.00"):
        rules = parse_rules(f"rule a: P(x) -> Out({literal}).")
        (out,) = evaluated(rules, premise).per_rule["a"]
        derived[literal] = str(out)
    assert derived == {"1": "Out(1)", "1.0": "Out(1.0)", "1.00": "Out(1.00)"}


def _rule_with_constant(term):
    rule = Rule("r", (RelationalAtom("P", (var("x"), term)),),
                RelationalAtom("Out", (var("x"),)))
    return RuleSet.infer([rule])


def test_term_built_from_a_plain_int_matches_facts():
    premise = Instance({"P": 2}, [fact("P", "u", 5)])
    (built,) = _rule_with_constant(Term(const=5)).rules
    assert eval_rule(built, premise) == {fact("Out", "u")}


@pytest.mark.parametrize("first", ["Term", "const"])
def test_evaluation_memo_agrees_for_equal_constant_terms(first):
    premise = Instance({"P": 2}, [fact("P", "u", 5)])
    lists = {"Term": _rule_with_constant(Term(const=5)),
             "const": _rule_with_constant(const(5))}
    order = [first] + [k for k in lists if k != first]
    outputs = [evaluated(lists[k], premise).per_rule["r"] for k in order]
    assert outputs == [{fact("Out", "u")}] * 2


def test_compute_errors_f1(f1):
    rules, example = f1
    rep = compute_errors(rules, {"r1"}, example)
    assert (names(rep.fp), names(rep.fn), rep.total) == (["a1"], ["u3"], 2)
    rep0 = compute_errors(rules, frozenset(), example)
    assert rep0.fp == frozenset() and rep0.fn == example.truth.facts and rep0.total == 3
    rep12 = compute_errors(rules, {"r1", "r2"}, example)
    assert (names(rep12.fp), rep12.fn, rep12.total) == (["a1", "a2"], frozenset(), 2)


def test_check_fp_feasible(f1):
    rules, example = f1
    assert check_fp_feasible(rules, example) == frozenset()
    extra = Instance({"B": 1}, list(example.truth.facts) + [fact("B", "zz")])
    assert names(check_fp_feasible(rules, DataExample(example.premise, extra))) == ["zz"]
    none = parse_rules("")
    assert check_fp_feasible(none, DataExample(Instance.empty(), extra)) == extra.facts


def test_jaccard_values():
    assert jaccard("univ of california", "univ of california") == 1
    assert jaccard("department of medicine stanford",
                   "school of medicine stanford") == Fraction(3, 5)
    assert jaccard("", "") == 1
    assert jaccard(42, "42") == 1  # numbers are rendered to text


def test_builtin_comparisons():
    rules = parse_rules(
        'rule g: N(x), geq(x, 3) -> Big(x).\n'
        'rule l: N(x), leq(x, 3) -> Small(x).\n'
        'rule t: W(x), geq(x, 0) -> Never(x).\n')
    premise = parse_facts('N(2)\nN(3)\nN(4)\nW("abc")')
    assert names(eval_rule(rules.rule("g"), premise)) == [3, 4]
    assert names(eval_rule(rules.rule("l"), premise)) == [2, 3]
    assert eval_rule(rules.rule("t"), premise) == frozenset()  # cross-kind is false


def test_jaccard_filter_in_rule():
    rules = parse_rules(
        'rule s: A(x,u), A(y,v), neq(x,y), jaccard_geq(u,v,0.5) -> L(x,y).')
    premise = parse_facts(
        'A("p1", "dept of medicine stanford")\n'
        'A("p2", "school of medicine stanford")\n'
        'A("p3", "univ of california")\n')
    out = eval_rule(rules.rule("s"), premise)
    pairs = sorted((f.args[0], f.args[1]) for f in out)
    assert pairs == [("p1", "p2"), ("p2", "p1")]


@given(st.text(max_size=40), st.text(max_size=40))
def test_jaccard_properties(a, b):
    sim = jaccard(a, b)
    assert 0 <= sim <= 1
    assert sim == jaccard(b, a)
    assert jaccard(a, a) == 1


@given(st.integers(min_value=0, max_value=10**6),
       st.lists(st.sampled_from(["r1", "r2", "r3", "r4", "j1"]), unique=True),
       st.lists(st.sampled_from(["r1", "r2", "r3", "r4", "j1"]), unique=True))
def test_eval_monotone_in_selection(seed, a, b):
    rules, example = gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=5, n_sets=5, density=0.4,
                fp_noise=0.3, fn_noise=0.1, join_rules=1))
    cache = evaluated(rules, example.premise)
    small = frozenset(a)
    large = small | frozenset(b)
    assert cache.eval_selection(small) <= cache.eval_selection(large)
    rep_s = compute_errors(rules, small, example)
    rep_l = compute_errors(rules, large, example)
    assert rep_l.fn_count <= rep_s.fn_count
    assert rep_l.fp_count >= rep_s.fp_count


@given(st.integers(min_value=0, max_value=10**6))
def test_error_report_consistency(seed):
    rules, example = gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=6, n_sets=4, density=0.4,
                fp_noise=0.2, fn_noise=0.2, join_rules=1))
    rep = compute_errors(rules, frozenset(rules.names()), example)
    assert rep.fp & example.truth.facts == frozenset()
    assert rep.fn <= example.truth.facts
    assert rep.total == rep.fp_count + rep.fn_count
    assert rep.fn == check_fp_feasible(rules, example)


RULE_CORPUS = [
    'rule a: P(x) -> Out(x).',
    'rule b: P(x), Q(x) -> Out(x).',
    'rule c: R(x,y), Q(y) -> Out(x).',
    'rule d: R(x,y), R(y,z) -> Pair(x,z).',
    'rule e: R(x,y), neq(x,y) -> Pair(x,y).',
    'rule f: P(x), R(x,y), leq(y, 3) -> Out(y).',
    'rule g: R(x,x) -> Out(x).',
    'rule h: P(x), Q(y), jaccard_geq(x, y, 0.5) -> Pair(x,y).',
    'rule i: R(_, y) -> Out(y).',
    'rule j: R(x, 2), P(x) -> Out(x).',
    'rule k: P(x) -> Pair(x, "k").',
    'rule l: R(x, y), R(y, x) -> Pair(x, y).',
    'rule m: P(x), R(y, y), neq(x, y) -> Pair(x, y).',
    'rule n: R(x, y), R(y, z), R(z, w) -> Pair(x, w).',
    'rule o: Q(y), R(x, y), P(x) -> Out(x).',
    'rule p: Q(x) -> Mark(x).',
]


# Every corpus rule runs on one premise, in drawn order, so the rules share
# (and first build) the premise's index in varying orders; then the whole
# list runs at once, so they also share their conclusion facts.
@given(st.integers(min_value=0, max_value=10**6),
       st.permutations(RULE_CORPUS))
def test_eval_rule_matches_naive_oracle(seed, rule_texts):
    import random

    rng = random.Random(seed)
    consts = ['"a b"', '"b c"', '"c"', "1", "2", "3"]
    lines = []
    for rel, arity in (("P", 1), ("Q", 1), ("R", 2)):
        for _ in range(rng.randrange(0, 7)):
            args = ", ".join(rng.choice(consts) for _ in range(arity))
            lines.append(f"{rel}({args})")
    premise = parse_facts("\n".join(lines), schema={"P": 1, "Q": 1, "R": 2})
    expected = {}
    for rule_text in rule_texts:
        (rule,) = parse_rules(rule_text).rules
        expected[rule.name] = naive_eval_rule(rule, premise)
        assert eval_rule(rule, premise) == expected[rule.name], rule_text
    assert evaluated(parse_rules("\n".join(rule_texts)), premise).per_rule == expected


SPELLING_RULES = [
    'rule a: P(x), Q(x), jaccard_geq(x, "2 0", 1) -> Out(x).',
    'rule b: Q(x), P(x), jaccard_geq(x, "2", 1) -> Out(x).',
    'rule c: P(x), Q(y), jaccard_geq(x, y, 1) -> Pair(x, y).',
    'rule d: P(x), Q(x), jaccard_geq(x, 2.50, 1) -> Out(x).',
    'rule e: P(x), Q(x), geq(x, 2.0) -> Out(x).',
    'rule f: Q(x), P(x), leq(x, 2) -> Out(x).',
    'rule g: P(x), Q(x), geq(x, 2), leq(x, 2.00) -> Out(x).',
]
SPELLINGS = ["0", "-0.0", "2", "2.0", "2.00", "2.5", "2.50", "7", "7.0", '"2"', '"2 0"']


# Numerically equal constants spelled apart (2, 2.0) bind a variable to
# whichever spelling the join reaches first; the builtins must read the value.
@given(st.lists(st.sampled_from(SPELLINGS), max_size=6),
       st.lists(st.sampled_from(SPELLINGS), max_size=6))
def test_builtins_read_numbers_by_value(p_args, q_args):
    lines = [f"P({a})" for a in p_args] + [f"Q({a})" for a in q_args]
    premise = parse_facts("\n".join(lines), schema={"P": 1, "Q": 1})
    for rule_text in SPELLING_RULES:
        (rule,) = parse_rules(rule_text).rules
        assert eval_rule(rule, premise) == naive_eval_rule(rule, premise), rule_text


def test_concurrent_evaluation_shares_one_index():
    # Threads race to build the lazy premise index and the rule list's
    # evaluation; a lost or torn update would give a thread other facts or
    # another index or evaluation object.
    import sys
    import threading

    rules, example = gen_random_ruleselect(
        GenSeed(seed=3, n_universe=300, n_sets=12, density=0.4,
                fp_noise=0.3, fn_noise=0.1, join_rules=4))
    expected = evaluated(rules, example.premise).per_rule
    premise = parse_facts(write_facts(example.premise), schema=rules.premise_schema)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results = []

    def work():
        barrier.wait(timeout=60)
        indexes = [premise.lookup(rel, (0,)) for rel in premise.schema]
        results.append((evaluated(rules, premise), indexes))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == n_threads
    first_cache, first = results[0]
    for cache, indexes in results:
        assert cache is first_cache and cache.per_rule == expected
        assert all(a is b for a, b in zip(indexes, first))
