from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from ruleselect import (
    Instance,
    ParseError,
    ValidationError,
    parse_facts,
    parse_rules,
    write_facts,
    write_rules,
)
from ruleselect.generators import GenSeed, gen_random_ruleselect
from ruleselect.parser import _fast_fact_line, _lex_fact_line, _parse_fact_line

from conftest import F1_PREMISE, F1_RULES


def test_parse_single_rule_infers_schemas():
    rules = parse_rules('rule r1: Set1(x) -> B(x).')
    assert rules.names() == ("r1",)
    assert rules.premise_schema == {"Set1": 1}
    assert rules.conclusion_schema == {"B": 1}


def test_parse_rule_with_builtin_and_wide_conclusion():
    rules = parse_rules(
        'rule m: A(p1,q1,ln), A(p2,q2,ln), neq(p1,p2) -> Same(p1,q1,p2,q2).')
    rule = rules.rule("m")
    assert len(rule.premise) == 3
    assert len(rule.head.terms) == 4


def test_parse_error_positions_unclosed_paren():
    with pytest.raises(ParseError) as err:
        parse_rules('rule bad: S(x) -> B(x,')
    assert err.value.line == 1
    assert err.value.column >= 20


def test_parse_rejects_unsafe_and_overlapping_schemas():
    with pytest.raises(ValidationError, match=r"^rule bad: unsafe: y unbound$"):
        parse_rules('rule bad: S(x) -> B(y).')
    with pytest.raises(ValidationError):
        parse_rules('rule a: S(x) -> B(x).\nrule b: B(x) -> C(x).')
    with pytest.raises(ValidationError):
        parse_rules('rule a: S(x) -> B(x).\nrule b: S(x,y) -> B(x).')


def test_parse_facts_deduplicates():
    inst = parse_facts('Set1("u1")\nSet1("u1")\nSet1("u2")')
    assert len(inst) == 2


def test_parse_facts_numeric_args():
    inst = parse_facts('SameAuthor(19132421, 1, 19135934, 1)')
    (f,) = inst.facts
    assert f.relation == "SameAuthor"
    assert list(f.args) == [19132421, 1, 19135934, 1]


def test_parse_facts_empty_term_is_error():
    with pytest.raises(ParseError) as err:
        parse_facts('B("u1", )')
    assert err.value.line == 1


def test_parse_facts_comments_blanks_and_schema_checks():
    inst = parse_facts('# header\n\nB("u1")  # trailing\n', schema={"B": 1})
    assert len(inst) == 1
    with pytest.raises(ParseError) as err:
        parse_facts('B("u1", "u2")', schema={"B": 1})
    assert "B" in err.value.message and err.value.line == 1
    with pytest.raises(ParseError):
        parse_facts('B("u1")\nB("u1", "u2")\n')  # inferred-arity conflict


def test_parse_facts_anonymous_or_variable_rejected():
    with pytest.raises(ParseError):
        parse_facts('B(x)')
    with pytest.raises(ParseError):
        parse_facts('B(_)')


def test_write_facts_canonical_order(f1):
    _, example = f1
    assert write_facts(example.premise).splitlines()[0] == 'Set1("a1")'


def test_write_facts_empty():
    from ruleselect import Instance

    assert write_facts(Instance.empty()) == ""


def test_round_trip_f1(f1):
    rules, example = f1
    assert parse_rules(write_rules(rules)) == rules
    again = parse_facts(write_facts(example.premise), schema=rules.premise_schema)
    assert again == example.premise


def test_round_trip_anonymous_and_escapes():
    text = 'rule r: S(x, _), T(_, "a\\"b\\\\c") -> B(x).'
    rules = parse_rules(text)
    assert parse_rules(write_rules(rules)) == rules


def test_round_trip_numbers_and_thresholds():
    text = ('rule r: S(x, n), geq(n, 3), leq(n, 7.5), '
            'jaccard_geq(x, "univ of ca", 0.50) -> B(n).')
    rules = parse_rules(text)
    again = parse_rules(write_rules(rules))
    assert again == rules
    atom = rules.rule("r").premise[3]
    assert atom.threshold == Decimal("0.50")


def test_value_kind_survives_round_trip():
    inst = parse_facts('N(1)\nN("1")\nN(1.0)')
    assert len(inst) == 2  # 1 and Decimal("1.0") are the same number, "1" is not
    assert parse_facts(write_facts(inst)).facts == inst.facts


@given(st.integers(min_value=0, max_value=2**32))
def test_random_instances_round_trip(seed):
    rules, example = gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=5, n_sets=4, density=0.4,
                fp_noise=0.3, fn_noise=0.2, join_rules=1))
    assert parse_rules(write_rules(rules)) == rules
    assert parse_facts(write_facts(example.premise),
                       schema=rules.premise_schema) == example.premise
    assert parse_facts(write_facts(example.truth),
                       schema=rules.conclusion_schema) == example.truth


@given(st.text(max_size=200))
def test_parser_total_on_arbitrary_text(text):
    for fn in (parse_rules, parse_facts):
        try:
            fn(text)
        except (ParseError, ValidationError):
            pass


@given(st.permutations(F1_PREMISE.strip().splitlines()))
def test_inferred_schema_order_insensitive(lines):
    inst = parse_facts("\n".join(lines))
    assert inst == parse_facts(F1_PREMISE)


def test_rules_file_roundtrip_text_level(f1):
    rules, _ = f1
    assert write_rules(parse_rules(F1_RULES)) == F1_RULES


def _quote(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_BLANKS = st.sampled_from(["", " ", "\t", " \t "])
_CONSTANTS = st.one_of(
    st.text(alphabet=st.sampled_from('ab #,()"\\\té€'), max_size=6).map(_quote),
    st.integers(min_value=-2**64, max_value=2**64).map(str),
    st.integers(min_value=2**63 - 2, max_value=2**63 + 1).map(str),
    st.decimals(min_value=-1000, max_value=1000, places=3).map(lambda d: format(d, "f")),
    st.sampled_from(['"open', '"bad \\n"', "1.", "--1", "-", ".5", "0x1", "x", "_", ""]),
)


@st.composite
def _fact_lines(draw):
    """Fact-shaped lines, some malformed: names, separators and tails vary."""
    parts = [draw(_BLANKS), draw(st.sampled_from(["A", "Rel_2", "a", "neq", "_B", "É", "A b"])),
             draw(_BLANKS), draw(st.sampled_from(["(", "(", "["])), draw(_BLANKS)]
    for i, constant in enumerate(draw(st.lists(_CONSTANTS, max_size=4))):
        if i:
            parts += [draw(_BLANKS), draw(st.sampled_from([",", ",", ";", ""])), draw(_BLANKS)]
        parts.append(constant)
    parts += [draw(_BLANKS), draw(st.sampled_from([")", ")", "", "))"])), draw(_BLANKS),
              draw(st.sampled_from(["", "", "# note", "x", "."]))]
    return "".join(parts)


def _outcome(parse_line, raw):
    try:
        return repr(parse_line(raw, "<facts>"))
    except ParseError as e:
        return (e.message, e.line, e.column)


# Lines one token away from the fast path's shape, pinned as examples.
_EDGE_LINES = [
    "A(1.)", "A(1.5.2)", "A(-)", "A(--1)", "A(-> 1)", "A(.5)", "A()", "A(1,)", "A(,1)",
    "A(1 2)", "A(1)x", "A(1) # c", "# only", "", " \t", "a(1)", "neq(1, 2)", "É(1)",
    "A (1)", ' \tA( 1 ,\t"2" )\t', 'A("x\\q")', 'A("open', 'A("a\nb")', "A(1)\nB(2)",
    f"A({2**63})", f"A({-2**63 - 1})", "A(00.50, -0, -0.0)", 'A("\u2028")',
]


@settings(max_examples=400)
@given(st.one_of(_fact_lines(), st.text(max_size=40)))
def test_fact_fast_path_agrees_with_lexer(raw):
    assert _outcome(_parse_fact_line, raw) == _outcome(_lex_fact_line, raw)


for _raw in _EDGE_LINES:
    test_fact_fast_path_agrees_with_lexer = example(_raw)(test_fact_fast_path_agrees_with_lexer)


def test_canonical_fact_lines_take_the_fast_path():
    lines = ['A("a\\"b\\\\c")', 'Rel_2(-7, 2.50, "é # ,)")', 'B(\t1 ,"" )',
             f"N({2**63 - 1}, {-2**63})"]
    for raw in lines:
        assert _fast_fact_line(raw) is not None, raw
        assert repr(_fast_fact_line(raw)) == _outcome(_lex_fact_line, raw)
    assert _fast_fact_line(f"N({2**63})") is None  # out of range: the lexer reports it


def _file_outcome(text):
    try:
        return parse_facts(text)
    except ParseError as e:
        return (e.message, e.line, e.column, e.snippet)


def _line_by_line(text):
    """`_file_outcome` rebuilt from `_parse_fact_line`, one line at a time."""
    arities, facts = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            f = _parse_fact_line(raw, "<facts>")
        except ParseError as e:
            return (e.message, lineno, e.column, raw)
        if f is None:
            continue
        known = arities.setdefault(f.relation, len(f.args))
        if known != len(f.args):
            return (f"relation {f.relation} used with arities {known} and {len(f.args)}",
                    lineno, 1, raw)
        facts.append(f)
    return Instance(arities, facts)


# Lines of the fast path's shape whose argument lists often repeat.
_COMMON_LINES = st.builds(
    lambda blank, constant: f"{blank}A({constant}){blank}",
    _BLANKS,
    st.one_of(
        st.text(alphabet=st.sampled_from('ab "\\é'), max_size=3).map(_quote),
        st.integers(min_value=-3, max_value=3).map(str),
        st.sampled_from(["1.0", "1.00", "-0", str(2**63 - 1), str(2**63), str(-2**63 - 1)])))


@settings(max_examples=300)
@given(st.lists(st.one_of(_COMMON_LINES, _COMMON_LINES, _COMMON_LINES, _fact_lines()),
                max_size=10))
@example(["A(1)", "A(12)", "A(1)", "A(1.0)", 'A("1")'])
@example(["A(1)", f"A({2**63})", f"A({2**63})"])
def test_parse_facts_agrees_with_line_by_line(lines):
    # parse_facts reads each distinct argument list once per call, and a
    # file must still parse as its lines do one at a time.
    text = "\n".join(lines)
    assert _file_outcome(text) == _line_by_line(text)
