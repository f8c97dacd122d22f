import re
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from ruleselect import (
    ParseError,
    ValidationError,
    parse_facts,
    parse_rules,
    write_facts,
    write_rules,
)
from ruleselect import parser
from ruleselect.generators import GenSeed, gen_random_ruleselect
from ruleselect.parser import _lex_fact_line

from conftest import F1_PREMISE, F1_RULES
from oracles import _Lexer


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


@pytest.mark.parametrize("text, message, line, column, snippet", [
    ('rule r: P("ab', "unterminated string", 1, 11, 'rule r: P("ab'),
    ('rule r: P("a\nb") -> Q(x).', "newline inside string", 1, 11, 'rule r: P("a'),
    ('rule r: P("a\\q") -> Q(x).', "unknown escape \\q", 1, 13, 'rule r: P("a\\q") -> Q(x).'),
    ('rule r: P("a\\', "unknown escape \\<eof>", 1, 13, 'rule r: P("a\\'),
    ("rule r: P(-x) -> Q(x).", "expected digits after '-'", 1, 11, "rule r: P(-x) -> Q(x)."),
    ("rule r: P(x)\n  -> Q(x, -9223372036854775809).",
     "integer -9223372036854775809 outside the 64-bit range", 2, 11,
     "  -> Q(x, -9223372036854775809)."),
    ("rule r: P(x) -> Q(x) ?", "unexpected character '?'", 1, 22, "rule r: P(x) -> Q(x) ?"),
    # Lines are numbered as `str.splitlines` splits them.
    ("# a\x85b\nrule r: P(x) -> Q(x) ?", "unexpected character '?'", 3, 22,
     "rule r: P(x) -> Q(x) ?"),
    ("# note\u2028more\nrule r: P(x) -> Q(x) ?", "unexpected character '?'", 3, 22,
     "rule r: P(x) -> Q(x) ?"),
    ("rule a: P(x) -> Q(x).\rrule b: P(x) -> Q(x) ?", "unexpected character '?'", 2, 22,
     "rule b: P(x) -> Q(x) ?"),
    ("rule a: P(x) -> Q(x).\r\nrule b: P(x) -> Q(x) ?", "unexpected character '?'", 2, 22,
     "rule b: P(x) -> Q(x) ?"),
    # A syntax error comes before a bad character after it.
    ("rule r: P(x) Q(x).\n?", "expected 'arrow', got 'Q'", 1, 14, "rule r: P(x) Q(x)."),
    # Atom errors: the head and premise atoms go through one reader.
    ("rule r: S(x) -> neq(x, x).", "builtins cannot be rule conclusions", 1, 17,
     "rule r: S(x) -> neq(x, x)."),
    ("rule r: S(x) -> b(x).", "relation names start with an uppercase letter, got 'b'", 1, 17,
     "rule r: S(x) -> b(x)."),
    ("rule r: S(x),\n  s(x) -> B(x).",
     "relation names start with an uppercase letter, got 's'", 2, 3, "  s(x) -> B(x)."),
    ("rule r: S(x), geq(x, y) -> B(x).", "geq bound must be a numeric literal", 1, 22,
     "rule r: S(x), geq(x, y) -> B(x)."),
    ('rule r: S(x), leq(x, "1") -> B(x).', "leq bound must be a numeric literal", 1, 22,
     'rule r: S(x), leq(x, "1") -> B(x).'),
    ('rule r: S(x), jaccard_geq(x, x, "0.5") -> B(x).',
     "jaccard_geq threshold must be a numeric literal", 1, 33,
     'rule r: S(x), jaccard_geq(x, x, "0.5") -> B(x).'),
])
def test_rule_errors_are_positioned(text, message, line, column, snippet):
    with pytest.raises(ParseError) as err:
        parse_rules(text)
    assert (err.value.message, err.value.line, err.value.column, err.value.snippet) == (
        message, line, column, snippet)


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_rules_may_be_separated_by_any_line_break(brk):
    # The rule language takes the line breaks a fact file takes.
    rules = ["rule a: S(x) -> B(x).", "rule b: T(x, y), neq(x, y) -> B(x)."]
    assert parse_rules(brk.join(rules) + brk) == parse_rules("\n".join(rules) + "\n")


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


def _one_line_outcome(line, file):
    """`parse_facts` on a one-line text, shaped as `_lex_fact_line`'s outcome."""
    assert len(line.splitlines()) <= 1
    try:
        inst = parse_facts(line, file=file)
    except ParseError as e:
        assert e.snippet == line
        raise
    (f,) = inst.facts or (None,)
    return f


# Lines one token away from the canonical shape, pinned as examples.
_EDGE_LINES = [
    "A(1.)", "A(1.5.2)", "A(-)", "A(--1)", "A(-> 1)", "A(.5)", "A()", "A(1,)", "A(,1)",
    "A(1 2)", "A(1)x", "A(1) # c", "# only", "", " \t", "a(1)", "neq(1, 2)", "É(1)",
    "A (1)", ' \tA( 1 ,\t"2" )\t', 'A("x\\q")', 'A("open', 'A("a\nb")', "A(1)\nB(2)",
    f"A({2**63})", f"A({-2**63 - 1})", "A(00.50, -0, -0.0)", 'A("\u2028")',
]


@settings(max_examples=400)
@given(st.one_of(_fact_lines(), st.text(max_size=40)))
def test_fact_fast_path_agrees_with_lexer(raw):
    # parse_facts on each one-line text reads it as the lexer does.
    for line in raw.splitlines():
        assert _outcome(_one_line_outcome, line) == _outcome(_lex_fact_line, line)


for _raw in _EDGE_LINES:
    test_fact_fast_path_agrees_with_lexer = example(_raw)(test_fact_fast_path_agrees_with_lexer)


def test_canonical_fact_lines_take_the_fast_path(monkeypatch):
    lines = ['A("a\\"b\\\\c")', 'Rel_2(-7, 2.50, "é # ,)")', 'B(\t1 ,"" )',
             f"N({2**63 - 1}, {-2**63})"]
    expected = [_outcome(_lex_fact_line, raw) for raw in lines]
    lexed = []
    monkeypatch.setattr(parser, "_lex_fact_line",
                        lambda raw, file: lexed.append(raw) or _lex_fact_line(raw, file))
    for raw, want in zip(lines, expected):
        assert _outcome(_one_line_outcome, raw) == want
    assert lexed == []  # every canonical line is read without the lexer
    with pytest.raises(ParseError, match="outside the 64-bit range"):
        parse_facts(f"N({2**63})")
    assert lexed == [f"N({2**63})"]  # out of range: the lexer reports it


def _file_outcome(text):
    try:
        inst = parse_facts(text)
    except ParseError as e:
        return (e.message, e.line, e.column, e.snippet)
    return inst.schema, sorted(map(repr, inst.facts))


def _line_by_line(text):
    """`_file_outcome` rebuilt from `_lex_fact_line`, one line at a time; of
    numerically equal facts the first one kept, as a frozenset keeps it."""
    arities, facts = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            f = _lex_fact_line(raw, "<facts>")
        except ParseError as e:
            return (e.message, lineno, e.column, raw)
        if f is None:
            continue
        known = arities.setdefault(f.relation, len(f.args))
        if known != len(f.args):
            return (f"relation {f.relation} used with arities {known} and {len(f.args)}",
                    lineno, 1, raw)
        facts.append(f)
    return arities, sorted(map(repr, frozenset(facts)))


# Every line break `str.splitlines` knows, and text that holds them.
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                           "\x85", "\u2028", "\u2029"])
_BREAK_CHARS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# Lines of the canonical shape whose argument lists often repeat, numerically
# equal spellings among them.
_COMMON_LINES = st.builds(
    lambda blank, constant: f"{blank}A({constant}){blank}",
    _BLANKS,
    st.one_of(
        st.text(alphabet=st.sampled_from('ab "\\é' + _BREAK_CHARS), max_size=3).map(_quote),
        st.integers(min_value=-3, max_value=3).map(str),
        st.sampled_from(["1.0", "1.00", "-0", str(2**63 - 1), str(2**63), str(-2**63 - 1)])))
_OTHER_LINES = st.sampled_from(["", " \t", "# note", "  # A(1)", "A(1) # c"])


@settings(max_examples=300)
@given(st.lists(st.tuples(st.one_of(_COMMON_LINES, _COMMON_LINES, _COMMON_LINES,
                                    _OTHER_LINES, _fact_lines()), _BREAKS),
                max_size=10),
       st.booleans())
@example([("A(1)", "\n"), ("A(12)", "\n"), ("A(1)", "\n"), ("A(1.0)", "\n"), ('A("1")', "\n")],
         False)
@example([("A(1)", "\n"), (f"A({2**63})", "\n"), (f"A({2**63})", "\n")], False)
@example([("A(1.00)", "\r\n"), ("", "\r\n"), ("# c", "\r"), ("A(1)", "\x85"),
          ("A(1.0)", "\u2028")], True)
@example([("A(1)", "\n"), ("A(1.0)", "\n"), ("A(1.00)", "\n")], False)
@example([('A("a', "\u2029"), ('b")', "\x0c"), ("A(1, 2)", "\r\n")], True)
def test_parse_facts_agrees_with_line_by_line(lines, trailing):
    # parse_facts reads the whole text in one pass, each distinct argument
    # list once, and a file must still parse as its lines do one at a time:
    # the same facts with the same spellings, or the same error at the same
    # line, for every line break and wherever it falls.
    text = "".join(line + brk for line, brk in lines)
    if lines and not trailing:
        text = text[:-len(lines[-1][1])]
    assert _file_outcome(text) == _line_by_line(text)


def _reference_tokens(text):
    """The old lexer's tokens as (kind, value, line, column) and its error."""
    lexer, out = _Lexer(text, "<rules>"), []
    try:
        while not out or out[-1][0] != "eof":
            tok = lexer.next()
            out.append((tok.kind, repr(tok.value), tok.line, tok.col))
    except ParseError as e:
        return out, e
    return out, None


def _new_tokens(text):
    """`parser._tokens` as (kind, value, offset) and its error."""
    tokens, out = parser._tokens(text, "<rules>"), []
    try:
        while not out or out[-1][0] != "eof":
            kind, value, pos = next(tokens)
            out.append((kind, repr(value), pos))
    except ParseError as e:
        return out, e
    return out, None


def _offset(lines, line, column):
    """The offset of a line and column within `lines`, a text split with its
    line ends kept."""
    return sum(map(len, lines[:line - 1])) + column - 1


# Every line break `splitlines` knows but "\n" and "\r\n", which the old
# lexer counted alike.
_ODD_BREAK = re.compile("\r(?!\n)|[\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_RULE_FRAGMENTS = st.sampled_from([
    "rule", "r1", " ", " ", "\t", ":", "P", "Q_2", "(", ")", ",", ".", "->", "-", ">", "x", "_",
    "neq", "geq", "jaccard_geq", "12", "-7", "1.5", "1.", "0.50", str(2**63 - 1), str(2**63),
    str(-2**63 - 1), '"', '"a"', '"a\\"b\\\\"', '"a\\q"', "\\", '"open', "#", "# note", "\n",
    "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028", "\u2029", "?", "é", "1a", "A-", "--",
])


@settings(max_examples=500)
@given(st.one_of(st.lists(_RULE_FRAGMENTS, max_size=30).map("".join), st.text(max_size=60)))
@example('rule r: P(x) -> Q(x) "a\\qb" ?')
@example("# a\x85b\nrule r: P(x) -> Q(x) ?")
@example('P("ab\r\ncd")')
def test_tokens_agree_with_the_reference_lexer(text):
    # The token pattern reads what the character-stepping lexer read, token
    # by token, and fails at the same character with the same message.
    old, old_error = _reference_tokens(text)
    new, new_error = _new_tokens(text)
    assert [t[:2] for t in new] == [t[:2] for t in old]
    assert (new_error is None) == (old_error is None)
    # Each token and error at the same offset: the old lexer counted lines
    # by "\n", the new one as `splitlines` does.
    old_lines = text.split("\n")
    old_lines = [line + "\n" for line in old_lines[:-1]] + old_lines[-1:]
    new_lines = text.splitlines(keepends=True)
    assert [t[2] for t in new] == [_offset(old_lines, *t[2:]) for t in old]
    if old_error is None:
        return
    assert new_error.message == old_error.message
    assert (_offset(new_lines, new_error.line, new_error.column)
            == _offset(old_lines, old_error.line, old_error.column))
    assert new_error.snippet == (text.splitlines()[new_error.line - 1:] or [""])[0]
    if not _ODD_BREAK.search(text):
        assert ((new_error.line, new_error.column, new_error.snippet)
                == (old_error.line, old_error.column, old_error.snippet))
