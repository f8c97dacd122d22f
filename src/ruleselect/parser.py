"""Rule-language and fact-file parsing and canonical serialization.

Surface syntax:

    rule r1: Set1(x) -> B(x).
    rule m: A(p1,q1,ln), A(p2,q2,ln), neq(p1,p2) -> Same(p1,q1,p2,q2).

Bare identifiers in term position are always variables; constants are quoted
strings or numeric literals.  `_` is a fresh anonymous variable per
occurrence.  Fact files hold one fact per line, constants only; `#` starts a
comment in both formats.
"""
from __future__ import annotations

import re
from decimal import Decimal
from typing import Mapping, Optional

from .model import (
    BUILTIN_NAMES,
    INT64_MAX,
    INT64_MIN,
    BuiltinAtom,
    Fact,
    Instance,
    RelationalAtom,
    Rule,
    RuleSet,
    Term,
    display_var,
    literal,
    validate,
)


class ParseError(ValueError):
    """Syntax error with a position inside the input."""

    def __init__(self, message: str, file: str, line: int, column: int, snippet: str = ""):
        self.message = message
        self.file = file
        self.line = line
        self.column = column
        self.snippet = snippet
        super().__init__(f"{file}:{line}:{column}: {message}")


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

# The constants of both formats: strings with \" and \\ escapes and no "\n",
# 64-bit integers and exact decimals.  `_STRING_HEAD` is a string up to its
# closing quote; where no quote follows, the lexer names what stopped it.
_STRING_HEAD = r'"[^"\\\n]*(?:\\["\\][^"\\\n]*)*'
_STRING = _STRING_HEAD + '"'
_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?"
_STRING_HEAD_RE = re.compile(_STRING_HEAD)
_ESCAPE_RE = re.compile(r"\\(.)")

# Blanks and comments, then one token.  `other` matches any other character,
# which is an error, or the end of the text.  Blanks are space, tab and every
# line break `str.splitlines` knows, as between the lines of a fact file; they
# number the lines of error messages, but only "\n" ends a comment.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n\x0b\x0c\x1c-\x1e\x85\u2028\u2029]+|#[^\n]*)*"
    rf"(?:(?P<arrow>->)|(?P<number>{_NUMBER})|(?P<string>{_STRING})"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[(),.:])|(?P<other>.|\Z))", re.S)


def _constant(raw: str):
    """The value of a string or number literal; None for an integer outside
    the 64-bit range."""
    if raw[0] == '"':
        text = raw[1:-1]
        return _ESCAPE_RE.sub(r"\1", text) if "\\" in text else text
    if "." in raw:
        return Decimal(raw)
    n = int(raw)
    return n if INT64_MIN <= n <= INT64_MAX else None


def _fail(text: str, file: str, message: str, pos: int):
    """Raise a ParseError at offset `pos` of `text`, with lines numbered as
    `str.splitlines` splits them and that line as the snippet."""
    head = (text[:pos] + ".").splitlines()  # the dot keeps the line `pos` is on
    snippet = text.splitlines()[len(head) - 1:] or [""]
    raise ParseError(message, file, len(head), len(head[-1]), snippet[0])


def _tokens(text: str, file: str):
    """(kind, value, offset) of each token of `text` -- ident, string,
    number, punct or arrow -- then of ("eof", "") for ever.

    Lazy: a token's lexical error is raised when the parser asks for that
    token, so any syntax error before it is reported first.
    """
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        value = m[kind]
        if kind == "string" or kind == "number":
            value = _constant(value)
            if value is None:
                _fail(text, file, f"integer {m[kind]} outside the 64-bit range", start)
        elif kind == "other":
            if value == '"':
                end = _STRING_HEAD_RE.match(text, start).end()
                if end == len(text):
                    _fail(text, file, "unterminated string", start)
                if text[end] == "\n":
                    _fail(text, file, "newline inside string", start)
                _fail(text, file, f"unknown escape \\{text[end + 1:end + 2] or '<eof>'}", end)
            if value == "-":
                _fail(text, file, "expected digits after '-'", start)
            if value:
                _fail(text, file, f"unexpected character {value!r}", start)
            kind = "eof"
        yield kind, value, start


# --------------------------------------------------------------------------
# Rule parsing
# --------------------------------------------------------------------------


class _RuleParser:
    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.tokens = _tokens(text, file)
        self._advance()
        self._anon_counter = 0

    def _advance(self):
        self.kind, self.value, self.pos = next(self.tokens)

    def error(self, message: str, pos: Optional[int] = None):
        _fail(self.text, self.file, message, self.pos if pos is None else pos)

    def expect(self, kind, value=None):
        if self.kind != kind or (value is not None and self.value != value):
            want = value if value is not None else kind
            got = self.value if self.kind != "eof" else "<eof>"
            self.error(f"expected {want!r}, got {got!r}")
        value = self.value
        self._advance()
        return value

    def parse(self) -> RuleSet:
        rules = []
        while self.kind != "eof":
            rules.append(self._ruledef())
        ruleset = RuleSet.infer(rules)
        validate(ruleset)
        return ruleset

    def _ruledef(self) -> Rule:
        pos = self.pos
        if self.expect("ident") != "rule":
            self.error("expected 'rule'", pos)
        name = self.expect("ident")
        self.expect("punct", ":")
        self._anon_counter = 0
        atoms = [self._atom()]
        while self.kind == "punct" and self.value == ",":
            self._advance()
            atoms.append(self._atom())
        self.expect("arrow")
        head = self._atom(head=True)
        self.expect("punct", ".")
        return Rule(name, tuple(atoms), head)

    def _atom(self, head: bool = False):
        pos = self.pos
        name = self.expect("ident")
        if name in BUILTIN_NAMES:
            if head:
                self.error("builtins cannot be rule conclusions", pos)
            return self._builtin(name)
        if not name[0].isupper():
            self.error(f"relation names start with an uppercase letter, got {name!r}", pos)
        return RelationalAtom(name, tuple(self._term_list()))

    def _builtin(self, name: str):
        self.expect("punct", "(")
        t1 = self._term()
        self.expect("punct", ",")
        if name in ("geq", "leq"):
            t2 = Term(const=self._number(f"{name} bound"))
        else:
            t2 = self._term()
        threshold = None
        if name == "jaccard_geq":
            self.expect("punct", ",")
            threshold = Decimal(self._number("jaccard_geq threshold"))
        self.expect("punct", ")")
        return BuiltinAtom(name, (t1, t2), threshold)

    def _number(self, what: str):
        """The value of a numeric literal, the next token, which `what` names."""
        if self.kind != "number":
            self.error(f"{what} must be a numeric literal")
        value = self.value
        self._advance()
        return value

    def _term_list(self):
        self.expect("punct", "(")
        terms = [self._term()]
        while self.kind == "punct" and self.value == ",":
            self._advance()
            terms.append(self._term())
        self.expect("punct", ")")
        return terms

    def _term(self) -> Term:
        kind, value, pos = self.kind, self.value, self.pos
        if kind == "ident":
            self._advance()
            if value == "_":
                self._anon_counter += 1
                return Term(var=f"_#{self._anon_counter}")
            if value in BUILTIN_NAMES:
                self.error(f"{value!r} is a reserved builtin name", pos)
            return Term(var=value)
        if kind == "string" or kind == "number":
            self._advance()
            return Term(const=value)
        self.error("expected a term")


def parse_rules(text: str, file: str = "<rules>") -> RuleSet:
    """Parse rule source into a validated RuleSet with inferred schemas."""
    return _RuleParser(text, file).parse()


# --------------------------------------------------------------------------
# Fact parsing
# --------------------------------------------------------------------------


# The common shape of a fact line: an ASCII relation name starting uppercase,
# then constants with blanks or tabs between tokens.  Over a text whose line
# breaks are all "\n", `_LINE_RE.findall` gives one triple per line:
# (relation, argument text, "") for a line of that shape, ("", "", line) for
# any other.  Other lines -- blanks, comments, malformed input -- and lines
# with an out-of-range integer go to the lexer, which alone produces
# ParseError messages and positions.
_CONST = f"(?:{_STRING}|{_NUMBER})"
_LINE_RE = re.compile(
    rf"^(?:[ \t]*([A-Z][A-Za-z0-9_]*)[ \t]*\([ \t]*({_CONST}(?:[ \t]*,[ \t]*{_CONST})*)"
    rf"[ \t]*\)[ \t]*$|(.*))", re.M)
_CONST_RE = re.compile(_CONST)


def _read_args(arg_text: str) -> Optional[tuple]:
    """The constants of a matched argument text; None when an integer is out
    of range, which the lexer reports."""
    args = []
    for raw in _CONST_RE.findall(arg_text):
        value = _constant(raw)
        if value is None:
            return None
        args.append(value)
    return tuple(args)


def _lex_fact_line(raw: str, file: str) -> Optional[Fact]:
    """The fact on one line, through the lexer, for every line shape; None
    for blank/comment-only lines."""
    tokens = _tokens(raw, file)
    kind, rel, pos = next(tokens)
    if kind == "eof":
        return None
    if kind != "ident" or not rel[0].isupper():
        _fail(raw, file, "expected a relation name", pos)
    if rel in BUILTIN_NAMES:
        _fail(raw, file, f"{rel!r} is a reserved builtin name", pos)
    kind, value, pos = next(tokens)
    if not (kind == "punct" and value == "("):
        _fail(raw, file, "expected '('", pos)
    args = []
    while True:
        kind, value, pos = next(tokens)
        if kind not in ("string", "number"):
            got = value if kind != "eof" else "<eol>"
            _fail(raw, file, f"expected a constant term, got {got!r}", pos)
        args.append(value)
        kind, value, pos = next(tokens)
        if kind == "punct" and value == ",":
            continue
        if kind == "punct" and value == ")":
            break
        got = value if kind != "eof" else "<eol>"
        _fail(raw, file, f"expected ',' or ')', got {got!r}", pos)
    kind, value, pos = next(tokens)
    if kind != "eof":
        _fail(raw, file, f"unexpected trailing input {value!r}", pos)
    return Fact(rel, tuple(args))


def parse_facts(text: str, schema: Optional[Mapping[str, int]] = None,
                file: str = "<facts>") -> Instance:
    """Parse a fact file: one `Rel(const, ...)` per line, `#` comments allowed.

    With a schema, every fact must conform to it; without one, the schema is
    inferred from usage.  One pass over the text files each fact's argument
    tuple under its relation, reading each distinct argument text once.
    """
    text = "\n".join(text.splitlines())  # lines and their numbers as `splitlines` gives them
    arity = dict(schema) if schema is not None else {}
    rows: dict = {}
    args_of: dict = {}

    def line(lineno: int) -> str:  # a matched line's text, for the lexer and error snippets
        return text.split("\n")[lineno - 1]

    for lineno, (rel, arg_text, raw) in enumerate(_LINE_RE.findall(text), start=1):
        if rel:
            args = args_of.get(arg_text)
            if args is None:
                args = args_of[arg_text] = _read_args(arg_text)
        if not rel or args is None:  # another shape, or an integer out of range
            raw = line(lineno) if rel else raw
            try:
                f = _lex_fact_line(raw, file)
            except ParseError as pe:
                raise ParseError(pe.message, file, lineno, pe.column, raw) from None
            if f is None:
                continue
            rel, args = f.relation, f.args
        bucket = rows.get(rel)
        if bucket is None:
            if schema is not None and rel not in schema:
                raise ParseError(f"relation {rel} is not in the expected schema",
                                 file, lineno, 1, line(lineno))
            bucket = rows[rel] = []
            arity.setdefault(rel, len(args))
        if len(args) != arity[rel]:
            message = (f"relation {rel} expects arity {arity[rel]}, got {len(args)}"
                       if schema is not None else
                       f"relation {rel} used with arities {arity[rel]} and {len(args)}")
            raise ParseError(message, file, lineno, 1, line(lineno))
        bucket.append(args)
    return Instance.from_rows(arity, rows)


# --------------------------------------------------------------------------
# Canonical writers
# --------------------------------------------------------------------------


def _format_term(t: Term) -> str:
    return display_var(t.var) if t.is_var else literal(t.const)


def _format_atom(a) -> str:
    if isinstance(a, BuiltinAtom):
        parts = [_format_term(t) for t in a.terms]
        if a.threshold is not None:
            parts.append(format(a.threshold, "f"))
        return f"{a.name}({', '.join(parts)})"
    return f"{a.relation}({', '.join(_format_term(t) for t in a.terms)})"


def write_rules(rules: RuleSet) -> str:
    """Canonical rule source: one rule per line, in list order."""
    lines = []
    for r in rules.rules:
        premise = ", ".join(_format_atom(a) for a in r.premise)
        lines.append(f"rule {r.name}: {premise} -> {_format_atom(r.head)}.")
    return "\n".join(lines) + ("\n" if lines else "")


def write_facts(inst: Instance) -> str:
    """Canonical fact file: facts sorted by (relation, args)."""
    lines = [str(f) for f in sorted(inst.facts, key=Fact.sort_key)]
    return "\n".join(lines) + ("\n" if lines else "")

