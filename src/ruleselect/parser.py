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

_PUNCT = {"(", ")", ",", ".", ":"}
_DIGITS = frozenset("0123456789")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # ident | string | number | punct | arrow | eof
        self.value = value
        self.line = line
        self.col = col


class _Lexer:
    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str, line=None, col=None):
        line = self.line if line is None else line
        col = self.col if col is None else col
        lines = self.text.splitlines()
        snippet = lines[line - 1] if 0 < line <= len(lines) else ""
        raise ParseError(message, self.file, line, col, snippet)

    def _advance(self, n=1):
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _peek(self, off=0):
        i = self.pos + off
        return self.text[i] if i < len(self.text) else ""

    def _skip_space_and_comments(self):
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            elif c in " \t\r\n":
                self._advance()
            else:
                return

    def _lex_string(self):
        line, col = self.line, self.col
        self._advance()  # opening quote
        out = []
        while True:
            c = self._peek()
            if c == "":
                self.error("unterminated string", line, col)
            if c == "\n":
                self.error("newline inside string", line, col)
            if c == '"':
                self._advance()
                return _Token("string", "".join(out), line, col)
            if c == "\\":
                esc = self._peek(1)
                if esc not in ('"', "\\"):
                    self.error(f"unknown escape \\{esc or '<eof>'}")
                out.append(esc)
                self._advance(2)
            else:
                out.append(c)
                self._advance()

    def _lex_number(self):
        line, col = self.line, self.col
        start = self.pos
        if self._peek() == "-":
            self._advance()
        if self._peek() not in _DIGITS:
            self.error("expected digits after '-'", line, col)
        while self._peek() in _DIGITS:
            self._advance()
        is_decimal = False
        if self._peek() == "." and self._peek(1) in _DIGITS:
            is_decimal = True
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        raw = self.text[start:self.pos]
        if is_decimal:
            return _Token("number", Decimal(raw), line, col)
        n = int(raw)
        if not INT64_MIN <= n <= INT64_MAX:
            self.error(f"integer {raw} outside the 64-bit range", line, col)
        return _Token("number", n, line, col)

    def next(self) -> _Token:
        self._skip_space_and_comments()
        line, col = self.line, self.col
        c = self._peek()
        if c == "":
            return _Token("eof", "", line, col)
        if c == '"':
            return self._lex_string()
        if c == "-" and self._peek(1) == ">":
            self._advance(2)
            return _Token("arrow", "->", line, col)
        if c == "-" or c in _DIGITS:
            return self._lex_number()
        if c in _PUNCT:
            self._advance()
            return _Token("punct", c, line, col)
        if c.isascii() and (c.isalpha() or c == "_"):
            start = self.pos
            while True:
                ch = self._peek()
                if ch.isascii() and (ch.isalnum() or ch == "_"):
                    self._advance()
                else:
                    break
            return _Token("ident", self.text[start:self.pos], line, col)
        self.error(f"unexpected character {c!r}")


# --------------------------------------------------------------------------
# Rule parsing
# --------------------------------------------------------------------------


class _RuleParser:
    def __init__(self, text: str, file: str):
        self.lexer = _Lexer(text, file)
        self.tok = self.lexer.next()
        self._anon_counter = 0

    def _advance(self):
        self.tok = self.lexer.next()

    def error(self, message: str):
        self.lexer.error(message, self.tok.line, self.tok.col)

    def expect(self, kind, value=None):
        if self.tok.kind != kind or (value is not None and self.tok.value != value):
            want = value if value is not None else kind
            got = self.tok.value if self.tok.kind != "eof" else "<eof>"
            self.error(f"expected {want!r}, got {got!r}")
        tok = self.tok
        self._advance()
        return tok

    def parse(self) -> RuleSet:
        rules = []
        while self.tok.kind != "eof":
            rules.append(self._ruledef())
        ruleset = RuleSet.infer(rules)
        validate(ruleset)
        return ruleset

    def _ruledef(self) -> Rule:
        kw = self.expect("ident")
        if kw.value != "rule":
            self.lexer.error("expected 'rule'", kw.line, kw.col)
        name = self.expect("ident").value
        self.expect("punct", ":")
        self._anon_counter = 0
        atoms = [self._atom()]
        while self.tok.kind == "punct" and self.tok.value == ",":
            self._advance()
            atoms.append(self._atom())
        self.expect("arrow")
        head = self._head_atom()
        self.expect("punct", ".")
        return Rule(name, tuple(atoms), head)

    def _atom(self):
        name_tok = self.expect("ident")
        name = name_tok.value
        if name in BUILTIN_NAMES:
            return self._builtin(name, name_tok)
        if not name[0].isupper():
            self.lexer.error(
                f"relation names start with an uppercase letter, got {name!r}",
                name_tok.line, name_tok.col)
        terms = self._term_list()
        return RelationalAtom(name, tuple(terms))

    def _builtin(self, name: str, name_tok):
        self.expect("punct", "(")
        if name == "jaccard_geq":
            t1 = self._term()
            self.expect("punct", ",")
            t2 = self._term()
            self.expect("punct", ",")
            thr_tok = self.tok
            if thr_tok.kind != "number":
                self.error("jaccard_geq threshold must be a numeric literal")
            self._advance()
            self.expect("punct", ")")
            return BuiltinAtom(name, (t1, t2), threshold=Decimal(thr_tok.value))
        t1 = self._term()
        self.expect("punct", ",")
        if name in ("geq", "leq"):
            bound_tok = self.tok
            if bound_tok.kind != "number":
                self.error(f"{name} bound must be a numeric literal")
            self._advance()
            t2 = Term(const=bound_tok.value)
        else:
            t2 = self._term()
        self.expect("punct", ")")
        return BuiltinAtom(name, (t1, t2))

    def _head_atom(self) -> RelationalAtom:
        name_tok = self.expect("ident")
        name = name_tok.value
        if name in BUILTIN_NAMES:
            self.lexer.error("builtins cannot be rule conclusions",
                             name_tok.line, name_tok.col)
        if not name[0].isupper():
            self.lexer.error(
                f"relation names start with an uppercase letter, got {name!r}",
                name_tok.line, name_tok.col)
        terms = self._term_list()
        return RelationalAtom(name, tuple(terms))

    def _term_list(self):
        self.expect("punct", "(")
        terms = [self._term()]
        while self.tok.kind == "punct" and self.tok.value == ",":
            self._advance()
            terms.append(self._term())
        self.expect("punct", ")")
        return terms

    def _term(self) -> Term:
        tok = self.tok
        if tok.kind == "ident":
            self._advance()
            if tok.value == "_":
                self._anon_counter += 1
                return Term(var=f"_#{self._anon_counter}")
            if tok.value in BUILTIN_NAMES:
                self.lexer.error(f"{tok.value!r} is a reserved builtin name",
                                 tok.line, tok.col)
            return Term(var=tok.value)
        if tok.kind == "string":
            self._advance()
            return Term(const=tok.value)
        if tok.kind == "number":
            self._advance()
            return Term(const=tok.value)
        self.error("expected a term")


def parse_rules(text: str, file: str = "<rules>") -> RuleSet:
    """Parse rule source into a validated RuleSet with inferred schemas."""
    return _RuleParser(text, file).parse()


# --------------------------------------------------------------------------
# Fact parsing
# --------------------------------------------------------------------------


# The common shape of a fact line: an ASCII relation name starting uppercase,
# then constants (strings with \" and \\ escapes, integers, decimals) with
# blanks or tabs between tokens.  Over a text whose line breaks are all "\n",
# `_LINE_RE.findall` gives one triple per line: (relation, argument text, "")
# for a line of that shape, ("", "", line) for any other.  Other lines --
# blanks, comments, malformed input -- and lines with an out-of-range integer
# go to the lexer, which alone produces ParseError messages and positions.
_STRING = r'"[^"\\\n]*(?:\\["\\][^"\\\n]*)*"'
_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?"
_CONST = f"(?:{_STRING}|{_NUMBER})"
_LINE_RE = re.compile(
    rf"^(?:[ \t]*([A-Z][A-Za-z0-9_]*)[ \t]*\([ \t]*({_CONST}(?:[ \t]*,[ \t]*{_CONST})*)"
    rf"[ \t]*\)[ \t]*$|(.*))", re.M)
_CONST_RE = re.compile(f"({_STRING})|({_NUMBER})")
_ESCAPE_RE = re.compile(r"\\(.)")


def _read_args(arg_text: str) -> Optional[tuple]:
    """The constants of a matched argument text; None when an integer is out
    of range, which the lexer reports."""
    args = []
    for quoted, number in _CONST_RE.findall(arg_text):
        if quoted:
            text = quoted[1:-1]
            if "\\" in text:
                text = _ESCAPE_RE.sub(r"\1", text)
            args.append(text)
        elif "." in number:
            args.append(Decimal(number))
        else:
            n = int(number)
            if not INT64_MIN <= n <= INT64_MAX:
                return None
            args.append(n)
    return tuple(args)


def _lex_fact_line(raw: str, file: str) -> Optional[Fact]:
    """The fact on one line, through the positioned lexer, for every line
    shape; None for blank/comment-only lines.  Positions are line-local."""
    lexer = _Lexer(raw, file)
    tok = lexer.next()
    if tok.kind == "eof":
        return None
    if tok.kind != "ident" or not tok.value[0].isupper():
        lexer.error("expected a relation name", 1, tok.col)
    rel = tok.value
    if rel in BUILTIN_NAMES:
        lexer.error(f"{rel!r} is a reserved builtin name", 1, tok.col)
    tok = lexer.next()
    if not (tok.kind == "punct" and tok.value == "("):
        lexer.error("expected '('", 1, tok.col)
    args = []
    while True:
        tok = lexer.next()
        if tok.kind in ("string", "number"):
            args.append(tok.value)
        else:
            got = tok.value if tok.kind != "eof" else "<eol>"
            lexer.error(f"expected a constant term, got {got!r}", 1, tok.col)
        tok = lexer.next()
        if tok.kind == "punct" and tok.value == ",":
            continue
        if tok.kind == "punct" and tok.value == ")":
            break
        got = tok.value if tok.kind != "eof" else "<eol>"
        lexer.error(f"expected ',' or ')', got {got!r}", 1, tok.col)
    tok = lexer.next()
    if tok.kind != "eof":
        lexer.error(f"unexpected trailing input {tok.value!r}", 1, tok.col)
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
    if t.is_var:
        return "_" if t.var.startswith("_#") else t.var
    return literal(t.const)


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

