"""Core domain types: constants, facts, instances, rule ASTs, selections, error reports.

Everything here is immutable after construction and safe to share across threads;
an `Instance` only memoizes values derived from its facts.
"""
from __future__ import annotations

from decimal import Decimal
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union


class ValidationError(ValueError):
    """A domain object violates its invariants (unsafe rule, bad schema, unknown
    name), or a rule does not fit the premise it is evaluated on."""


class CapacityError(RuntimeError):
    """Work past a fixed limit, refused before it is done: an enumeration of
    more rules than `exact.ExactConfig.max_rules` or past the visit or union
    limits of `_bitset.check_enumeration`, or a join step past
    `evaluation.MAX_JOIN_MATCHES`."""


class InfeasibleError(RuntimeError):
    """No cover exists: truth facts (`missing`) that no rule derives, so FP
    mode has no feasible selection, or, read as red-blue set cover, blue
    elements that no set holds."""

    def __init__(self, missing: frozenset):
        self.missing = missing
        super().__init__(f"{len(missing)} truth fact(s) not derivable by any rule")


class Record(tuple):
    """Base of the immutable value records here and in `exact`, `covering` and
    `generators`.

    A record is the tuple of its field values, in the order its class lists
    them in `_fields`; each field reads as a property.  Hashing and equality
    are the tuple's, so a record equals the plain tuple of its fields, and
    assigning or deleting an attribute raises `AttributeError`.  Each
    record's `__new__` checks its fields and returns `tuple.__new__(cls,
    fields)`; pickling and copying call it again with the field values.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__name__}({fields})"


#: Builtin predicate names reserved by the rule language.  Semantics live in
#: the evaluation module; the model and parser only need the registry keys.
BUILTIN_NAMES = frozenset({"neq", "eq", "jaccard_geq", "geq", "leq"})

#: Number of terms every builtin takes (jaccard_geq additionally takes a
#: decimal threshold literal, which is not a term).
BUILTIN_TERMS = 2

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check_constant(v) -> None:
    """Accept a constant: UTF-8 text, a 64-bit integer or a finite decimal.

    Constants are the plain Python values, so equality is Python's own: text
    "1" never equals number 1, and numbers compare by numeric value
    (1 == Decimal("1.0"), with equal hashes).
    """
    if isinstance(v, str):
        return
    if isinstance(v, bool) or not isinstance(v, (int, Decimal)):
        raise ValidationError(f"unsupported constant {v!r}")
    if isinstance(v, int):
        if not INT64_MIN <= v <= INT64_MAX:
            raise ValidationError(f"integer {v} outside the 64-bit range")
    elif not v.is_finite():
        raise ValidationError(f"decimal {v} is not finite")


def literal(v) -> str:
    """The canonical literal of a constant: quoted, escaped text or a plain number."""
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, Decimal):
        return format(v, "f")
    return str(v)


class Fact(Record):
    """One tuple of a named relation; facts have set semantics inside an Instance.

    A fact is the record `(relation, args)`.  It keeps `__slots__ = ()`, so
    it has no `__dict__` and is no larger than the plain tuple.
    """

    __slots__ = ()
    _fields = ("relation", "args")

    def __new__(cls, relation: str, args: tuple):
        if not relation:
            raise ValidationError("fact needs a relation name")
        if not isinstance(args, tuple):
            raise ValidationError(f"fact arguments must be a tuple, not {type(args).__name__}")
        for a in args:
            check_constant(a)
        return tuple.__new__(cls, (relation, args))

    def sort_key(self):
        # Numbers before texts; numbers numerically, texts by code point.
        return (self.relation, tuple((isinstance(a, str), a) for a in self.args))

    def __str__(self):
        """The canonical text, as one line of a fact file."""
        return f"{self.relation}({', '.join(map(literal, self.args))})"


def checked_fact(relation: str, args: tuple) -> Fact:
    """A `Fact` from a relation name and a tuple of constants that were
    already checked (parsed literals, premise values, rule constants): it
    skips the checks of `Fact(...)`."""
    return tuple.__new__(Fact, (relation, args))


def fact(relation: str, *args) -> Fact:
    """Convenience constructor: `fact("R", "a", 1)` is `Fact("R", ("a", 1))`."""
    return Fact(relation, args)


def _grouped(rows, key: Callable) -> dict:
    # key(args) -> the argument tuples that have it
    groups: dict = {}
    for args in rows:
        groups.setdefault(key(args), []).append(args)
    return {k: tuple(group) for k, group in groups.items()}


class Instance:
    """A set of facts together with the schema (relation name -> arity) they obey.

    The facts are stored per relation, as their argument tuples (`bucket`);
    the frozenset of `Fact`s (`facts`) is built on first read, so an
    instance that only evaluation reads never builds it.  Values derived from
    the facts alone (the facts themselves, the lookup index, rule
    evaluations) are memoized on the instance by `derived`: built on first
    use, published with `dict.setdefault` so concurrent builders agree on one
    object, and shared by every reader afterwards.  They take no part in
    equality or hashing.
    """

    __slots__ = ("schema", "_derived")

    def __init__(self, schema: Mapping[str, int], facts: Iterable[Fact]):
        facts = frozenset(facts)
        rows: dict = {}
        for f in facts:
            rows.setdefault(f.relation, []).append(f.args)
        self._fill(schema, rows)
        self._derived[Fact] = facts

    @classmethod
    def from_rows(cls, schema: Mapping[str, int], rows: Mapping[str, list]) -> "Instance":
        """An instance from relation -> argument tuples of constants already
        checked (as for `checked_fact`), repeats allowed.  Of equal tuples,
        such as (1,) and (Decimal("1.0"),), the first one is kept."""
        inst = cls.__new__(cls)
        inst._fill(schema, rows)
        return inst

    def _fill(self, schema: Mapping[str, int], rows: Mapping[str, list]):
        self.schema = dict(schema)
        for name, arity in self.schema.items():
            if arity < 1:
                raise ValidationError(f"relation {name} has arity {arity} < 1")
        buckets = {rel: tuple(dict.fromkeys(args)) for rel, args in rows.items()}
        for rel, bucket in buckets.items():
            arity = self.schema.get(rel)
            if arity is None:
                raise ValidationError(f"fact over undeclared relation {rel}")
            for width in set(map(len, bucket)) - {arity}:
                raise ValidationError(
                    f"fact {rel}/{width} does not match declared arity {arity}")
        # None -> {relation: argument tuples}; Fact -> the frozenset of facts;
        # (relation, positions) -> {values there: argument tuples};
        # a rule list's canonical text -> its per-rule outputs (`evaluation.evaluated`)
        self._derived: dict = {None: buckets}

    @classmethod
    def empty(cls, schema: Optional[Mapping[str, int]] = None):
        return cls(schema or {}, ())

    def derived(self, key, build: Callable[[], object]):
        """The value memoized under `key`, made by `build()` on first use."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived.setdefault(key, build())
        return value

    @property
    def facts(self) -> frozenset:
        """The facts, as a frozenset of `Fact`s, built on first read."""
        return self.derived(Fact, lambda: frozenset(
            checked_fact(rel, args)
            for rel, rows in self._derived[None].items() for args in rows))

    def bucket(self, name: str) -> tuple:
        """The argument tuples of one relation's facts, in a fixed order; empty
        when it has none."""
        return self._derived[None].get(name, ())

    def lookup(self, name: str, positions: tuple) -> dict:
        """Hash index of one relation on one or more argument positions:
        `itemgetter(*positions)` of an argument tuple (the value there for
        one position, the tuple of values for several) -> the argument tuples
        carrying it."""
        return self.derived((name, positions), lambda: _grouped(
            self.bucket(name), itemgetter(*positions)))

    def __len__(self):
        return sum(map(len, self._derived[None].values()))

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.schema == other.schema and self.facts == other.facts

    def __hash__(self):
        return hash((frozenset(self.schema.items()), self.facts))

    def __reduce__(self):
        # Pickled at every protocol as its schema and rows; the memo is rebuilt on use.
        return Instance.from_rows, (self.schema, self._derived[None])

    def __repr__(self):
        return f"Instance({len(self.schema)} relations, {len(self)} facts)"


class Term(Record):
    """A variable or a constant in an atom.  Exactly one of var/const is set."""

    _fields = ("var", "const")

    def __new__(cls, var: Optional[str] = None,
                const: Union[str, int, Decimal, None] = None):
        if (var is None) == (const is None):
            raise ValidationError("term must be exactly one of variable or constant")
        if const is not None:
            check_constant(const)
        return tuple.__new__(cls, (var, const))

    @property
    def is_var(self) -> bool:
        return self.var is not None


def var(name: str) -> Term:
    return Term(var=name)


def const(v) -> Term:
    return Term(const=v)


class RelationalAtom(Record):
    _fields = ("relation", "terms")

    def __new__(cls, relation: str, terms: tuple):
        if not terms:
            raise ValidationError(f"atom {relation}() needs at least one term")
        return tuple.__new__(cls, (relation, terms))

    def variables(self) -> Iterator[str]:
        for t in self.terms:
            if t.is_var:
                yield t.var


class BuiltinAtom(Record):
    _fields = ("name", "terms", "threshold")

    def __new__(cls, name: str, terms: tuple, threshold: Optional[Decimal] = None):
        if name not in BUILTIN_NAMES:
            raise ValidationError(f"unknown builtin {name!r}")
        if len(terms) != BUILTIN_TERMS:
            raise ValidationError(f"builtin {name} takes {BUILTIN_TERMS} terms")
        if (name == "jaccard_geq") != (threshold is not None):
            raise ValidationError(f"builtin {name}: bad threshold usage")
        return tuple.__new__(cls, (name, terms, threshold))

    variables = RelationalAtom.variables


Atom = Union[RelationalAtom, BuiltinAtom]


class Rule(Record):
    """A Horn rule: conjunctive premise over the premise schema, single conclusion atom.

    Safety (every conclusion/builtin variable bound by a relational premise
    atom) is checked by `validate` and at parse time, not at construction, so
    that invalid rules can be represented and reported on.
    """

    _fields = ("name", "premise", "head")

    def __new__(cls, name: str, premise: tuple, head: RelationalAtom):
        if not name:
            raise ValidationError("rule needs a name")
        if not premise:
            raise ValidationError(f"rule {name}: premise must be non-empty")
        return tuple.__new__(cls, (name, premise, head))

    def relational_atoms(self) -> list:
        return [a for a in self.premise if isinstance(a, RelationalAtom)]

    def builtin_atoms(self) -> list:
        return [a for a in self.premise if isinstance(a, BuiltinAtom)]

    def unsafe_variables(self) -> list:
        """Conclusion/builtin variables not bound by any relational premise atom."""
        bound = {v for a in self.relational_atoms() for v in a.variables()}
        unsafe = []
        for a in (self.head, *self.builtin_atoms()):
            for v in a.variables():
                if v not in bound and v not in unsafe:
                    unsafe.append(v)
        return unsafe


class RuleSet:
    """An ordered collection of uniquely named rules over disjoint schemas S and T."""

    __slots__ = ("rules", "premise_schema", "conclusion_schema", "_by_name")

    def __init__(self, rules: Iterable[Rule], premise_schema: Mapping[str, int],
                 conclusion_schema: Mapping[str, int]):
        self.rules = tuple(rules)
        self.premise_schema = dict(premise_schema)
        self.conclusion_schema = dict(conclusion_schema)
        self._by_name = {}
        for r in self.rules:
            if r.name in self._by_name:
                raise ValidationError(f"duplicate rule name {r.name!r}")
            self._by_name[r.name] = r
        overlap = set(self.premise_schema) & set(self.conclusion_schema)
        if overlap:
            raise ValidationError(
                f"premise and conclusion schemas overlap on {sorted(overlap)}"
            )

    @classmethod
    def infer(cls, rules: Iterable[Rule]) -> "RuleSet":
        """Infer schemas from atom usage: premise relations -> S, conclusions -> T."""
        rules = tuple(rules)
        prem: dict[str, int] = {}
        conc: dict[str, int] = {}
        for r in rules:
            for schema, atoms in ((prem, r.relational_atoms()), (conc, (r.head,))):
                for a in atoms:
                    known = schema.setdefault(a.relation, len(a.terms))
                    if known != len(a.terms):
                        raise ValidationError(
                            f"relation {a.relation} used with arities {known} and {len(a.terms)}")
        return cls(rules, prem, conc)

    def names(self) -> tuple:
        return tuple(r.name for r in self.rules)

    def rule(self, name: str) -> Rule:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown rule name {name!r}") from None

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __eq__(self, other):
        if not isinstance(other, RuleSet):
            return NotImplemented
        return (self.rules == other.rules
                and self.premise_schema == other.premise_schema
                and self.conclusion_schema == other.conclusion_schema)

    def __repr__(self):
        return f"RuleSet({len(self.rules)} rules)"


class DataExample(Record):
    """A premise instance paired with a ground-truth conclusion instance."""

    _fields = ("premise", "truth")

    def __new__(cls, premise: Instance, truth: Instance):
        return tuple.__new__(cls, (premise, truth))


#: A selection is the set of chosen rule names.
Selection = frozenset


def check_selection(rules: RuleSet, selection: Iterable[str]) -> Selection:
    """Normalize to a frozenset and reject names that are not in the rule set."""
    sel = frozenset(selection)
    unknown = sel - set(rules.names())
    if unknown:
        raise ValidationError(f"selection references unknown rules {sorted(unknown)}")
    return sel


class ErrorReport(Record):
    """False positives and false negatives of a selection against a data example."""

    _fields = ("fp", "fn")

    def __new__(cls, fp: frozenset, fn: frozenset):
        return tuple.__new__(cls, (fp, fn))

    @property
    def fp_count(self) -> int:
        return len(self.fp)

    @property
    def fn_count(self) -> int:
        return len(self.fn)

    @property
    def total(self) -> int:
        return len(self.fp) + len(self.fn)


class EvalLimits(Record):
    """Bounds that keep evaluation polynomial: atoms per premise, conclusion arity."""

    _fields = ("max_premise_atoms", "max_conclusion_arity")

    def __new__(cls, max_premise_atoms: int, max_conclusion_arity: int):
        if max_premise_atoms < 1 or max_conclusion_arity < 1:
            raise ValidationError("evaluation limits must be positive")
        return tuple.__new__(cls, (max_premise_atoms, max_conclusion_arity))


class ParetoPoint(Record):
    """An (error, size) pair, optionally with a selection realizing it."""

    _fields = ("error", "size", "witness")

    def __new__(cls, error: int, size: int, witness: Optional[Selection] = None):
        return tuple.__new__(cls, (error, size, witness))


def display_var(name: str) -> str:
    """Render a variable for messages; parser-generated anonymous vars show as `_`."""
    return "_" if name.startswith("_#") else name


def rule_size(rule: Rule) -> int:
    """Number of premise atoms, relational and builtin alike."""
    return len(rule.premise)


def ruleset_size(selection: Iterable[str], rules: RuleSet) -> int:
    """Sum of rule sizes over the chosen rules; 0 for the empty selection."""
    sel = check_selection(rules, selection)
    return sum(rule_size(rules.rule(name)) for name in sel)


def validate(rules: RuleSet, limits: Optional[EvalLimits] = None) -> None:
    """Check each rule's relations against the schemas, its safety, and (when
    given) the evaluation limits; `RuleSet` already keeps the schemas disjoint.

    Raises `ValidationError` for the first violation, in rule order, naming
    the offending rule.
    """
    for r in rules.rules:
        where = f"rule {r.name}: "
        for side, schema, atoms in (("premise", rules.premise_schema, r.relational_atoms()),
                                    ("conclusion", rules.conclusion_schema, (r.head,))):
            for a in atoms:
                arity = schema.get(a.relation)
                if arity is None:
                    raise ValidationError(where + f"undeclared {side} relation {a.relation}")
                elif arity != len(a.terms):
                    raise ValidationError(
                        where + f"{a.relation} used with arity {len(a.terms)}, declared {arity}")
        unsafe = r.unsafe_variables()
        if unsafe:
            shown = ", ".join(display_var(v) for v in unsafe)
            raise ValidationError(where + f"unsafe: {shown} unbound")
        if limits is not None:
            if rule_size(r) > limits.max_premise_atoms:
                raise ValidationError(
                    where + f"premise has {rule_size(r)} atoms, limit {limits.max_premise_atoms}")
            if len(r.head.terms) > limits.max_conclusion_arity:
                raise ValidationError(
                    where + f"conclusion arity {len(r.head.terms)} exceeds limit "
                    f"{limits.max_conclusion_arity}")
